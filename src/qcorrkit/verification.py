"""Composite verification run: closed forms plus core invariants.

Bundles the analytic/numeric equivalence grid with fast spot checks of
the channel contracts (trace preservation, positivity, reductions,
X-form closure, full decay, memory dominance) and a small sample of the
discord measurement oracle.  The CLI ``verify`` subcommand runs this and
exits nonzero if anything fails.
"""

from __future__ import annotations

import numpy as np

from .channels import (
    ChannelParams,
    WmrMode,
    WmrParams,
    apply_ad_uncorrelated,
    apply_cad,
    wmr_pipeline,
)
from .closed_forms import EquivalenceCheck, VerificationReport, verify_closed_forms
from .measures import concurrence, trace_distance_discord
from .oracles import _reference_pipeline_state, tdd_measurement_oracle
from .states import bell_state, is_x_state, random_density_matrix, random_x_state

#: random X states drawn for the discord oracle check
_ORACLE_SAMPLES = 12


def _largest(*parts) -> float:
    """Largest entry over all parts, and at least 0; a NaN anywhere wins, so it fails any tolerance."""
    # + 0.0 turns a -0.0 into 0.0, so the report never prints a signed zero
    return float(np.max([np.max(part, initial=0.0) for part in parts])) + 0.0


def _channel_checks(rng: np.random.Generator, samples: int) -> list[EquivalenceCheck]:
    checks = []

    # every state is drawn before any channel parameter; the verify output depends on this order
    rhos = np.stack([random_density_matrix(rng) for _ in range(samples)])
    p, eta = rng.random((samples, 2)).T
    outs = np.stack([apply_ad_uncorrelated(rhos, p), apply_cad(rhos, ChannelParams(p, eta))])
    dev_trace = _largest(np.abs(outs.trace(axis1=-2, axis2=-1).real - 1.0))
    # the eigensolver fails on a NaN entry: such an output gets a NaN lowest eigenvalue
    finite = np.isfinite(outs).all(axis=(-2, -1))
    lowest = np.full(finite.shape, np.nan)
    lowest[finite] = np.linalg.eigvalsh(outs[finite]).min(axis=-1)
    dev_psd = _largest(-lowest)
    # the independent straight-line composition, not apply_ad_uncorrelated,
    # which apply_cad itself returns at eta = 0; with q = r = 0 the mode is moot
    reference = _reference_pipeline_state(rhos, p, 0.0, 0.0, 0.0, WmrMode.TWO_QUBIT)
    dev_reduction = _largest(np.abs(apply_cad(rhos, ChannelParams(p, 0.0)) - reference))
    checks.append(EquivalenceCheck("channel trace preservation", dev_trace, 1e-12))
    checks.append(EquivalenceCheck("channel positivity", dev_psd, 1e-10))
    checks.append(EquivalenceCheck("eta=0 reduces to uncorrelated damping", dev_reduction, 1e-12))

    # each state's draws follow it: (p, eta, q, r, mode)
    draws = [(random_x_state(rng), rng.random(5)) for _ in range(samples)]
    rhos = np.stack([rho for rho, _ in draws])
    p, eta, q, r, two_qubit = np.stack([u for _, u in draws]).T
    q, r, two_qubit = q * 0.98, r * 0.98, two_qubit < 0.5
    identity, closure = [], []
    for mode, chosen in ((WmrMode.ONE_QUBIT, ~two_qubit), (WmrMode.TWO_QUBIT, two_qubit)):
        rho, ch = rhos[chosen], ChannelParams(p[chosen], eta[chosen])
        piped = wmr_pipeline(rho, ch, WmrParams(0.0, 0.0, mode))
        identity += [np.abs(piped.state - apply_cad(rho, ch)), np.abs(piped.success_probability - 1.0)]
        out = wmr_pipeline(rho, ch, WmrParams(q[chosen], r[chosen], mode))
        closure.append(~is_x_state(out.state))
    checks.append(EquivalenceCheck("pipeline with q=r=0 equals bare channel", _largest(*identity), 0.0))
    checks.append(EquivalenceCheck("X-form closure through the pipeline", _largest(*closure), 0.0))

    ground = np.zeros((4, 4), dtype=complex)
    ground[0, 0] = 1.0
    rhos = np.stack([random_density_matrix(rng) for _ in range(10)])
    dev_decay = _largest(
        np.abs(apply_cad(rhos, ChannelParams(1.0, 0.0)) - ground),
        np.abs(apply_cad(bell_state(), ChannelParams(1.0, 1.0)) - ground),
    )
    checks.append(EquivalenceCheck("full decay lands on the ground state", dev_decay, 1e-12))

    bell = bell_state()
    ps = np.linspace(0.0, 1.0, 21)
    gap = concurrence(apply_cad(bell, ChannelParams(ps, 1.0))) - concurrence(
        apply_cad(bell, ChannelParams(ps, 0.0))
    )
    checks.append(EquivalenceCheck("memory never hurts Bell concurrence", _largest(-gap), 1e-9))

    return checks


def _discord_oracle_check(rng: np.random.Generator) -> EquivalenceCheck:
    ratios = []
    for _ in range(_ORACLE_SAMPLES):
        rho = random_x_state(rng)
        closed = trace_distance_discord(rho)
        if closed < 0.02:
            continue
        ratios.append(tdd_measurement_oracle(rho) / closed)
    spread = max(ratios) - min(ratios) if ratios else np.inf
    return EquivalenceCheck(
        f"discord oracle/closed-form ratio spread (mean {np.mean(ratios):.6f})"
        if ratios
        else "discord oracle/closed-form ratio spread",
        spread,
        1e-5,
    )


def full_verification(grid_points: int, seed: int, samples: int) -> VerificationReport:
    """Run every verify check; each has a fixed tolerance.

    ``grid_points`` sets the points per axis of the closed-form grid
    (:func:`verify_closed_forms`), ``seed`` the random stream of the
    channel samples and the discord oracle states, and ``samples`` the
    number of random states in each channel check.  A ``grid_points``
    or ``samples`` below 1 raises ``ValueError`` before any work.  The
    defaults live on the ``qcorrkit verify`` flags only, so the command
    and this function cannot drift apart.
    """
    if samples < 1:
        raise ValueError(f"samples={samples}: need at least 1 random state")
    report = verify_closed_forms(grid_points)
    rng = np.random.default_rng(seed)
    report.checks.extend(_channel_checks(rng, samples))
    report.checks.append(_discord_oracle_check(rng))
    return report

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
from .oracles import tdd_measurement_oracle
from .states import bell_state, is_x_state, random_density_matrix, random_x_state


def _channel_checks(rng: np.random.Generator, samples: int) -> list[EquivalenceCheck]:
    checks = []

    dev_trace, dev_psd, dev_reduction = 0.0, 0.0, 0.0
    # every state is drawn before any channel parameter; the verify output depends on this order
    for rho in [random_density_matrix(rng) for _ in range(samples)]:
        p, eta = rng.random(), rng.random()
        ad = apply_ad_uncorrelated(rho, p)
        cad = apply_cad(rho, ChannelParams(p, eta))
        for out in (ad, cad):
            dev_trace = max(dev_trace, abs(out.trace().real - 1.0))
            dev_psd = max(dev_psd, max(0.0, -np.linalg.eigvalsh(out).min()))
        dev_reduction = max(
            dev_reduction, np.abs(apply_cad(rho, ChannelParams(p, 0.0)) - ad).max()
        )
    checks.append(EquivalenceCheck("channel trace preservation", dev_trace, 1e-12))
    checks.append(EquivalenceCheck("channel positivity", dev_psd, 1e-10))
    checks.append(EquivalenceCheck("eta=0 reduces to uncorrelated damping", dev_reduction, 1e-12))

    dev_identity = 0.0
    dev_closure = 0.0
    for _ in range(samples):
        rho = random_x_state(rng)
        p, eta = rng.random(), rng.random()
        q, r = rng.random() * 0.98, rng.random() * 0.98
        mode = (WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT)[int(rng.random() < 0.5)]
        bare = apply_cad(rho, ChannelParams(p, eta))
        piped = wmr_pipeline(rho, ChannelParams(p, eta), WmrParams(0.0, 0.0, mode))
        dev_identity = max(dev_identity, np.abs(piped.state - bare).max(), abs(piped.success_probability - 1.0))
        out = wmr_pipeline(rho, ChannelParams(p, eta), WmrParams(q, r, mode))
        if not is_x_state(out.state, 1e-10):
            dev_closure = max(dev_closure, 1.0)
    checks.append(EquivalenceCheck("pipeline with q=r=0 equals bare channel", dev_identity, 0.0))
    checks.append(EquivalenceCheck("X-form closure through the pipeline", dev_closure, 0.0))

    ground = np.zeros((4, 4), dtype=complex)
    ground[0, 0] = 1.0
    dev_decay = 0.0
    for _ in range(10):
        rho = random_density_matrix(rng)
        dev_decay = max(dev_decay, np.abs(apply_cad(rho, ChannelParams(1.0, 0.0)) - ground).max())
    dev_decay = max(dev_decay, np.abs(apply_cad(bell_state(), ChannelParams(1.0, 1.0)) - ground).max())
    checks.append(EquivalenceCheck("full decay lands on the ground state", dev_decay, 1e-12))

    dev_memory = 0.0
    bell = bell_state()
    for p in np.linspace(0.0, 1.0, 21):
        gap = concurrence(apply_cad(bell, ChannelParams(float(p), 1.0))) - concurrence(
            apply_cad(bell, ChannelParams(float(p), 0.0))
        )
        dev_memory = max(dev_memory, max(0.0, -float(gap)))
    checks.append(EquivalenceCheck("memory never hurts Bell concurrence", dev_memory, 1e-9))

    return checks


def _discord_oracle_check(rng: np.random.Generator, samples: int) -> EquivalenceCheck:
    ratios = []
    for _ in range(samples):
        rho = random_x_state(rng)
        closed = trace_distance_discord(rho)
        if closed < 0.02:
            continue
        ratios.append(tdd_measurement_oracle(rho, n_theta=61, n_phi=48) / closed)
    spread = max(ratios) - min(ratios) if ratios else np.inf
    return EquivalenceCheck(
        f"discord oracle/closed-form ratio spread (mean {np.mean(ratios):.6f})"
        if ratios
        else "discord oracle/closed-form ratio spread",
        spread,
        1e-5,
    )


def full_verification(
    grid_points: int = 5,
    upper: float = 0.95,
    tol: float = 1e-9,
    slices: dict[str, float] | None = None,
    seed: int = 2024,
    samples: int = 200,
    oracle_samples: int = 12,
) -> VerificationReport:
    if samples < 1:
        raise ValueError(f"samples={samples}: need at least 1 random state")
    report = verify_closed_forms(grid_points=grid_points, upper=upper, tol=tol, slices=slices)
    rng = np.random.default_rng(seed)
    report.checks.extend(_channel_checks(rng, samples))
    report.checks.append(_discord_oracle_check(rng, oracle_samples))
    return report

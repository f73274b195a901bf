"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 4 asserts two-qubit over one-qubit protection pointwise only
for swap-symmetric initial states.  The maximally entangled mixed state
keeps its single-excitation population in |01> alone, so a one-sided
filter can beat the equal-strength two-qubit protocol; for it the test
pins the exact set of such grid points to the closed-form reversal
optimum.  ``docs/decisions.md`` derives the closed form and works the
counterexample by hand; nothing here is loosened to hide it.
"""

import numpy as np
import pytest

from qcorrkit import training
from qcorrkit.channels import ChannelParams, WmrMode, apply_cad, apply_wm
from qcorrkit.closed_forms import verify_closed_forms
from qcorrkit.dataset import build_dataset
from qcorrkit.measures import (
    concurrence,
    correlation_vector,
    normalize,
    trace_distance_discord,
)
from qcorrkit.mlp import (
    forward_scaled,
    init_mlp,
    network_jacobian,
    weight_summary,
)
from qcorrkit.oracles import tdd_measurement_oracle
from qcorrkit.optimize import optimal_qmr
from qcorrkit.states import (
    StateFamily,
    make_state,
    random_x_state,
)
from qcorrkit.sweep import SweepConfig, run_sweep
from qcorrkit.training import lm_train, restart_search

from conftest import closed_form_optimum, find_zero_crossing, use_network

GROUND = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)

FAMILIES = (StateFamily("bell"), StateFamily("werner", 0.8), StateFamily("mems", 0.8))

SCENARIOS = (("no_wmr", 0.0), ("no_wmr", 1.0), ("wmr2", 0.0), ("wmr2", 1.0))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")


@pytest.fixture(scope="module")
def bell_models():
    """Best-of-20 trained models for the four Bell scenarios (criteria 10, 11)."""
    models = {}
    for scenario, eta in SCENARIOS:
        data = build_dataset(StateFamily("bell"), scenario, eta, points=500)
        models[(scenario, eta)] = restart_search(data, restarts=20, seed=7)
    return models


def test_criterion_1_normalization_anchors():
    v = correlation_vector(make_state(StateFamily("bell")))
    errs = [
        abs(v.chi - 2.0),
        abs(v.fidelity - 1.0),
        abs(v.concurrence - 1.0),
        abs(v.qs - 6.0),
    ]
    jsd_err = abs(v.jsd - 0.56)
    g = correlation_vector(GROUND)
    ground_errs = [
        abs(g.chi - 1.0),
        abs(g.fidelity - 2.0 / 3.0),
        abs(g.concurrence),
        abs(g.qs - 2.0),
        abs(g.tdd),
        abs(g.jsd),
    ]
    ok = max(errs) <= 1e-9 and jsd_err <= 0.005 and max(ground_errs) <= 1e-9
    _report(
        1,
        ok,
        f"pristine/classical anchors: max dev {max(errs):.2e}, "
        f"jsd dev {jsd_err:.4f}, ground max dev {max(ground_errs):.2e}",
    )
    assert max(errs) <= 1e-9
    assert jsd_err <= 0.005
    assert max(ground_errs) <= 1e-9


def test_criterion_2_steering_sudden_death_thresholds():
    crossings = {}
    for eta, target in ((0.0, 0.25), (1.0, 0.66)):
        result = run_sweep(
            SweepConfig(family=StateFamily("bell"), eta=eta, points=2001)
        )
        crossing = find_zero_crossing(result.column("value"), result.column("n_qs"))
        crossings[eta] = (crossing, target)
    ok = all(abs(c - t) <= 0.02 for c, t in crossings.values())
    _report(
        2,
        ok,
        "steering loss at "
        + ", ".join(
            f"eta={eta:g}: p={c:.4f} (target {t} +- 0.02)"
            for eta, (c, t) in crossings.items()
        ),
    )
    for c, t in crossings.values():
        assert abs(c - t) <= 0.02


def test_criterion_3_endpoint_purity():
    bell = make_state(StateFamily("bell"))
    decay_dev = max(
        float(np.abs(apply_cad(bell, ChannelParams(1.0, eta)) - GROUND).max())
        for eta in (0.0, 1.0)
    )
    late = normalize(correlation_vector(apply_cad(bell, ChannelParams(0.999, 0.0))))
    ok = decay_dev <= 1e-12 and abs(late.chi) <= 0.02 and abs(late.qs) <= 0.02
    _report(
        3,
        ok,
        f"full-decay dev {decay_dev:.2e}; at p=0.999 N[chi]={late.chi:+.4f}, "
        f"N[QS]={late.qs:+.4f}",
    )
    assert decay_dev <= 1e-12
    assert abs(late.chi) <= 0.02
    assert abs(late.qs) <= 0.02


#: qubit exchange |ab> -> |ba> in the |00>, |01>, |10>, |11> basis
SWAP = np.eye(4)[[0, 2, 1, 3]]

#: (family, eta, p, q) -> c_one - c_two at the criterion-4 grid points where
#: two-qubit protection loses; derived in docs/decisions.md
LEDGER_TWO_BELOW_ONE = {
    ("mems", 1.0, 0.1, 0.7): 1.3855685e-3,
    ("mems", 1.0, 0.1, 0.8): 3.6958861e-3,
    ("mems", 1.0, 0.1, 0.9): 6.6797890e-3,
}


def test_criterion_4_wmr_dominance_grid():
    violations = []  # one<none anywhere; two<one for swap-symmetric states
    oracle_devs = []  # optimizer off the closed-form optimum
    two_below_one = {}  # swap-asymmetric states: point -> c_one - c_two
    predicted = set()  # swap-asymmetric states: closed-form two<one points
    mean_gaps = []
    for fam in FAMILIES:
        rho0 = make_state(fam)
        symmetric = np.array_equal(SWAP @ rho0 @ SWAP, rho0)
        for eta in (0.0, 1.0):
            ones, twos = [], []
            for p in np.linspace(0.1, 0.9, 9):
                ch = ChannelParams(float(p), eta)
                c_none = float(concurrence(apply_cad(rho0, ch)))
                for q in np.linspace(0.1, 0.9, 9):
                    point = (fam.kind, eta, round(float(p), 2), round(float(q), 2))
                    best = []
                    for mode in (WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT):
                        c = optimal_qmr(fam, ch, float(q), mode).concurrence_at_star
                        sigma = apply_cad(apply_wm(rho0, float(q), mode)[0], ch)
                        c_cf = closed_form_optimum(sigma, mode)
                        if abs(c - c_cf) > 1e-9:
                            oracle_devs.append((*point, mode.value, float(c - c_cf)))
                        best.append((c, c_cf))
                    (c_one, cf_one), (c_two, cf_two) = best
                    ones.append(c_one)
                    twos.append(c_two)
                    if c_one < c_none - 1e-9:
                        violations.append((*point, "one<none", c_none - c_one))
                    if c_two < c_one - 1e-9:
                        if symmetric:
                            violations.append((*point, "two<one", c_one - c_two))
                        else:
                            two_below_one[point] = c_one - c_two
                    if not symmetric and cf_two < cf_one - 1e-9:
                        predicted.add(point)
            mean_gaps.append((fam.kind, eta, float(np.mean(twos) - np.mean(ones))))
    improvements = []
    for fam in FAMILIES:
        for eta in (0.0, 1.0):
            ch = ChannelParams(0.5, eta)
            c_none = float(concurrence(apply_cad(make_state(fam), ch)))
            c_one = optimal_qmr(fam, ch, 0.8, WmrMode.ONE_QUBIT).concurrence_at_star
            c_two = optimal_qmr(fam, ch, 0.8, WmrMode.TWO_QUBIT).concurrence_at_star
            improvements.append((fam.kind, eta, c_one - c_none, c_two - c_one))
    strict_ok = all(d1 > 1e-3 and d2 > 1e-3 for _, _, d1, d2 in improvements)
    means_ok = all(gap >= 1e-3 for _, _, gap in mean_gaps)
    ledger_ok = two_below_one.keys() == LEDGER_TWO_BELOW_ONE.keys() and all(
        abs(gap - LEDGER_TWO_BELOW_ONE[point]) <= 1e-9
        for point, gap in two_below_one.items()
    )
    ok = (
        not violations
        and not oracle_devs
        and set(two_below_one) == predicted
        and ledger_ok
        and means_ok
        and strict_ok
    )
    _report(
        4,
        ok,
        f"dominance grid: {len(violations)} violation(s), "
        f"{len(oracle_devs)} closed-form deviation(s); swap-asymmetric two<one at "
        + ", ".join(f"{pt} by {gap:.3e}" for pt, gap in sorted(two_below_one.items()))
        + f"; strict improvement at (p=0.5, q=0.8) {'holds' if strict_ok else 'fails'}",
    )
    assert strict_ok, improvements
    assert oracle_devs == [], (
        f"optimal_qmr misses the closed-form reversal optimum: {oracle_devs}"
    )
    assert violations == [], (
        "protection dominance fails where docs/decisions.md says it holds: "
        f"{violations}"
    )
    assert set(two_below_one) == predicted and ledger_ok, (
        "swap-asymmetric two<one points (point: c_one - c_two) "
        f"{sorted(two_below_one.items())} differ from the closed-form prediction "
        f"{sorted(predicted)} or from the ledger in docs/decisions.md "
        f"{sorted(LEDGER_TWO_BELOW_ONE.items())}"
    )
    assert means_ok, f"grid-mean two-qubit over one-qubit gaps: {mean_gaps}"


def test_criterion_5_memory_dominance():
    bell = make_state(StateFamily("bell"))
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 41):
        gap = float(
            concurrence(apply_cad(bell, ChannelParams(float(p), 1.0)))
            - concurrence(apply_cad(bell, ChannelParams(float(p), 0.0)))
        )
        worst = min(worst, gap)
    ok = worst >= -1e-9
    _report(5, ok, f"memory vs memoryless concurrence, worst gap {worst:.2e}")
    assert worst >= -1e-9


def test_criterion_6_entanglement_sudden_death():
    werner = make_state(StateFamily("werner", 0.8))

    def conc(p: float) -> float:
        return float(concurrence(apply_cad(werner, ChannelParams(p, 0.0))))

    assert conc(0.0) > 0.0 and conc(1.0) == 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-4:
        mid = (lo + hi) / 2.0
        if conc(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    p_star = (lo + hi) / 2.0
    dead_after = conc(min(p_star + 2e-4, 1.0)) == 0.0
    alive_before = conc(max(p_star - 2e-4, 0.0)) > 0.0

    bell = make_state(StateFamily("bell"))
    bell_alive = all(
        float(concurrence(apply_cad(bell, ChannelParams(float(p), 0.0)))) > 0.0
        for p in np.linspace(0.0, 1.0 - 1e-4, 400)
    )
    ok = p_star < 1.0 and dead_after and alive_before and bell_alive
    _report(
        6,
        ok,
        f"werner(0.8) entanglement dies at p*={p_star:.4f} (< 1); "
        f"bell stays entangled below full damping: {bell_alive}",
    )
    assert p_star < 1.0 and dead_after and alive_before
    assert bell_alive


def test_criterion_7_closed_form_equivalence():
    report = verify_closed_forms(grid_points=5)
    bell_checks = [c for c in report.checks if c.name.startswith("bell")]
    worst = max(c.max_deviation for c in bell_checks)
    ok = all(c.passed for c in bell_checks)
    _report(7, ok, f"closed forms vs pipeline on 5^4 grid, max dev {worst:.2e}")
    assert ok, report.summary()


def test_criterion_8_discord_oracle_equivalence():
    rng = np.random.default_rng(777)
    ratios = []
    while len(ratios) < 200:
        rho = random_x_state(rng)
        closed = trace_distance_discord(rho)
        if closed < 0.02:
            continue
        ratios.append(tdd_measurement_oracle(rho) / closed)
    spread = max(ratios) - min(ratios)

    # degenerate-branch continuity: eps-perturbations of Bell-diagonal
    # states move the discord by at most O(eps)
    worst_jump = 0.0
    for family in (StateFamily("werner", 0.8), StateFamily("bell"), StateFamily("werner", 0.5)):
        base = make_state(family)
        t0 = trace_distance_discord(base)
        for _ in range(20):
            delta = np.zeros((4, 4))
            bump = rng.normal(size=4) * 1e-6
            bump -= bump.mean()
            np.fill_diagonal(delta, bump)
            delta[0, 3] = delta[3, 0] = rng.normal() * 1e-6
            delta[1, 2] = delta[2, 1] = rng.normal() * 1e-6
            worst_jump = max(worst_jump, abs(trace_distance_discord(base + delta) - t0))
    ok = spread <= 1e-6 and worst_jump < 1e-4
    _report(
        8,
        ok,
        f"oracle/closed ratio over 200 X states: mean {np.mean(ratios):.8f}, "
        f"spread {spread:.2e}; degenerate-branch jump {worst_jump:.2e}",
    )
    assert spread <= 1e-6
    assert worst_jump < 1e-4


def test_criterion_9_lm_correctness(rng, monkeypatch):
    use_network(monkeypatch, (2, 2, 1), ("logsig", "tansig"))
    net = init_mlp(seed=17)
    x = rng.normal(size=(6, 2))
    _, jac = network_jacobian(net, x)
    theta = net.params.copy()
    fd = np.empty_like(jac)
    h = 1e-6
    for j in range(theta.size):
        net.params[j] = theta[j] + h
        f_up = forward_scaled(net, x)
        net.params[j] = theta[j] - h
        f_dn = forward_scaled(net, x)
        net.params[j] = theta[j]
        fd[:, j] = (f_up - f_dn) / (2.0 * h)
    rel = float((np.abs(jac - fd) / (np.abs(fd) + 1e-10)).max())

    from qcorrkit.dataset import Dataset

    w_true = np.array([0.7, -1.2, 0.4])
    feats = rng.uniform(-1, 1, (100, 3))
    data = Dataset(
        features=feats,
        targets=feats @ w_true + 0.25,
        scenario="no_wmr",
        eta=0.0,
        sweep_values=np.linspace(0, 1, 100),
    )
    use_network(monkeypatch, (3, 1), ("linear",))
    linear_net = init_mlp(seed=4)
    monkeypatch.setattr(training, "_GRAD_TOL", 0.0)
    report = lm_train(linear_net, data, max_epochs=40)
    ok = rel <= 1e-5 and report.mse_train < 1e-20
    _report(
        9,
        ok,
        f"jacobian rel dev {rel:.2e} (<= 1e-5); linear-net exact LS train MSE "
        f"{report.mse_train:.2e} (< 1e-20)",
    )
    assert rel <= 1e-5
    assert report.mse_train < 1e-20


def test_criterion_10_regression_reproduction(bell_models):
    results = {
        key: report.mse_test for key, (net, report) in bell_models.items()
    }
    ok = all(mse <= 1e-3 for mse in results.values())
    _report(
        10,
        ok,
        "best-of-20 test MSE per scenario: "
        + ", ".join(f"{s}/eta={e:g}: {m:.2e}" for (s, e), m in results.items()),
    )
    for mse in results.values():
        assert mse <= 1e-3


def test_criterion_11_weight_summary(bell_models):
    summaries = {}
    for key, (net, _) in bell_models.items():
        rows = weight_summary(net)
        assert len(rows) == 5
        for name, mean, std in rows:
            assert np.isfinite(mean) and np.isfinite(std) and std >= 0.0
        summaries[key] = rows

    # determinism: retraining one scenario with the same seed gives the
    # bit-identical summary
    data = build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=500)
    net2, _ = restart_search(data, restarts=20, seed=7)
    identical = summaries[("no_wmr", 0.0)] == weight_summary(net2)
    identical = identical and np.array_equal(bell_models[("no_wmr", 0.0)][0].params, net2.params)

    conc_means = {k: dict((n, m) for n, m, _ in v)["concurrence"] for k, v in summaries.items()}
    _report(
        11,
        identical,
        f"5 finite (mean, std) pairs per model; deterministic retrain: {identical}; "
        "logged concurrence mean weights "
        + ", ".join(f"{s}/eta={e:g}: {m:+.3f}" for (s, e), m in conc_means.items()),
    )
    assert identical

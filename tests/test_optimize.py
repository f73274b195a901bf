import numpy as np
import pytest

import qcorrkit.optimize
from qcorrkit.channels import (
    ChannelParams,
    WmrMode,
    WmrParams,
    _sandwich_normalized,
    apply_cad,
    apply_qmr,
    apply_wm,
    wmr_pipeline,
)
from qcorrkit.exceptions import NumericalContractError, UnsupportedStateError
from qcorrkit.measures import concurrence
from qcorrkit.optimize import (
    _GRID,
    _GRID_STEP,
    _R_MAX,
    OptimizationResult,
    _grid_factors,
    optimal_qmr,
)
from qcorrkit.states import StateFamily, make_state, random_x_state, werner_state

from conftest import closed_form_optimum, closed_form_u_star


def exhaustive_grid_oracle(family, ch, q, mode, n=1_000_001):
    """Best r on a 1e-6-step grid, via the analytic X-state concurrence.

    Independent of the production path: exhaustive search instead of
    the stationary point of the reversal, and entries rescaled here
    instead of by ``apply_qmr``.
    """
    measured, _ = apply_wm(make_state(family), q, mode)
    sigma = apply_cad(measured, ch)
    rs = np.linspace(0.0, 1.0 - 1e-6, n)
    sr = np.sqrt(1.0 - rs)
    if mode is WmrMode.TWO_QUBIT:
        d1, d2, d3, d4 = 1.0 - rs, sr, sr, np.ones_like(rs)
    else:
        d1, d2, d3, d4 = sr, np.ones_like(rs), sr, np.ones_like(rs)
    p11 = sigma[0, 0].real * d1**2
    p22 = sigma[1, 1].real * d2**2
    p33 = sigma[2, 2].real * d3**2
    p44 = sigma[3, 3].real * d4**2
    c14 = np.abs(sigma[0, 3]) * d1 * d4
    c23 = np.abs(sigma[1, 2]) * d2 * d3
    trace = p11 + p22 + p33 + p44
    conc = 2.0 * np.maximum(
        0.0, np.maximum(c14 - np.sqrt(p22 * p33), c23 - np.sqrt(p11 * p44))
    ) / trace
    i = int(conc.argmax())
    return float(rs[i]), float(conc[i])


def per_call_grid_oracle(family, ch, q, mode):
    """The optimizer with its guard grid rebuilt and reversed on every call.

    This is the per-call path the cached grid factors replaced: the grid
    built by ``arange``/``append``, reversed by ``apply_qmr`` and scored by
    one ``concurrence`` call, then the same stationary point and tie rule.
    Returns the result and the branch that set r*: "plateau", "closed"
    (the stationary point) or "grid" (the tie rule).
    """
    measured, t_wm = apply_wm(make_state(family), q, mode)
    sigma = apply_cad(measured, ch)
    grid = np.arange(0.0, _R_MAX, _GRID_STEP)
    if grid[-1] < _R_MAX:
        grid = np.append(grid, _R_MAX)
    values = concurrence(apply_qmr(sigma, grid, mode)[0])
    evaluations = len(grid)
    best = int(values.argmax())
    if values[best] <= 0.0:
        branch, r_star, c_star = "plateau", 0.0, 0.0
        state, t_qmr = apply_qmr(sigma, r_star, mode)
    else:
        s11, s22, s33, s44 = sigma.diagonal().real
        u = np.sqrt(s44 / s11) if mode is WmrMode.TWO_QUBIT else (s22 + s44) / (s11 + s33)
        branch, r_star = "closed", 1.0 - min(max(float(u), 1.0 - _R_MAX), 1.0)
        state, t_qmr = apply_qmr(sigma, r_star, mode)
        c_star = float(concurrence(state))
        evaluations += 1
        if c_star < values[best] or (c_star - values[best] <= 1e-12 and grid[best] < r_star):
            branch, r_star, c_star = "grid", float(grid[best]), float(values[best])
            state, t_qmr = apply_qmr(sigma, r_star, mode)
    result = OptimizationResult(r_star, c_star, float(t_wm * t_qmr), evaluations, state)
    return result, branch


_FAMILIES = [StateFamily("bell"), StateFamily("werner", 0.8), StateFamily("mems", 0.8),
             StateFamily("nme", 0.3)]


class TestAgainstPerCallGrid:
    def _assert_same(self, family, ch, q, mode):
        expected, branch = per_call_grid_oracle(family, ch, q, mode)
        res = optimal_qmr(family, ch, q, mode)
        for name in OptimizationResult.__dataclass_fields__:
            if name != "state":
                assert getattr(res, name) == getattr(expected, name), name
        assert res.state.dtype == expected.state.dtype
        assert res.state.tobytes() == expected.state.tobytes()
        return branch

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    @pytest.mark.parametrize("eta", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("family", _FAMILIES, ids=["bell", "werner08", "mems08", "nme03"])
    def test_every_family_memory_and_mode(self, family, eta, mode):
        branches = set()
        for p in (0.0, 0.3, 0.8, 1.0):
            for q in (0.0, 0.5, 0.9):
                branches.add(self._assert_same(family, ChannelParams(p, eta), q, mode))
        assert "closed" in branches

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    @pytest.mark.parametrize("eta", [0.0, 0.4, 1.0])
    def test_dead_plateau(self, eta, mode):
        branch = self._assert_same(StateFamily("werner", 0.43), ChannelParams(0.8, eta), 0.5, mode)
        assert branch == "plateau"

    @pytest.mark.parametrize(
        "family, ch, q, mode",
        [(StateFamily("bell"), ChannelParams(0.05, 0.0), 0.25, WmrMode.TWO_QUBIT),
         (StateFamily("bell"), ChannelParams(0.25, 0.0), 0.2, WmrMode.ONE_QUBIT)],
        ids=["wm2", "wm1"],
    )
    def test_tie_resolved_to_the_grid(self, family, ch, q, mode):
        assert self._assert_same(family, ch, q, mode) == "grid"


class TestFloatGrid:
    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    def test_float_grid_scores_equal_the_complex_route(self, rng, mode):
        # the optimizer reverses sigma.real on float64 factors; the complex
        # route reverses the complex sigma and takes ndarray.trace, whose sum
        # order the float trace keeps, so every trace and score is the same
        positive = 0
        for _ in range(300):
            q, p, eta = rng.random(3)
            sigma = apply_cad(apply_wm(random_x_state(rng), q, mode)[0], ChannelParams(p, eta))
            states, traces = _sandwich_normalized(sigma.real, _GRID, _grid_factors(mode))
            out = sigma * _grid_factors(mode).astype(complex)
            t = np.where(_GRID == 0.0, 1.0, out.trace(axis1=-2, axis2=-1).real)
            values = concurrence(out * (1.0 / t)[:, None, None])
            assert traces.tobytes() == t.tobytes()
            assert np.array_equal(concurrence(states), values)
            positive += np.count_nonzero(values > 0.0)
        assert positive > 0


class TestOptimalQmr:
    def test_no_noise_needs_no_reversal(self):
        res = optimal_qmr(StateFamily("bell"), ChannelParams(0.0, 0.0), 0.0, WmrMode.TWO_QUBIT)
        assert res.r_star == 0.0
        assert res.concurrence_at_star == pytest.approx(1.0, abs=1e-12)
        assert res.success_probability == pytest.approx(1.0)

    def test_against_exhaustive_grid(self):
        fam = StateFamily("bell")
        ch = ChannelParams(0.5, 0.0)
        res = optimal_qmr(fam, ch, 0.5, WmrMode.TWO_QUBIT)
        r_grid, c_grid = exhaustive_grid_oracle(fam, ch, 0.5, WmrMode.TWO_QUBIT)
        assert res.r_star == pytest.approx(r_grid, abs=2e-6)
        assert res.concurrence_at_star >= c_grid - 1e-10
        # frozen regression anchors for this configuration
        assert res.r_star == pytest.approx(0.7574643653431681, abs=1e-7)
        assert res.concurrence_at_star == pytest.approx(0.5855823048033112, abs=1e-9)

    def test_mems_counterexample_against_exhaustive_grid(self):
        # the criterion-4 point where one-qubit protection wins; the hand
        # values are worked in docs/decisions.md
        fam = StateFamily("mems", 0.8)
        ch = ChannelParams(0.1, 1.0)
        hand = {WmrMode.ONE_QUBIT: 0.7978046, WmrMode.TWO_QUBIT: 0.7911248}
        for mode, c_hand in hand.items():
            res = optimal_qmr(fam, ch, 0.9, mode)
            r_grid, c_grid = exhaustive_grid_oracle(fam, ch, 0.9, mode)
            assert res.r_star == pytest.approx(r_grid, abs=2e-6)
            assert res.concurrence_at_star >= c_grid - 1e-10
            assert res.concurrence_at_star == pytest.approx(c_hand, abs=1e-7)

    def test_werner_one_qubit_improves_on_no_reversal(self):
        fam = StateFamily("werner", 0.8)
        ch = ChannelParams(0.5, 1.0)
        res = optimal_qmr(fam, ch, 0.5, WmrMode.ONE_QUBIT)
        baseline = concurrence(
            wmr_pipeline(make_state(fam), ch, WmrParams(0.5, 0.0, WmrMode.ONE_QUBIT)).state
        )
        assert res.concurrence_at_star >= baseline - 1e-12
        assert 0.0 < res.success_probability <= 1.0
        r_grid, c_grid = exhaustive_grid_oracle(fam, ch, 0.5, WmrMode.ONE_QUBIT)
        assert res.r_star == pytest.approx(r_grid, abs=2e-6)

    def test_local_optimality_of_result(self):
        fam = StateFamily("mems", 0.8)
        ch = ChannelParams(0.4, 0.0)
        res = optimal_qmr(fam, ch, 0.6, WmrMode.TWO_QUBIT)
        rho0 = make_state(fam)

        def value(r):
            return float(concurrence(wmr_pipeline(rho0, ch, WmrParams(0.6, r, WmrMode.TWO_QUBIT)).state))

        assert res.concurrence_at_star >= value(0.0) - 1e-10
        for dr in (-1e-3, 1e-3):
            r = res.r_star + dr
            if 0.0 <= r < 1.0:
                assert res.concurrence_at_star >= value(r) - 1e-10

    def test_plateau_returns_smallest_r(self):
        # Werner(0.4) is separable everywhere along r for strong damping
        fam = StateFamily("werner", 0.4)
        res = optimal_qmr(fam, ChannelParams(0.9, 0.0), 0.1, WmrMode.TWO_QUBIT)
        assert res.concurrence_at_star == 0.0
        assert res.r_star == 0.0

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    @pytest.mark.parametrize(
        "edit, error, match",
        [(lambda r: (r.__setitem__((1, 2), 1e-6j), r.__setitem__((2, 1), -1e-6j)),
          UnsupportedStateError, "real"),
         (lambda r: r.__setitem__((0, 3), r[0, 3] + 1e-6j), NumericalContractError, "non-Hermitian"),
         (lambda r: r.__setitem__((1, 1), r[1, 1] + 1e-6j), NumericalContractError, "non-Hermitian")],
        ids=["imaginary_coherence", "non_hermitian_coherence", "imaginary_diagonal"],
    )
    @pytest.mark.parametrize("r_b, p", [(0.8, 0.3), (0.43, 0.8)], ids=["interior", "plateau"])
    def test_sigma_off_the_real_x_pattern_raises(self, monkeypatch, mode, edit, error, match, r_b, p):
        # the grid reverses only sigma's real part, whose coherences are real
        # and which stays Hermitian here, so sigma itself must be checked; on
        # the plateau no later step would look at it
        def make_state(family):
            rho = werner_state(family.param)
            edit(rho)
            return rho

        monkeypatch.setattr(qcorrkit.optimize, "make_state", make_state)
        with pytest.raises(error, match=match):
            optimal_qmr(StateFamily("werner", r_b), ChannelParams(p, 0.4), 0.5, mode)

    def test_mode_none_rejected(self):
        with pytest.raises(ValueError):
            optimal_qmr(StateFamily("bell"), ChannelParams(0.5, 0.0), 0.5, WmrMode.NONE)

    @pytest.mark.parametrize("q", [1.0, -0.1, float("nan")])
    def test_measurement_strength_outside_domain_rejected(self, q):
        with pytest.raises(ValueError, match="outside"):
            optimal_qmr(StateFamily("bell"), ChannelParams(0.5, 0.0), q, WmrMode.TWO_QUBIT)

    def test_deterministic(self):
        fam = StateFamily("bell")
        a = optimal_qmr(fam, ChannelParams(0.3, 1.0), 0.7, WmrMode.TWO_QUBIT)
        b = optimal_qmr(fam, ChannelParams(0.3, 1.0), 0.7, WmrMode.TWO_QUBIT)
        assert a == b

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    @pytest.mark.parametrize(
        "branch, family, ch, q",
        [
            ("interior", StateFamily("mems", 0.8), ChannelParams(0.5, 1.0), 0.5),
            ("plateau", StateFamily("werner", 0.8), ChannelParams(1.0, 0.0), 0.3),
            ("r_star_zero", StateFamily("bell"), ChannelParams(0.0, 0.0), 0.0),
            # separable at every r: a round-off concurrence must not count
            # as recovered entanglement and move r* off 0
            ("plateau", StateFamily("nme", 0.0), ChannelParams(0.5, 1.0), 0.5),
        ],
        ids=["interior", "plateau", "r_star_zero", "separable_nme_plateau"],
    )
    def test_state_and_success_match_the_pipeline(self, mode, branch, family, ch, q):
        # wmr_pipeline stays the reference for what the optimizer returns
        res = optimal_qmr(family, ch, q, mode)
        if branch == "interior":
            assert 0.0 < res.r_star < _R_MAX and res.concurrence_at_star > 0.0
        elif branch == "plateau":
            assert res.r_star == 0.0 and res.concurrence_at_star == 0.0
        else:
            assert res.r_star == 0.0 and res.concurrence_at_star > 0.0
        out = wmr_pipeline(make_state(family), ch, WmrParams(q, res.r_star, mode))
        assert np.array_equal(res.state, out.state)
        assert res.success_probability == out.success_probability

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    @pytest.mark.parametrize("eta", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize(
        "family",
        [
            StateFamily("bell"),
            StateFamily("werner", 0.8),
            StateFamily("mems", 0.8),
            StateFamily("nme", 0.3),
        ],
        ids=["bell", "werner08", "mems08", "nme03"],
    )
    def test_r_star_is_the_stationary_point(self, family, eta, mode):
        # docs/decisions.md section 1.2: on interior points r* = 1 - u*
        interior = 0
        for p in (0.1, 0.5, 0.9):
            for q in (0.3, 0.7, 0.9):
                ch = ChannelParams(p, eta)
                res = optimal_qmr(family, ch, q, mode)
                if not 0.0 < res.r_star < _R_MAX:
                    continue
                interior += 1
                sigma = apply_cad(apply_wm(make_state(family), q, mode)[0], ch)
                assert abs(res.concurrence_at_star - closed_form_optimum(sigma, mode)) <= 1e-12
                r_closed = 1.0 - closed_form_u_star(sigma, mode)
                if abs(res.r_star - r_closed) > 1e-12:
                    # tie rule: a smaller coarse-grid r within 1e-12 of the peak wins
                    assert res.r_star < r_closed
                    k = round(res.r_star / _GRID_STEP)
                    assert res.r_star == pytest.approx(k * _GRID_STEP, abs=1e-15)
        assert interior > 0

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    def test_strongest_reversal_keeps_the_ground_state(self, mode):
        # every reversal diagonal entry is at least 1 - r, so the sandwiched
        # trace is at least (1 - _R_MAX)^2, about 1e-12: far above the 1e-14
        # degenerate-trace threshold, and no candidate r annihilates a state
        ground = np.zeros((4, 4), dtype=complex)
        ground[0, 0] = 1.0
        _, trace = apply_qmr(ground, _R_MAX, mode)
        assert trace >= (1.0 - _R_MAX) ** 2
        assert trace == pytest.approx(1e-12 if mode is WmrMode.TWO_QUBIT else 1e-6, rel=1e-9)

    def test_memory_dominance_for_bell(self):
        bell = make_state(StateFamily("bell"))
        for p in np.linspace(0.0, 1.0, 21):
            with_memory = concurrence(apply_cad(bell, ChannelParams(float(p), 1.0)))
            without = concurrence(apply_cad(bell, ChannelParams(float(p), 0.0)))
            assert with_memory >= without - 1e-9

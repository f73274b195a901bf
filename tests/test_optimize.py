import numpy as np
import pytest

from qcorrkit.channels import (
    ChannelParams,
    WmrMode,
    WmrParams,
    apply_cad,
    apply_qmr,
    apply_wm,
    wmr_pipeline,
)
from qcorrkit.measures import concurrence
from qcorrkit.optimize import _R_MAX, optimal_qmr
from qcorrkit.states import StateFamily, make_state


def exhaustive_grid_oracle(family, ch, q, mode, n=1_000_001):
    """Best r on a 1e-6-step grid, via the analytic X-state concurrence.

    Independent of the production path twice over: exhaustive search
    instead of golden-section refinement, and the anti-diagonal gap
    formula instead of the spin-flip spectrum.
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

    def test_mode_none_rejected(self):
        with pytest.raises(ValueError):
            optimal_qmr(StateFamily("bell"), ChannelParams(0.5, 0.0), 0.5, WmrMode.NONE)

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
        ],
        ids=["interior", "plateau", "r_star_zero"],
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

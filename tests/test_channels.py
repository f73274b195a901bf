import math

import numpy as np
import pytest

from qcorrkit.channels import (
    ChannelParams,
    WmrMode,
    WmrParams,
    _x_damped,
    _x_measured,
    apply_ad_uncorrelated,
    apply_cad,
    apply_qmr,
    apply_wm,
    qmr_diagonal,
    wm_diagonal,
    wmr_pipeline,
)
from qcorrkit.exceptions import DegenerateMeasurementError
from qcorrkit.optimize import _R_MAX
from qcorrkit.oracles import _reference_pipeline_state, validate_density_matrix
from qcorrkit.states import bell_state, is_x_state, random_density_matrix, random_x_state


def kraus_sum_oracle(rho, p, eta=0.0):
    """Partially correlated damping as Kraus sandwich sums, built from scratch."""
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    e1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    uncorr = np.zeros((4, 4), dtype=complex)
    for ei in (e0, e1):
        for ej in (e0, e1):
            k = np.kron(ei, ej)
            uncorr += k @ rho @ k.conj().T
    a0 = np.diag([1.0, 1.0, 1.0, np.sqrt(1.0 - p)]).astype(complex)
    a1 = np.zeros((4, 4), dtype=complex)
    a1[0, 3] = np.sqrt(p)
    corr = a0 @ rho @ a0.conj().T + a1 @ rho @ a1.conj().T
    return (1.0 - eta) * uncorr + eta * corr


class TestUncorrelated:
    def test_p_zero_identity(self, rng):
        rho = random_density_matrix(rng)
        np.testing.assert_allclose(apply_ad_uncorrelated(rho, 0.0), rho, atol=1e-15)

    def test_p_one_full_decay(self, rng):
        rho = random_density_matrix(rng)
        out = apply_ad_uncorrelated(rho, 1.0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_bell_half_damping(self):
        # frozen from the four-term Kraus-sum oracle
        out = apply_ad_uncorrelated(bell_state(), 0.5)
        np.testing.assert_allclose(out.diagonal().real, [0.625, 0.125, 0.125, 0.125], atol=1e-14)
        assert out[0, 3].real == pytest.approx(0.25)  # coherence scales by (1-p)
        np.testing.assert_allclose(out, kraus_sum_oracle(bell_state(), 0.5), atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_ad_uncorrelated(bell_state(), 1.2)


class TestAgainstKrausSums:
    """The entry maps against Kraus sums that share no code with them."""

    @pytest.mark.parametrize("eta", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_non_x_states(self, rng, p, eta):
        for _ in range(20):
            rho = random_density_matrix(rng)
            np.testing.assert_allclose(
                apply_cad(rho, ChannelParams(p, eta)), kraus_sum_oracle(rho, p, eta), rtol=0, atol=1e-15
            )

    def test_reference_composition_on_random_states(self, rng):
        # 1200 X and non-X states: random (p, eta), then each corner of [0, 1]^2
        corners = [(p, eta) for p in (0.0, 1.0) for eta in (0.0, 1.0)]
        params = [(float(rng.random()), float(rng.random())) for _ in range(1000)] + corners * 50
        for k, (p, eta) in enumerate(params):
            rho = random_x_state(rng) if k % 3 == 0 else random_density_matrix(rng)
            reference = _reference_pipeline_state(rho, p, eta, 0.0, 0.0, WmrMode.TWO_QUBIT)
            assert np.abs(apply_cad(rho, ChannelParams(p, eta)) - reference).max() <= 1e-14

    @pytest.mark.parametrize("eta", [0.0, 0.4, 1.0])
    def test_stack_equals_per_state_calls(self, rng, eta):
        stack = np.stack([random_density_matrix(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        ch = ChannelParams(0.6, eta)
        expected = np.stack([apply_cad(rho, ch) for rho in stack.reshape(6, 4, 4)])
        np.testing.assert_array_equal(apply_cad(stack, ch), expected.reshape(2, 3, 4, 4))


class TestCorrelated:
    def test_doubly_excited_splits(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1.0
        out = apply_cad(rho, ChannelParams(0.3, 1.0))
        assert out[3, 3].real == pytest.approx(0.7)
        assert out[0, 0].real == pytest.approx(0.3)

    def test_single_excitation_untouched_at_full_memory(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        np.testing.assert_allclose(apply_cad(rho, ChannelParams(0.8, 1.0)), rho, atol=1e-15)

    def test_bell_full_memory(self):
        out = apply_cad(bell_state(), ChannelParams(0.5, 1.0))
        np.testing.assert_allclose(out.diagonal().real, [0.75, 0.0, 0.0, 0.25], atol=1e-14)
        assert out[0, 3].real == pytest.approx(np.sqrt(0.5) / 2)

    def test_trace_positivity_and_reduction(self, rng):
        # the heavy randomized invariants, 10^4 states
        for _ in range(10_000):
            rho = random_x_state(rng)
            p, eta = float(rng.random()), float(rng.random())
            ad = apply_ad_uncorrelated(rho, p)
            cad = apply_cad(rho, ChannelParams(p, eta))
            assert abs(ad.trace().real - 1.0) <= 1e-12
            assert abs(cad.trace().real - 1.0) <= 1e-12
            assert np.abs(apply_cad(rho, ChannelParams(p, 0.0)) - ad).max() <= 1e-12

    def test_positivity_dense_sample(self, rng):
        for _ in range(500):
            rho = random_density_matrix(rng)
            out = apply_cad(rho, ChannelParams(float(rng.random()), float(rng.random())))
            assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_full_decay_both_memories(self):
        ground = np.zeros((4, 4))
        ground[0, 0] = 1.0
        for eta in (0.0, 1.0):
            out = apply_cad(bell_state(), ChannelParams(1.0, eta))
            np.testing.assert_allclose(out, ground, atol=1e-12)


class TestMeasurements:
    def test_zero_strength_is_identity(self, rng):
        rho = random_density_matrix(rng)
        for mode in WmrMode:
            out, t = apply_wm(rho, 0.0, mode)
            assert out is rho and t == 1.0
            out, t = apply_qmr(rho, 0.0, mode)
            assert out is rho and t == 1.0

    def test_eigenstate_weights(self):
        top = np.zeros((4, 4), dtype=complex)
        top[3, 3] = 1.0
        out, t = apply_wm(top, 0.4, WmrMode.TWO_QUBIT)
        np.testing.assert_allclose(out, top, atol=1e-15)
        assert t == pytest.approx(0.6**2)

        ground = np.zeros((4, 4), dtype=complex)
        ground[0, 0] = 1.0
        out, t = apply_qmr(ground, 0.4, WmrMode.TWO_QUBIT)
        np.testing.assert_allclose(out, ground, atol=1e-15)
        assert t == pytest.approx(0.6**2)

    def test_bell_weak_measurement_two_qubit(self):
        # frozen from the direct 4x4 sandwich: (1, qb, qb^2)/2 then renormalize
        out, t = apply_wm(bell_state(), 0.5, WmrMode.TWO_QUBIT)
        assert t == pytest.approx(0.625)
        assert out[0, 0].real == pytest.approx(0.8)
        assert out[0, 3].real == pytest.approx(0.4)
        assert out[3, 3].real == pytest.approx(0.2)

    def test_bell_reversal_one_qubit(self):
        # frozen from the direct sandwich oracle with diag(sqrt(1-r),1) on qubit 2
        out, t = apply_qmr(bell_state(), 0.5, WmrMode.ONE_QUBIT)
        assert t == pytest.approx(0.75)
        assert out[0, 0].real == pytest.approx(1 / 3)
        assert out[0, 3].real == pytest.approx(np.sqrt(0.5) / 1.5)
        assert out[3, 3].real == pytest.approx(2 / 3)

    def test_one_qubit_mode_acts_on_second_qubit(self):
        # placement is only visible on swap-asymmetric states: |01> has its
        # excitation on the second qubit and must be attenuated, |10> not
        q = 0.4
        excited_second = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        excited_first = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
        _, t = apply_wm(excited_second, q, WmrMode.ONE_QUBIT)
        assert t == pytest.approx(1.0 - q)
        _, t = apply_wm(excited_first, q, WmrMode.ONE_QUBIT)
        assert t == pytest.approx(1.0)

    def test_measurement_diagonals_match_kron_construction(self):
        q, r = 0.37, 0.58
        eye2 = np.eye(2)
        m_wm = np.diag([1.0, np.sqrt(1.0 - q)])
        m_qmr = np.diag([np.sqrt(1.0 - r), 1.0])
        from qcorrkit.channels import qmr_diagonal, wm_diagonal

        # the corner entries are computed as 1-q / 1-r directly, one ulp
        # from the kron product of the square roots
        np.testing.assert_allclose(wm_diagonal(q, WmrMode.TWO_QUBIT), np.diag(np.kron(m_wm, m_wm)), atol=1e-15)
        np.testing.assert_array_equal(wm_diagonal(q, WmrMode.ONE_QUBIT), np.diag(np.kron(eye2, m_wm)))
        np.testing.assert_allclose(qmr_diagonal(r, WmrMode.TWO_QUBIT), np.diag(np.kron(m_qmr, m_qmr)), atol=1e-15)
        np.testing.assert_array_equal(qmr_diagonal(r, WmrMode.ONE_QUBIT), np.diag(np.kron(eye2, m_qmr)))

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    def test_reversal_strength_array_equals_per_strength_calls(self, rng, mode):
        rho = random_density_matrix(rng)
        rs = np.array([0.1, 0.45, 0.9, 1.0 - 1e-6])
        states, traces = apply_qmr(rho, rs, mode)
        for r, state, t in zip(rs, states, traces):
            expected, expected_t = apply_qmr(rho, float(r), mode)
            np.testing.assert_array_equal(state, expected)
            assert t == expected_t
        with pytest.raises(ValueError):
            apply_qmr(rho, np.array([0.2, 1.0, 0.5]), mode)
        with pytest.raises(ValueError):
            apply_qmr(rho, np.array([0.2, -0.1]), mode)

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    @pytest.mark.parametrize("draw", [random_x_state, random_density_matrix], ids=["x", "dense"])
    def test_reciprocal_equals_the_quotient(self, rng, mode, draw):
        # one reciprocal per state, then a multiply, gives the value of the
        # complex quotient out / t entry by entry (== leaves a zero's sign open)
        from qcorrkit.channels import _outer, _sandwich_normalized, qmr_diagonal

        rho = np.stack([draw(rng) for _ in range(200)])
        strength = np.where(rng.random(200) < 0.1, 0.0, rng.random(200))
        outer = _outer(qmr_diagonal(strength, mode))
        out = rho * outer
        t = np.where(strength == 0.0, 1.0, out.trace(axis1=-2, axis2=-1).real)
        states, traces = _sandwich_normalized(rho, strength, outer)
        assert np.array_equal(states, out / t[:, None, None])
        assert np.array_equal(traces, t)
        # complex factors give the same products as real ones
        complex_states, _ = _sandwich_normalized(rho, strength, outer.astype(complex))
        assert complex_states.tobytes() == states.tobytes()

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    @pytest.mark.parametrize("shape", [(), (7,), (40, 3)])
    def test_trace_is_the_complex_trace(self, rng, mode, shape):
        # the sandwich sums its trace as (a + b) + (c + d), numpy's order for a
        # complex trace: both traces of wmr_pipeline on dense states, as verify
        # draws them, equal ndarray.trace bit for bit
        from qcorrkit.channels import _outer, qmr_diagonal, wm_diagonal

        states = [random_density_matrix(rng) for _ in range(int(np.prod(shape)))]
        rho = np.stack(states).reshape(shape + (4, 4))
        q, r, p, eta = rng.random((4,) + shape)
        measured, t_wm = apply_wm(rho, q, mode)
        damped = apply_cad(measured, ChannelParams(p, eta))
        _, t_qmr = apply_qmr(damped, r, mode)
        for state, strength, diagonal, t in ((rho, q, wm_diagonal, t_wm),
                                             (damped, r, qmr_diagonal, t_qmr)):
            expected = (state * _outer(diagonal(strength, mode))).trace(axis1=-2, axis2=-1).real
            assert np.asarray(t).tobytes() == expected.tobytes()
        piped = wmr_pipeline(rho, ChannelParams(p, eta), WmrParams(q, r, mode))
        assert np.asarray(piped.success_probability).tobytes() == np.asarray(t_wm * t_qmr).tobytes()

    def test_strength_domain(self):
        with pytest.raises(ValueError):
            apply_wm(bell_state(), 1.0, WmrMode.TWO_QUBIT)
        with pytest.raises(ValueError):
            apply_qmr(bell_state(), -0.1, WmrMode.ONE_QUBIT)

    def test_degenerate_trace_raises(self):
        top = np.zeros((4, 4), dtype=complex)
        top[3, 3] = 1.0
        with pytest.raises(DegenerateMeasurementError):
            apply_wm(top, 1.0 - 1e-16, WmrMode.TWO_QUBIT)

    @pytest.mark.parametrize("diagonal", [wm_diagonal, qmr_diagonal])
    def test_mode_none_has_no_diagonal(self, diagonal):
        # NONE measures nothing; it once got the one-qubit diagonal
        with pytest.raises(ValueError, match="no measurement diagonal"):
            diagonal(0.5, WmrMode.NONE)


class TestPipeline:
    def test_mode_none_is_bare_channel(self, rng):
        rho = random_x_state(rng)
        ch = ChannelParams(0.4, 0.7)
        out = wmr_pipeline(rho, ch, WmrParams(0.0, 0.0, WmrMode.NONE))
        np.testing.assert_allclose(out.state, apply_cad(rho, ch), atol=0)
        assert out.success_probability == 1.0

    def test_zero_strengths_equal_bare_channel_exactly(self, rng):
        rho = random_x_state(rng)
        ch = ChannelParams(0.5, 1.0)
        out = wmr_pipeline(rho, ch, WmrParams(0.0, 0.0, WmrMode.TWO_QUBIT))
        assert np.array_equal(out.state, apply_cad(rho, ch))
        assert out.success_probability == 1.0

    def test_matched_strengths_invert_without_noise(self):
        # at p=0 the measurement/reversal diagonals compose to (1-q) * identity,
        # so q = r returns the input exactly; the success weight still drops
        bell = bell_state()
        out = wmr_pipeline(bell, ChannelParams(0.0, 0.0), WmrParams(0.3, 0.3, WmrMode.TWO_QUBIT))
        np.testing.assert_allclose(out.state, bell, atol=1e-15)
        assert out.success_probability == pytest.approx(0.49)
        assert out.success_probability < 1.0

    def test_mismatched_strengths_change_the_state(self):
        bell = bell_state()
        out = wmr_pipeline(bell, ChannelParams(0.0, 0.0), WmrParams(0.3, 0.6, WmrMode.TWO_QUBIT))
        assert np.abs(out.state - bell).max() > 1e-3
        assert out.success_probability < 1.0

    def test_success_probability_is_product_of_traces(self, rng):
        rho = random_x_state(rng)
        ch = ChannelParams(0.35, 0.5)
        q, r = 0.4, 0.25
        measured, t1 = apply_wm(rho, q, WmrMode.TWO_QUBIT)
        damped = apply_cad(measured, ch)
        _, t2 = apply_qmr(damped, r, WmrMode.TWO_QUBIT)
        out = wmr_pipeline(rho, ch, WmrParams(q, r, WmrMode.TWO_QUBIT))
        assert out.success_probability == pytest.approx(t1 * t2, abs=1e-15)

    def test_x_closure_random_grid(self, rng):
        # 10^4 random X states and parameter draws stay X-form
        for _ in range(10_000):
            rho = random_x_state(rng)
            mode = (WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT)[int(rng.random() < 0.5)]
            out = wmr_pipeline(
                rho,
                ChannelParams(float(rng.random()), float(rng.random())),
                WmrParams(float(rng.random() * 0.99), float(rng.random() * 0.99), mode),
            )
            assert is_x_state(out.state)

    def test_outputs_are_valid_states(self, rng):
        for _ in range(200):
            rho = random_x_state(rng)
            out = wmr_pipeline(
                rho,
                ChannelParams(float(rng.random()), float(rng.random())),
                WmrParams(float(rng.random() * 0.9), float(rng.random() * 0.9), WmrMode.TWO_QUBIT),
            )
            validate_density_matrix(out.state)
            assert 0.0 < out.success_probability <= 1.0 + 1e-12


class TestParameterArrays:
    """Array strengths broadcast against the stack and equal per-point scalar calls."""

    PS = np.array([0.0, 0.3, 0.77, 1.0])
    ETAS = np.array([0.0, 0.4, 1.0])
    QS = np.array([0.0, 0.2, 0.9])

    @pytest.fixture
    def states(self, rng):
        return [random_x_state(rng), random_density_matrix(rng)]

    def test_uncorrelated_damping(self, states):
        for rho in states:
            out = apply_ad_uncorrelated(rho, self.PS)
            assert out.shape == (4, 4, 4)
            for p, state in zip(self.PS, out):
                assert np.array_equal(state, apply_ad_uncorrelated(rho, float(p)))

    def test_correlated_damping_grid(self, states):
        p, eta = np.ix_(self.PS, self.ETAS)
        for rho in states:
            out = apply_cad(rho, ChannelParams(p, eta))
            assert out.shape == (4, 3, 4, 4)
            for i, j in np.ndindex(4, 3):
                expected = apply_cad(rho, ChannelParams(float(self.PS[i]), float(self.ETAS[j])))
                assert np.array_equal(out[i, j], expected)

    def test_eta_zero_is_exactly_uncorrelated(self, states):
        for rho in states:
            out = apply_cad(rho, ChannelParams(self.PS, np.zeros(4)))
            assert np.array_equal(out, apply_ad_uncorrelated(rho, self.PS))
            # an all-zero memory array still broadcasts into the result
            assert apply_cad(rho, ChannelParams(0.3, np.zeros((2, 1)))).shape == (2, 1, 4, 4)

    def test_stack_with_one_parameter_per_state(self, rng):
        rhos = np.stack([random_density_matrix(rng) for _ in range(5)])
        ps, etas = rng.random(5), np.array([0.0, 1.0, 0.3, 0.0, 0.8])
        out = apply_cad(rhos, ChannelParams(ps, etas))
        for rho, p, eta, state in zip(rhos, ps, etas, out):
            assert np.array_equal(state, apply_cad(rho, ChannelParams(float(p), float(eta))))

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    def test_measurement_strengths(self, states, mode):
        for rho in states:
            for apply in (apply_wm, apply_qmr):
                out, traces = apply(rho, self.QS, mode)
                for q, state, t in zip(self.QS, out, traces):
                    expected, expected_t = apply(rho, float(q), mode)
                    assert np.array_equal(state, expected)
                    assert t == expected_t
                # strength 0 passes the state exactly, with weight exactly 1
                assert np.array_equal(out[0], rho) and traces[0] == 1.0

    def test_pipeline_grid(self, rng):
        rho = random_x_state(rng)
        p, eta, q, r = np.ix_(self.PS[:3], self.ETAS, self.QS, self.QS[::-1])
        for mode in (WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT):
            out = wmr_pipeline(rho, ChannelParams(p, eta), WmrParams(q, r, mode))
            assert out.state.shape == (3, 3, 3, 3, 4, 4)
            for index in np.ndindex(3, 3, 3, 3):
                values = [float(axis[k]) for axis, k in zip((self.PS, self.ETAS, self.QS, self.QS[::-1]), index)]
                expected = wmr_pipeline(rho, ChannelParams(*values[:2]), WmrParams(*values[2:], mode))
                assert np.array_equal(out.state[index], expected.state)
                assert out.success_probability[index] == expected.success_probability

    @pytest.mark.parametrize("bad", [np.nan, -1e-300, 1.0 + 1e-12, np.inf])
    def test_every_damping_entry_is_validated(self, bad):
        ps = np.array([0.2, bad, 0.5])
        with pytest.raises(ValueError):
            apply_ad_uncorrelated(bell_state(), ps)
        with pytest.raises(ValueError):
            ChannelParams(ps, 0.5)
        with pytest.raises(ValueError):
            ChannelParams(0.5, ps)

    @pytest.mark.parametrize("bad", [np.nan, -1e-300, 1.0, np.inf])
    def test_every_measurement_entry_is_validated(self, bad):
        qs = np.array([[0.2, 0.0], [bad, 0.5]])
        for mode in WmrMode:
            with pytest.raises(ValueError):
                apply_wm(bell_state(), qs, mode)
            with pytest.raises(ValueError):
                apply_qmr(bell_state(), qs, mode)
        with pytest.raises(ValueError):
            WmrParams(qs, 0.1)
        with pytest.raises(ValueError):
            WmrParams(0.1, qs)


_X_CELLS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 2))


def six_floats(rho):
    """The six numbers (a, b, c, d, z, w) of one X state, as Python floats."""
    return tuple(float(rho[i, j].real) for i, j in _X_CELLS)


def assert_cells(x, rho):
    """The six numbers ``x`` are the entry map's output ``rho`` cell by cell:
    every real part, mirrors and zeros off the pattern included, bit for bit,
    and every imaginary part zero."""
    a, b, c, d, z, w = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in x))
    cells = np.zeros(a.shape + (4, 4))
    for (i, j), v in zip(_X_CELLS, (a, b, c, d, z, w)):
        cells[..., i, j] = cells[..., j, i] = v
    assert not rho.imag.any()
    assert cells.tobytes() == np.ascontiguousarray(rho.real).tobytes()


class TestSixNumberMaps:
    """The six-number maps against the entry maps they mirror, bit for bit."""

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    def test_random_chains_equal_the_entry_maps(self, rng, mode):
        for _ in range(2000):
            rho = random_x_state(rng)
            q, p, eta, r = rng.random(4)
            ch = ChannelParams(p, eta)
            measured, t_wm = apply_wm(rho, q, mode)
            x, t = _x_measured(six_floats(rho), wm_diagonal(q, mode).tolist())
            assert_cells(x, measured)
            assert t == t_wm
            damped = apply_cad(measured, ch)
            x = _x_damped(x, p, eta, math.sqrt)
            assert_cells(x, damped)
            reversed_, t_qmr = apply_qmr(damped, r, mode)
            x, t = _x_measured(x, qmr_diagonal(r, mode).tolist())
            assert_cells(x, reversed_)
            assert t == t_qmr

    @pytest.mark.parametrize("p", [0.0, 1.0, 0.37])
    @pytest.mark.parametrize("eta", [0.0, 1.0, 0.4])
    def test_damping_edges(self, rng, p, eta):
        for _ in range(50):
            rho = random_x_state(rng)
            assert_cells(_x_damped(six_floats(rho), p, eta, math.sqrt),
                         apply_cad(rho, ChannelParams(p, eta)))

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    @pytest.mark.parametrize("r", [_R_MAX, 0.5, 1e-9])
    def test_reversal_edges(self, rng, mode, r):
        for _ in range(50):
            rho = random_x_state(rng)
            expected, t_qmr = apply_qmr(rho, r, mode)
            x, t = _x_measured(six_floats(rho), qmr_diagonal(r, mode).tolist())
            assert_cells(x, expected)
            assert t == t_qmr

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    def test_empty_ground_population(self, rng, mode):
        # rho11 = 0 forces rho14 = 0 in a state
        for _ in range(50):
            rho = random_x_state(rng)
            rho[0, 0] = rho[0, 3] = rho[3, 0] = 0.0
            rho /= rho.trace().real
            q, p, eta, r = rng.random(4)
            measured, _ = apply_wm(rho, q, mode)
            x, _ = _x_measured(six_floats(rho), wm_diagonal(q, mode).tolist())
            assert_cells(x, measured)
            damped = apply_cad(measured, ChannelParams(p, eta))
            x = _x_damped(x, p, eta, math.sqrt)
            assert_cells(x, damped)
            x, _ = _x_measured(x, qmr_diagonal(r, mode).tolist())
            assert_cells(x, apply_qmr(damped, r, mode)[0])

    def test_degenerate_trace_raises_the_same_error(self):
        top = np.zeros((4, 4), dtype=complex)
        top[3, 3] = 1.0
        q = 1.0 - 1e-16
        with pytest.raises(DegenerateMeasurementError) as entry:
            apply_wm(top, q, WmrMode.TWO_QUBIT)
        with pytest.raises(DegenerateMeasurementError) as six:
            _x_measured(six_floats(top), wm_diagonal(q, WmrMode.TWO_QUBIT).tolist())
        assert str(six.value) == str(entry.value)

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    def test_arrays_pass_the_same_maps(self, rng, mode):
        # one state per entry: the maps take arrays with np.sqrt and unpacked diagonals
        stack = np.stack([random_x_state(rng) for _ in range(40)])
        q, p, eta, r = (0.05 + 0.9 * rng.random(40) for _ in range(4))
        eta[::3] = 0.0
        x = tuple(stack[:, i, j].real for i, j in _X_CELLS)
        measured, t_wm = apply_wm(stack, q, mode)
        x, t = _x_measured(x, wm_diagonal(q, mode).T)
        assert_cells(x, measured)
        assert t.tobytes() == t_wm.tobytes()
        damped = apply_cad(measured, ChannelParams(p, eta))
        x = _x_damped(x, p, eta, np.sqrt)
        assert_cells(x, damped)
        x, t = _x_measured(x, qmr_diagonal(r, mode).T)
        expected, t_qmr = apply_qmr(damped, r, mode)
        assert_cells(x, expected)
        assert t.tobytes() == t_qmr.tobytes()

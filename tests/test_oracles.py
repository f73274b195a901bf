"""Cross-validation of analytic measures against their brute-force oracles."""

import itertools

import numpy as np
import pytest

from qcorrkit.channels import ChannelParams, WmrMode, WmrParams, apply_cad, wmr_pipeline
from qcorrkit.exceptions import NumericalContractError
from qcorrkit.measures import concurrence, correlation_vector, trace_distance_discord
from qcorrkit.oracles import (
    _dephasing_distance,
    _first_qubit_blocks,
    _nelder_mead,
    _point_distance,
    dense_coding_oracle,
    fully_entangled_fraction_oracle,
    hermitian_eigenvalues,
    jsd_coherence_oracle,
    steering_entropy_oracle,
    tdd_measurement_oracle,
    von_neumann_entropy,
    wootters_concurrence_oracle,
)
from qcorrkit.states import (
    StateFamily,
    make_state,
    random_density_matrix,
    random_x_state,
)

from conftest import random_unitary


def local_rotation(rng):
    return np.kron(random_unitary(rng), random_unitary(rng))


class TestTddOracle:
    def test_bell_and_mems_reference_points(self):
        # the measurement-minimization oracle is twice the closed form
        for kind, param, expected in (("bell", None, 1.0), ("mems", 0.8, 0.8), ("werner", 0.8, 0.8)):
            rho = make_state(StateFamily(kind, param))
            assert tdd_measurement_oracle(rho) == pytest.approx(expected, abs=1e-9)

    def test_proportionality_sample(self, rng):
        ratios = []
        for _ in range(12):
            rho = random_x_state(rng)
            closed = trace_distance_discord(rho)
            if closed < 0.02:
                continue
            ratios.append(tdd_measurement_oracle(rho) / closed)
        assert len(ratios) >= 6
        assert max(ratios) - min(ratios) <= 1e-6
        assert np.mean(ratios) == pytest.approx(2.0, abs=1e-8)

    def test_measured_side_is_first_qubit(self):
        # an asymmetric X state distinguishes the two placements: only a
        # first-qubit measurement reproduces twice the closed form
        rho = np.diag([0.45, 0.3, 0.15, 0.1]).astype(complex)
        rho[0, 3] = rho[3, 0] = 0.12
        rho[1, 2] = rho[2, 1] = 0.05
        swap = np.eye(4)[[0, 2, 1, 3]]
        closed = trace_distance_discord(rho)
        assert tdd_measurement_oracle(rho) == pytest.approx(2 * closed, abs=1e-8)
        swapped = tdd_measurement_oracle(swap @ rho @ swap)
        assert abs(swapped - 2 * closed) > 1e-3

    def test_angle_arrays_match_scalar_calls(self, rng):
        # the grid and the simplex refinement share one route; batching
        # the angles must not change a single bit.  The second input is the
        # oracle's full 61 x 48 grid as contiguous arrays, where numpy's
        # vector loops run and a complex product would round differently
        # than in a scalar call.
        thetas = np.concatenate([np.linspace(0.0, np.pi, 7), rng.uniform(0.0, np.pi, 5)])
        phis = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 6), rng.uniform(0.0, 2.0 * np.pi, 3)])
        full_grid = np.meshgrid(
            np.linspace(0.0, np.pi, 61),
            np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False),
            indexing="ij",
        )
        for tt, pp in (np.meshgrid(thetas, phis, indexing="ij"), [a.ravel() for a in full_grid]):
            for rho in (random_x_state(rng), random_density_matrix(rng)):
                blocks = _first_qubit_blocks(rho)
                batched = _dephasing_distance(blocks, tt, pp)
                assert batched.shape == tt.shape
                scalar = [_dephasing_distance(blocks, t, p) for t, p in zip(tt.flat, pp.flat)]
                np.testing.assert_array_equal(batched.ravel(), scalar)
                # the simplex's route: Python float angles in, a Python float out
                floats = [_point_distance(blocks, float(t), float(p)) for t, p in zip(tt.flat, pp.flat)]
                assert all(type(f) is float for f in floats)
                np.testing.assert_array_equal(batched.ravel(), floats)

    def test_default_grid_is_61_by_48(self, rng):
        mems = make_state(StateFamily("mems", 0.8))
        for rho in (random_x_state(rng), random_density_matrix(rng), mems):
            assert tdd_measurement_oracle(rho) == tdd_measurement_oracle(rho, 61, 48)

    def test_pinned_values(self):
        # the oracle's bits, as the scipy refinement it replaced gave them
        rho = np.diag([0.45, 0.3, 0.15, 0.1]).astype(complex)
        rho[0, 3] = rho[3, 0] = 0.12
        rho[1, 2] = rho[2, 1] = 0.05
        for state, pinned in (
            (make_state(StateFamily("bell")), "0x1.ffffffffffffcp-1"),
            (make_state(StateFamily("werner", 0.8)), "0x1.9999999999996p-1"),
            (make_state(StateFamily("mems", 0.3)), "0x1.3333333333332p-2"),
            (rho, "0x1.2e320ca07dbfap-2"),
        ):
            assert tdd_measurement_oracle(state).hex() == pinned


class TestSimplexPort:
    def test_matches_scipy_nelder_mead_bit_for_bit(self):
        # the port must retrace scipy's simplex, with the options the oracle
        # passed it, exactly: same best vertex, same minimum and same number
        # of evaluations, from the oracle's own grid start.  Bell ties in every direction, and the random draws
        # include starts at theta = 0 and at phi = 0, where the initial
        # simplex takes its zero-coordinate step.
        from scipy.optimize import minimize

        rng = np.random.default_rng(0)
        states = [random_x_state(rng) for _ in range(60)] + [random_density_matrix(rng) for _ in range(60)]
        states += [make_state(StateFamily(kind, v))
                   for kind, v in (("bell", None), ("werner", 0.8), ("mems", 0.8), ("mems", 0.3))]
        tt, pp = np.meshgrid(
            np.linspace(0.0, np.pi, 61),
            np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False),
            indexing="ij",
        )
        starts = []
        for rho in states:
            blocks = _first_qubit_blocks(rho)
            i = int(_dephasing_distance(blocks, tt.ravel(), pp.ravel()).argmin())
            x0 = (tt.flat[i], pp.flat[i])
            starts.append(x0)
            ref = minimize(
                lambda a: _dephasing_distance(blocks, a[0], a[1]),
                x0,
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 600},
            )
            x, fun, nfev = _nelder_mead(
                lambda theta, phi: _point_distance(blocks, theta, phi), float(x0[0]), float(x0[1])
            )
            assert x == tuple(ref.x)
            assert fun == ref.fun
            assert nfev == ref.nfev
        assert sum(t == 0.0 for t, _ in starts) >= 5
        assert sum(t != 0.0 and p == 0.0 for t, p in starts) >= 5

    def test_sort_is_stable_like_argsort_on_three_values(self):
        # the port sorts its vertices with sorted(); scipy uses np.argsort,
        # which must agree on every weak ordering of three values
        for values in itertools.product((0.0, 1.0, 2.0), repeat=3):
            stable = sorted(range(3), key=values.__getitem__)
            assert list(np.argsort(np.array(values))) == stable


def kron_eigensolve_distance(rho, theta, phi):
    """||rho - Pi(rho)||_1 by definition: Kronecker projectors, sandwiches, eigvalsh."""
    n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    sigma = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    proj = (np.eye(2) + sum(c * s for c, s in zip(n, sigma))) / 2.0
    kp = np.kron(proj, np.eye(2))
    kq = np.kron(np.eye(2) - proj, np.eye(2))
    delta = rho - kp @ rho @ kp - kq @ rho @ kq
    return np.abs(np.linalg.eigvalsh(delta)).sum()


class TestDisturbanceBlockIdentity:
    def test_block_norm_matches_kron_eigensolve(self, rng):
        # ||rho - Pi(rho)||_1 = 2 sqrt(||X||_F^2 + 2|det X|) for any state,
        # at random angles and at the poles, the equator and phi in {0, pi}
        poles = [(t, p) for t in (0.0, np.pi / 2, np.pi) for p in (0.0, np.pi)]
        for i in range(240):
            rho = random_density_matrix(rng) if i % 2 else random_x_state(rng)
            angles = poles + list(zip(rng.uniform(0.0, np.pi, 4), rng.uniform(0.0, 2.0 * np.pi, 4)))
            thetas, phis = np.array(angles).T
            expected = [kron_eigensolve_distance(rho, t, p) for t, p in angles]
            got = _dephasing_distance(_first_qubit_blocks(rho), thetas, phis)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


def edge_states(rng):
    """Random X states plus pipeline states at the parameter edges.

    Covers p in {0, 1}, the strongest measurement q = 0.99 with the
    strongest reversal r = 1 - 1e-6, states with rho11 = 0, and pure
    partially entangled inputs.
    """
    states = [random_x_state(rng) for _ in range(200)]
    for _ in range(20):
        rho = random_x_state(rng)
        rho[0, 0] = rho[0, 3] = rho[3, 0] = 0.0
        states.append(rho / rho.trace())
    families = [StateFamily("bell"), StateFamily("werner", 0.8), StateFamily("mems", 0.8),
                StateFamily("mems", 0.5), StateFamily("nme", 0.0), StateFamily("nme", 0.3)]
    for family in families:
        rho0 = make_state(family)
        states.append(rho0)
        for p in (0.0, 0.5, 1.0):
            for eta in (0.0, 1.0):
                ch = ChannelParams(p, eta)
                states.append(apply_cad(rho0, ch))
                for mode in (WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT):
                    for q, r in ((0.99, 1.0 - 1e-6), (0.5, 0.3)):
                        states.append(wmr_pipeline(rho0, ch, WmrParams(q, r, mode)).state)
    return states


class TestClosedFormsAgainstDenseOracles:
    """The six-number closed forms against the dense 4x4 routes."""

    def test_dense_coding(self, rng):
        for rho in edge_states(rng):
            assert abs(correlation_vector(rho).chi - dense_coding_oracle(rho)) <= 1e-12

    def test_fully_entangled_fraction(self, rng):
        # the fidelity is (1 + 2 FEF)/3, so 1e-12 on the FEF is 2e-12/3 on the fidelity
        for rho in edge_states(rng):
            fidelity = correlation_vector(rho).fidelity
            assert abs(fidelity - (1.0 + 2.0 * fully_entangled_fraction_oracle(rho)) / 3.0) <= 2e-12 / 3

    def test_jsd_radicand(self, rng):
        # the square root amplifies round-off near 0, so the squares are compared
        for rho in edge_states(rng):
            assert abs(correlation_vector(rho).jsd ** 2 - jsd_coherence_oracle(rho) ** 2) <= 1e-12

    def test_concurrence(self, rng):
        # the general eigensolve is good to about sqrt(machine eps) only
        for rho in edge_states(rng):
            assert abs(concurrence(rho) - wootters_concurrence_oracle(rho)) <= 1e-7


class TestDenseCodingOracle:
    def test_partial_trace_identity(self, rng):
        families = (StateFamily("bell"), StateFamily("werner", 0.6), StateFamily("mems", 0.7))
        for rho in [make_state(family) for family in families] + [random_x_state(rng)]:
            assert correlation_vector(rho).chi == pytest.approx(
                dense_coding_oracle(rho), abs=1e-10
            )


class TestSteeringOracle:
    def test_matches_closed_form_on_balanced_states(self):
        # zero local z-imbalance makes the asymmetric marginal term vanish
        for r_b in (1.0, 0.8, 0.5, 0.2):
            rho = make_state(StateFamily("werner", r_b))
            assert steering_entropy_oracle(rho) == pytest.approx(
                correlation_vector(rho).qs, abs=1e-9
            )

    def test_differs_by_marginal_term_in_general(self, rng):
        # on states with local imbalance, closed form and oracle differ by
        # exactly 2 (1 - r) log2(1 - r) of the first qubit's z-imbalance
        for _ in range(10):
            rho = random_x_state(rng)
            d = rho.diagonal().real
            r_marg = d[0] + d[1] - d[2] - d[3]
            gap = 1.0 - r_marg
            expected_delta = 2.0 * gap * np.log2(gap) if gap > 0 else 0.0
            delta = correlation_vector(rho).qs - steering_entropy_oracle(rho)
            assert delta == pytest.approx(expected_delta, abs=1e-9)


class TestLocalUnitaryInvariance:
    def test_spectrum_based_measures(self, rng):
        # rotated states are no longer X-form, so the dense oracles take them
        for rho in (make_state(StateFamily("werner", 0.8)), random_x_state(rng)):
            c0 = wootters_concurrence_oracle(rho)
            f0 = fully_entangled_fraction_oracle(rho)
            x0 = dense_coding_oracle(rho)
            for _ in range(50):
                u = local_rotation(rng)
                rotated = u @ rho @ u.conj().T
                assert wootters_concurrence_oracle(rotated) == pytest.approx(c0, abs=1e-8)
                assert fully_entangled_fraction_oracle(rotated) == pytest.approx(f0, abs=1e-8)
                assert dense_coding_oracle(rotated) == pytest.approx(x0, abs=1e-8)

    def test_steering_oracle(self, rng):
        for _ in range(2):
            rho = random_x_state(rng)
            base = steering_entropy_oracle(rho)
            for _ in range(25):
                u = local_rotation(rng)
                assert steering_entropy_oracle(u @ rho @ u.conj().T) == pytest.approx(
                    base, abs=1e-8
                )

    def test_tdd_oracle(self, rng):
        rho = random_x_state(rng)
        base = tdd_measurement_oracle(rho)
        for _ in range(10):
            u = local_rotation(rng)
            rotated = tdd_measurement_oracle(u @ rho @ u.conj().T)
            assert rotated == pytest.approx(base, abs=1e-8)


class TestEigenvalues:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(np.eye(4, dtype=complex) / 4), [0.25] * 4
        )

    def test_bell_is_pure(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(make_state(StateFamily("bell"))), [1, 0, 0, 0], atol=1e-12
        )

    def test_werner_spectrum(self):
        # direct diagonalization of the mixture: 0.05 + 0.8 on the Bell ray
        np.testing.assert_allclose(
            hermitian_eigenvalues(make_state(StateFamily("werner", 0.8))),
            [0.85, 0.05, 0.05, 0.05],
            atol=1e-12,
        )

    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-3
        with pytest.raises(NumericalContractError):
            hermitian_eigenvalues(m)

    def test_backward_error_and_trace(self, rng):
        for _ in range(200):
            h = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
            h = (h + h.conj().T) / 2
            lam = hermitian_eigenvalues(h)
            assert abs(lam.sum() - h.trace().real) <= 1e-9
            assert np.all(np.diff(lam) <= 1e-14)
            # recompute eigenvectors and check the residual
            w, v = np.linalg.eigh(h)
            res = np.abs(h @ v - v @ np.diag(w)).max()
            assert res <= 1e-10 * max(np.abs(lam).max(), 1e-300)

    def test_density_spectrum_bounds(self, rng):
        for _ in range(100):
            lam = hermitian_eigenvalues(random_x_state(rng))
            assert lam.min() >= -1e-9 and lam.max() <= 1 + 1e-9
            assert abs(lam.sum() - 1.0) <= 1e-9


class TestEntropy:
    def test_pure_state_zero(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert von_neumann_entropy(rho) == 0.0

    def test_maximally_mixed_two_bits(self):
        assert von_neumann_entropy(np.eye(4, dtype=complex) / 4) == pytest.approx(2.0)

    def test_werner_entropy(self):
        # direct evaluation over the spectrum {0.85, 0.05, 0.05, 0.05}
        expected = -(0.85 * np.log2(0.85) + 3 * 0.05 * np.log2(0.05))
        assert expected == pytest.approx(0.847584679824574, abs=1e-12)
        werner = make_state(StateFamily("werner", 0.8))
        assert von_neumann_entropy(werner) == pytest.approx(expected, abs=1e-12)

    def test_basis_invariance(self, rng):
        rho = make_state(StateFamily("werner", 0.37))
        base = von_neumann_entropy(rho)
        for _ in range(100):
            u = random_unitary(rng, dim=4)
            assert von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(base, abs=1e-9)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorrkit.exceptions import NumericalContractError
from qcorrkit.states import (
    StateFamily,
    bell_state,
    hermitian_eigenvalues,
    is_x_state,
    make_state,
    mems_state,
    nme_state,
    purity_and_linear_entropy,
    random_density_matrix,
    random_x_state,
    validate_density_matrix,
    von_neumann_entropy,
    werner_state,
)

from conftest import random_unitary

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestConstructors:
    def test_bell_matrix(self):
        rho = bell_state()
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_mems_below_knee_uses_third(self):
        rho = mems_state(0.5)
        assert rho[0, 0].real == pytest.approx(1 / 3)
        assert rho[1, 1].real == pytest.approx(1 / 3)
        assert rho[0, 3].real == pytest.approx(0.25)

    def test_werner_zero_is_maximally_mixed(self):
        np.testing.assert_allclose(werner_state(0.0), np.eye(4) / 4, atol=1e-15)

    def test_family_coincidences_at_bell(self):
        bell = bell_state()
        for rho in (werner_state(1.0), mems_state(1.0), nme_state(0.5)):
            assert np.abs(rho - bell).max() <= 1e-12

    def test_out_of_range_parameters_rejected(self):
        with pytest.raises(ValueError):
            werner_state(1.5)
        with pytest.raises(ValueError):
            mems_state(-0.1)
        with pytest.raises(ValueError):
            StateFamily("nme", 2.0)
        with pytest.raises(ValueError):
            StateFamily("ghz")

    @given(kind=st.sampled_from(["werner", "mems", "nme"]), param=unit)
    @settings(max_examples=60)
    def test_constructed_states_are_valid(self, kind, param):
        validate_density_matrix(make_state(StateFamily(kind, param)))

    def test_dense_parameter_scan_all_valid(self):
        # the heavier deterministic scan: 1000 parameters per family
        for kind in ("werner", "mems", "nme"):
            for param in np.linspace(0.0, 1.0, 1000):
                validate_density_matrix(make_state(StateFamily(kind, float(param))))
        validate_density_matrix(make_state(StateFamily("bell")))


class TestEigenvalues:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(np.eye(4, dtype=complex) / 4), [0.25] * 4
        )

    def test_bell_is_pure(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(bell_state()), [1, 0, 0, 0], atol=1e-12
        )

    def test_werner_spectrum(self):
        # direct diagonalization of the mixture: 0.05 + 0.8 on the Bell ray
        np.testing.assert_allclose(
            hermitian_eigenvalues(werner_state(0.8)), [0.85, 0.05, 0.05, 0.05], atol=1e-12
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
        assert von_neumann_entropy(werner_state(0.8)) == pytest.approx(expected, abs=1e-12)

    def test_basis_invariance(self, rng):
        rho = werner_state(0.37)
        base = von_neumann_entropy(rho)
        for _ in range(100):
            u = random_unitary(rng, dim=4)
            assert von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(base, abs=1e-9)


class TestPurityAndXForm:
    def test_bell_pure(self):
        purity, lin = purity_and_linear_entropy(bell_state())
        assert purity == pytest.approx(1.0) and lin == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        purity, lin = purity_and_linear_entropy(np.eye(4, dtype=complex) / 4)
        assert purity == pytest.approx(0.25) and lin == pytest.approx(1.0)

    def test_werner(self):
        purity, lin = purity_and_linear_entropy(werner_state(0.8))
        assert purity == pytest.approx(0.73) and lin == pytest.approx(0.36)

    def test_mems_is_x(self):
        assert is_x_state(mems_state(0.8), 1e-12)

    def test_product_with_plus_is_not_x(self):
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        zero = np.diag([1.0, 0.0]).astype(complex)
        assert not is_x_state(np.kron(plus, zero), 1e-10)

    def test_random_x_states_valid(self, rng):
        for _ in range(200):
            rho = random_x_state(rng)
            validate_density_matrix(rho)
            assert is_x_state(rho, 1e-14)

    def test_random_density_matrices_valid_and_general(self, rng):
        for _ in range(200):
            rho = random_density_matrix(rng)
            validate_density_matrix(rho)
            assert not is_x_state(rho, 1e-6)

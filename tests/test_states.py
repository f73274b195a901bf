import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorrkit.measures import x_entries
from qcorrkit.oracles import validate_density_matrix
from qcorrkit.states import (
    _X_MASK,
    FAMILY_DEFAULTS,
    StateFamily,
    bell_state,
    is_x_state,
    make_state,
    mems_state,
    nme_state,
    random_density_matrix,
    random_x_state,
    werner_state,
    x_numbers,
)

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

    def test_family_defaults_are_the_bell_state(self):
        # StateFamily(kind) and the CLI's --family without --param read one table
        for kind, param in FAMILY_DEFAULTS.items():
            assert StateFamily(kind) == StateFamily(kind, param)
            assert np.abs(make_state(StateFamily(kind)) - bell_state()).max() <= 1e-12
        assert StateFamily("nme").param == 0.5

    def test_out_of_range_parameters_rejected(self):
        with pytest.raises(ValueError):
            werner_state(1.5)
        with pytest.raises(ValueError):
            mems_state(-0.1)
        with pytest.raises(ValueError):
            StateFamily("nme", 2.0)
        with pytest.raises(ValueError):
            StateFamily("ghz")

    @pytest.mark.parametrize("build, name", [(werner_state, "r_b"), (mems_state, "gamma")])
    @pytest.mark.parametrize("shape", [(1,), (4,), (2, 2)])
    def test_one_state_constructors_refuse_an_array(self, build, name, shape):
        # the values lie in [0, 1], so only the shape is wrong; before, a
        # 1-d r_b built one non-Hermitian "state" without an error
        values = np.linspace(0.1, 0.4, int(np.prod(shape))).reshape(shape)
        with pytest.raises(ValueError, match=rf"^{name} must be a single number, got shape"):
            build(values)

    def test_bell_family_records_the_state_it_builds(self):
        # the Bell state has no parameter: a given value is range checked,
        # then replaced by the default, which names the state built
        assert StateFamily("bell", 0.3) == StateFamily("bell")
        assert StateFamily("bell", 0.3).param == FAMILY_DEFAULTS["bell"]
        with pytest.raises(ValueError, match="param=1.5 outside"):
            StateFamily("bell", 1.5)

    def test_nme_stack_equals_scalar_states_bit_for_bit(self):
        values = np.linspace(0.0, 1.0, 151)   # holds the separable ends 0 and 1
        stack = nme_state(values)
        assert stack.shape == (151, 4, 4)
        scalar = np.stack([nme_state(a) for a in values.tolist()])
        assert stack.tobytes() == scalar.tobytes()
        psi = np.zeros((151, 4), dtype=complex)
        psi[:, 0], psi[:, 3] = np.sqrt(values), np.sqrt(1.0 - values)
        outer = np.stack([np.outer(v, v.conj()) for v in psi])
        assert stack.tobytes() == outer.tobytes()
        grid = nme_state(values[:150].reshape(10, 15))
        assert grid.tobytes() == stack[:150].tobytes() and grid.shape == (10, 15, 4, 4)

    @pytest.mark.parametrize("bad", [np.nan, 1.5])
    def test_nme_stack_rejects_and_names_a_bad_entry(self, bad):
        values = np.linspace(0.0, 1.0, 151)
        values[70] = bad
        with pytest.raises(ValueError, match=re.escape(f"alpha2={bad} outside")):
            nme_state(values)
        with pytest.raises(ValueError, match=re.escape(f"alpha2={bad} outside")):
            nme_state(bad)

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


def textbook_state(kind, v):
    """The family's state as the textbook builds it, densely and apart from
    ``x_numbers``: outer products for Bell and nme, (1 - r)/4 I + r Bell for
    Werner, and MEMS entry by entry."""
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    bell = np.outer(psi, psi.conj())
    if kind == "bell":
        return bell
    if kind == "werner":
        return (1.0 - v) / 4.0 * np.eye(4, dtype=complex) + v * bell
    if kind == "mems":
        g = 1.0 / 3.0 if v < 2.0 / 3.0 else v / 2.0
        return np.array([[g, 0, 0, v / 2.0], [0, 1.0 - 2.0 * g, 0, 0],
                         [0, 0, 0, 0], [v / 2.0, 0, 0, g]], dtype=complex)
    psi = np.array([np.sqrt(v), 0.0, 0.0, np.sqrt(1.0 - v)], dtype=complex)
    return np.outer(psi, psi.conj())


#: a 1001-point grid over [0, 1], both ends included
PARAM_GRID = np.linspace(0.0, 1.0, 1001).tolist()
#: MEMS's knee 2/3 and its two float neighbours, where g(gamma) switches branch
MEMS_KNEE = [np.nextafter(2.0 / 3.0, 0.0), 2.0 / 3.0, np.nextafter(2.0 / 3.0, 1.0)]


class TestXNumbers:
    """Each family's six numbers are its one definition; the dense states are
    built from them.  Both must equal the textbook construction byte for
    byte, so a family whose numbers drift from its dense state fails here."""

    @pytest.mark.parametrize("kind", sorted(FAMILY_DEFAULTS))
    def test_numbers_and_dense_state_equal_the_textbook_state(self, kind):
        params = PARAM_GRID + [0.0, 1.0] + (MEMS_KNEE if kind == "mems" else [])
        for v in params:
            family = StateFamily(kind, v)
            textbook = textbook_state(kind, family.param)
            numbers = np.array(x_numbers(family), dtype=float)
            assert numbers.tobytes() == np.array(x_entries(textbook)).tobytes(), (kind, v)
            assert numbers.tobytes() == np.array(x_entries(make_state(family))).tobytes(), (kind, v)
            assert make_state(family).tobytes() == textbook.tobytes(), (kind, v)

    def test_bell_keeps_the_rounding_of_its_outer_product(self):
        # (1/sqrt 2)^2 rounds to the double below 1/2
        a, b, c, d, z, w = x_numbers(StateFamily("bell"))
        assert a == d == z == 0.4999999999999999 and b == c == w == 0.0

    @pytest.mark.parametrize("shape", [(1001,), (7, 143)])
    def test_nme_array_numbers_and_stack_equal_the_textbook_states(self, shape):
        values = np.linspace(0.0, 1.0, 1001)
        textbook = np.stack([textbook_state("nme", v) for v in values.tolist()])
        textbook = textbook.reshape(shape + (4, 4))
        family = StateFamily("nme", values.reshape(shape))
        numbers = x_numbers(family)
        assert all(np.shape(n) == shape for n in numbers)
        assert np.array(numbers).tobytes() == np.array(x_entries(textbook)).tobytes()
        assert make_state(family).tobytes() == textbook.tobytes()
        assert nme_state(values.reshape(shape)).tobytes() == textbook.tobytes()

    @pytest.mark.parametrize("kind", ["werner", "mems"])
    def test_one_number_families_refuse_an_array(self, kind):
        with pytest.raises(ValueError, match=r"^param must be a single number, got shape \(2,\)"):
            x_numbers(StateFamily(kind, np.array([0.2, 0.9])))


class TestPurityAndXForm:
    def test_mems_is_x(self):
        rho = mems_state(0.8)
        assert is_x_state(rho)
        assert not rho[~_X_MASK].any()

    def test_product_with_plus_is_not_x(self):
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        zero = np.diag([1.0, 0.0]).astype(complex)
        assert not is_x_state(np.kron(plus, zero))

    def test_random_x_states_valid(self, rng):
        for _ in range(200):
            rho = random_x_state(rng)
            validate_density_matrix(rho)
            assert is_x_state(rho)
            assert not rho[~_X_MASK].any()

    def test_random_density_matrices_valid_and_general(self, rng):
        for _ in range(200):
            rho = random_density_matrix(rng)
            validate_density_matrix(rho)
            assert not is_x_state(rho)
            assert np.abs(rho[~_X_MASK]).max() > 1e-6

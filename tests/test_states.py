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
    is_x_state,
    make_state,
    random_density_matrix,
    random_x_state,
    x_numbers,
)
from qcorrkit.sweep import SweepConfig, run_sweep, sweep_csv_text

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestConstructors:
    def test_bell_matrix(self):
        rho = make_state(StateFamily("bell"))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_mems_below_knee_uses_third(self):
        rho = make_state(StateFamily("mems", 0.5))
        assert rho[0, 0].real == pytest.approx(1 / 3)
        assert rho[1, 1].real == pytest.approx(1 / 3)
        assert rho[0, 3].real == pytest.approx(0.25)

    def test_werner_zero_is_maximally_mixed(self):
        rho = make_state(StateFamily("werner", 0.0))
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-15)

    def test_family_coincidences_at_bell(self):
        bell = make_state(StateFamily("bell"))
        for family in (StateFamily("werner", 1.0), StateFamily("mems", 1.0), StateFamily("nme", 0.5)):
            assert np.abs(make_state(family) - bell).max() <= 1e-12

    def test_family_defaults_are_the_bell_state(self):
        # StateFamily(kind) and the CLI's --family without --param read one table
        bell = make_state(StateFamily("bell"))
        for kind, param in FAMILY_DEFAULTS.items():
            assert StateFamily(kind) == StateFamily(kind, param)
            assert np.abs(make_state(StateFamily(kind)) - bell).max() <= 1e-12
        assert StateFamily("nme").param == 0.5

    def test_out_of_range_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_state(StateFamily("werner", 1.5))
        with pytest.raises(ValueError):
            make_state(StateFamily("mems", -0.1))
        with pytest.raises(ValueError):
            StateFamily("nme", 2.0)
        with pytest.raises(ValueError):
            StateFamily("ghz")

    def test_bell_family_records_the_state_it_builds(self):
        # the Bell state has no parameter: a given value is range checked,
        # then replaced by the default, which names the state built
        assert StateFamily("bell", 0.3) == StateFamily("bell")
        assert StateFamily("bell", 0.3).param == FAMILY_DEFAULTS["bell"]
        with pytest.raises(ValueError, match="param=1.5 outside"):
            StateFamily("bell", 1.5)

    def test_nme_stack_equals_scalar_states_bit_for_bit(self):
        values = np.linspace(0.0, 1.0, 151)   # holds the separable ends 0 and 1
        stack = make_state(StateFamily("nme", values))
        assert stack.shape == (151, 4, 4)
        scalar = np.stack([make_state(StateFamily("nme", a)) for a in values.tolist()])
        assert stack.tobytes() == scalar.tobytes()
        psi = np.zeros((151, 4), dtype=complex)
        psi[:, 0], psi[:, 3] = np.sqrt(values), np.sqrt(1.0 - values)
        outer = np.stack([np.outer(v, v.conj()) for v in psi])
        assert stack.tobytes() == outer.tobytes()
        grid = make_state(StateFamily("nme", values[:150].reshape(10, 15)))
        assert grid.tobytes() == stack[:150].tobytes() and grid.shape == (10, 15, 4, 4)

    @pytest.mark.parametrize("kind", ["werner", "mems", "nme"])
    def test_a_float32_parameter_names_the_state_of_its_float64_value(self, kind):
        # the parameter is converted to float64 once, before any arithmetic
        single = np.float32(0.8)
        family, wide = StateFamily(kind, single), StateFamily(kind, float(single))
        assert type(family.param) is float and repr(family) == repr(wide)
        assert make_state(family).tobytes() == make_state(wide).tobytes()
        texts = [sweep_csv_text(run_sweep(SweepConfig(f, 0.4, points=3))) for f in (family, wide)]
        assert texts[0] == texts[1]

    def test_a_float32_nme_array_names_the_states_of_its_float64_values(self):
        single = np.linspace(0.0, 1.0, 7, dtype=np.float32)
        family, wide = StateFamily("nme", single), StateFamily("nme", single.astype(float))
        assert family.param.dtype == np.float64
        assert make_state(family).tobytes() == make_state(wide).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, 1.5])
    def test_nme_stack_rejects_and_names_a_bad_entry(self, bad):
        values = np.linspace(0.0, 1.0, 151)
        values[70] = bad
        with pytest.raises(ValueError, match=re.escape(f"param={bad} outside")):
            make_state(StateFamily("nme", values))
        with pytest.raises(ValueError, match=re.escape(f"param={bad} outside")):
            make_state(StateFamily("nme", bad))

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

    @pytest.mark.parametrize("kind", ["werner", "mems"])
    def test_one_number_families_refuse_an_array(self, kind):
        with pytest.raises(ValueError, match=r"^param must be a single number, got shape \(2,\)"):
            x_numbers(StateFamily(kind, np.array([0.2, 0.9])))


class TestPurityAndXForm:
    def test_mems_is_x(self):
        rho = make_state(StateFamily("mems", 0.8))
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


class TestRandomDraws:
    @pytest.mark.parametrize("count", [1, 10, 200])
    def test_counted_ginibre_draw_is_count_single_draws(self, count):
        # one stacked draw must give the bits of count single draws, each
        # of them the textbook A A^dagger / Tr, and leave the stream where
        # the singles leave it
        for seed in range(20):
            stacked, single, textbook = (np.random.default_rng(seed) for _ in range(3))
            drawn = random_density_matrix(stacked, count)
            assert drawn.shape == (count, 4, 4)
            singles = np.stack([random_density_matrix(single) for _ in range(count)])
            assert drawn.tobytes() == singles.tobytes()
            for rho in singles:
                a = textbook.normal(size=(4, 4)) + 1j * textbook.normal(size=(4, 4))
                expected = a @ a.conj().T
                assert rho.tobytes() == (expected / expected.trace()).tobytes()
            assert stacked.random() == single.random() == textbook.random()

    def test_random_x_state_matches_the_diagonal_construction(self):
        for seed in range(1000):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            pop = ref.dirichlet(np.ones(4))
            expected = np.diag(pop).astype(complex)
            c14 = (2.0 * ref.random() - 1.0) * np.sqrt(pop[0] * pop[3])
            c23 = (2.0 * ref.random() - 1.0) * np.sqrt(pop[1] * pop[2])
            expected[0, 3] = expected[3, 0] = c14
            expected[1, 2] = expected[2, 1] = c23
            assert random_x_state(rng).tobytes() == expected.tobytes()
            assert rng.random() == ref.random()

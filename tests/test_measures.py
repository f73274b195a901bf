import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorrkit.channels import ChannelParams, apply_cad
from qcorrkit.exceptions import NumericalContractError, UnsupportedStateError
from qcorrkit.measures import (
    CorrelationVector,
    concurrence,
    correlation_vector,
    normalize,
    trace_distance_discord,
    x_correlation_vector,
    x_entries,
)
from qcorrkit.states import (
    X_STATE_TOL,
    bell_state,
    is_x_state,
    mems_state,
    nme_state,
    random_x_state,
    werner_state,
)

from conftest import find_zero_crossing

MIXED = np.eye(4, dtype=complex) / 4
GROUND = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
PLUS_ZERO = np.kron(np.full((2, 2), 0.5, dtype=complex), np.diag([1.0, 0.0]).astype(complex))


def three_step_x_entries(rho):
    """``x_entries`` as whole-matrix passes: the first non-finite entry in
    C order, the Hermitian deviation over all 16 entries, ``is_x_state``
    per state, then the coherences' imaginary parts."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise NumericalContractError(f"expected (..., 4, 4) states, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        index = np.unravel_index(int(np.argmin(np.isfinite(rho))), rho.shape)
        raise NumericalContractError(f"non-finite input at entry {tuple(int(i) for i in index)}")
    herm_dev = np.abs(rho - rho.conj().swapaxes(-1, -2)).max()
    if herm_dev > X_STATE_TOL:
        raise NumericalContractError(f"non-Hermitian input (deviation {herm_dev:.3e})")
    if not np.all(is_x_state(rho)):
        raise UnsupportedStateError("X-state formula fed a non-X state")
    z, w = rho[..., 0, 3], rho[..., 1, 2]
    imag = np.abs(rho[..., [0, 1], [3, 2]].imag).max()
    if imag > X_STATE_TOL:
        raise UnsupportedStateError(f"X-state coherences must be real (imaginary part {imag:.3e})")
    a, b, c, d = (rho[..., i, i].real for i in range(4))
    return tuple(e[()] for e in (a, b, c, d, z.real, w.real))


def _outcome(extract, rho):
    """What ``extract`` does with rho: the exception's type and message, or
    the type, shape and bytes of each returned number."""
    try:
        entries = extract(rho)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    return [(type(e), np.shape(e), np.asarray(e).tobytes()) for e in entries]


def _edited(edit):
    rho = werner_state(0.8)
    edit(rho)
    return rho


_BAD_STATES = {
    "non_hermitian": lambda r: r.__setitem__((0, 3), r[0, 3] + 1e-6),
    "imaginary_diagonal": lambda r: r.__setitem__((1, 1), r[1, 1] + 1e-6j),
    "off_x": lambda r: (r.__setitem__((0, 1), 1e-6), r.__setitem__((1, 0), 1e-6)),
    "imaginary_coherence": lambda r: (r.__setitem__((1, 2), 1e-9j),
                                      r.__setitem__((2, 1), -1e-9j)),
    "nan_off_x": lambda r: r.__setitem__((0, 2), np.nan),
    "nan_diagonal": lambda r: r.__setitem__((2, 2), np.nan),
    "nan_coherence": lambda r: r.__setitem__((0, 3), complex(np.nan, 0.0)),
    "nan_and_non_hermitian": lambda r: (r.__setitem__((3, 1), np.nan),
                                        r.__setitem__((0, 3), 1.0)),
    "inf_diagonal": lambda r: r.__setitem__((0, 0), np.inf),
    "inf_off_x_symmetric": lambda r: (r.__setitem__((0, 1), np.inf), r.__setitem__((1, 0), np.inf)),
    "nan_imaginary_coherence": lambda r: r.__setitem__((1, 2), complex(0.0, np.nan)),
    "just_inside_tolerance": lambda r: (r.__setitem__((1, 3), X_STATE_TOL),
                                        r.__setitem__((3, 1), X_STATE_TOL)),
}


#: the cases above that a real array can hold
_REAL_BAD_STATES = [name for name, edit in _BAD_STATES.items() if not np.imag(_edited(edit)).any()]


class TestXEntries:
    @pytest.mark.parametrize("edit", list(_BAD_STATES.values()), ids=list(_BAD_STATES))
    @pytest.mark.parametrize("stacked", [False, True], ids=["state", "stack"])
    def test_checks_match_the_three_step_check(self, rng, edit, stacked):
        rho = _edited(edit)
        if stacked:
            rho = np.stack([random_x_state(rng), rho, random_x_state(rng)]).reshape(3, 1, 4, 4)
        assert _outcome(x_entries, rho) == _outcome(three_step_x_entries, rho)

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (3, 4, 2), (2, 16)])
    def test_shape_check_matches_the_three_step_check(self, shape):
        rho = np.zeros(shape)
        assert _outcome(x_entries, rho) == _outcome(three_step_x_entries, rho)

    @pytest.mark.parametrize("shape", [(), (1,), (40,), (2, 3, 5)])
    def test_six_numbers_match_the_three_step_check(self, rng, shape):
        states = [random_x_state(rng) for _ in range(int(np.prod(shape)))]
        rho = np.stack(states).reshape(shape + (4, 4))
        assert _outcome(x_entries, rho) == _outcome(three_step_x_entries, rho)

    # float64 is read as it is and any other real dtype converted to complex;
    # either way the six numbers, or the exception, are those of the
    # complex128 array of the same values
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stacked", [False, True], ids=["state", "stack"])
    @pytest.mark.parametrize("name", _REAL_BAD_STATES)
    def test_real_checks_match_the_complex_cast(self, rng, name, stacked, dtype):
        rho = _edited(_BAD_STATES[name]).real.astype(dtype)
        if stacked:
            rho = np.stack([random_x_state(rng).real, rho, random_x_state(rng).real])
            rho = rho.astype(dtype).reshape(3, 1, 4, 4)
        assert _outcome(x_entries, rho) == _outcome(x_entries, rho.astype(np.complex128))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "shape", [(4,), (4, 3), (3, 4, 2), (2, 16), (4, 4), (1, 4, 4), (40, 4, 4), (2, 3, 5, 4, 4)]
    )
    def test_real_numbers_match_the_complex_cast(self, rng, shape, dtype):
        rho = np.zeros(shape)
        if shape[-2:] == (4, 4):
            states = [random_x_state(rng).real for _ in range(int(np.prod(shape[:-2])))]
            rho = np.stack(states).reshape(shape)
        rho = rho.astype(dtype)
        assert _outcome(x_entries, rho) == _outcome(x_entries, rho.astype(np.complex128))

    def test_six_numbers_of_one_state_and_of_a_stack(self, rng):
        assert x_entries(mems_state(0.8)) == pytest.approx((0.4, 0.2, 0.0, 0.4, 0.4, 0.0))
        stack = np.stack([random_x_state(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        entries = x_entries(stack)
        assert all(e.shape == (2, 3) for e in entries)
        assert [e[1, 2] for e in entries] == list(x_entries(stack[1, 2]))

    def test_non_x_rejected(self, rng):
        stack = np.stack([random_x_state(rng), PLUS_ZERO])
        for rho in (PLUS_ZERO, stack):
            with pytest.raises(UnsupportedStateError, match="non-X"):
                x_entries(rho)

    def test_complex_coherence_rejected(self):
        rho = bell_state()
        rho[1, 1] = rho[2, 2] = 0.0
        rho[1, 2], rho[2, 1] = 1e-9j, -1e-9j
        with pytest.raises(UnsupportedStateError, match="real"):
            x_entries(rho)

    def test_non_hermitian_rejected(self):
        rho = werner_state(0.8)
        rho[0, 3] += 1e-6
        with pytest.raises(NumericalContractError, match="non-Hermitian"):
            x_entries(rho)

    def test_non_finite_entry_rejected_by_index(self, rng):
        # NaN > tol is False, so a check written that way let these through:
        # a NaN diagonal gave six NaN measures and an inf at rho11 concurrence 0
        rho = werner_state(0.8)
        rho[2, 2] = np.nan
        with pytest.raises(NumericalContractError, match=r"non-finite input at entry \(2, 2\)"):
            correlation_vector(rho)
        rho = werner_state(0.8)
        rho[0, 0] = np.inf
        with pytest.raises(NumericalContractError, match=r"non-finite input at entry \(0, 0\)"):
            concurrence(rho)
        stack = np.stack([random_x_state(rng) for _ in range(3)]).real
        stack[1, 3, 3] = -np.inf
        with pytest.raises(NumericalContractError, match=r"non-finite input at entry \(1, 3, 3\)"):
            concurrence(stack)

    # a warning is an error here: before, inf - inf in rho - rho^H made numpy
    # print "invalid value encountered in subtract" ahead of the error
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("measure", [x_entries, concurrence, correlation_vector],
                             ids=["x_entries", "concurrence", "correlation_vector"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["state", "stack"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("entries", [[(0, 0)], [(0, 3), (3, 0)], [(1, 2)], [(0, 1), (1, 0)]],
                             ids=["rho11", "rho14_pair", "rho23", "off_x_pair"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_input_raises_without_a_warning(
        self, rng, measure, stacked, dtype, entries, value
    ):
        rho = werner_state(0.8).real.astype(dtype)
        for index in entries:
            rho[index] = value
        if stacked:
            rho = np.stack([random_x_state(rng).real.astype(dtype), rho])
        where = re.escape(str((1, *entries[0]) if stacked else entries[0]))
        with pytest.raises(NumericalContractError, match=f"non-finite input at entry {where}"):
            measure(rho)

    @pytest.mark.parametrize("shape", [(4,), (2, 2), (4, 3), (3, 4, 2)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(NumericalContractError, match="shape"):
            x_entries(np.zeros(shape))


class TestJsd:
    def test_diagonal_states_have_no_coherence(self, rng):
        rho = np.diag(rng.dirichlet(np.ones(4))).astype(complex)
        assert correlation_vector(rho).jsd == 0.0

    def test_ground_state(self):
        assert correlation_vector(GROUND).jsd == 0.0

    def test_bell_value(self):
        # frozen: (rho + rho_d)/2 has spectrum {3/4, 1/4, 0, 0}, so the
        # radicand is h-like: -0.75 log2 0.75 - 0.25 log2 0.25 - 1/2
        expected = np.sqrt(-(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25)) - 0.5)
        assert expected == pytest.approx(0.557923045284144, abs=1e-12)
        assert correlation_vector(bell_state()).jsd == pytest.approx(expected, abs=1e-12)


def wootters_eigenvalue_oracle(rho):
    """Concurrence straight from the spin-flip eigenvalue definition."""
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    lam = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)
    assert np.abs(lam.imag).max() < 1e-8
    lam = np.sqrt(np.clip(np.sort(lam.real)[::-1], 0, None))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


class TestConcurrence:
    def test_bell_maximal(self):
        assert concurrence(bell_state()) == pytest.approx(1.0)

    def test_maximally_mixed_separable(self):
        assert concurrence(MIXED) == 0.0

    def test_werner_against_both_oracles(self):
        c = concurrence(werner_state(0.8))
        assert c == pytest.approx(wootters_eigenvalue_oracle(werner_state(0.8)), abs=1e-7)
        assert c == pytest.approx((3 * 0.8 - 1) / 2, abs=1e-12)

    def test_random_states_match_eigenvalue_oracle(self, rng):
        for _ in range(100):
            rho = random_x_state(rng)
            assert concurrence(rho) == pytest.approx(
                wootters_eigenvalue_oracle(rho), abs=1e-7
            )

    def test_pure_partially_entangled_states(self):
        for a2 in np.linspace(0.0, 1.0, 101):
            expected = 2.0 * np.sqrt(a2 * (1.0 - a2))
            assert abs(concurrence(nme_state(float(a2))) - expected) <= 1e-10

    def test_batched_matches_scalar(self, rng):
        stack = np.stack([random_x_state(rng) for _ in range(8)])
        batched = concurrence(stack)
        for i in range(8):
            assert batched[i] == pytest.approx(float(concurrence(stack[i])), abs=1e-13)


def _vector_field(name, normalized):
    """One field of correlation_vector, or of its normalized form, as a measure."""
    def field(rho):
        vector = correlation_vector(rho)
        return getattr(normalize(vector) if normalized else vector, name)
    field.__name__ = f"{'normalized_' if normalized else ''}vector_{name}"
    return field


@pytest.mark.parametrize(
    "measure",
    [trace_distance_discord]
    + [_vector_field(name, normalized) for normalized in (False, True)
       for name in ("chi", "fidelity", "concurrence", "qs", "tdd", "jsd")],
    ids=lambda measure: measure.__name__,
)
def test_every_measure_takes_a_stack(rng, measure):
    # concurrence: TestConcurrence::test_batched_matches_scalar.  Bit for bit
    # over many draws: a square taken with ** on a single state's numpy
    # scalars goes through pow and misses the last bit on a few states.
    # correlation_vector's fields, raw and normalized, are arrays on the
    # stack and floats on each state, and must agree entry by entry
    stack = np.stack([random_x_state(rng) for _ in range(3000)] + [bell_state(), werner_state(0.8)])
    batched = measure(stack.reshape(2, 1501, 4, 4))
    assert batched.shape == (2, 1501)
    assert batched.ravel().tolist() == [measure(rho) for rho in stack]


class TestDenseCoding:
    def test_bell_two_bits(self):
        assert correlation_vector(bell_state()).chi == pytest.approx(2.0, abs=1e-9)

    def test_ground_state_classical_limit(self):
        # mixing the four encodings of |00> gives (|00><00| + |10><10|)/2
        assert correlation_vector(GROUND).chi == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_zero(self):
        assert correlation_vector(MIXED).chi == pytest.approx(0.0, abs=1e-12)


class TestTeleportation:
    # the fidelity is (1 + 2 FEF)/3, with FEF the largest overlap with a
    # maximally entangled state
    def test_bell_perfect(self):
        assert correlation_vector(bell_state()).fidelity == pytest.approx(1.0)

    def test_ground_state_classical_limit(self):
        # overlap with any maximally entangled state is 1/2 for |00>
        assert correlation_vector(GROUND).fidelity == pytest.approx(2 / 3, abs=1e-12)

    def test_maximally_mixed(self):
        # FEF 1/4
        assert correlation_vector(MIXED).fidelity == pytest.approx(0.5)


class TestTraceDistanceDiscord:
    def test_classical_state_zero(self):
        assert trace_distance_discord(GROUND) == 0.0

    def test_mems_nondegenerate_branch(self):
        # frozen: (a, b, c, d, z, w) = (0.4, 0.2, 0, 0.4, 0.4, 0), so
        # gamma1 = 0.8, gamma2 = -0.8, gamma3 = 0.6, x = 0.2
        # -> ratio (0.64*0.68 - 0.64*0.36)/0.32 = 0.64, half its root is 0.4
        assert trace_distance_discord(mems_state(0.8)) == pytest.approx(0.4, abs=1e-12)

    def test_werner_degenerate_branch(self):
        # all branch arguments coincide; the limit |gamma1|/2 applies
        assert trace_distance_discord(werner_state(0.8)) == pytest.approx(0.4, abs=1e-12)

    def test_bell_limit(self):
        assert trace_distance_discord(bell_state()) == pytest.approx(0.5, abs=1e-12)

    def test_non_x_state_rejected(self):
        with pytest.raises(UnsupportedStateError):
            trace_distance_discord(PLUS_ZERO)

    def test_complex_coherence_rejected(self):
        rho = bell_state()
        rho[0, 3] = 0.5j
        rho[3, 0] = -0.5j
        with pytest.raises(UnsupportedStateError):
            trace_distance_discord(rho)


class TestSteering:
    def test_bell_maximal(self):
        # term-by-term: (a, b, c, d, z, w) = (1/2, 0, 0, 1/2, 1/2, 0), so
        # c1 = 2(w + z) = 1, c2 = 2(w - z) = -1, c3 = 1, local imbalances 0
        assert x_entries(bell_state()) == pytest.approx((0.5, 0.0, 0.0, 0.5, 0.5, 0.0))
        assert correlation_vector(bell_state()).qs == pytest.approx(6.0, abs=1e-9)

    def test_ground_state_classical_limit(self):
        # c1 = c2 = 0, c3 = r = s = 1: the terms sum to -2 + 4 = 2
        assert correlation_vector(GROUND).qs == pytest.approx(2.0, abs=1e-12)

    def test_maximally_mixed_zero(self):
        assert correlation_vector(MIXED).qs == pytest.approx(0.0, abs=1e-12)

    def test_non_x_rejected(self):
        # one non-X state refuses the whole stack: no partial vector of the valid states
        with pytest.raises(UnsupportedStateError):
            correlation_vector(np.stack([bell_state(), PLUS_ZERO]))


class TestCorrelationVector:
    def test_bell_composition(self):
        v = correlation_vector(bell_state())
        assert v.chi == pytest.approx(2.0, abs=1e-9)
        assert v.fidelity == pytest.approx(1.0, abs=1e-12)
        assert v.concurrence == pytest.approx(1.0, abs=1e-12)
        assert v.qs == pytest.approx(6.0, abs=1e-9)
        assert v.tdd == pytest.approx(0.5, abs=1e-12)
        assert v.jsd == pytest.approx(0.557923045284144, abs=1e-9)

    def test_maximally_mixed(self):
        v = correlation_vector(MIXED)
        assert tuple(v) == (
            pytest.approx(0.0, abs=1e-12),
            pytest.approx(0.5),
            pytest.approx(0.0, abs=1e-12),
            pytest.approx(0.0, abs=1e-12),
            pytest.approx(0.0, abs=1e-12),
            pytest.approx(0.0, abs=1e-12),
        )

    def test_ground_state(self):
        v = correlation_vector(GROUND)
        assert tuple(v) == (
            pytest.approx(1.0, abs=1e-12),
            pytest.approx(2 / 3),
            pytest.approx(0.0, abs=1e-12),
            pytest.approx(2.0, abs=1e-12),
            pytest.approx(0.0, abs=1e-12),
            pytest.approx(0.0, abs=1e-12),
        )

    def test_non_x_rejected(self):
        # every measure is an X-state closed form, so there is no partial vector
        with pytest.raises(UnsupportedStateError):
            correlation_vector(PLUS_ZERO)


def _one_state_edge_cases(rng):
    """Real X states whose measures take the kernels' corner cases: Bell,
    |00><00|, |11><11|, I/4, and random draws with z = w = 0, with negative
    coherences and with -0.0 entries."""
    states = [bell_state().real, GROUND.real, np.diag([0.0, 0.0, 0.0, 1.0]), MIXED.real]
    for _ in range(20):
        rho = random_x_state(rng).real
        incoherent, negative, signed_zero = rho.copy(), rho.copy(), rho.copy()
        incoherent[[0, 3, 1, 2], [3, 0, 2, 1]] = 0.0
        negative[[0, 3, 1, 2], [3, 0, 2, 1]] = -np.abs(rho[[0, 3, 1, 2], [3, 0, 2, 1]])
        signed_zero[[0, 3, 1, 2], [3, 0, 2, 1]] = -0.0
        states += [incoherent, negative, signed_zero]
    states += [np.diag([1.0, -0.0, -0.0, 0.0]), np.diag([0.5, -0.0, 0.5, -0.0])]
    return states


def _field_bits(vector):
    return [np.float64(field).tobytes() for field in vector]


class TestOneStateOnFloats:
    """One state's measures run on Python floats and a stack's on arrays,
    through the same kernels; every field agrees bit for bit, sign of zero
    included (docs/decisions.md section 2.9)."""

    def test_one_state_equals_its_row_of_the_stack(self, rng):
        states = [random_x_state(rng).real for _ in range(400)] + _one_state_edge_cases(rng)
        stacked = correlation_vector(np.stack(states))
        for i, rho in enumerate(states):
            row = [field[i].tobytes() for field in stacked]
            numbers = x_entries(rho)
            for vector in (
                correlation_vector(rho),
                correlation_vector(rho.astype(np.complex128)),
                x_correlation_vector(numbers),
                x_correlation_vector([float(v) for v in numbers]),
            ):
                assert all(type(field) is float for field in vector)
                assert _field_bits(vector) == row, (i, vector)
            assert np.float64(concurrence(rho)).tobytes() == row[2]
            assert np.float64(trace_distance_discord(rho)).tobytes() == row[4]

    @pytest.mark.parametrize("base", [(0.0,) * 6, (1.0,) + (0.0,) * 5, (0.0,) * 3 + (1.0, 0.0, 0.0)],
                             ids=["zero", "00", "11"])
    def test_signed_zeros_match_the_stack(self, base):
        # every pattern of +0.0 and -0.0 in the zero numbers, one state at a
        # time and as one stack; the all-zero numbers give entropy groups of
        # -0.0 terms, which np.sum adds up to +0.0
        numbers = [[v or math.copysign(0.0, sign) for v, sign in zip(base, signs)]
                   for signs in itertools.product((1.0, -1.0), repeat=6)]
        stacked = x_correlation_vector(np.array(numbers).T)
        for i, x in enumerate(numbers):
            assert _field_bits(x_correlation_vector(x)) == [f[i].tobytes() for f in stacked], x

    @pytest.mark.parametrize("as_numpy", [False, True], ids=["float", "float64"])
    def test_negative_coherence_radicand_raises_alike(self, as_numpy):
        # populations of 1e5 pass every x log2 x argument, and the rounding of
        # entropies near 5e5 leaves S((rho + rho_d)/2) below the mean of S(rho)
        # and S(rho_d) by more than 1e-12
        crafted = (1e5, 1e5, 1e5, 1e5, 1e-3, 0.0)
        one = [np.float64(v) for v in crafted] if as_numpy else list(crafted)
        stack = [np.array([v, good]) for v, good in zip(crafted, x_entries(bell_state()))]
        message = "coherence radicand -9.313e-10"
        for x in (one, stack):
            with pytest.raises(NumericalContractError, match=f"^{message}$"):
                x_correlation_vector(x)


finite_measure = st.floats(min_value=-5, max_value=10, allow_nan=False)


class TestNormalization:
    def test_anchor_values(self):
        v = CorrelationVector(chi=2.0, fidelity=1.0, concurrence=1.0, qs=6.0, tdd=1.0, jsd=0.56)
        n = normalize(v)
        assert all(x == pytest.approx(1.0) for x in n)
        v = CorrelationVector(chi=1.0, fidelity=2 / 3, concurrence=0.0, qs=2.0, tdd=0.0, jsd=0.0)
        n = normalize(v)
        assert all(x == pytest.approx(0.0, abs=1e-12) for x in n)

    def test_values_below_classical_go_negative(self):
        v = CorrelationVector(chi=0.5, fidelity=0.5, concurrence=0.0, qs=0.0, tdd=0.0, jsd=0.0)
        n = normalize(v)
        assert n.chi < 0.0 and n.fidelity < 0.0 and n.qs < 0.0

    @given(
        a=st.tuples(*[finite_measure] * 6),
        b=st.tuples(*[finite_measure] * 6),
    )
    @settings(max_examples=100)
    def test_componentwise_monotonicity(self, a, b):
        va = CorrelationVector(*a)
        vb = CorrelationVector(*b)
        na, nb = normalize(va), normalize(vb)
        for x, y, nx, ny in zip(a, b, na, nb):
            if x <= y:
                assert nx <= ny + 1e-12


class TestProducedValueRanges:
    def test_measure_ranges_on_pipeline_states(self, rng):
        # QS is deliberately left unbounded: the steering expression's
        # asymmetric marginal term takes it slightly outside [0, 6] on
        # protected states with negative local z-imbalance
        from qcorrkit.channels import ChannelParams, WmrMode, WmrParams, wmr_pipeline
        from qcorrkit.states import StateFamily, make_state

        for _ in range(150):
            kind = ("bell", "werner", "mems", "nme")[int(rng.random() * 4)]
            fam = StateFamily(kind, float(rng.random()))
            out = wmr_pipeline(
                make_state(fam),
                ChannelParams(float(rng.random()), float(rng.random())),
                WmrParams(float(rng.random() * 0.95), float(rng.random() * 0.95), WmrMode.TWO_QUBIT),
            )
            v = correlation_vector(out.state)
            assert -1e-12 <= v.concurrence <= 1.0 + 1e-12
            assert 0.0 <= v.fidelity <= 1.0 + 1e-12
            assert -1e-9 <= v.chi <= 2.0 + 1e-9
            assert v.tdd >= 0.0 and v.jsd >= 0.0
            assert np.isfinite(v.qs)


class TestHierarchy:
    def test_steering_dies_before_concurrence(self):
        bell = bell_state()
        ps = np.linspace(0.0, 1.0, 801)
        n_qs, n_c, n_tdd = [], [], []
        for p in ps:
            v = normalize(correlation_vector(apply_cad(bell, ChannelParams(float(p), 0.0))))
            n_qs.append(v.qs)
            n_c.append(v.concurrence)
            n_tdd.append(v.tdd)
        qs_cross = find_zero_crossing(ps, np.array(n_qs))
        assert qs_cross is not None and qs_cross < 1.0
        # concurrence stays positive below full damping
        assert all(c > 0 for p, c in zip(ps[:-1], n_c[:-1]))
        # discord persists wherever entanglement does
        assert all(t > 0 for c, t in zip(n_c, n_tdd) if c > 0)

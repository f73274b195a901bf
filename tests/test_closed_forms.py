import itertools

import numpy as np
import pytest

from qcorrkit import closed_forms
from qcorrkit.channels import ChannelParams, WmrMode, WmrParams, apply_cad, wmr_pipeline
from qcorrkit.closed_forms import (
    _reference_pipeline_state,
    _worst,
    bell_concurrence_one_qubit,
    bell_concurrence_two_qubit,
    bell_wmr_concurrence,
    verify_closed_forms,
    wootters_concurrence_oracle,
)
from qcorrkit.measures import concurrence
from qcorrkit.states import bell_state, random_density_matrix, random_x_state


class TestClosedForms:
    def test_reduce_to_bell_without_noise(self):
        assert bell_concurrence_one_qubit(0, 0, 0, 0) == pytest.approx(1.0)
        assert bell_concurrence_two_qubit(0, 0, 0, 0) == pytest.approx(1.0)

    def test_measurement_free_reduction(self):
        # q = r = 0 must reproduce the bare-channel concurrence
        for eta in (0.0, 0.5, 1.0):
            for p in (0.0, 0.25, 0.5, 0.9):
                bare = concurrence(apply_cad(bell_state(), ChannelParams(p, eta)))
                assert bell_concurrence_one_qubit(p, 0.0, 0.0, eta) == pytest.approx(
                    bare, abs=1e-12
                )
                assert bell_concurrence_two_qubit(p, 0.0, 0.0, eta) == pytest.approx(
                    bare, abs=1e-12
                )

    def test_noise_free_slice_depends_on_measurements_only(self):
        # p = 0, eta irrelevant: the sandwich alone sets the concurrence
        for q, r in ((0.2, 0.6), (0.5, 0.1), (0.8, 0.8)):
            for mode, fn in (
                (WmrMode.ONE_QUBIT, bell_concurrence_one_qubit),
                (WmrMode.TWO_QUBIT, bell_concurrence_two_qubit),
            ):
                direct = concurrence(
                    wmr_pipeline(
                        bell_state(), ChannelParams(0.0, 0.0), WmrParams(q, r, mode)
                    ).state
                )
                assert fn(0.0, q, r, 0.0) == pytest.approx(direct, abs=1e-12)
                assert fn(0.0, q, r, 1.0) == pytest.approx(direct, abs=1e-12)

    def test_random_points_match_pipeline(self, rng):
        bell = bell_state()
        for _ in range(200):
            p, eta = rng.random() * 0.95, rng.random() * 0.95
            q, r = rng.random() * 0.95, rng.random() * 0.95
            mode = (WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT)[int(rng.random() < 0.5)]
            numeric = concurrence(
                wmr_pipeline(bell, ChannelParams(p, eta), WmrParams(q, r, mode)).state
            )
            assert bell_wmr_concurrence(p, q, r, eta, mode) == pytest.approx(
                numeric, abs=1e-9
            )

    def test_mode_none_rejected(self):
        with pytest.raises(ValueError):
            bell_wmr_concurrence(0.1, 0.1, 0.1, 0.0, WmrMode.NONE)


class TestVerificationReport:
    def test_default_grid_passes(self):
        report = verify_closed_forms(grid_points=4)
        assert report.passed, report.summary()

    def test_tolerance_tighter_than_float_fails(self, monkeypatch):
        monkeypatch.setattr(closed_forms, "_TOL", 1e-17)
        report = verify_closed_forms(grid_points=3)
        assert not report.passed
        assert any(not c.passed for c in report.checks)


class TestStacks:
    """Array arguments and state stacks equal per-point scalar calls exactly."""

    def test_closed_forms_on_arrays(self, rng):
        p, q, r, eta = (rng.random(300) * 0.95 for _ in range(4))
        grid = np.ix_(*(np.linspace(0.0, 0.95, 4),) * 4)
        for fn in (bell_concurrence_one_qubit, bell_concurrence_two_qubit):
            values = fn(p, q, r, eta)
            for k in range(300):
                assert values[k] == fn(float(p[k]), float(q[k]), float(r[k]), float(eta[k]))
            values = fn(*grid)
            assert values.shape == (4, 4, 4, 4)
            for index in np.ndindex(values.shape):
                assert values[index] == fn(*(float(axis.ravel()[i]) for axis, i in zip(grid, index)))

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
    def test_reference_and_oracle_on_stacks(self, rng, mode):
        rhos = np.stack([random_x_state(rng) for _ in range(3)] + [random_density_matrix(rng) for _ in range(3)])
        p, eta, q, r = (rng.random(6) * 0.95 for _ in range(4))
        p[0], eta[1], q[2], r[3] = 1.0, 0.0, 0.0, 0.0
        states = _reference_pipeline_state(rhos, p, eta, q, r, mode)
        for k in range(6):
            expected = _reference_pipeline_state(rhos[k], p[k], eta[k], q[k], r[k], mode)
            assert np.array_equal(states[k], expected)
        values = wootters_concurrence_oracle(states)
        assert values.shape == (6,)
        for state, value in zip(states, values):
            assert value == wootters_concurrence_oracle(state)

    def test_bell_grid_matches_a_per_point_loop(self):
        # the stacked grid reports what a loop over (p, q, r, eta) reports:
        # the same largest deviation, at the first point that reaches it
        axis = np.linspace(0.0, 0.95, 3)
        report = verify_closed_forms(grid_points=3)
        for check, mode, fn in zip(
            report.checks[:2],
            (WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT),
            (bell_concurrence_one_qubit, bell_concurrence_two_qubit),
        ):
            worst, case = 0.0, {}
            for p, q, r, eta in itertools.product(*(axis.tolist(),) * 4):
                numeric = concurrence(
                    wmr_pipeline(bell_state(), ChannelParams(p, eta), WmrParams(q, r, mode)).state
                )
                dev = abs(fn(p, q, r, eta) - numeric)
                if dev > worst:
                    worst, case = dev, {"p": p, "q": q, "r": r, "eta": eta}
            assert worst > 0.0
            assert check.max_deviation == worst
            assert check.worst_case == case

    def test_worst_is_the_first_maximum_and_nan_wins(self):
        dev = np.array([[0.1, 0.3], [0.3, 0.2]])
        assert _worst(dev) == (0.3, (0, 1))
        dev[1, 1] = np.nan
        worst, index = _worst(dev)
        assert np.isnan(worst) and index == (1, 1)
        assert _worst(np.zeros((2, 2))) == (0.0, None)


class TestNanDeviations:
    def test_nan_closed_form_fails(self, monkeypatch):
        # a NaN deviation is not a small one: the check must fail, not pass silently
        monkeypatch.setattr(
            closed_forms, "bell_concurrence_two_qubit", lambda p, q, r, eta: np.nan * (p + q + r + eta)
        )
        report = verify_closed_forms(grid_points=2)
        (check,) = [c for c in report.checks if c.name == "bell closed form, two-qubit WMR"]
        assert np.isnan(check.max_deviation)
        assert not check.passed and not report.passed
        assert check.worst_case == {"p": 0.0, "q": 0.0, "r": 0.0, "eta": 0.0}
        assert "[FAIL] bell closed form, two-qubit WMR: max deviation nan" in report.summary()

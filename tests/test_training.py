import numpy as np
import pytest

from qcorrkit.dataset import Dataset, build_dataset
from qcorrkit.exceptions import TrainingFailure
from qcorrkit.mlp import (
    forward,
    get_params,
    init_mlp,
    network_jacobian,
    scale_inputs,
    set_input_scaling,
)
from qcorrkit.states import StateFamily
from qcorrkit.training import (
    _MU_FACTOR,
    TrainConfig,
    lm_train,
    restart_search,
    split_indices,
)


def synthetic_dataset(rng, n=120, n_features=3, fn=None):
    x = rng.uniform(-1.0, 1.0, (n, n_features))
    y = fn(x) if fn else np.zeros(n)
    return Dataset(
        features=x,
        targets=y,
        scenario="no_wmr",
        eta=0.0,
        sweep_var="p",
        sweep_values=np.linspace(0, 1, n),
    )


class TestSplit:
    def test_sizes_and_disjointness(self):
        tr, va, te = split_indices(100, seed=3)
        assert len(tr) == 70 and len(va) == 15 and len(te) == 15
        assert len(set(tr) | set(va) | set(te)) == 100

    def test_seeded_determinism(self):
        a = split_indices(500, seed=11)
        b = split_indices(500, seed=11)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestLmTrain:
    def test_linear_network_recovers_exact_least_squares(self, rng):
        # a single linear layer has a constant Jacobian, so each accepted
        # damped step contracts the residual by ~mu; three steps reach the
        # exact solution to below 1e-20 in MSE
        w_true = np.array([0.7, -1.2, 0.4])
        data = synthetic_dataset(rng, n=100, fn=lambda x: x @ w_true + 0.25)
        net = init_mlp(layer_sizes=(3, 1), activations=("linear",), seed=4)
        report = lm_train(net, data, TrainConfig(grad_tol=0.0, max_epochs=40))
        assert report.mse_history[3] < 1e-20
        assert report.mse_train < 1e-20

    def test_one_epoch_is_the_jacobian_step(self):
        # the step lm_train takes from per-layer factors equals
        # theta + Jᵀ (JJᵀ + μI)⁻¹ e with J materialised by network_jacobian
        data = build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=100)
        net = init_mlp(seed=0)
        report = lm_train(net, data, TrainConfig(max_epochs=1))
        assert report.epochs == 1

        ref = init_mlp(seed=0)
        train, _, _ = split_indices(len(data), ref.seed)
        set_input_scaling(ref, data.features[train])
        x = scale_inputs(ref, data.features[train])
        pred, jac = network_jacobian(ref, x)
        err = data.targets[train] - pred
        mu = report.mu_final * _MU_FACTOR  # the damping of the accepted attempt
        step = jac.T @ np.linalg.solve(jac @ jac.T + mu * np.eye(len(x)), err)
        np.testing.assert_allclose(get_params(net), get_params(ref) + step, rtol=0, atol=1e-12)

    def test_constant_target_learned_by_bias(self, rng):
        data = synthetic_dataset(rng, n=100, fn=lambda x: np.full(len(x), 0.37))
        net = init_mlp(layer_sizes=(3, 4, 1), activations=("logsig", "linear"), seed=8)
        report = lm_train(net, data)
        assert report.mse_train < 1e-12

    def test_accepted_steps_never_increase_training_mse(self, rng):
        data = synthetic_dataset(rng, n=150, fn=lambda x: np.sin(x[:, 0]) * x[:, 1] ** 2)
        net = init_mlp(layer_sizes=(3, 8, 4, 1), activations=("logsig", "tansig", "linear"), seed=2)
        report = lm_train(net, data, TrainConfig(max_epochs=60))
        diffs = np.diff(report.mse_history)
        assert (diffs < 0).all()

    def test_non_finite_targets_raise(self, rng):
        data = synthetic_dataset(rng, n=80)
        data.targets[5] = np.nan
        net = init_mlp(layer_sizes=(3, 4, 1), activations=("logsig", "linear"), seed=0)
        with pytest.raises(TrainingFailure):
            lm_train(net, data)

    def test_validation_stop_restores_best_weights(self, rng):
        # noisy targets force validation to wobble eventually
        data = synthetic_dataset(
            rng, n=90, fn=lambda x: x[:, 0] + 0.05 * rng.normal(size=len(x))
        )
        net = init_mlp(layer_sizes=(3, 12, 1), activations=("tansig", "linear"), seed=6)
        report = lm_train(net, data, TrainConfig(max_epochs=400, grad_tol=0.0))
        if report.stop_reason == "validation":
            # restored weights must reproduce the reported validation MSE
            tr, va, _ = split_indices(len(data), net.seed)
            from qcorrkit.mlp import forward_scaled, scale_inputs

            val_mse = float(
                np.mean(
                    (
                        data.targets[va]
                        - forward_scaled(net, scale_inputs(net, data.features[va]))
                    )
                    ** 2
                )
            )
            assert val_mse == pytest.approx(report.mse_val, abs=1e-15)


class TestRestartSearch:
    def test_single_restart_equals_plain_training(self, rng):
        data = synthetic_dataset(rng, n=100, fn=lambda x: x[:, 0] ** 2)
        net, report = restart_search(
            data, restarts=1, seed=42,
            layer_sizes=(3, 6, 1), activations=("logsig", "linear"),
        )
        child = int(np.random.SeedSequence(42).spawn(1)[0].generate_state(1)[0])
        direct = init_mlp(layer_sizes=(3, 6, 1), activations=("logsig", "linear"), seed=child)
        direct_report = lm_train(direct, data)
        assert report.mse_test == direct_report.mse_test
        np.testing.assert_array_equal(get_params(net), get_params(direct))

    def test_same_seed_is_bit_identical(self, rng):
        data = synthetic_dataset(rng, n=100, fn=lambda x: np.abs(x[:, 1]))
        kwargs = dict(layer_sizes=(3, 5, 1), activations=("tansig", "linear"))
        net_a, rep_a = restart_search(data, restarts=3, seed=5, **kwargs)
        net_b, rep_b = restart_search(data, restarts=3, seed=5, **kwargs)
        np.testing.assert_array_equal(get_params(net_a), get_params(net_b))
        assert rep_a == rep_b

    def test_selection_takes_minimum_test_mse(self, rng):
        data = synthetic_dataset(rng, n=100, fn=lambda x: x[:, 0] * x[:, 2])
        restarts = 5
        _, best = restart_search(
            data, restarts=restarts, seed=9,
            layer_sizes=(3, 6, 1), activations=("logsig", "linear"),
        )
        seeds = [
            int(s.generate_state(1)[0]) for s in np.random.SeedSequence(9).spawn(restarts)
        ]
        all_tests = []
        for s in seeds:
            net = init_mlp(layer_sizes=(3, 6, 1), activations=("logsig", "linear"), seed=s)
            all_tests.append(lm_train(net, data).mse_test)
        assert best.mse_test == min(all_tests)
        assert best.best_restart == int(np.argmin(all_tests))
        assert best.restarts_run == restarts


class TestOnPipelineData:
    def test_bell_dataset_trains_well(self):
        data = build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=160)
        net, report = restart_search(data, restarts=3, seed=7)
        assert report.mse_test <= 1e-3
        assert report.mse_test <= 10.0 * max(report.mse_train, 1e-300)
        # endpoint prediction sanity: the pristine state has discord 1/2
        pred = forward(net, data.features[0])
        assert pred == pytest.approx(0.5, abs=0.05)

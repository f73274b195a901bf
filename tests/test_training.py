import multiprocessing
import os

import numpy as np
import pytest

from qcorrkit import mlp, training
from qcorrkit.dataset import Dataset, build_dataset
from qcorrkit.exceptions import TrainingFailure
from qcorrkit.mlp import (
    factor_gram,
    factor_jt_vector,
    forward,
    forward_scaled,
    init_mlp,
    network_jacobian,
    scale_inputs,
    set_input_scaling,
)
from qcorrkit.states import StateFamily
from qcorrkit.training import (
    _GRAD_TOL,
    _MAX_VAL_FAILS,
    _MU0,
    _MU_FACTOR,
    _MU_MAX,
    _MU_MIN,
    TrainReport,
    lm_train,
    restart_search,
    split_indices,
)

from conftest import use_network


def synthetic_dataset(rng, n=120, n_features=3, fn=None):
    x = rng.uniform(-1.0, 1.0, (n, n_features))
    y = fn(x) if fn else np.zeros(n)
    return Dataset(
        features=x,
        targets=y,
        scenario="no_wmr",
        eta=0.0,
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
    def test_linear_network_recovers_exact_least_squares(self, rng, monkeypatch):
        # a single linear layer has a constant Jacobian, so each accepted
        # damped step contracts the residual by ~mu; three steps reach the
        # exact solution to below 1e-20 in MSE
        w_true = np.array([0.7, -1.2, 0.4])
        data = synthetic_dataset(rng, n=100, fn=lambda x: x @ w_true + 0.25)
        use_network(monkeypatch, (3, 1), ("linear",))
        net = init_mlp(seed=4)
        monkeypatch.setattr(training, "_GRAD_TOL", 0.0)
        report = lm_train(net, data, max_epochs=40)
        assert report.mse_history[3] < 1e-20
        assert report.mse_train < 1e-20

    def test_one_epoch_is_the_jacobian_step(self):
        # the step lm_train takes from per-layer factors equals
        # theta + Jᵀ (JJᵀ + μI)⁻¹ e with J materialised by network_jacobian
        data = build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=100)
        net = init_mlp(seed=0)
        report = lm_train(net, data, max_epochs=1)
        assert report.epochs == 1

        ref = init_mlp(seed=0)
        train, _, _ = split_indices(len(data), ref.seed)
        set_input_scaling(ref, data.features[train])
        x = scale_inputs(ref, data.features[train])
        pred, jac = network_jacobian(ref, x)
        err = data.targets[train] - pred
        mu = report.mu_final * _MU_FACTOR  # the damping of the accepted attempt
        step = jac.T @ np.linalg.solve(jac @ jac.T + mu * np.eye(len(x)), err)
        np.testing.assert_allclose(net.params, ref.params + step, rtol=0, atol=1e-12)

    def test_constant_target_learned_by_bias(self, rng, monkeypatch):
        data = synthetic_dataset(rng, n=100, fn=lambda x: np.full(len(x), 0.37))
        use_network(monkeypatch, (3, 4, 1), ("logsig", "linear"))
        net = init_mlp(seed=8)
        report = lm_train(net, data)
        assert report.mse_train < 1e-12

    def test_accepted_steps_never_increase_training_mse(self, rng, monkeypatch):
        data = synthetic_dataset(rng, n=150, fn=lambda x: np.sin(x[:, 0]) * x[:, 1] ** 2)
        use_network(monkeypatch, (3, 8, 4, 1), ("logsig", "tansig", "linear"))
        net = init_mlp(seed=2)
        report = lm_train(net, data, max_epochs=60)
        diffs = np.diff(report.mse_history)
        assert (diffs < 0).all()

    def test_non_finite_targets_raise(self, rng, monkeypatch):
        data = synthetic_dataset(rng, n=80)
        data.targets[5] = np.nan
        use_network(monkeypatch, (3, 4, 1), ("logsig", "linear"))
        net = init_mlp(seed=0)
        with pytest.raises(TrainingFailure):
            lm_train(net, data)

    def test_validation_stop_restores_best_weights(self, rng, monkeypatch):
        # noisy targets force validation to wobble eventually
        data = synthetic_dataset(
            rng, n=90, fn=lambda x: x[:, 0] + 0.05 * rng.normal(size=len(x))
        )
        use_network(monkeypatch, (3, 12, 1), ("tansig", "linear"))
        net = init_mlp(seed=6)
        monkeypatch.setattr(training, "_GRAD_TOL", 0.0)
        report = lm_train(net, data, max_epochs=400)
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


def _reference_factors(net, x):
    """One forward and one backward pass of its own, kept in per-layer factors."""
    a = np.atleast_2d(x)
    inputs = []
    for w, b, act in zip(net.weights, net.biases, mlp.ACTIVATIONS):
        inputs.append(a)
        a = mlp._ACTIVATIONS[act][0](a @ w.T + b)
    derivative = [mlp._ACTIVATIONS[act][1] for act in mlp.ACTIVATIONS]
    deltas = []
    delta = derivative[-1](a)
    for layer in range(len(net.weights) - 1, -1, -1):
        deltas.append(delta)
        if layer > 0:
            delta = (delta @ net.weights[layer]) * derivative[layer - 1](inputs[layer])
    deltas.reverse()
    return a[:, 0], inputs, deltas


def _reference_mse(net, x, y):
    with np.errstate(over="ignore"):
        return float(np.mean((y - forward_scaled(net, x)) ** 2))


def reference_lm_train(net, data, max_epochs):
    """LM with a fresh forward pass every epoch, each attempt written into the net.

    Every attempt sets the candidate's weights, scores them and restores
    the old ones on rejection, and the damped matrix is JJᵀ + μ·eye(n).
    """
    idx_train, idx_val, idx_test = split_indices(len(data), net.seed)
    set_input_scaling(net, data.features[idx_train])
    scaled = scale_inputs(net, data.features)
    x_train, y_train = scaled[idx_train], data.targets[idx_train]
    x_val, y_val = scaled[idx_val], data.targets[idx_val]
    n = len(x_train)
    mu = _MU0
    mse = _reference_mse(net, x_train, y_train)
    history = [mse]
    best_val = _reference_mse(net, x_val, y_val)
    best_val_params = net.params.copy()
    val_fails = epochs = 0
    stop_reason = "epoch_limit"
    while epochs < max_epochs:
        pred, inputs, deltas = _reference_factors(net, x_train)
        err = y_train - pred
        if np.abs(2.0 / n * factor_jt_vector(inputs, deltas, err)).max() < _GRAD_TOL:
            stop_reason = "gradient"
            break
        theta = net.params.copy()
        jjt = factor_gram(inputs, deltas)
        accepted = False
        while mu <= _MU_MAX:
            v = np.linalg.solve(jjt + mu * np.eye(n), err)
            net.params[:] = theta + factor_jt_vector(inputs, deltas, v)
            candidate = _reference_mse(net, x_train, y_train)
            if np.isfinite(candidate) and candidate < mse:
                mse = candidate
                mu = max(mu / _MU_FACTOR, _MU_MIN)
                accepted = True
                break
            net.params[:] = theta
            mu *= _MU_FACTOR
        if not accepted:
            stop_reason = "mu_overflow"
            break
        epochs += 1
        history.append(mse)
        val_mse = _reference_mse(net, x_val, y_val)
        if val_mse < best_val:
            best_val, best_val_params, val_fails = val_mse, net.params.copy(), 0
        else:
            val_fails += 1
            if val_fails >= _MAX_VAL_FAILS:
                stop_reason = "validation"
                net.params[:] = best_val_params
                break
    return TrainReport(
        mse_train=_reference_mse(net, x_train, y_train),
        mse_val=_reference_mse(net, x_val, y_val),
        mse_test=_reference_mse(net, scaled[idx_test], data.targets[idx_test]),
        epochs=epochs,
        mu_final=mu,
        stop_reason=stop_reason,
        mse_history=history,
    )


@pytest.fixture(scope="module")
def bell_100():
    return build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=100)


@pytest.mark.parametrize(
    "seed,max_epochs,stop",
    [(0, 1000, "gradient"), (1, 1000, "gradient"), (2, 1000, "validation"),
     (6, 1000, "validation"), (2, 7, "epoch_limit")],
)
def test_lm_train_equals_the_reference_loop_bit_for_bit(bell_100, seed, max_epochs, stop):
    # reusing the accepted forward pass and scoring candidates on views
    # into the flat weights must not move one bit of a trained model
    net, ref = init_mlp(seed=seed), init_mlp(seed=seed)
    report = lm_train(net, bell_100, max_epochs=max_epochs)
    expected = reference_lm_train(ref, bell_100, max_epochs)
    assert report.stop_reason == stop
    assert report == expected
    assert net.params.tobytes() == ref.params.tobytes()
    assert [w.shape for w in net.weights] == [w.shape for w in ref.weights]


class TestRestartSearch:
    def test_single_restart_equals_plain_training(self, rng, monkeypatch):
        data = synthetic_dataset(rng, n=100, fn=lambda x: x[:, 0] ** 2)
        use_network(monkeypatch, (3, 6, 1), ("logsig", "linear"))
        net, report = restart_search(data, restarts=1, seed=42)
        child = int(np.random.SeedSequence(42).spawn(1)[0].generate_state(1)[0])
        direct = init_mlp(seed=child)
        direct_report = lm_train(direct, data)
        assert report.mse_test == direct_report.mse_test
        np.testing.assert_array_equal(net.params, direct.params)

    def test_same_seed_is_bit_identical(self, rng, monkeypatch):
        data = synthetic_dataset(rng, n=100, fn=lambda x: np.abs(x[:, 1]))
        use_network(monkeypatch, (3, 5, 1), ("tansig", "linear"))
        net_a, rep_a = restart_search(data, restarts=3, seed=5)
        net_b, rep_b = restart_search(data, restarts=3, seed=5)
        np.testing.assert_array_equal(net_a.params, net_b.params)
        assert rep_a == rep_b

    def test_selection_takes_minimum_test_mse(self, rng, monkeypatch):
        data = synthetic_dataset(rng, n=100, fn=lambda x: x[:, 0] * x[:, 2])
        restarts = 5
        use_network(monkeypatch, (3, 6, 1), ("logsig", "linear"))
        _, best = restart_search(data, restarts=restarts, seed=9)
        seeds = [
            int(s.generate_state(1)[0]) for s in np.random.SeedSequence(9).spawn(restarts)
        ]
        all_tests = []
        for s in seeds:
            net = init_mlp(seed=s)
            all_tests.append(lm_train(net, data).mse_test)
        assert best.mse_test == min(all_tests)
        assert best.best_restart == int(np.argmin(all_tests))
        assert best.restarts_run == restarts


def set_blas_threads(monkeypatch, threads):
    """Two usable cores, and the process started with BLAS pinned to ``threads``
    (None: unset), as ``training`` read the environment at import."""
    environ = {} if threads is None else {"OPENBLAS_NUM_THREADS": str(threads)}
    monkeypatch.setattr(training, "_BLAS_ENVIRON", environ)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.parametrize(
    "environ,cores,restarts,workers",
    [
        ({}, 2, 20, 1),                                    # unset: BLAS takes every core
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 20, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1, 1),          # one restart
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 20, 1),         # one core
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 20, 1),
        ({"OPENBLAS_NUM_THREADS": "16"}, 8, 20, 0),
        ({"OPENBLAS_NUM_THREADS": "1"}, 64, 20, 20),
        ({"OPENBLAS_NUM_THREADS": "1"}, 64, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "4"}, 64, 20, 16),
        ({"GOTO_NUM_THREADS": "2"}, 8, 20, 4),
        ({"OMP_NUM_THREADS": "1"}, 8, 20, 8),
        ({"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 8, 20, 4),
        ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 8, 20, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 8, 20, 8),
        ({"OPENBLAS_NUM_THREADS": "-3", "OMP_NUM_THREADS": "2"}, 8, 20, 4),
        ({"OPENBLAS_NUM_THREADS": "two", "GOTO_NUM_THREADS": ""}, 8, 20, 1),
    ],
)
def test_worker_count_leaves_no_core_to_two_threads(environ, cores, restarts, workers):
    # a pure rule: large core counts are checked here, never by starting workers
    assert training._worker_count(environ, cores, restarts) == workers


class TestWorkerPool:
    """Restarts trained in forked workers give the bytes of one process."""

    def search(self, monkeypatch, threads, data, restarts, seed):
        """``restart_search`` with BLAS at ``threads``: its result and the processes it forked."""
        set_blas_threads(monkeypatch, threads)
        forks, fork = [], os.fork

        def counting_fork():  # the pool starts its workers through os.fork
            forks.append(1)
            return fork()

        with monkeypatch.context() as patch:
            patch.setattr(os, "fork", counting_fork)
            try:
                return restart_search(data, restarts=restarts, seed=seed), len(forks)
            finally:
                assert multiprocessing.active_children() == []

    def test_pool_gives_the_bytes_of_one_process(self, rng, monkeypatch):
        data = synthetic_dataset(rng, n=100, fn=lambda x: x[:, 0] * x[:, 2])
        use_network(monkeypatch, (3, 6, 1), ("logsig", "linear"))
        (net, report), forks = self.search(monkeypatch, 1, data, 4, 9)
        (ref, ref_report), ref_forks = self.search(monkeypatch, None, data, 4, 9)
        assert (forks, ref_forks) == (2, 0)
        assert net.params.tobytes() == ref.params.tobytes()
        assert net.input_min.tobytes() == ref.input_min.tobytes()
        assert net.input_max.tobytes() == ref.input_max.tobytes()
        assert report == ref_report and net.train_report == ref.train_report
        for model in (net, ref):
            assert all(np.shares_memory(a, model.params) for a in model.weights + model.biases)

    def test_a_failed_restart_is_skipped_in_both(self, rng, monkeypatch):
        data = synthetic_dataset(rng, n=100, fn=lambda x: np.abs(x[:, 1]))
        first = int(np.random.SeedSequence(5).spawn(3)[0].generate_state(1)[0])

        use_network(monkeypatch, (3, 6, 1), ("logsig", "linear"))

        def init(seed):  # restart 0 starts with weights so large its loss is not finite
            net = init_mlp(seed=seed)
            if seed == first:
                net.params[:] = 1e300
            return net

        monkeypatch.setattr(training, "init_mlp", init)
        (net, report), forks = self.search(monkeypatch, 1, data, 3, 5)
        (ref, ref_report), ref_forks = self.search(monkeypatch, None, data, 3, 5)
        assert (forks, ref_forks) == (2, 0)
        assert report.best_restart != 0
        assert net.params.tobytes() == ref.params.tobytes() and report == ref_report

    @pytest.mark.parametrize("threads", [1, None])
    def test_other_errors_propagate(self, rng, monkeypatch, threads):
        data = synthetic_dataset(rng, n=3)
        use_network(monkeypatch, (3, 2, 1), ("logsig", "linear"))
        with pytest.raises(ValueError, match="dataset too small"):
            self.search(monkeypatch, threads, data, 4, 1)

    def test_one_restart_starts_no_process(self, rng, monkeypatch):
        data = synthetic_dataset(rng, n=100, fn=lambda x: x[:, 0])
        use_network(monkeypatch, (3, 2, 1), ("logsig", "linear"))
        assert self.search(monkeypatch, 1, data, 1, 3)[1] == 0

    def test_a_variable_set_after_import_starts_no_process(self, rng, monkeypatch):
        # BLAS read the environment when numpy loaded; importing bench/run.py
        # pins it afterwards, which reaches neither BLAS nor the worker count
        data = synthetic_dataset(rng, n=100, fn=lambda x: x[:, 0])
        use_network(monkeypatch, (3, 2, 1), ("logsig", "linear"))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert self.search(monkeypatch, None, data, 3, 3)[1] == 0


class TestOnPipelineData:
    def test_bell_dataset_trains_well(self):
        data = build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=160)
        net, report = restart_search(data, restarts=3, seed=7)
        assert report.mse_test <= 1e-3
        assert report.mse_test <= 10.0 * max(report.mse_train, 1e-300)
        # endpoint prediction sanity: the pristine state has discord 1/2
        pred = forward(net, data.features[0])
        assert pred == pytest.approx(0.5, abs=0.05)

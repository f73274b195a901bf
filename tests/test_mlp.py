import hashlib
import json
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qcorrkit import mlp
from qcorrkit.measures import CorrelationVector
from qcorrkit.mlp import (
    FEATURE_NAMES,
    TARGET_NAME,
    _logsig,
    factor_gram,
    factor_jt_vector,
    forward,
    forward_scaled,
    init_mlp,
    layer_deltas,
    layer_outputs,
    mlp_from_json,
    mlp_to_json,
    network_jacobian,
    scale_inputs,
    set_input_scaling,
    weight_summary,
)

from conftest import use_network


def reference_forward(net, features):
    """Independent straightforward re-implementation with explicit loops
    and the literal activation formulas."""
    x = [
        2.0 * (features[i] - net.input_min[i]) / (net.input_max[i] - net.input_min[i]) - 1.0
        for i in range(len(features))
    ]
    for w, b, act in zip(net.weights, net.biases, mlp.ACTIVATIONS):
        out = []
        for j in range(w.shape[0]):
            z = b[j] + sum(w[j, k] * x[k] for k in range(w.shape[1]))
            if act == "logsig":
                out.append(1.0 / (1.0 + np.exp(-z)))
            elif act == "tansig":
                out.append(2.0 / (1.0 + np.exp(-2.0 * z)) - 1.0)
            else:
                out.append(z)
        x = out
    return x[0]


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = init_mlp(seed=0)
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        assert forward(net, np.array([0.3, 0.1, 0.9, 2.0, 1.5])) == 0.0

    def test_output_bias_passes_through(self):
        net = init_mlp(seed=0)
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        net.biases[-1][0] = 0.37
        # the two hidden sigmoids see zero input; their outputs are killed
        # by the zero weights downstream, leaving only the output bias
        assert forward(net, np.array([1.0, -2.0, 0.5, 4.0, 0.0])) == pytest.approx(0.37)

    def test_matches_independent_reimplementation(self, rng):
        net = init_mlp(seed=123)
        net.input_min = rng.uniform(-1.0, 0.0, 5)
        net.input_max = rng.uniform(0.5, 2.0, 5)
        for _ in range(25):
            x = rng.uniform(-1.0, 2.0, 5)
            assert forward(net, x) == pytest.approx(reference_forward(net, x), abs=1e-12)

    def test_batched_equals_rowwise(self, rng):
        net = init_mlp(seed=5)
        xs = rng.uniform(0.0, 1.0, (9, 5))
        batch = forward(net, xs)
        for i in range(9):
            assert batch[i] == pytest.approx(forward(net, xs[i]), abs=1e-14)


class TestLogsig:
    """1 / (1 + exp(-z)) on numpy's exp, against scipy's expit on libm's.

    The two are not bit-equal: each is within 2 ulp of the exact sigmoid,
    and they differ by up to 4 ulp, near z = -37 (docs/decisions.md section 5).
    """

    def test_within_four_ulp_of_expit(self):
        from scipy.special import expit

        z = np.concatenate([np.linspace(-800.0, 800.0, 400_001), np.linspace(-40.0, 40.0, 400_001)])
        np.testing.assert_array_max_ulp(_logsig(z), expit(z), maxulp=4)

    def test_limits_signed_zeros_and_nan_equal_expit(self):
        from scipy.special import expit

        z = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan])
        out = _logsig(z)
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.5, 0.5, np.nan])
        np.testing.assert_array_equal(out, expit(z))

    def test_no_overflow_warning_far_below_zero(self):
        # exp(1000) overflows to inf, which is the right limit, not an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _logsig(np.array([-1000.0])).tolist() == [0.0]


class TestScaling:
    def test_round_trip_hits_plus_minus_one(self, rng):
        net = init_mlp(seed=1)
        rows = rng.uniform(-3.0, 7.0, (40, 5))
        set_input_scaling(net, rows)
        scaled = scale_inputs(net, rows)
        np.testing.assert_array_equal(scaled.min(axis=0), -np.ones(5))
        np.testing.assert_array_equal(scaled.max(axis=0), np.ones(5))

    def test_constant_feature_maps_to_zero(self):
        net = init_mlp(seed=1)
        rows = np.ones((10, 5))
        rows[:, 1] = np.linspace(0, 1, 10)
        set_input_scaling(net, rows)
        scaled = scale_inputs(net, rows)
        np.testing.assert_allclose(scaled[:, 0], 0.0, atol=1e-15)


class TestJacobian:
    @pytest.mark.parametrize(
        "sizes,acts",
        [
            ((2, 2, 1), ("logsig", "tansig")),       # 9 parameters
            ((2, 3, 2, 1), ("logsig", "tansig", "linear")),
            ((5, 4, 3, 2, 1), ("logsig", "tansig", "linear", "linear")),
        ],
    )
    def test_matches_central_differences(self, sizes, acts, rng, monkeypatch):
        use_network(monkeypatch, sizes, acts)
        net = init_mlp(seed=17)
        x = rng.normal(size=(6, sizes[0]))
        _, jac = network_jacobian(net, x)
        theta = net.params.copy()
        h = 1e-6
        fd = np.empty_like(jac)
        for j in range(theta.size):
            net.params[j] = theta[j] + h
            f_up = forward_scaled(net, x)
            net.params[j] = theta[j] - h
            f_dn = forward_scaled(net, x)
            net.params[j] = theta[j]
            fd[:, j] = (f_up - f_dn) / (2.0 * h)
        rel = np.abs(jac - fd) / (np.abs(fd) + 1e-10)
        assert rel.max() <= 1e-5

    def test_prediction_agrees_with_forward(self, rng):
        net = init_mlp(seed=2)
        x = rng.uniform(-1, 1, (4, 5))
        pred, _ = network_jacobian(net, x)
        np.testing.assert_allclose(pred, forward_scaled(net, x), atol=1e-15)


class TestFactorRoute:
    """JJᵀ and Jᵀv from per-layer factors against the materialised Jacobian."""

    @pytest.mark.parametrize(
        "sizes,acts,n",
        [
            ((5, 40, 24, 16, 1), ("logsig", "tansig", "linear", "linear"), 70),
            ((5, 40, 24, 16, 1), ("logsig", "tansig", "linear", "linear"), 350),
            ((2, 2, 1), ("logsig", "tansig"), 70),
            ((2, 3, 2, 1), ("logsig", "tansig", "linear"), 70),
            ((5, 4, 3, 2, 1), ("logsig", "tansig", "linear", "linear"), 70),
            ((3, 1), ("linear",), 70),
        ],
    )
    def test_matches_network_jacobian(self, sizes, acts, n, rng, monkeypatch):
        use_network(monkeypatch, sizes, acts)
        net = init_mlp(seed=17)
        x = rng.uniform(-1.0, 1.0, size=(n, sizes[0]))
        v = rng.normal(size=n)
        pred_ref, jac = network_jacobian(net, x)
        outputs = layer_outputs(net, x)
        pred, inputs, deltas = outputs[-1][:, 0], outputs[:-1], layer_deltas(net, outputs)
        np.testing.assert_array_equal(pred, pred_ref)
        np.testing.assert_array_equal(pred, forward_scaled(net, x))

        gram_ref = jac @ jac.T
        gram = factor_gram(inputs, deltas)
        assert gram.shape == (n, n)
        assert np.abs(gram - gram_ref).max() <= 1e-12 * np.abs(gram_ref).max()

        jtv_ref = jac.T @ v
        jtv = factor_jt_vector(inputs, deltas, v)
        assert jtv.shape == net.params.shape
        assert np.abs(jtv - jtv_ref).max() <= 1e-12 * np.abs(jtv_ref).max()

    @pytest.mark.parametrize(
        "sizes,acts,n",
        [
            ((5, 40, 24, 16, 1), ("logsig", "tansig", "linear", "linear"), 70),
            ((5, 40, 24, 16, 1), ("logsig", "tansig", "linear", "linear"), 350),
            ((2, 3, 2, 1), ("logsig", "tansig", "linear"), 70),
            ((3, 1), ("linear",), 70),
        ],
    )
    def test_gram_bytes_equal_the_layer_sum(self, sizes, acts, n, monkeypatch):
        # the in-place Gram must round exactly as the plain sum over the layers,
        # or every trained model moves; it must also leave the factors alone
        use_network(monkeypatch, sizes, acts)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            net = init_mlp(seed=seed)
            outputs = layer_outputs(net, rng.uniform(-1.0, 1.0, size=(n, sizes[0])))
            inputs, deltas = outputs[:-1], layer_deltas(net, outputs)
            kept = [f.copy() for f in inputs + deltas]
            expected = sum((d @ d.T) * (a @ a.T + 1.0) for a, d in zip(inputs, deltas))
            assert factor_gram(inputs, deltas).tobytes() == expected.tobytes(), seed
            assert all(f.tobytes() == k.tobytes() for f, k in zip(inputs + deltas, kept)), seed


class TestParamsAndSummary:
    def test_round_trip(self, rng):
        net = init_mlp(seed=9)
        assert net.params.size == 5 * 40 + 40 + 40 * 24 + 24 + 24 * 16 + 16 + 16 + 1
        other = init_mlp(seed=10)
        other.params[:] = net.params
        for w1, w2 in zip(net.weights, other.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_view_shares_the_vector_and_forwards_as_the_copy(self, rng):
        net = init_mlp(seed=9)
        theta = net.params + rng.normal(scale=0.1, size=net.params.size)
        view = replace(net, params=theta)
        assert all(np.shares_memory(a, theta) for a in view.weights + view.biases)
        copied = init_mlp(seed=9)
        copied.params[:] = theta
        x = rng.uniform(-1.0, 1.0, (50, 5))
        assert forward_scaled(view, x).tobytes() == forward_scaled(copied, x).tobytes()
        with pytest.raises(ValueError, match="parameter vector size"):
            replace(net, params=theta[:-1])

    @pytest.mark.parametrize("make", [
        lambda: init_mlp(seed=4),
        lambda: mlp_from_json(mlp_to_json(init_mlp(seed=4))),
        lambda: replace(init_mlp(seed=4), params=np.linspace(-1.0, 1.0, 1641)),
        lambda: pickle.loads(pickle.dumps(init_mlp(seed=4))),
    ], ids=["init_mlp", "mlp_from_json", "replace", "pickle"])
    def test_layers_are_views_into_params(self, make):
        # params is the only storage: the layers are its slices in order,
        # and a write through either side shows on the other
        net = make()
        layers = [a for w, b in zip(net.weights, net.biases) for a in (w, b)]
        assert all(np.shares_memory(a, net.params) for a in layers)
        assert np.concatenate([a.ravel() for a in layers]).tobytes() == net.params.tobytes()
        net.weights[1][2, 3] = 7.0
        net.params[-1] = 9.0
        assert net.params[5 * 40 + 40 + 2 * 40 + 3] == 7.0 and net.biases[-1][0] == 9.0

    def test_pickled_model_forwards_to_the_same_bytes(self, rng):
        # a restart worker sends its trained net back pickled
        net = init_mlp(seed=6)
        set_input_scaling(net, rng.uniform(-2.0, 3.0, (30, 5)))
        net.train_report = {"mse_test": 2e-4}
        back = pickle.loads(pickle.dumps(net))
        assert back.params.tobytes() == net.params.tobytes()
        assert back.input_min.tobytes() == net.input_min.tobytes()
        assert back.input_max.tobytes() == net.input_max.tobytes()
        assert (back.seed, back.train_report) == (net.seed, net.train_report)
        x = rng.uniform(-2.0, 3.0, (40, 5))
        assert forward(back, x).tobytes() == forward(net, x).tobytes()
        assert mlp_to_json(back) == mlp_to_json(net)

    def test_forward_refuses_another_feature_count(self):
        # one column would broadcast against the five anchors without an error
        net = init_mlp(seed=0)
        for width in (1, 3, 6):
            with pytest.raises(ValueError, match=f"takes 5 features per row, got {width}"):
                forward(net, np.zeros((4, width)))

    @pytest.mark.parametrize("sizes, acts, seed, digest", [
        ((5, 40, 24, 16, 1), ("logsig", "tansig", "linear", "linear"), 0,
         "d7f38d9e245d4458692ca95ffa00df942860b0a046ac193d9fbdff2d2b24dcd6"),
        ((3, 4, 1), ("logsig", "linear"), 5,
         "54f9ca29dfef110186cf5c1cf5aa41697ed9ef522d856f5384b999b663d33f55"),
    ], ids=["default", "small"])
    def test_initial_model_bytes_are_pinned(self, sizes, acts, seed, digest, monkeypatch):
        # the model file's bytes across versions; uniform draws and repr,
        # no exp, so the digest holds on any CPU
        use_network(monkeypatch, sizes, acts)
        text = mlp_to_json(init_mlp(seed=seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_constant_weights_summary(self):
        net = init_mlp(seed=0)
        net.weights[0][:] = 0.5
        summary = weight_summary(net)
        assert len(summary) == 5
        for name, mean, std in summary:
            assert mean == pytest.approx(0.5) and std == 0.0
        assert [s[0] for s in summary] == ["jsd", "concurrence", "fidelity", "qs", "chi"]

    def test_features_and_target_are_the_measure_fields(self):
        # the five inputs and the target together are the six measures, each once
        assert sorted((*FEATURE_NAMES, TARGET_NAME)) == sorted(CorrelationVector._fields)

    def test_symmetric_weights_mean_near_zero(self, rng):
        net = init_mlp(seed=0)
        draws = rng.normal(size=net.weights[0][:, 2].shape)
        net.weights[0][:, 2] = np.concatenate([draws[: len(draws) // 2], -draws[: len(draws) // 2]])
        assert weight_summary(net)[2][1] == pytest.approx(0.0, abs=1e-12)

    def test_json_round_trip(self):
        net = init_mlp(seed=31)
        net.train_report = {"mse_test": 1e-4}
        text = mlp_to_json(net)
        back = mlp_from_json(text)
        doc = json.loads(text)
        assert doc["layer_sizes"] == [5, 40, 24, 16, 1]
        assert doc["activations"] == ["logsig", "tansig", "linear", "linear"]
        assert back.seed == net.seed
        for w1, w2 in zip(net.weights, back.weights):
            np.testing.assert_array_equal(w1, w2)
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert forward(back, x) == forward(net, x)
        assert mlp_to_json(back) == text

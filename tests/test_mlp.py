import numpy as np
import pytest

from qcorrkit.mlp import (
    backprop_factors,
    factor_gram,
    factor_jt_vector,
    forward,
    forward_scaled,
    get_params,
    init_mlp,
    mlp_from_json,
    mlp_to_json,
    network_jacobian,
    scale_inputs,
    set_input_scaling,
    set_params,
    weight_summary,
)


def reference_forward(net, features):
    """Independent straightforward re-implementation with explicit loops
    and the literal activation formulas."""
    x = [
        2.0 * (features[i] - net.input_min[i]) / (net.input_max[i] - net.input_min[i]) - 1.0
        for i in range(len(features))
    ]
    for w, b, act in zip(net.weights, net.biases, net.activations):
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
    def test_matches_central_differences(self, sizes, acts, rng):
        net = init_mlp(layer_sizes=sizes, activations=acts, seed=17)
        x = rng.normal(size=(6, sizes[0]))
        _, jac = network_jacobian(net, x)
        theta = get_params(net)
        h = 1e-6
        fd = np.empty_like(jac)
        for j in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            set_params(net, up)
            f_up = forward_scaled(net, x)
            set_params(net, dn)
            f_dn = forward_scaled(net, x)
            fd[:, j] = (f_up - f_dn) / (2.0 * h)
        set_params(net, theta)
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
    def test_matches_network_jacobian(self, sizes, acts, n, rng):
        net = init_mlp(layer_sizes=sizes, activations=acts, seed=17)
        x = rng.uniform(-1.0, 1.0, size=(n, sizes[0]))
        v = rng.normal(size=n)
        pred_ref, jac = network_jacobian(net, x)
        pred, inputs, deltas = backprop_factors(net, x)
        np.testing.assert_array_equal(pred, pred_ref)
        np.testing.assert_array_equal(pred, forward_scaled(net, x))

        gram_ref = jac @ jac.T
        gram = factor_gram(inputs, deltas)
        assert gram.shape == (n, n)
        assert np.abs(gram - gram_ref).max() <= 1e-12 * np.abs(gram_ref).max()

        jtv_ref = jac.T @ v
        jtv = factor_jt_vector(inputs, deltas, v)
        assert jtv.shape == (net.n_params(),)
        assert np.abs(jtv - jtv_ref).max() <= 1e-12 * np.abs(jtv_ref).max()


class TestParamsAndSummary:
    def test_round_trip(self, rng):
        net = init_mlp(seed=9)
        theta = get_params(net)
        assert theta.size == net.n_params() == 5 * 40 + 40 + 40 * 24 + 24 + 24 * 16 + 16 + 16 + 1
        other = init_mlp(seed=10)
        set_params(other, theta)
        for w1, w2 in zip(net.weights, other.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_constant_weights_summary(self):
        net = init_mlp(seed=0)
        net.weights[0][:] = 0.5
        summary = weight_summary(net)
        assert len(summary) == 5
        for name, mean, std in summary:
            assert mean == pytest.approx(0.5) and std == 0.0
        assert [s[0] for s in summary] == ["jsd", "concurrence", "fidelity", "qs", "chi"]

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
        assert back.layer_sizes == net.layer_sizes
        assert back.activations == net.activations
        assert back.seed == net.seed
        for w1, w2 in zip(net.weights, back.weights):
            np.testing.assert_array_equal(w1, w2)
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert forward(back, x) == forward(net, x)
        assert mlp_to_json(back) == text

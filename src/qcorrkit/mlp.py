"""Small dense feed-forward network with explicit weights and scaling.

The architecture used throughout is 5-40-24-16-1 with a log-sigmoid
first hidden layer, a tangent-sigmoid second, and linear third hidden
and output layers.  Inputs are min-max scaled to [-1, 1] with anchors
stored on the model; the target is left unscaled.  Weights live in
plain arrays so the trainer can flatten and restore them freely, and
the whole model round-trips through a self-describing JSON document.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

DEFAULT_LAYER_SIZES = (5, 40, 24, 16, 1)
DEFAULT_ACTIVATIONS = ("logsig", "tansig", "linear", "linear")

FEATURE_NAMES = ("jsd", "concurrence", "fidelity", "qs", "chi")


def _logsig(z):
    return expit(z)


def _tansig(z):
    return np.tanh(z)


def _linear(z):
    return z


_ACTIVATIONS = {"logsig": _logsig, "tansig": _tansig, "linear": _linear}


def _activation_derivative(name: str, out: np.ndarray) -> np.ndarray:
    """Derivative expressed through the activation output."""
    if name == "logsig":
        return out * (1.0 - out)
    if name == "tansig":
        return 1.0 - out**2
    return np.ones_like(out)


def _check_architecture(layer_sizes, activations) -> None:
    if len(activations) != len(layer_sizes) - 1:
        raise ValueError("need one activation per weight layer")
    unknown = set(activations) - set(_ACTIVATIONS)
    if unknown:
        raise ValueError(f"unknown activations {sorted(unknown)}")


@dataclass
class Mlp:
    layer_sizes: tuple[int, ...]
    activations: tuple[str, ...]
    weights: list[np.ndarray]        # per layer, shape (n_out, n_in)
    biases: list[np.ndarray]         # per layer, shape (n_out,)
    input_min: np.ndarray            # per feature scaling anchors
    input_max: np.ndarray
    seed: int
    train_report: dict = field(default_factory=dict)

    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


def init_mlp(
    layer_sizes: tuple[int, ...] = DEFAULT_LAYER_SIZES,
    activations: tuple[str, ...] = DEFAULT_ACTIVATIONS,
    seed: int = 0,
) -> Mlp:
    """Fresh network with weights and biases uniform in [-0.5, 0.5].

    The initial scaling anchors are (-1, 1) per feature, which makes the
    scaler the identity until a trainer fits real anchors.
    """
    _check_architecture(layer_sizes, activations)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.uniform(-0.5, 0.5, size=(n_out, n_in)))
        biases.append(rng.uniform(-0.5, 0.5, size=n_out))
    n_feat = layer_sizes[0]
    return Mlp(
        layer_sizes=tuple(layer_sizes),
        activations=tuple(activations),
        weights=weights,
        biases=biases,
        input_min=-np.ones(n_feat),
        input_max=np.ones(n_feat),
        seed=int(seed),
    )


def scale_inputs(net: Mlp, features: np.ndarray) -> np.ndarray:
    """Affine map sending the stored min/max anchors to -1/1 exactly."""
    span = net.input_max - net.input_min
    return 2.0 * (features - net.input_min) / span - 1.0


def set_input_scaling(net: Mlp, features: np.ndarray) -> None:
    """Fit per-feature anchors on the given rows (training split only).

    A feature with zero spread gets a unit-width window around its value
    so the scaler stays finite (the feature then maps to 0).
    """
    lo = features.min(axis=0).astype(float)
    hi = features.max(axis=0).astype(float)
    flat = hi - lo < 1e-15
    lo[flat] -= 0.5
    hi[flat] += 0.5
    net.input_min = lo
    net.input_max = hi


def forward_scaled(net: Mlp, scaled: np.ndarray) -> np.ndarray:
    """Propagate already-scaled rows; returns shape (n,) outputs."""
    a = np.atleast_2d(scaled)
    for w, b, act in zip(net.weights, net.biases, net.activations):
        a = _ACTIVATIONS[act](a @ w.T + b)
    return a[:, 0]


def forward(net: Mlp, features: np.ndarray) -> float | np.ndarray:
    """Scale one feature vector (or a stack of rows) and propagate it."""
    features = np.asarray(features, dtype=float)
    single = features.ndim == 1
    out = forward_scaled(net, scale_inputs(net, np.atleast_2d(features)))
    return float(out[0]) if single else out


def get_params(net: Mlp) -> np.ndarray:
    """Flatten all weights and biases, layer by layer (weights row-major)."""
    return np.concatenate(
        [np.concatenate([w.ravel(), b]) for w, b in zip(net.weights, net.biases)]
    )


def set_params(net: Mlp, vec: np.ndarray) -> None:
    pos = 0
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        net.weights[i] = vec[pos : pos + w.size].reshape(w.shape).copy()
        pos += w.size
        net.biases[i] = vec[pos : pos + b.size].copy()
        pos += b.size
    if pos != vec.size:
        raise ValueError(f"parameter vector size {vec.size}, expected {pos}")


def backprop_factors(
    net: Mlp, scaled: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """One forward and one backward pass, kept in per-layer factors.

    Returns (predictions, inputs, deltas): for weight layer l, inputs[l]
    is its input activation A_l, shape (n, n_in), and deltas[l] is
    Δ_l = d output / d (layer-l preactivation), shape (n, n_out).  Row i
    of the Jacobian is, layer by layer, the outer product Δ_l[i] A_l[i]
    (weights, row-major) followed by Δ_l[i] (biases), so
    :func:`factor_gram` and :func:`factor_jt_vector` need no Jacobian.
    """
    a = np.atleast_2d(scaled)
    inputs = []
    for w, b, act in zip(net.weights, net.biases, net.activations):
        inputs.append(a)
        a = _ACTIVATIONS[act](a @ w.T + b)

    deltas = []
    delta = _activation_derivative(net.activations[-1], a)
    for layer in range(len(net.weights) - 1, -1, -1):
        deltas.append(delta)
        if layer > 0:
            delta = (delta @ net.weights[layer]) * _activation_derivative(
                net.activations[layer - 1], inputs[layer]
            )
    deltas.reverse()
    return a[:, 0], inputs, deltas


def factor_gram(inputs: list[np.ndarray], deltas: list[np.ndarray]) -> np.ndarray:
    """J Jᵀ from the factors: Σ_l (Δ_l Δ_lᵀ) ∘ (A_l A_lᵀ + 1), shape (n, n)."""
    return sum((d @ d.T) * (a @ a.T + 1.0) for a, d in zip(inputs, deltas))


def factor_jt_vector(
    inputs: list[np.ndarray], deltas: list[np.ndarray], v: np.ndarray
) -> np.ndarray:
    """Jᵀ v from the factors, in :func:`get_params` order."""
    parts = []
    for a, d in zip(inputs, deltas):
        parts.append(((d * v[:, None]).T @ a).ravel())
        parts.append(v @ d)
    return np.concatenate(parts)


def network_jacobian(net: Mlp, scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample derivatives of the output w.r.t. every parameter.

    Reverse-mode accumulation over the batch.  Returns (predictions,
    jacobian) with shapes (n,) and (n, n_params); the column order
    matches :func:`get_params`.  Training never builds this matrix (it
    works from :func:`backprop_factors`); it is kept as the independent
    oracle the factor route is tested against.
    """
    a = np.atleast_2d(scaled)
    outputs = [a]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        a = _ACTIVATIONS[act](a @ w.T + b)
        outputs.append(a)
    n = a.shape[0]

    blocks: list[np.ndarray | None] = [None] * len(net.weights)
    # d output / d (output-layer preactivation); ones for a linear head
    delta = _activation_derivative(net.activations[-1], outputs[-1])
    for layer in range(len(net.weights) - 1, -1, -1):
        prev = outputs[layer]
        jw = (delta[:, :, None] * prev[:, None, :]).reshape(n, -1)
        blocks[layer] = np.concatenate([jw, delta], axis=1)
        if layer > 0:
            delta = (delta @ net.weights[layer]) * _activation_derivative(
                net.activations[layer - 1], outputs[layer]
            )
    return outputs[-1][:, 0], np.concatenate(blocks, axis=1)


def weight_summary(net: Mlp) -> list[tuple[str, float, float]]:
    """Mean and standard deviation of first-layer weights per input.

    One row per input feature, aggregated over the first hidden layer's
    neurons.  It reads no deeper layer, so it is not an attribution.
    """
    w = net.weights[0]
    names = FEATURE_NAMES if w.shape[1] == len(FEATURE_NAMES) else tuple(
        f"input{i}" for i in range(w.shape[1])
    )
    return [
        (names[i], float(w[:, i].mean()), float(w[:, i].std()))
        for i in range(w.shape[1])
    ]


def weight_summary_csv(net: Mlp) -> str:
    """:func:`weight_summary` as CSV text with the header ``input,mean,std``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["input", "mean", "std"])
    for name, mean, std in weight_summary(net):
        writer.writerow([name, repr(mean), repr(std)])
    return buf.getvalue()


def mlp_to_json(net: Mlp) -> str:
    doc = {
        "layer_sizes": list(net.layer_sizes),
        "activations": list(net.activations),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "input_scaling": {
            "min": net.input_min.tolist(),
            "max": net.input_max.tolist(),
        },
        "seed": net.seed,
        "train_report": net.train_report,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def mlp_from_json(text: str) -> Mlp:
    """Rebuild a model from :func:`mlp_to_json` output.

    Raises ``ValueError`` unless the document has every required key, one
    known activation per layer, weights and biases whose shapes chain
    ``layer_sizes``, and one scaling anchor pair per input.
    """
    doc = json.loads(text)
    try:
        net = Mlp(
            layer_sizes=tuple(int(n) for n in doc["layer_sizes"]),
            activations=tuple(doc["activations"]),
            weights=[np.array(w, dtype=float) for w in doc["weights"]],
            biases=[np.array(b, dtype=float) for b in doc["biases"]],
            input_min=np.array(doc["input_scaling"]["min"], dtype=float),
            input_max=np.array(doc["input_scaling"]["max"], dtype=float),
            seed=int(doc["seed"]),
            train_report=doc.get("train_report", {}),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model document: missing or mistyped {exc}") from exc
    _check_architecture(net.layer_sizes, net.activations)
    sizes = net.layer_sizes
    weight_shapes = list(zip(sizes[1:], sizes[:-1]))
    bias_shapes = [(n,) for n in sizes[1:]]
    if [w.shape for w in net.weights] != weight_shapes or [b.shape for b in net.biases] != bias_shapes:
        raise ValueError(f"weight and bias shapes do not chain layer_sizes {list(sizes)}")
    if net.input_min.shape != (sizes[0],) or net.input_max.shape != (sizes[0],):
        raise ValueError(f"input scaling needs {sizes[0]} anchors per side")
    return net


def save_mlp(net: Mlp, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mlp_to_json(net))
        fh.write("\n")


def load_mlp(path) -> Mlp:
    with open(path, encoding="utf-8") as fh:
        return mlp_from_json(fh.read())

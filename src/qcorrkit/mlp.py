"""Small dense feed-forward network with explicit weights and scaling.

The architecture used throughout is 5-40-24-16-1 with a log-sigmoid
first hidden layer, a tangent-sigmoid second, and linear third hidden
and output layers.  Inputs are min-max scaled to [-1, 1] with anchors
stored on the model; the target is left unscaled.  Every weight and
bias lives in one flat vector, ``Mlp.params``, which the LM trainer
updates as a whole; the per-layer ``weights`` and ``biases`` are views
into it.  The whole model round-trips through a self-describing JSON
document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .measures import CorrelationVector

DEFAULT_LAYER_SIZES = (5, 40, 24, 16, 1)
DEFAULT_ACTIVATIONS = ("logsig", "tansig", "linear", "linear")

# each measure field holding its own name, so a renamed field fails here at import
_NAMES = CorrelationVector(*CorrelationVector._fields)

#: the predictor's inputs, in column order, and its target; also the
#: dataset CSV's measure columns
FEATURE_NAMES = (_NAMES.jsd, _NAMES.concurrence, _NAMES.fidelity, _NAMES.qs, _NAMES.chi)
TARGET_NAME = _NAMES.tdd


def _logsig(z: np.ndarray) -> np.ndarray:
    # exp overflows to inf for z below about -709, and 1 / inf is the
    # sigmoid's limit 0; numpy's exp is not libm's, so this is within
    # 4 ulp of scipy's expit, not equal to it (docs/decisions.md section 5)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


#: name -> (activation, its derivative expressed through the activation output)
_ACTIVATIONS = {
    "logsig": (_logsig, lambda a: a * (1.0 - a)),
    "tansig": (np.tanh, lambda a: 1.0 - a**2),
    "linear": (lambda z: z, np.ones_like),
}


def _check_architecture(layer_sizes, activations) -> None:
    if len(layer_sizes) < 2:
        raise ValueError("need at least one weight layer")
    if len(activations) != len(layer_sizes) - 1:
        raise ValueError("need one activation per weight layer")
    if layer_sizes[-1] != 1:
        raise ValueError(f"the network predicts one value, got {layer_sizes[-1]} outputs")
    unknown = set(activations) - set(_ACTIVATIONS)
    if unknown:
        raise ValueError(f"unknown activations {sorted(unknown)}")


@dataclass
class Mlp:
    layer_sizes: tuple[int, ...]
    activations: tuple[str, ...]
    params: np.ndarray               # every parameter: per layer, W row-major, then b
    input_min: np.ndarray            # per feature scaling anchors
    input_max: np.ndarray
    seed: int
    train_report: dict = field(default_factory=dict)
    weights: list[np.ndarray] = field(init=False, repr=False)  # views, shape (n_out, n_in)
    biases: list[np.ndarray] = field(init=False, repr=False)   # views, shape (n_out,)

    def __post_init__(self):
        self.weights, self.biases, pos = [], [], 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            self.weights.append(self.params[pos : pos + n_out * n_in].reshape(n_out, n_in))
            pos += n_out * n_in
            self.biases.append(self.params[pos : pos + n_out])
            pos += n_out
        if pos != self.params.size:
            raise ValueError(f"parameter vector size {self.params.size}, expected {pos}")


def init_mlp(
    layer_sizes: tuple[int, ...] = DEFAULT_LAYER_SIZES,
    activations: tuple[str, ...] = DEFAULT_ACTIVATIONS,
    seed: int = 0,
) -> Mlp:
    """Fresh network with weights and biases uniform in [-0.5, 0.5].

    The parameters are one draw in storage order, which is the stream of
    the per-layer draws, weights then biases, one layer after the other.
    The initial scaling anchors are (-1, 1) per feature, which makes the
    scaler the identity until a trainer fits real anchors.
    """
    _check_architecture(layer_sizes, activations)
    size = sum(n_out * (n_in + 1) for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]))
    n_feat = layer_sizes[0]
    return Mlp(
        layer_sizes=tuple(layer_sizes),
        activations=tuple(activations),
        params=np.random.default_rng(seed).uniform(-0.5, 0.5, size=size),
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


def layer_outputs(net: Mlp, scaled: np.ndarray) -> list[np.ndarray]:
    """The forward pass, keeping every layer's output.

    Returns [A_0, A_1, ..., A_L]: A_0 is the scaled rows, shape
    (n, n_in), and A_l for l > 0 the output of weight layer l - 1, so
    A_l is also the input of weight layer l.  This is the one layer loop;
    :func:`forward_scaled` and the trainer both run it.
    """
    outputs = [np.atleast_2d(scaled)]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        outputs.append(_ACTIVATIONS[act][0](outputs[-1] @ w.T + b))
    return outputs


def forward_scaled(net: Mlp, scaled: np.ndarray) -> np.ndarray:
    """Propagate already-scaled rows; returns shape (n,) outputs."""
    return layer_outputs(net, scaled)[-1][:, 0]


def forward(net: Mlp, features: np.ndarray) -> float | np.ndarray:
    """Scale one feature vector (or a stack of rows) and propagate it."""
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != net.layer_sizes[0]:
        raise ValueError(
            f"the model takes {net.layer_sizes[0]} features per row, got {features.shape[-1]}"
        )
    single = features.ndim == 1
    out = forward_scaled(net, scale_inputs(net, np.atleast_2d(features)))
    return float(out[0]) if single else out


def layer_deltas(net: Mlp, outputs: list[np.ndarray]) -> list[np.ndarray]:
    """The backward half of backpropagation, from :func:`layer_outputs`.

    Returns, per weight layer l, Δ_l = d output / d (layer-l
    preactivation), shape (n, n_out).  With A_l = outputs[l] the layer's
    input, row i of the Jacobian is, layer by layer, the outer product
    Δ_l[i] A_l[i] (weights, row-major) followed by Δ_l[i] (biases), so
    :func:`factor_gram` and :func:`factor_jt_vector` need no Jacobian.
    """
    derivative = [_ACTIVATIONS[act][1] for act in net.activations]
    deltas = [derivative[-1](outputs[-1])]
    for layer in range(len(net.weights) - 1, 0, -1):
        deltas.append((deltas[-1] @ net.weights[layer]) * derivative[layer - 1](outputs[layer]))
    deltas.reverse()
    return deltas


def factor_gram(inputs: list[np.ndarray], deltas: list[np.ndarray]) -> np.ndarray:
    """J Jᵀ from the factors: Σ_l (Δ_l Δ_lᵀ) ∘ (A_l A_lᵀ + 1), shape (n, n).

    Each term is built in place and summed into the first layer's term;
    the bytes equal those of the plain ``sum`` over the layers.
    """
    gram = None
    for a, d in zip(inputs, deltas):
        g = a @ a.T
        g += 1.0
        g *= d @ d.T
        if gram is None:
            gram = g
        else:
            gram += g
    return gram


def factor_jt_vector(
    inputs: list[np.ndarray], deltas: list[np.ndarray], v: np.ndarray
) -> np.ndarray:
    """Jᵀ v from the factors, in ``Mlp.params`` order."""
    parts = []
    for a, d in zip(inputs, deltas):
        parts.append(((d * v[:, None]).T @ a).ravel())
        parts.append(v @ d)
    return np.concatenate(parts)


def network_jacobian(net: Mlp, scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample derivatives of the output w.r.t. every parameter.

    Reverse-mode accumulation over the batch.  Returns (predictions,
    jacobian) with shapes (n,) and (n, params.size); the column order
    matches ``Mlp.params``.  It reads the per-layer views.  Training
    never builds this matrix (it works from :func:`layer_deltas`); it is
    kept as the independent oracle the factor route is tested against.
    """
    a = np.atleast_2d(scaled)
    outputs = [a]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        a = _ACTIVATIONS[act][0](a @ w.T + b)
        outputs.append(a)
    n = a.shape[0]
    derivative = [_ACTIVATIONS[act][1] for act in net.activations]

    blocks: list[np.ndarray | None] = [None] * len(net.weights)
    # d output / d (output-layer preactivation); ones for a linear head
    delta = derivative[-1](outputs[-1])
    for layer in range(len(net.weights) - 1, -1, -1):
        prev = outputs[layer]
        jw = (delta[:, :, None] * prev[:, None, :]).reshape(n, -1)
        blocks[layer] = np.concatenate([jw, delta], axis=1)
        if layer > 0:
            delta = (delta @ net.weights[layer]) * derivative[layer - 1](outputs[layer])
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

    Raises ``ValueError`` unless the document has every required key,
    integer layer sizes, one known activation per layer, weights and
    biases whose shapes chain ``layer_sizes``, one scaling anchor pair
    per input with max above min, finite numbers throughout, and, if
    present, a ``train_report`` object.
    """
    doc = json.loads(text)
    try:
        sizes = tuple(doc["layer_sizes"])
        activations = tuple(doc["activations"])
        weights = [np.array(w, dtype=float) for w in doc["weights"]]
        biases = [np.array(b, dtype=float) for b in doc["biases"]]
        input_min = np.array(doc["input_scaling"]["min"], dtype=float)
        input_max = np.array(doc["input_scaling"]["max"], dtype=float)
        seed = int(doc["seed"])
        train_report = doc.get("train_report", {})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model document: missing or mistyped {exc}") from exc
    # bool is an int subclass, and JSON's true is no layer width
    if not all(type(n) is int for n in sizes):
        raise ValueError(f"layer_sizes must be integers, got {list(sizes)}")
    if not isinstance(train_report, dict):
        raise ValueError(f"train_report must be an object, got {train_report!r}")
    _check_architecture(sizes, activations)
    # shapes are checked per layer before flattening: a transposed layer
    # has the right element count and would load as a scrambled one
    weight_shapes = list(zip(sizes[1:], sizes[:-1]))
    bias_shapes = [(n,) for n in sizes[1:]]
    if [w.shape for w in weights] != weight_shapes or [b.shape for b in biases] != bias_shapes:
        raise ValueError(f"weight and bias shapes do not chain layer_sizes {list(sizes)}")
    if input_min.shape != (sizes[0],) or input_max.shape != (sizes[0],):
        raise ValueError(f"input scaling needs {sizes[0]} anchors per side")
    if not all(np.isfinite(a).all() for a in (*weights, *biases, input_min, input_max)):
        raise ValueError("model weights, biases and scaling anchors must be finite")
    if not (input_max > input_min).all():
        raise ValueError("each input scaling anchor pair needs max above min")
    return Mlp(
        layer_sizes=sizes,
        activations=activations,
        params=np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(weights, biases)]),
        input_min=input_min,
        input_max=input_max,
        seed=seed,
        train_report=train_report,
    )


def save_mlp(net: Mlp, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mlp_to_json(net))
        fh.write("\n")


def load_mlp(path) -> Mlp:
    with open(path, encoding="utf-8") as fh:
        return mlp_from_json(fh.read())

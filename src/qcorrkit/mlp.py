"""The paper's network, with explicit weights and scaling.

The one architecture is ``LAYER_SIZES`` = 5-40-24-16-1 with a log-sigmoid
first hidden layer, a tangent-sigmoid second, and linear third hidden
and output layers (``ACTIVATIONS``); every function reads the two
constants when it runs.  Inputs are min-max scaled to [-1, 1] with
anchors stored on the model; the target is left unscaled.  Every weight
and bias lives in one flat vector, ``Mlp.params``, which the LM trainer
updates as a whole; the per-layer ``weights`` and ``biases`` are views
into it, also in a model that was pickled.  The whole model round-trips
through a self-describing JSON document, whose reader takes no other
network.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .measures import CorrelationVector

# each measure field holding its own name, so a renamed field fails here at import
_NAMES = CorrelationVector(*CorrelationVector._fields)

#: the predictor's inputs, in column order, and its target; also the
#: dataset CSV's measure columns
FEATURE_NAMES = (_NAMES.jsd, _NAMES.concurrence, _NAMES.fidelity, _NAMES.qs, _NAMES.chi)
TARGET_NAME = _NAMES.tdd

#: the network: one input per feature, three hidden layers, one output
LAYER_SIZES = (len(FEATURE_NAMES), 40, 24, 16, 1)
#: the activation of each weight layer, first hidden layer first
ACTIVATIONS = ("logsig", "tansig", "linear", "linear")


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


def _layer_shapes() -> list[tuple[int, int]]:
    """(n_out, n_in) of each weight layer, in order."""
    return list(zip(LAYER_SIZES[1:], LAYER_SIZES[:-1]))


@dataclass
class Mlp:
    params: np.ndarray               # every parameter: per layer, W row-major, then b
    input_min: np.ndarray            # per feature scaling anchors
    input_max: np.ndarray
    seed: int
    train_report: dict = field(default_factory=dict)
    weights: list[np.ndarray] = field(init=False, repr=False)  # views, shape (n_out, n_in)
    biases: list[np.ndarray] = field(init=False, repr=False)   # views, shape (n_out,)

    def __post_init__(self):
        self.weights, self.biases, pos = [], [], 0
        for n_out, n_in in _layer_shapes():
            self.weights.append(self.params[pos : pos + n_out * n_in].reshape(n_out, n_in))
            pos += n_out * n_in
            self.biases.append(self.params[pos : pos + n_out])
            pos += n_out
        if pos != self.params.size:
            raise ValueError(f"parameter vector size {self.params.size}, expected {pos}")

    def __reduce__(self):
        # unpickling field by field would leave weights and biases as copies;
        # the constructor makes them views into params again
        return Mlp, (self.params, self.input_min, self.input_max, self.seed, self.train_report)


def init_mlp(seed: int) -> Mlp:
    """Fresh network with weights and biases uniform in [-0.5, 0.5].

    The parameters are one draw in storage order, which is the stream of
    the per-layer draws, weights then biases, one layer after the other.
    The initial scaling anchors are (-1, 1) per feature, which makes the
    scaler the identity until a trainer fits real anchors.
    """
    size = sum(n_out * (n_in + 1) for n_out, n_in in _layer_shapes())
    n_feat = LAYER_SIZES[0]
    return Mlp(
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
    for w, b, act in zip(net.weights, net.biases, ACTIVATIONS):
        outputs.append(_ACTIVATIONS[act][0](outputs[-1] @ w.T + b))
    return outputs


def forward_scaled(net: Mlp, scaled: np.ndarray) -> np.ndarray:
    """Propagate already-scaled rows; returns shape (n,) outputs."""
    return layer_outputs(net, scaled)[-1][:, 0]


def forward(net: Mlp, features: np.ndarray) -> float | np.ndarray:
    """Scale one feature vector (or a stack of rows) and propagate it."""
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != LAYER_SIZES[0]:
        raise ValueError(
            f"the model takes {LAYER_SIZES[0]} features per row, got {features.shape[-1]}"
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
    derivative = [_ACTIVATIONS[act][1] for act in ACTIVATIONS]
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
    for w, b, act in zip(net.weights, net.biases, ACTIVATIONS):
        a = _ACTIVATIONS[act][0](a @ w.T + b)
        outputs.append(a)
    n = a.shape[0]
    derivative = [_ACTIVATIONS[act][1] for act in ACTIVATIONS]

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
    return [
        (name, float(column.mean()), float(column.std()))
        for name, column in zip(FEATURE_NAMES, net.weights[0].T, strict=True)
    ]


def mlp_to_json(net: Mlp) -> str:
    doc = {
        "layer_sizes": list(LAYER_SIZES),
        "activations": list(ACTIVATIONS),
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


def _numbers(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``value`` as a float array, if it is finite JSON numbers nested to ``shape``.

    numpy's own conversion would also take a string that spells a number,
    and JSON's true as 1.
    """
    array = np.array(value, dtype=object)
    if array.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {array.shape}")
    try:
        finite = all(type(x) in (int, float) and math.isfinite(x) for x in array.flat)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{what} must be finite numbers")
    return array.astype(float)


def mlp_from_json(text: str) -> Mlp:
    """Rebuild a model from :func:`mlp_to_json` output.

    Raises ``ValueError`` unless the document has every required key,
    describes the network of ``LAYER_SIZES`` (as JSON integers) and
    ``ACTIVATIONS``, holds each layer's weights and biases and one scaling
    anchor pair per input as finite JSON numbers in their shapes, with
    max above min, has an integer seed and, if present, a
    ``train_report`` object.
    """
    doc = json.loads(text)
    try:
        sizes, activations = doc["layer_sizes"], doc["activations"]
        weights, biases = list(doc["weights"]), list(doc["biases"])
        input_min, input_max = doc["input_scaling"]["min"], doc["input_scaling"]["max"]
        seed = doc["seed"]
        train_report = doc.get("train_report", {})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model document: missing or mistyped {exc}") from exc
    # bool is an int subclass, and JSON's true is no layer width
    if not isinstance(sizes, list) or not all(type(n) is int for n in sizes):
        raise ValueError(f"layer_sizes must be integers, got {sizes!r}")
    if sizes != list(LAYER_SIZES) or activations != list(ACTIVATIONS):
        raise ValueError(
            f"the model must be the {'-'.join(map(str, LAYER_SIZES))} network with activations "
            f"{list(ACTIVATIONS)}, got layer_sizes {sizes} and activations {activations!r}"
        )
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not isinstance(train_report, dict):
        raise ValueError(f"train_report must be an object, got {train_report!r}")
    shapes = _layer_shapes()
    if len(weights) != len(shapes) or len(biases) != len(shapes):
        raise ValueError(f"the model needs {len(shapes)} weight and bias layers")
    # shapes are checked per layer before flattening: a transposed layer
    # has the right element count and would load as a scrambled one
    layers = []
    for i, (w, b, shape) in enumerate(zip(weights, biases, shapes)):
        layers += [_numbers(w, shape, f"weights[{i}]"), _numbers(b, shape[:1], f"biases[{i}]")]
    input_min = _numbers(input_min, LAYER_SIZES[:1], "input_scaling min")
    input_max = _numbers(input_max, LAYER_SIZES[:1], "input_scaling max")
    if not (input_max > input_min).all():
        raise ValueError("each input scaling anchor pair needs max above min")
    return Mlp(
        params=np.concatenate([a.ravel() for a in layers]),
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

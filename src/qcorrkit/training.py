"""Damped Gauss-Newton (Levenberg-Marquardt) training with restarts.

Each epoch runs one forward and one backward pass over the training
rows and keeps, per weight layer l, its input activations A_l and output
deltas Δ_l.  The Jacobian J of the outputs is never built: the n×n
matrix JJᵀ = Σ_l (Δ_lΔ_lᵀ)∘(A_lA_lᵀ + 1) gives the damped system
(JJᵀ + μI)·v = e, and Jᵀv (the gradient, and the step) is taken layer by
layer from the same factors (``docs/decisions.md`` section 3).  A step
is accepted only if the training MSE drops; rejected steps raise the
damping and retry with the same factors.  Validation MSE is watched for
early stopping.  A restart search trains several independently seeded
networks and keeps the one with the lowest test MSE.  Every run is
deterministic in its seed: the network seed drives both the weight draw
and the train/val/test shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .dataset import Dataset
from .exceptions import TrainingFailure
from .mlp import (
    Mlp,
    backprop_factors,
    factor_gram,
    factor_jt_vector,
    forward_scaled,
    get_params,
    init_mlp,
    scale_inputs,
    set_input_scaling,
    set_params,
)


_MU0 = 1e-3
_MU_FACTOR = 10.0
_MU_MAX = 1e10
_MU_MIN = 1e-20  # keeps the damped system solvable after long streaks
_MAX_VAL_FAILS = 6
_SPLIT = (0.70, 0.15, 0.15)  # train, validation, test fractions


@dataclass
class TrainConfig:
    max_epochs: int = 1000
    grad_tol: float = 1e-7

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs={self.max_epochs}: need at least 1 epoch")


@dataclass
class TrainReport:
    mse_train: float
    mse_val: float
    mse_test: float
    epochs: int
    mu_final: float
    stop_reason: str
    restarts_run: int = 1
    best_restart: int = 0
    mse_history: list[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded shuffle split into train/validation/test index arrays."""
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(round(_SPLIT[0] * n))
    n_val = int(round(_SPLIT[1] * n))
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def _mse(net: Mlp, scaled: np.ndarray, targets: np.ndarray) -> float:
    err = targets - forward_scaled(net, scaled)
    return float(np.mean(err**2))


def lm_train(net: Mlp, data: Dataset, config: TrainConfig | None = None) -> TrainReport:
    """Train ``net`` in place on ``data``; returns the final report.

    The split and the input-scaling anchors are derived from the
    training portion of a shuffle seeded by ``net.seed``.  Stopping:
    damping above ``_MU_MAX``, epoch limit, gradient infinity norm below
    ``grad_tol``, or ``_MAX_VAL_FAILS`` consecutive epochs without a new
    best validation MSE (the best-validation weights are then restored).
    """
    cfg = config or TrainConfig()
    idx_train, idx_val, idx_test = split_indices(len(data), net.seed)
    if len(idx_train) == 0 or len(idx_val) == 0 or len(idx_test) == 0:
        raise ValueError("dataset too small for the requested split")

    set_input_scaling(net, data.features[idx_train])
    scaled = scale_inputs(net, data.features)
    x_train, y_train = scaled[idx_train], data.targets[idx_train]
    x_val, y_val = scaled[idx_val], data.targets[idx_val]

    n = len(x_train)
    mu = _MU0
    mse = _mse(net, x_train, y_train)
    if not np.isfinite(mse):
        raise TrainingFailure("initial training loss is not finite")
    history = [mse]

    best_val = _mse(net, x_val, y_val)
    best_val_params = get_params(net)
    val_fails = 0
    epochs = 0
    stop_reason = "epoch_limit"

    eye = np.eye(n)
    while epochs < cfg.max_epochs:
        pred, inputs, deltas = backprop_factors(net, x_train)
        err = y_train - pred
        grad = 2.0 / n * factor_jt_vector(inputs, deltas, err)
        if np.abs(grad).max() < cfg.grad_tol:
            stop_reason = "gradient"
            break

        theta = get_params(net)
        jjt = factor_gram(inputs, deltas)
        accepted = False
        while mu <= _MU_MAX:
            try:
                v = np.linalg.solve(jjt + mu * eye, err)
            except np.linalg.LinAlgError:
                mu *= _MU_FACTOR
                continue
            set_params(net, theta + factor_jt_vector(inputs, deltas, v))
            candidate = _mse(net, x_train, y_train)
            if np.isfinite(candidate) and candidate < mse:
                mse = candidate
                mu = max(mu / _MU_FACTOR, _MU_MIN)
                accepted = True
                break
            set_params(net, theta)
            mu *= _MU_FACTOR
        if not accepted:
            stop_reason = "mu_overflow"
            break

        epochs += 1
        history.append(mse)

        val_mse = _mse(net, x_val, y_val)
        if val_mse < best_val:
            best_val = val_mse
            best_val_params = get_params(net)
            val_fails = 0
        else:
            val_fails += 1
            if val_fails >= _MAX_VAL_FAILS:
                stop_reason = "validation"
                set_params(net, best_val_params)
                break

    return TrainReport(
        mse_train=_mse(net, x_train, y_train),
        mse_val=_mse(net, x_val, y_val),
        mse_test=_mse(net, scaled[idx_test], data.targets[idx_test]),
        epochs=epochs,
        mu_final=mu,
        stop_reason=stop_reason,
        mse_history=history,
    )


def restart_search(
    data: Dataset,
    restarts: int = 20,
    seed: int = 0,
    config: TrainConfig | None = None,
    layer_sizes=None,
    activations=None,
) -> tuple[Mlp, TrainReport]:
    """Train ``restarts`` independently seeded networks, keep the best.

    Restart k gets a deterministic child seed of ``seed``; the winner is
    the restart with the lowest test MSE (first on ties).  Runs whose
    loss turns non-finite are skipped; if every restart fails, a
    :class:`TrainingFailure` is raised.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    kwargs = {}
    if layer_sizes is not None:
        kwargs["layer_sizes"] = layer_sizes
    if activations is not None:
        kwargs["activations"] = activations
    child_seeds = [
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(restarts)
    ]
    best: tuple[Mlp, TrainReport] | None = None
    best_index = -1
    for k, child in enumerate(child_seeds):
        net = init_mlp(seed=child, **kwargs)
        try:
            report = lm_train(net, data, config)
        except TrainingFailure:
            continue
        if best is None or report.mse_test < best[1].mse_test:
            best = (net, report)
            best_index = k
    if best is None:
        raise TrainingFailure("all restarts produced non-finite losses")
    net, report = best
    report.restarts_run = restarts
    report.best_restart = best_index
    net.train_report = report.as_dict()
    return net, report

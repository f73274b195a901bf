"""Damped Gauss-Newton (Levenberg-Marquardt) training with restarts.

Each epoch runs one backward pass over the training rows, on the
forward pass that scored its weights when they were accepted, and keeps,
per weight layer l, its input activations A_l and output deltas Δ_l.
The Jacobian J of the outputs is never built: the n×n matrix
JJᵀ = Σ_l (Δ_lΔ_lᵀ)∘(A_lA_lᵀ + 1) gives the damped system
(JJᵀ + μI)·v = e, and Jᵀv (the gradient, and the step) is taken layer by
layer from the same factors (``docs/decisions.md`` section 3).  A step
is accepted only if the training MSE drops; rejected steps raise the
damping and retry with the same factors.  Validation MSE is watched for
early stopping.  A restart search trains several independently seeded
networks and keeps the one with the lowest test MSE.  The recipe is
fixed: only the epoch cap is a parameter, and the gradient stop is the
constant ``_GRAD_TOL``.  Every run is deterministic in its seed: the
network seed drives both the weight draw and the train/val/test
shuffle.  The search trains its restarts with BLAS on one thread, in
forked worker processes when cores are free (``docs/decisions.md``
section 6), so neither the caller's BLAS setting nor the worker count
moves a byte: a worker sends back its trained net and report whole.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, asdict, replace
from itertools import repeat

import numpy as np

from .dataset import Dataset
from .exceptions import TrainingFailure
from .mlp import (
    Mlp,
    factor_gram,
    factor_jt_vector,
    forward_scaled,
    init_mlp,
    layer_deltas,
    layer_outputs,
    scale_inputs,
    set_input_scaling,
)


_MU0 = 1e-3
_MU_FACTOR = 10.0
_MU_MAX = 1e10
_MU_MIN = 1e-20  # keeps the damped system solvable after long streaks
_MAX_VAL_FAILS = 6
_GRAD_TOL = 1e-7  # stop once the gradient's infinity norm drops below this
_SPLIT = (0.70, 0.15, 0.15)  # train, validation, test fractions


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


def mean_squared_error(pred: np.ndarray, targets: np.ndarray) -> float:
    """The mean of the squared errors, with the bits of ``np.mean((targets - pred)**2)``.

    An overflow gives an infinite loss, which the callers handle; they
    run it under ``np.errstate(over="ignore")`` so numpy prints nothing.
    """
    err = targets - pred
    return float(np.add.reduce(err * err)) / err.size


@np.errstate(over="ignore")
def lm_train(net: Mlp, data: Dataset, max_epochs: int = 1000) -> TrainReport:
    """Train ``net`` in place on ``data``; returns the final report.

    The split and the input-scaling anchors are derived from the
    training portion of a shuffle seeded by ``net.seed``.  Stopping:
    damping above ``_MU_MAX``, ``max_epochs`` accepted steps, gradient
    infinity norm below ``_GRAD_TOL``, or ``_MAX_VAL_FAILS`` consecutive
    epochs without a new best validation MSE (the best-validation
    weights are then restored).
    """
    if max_epochs < 1:
        raise ValueError(f"max_epochs={max_epochs}: need at least 1 epoch")
    idx_train, idx_val, idx_test = split_indices(len(data), net.seed)
    if len(idx_train) == 0 or len(idx_val) == 0 or len(idx_test) == 0:
        raise ValueError("dataset too small for the requested split")

    set_input_scaling(net, data.features[idx_train])
    scaled = scale_inputs(net, data.features)
    x_train, y_train = scaled[idx_train], data.targets[idx_train]
    x_val, y_val = scaled[idx_val], data.targets[idx_val]

    n = len(x_train)
    mu = _MU0
    # the weights are the flat vector theta, the params of the net `current`;
    # candidates are scored on `spare`, whose vector is overwritten by each
    # attempt, and the two swap on an accepted step; theta is written back
    # into net once, after the last epoch.  The best-validation weights are
    # a copy, so no attempt overwrites them
    theta, current = net.params, net
    spare = replace(net, params=np.empty_like(theta))
    outputs = layer_outputs(current, x_train)
    mse = mean_squared_error(outputs[-1][:, 0], y_train)
    if not np.isfinite(mse):
        raise TrainingFailure("initial training loss is not finite")
    history = [mse]

    best_val = mean_squared_error(forward_scaled(current, x_val), y_val)
    best_val_params = theta.copy()
    val_fails = 0
    epochs = 0
    stop_reason = "epoch_limit"

    while epochs < max_epochs:
        # the forward pass is the one that scored this theta
        inputs = outputs[:-1]
        deltas = layer_deltas(current, outputs)
        err = y_train - outputs[-1][:, 0]
        grad = 2.0 / n * factor_jt_vector(inputs, deltas, err)
        if np.abs(grad).max() < _GRAD_TOL:
            stop_reason = "gradient"
            break

        jjt = factor_gram(inputs, deltas)
        accepted = False
        while mu <= _MU_MAX:
            damped = jjt.copy()
            damped.flat[:: n + 1] += mu  # JJᵀ + μI
            try:
                v = np.linalg.solve(damped, err)
            except np.linalg.LinAlgError:
                mu *= _MU_FACTOR
                continue
            np.add(theta, factor_jt_vector(inputs, deltas, v), out=spare.params)
            trial_outputs = layer_outputs(spare, x_train)
            candidate = mean_squared_error(trial_outputs[-1][:, 0], y_train)
            if np.isfinite(candidate) and candidate < mse:
                current, spare = spare, current
                theta, outputs, mse = current.params, trial_outputs, candidate
                mu = max(mu / _MU_FACTOR, _MU_MIN)
                accepted = True
                break
            mu *= _MU_FACTOR
        if not accepted:
            stop_reason = "mu_overflow"
            break

        epochs += 1
        history.append(mse)

        val_mse = mean_squared_error(forward_scaled(current, x_val), y_val)
        if val_mse < best_val:
            best_val = val_mse
            best_val_params = theta.copy()
            val_fails = 0
        else:
            val_fails += 1
            if val_fails >= _MAX_VAL_FAILS:
                stop_reason = "validation"
                theta = best_val_params
                break

    net.params[:] = theta
    return TrainReport(
        mse_train=mean_squared_error(forward_scaled(net, x_train), y_train),
        mse_val=mean_squared_error(forward_scaled(net, x_val), y_val),
        mse_test=mean_squared_error(
            forward_scaled(net, scaled[idx_test]), data.targets[idx_test]
        ),
        epochs=epochs,
        mu_final=mu,
        stop_reason=stop_reason,
        mse_history=history,
    )


@functools.cache
def _openblas():
    """The OpenBLAS that numpy's wheel bundles, with its thread-count calls
    typed, or None where numpy has none (a numpy built on another BLAS)."""
    import ctypes
    import glob

    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_*"):
        lib = ctypes.CDLL(path)  # numpy loaded it, so this is the copy numpy calls
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return lib
    return None


def _train_restart(data: Dataset, seed: int, max_epochs: int):
    """Restart ``seed``: its trained net and report, None when its loss turns non-finite."""
    net = init_mlp(seed=seed)
    try:
        report = lm_train(net, data, max_epochs=max_epochs)
    except TrainingFailure:
        return None
    return net, report


def _train_restarts(data: Dataset, seeds: list[int], max_epochs: int) -> list:
    """:func:`_train_restart` of every seed, in seed order, on one BLAS thread.

    They train in ``w = min(restarts, usable cores)`` forked workers, which
    inherit the one thread, or here when ``w`` is 1 or there is no
    :func:`_openblas` (on the caller's BLAS).  Every worker has exited, and
    the caller's thread count is back, before this returns or raises.
    """
    args = (repeat(data), seeds, repeat(max_epochs))
    blas = _openblas()
    if blas is None:
        return list(map(_train_restart, *args))
    threads = blas.scipy_openblas_get_num_threads64_()
    blas.scipy_openblas_set_num_threads64_(1)
    try:
        # usable cores: the affinity mask exists on Linux, which can fork; elsewhere 1
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        workers = min(len(seeds), cores)
        if workers < 2:
            return list(map(_train_restart, *args))
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            return list(pool.map(_train_restart, *args))
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        blas.scipy_openblas_set_num_threads64_(threads)


def restart_search(
    data: Dataset,
    restarts: int = 20,
    seed: int = 0,
    max_epochs: int = 1000,
) -> tuple[Mlp, TrainReport]:
    """Train ``restarts`` independently seeded networks, keep the best.

    Each restart is an :func:`init_mlp` network trained by
    :func:`lm_train` with the same ``max_epochs``.  Restart k gets a
    deterministic child seed of ``seed``; the winner is the restart with
    the lowest test MSE (first on ties).  Runs whose loss turns
    non-finite are skipped; if every restart fails, a
    :class:`TrainingFailure` is raised.  Every restart trains with BLAS
    on one thread, the caller's count restored after, and the restarts
    train in parallel on the usable cores (:func:`_train_restarts`); the
    result depends neither on how many processes train them nor on the
    caller's BLAS thread count.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    child_seeds = [
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(restarts)
    ]
    best_index, best = -1, None
    for k, result in enumerate(_train_restarts(data, child_seeds, max_epochs)):
        # result: (net, report), None for a failed restart
        if result is not None and (best is None or result[1].mse_test < best[1].mse_test):
            best_index, best = k, result
    if best is None:
        raise TrainingFailure("all restarts produced non-finite losses")
    net, report = best
    report.restarts_run = restarts
    report.best_restart = best_index
    net.train_report = report.as_dict()
    return net, report

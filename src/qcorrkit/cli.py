"""Command-line front end.

Subcommands: ``sweep`` (parameter sweeps to CSV), ``optimize`` (single
reversal-strength query to JSON), ``verify`` (closed-form and invariant
suite), ``train`` (build or load a dataset, run the restart search,
write model and weight summary), ``predict`` (apply a saved model to a
dataset CSV), and ``weights`` (weight summary of a saved model).

Exit codes: 0 success, 1 usage error, 2 numerical-contract failure,
3 verification failure, 4 training failure (every restart's loss turned
non-finite).  All randomness is governed by ``--seed``;
identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .channels import ChannelParams, WmrMode
from .dataset import SCENARIOS, build_dataset, read_dataset_csv, write_dataset_csv
from .exceptions import NumericalContractError, TrainingFailure
from .mlp import TARGET_NAME, forward, load_mlp, save_mlp, weight_summary
from .optimize import optimal_qmr
from .states import FAMILY_DEFAULTS, StateFamily
from .sweep import AXES, SweepConfig, csv_text, run_sweep, sweep_csv_text
from .training import mean_squared_error, restart_search
from .verification import full_verification

class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract here says 1.
    A flag counts only in full: ``train --p`` is no prefix of ``--param``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        # newline="": the CSV texts end their lines in "\r\n" already
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _weight_summary_text(net) -> str:
    """:func:`weight_summary` as CSV text with the header ``input,mean,std``."""
    names, means, stds = zip(*weight_summary(net))
    return csv_text(("input", "mean", "std"), [(n,) for n in names], np.column_stack([means, stds]))


def _seed(text: str) -> int:
    """argparse type of ``--seed``: numpy's generators take no negative seed."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(FAMILY_DEFAULTS), default="bell")
    p.add_argument(
        "--param",
        type=float,
        default=None,
        help="family parameter (werner r_b, mems gamma, nme alpha^2); "
        "defaults to the Bell-equivalent value",
    )


def cmd_sweep(args) -> int:
    config = SweepConfig(
        family=StateFamily(args.family, args.param),
        eta=args.eta,
        mode=WmrMode(args.mode),
        var=args.var,
        points=args.points,
        p_fixed=args.p,
        q_fixed=args.q,
    )
    _write_text(args.output, sweep_csv_text(run_sweep(config)))
    return 0


def cmd_optimize(args) -> int:
    family = StateFamily(args.family, args.param)
    result = optimal_qmr(family, ChannelParams(args.p, args.eta), args.q, WmrMode(args.mode))
    record = {
        "family": args.family,
        "param": family.param,
        "p": args.p,
        "eta": args.eta,
        "q": args.q,
        "mode": args.mode,
        "r_star": result.r_star,
        "concurrence_at_star": result.concurrence_at_star,
        "success_probability": result.success_probability,
        "evaluations": result.evaluations,
    }
    _write_text(args.output, json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args) -> int:
    report = full_verification(grid_points=args.grid_points, seed=args.seed, samples=args.samples)
    print(report.summary())
    if report.passed:
        print("all checks passed")
        return 0
    print("verification FAILED", file=sys.stderr)
    return 3


def cmd_train(args) -> int:
    if args.data:
        data = read_dataset_csv(args.data)
    else:
        family = StateFamily(args.family, args.param)
        data = build_dataset(family, args.scenario, args.eta, points=args.rows)
    net, report = restart_search(
        data, restarts=args.restarts, seed=args.seed, max_epochs=args.max_epochs
    )
    # written after training, and removed again if a later one cannot be
    # written, so a run that fails leaves none of them
    written = []
    try:
        if args.dataset_out:
            write_dataset_csv(args.dataset_out, data)
            written.append(args.dataset_out)
        if args.model_out:
            save_mlp(net, args.model_out)
            written.append(args.model_out)
        if args.summary_out:
            _write_text(args.summary_out, _weight_summary_text(net))
    except OSError:
        for path in written:
            os.remove(path)
        raise
    summary = report.as_dict()
    del summary["mse_history"]
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    net = load_mlp(args.model)
    data = read_dataset_csv(args.data)
    predictions = forward(net, data.features)
    with np.errstate(over="ignore"):
        mse = mean_squared_error(predictions, data.targets)
    if not np.isfinite(mse):
        raise NumericalContractError(f"prediction MSE is not finite ({mse})")
    header = ("sweep_var", "sweep_value", TARGET_NAME, f"{TARGET_NAME}_predicted")
    rows = np.column_stack([data.sweep_values, data.targets, predictions])
    labels = [(SCENARIOS[data.scenario]["var"],)] * len(data)
    _write_text(args.output, csv_text(header, labels, rows))
    print(json.dumps({"rows": len(data), "mse": mse}, sort_keys=True))
    return 0


def cmd_weights(args) -> int:
    _write_text(args.output, _weight_summary_text(load_mlp(args.model)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Return a new parser holding every subcommand.

    :func:`main` builds one per process and reuses it.
    """
    parser = _Parser(prog="qcorrkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="sweep a parameter and emit all measures as CSV")
    _add_family_flags(p)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--mode", choices=[m.value for m in WmrMode], default="none")
    p.add_argument("--var", choices=AXES, default="p")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--p", type=float, default=0.5, help="fixed damping for q/alpha2 sweeps")
    p.add_argument("--q", type=float, default=0.5, help="fixed measurement strength")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="optimal reversal strength for one setting")
    _add_family_flags(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--mode", choices=["wm1", "wm2"], default="wm2")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="closed-form equivalence and invariant suite")
    p.add_argument("--grid-points", type=int, default=5)
    p.add_argument("--seed", type=_seed, default=2024)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train", help="train the discord predictor")
    _add_family_flags(p)
    p.add_argument("--scenario", choices=list(SCENARIOS), default="no_wmr")
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--rows", type=int, default=500)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--data", default=None, help="load this dataset CSV instead of generating")
    source.add_argument("--dataset-out", default=None, help="also write the generated dataset CSV")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=7)
    p.add_argument("--max-epochs", type=int, default=1000)
    p.add_argument("--model-out", default="model.json")
    p.add_argument("--summary-out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to a dataset CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("weights", help="first-layer weight summary of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_weights)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # parsing leaves a parser unchanged, so one per process serves every call
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Every call in a process parses with the same parser, built on the
    first call, so a call pays for its own command only.
    """
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse error paths
        return exc.code if isinstance(exc.code, int) else 1
    except NumericalContractError as exc:
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return 2
    except TrainingFailure as exc:
        print(f"error: training failed: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

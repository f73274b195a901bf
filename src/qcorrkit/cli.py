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
import csv
import io
import json
import sys

import numpy as np

from .channels import ChannelParams, WmrMode
from .dataset import build_dataset, read_dataset_csv, write_dataset_csv
from .exceptions import NumericalContractError, TrainingFailure
from .mlp import forward, load_mlp, save_mlp, weight_summary_csv
from .optimize import optimal_qmr
from .states import StateFamily
from .sweep import SweepConfig, run_sweep, sweep_csv_text
from .training import TrainConfig, restart_search
from .verification import full_verification

_FAMILY_DEFAULT_PARAM = {"bell": 1.0, "werner": 1.0, "mems": 1.0, "nme": 0.5}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract here says 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _family(args) -> StateFamily:
    param = args.param if args.param is not None else _FAMILY_DEFAULT_PARAM[args.family]
    return StateFamily(args.family, param)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(_FAMILY_DEFAULT_PARAM), default="bell")
    p.add_argument(
        "--param",
        type=float,
        default=None,
        help="family parameter (werner r_b, mems gamma, nme alpha^2); "
        "defaults to the Bell-equivalent value",
    )


def cmd_sweep(args) -> int:
    config = SweepConfig(
        family=_family(args),
        eta=args.eta,
        mode=WmrMode(args.mode),
        var=args.var,
        points=args.points,
        p_fixed=args.p,
        q_fixed=args.q,
        normalized=args.normalized,
    )
    _write_text(args.output, sweep_csv_text(run_sweep(config)))
    return 0


def cmd_optimize(args) -> int:
    result = optimal_qmr(
        _family(args), ChannelParams(args.p, args.eta), args.q, WmrMode(args.mode)
    )
    record = {
        "family": args.family,
        "param": _family(args).param,
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


def _parse_slices(text: str | None) -> dict[str, float] | None:
    if not text:
        return None
    slices = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("p", "q", "r", "eta") or not value:
            raise ValueError(f"bad slice component {part!r} (expected e.g. q=0,r=0)")
        slices[key] = float(value)
    return slices


def cmd_verify(args) -> int:
    report = full_verification(
        grid_points=args.grid_points,
        upper=args.upper,
        tol=args.tol,
        slices=_parse_slices(args.slice),
        seed=args.seed,
        samples=args.samples,
    )
    print(report.summary())
    if report.passed:
        print("all checks passed")
        return 0
    print("verification FAILED", file=sys.stderr)
    return 3


def cmd_train(args) -> int:
    config = TrainConfig(max_epochs=args.max_epochs)
    if args.data:
        data = read_dataset_csv(args.data)
    else:
        data = build_dataset(
            _family(args), args.scenario, args.eta, points=args.rows, p_fixed=args.p
        )
        if args.dataset_out:
            write_dataset_csv(args.dataset_out, data)
    net, report = restart_search(data, restarts=args.restarts, seed=args.seed, config=config)
    if args.model_out:
        save_mlp(net, args.model_out)
    if args.summary_out:
        _write_text(args.summary_out, weight_summary_csv(net))
    print(
        json.dumps(
            {
                "mse_train": report.mse_train,
                "mse_val": report.mse_val,
                "mse_test": report.mse_test,
                "epochs": report.epochs,
                "restarts_run": report.restarts_run,
                "best_restart": report.best_restart,
                "mu_final": report.mu_final,
                "stop_reason": report.stop_reason,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_predict(args) -> int:
    net = load_mlp(args.model)
    data = read_dataset_csv(args.data)
    predictions = forward(net, data.features)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["sweep_var", "sweep_value", "tdd", "tdd_predicted"])
    for i in range(len(data)):
        writer.writerow(
            [
                data.sweep_var,
                repr(float(data.sweep_values[i])),
                repr(float(data.targets[i])),
                repr(float(predictions[i])),
            ]
        )
    _write_text(args.output, buf.getvalue())
    mse = float(np.mean((predictions - data.targets) ** 2))
    print(json.dumps({"rows": len(data), "mse": mse}, sort_keys=True))
    return 0


def cmd_weights(args) -> int:
    _write_text(args.output, weight_summary_csv(load_mlp(args.model)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcorrkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="sweep a parameter and emit all measures as CSV")
    _add_family_flags(p)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--mode", choices=[m.value for m in WmrMode], default="none")
    p.add_argument("--var", choices=["p", "q", "alpha2"], default="p")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--p", type=float, default=0.5, help="fixed damping for q/alpha2 sweeps")
    p.add_argument("--q", type=float, default=0.5, help="fixed measurement strength")
    p.add_argument("--normalized", action=argparse.BooleanOptionalAction, default=True)
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
    p.add_argument("--upper", type=float, default=0.95)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--slice", default=None, help="pin grid axes, e.g. q=0,r=0")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train", help="train the discord predictor")
    _add_family_flags(p)
    p.add_argument("--scenario", choices=["no_wmr", "wmr2"], default="no_wmr")
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--rows", type=int, default=500)
    p.add_argument("--p", type=float, default=0.5, help="fixed damping for wmr2 datasets")
    p.add_argument("--data", default=None, help="load this dataset CSV instead of generating")
    p.add_argument("--dataset-out", default=None, help="also write the generated dataset CSV")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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

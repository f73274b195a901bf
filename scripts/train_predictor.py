#!/usr/bin/env python3
"""Train the discord predictor on the four Bell scenarios.

For each of no-protection (eta = 0, 1) and two-qubit protection
(eta = 0, 1) this runs ``qcorrkit train`` (a 500-row dataset and the
20-restart search) and then ``qcorrkit predict`` on that dataset.  Each
scenario ``<tag>`` writes ``<tag>_data.csv``, ``<tag>_model.json``,
``<tag>_weights.csv`` (first-layer weight summary) and
``<tag>_predictions.csv`` (``sweep_var,sweep_value,tdd,tdd_predicted``).
Each command prints its JSON: ``train`` the selected restart with its
train and test MSE, ``predict`` the MSE over all rows.  The script
stops at the first command that fails and exits with its code.
"""

import argparse
import pathlib
import sys

from qcorrkit import cli
from qcorrkit.dataset import SCENARIOS


def commands(out: pathlib.Path, rows: int, restarts: int, seed: int) -> list[list[str]]:
    """The ``qcorrkit`` argv lists of every scenario, in run order."""
    table = []
    for scenario in SCENARIOS:
        for eta in (0.0, 1.0):
            stem = out / f"{scenario}_eta{int(eta)}"
            model, data = f"{stem}_model.json", f"{stem}_data.csv"
            table.append([
                "train", "--family", "bell", "--scenario", scenario, "--eta", str(eta),
                "--rows", str(rows), "--restarts", str(restarts), "--seed", str(seed),
                "--model-out", model, "--summary-out", f"{stem}_weights.csv", "--dataset-out", data,
            ])
            table.append(["predict", "--model", model, "--data", data, "-o", f"{stem}_predictions.csv"])
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("predictor"))
    parser.add_argument("--rows", type=int, default=500)
    parser.add_argument("--restarts", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    for argv in commands(args.out, args.rows, args.restarts, args.seed):
        print(f"$ qcorrkit {' '.join(argv)}")
        code = cli.main(argv)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Train the discord predictor on the four Bell scenarios.

For each of no-protection (eta = 0, 1) and two-qubit protection
(eta = 0, 1) this builds a 500-row dataset, runs the 20-restart search,
and writes the dataset CSV, model JSON, first-layer weight summary, and
per-row predictions.  The summary table printed at the end lists the
selected restart and its train/test MSE per scenario.
"""

import argparse
import csv
import pathlib

import numpy as np

from qcorrkit.dataset import build_dataset, write_dataset_csv
from qcorrkit.mlp import forward, save_mlp, weight_summary_csv
from qcorrkit.states import StateFamily
from qcorrkit.training import restart_search

SCENARIOS = (("no_wmr", 0.0), ("no_wmr", 1.0), ("wmr2", 0.0), ("wmr2", 1.0))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("predictor"))
    parser.add_argument("--rows", type=int, default=500)
    parser.add_argument("--restarts", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    for scenario, eta in SCENARIOS:
        tag = f"{scenario}_eta{int(eta)}"
        data = build_dataset(StateFamily("bell"), scenario, eta, points=args.rows)
        write_dataset_csv(args.out / f"{tag}_data.csv", data)
        net, report = restart_search(data, restarts=args.restarts, seed=args.seed)
        save_mlp(net, args.out / f"{tag}_model.json")

        with open(args.out / f"{tag}_weights.csv", "w", newline="", encoding="utf-8") as fh:
            fh.write(weight_summary_csv(net))

        predictions = forward(net, data.features)
        with open(args.out / f"{tag}_predictions.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([data.sweep_var, "tdd", "tdd_predicted"])
            for value, target, pred in zip(data.sweep_values, data.targets, predictions):
                writer.writerow([repr(float(value)), repr(float(target)), repr(float(pred))])

        full_mse = float(np.mean((predictions - data.targets) ** 2))
        summary_rows.append((tag, report.best_restart, report.mse_train, report.mse_test, full_mse))
        print(f"{tag}: restart {report.best_restart}, test MSE {report.mse_test:.3e}")

    print("\nscenario, best_restart, mse_train, mse_test, mse_all_rows")
    for row in summary_rows:
        print(f"{row[0]}, {row[1]}, {row[2]:.3e}, {row[3]:.3e}, {row[4]:.3e}")


if __name__ == "__main__":
    main()

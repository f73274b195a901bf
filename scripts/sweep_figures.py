#!/usr/bin/env python3
"""Generate the full set of correlation-sweep tables.

For each initial state (Bell, Werner r_b=0.8, MEMS gamma=0.8) this writes
six CSVs: damping sweeps without protection (eta = 0 and 1) and
measurement-strength sweeps with one- and two-qubit protection at fixed
p = 0.5 (again eta = 0 and 1).  A final pair of tables scans the
initial-state parameter alpha^2 of the partially entangled pure family
under every protection mode.  Each table is one ``qcorrkit sweep``
command, printed before it runs; all outputs carry raw and normalized
columns and are deterministic.  The script stops at the first command
that fails and exits with its code.
"""

import argparse
import pathlib
import sys

from qcorrkit import cli

FAMILIES = (("bell", "bell", "1.0"), ("werner08", "werner", "0.8"), ("mems08", "mems", "0.8"))
MODES = ("wm1", "wm2")


def commands(out: pathlib.Path, points: int) -> list[list[str]]:
    """The ``qcorrkit sweep`` argv lists of every table, in run order."""
    table = []

    def sweep(path: str, family: str, param: str, eta: float, *flags: str) -> None:
        table.append([
            "sweep", "--family", family, "--param", param, "--eta", str(eta), *flags,
            "--points", str(points), "-o", str(out / path),
        ])

    for label, family, param in FAMILIES:
        for eta in (0.0, 1.0):
            tag = f"eta{int(eta)}"
            sweep(f"{label}_p_{tag}.csv", family, param, eta, "--mode", "none", "--var", "p")
            for mode in MODES:
                sweep(f"{label}_q_{mode}_{tag}.csv", family, param, eta, "--mode", mode, "--var", "q")

    for eta in (0.0, 1.0):
        tag = f"eta{int(eta)}"
        sweep(f"nme_alpha2_none_{tag}.csv", "nme", "0.5", eta, "--mode", "none", "--var", "alpha2")
        for mode in MODES:
            sweep(f"nme_alpha2_{mode}_{tag}.csv", "nme", "0.5", eta,
                  "--mode", mode, "--var", "alpha2", "--q", "0.5")
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("sweeps"))
    parser.add_argument("--points", type=int, default=201)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    for argv in commands(args.out, args.points):
        print(f"$ qcorrkit {' '.join(argv)}")
        code = cli.main(argv)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

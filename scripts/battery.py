#!/usr/bin/env python3
"""Write the byte battery: the digest of every file a fixed set of commands writes.

Each file is written by one ``qcorrkit`` command, run through ``cli.main``
in this process inside a temporary directory:

- sweeps of Bell, Werner 0.8 and 0.43, MEMS 0.8 and 0.6 and nme 0.3, at
  eta 0, 0.4 and 1, under every mode along p, under wm1 and wm2 along q,
  and for nme under every mode along alpha^2, 41 points each;
- ``optimize`` JSONs of every family under wm1 and wm2 at p 0.2 and 0.8,
  q 0.3 and 0.9 and eta 0 and 1;
- the stdout of ``verify``;
- the ``no_wmr`` and ``wmr2`` datasets and models of Bell and Werner 0.8
  at eta 0 and 1, written by ``train --dataset-out --model-out``.

The manifest (``docs/battery.json`` unless ``--manifest`` names another
file) records per file the command that wrote it, its byte count and
its sha256, and no timings.  The restart search trains on one BLAS
thread whatever the process's own setting, so the manifest is the same
at any BLAS thread count.  The same source gives the same manifest, so
a change that must keep every byte keeps this file as it is, and one
that moves bytes on purpose shows here which files moved.  The script
prints each command before it runs, and stops at the first command
that fails and exits with its code.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import sys
import tempfile

from qcorrkit import cli

FAMILIES = (
    ("bell", "1.0"), ("werner", "0.8"), ("werner", "0.43"),
    ("mems", "0.8"), ("mems", "0.6"), ("nme", "0.3"),
)
ETAS = ("0", "0.4", "1")
MODES = ("none", "wm1", "wm2")
POINTS = "41"

NOTE = (
    "sha256 and byte count of each file that its command writes, or of its stdout for "
    "verify; a trained model's bytes do not depend on the BLAS thread count"
)


def commands() -> list[tuple[tuple[str, ...], list[str]]]:
    """(names of the files it writes, ``qcorrkit`` argv) of every command, in
    run order; paths are relative."""
    table = []
    for family, param in FAMILIES:
        for eta in ETAS:
            for mode in MODES:
                for var in ("p", "q", "alpha2"):
                    if (var == "q" and mode == "none") or (var == "alpha2" and family != "nme"):
                        continue
                    name = f"sweep_{family}{param}_{var}_{mode}_eta{eta}.csv"
                    table.append(((name,), [
                        "sweep", "--family", family, "--param", param, "--eta", eta,
                        "--mode", mode, "--var", var, "--points", POINTS, "-o", name,
                    ]))
    for family, param in FAMILIES:
        for mode in MODES[1:]:
            for p in ("0.2", "0.8"):
                for q in ("0.3", "0.9"):
                    for eta in ("0", "1"):
                        name = f"optimize_{family}{param}_{mode}_p{p}_q{q}_eta{eta}.json"
                        table.append(((name,), [
                            "optimize", "--family", family, "--param", param, "--p", p,
                            "--eta", eta, "--q", q, "--mode", mode, "-o", name,
                        ]))
    table.append((("verify.txt",), ["verify"]))
    for family, param in FAMILIES[:2]:
        for scenario in ("no_wmr", "wmr2"):
            for eta in ("0", "1"):
                stem = f"{scenario}_{family}{param}_eta{eta}"
                table.append(((f"{stem}_data.csv", f"{stem}_model.json"), [
                    "train", "--family", family, "--param", param, "--scenario", scenario,
                    "--eta", eta, "--rows", "50", "--restarts", "1", "--max-epochs", "1",
                    "--seed", "3", "--dataset-out", f"{stem}_data.csv",
                    "--model-out", f"{stem}_model.json",
                ]))
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--manifest", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parents[1] / "docs" / "battery.json",
    )
    args = parser.parse_args()
    manifest = args.manifest.resolve()

    files, cwd = {}, os.getcwd()
    with tempfile.TemporaryDirectory(prefix="battery-") as out:
        os.chdir(out)
        try:
            for names, argv in commands():
                command = f"qcorrkit {shlex.join(argv)}"
                print(f"$ {command}", flush=True)
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
                if code:
                    return code
                if argv[0] == "verify":
                    pathlib.Path(names[0]).write_text(stdout.getvalue(), encoding="utf-8")
                for name in names:
                    data = pathlib.Path(name).read_bytes()
                    files[name] = {
                        "command": command, "bytes": len(data),
                        "sha256": hashlib.sha256(data).hexdigest(),
                    }
        finally:
            os.chdir(cwd)
    manifest.write_text(json.dumps({"note": NOTE, "files": files}, indent=1, sort_keys=True) + "\n")
    print(f"{len(files)} files: {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

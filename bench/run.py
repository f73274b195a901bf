"""qcorrkit benchmark: four CLI workloads, end to end or traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_damping --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics (setup_s, pass_ref,
items_per_ref, peak_rss_mb).  ``--trace 1`` makes a separate run that
times some passes untraced and then traces the rest, and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is the result as one JSON object; the line before it is the run
record (environment, sample counts, checks), also written to
``bench/results/``.  The program is imported from ``src/`` of the same
checkout; without it the run fails.
"""

import os

# Pin BLAS threads before numpy loads: the machine is small and shared,
# and oversubscribed BLAS threads dominate the run-to-run spread.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"

#: set-up is measured this many times per run (once here, the rest in
#: fresh interpreters) and reported as the median
SETUP_SAMPLES = 5
MIN_PASSES = 3
#: rows sampled per run for the reference checks, and for the r_star check
ROW_SAMPLES = {"sweep_damping": 8, "sweep_protected": 6}
R_STAR_SAMPLES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help="internal: print one set-up time and exit")
    parser.add_argument("--sizing", default="{}", help="internal: sizing of --setup-sample")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_qcorrkit() -> float:
    """Import the checkout's qcorrkit; returns the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    try:
        import qcorrkit.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import qcorrkit from {SRC}: {exc}") from None
    elapsed = perf_counter() - start
    import qcorrkit

    if not Path(qcorrkit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: qcorrkit came from {qcorrkit.__file__}, not from {SRC}")
    return elapsed


def run_jobs(jobs) -> tuple[dict, dict]:
    """Run jobs in order through ``qcorrkit.cli.main``; exit codes and stdout."""
    import qcorrkit.cli

    codes, stdouts = {}, {}
    for job in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes[job.name] = qcorrkit.cli.main(job.argv)
        stdouts[job.name] = out.getvalue()
    return codes, stdouts


def snapshot(jobs, codes: dict, stdouts: dict) -> dict:
    """Every output of a pass as bytes: files by path, exit code and stdout by job."""
    snap = {}
    for job in jobs:
        snap[f"{job.name}:exit"] = str(codes[job.name]).encode()
        snap[f"{job.name}:stdout"] = stdouts[job.name].encode()
        for path in job.outputs:
            snap[path] = Path(path).read_bytes()
    return snap


class PassLog:
    """Keeps the first pass's outputs and checks every later pass against them."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.checks = []
        self.count = 0
        self.first = self.codes = self.stdouts = None

    def record(self, codes: dict, stdouts: dict) -> None:
        from checks import determinism_check

        snap = snapshot(self.jobs, codes, stdouts)
        if self.first is None:
            self.first, self.codes, self.stdouts = snap, codes, stdouts
        else:
            self.checks.append(determinism_check(self.count, self.first, snap))
        self.count += 1


def timed_passes(log: PassLog, seconds: float, run=None) -> tuple[list[float], list[float]]:
    """Passes until ``seconds`` have elapsed (at least MIN_PASSES).

    Returns each pass's duration and the reference kernel's time taken
    right after it.  Only the pass and the kernel are timed; reading and
    comparing a pass's outputs happens after both.
    """
    from reference import reference_seconds

    durations, references = [], []
    start = perf_counter()
    while len(durations) < MIN_PASSES or perf_counter() - start < seconds:
        gc.collect()  # so no pass pays for garbage an earlier one left
        t0 = perf_counter()
        codes, stdouts = run() if run else run_jobs(log.jobs)
        durations.append(perf_counter() - t0)
        references.append(reference_seconds())
        log.record(codes, stdouts)
    return durations, references


def pass_ratios(durations: list[float], references: list[float]) -> list[float]:
    """Each pass's duration in units of the reference kernel timed after it."""
    return [d / r for d, r in zip(durations, references)]


def setup_sample(workload: str, seed: int, sizing: dict, import_s: float) -> float:
    """Import (measured by the caller), job generation and one warm-up call."""
    from jobs import make_workload

    workdir = tempfile.mkdtemp(prefix=f"setup-{workload}-", dir=WORK_DIR)
    try:
        start = perf_counter()
        wl = make_workload(workload, seed, workdir, sizing)
        run_jobs([wl.warmup])
        return import_s + perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_sample_in_child(args, sizing: dict) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--sizing", json.dumps(sizing)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcorrkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        git_sha = None
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "seed": seed,
    }


def output_checks(wl, outputs: dict, stdouts: dict, codes: dict) -> list:
    import checks as c

    if wl.name in ROW_SAMPLES:
        return c.sweep_checks(wl.jobs, outputs, wl.seed, ROW_SAMPLES[wl.name],
                              R_STAR_SAMPLES if wl.name == "sweep_protected" else 0)
    if wl.name == "train":
        return c.train_checks(wl.jobs, outputs, stdouts, wl.sizing["restart_epochs"])
    return c.verify_checks(codes, stdouts)


def layer_metrics(tracer, traced: list[float], untraced: list[float]) -> dict:
    """Per-layer metrics, each per traced pass, from spans and counts.

    ``traced`` and ``untraced`` are the pass ratios of the run's traced
    and untraced passes.
    """
    import catalog
    import tracing
    from summary import quartiles

    n = len(traced)
    totals = tracing.totals_by_name(tracer.spans)
    counts = tracer.counts
    values = {}
    for module, func in tracing.TRACED:
        name = f"{module}.{func}"
        for stat in ("calls", "self_s", "total_s"):
            values[f"{name}.{stat}"] = totals.get(name, {}).get(stat, 0) / n
    values[f"{tracing.PASS_SPAN}.self_s"] = totals[tracing.PASS_SPAN]["self_s"] / n
    for key in ("optimize.evaluations", "measures.concurrence.states", "sweep.write_sweep_csv.bytes",
                "mlp.network_jacobian.bytes", "training.epochs", "training.step_attempts"):
        values[key] = counts.get(key, 0) / n
    qmr_calls = totals.get("optimize.optimal_qmr", {}).get("calls", 0)
    values["optimize.plateau_share"] = counts.get("optimize.plateau", 0) / qmr_calls if qmr_calls else 0.0
    values["optimize.interior_share"] = counts.get("optimize.interior", 0) / qmr_calls if qmr_calls else 0.0
    attempts = counts.get("training.step_attempts", 0)
    values["training.accept_ratio"] = counts.get("training.epochs", 0) / attempts if attempts else 0.0
    values["trace.wall_s"] = totals[tracing.PASS_SPAN]["total_s"] / n
    values["trace.overhead_ref"] = quartiles(traced)[1] - quartiles(untraced)[1]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in catalog.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_qcorrkit()
    import jobs as jobs_mod
    import catalog
    import checks as c
    import reference
    import tracing
    from summary import describe

    if args.workload not in jobs_mod.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose one of {', '.join(jobs_mod.WORKLOADS)}")
    WORK_DIR.mkdir(exist_ok=True)
    if args.setup_sample:
        print(setup_sample(args.workload, args.seed, json.loads(args.sizing), import_s))
        return 0

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        sizing = jobs_mod.size_workload(args.workload, args.seed)

        # set-up: import, job generation and one warm-up call
        start = perf_counter()
        wl = jobs_mod.make_workload(args.workload, args.seed, workdir, sizing)
        run_jobs([wl.warmup])
        setup_samples = [import_s + perf_counter() - start]
        reference.kernel()  # warm-up of the reference kernel, outside set-up
        if not args.trace:
            setup_samples += [setup_sample_in_child(args, sizing) for _ in range(SETUP_SAMPLES - 1)]

        record = {"workload": wl.name, "trace": args.trace, "environment": environment(args.seed),
                  "sizing": sizing, "items_per_pass": wl.items, "item_unit": wl.item_unit,
                  "setup_s": describe(setup_samples)}
        log = PassLog(wl.jobs)
        if args.trace:
            untraced = timed_passes(log, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = timed_passes(
                    log, args.seconds / 2,
                    run=lambda: tracer.run_pass(log.count, lambda: run_jobs(wl.jobs)))
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, pass_ratios(*traced), pass_ratios(*untraced))
            for label, (durations, references) in (("untraced", untraced), ("traced", traced)):
                record[f"{label}_wall_s"] = describe(durations)
                record[f"{label}_reference_s"] = describe(references)
                record[f"{label}_pass_ref"] = describe(pass_ratios(durations, references))
            RESULTS_DIR.mkdir(exist_ok=True)
            tracer.write(str(RESULTS_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"))
        else:
            durations, references = timed_passes(log, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ratio = describe(pass_ratios(durations, references))
            record["wall_s"] = describe(durations)
            record["reference_s"] = describe(references)
            record["pass_ref"] = ratio
            values = {"setup_s": record["setup_s"]["median"], "pass_ref": ratio["median"],
                      "items_per_ref": wl.items / ratio["median"], "peak_rss_mb": peak_rss_mb}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _, _ in catalog.END_TO_END}

        checks = c.exit_code_checks(log.codes) + log.checks
        try:
            checks += output_checks(wl, log.first, log.stdouts, log.codes)
        except (ValueError, KeyError, IndexError) as exc:   # unparsable output
            checks.append(c.Check("outputs parse", False, repr(exc)))
        failed = [chk for chk in checks if not chk.ok]
        record["checks"] = {"attempted": len(checks), "failed": len(failed),
                            "fail_rate": len(failed) / len(checks),
                            "failures": [f"{chk.name}: {chk.detail}" for chk in failed[:20]]}
        record["metrics"] = metrics
        RESULTS_DIR.mkdir(exist_ok=True)
        name = f"record-{wl.name}-seed{args.seed}-trace{args.trace}.json"
        (RESULTS_DIR / name).write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps({"record": record}))
        print(json.dumps({"correct": not failed, "attempted": len(checks),
                          "failed": len(failed), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

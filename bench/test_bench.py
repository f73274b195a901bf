"""Self-tests of the benchmark: span arithmetic, statistics, tracing, checks.

Run from the root of a checkout with ``python3 -m pytest bench -q``.
Every output check is shown to pass on real output and to fail on a
deliberately corrupted copy of it.
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import catalog  # noqa: E402
import checks  # noqa: E402
import jobs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from summary import describe, quartiles  # noqa: E402


# ---------------------------------------------------------------- spans

def span(sid, parent, name, start, end):
    return [sid, parent, 0, name, start, end]


def test_self_time_of_nested_spans():
    spans = [
        span(0, -1, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 1, "b", 2.0, 3.0),
        span(3, 0, "c", 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    # without overlapping siblings the self times of a tree sum to its root
    assert sum(tracing.self_times(spans)) == 10.0


def test_self_time_merges_overlapping_and_clips_outlying_children():
    spans = [
        span(0, -1, "root", 0.0, 10.0),
        span(1, 0, "c", 5.0, 6.0),
        span(2, 0, "d", 5.5, 7.0),     # overlaps c: covered 5..7 once
        span(3, 0, "e", 9.0, 12.0),    # runs past the parent: clipped to 9..10
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 2.0 - 1.0)


def test_totals_count_recursion_once_in_inclusive_time():
    spans = [
        span(0, -1, "root", 0.0, 10.0),
        span(1, 0, "f", 1.0, 9.0),
        span(2, 1, "f", 2.0, 5.0),
        span(3, 2, "g", 3.0, 4.0),
    ]
    totals = tracing.totals_by_name(spans)
    assert totals["f"]["calls"] == 2
    assert totals["f"]["total_s"] == 8.0
    assert totals["f"]["self_s"] == pytest.approx((8.0 - 3.0) + (3.0 - 1.0))
    assert totals["g"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}


# ---------------------------------------------------------------- statistics

@pytest.mark.parametrize("values", [[3.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]])
def test_quartiles_match_statistics(values):
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == statistics.median(values)
    assert describe(values) == {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def test_quartiles_of_one_value_and_of_none():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        quartiles([])


def test_pass_ratios_divide_each_pass_by_its_own_reference():
    assert run.pass_ratios([2.0, 3.0], [0.5, 1.5]) == [4.0, 2.0]


def test_reference_kernel_is_fixed_work():
    value = reference.kernel()
    assert value == reference.kernel() and value == value   # same result, not NaN
    assert reference.reference_seconds() > 0


# ---------------------------------------------------------------- tracing

def test_tracer_wraps_every_namespace_and_restores_it(tmp_path):
    import qcorrkit
    import qcorrkit.cli
    import qcorrkit.measures
    import qcorrkit.optimize
    import qcorrkit.sweep

    originals = (qcorrkit.measures.concurrence, qcorrkit.optimize.concurrence, qcorrkit.concurrence,
                 qcorrkit.sweep.optimal_qmr, qcorrkit.cli.main)
    out = tmp_path / "q.csv"
    argv = ["sweep", "--family", "bell", "--mode", "wm2", "--var", "q", "--points", "2", "-o", str(out)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qcorrkit.optimize.concurrence is not originals[1]
        assert qcorrkit.concurrence is not originals[2]
        assert tracer.run_pass(0, lambda: qcorrkit.cli.main(argv)) == 0
        qcorrkit.cli.main(argv)   # outside a pass: not recorded
    finally:
        tracer.uninstall()
    assert (qcorrkit.measures.concurrence, qcorrkit.optimize.concurrence, qcorrkit.concurrence,
            qcorrkit.sweep.optimal_qmr, qcorrkit.cli.main) == originals

    totals = tracing.totals_by_name(tracer.spans)
    assert totals[tracing.PASS_SPAN]["calls"] == 1
    assert totals["cli.main"]["calls"] == 1
    assert totals["optimize.optimal_qmr"]["calls"] == 2
    assert totals["measures.correlation_vector"]["calls"] == 2
    # the optimizer's batched grid call counts every 4x4 state it holds
    assert tracer.counts["measures.concurrence.states"] > totals["measures.concurrence"]["calls"]
    assert tracer.counts["optimize.evaluations"] > 1000
    assert tracer.counts["sweep.write_sweep_csv.bytes"] == len(out.read_bytes())
    root = tracer.spans[0]
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(root[5] - root[4], abs=1e-9)


def test_catalog_matches_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in catalog.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in catalog.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


# ---------------------------------------------------------------- workloads

def test_jobs_depend_on_the_seed_only(tmp_path):
    for name in ("sweep_damping", "sweep_protected", "verify"):
        a = jobs.make_workload(name, 3, str(tmp_path), {})
        b = jobs.make_workload(name, 3, str(tmp_path), {})
        c = jobs.make_workload(name, 4, str(tmp_path), {})
        assert [j.argv for j in a.jobs] == [j.argv for j in b.jobs]
        assert [j.argv for j in a.jobs] != [j.argv for j in c.jobs]


def test_train_sizing_lands_within_the_epoch_tolerance():
    sizing = jobs.size_workload("train", 1)
    assert sizing == jobs.size_workload("train", 1)
    assert len(sizing["restart_epochs"]) == sizing["restarts"]
    miss = abs(sum(sizing["restart_epochs"]) - jobs.TRAIN_EPOCH_BUDGET)
    assert miss <= jobs.TRAIN_EPOCH_TOLERANCE * jobs.TRAIN_EPOCH_BUDGET


def test_restart_count_lands_closest_to_the_budget():
    assert jobs.restarts_for_budget([10, 50, 30], 55) == 2
    assert jobs.restarts_for_budget([10, 50, 30], 80) == 3
    assert jobs.restarts_for_budget([100], 55) == 1


# ---------------------------------------------------------------- output checks

def _run(jobs_list):
    codes, stdouts = run.run_jobs(jobs_list)
    assert set(codes.values()) == {0}
    return run.snapshot(jobs_list, codes, stdouts), stdouts, codes


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("sweeps"))
    damping = dict(family="werner", param=0.7, eta=1.0, mode="none", var="p", points=5, p=0.5, q=0.5)
    bell = dict(damping, family="bell", param=1.0, eta=0.0)
    protected = dict(family="mems", param=0.8, eta=1.0, mode="wm2", var="q", points=3, p=0.5, q=0.5)
    jobs_list = [jobs._sweep_job(workdir, "werner_p", damping), jobs._sweep_job(workdir, "bell_p", bell),
                 jobs._sweep_job(workdir, "mems_q", protected)]
    outputs, _, _ = _run(jobs_list)
    return jobs_list, outputs


def _rows(job, outputs):
    return checks.parse_sweep_csv(outputs[job.outputs[0]].decode())


def test_sweep_checks_pass_on_real_output(sweep_outputs):
    jobs_list, outputs = sweep_outputs
    result = checks.sweep_checks(jobs_list, outputs, seed=1, samples=4, r_star_samples=2)
    assert result and all(c.ok for c in result), [c for c in result if not c.ok]


@pytest.mark.parametrize("job_index, column", [(0, "chi"), (0, "qs"), (0, "tdd"), (0, "concurrence"),
                                               (1, "concurrence"), (2, "concurrence")])
def test_perturbed_sweep_row_fails_its_reference_check(sweep_outputs, job_index, column):
    jobs_list, outputs = sweep_outputs
    job = jobs_list[job_index]
    row = _rows(job, outputs)[1]
    assert all(c.ok for c in checks.row_reference_checks("row", job.meta, row))
    row[column] += 1e-6
    failed = [c.name for c in checks.row_reference_checks("row", job.meta, row) if not c.ok]
    assert len(failed) == 1 and column in failed[0]


def test_perturbed_raw_column_fails_the_normalized_check(sweep_outputs):
    jobs_list, outputs = sweep_outputs
    rows = _rows(jobs_list[0], outputs)
    assert checks.normalized_check("werner", rows).ok
    rows[2]["jsd"] += 1e-9
    assert not checks.normalized_check("werner", rows).ok


def test_wrong_r_star_fails(sweep_outputs):
    jobs_list, outputs = sweep_outputs
    job = jobs_list[2]
    row = _rows(job, outputs)[1]
    assert 0.0 < row["r_star"] < 0.9
    assert checks.r_star_check("row", job.meta, row).ok
    row["r_star"] += 0.05
    assert not checks.r_star_check("row", job.meta, row).ok


def test_short_sweep_fails_the_row_count(sweep_outputs):
    jobs_list, outputs = sweep_outputs
    job = jobs_list[0]
    truncated = dict(outputs)
    truncated[job.outputs[0]] = b"\n".join(outputs[job.outputs[0]].split(b"\n")[:-2]) + b"\n"
    failed = [c.name for c in checks.sweep_checks([job], truncated, 1, 0, 0) if not c.ok]
    assert failed == [f"{job.name} row count"]


@pytest.fixture(scope="module")
def train_outputs(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("train"))
    epochs = jobs.train_epochs_per_restart(5, 2, 10**9)
    jobs_list = jobs.train_jobs(5, workdir, restarts=2)
    outputs, stdouts, _ = _run(jobs_list)
    return jobs_list, outputs, stdouts, epochs


def _with_changed_weight_byte(model: bytes) -> bytes:
    doc = model.decode()
    start = doc.index('"weights"')
    digit = next(i for i in range(start, len(doc)) if doc[i] in "123456789" and doc[i - 1] in "0123456789")
    changed = "1" if doc[digit] != "1" else "2"
    return (doc[:digit] + changed + doc[digit + 1:]).encode()


def test_train_checks_pass_on_real_output(train_outputs):
    jobs_list, outputs, stdouts, epochs = train_outputs
    result = checks.train_checks(jobs_list, outputs, stdouts, epochs)
    assert all(c.ok for c in result), [c for c in result if not c.ok]


def test_changed_model_byte_fails_model_and_determinism_checks(train_outputs):
    jobs_list, outputs, stdouts, epochs = train_outputs
    model_path = jobs_list[0].outputs[0]
    corrupted = dict(outputs)
    corrupted[model_path] = _with_changed_weight_byte(outputs[model_path])
    failed = [c.name for c in checks.train_checks(jobs_list, corrupted, stdouts, epochs) if not c.ok]
    assert failed == ["model reproduces predictions"]

    assert checks.determinism_check(1, outputs, dict(outputs)).ok
    assert not checks.determinism_check(1, outputs, corrupted).ok


def test_high_test_mse_and_other_restarts_fail(train_outputs):
    jobs_list, outputs, stdouts, epochs = train_outputs
    report = json.loads(stdouts["train"])
    bad = dict(stdouts, train=json.dumps(dict(report, mse_test=2e-3)))
    failed = [c.name for c in checks.train_checks(jobs_list, outputs, bad, epochs) if not c.ok]
    assert failed == ["train test MSE <= 1e-3"]
    failed = [c.name for c in checks.train_checks(jobs_list, outputs, stdouts, epochs + [7]) if not c.ok]
    assert failed == ["train restarts match the sized run"]


def test_verify_and_exit_code_checks_fail_on_nonzero_exit():
    passed = {"verify": "[PASS] x\nall checks passed\n"}
    assert checks.verify_checks({"verify": 0}, passed)[0].ok
    assert not checks.verify_checks({"verify": 3}, {"verify": "verification FAILED"})[0].ok
    assert [c.ok for c in checks.exit_code_checks({"a": 0, "b": 2})] == [True, False]


def test_determinism_check_flags_missing_and_extra_outputs():
    first = {"a": b"1", "b": b"2"}
    assert not checks.determinism_check(1, first, {"a": b"1"}).ok
    assert not checks.determinism_check(1, first, {"a": b"1", "b": b"2", "c": b""}).ok

"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; a self-test keeps the two equal.
"""

from tracing import PASS_SPAN, TRACED

#: (name, unit, better, bound): reported by ``--trace 0`` runs
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_ref", "ref", "lower", 0.25),
    ("items_per_ref", "1/ref", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better): reported by ``--trace 1`` runs, each per traced pass
PER_LAYER = tuple(
    entry
    for module, func in TRACED
    for entry in ((f"{module}.{func}.calls", "count", "lower"),
                  (f"{module}.{func}.self_s", "s", "lower"),
                  (f"{module}.{func}.total_s", "s", "lower"))
) + (
    (f"{PASS_SPAN}.self_s", "s", "lower"),
    ("optimize.evaluations", "count", "lower"),
    ("optimize.plateau_share", "ratio", "lower"),
    ("optimize.interior_share", "ratio", "higher"),
    ("measures.concurrence.states", "count", "lower"),
    ("sweep.write_sweep_csv.bytes", "bytes", "lower"),
    ("mlp.network_jacobian.bytes", "bytes", "lower"),
    ("training.epochs", "count", "lower"),
    ("training.step_attempts", "count", "lower"),
    ("training.accept_ratio", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ref", "ref", "lower"),
)

"""Spans at the module boundaries of ``qcorrkit``, recorded from outside.

The tracer replaces each traced public function, in every ``qcorrkit``
module namespace that holds it (the defining module, the modules that
import it by name, and the package), with a wrapper that records a
span: its name, start, end, parent span and the pass it belongs to.
Spans stay in memory until the run writes them out.  A few wrappers
also add counts taken from the call's arguments or result, so ratios
are measured where the work happens.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

from qcorrkit.optimize import _R_MAX

#: (module, function) pairs traced, by layer
TRACED = (
    # L0 primitives
    ("channels", "apply_cad"),
    ("channels", "wmr_pipeline"),
    ("measures", "correlation_vector"),
    ("measures", "concurrence"),
    ("measures", "normalize"),
    # L1 the reversal optimum
    ("optimize", "optimal_qmr"),
    # L2 sweeps, datasets, the network and the trainer
    ("sweep", "run_sweep"),
    ("sweep", "write_sweep_csv"),
    ("dataset", "build_dataset"),
    ("dataset", "write_dataset_csv"),
    ("mlp", "network_jacobian"),
    ("mlp", "forward_scaled"),
    ("training", "lm_train"),
    # L3 commands and verification
    ("cli", "main"),
    ("closed_forms", "verify_closed_forms"),
    ("closed_forms", "wootters_concurrence_oracle"),
    ("oracles", "tdd_measurement_oracle"),
    ("oracles", "dense_coding_oracle"),
    ("oracles", "steering_entropy_oracle"),
    ("verification", "full_verification"),
)

#: the benchmark's own span around one pass; the root of every span tree
PASS_SPAN = "bench.pass"


# ---------------------------------------------------------------- counts

def _count_optimal_qmr(counts, args, kwargs, out, before):
    counts["optimize.evaluations"] += out.evaluations
    if out.concurrence_at_star <= 0.0:
        counts["optimize.plateau"] += 1      # no r recovers entanglement
    elif out.r_star <= 0.0 or out.r_star >= _R_MAX:   # clipped to an end of the range
        counts["optimize.boundary"] += 1
    else:
        counts["optimize.interior"] += 1


def _count_concurrence(counts, args, kwargs, out, before):
    shape = getattr(args[0], "shape", (4, 4))
    counts["measures.concurrence.states"] += math.prod(shape[:-2])


def _tell(args, kwargs):
    return args[1].tell()


def _count_write_sweep_csv(counts, args, kwargs, out, before):
    counts["sweep.write_sweep_csv.bytes"] += args[1].tell() - before


def _count_network_jacobian(counts, args, kwargs, out, before):
    counts["mlp.network_jacobian.bytes"] += out[1].nbytes


def _count_lm_train(counts, args, kwargs, out, before):
    counts["training.epochs"] += out.epochs


#: name -> (hook run before the call, hook run after it)
COUNT_HOOKS = {
    "optimize.optimal_qmr": (None, _count_optimal_qmr),
    "measures.concurrence": (None, _count_concurrence),
    "sweep.write_sweep_csv": (_tell, _count_write_sweep_csv),
    "mlp.network_jacobian": (None, _count_network_jacobian),
    "training.lm_train": (None, _count_lm_train),
}


# ---------------------------------------------------------------- tracer

class Tracer:
    """Collects spans and counts while active; installs and removes wrappers."""

    def __init__(self):
        self.spans: list[list] = []   # [id, parent, pass, name, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self.pass_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # spans -------------------------------------------------------------
    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [len(self.spans), parent, self.pass_id, name, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _exit(self) -> None:
        self._stack.pop()

    def in_span(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][3] == name

    def run_pass(self, pass_id: int, fn):
        """Run ``fn()`` as one traced pass under a root span."""
        self.pass_id = pass_id
        self.active = True
        span = self._enter(PASS_SPAN)
        span[4] = perf_counter()
        try:
            return fn()
        finally:
            span[5] = perf_counter()
            self._exit()
            self.active = False

    def wrap(self, name: str, fn):
        pre, post = COUNT_HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre else None
            span = self._enter(name)
            span[4] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                self._exit()
            if post:
                post(self.counts, args, kwargs, out, before)
            return out

        return traced

    # installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function in every qcorrkit namespace holding it."""
        import numpy as np

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qcorrkit" or n.startswith("qcorrkit."))]
        for module_name, func_name in TRACED:
            home = sys.modules[f"qcorrkit.{module_name}"]
            original = getattr(home, func_name)
            wrapped = self.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._patch(module, func_name, wrapped)

        # damped solves issued by the trainer are its step attempts
        solve = np.linalg.solve

        @functools.wraps(solve)
        def counted_solve(*args, **kwargs):
            if self.active and self.in_span("training.lm_train"):
                self.counts["training.step_attempts"] += 1
            return solve(*args, **kwargs)

        self._patch(np.linalg, "solve", counted_solve)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # output ------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span, one JSON list per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "pass", "name", "start", "end"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------- analysis

def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so the self time is never negative and the self
    times of a tree sum to the duration of its root.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _pass, _name, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, _parent, _pass, _name, start, end in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def totals_by_name(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per name: calls, self seconds and inclusive seconds over all spans.

    Inclusive time counts a span only when no span of the same name
    encloses it, so recursion is not counted twice.
    """
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    names = {span[0]: span[3] for span in spans}
    parents = {span[0]: span[1] for span in spans}
    for span, self_s in zip(spans, self_times(spans)):
        sid, _parent, _pass, name, start, end = span
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += self_s
        ancestor = parents[sid]
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = parents[ancestor]
        if ancestor < 0:
            entry["total_s"] += end - start
    return totals

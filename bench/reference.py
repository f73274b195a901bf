"""A fixed reference kernel: how fast the host runs this kind of code right now.

The benchmark's host is a small virtual machine that shares its physical
cores.  For seconds to minutes at a time the same code runs up to 1.7
times slower, and a whole 20-second run can fall inside such a stretch,
so no statistic of raw pass times is steady from run to run.  Timing
this kernel right after each pass measures the host's speed at that
moment; a pass's time divided by it (``pass_ref``) cancels the slowdown
both share.

The kernel mixes what ``qcorrkit`` spends its time on: LAPACK calls and
products on 4x4 matrices, each paying numpy's per-call overhead (the
sweeps and verification), Gram products and solves the size of an LM
step (training), and Python arithmetic.  It uses numpy only, never
``qcorrkit``, so a change to the program cannot change it; changing it
changes the benchmark.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: timings per measurement; the fastest is kept
REPEATS = 3
EIGEN_STEPS = 300
#: Gram product and solve of an 80 x 800 matrix, the kind of work an LM step does
GRAM_STEPS = 1
LOOP_STEPS = 60_000


def kernel() -> float:
    """Fixed work: small eigenproblems, Gram products and solves, a Python loop."""
    h = np.arange(16.0).reshape(4, 4)
    h = h + h.T + np.eye(4)
    acc = 0.0
    for _ in range(EIGEN_STEPS):
        w = np.linalg.eigvalsh(h)
        acc += float(w[0])
        h = (h @ h) / np.abs(w).max()   # keeps the largest eigenvalue fixed
    j = np.cos(np.arange(80 * 800.0).reshape(80, 800) * 1e-3)
    for _ in range(GRAM_STEPS):
        j = j - 1e-3 * np.linalg.solve(j @ j.T + np.eye(80), j)
    acc += float(j[0, 0])
    total = 0
    for i in range(LOOP_STEPS):
        total += i * i % 7
    return acc + total


def reference_seconds() -> float:
    """Fastest of ``REPEATS`` timings of ``kernel``."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best

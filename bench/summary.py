"""Medians and quartiles of repeated timings."""

from __future__ import annotations

import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of at least one value.

    Uses ``statistics.quantiles(..., n=4)`` with its default exclusive
    method, the same rule the spread of repeated runs is judged by.
    """
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(values: list[float]) -> dict:
    """Median, quartiles and sample count of one timing series."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


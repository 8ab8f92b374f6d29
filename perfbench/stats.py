"""Arithmetic of the serving benchmark: percentiles and span self times.

A span is a dict with ``name``, ``start``, ``end`` (seconds on the
system-wide monotonic clock), ``id``, ``parent`` (the id of the span
that was open on the same thread when it started, or ``None``), ``rid``
(the client's ``X-Request-Id``, or ``None``) and ``pid``.
"""

from __future__ import annotations

import math
from typing import Any, Iterable


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0–100), linearly interpolated.

    Matches ``numpy.percentile``'s default method: rank ``q/100·(n−1)``
    between the two nearest order statistics.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, id)``.

    A span's self time is its duration minus the part of its interval
    covered by its child spans (children clipped to the parent, and
    overlapping children counted once).
    """
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["pid"], span["parent"]), []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        key = (span["pid"], span["id"])
        start, end = span["start"], span["end"]
        clipped = [
            (max(start, s), min(end, e))
            for s, e in children.get(key, ())
            if min(end, e) > max(start, s)
        ]
        result[key] = (end - start) - covered_length(clipped)
    return result

"""Helpers shared by the benchmark's loads.

Pure Python with no import of ``repro``, so the statistics, naming
rules and span bookkeeping are testable on their own
(``python3 -m pytest -q perfbench/tests``).
"""

from __future__ import annotations

import json
import math
import re
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

METRIC_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
"""A metric or workload name: starts with a letter or digit, at most 64
letters, digits, ``_``, ``.`` and ``-``."""

UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
"""Candidate percentiles for :func:`tail_percentile`, lowest first."""

MIN_BEYOND = 10
"""A percentile is reported only with at least this many samples above it."""


def valid_name(name: str) -> bool:
    return METRIC_NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


# -- order statistics -----------------------------------------------------------


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = _rank(len(ordered), q)
    return ordered[min(rank, len(ordered)) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-th."""
    return count - _rank(count, q)


def _rank(count: int, q: float) -> int:
    """1-based nearest rank; rounding first keeps ``99.9 / 100 * 10000``
    at 9990 rather than 9991."""
    return max(1, math.ceil(round(q / 100.0 * count, 9)))


def tail_percentile(samples, min_beyond: int = MIN_BEYOND):
    """``(q, value)`` for the highest ladder percentile that has at least
    ``min_beyond`` samples beyond it, or ``None`` when even the median
    lacks that support."""
    best = None
    for q in PERCENTILE_LADDER:
        if samples_beyond(len(samples), q) >= min_beyond:
            best = q
    if best is None:
        return None
    return best, percentile(samples, best)


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median (the
    steadiness measure, via ``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- ratios ---------------------------------------------------------------------


def ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """``numerator / denominator``, or ``default`` when there is no base."""
    if denominator == 0:
        return default
    return numerator / denominator


def share(part: float, other: float) -> float:
    """``part / (part + other)``: e.g. Jacobian reuses over reuses + stamps."""
    return ratio(part, part + other)


def rel_close(a: float, b: float, rel: float) -> bool:
    """Equal within a relative tolerance; infinities must match exactly."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


# -- failure accounting -----------------------------------------------------------


def failed_samples(samples) -> int:
    """Monte-Carlo samples that count as failed operations.

    ``nan`` is the engine's mark of a sample it could not evaluate
    (retries exhausted, timeout, dead worker).  ``inf`` is a legitimate
    metric value — a WL_crit write failure — and is not a failed
    operation.
    """
    return sum(1 for value in samples if math.isnan(value))


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations over attempted operations (0 with nothing tried)."""
    return ratio(failed, attempted)


# -- intervals --------------------------------------------------------------------


def overlaps(start: float, end: float, intervals) -> bool:
    """Whether ``[start, end]`` intersects any ``(lo, hi)`` in ``intervals``."""
    return any(lo < end and start < hi for lo, hi in intervals)


# -- spans ------------------------------------------------------------------------


class Spans:
    """In-memory span recorder for the benchmark's own calls into layers.

    Each record holds a name, start, end and the id of the span open
    around it; :meth:`write` dumps them when the run ends.  A disabled
    recorder still yields, so call sites need no branches.
    """

    def __init__(self, enabled: bool, trace_id: str = ""):
        self.enabled = enabled
        self.trace_id = trace_id
        self.records: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **fields):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        record = {
            "parent": stack[-1] if stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        if fields:
            record["fields"] = fields
        with self._lock:
            record["id"] = len(self.records)
            self.records.append(record)
        stack.append(record["id"])
        try:
            yield
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def write(self, path: str | Path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(
            json.dumps({"trace_id": self.trace_id, "spans": self.records}) + "\n"
        )


def self_times(records) -> dict[str, float]:
    """Total self time per span name over ``records`` (see
    :class:`Spans`): each span's duration minus the part of it that its
    child spans cover."""
    children: dict[int, list[dict]] = {}
    for record in records:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(record)
    totals: dict[str, float] = {}
    for record in records:
        if record["end"] is None:
            continue
        covered = _covered(
            record["start"],
            record["end"],
            [(c["start"], c["end"]) for c in children.get(record["id"], ())
             if c["end"] is not None],
        )
        own = record["end"] - record["start"] - covered
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
    return totals


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


# -- result line ------------------------------------------------------------------


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The one-line JSON result; ``metrics`` maps name -> (value, unit)."""
    for name, (value, unit) in metrics.items():
        if not valid_name(name) or not valid_unit(unit):
            raise ValueError(f"bad metric name or unit: {name!r} [{unit!r}]")
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value!r}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )

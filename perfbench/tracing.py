"""Measurement helpers: percentiles, host-speed yardsticks, span self
times, ``/metrics`` counter deltas and peak memory from ``/proc``.

Free of process control, so ``test_tracing.py`` can pin them.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A p90 needs at least ten samples beyond it.
MIN_P90_SAMPLES = 100


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample covering ``fraction``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def latency_summary(samples: Sequence[float]) -> Dict[str, Any]:
    """``{"n", "p50", "p90"}``; ``p90`` is ``None`` below 100 samples."""
    n = len(samples)
    return {
        "n": n,
        "p50": percentile(samples, 0.5),
        "p90": percentile(samples, 0.9) if n >= MIN_P90_SAMPLES else None,
    }


def arithmetic_yardstick() -> int:
    """Fixed interpreter arithmetic; tracks the host speed the way the
    HiGHS-bound analyses of ``dag-det-front`` feel it."""
    total = 0
    for value in range(20_000):
        total += value * value % 7
    return total


def allocation_yardstick() -> int:
    """Fixed sorting, scanning and tallying of tuples; tracks the host speed
    the way the allocation-heavy analyses of ``prob-tree-front`` feel it."""
    generator = random.Random(7)
    points = sorted((generator.randint(0, 50), generator.random()) for _ in range(1500))
    front = []
    best = -1.0
    for cost, damage in points:
        if damage > best:
            best = damage
            front.append((cost, damage))
    totals: Dict[int, float] = {}
    for cost, damage in points:
        totals[cost] = totals.get(cost, 0.0) + damage
    return len(front) + len(totals)


#: Per library workload: the yardstick and its median time on the
#: reference box (a 2-vCPU x86-64 VM).  Each was chosen because its
#: slowdown matched the workload's own over host-speed swings of ±25%.
YARDSTICKS: Dict[str, Tuple[Callable[[], int], float]] = {
    "dag-det-front": (arithmetic_yardstick, 0.0015),
    "prob-tree-front": (allocation_yardstick, 0.002),
}


def slowdowns(positions: Sequence[int], samples: Sequence[float], count: int,
              reference: float, neighbours: int = 3) -> List[float]:
    """Host slowdown at each of ``count`` analyses, from yardstick samples.

    ``samples[j]`` was timed right after analysis ``positions[j]`` (sorted).
    Analysis ``i`` gets the median of the samples nearest it in sequence
    (``neighbours`` on each side), divided by the yardstick's ``reference``
    time, so 1.0 means the reference speed and 1.25 a host 25% slower.
    """
    if not samples:
        raise ValueError("no yardstick samples")
    factors = []
    for index in range(count):
        centre = bisect.bisect_left(positions, index)
        low = max(0, centre - neighbours)
        window = samples[low:centre + neighbours + 1] or samples[-neighbours:]
        factors.append(statistics.median(window) / reference)
    return factors


def peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Summed self time per span name.

    Each span is ``{"id", "parent", "name", "start", "end"}``.  A span's
    self time is its duration minus the part of its interval that its
    children cover (each child clipped to the parent's interval).
    """
    children: Dict[Any, List[Tuple[float, float]]] = defaultdict(list)
    for item in spans:
        if item.get("parent") is not None:
            children[item["parent"]].append((item["start"], item["end"]))
    totals: Dict[str, float] = defaultdict(float)
    for item in spans:
        start, end = item["start"], item["end"]
        covered = union_length(
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(item["id"], ())
            if child_end > start and child_start < end
        )
        totals[item["name"]] += (end - start) - covered
    return dict(totals)


def durations(spans: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Summed duration per span name."""
    totals: Dict[str, float] = defaultdict(float)
    for item in spans:
        totals[item["name"]] += item["end"] - item["start"]
    return dict(totals)


class SpanRecorder:
    """In-memory spans of one thread, written out when the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` recorded as a span named ``name`` on every call."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = {"id": index, "parent": parent, "name": name,
                      "start": self.clock(), "end": 0.0}
            self.spans.append(record)
            self._stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                self._stack.pop()
                record["end"] = self.clock()
        return traced


def counter_total(families: Mapping[str, Any], name: str, **labels: str) -> float:
    """Sum of a parsed family's samples whose labels include ``labels``."""
    family = families.get(name)
    if family is None:
        return 0.0
    return sum(
        value for sample, sample_labels, value in family.samples
        if sample == name
        and all(sample_labels.get(key) == want for key, want in labels.items())
    )


def counter_delta(parse: Callable[[str], Mapping[str, Any]], before: str,
                  after: str, name: str, **labels: str) -> float:
    """Growth of a counter between two ``/metrics`` scrapes."""
    return counter_total(parse(after), name, **labels) - counter_total(
        parse(before), name, **labels
    )

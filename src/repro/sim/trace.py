"""Lightweight counters and accumulators for simulation statistics.

The tracer is the one sink every layer reports into: syscall timings for the
kernel profiler (Figures 8-9), MPI per-call times for ``I_MPI_STATS``
(Table 1), SDMA descriptor counts for Figure 4 validation, and so on.
Recording is cheap (one dict update).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple


class Accumulator:
    """Streaming count/sum/min/max of a scalar series."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self, count: int = 0, total: float = 0.0,
                 min: float = float("inf"), max: float = float("-inf")):
        self.count = count
        self.total = total
        self.min = min
        self.max = max

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Accumulator):
            return NotImplemented
        return (self.count, self.total, self.min, self.max) == \
            (other.count, other.total, other.min, other.max)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Accumulator(count={self.count}, total={self.total}, "
                f"min={self.min}, max={self.max})")

    def add(self, value: float) -> None:
        """Fold one value into the running statistics."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add_runs(self, runs: Iterable[Tuple[int, int]]) -> None:
        """Fold in ``count`` copies of each integer ``value`` of the
        ``(value, count)`` runs (counts positive), exactly as one
        :meth:`add` per copy would.

        Each run adds ``value * count`` to the total at once: the partial
        sums of integers are integers, exact in a float below 2**53, so
        adding them a copy at a time would round nothing either."""
        for value, count in runs:
            self.count += count
            self.total += value * count
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Tracer:
    """Named counters and accumulators."""

    __slots__ = ("counters", "accs")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.accs: Dict[str, Accumulator] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Increment a named counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def record(self, name: str, value: float) -> None:
        """Add a value to a named accumulator."""
        acc = self.accs.get(name)
        if acc is None:
            acc = self.accs[name] = Accumulator()
        acc.add(value)

    def record_runs(self, name: str, runs: Sequence[Tuple[int, int]]) -> None:
        """Add runs of integer values to a named accumulator: the same
        count, total, min and max as one :meth:`record` call per copy
        (:meth:`Accumulator.add_runs`)."""
        if not runs:
            return
        acc = self.accs.get(name)
        if acc is None:
            acc = self.accs[name] = Accumulator()
        acc.add_runs(runs)

    def get_count(self, name: str) -> int:
        """Current value of a counter (0 if unused)."""
        return self.counters.get(name, 0)

    def get_total(self, name: str) -> float:
        """Sum recorded under a name (0 if unused)."""
        acc = self.accs.get(name)
        return acc.total if acc else 0.0

    def get_mean(self, name: str) -> float:
        """Mean recorded under a name (0 if unused)."""
        acc = self.accs.get(name)
        return acc.mean if acc else 0.0

    def totals(self, prefix: str = "") -> Dict[str, float]:
        """``{name: total}`` for all accumulators matching ``prefix``."""
        return {name: acc.total for name, acc in self.accs.items()
                if name.startswith(prefix)}

    def merge(self, other: "Tracer") -> None:
        """Fold another tracer's statistics into this one."""
        for name, n in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        for name, acc in other.accs.items():
            mine = self.accs.get(name)
            if mine is None:
                mine = self.accs[name] = Accumulator()
            mine.count += acc.count
            mine.total += acc.total
            mine.min = min(mine.min, acc.min)
            mine.max = max(mine.max, acc.max)

    def report(self) -> Dict[str, Dict[str, float]]:
        """Flat report suitable for printing or assertions."""
        out: Dict[str, Dict[str, float]] = {}
        for name, n in sorted(self.counters.items()):
            out[name] = {"count": float(n)}
        for name, acc in sorted(self.accs.items()):
            out[name] = {"count": float(acc.count), "total": acc.total,
                         "mean": acc.mean, "min": acc.min, "max": acc.max}
        return out

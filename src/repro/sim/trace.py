"""Lightweight counters and accumulators for simulation statistics.

The tracer is the one sink every layer reports into: syscall timings for the
kernel profiler (Figures 8-9), MPI per-call times for ``I_MPI_STATS``
(Table 1), SDMA descriptor counts for Figure 4 validation, and so on.
Recording is cheap (dict update) and can be disabled wholesale.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


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

    def add_many(self, values: Sequence[float]) -> None:
        """Fold ``values`` in, exactly as one :meth:`add` per value would.

        The total is summed left to right in a plain loop: ``sum()`` over
        floats rounds differently on newer Pythons."""
        total = self.total
        for value in values:
            total += value
        self.total = total
        self.count += len(values)
        low, high = min(values), max(values)
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Tracer:
    """Named counters, accumulators and optional (time, value) series."""

    __slots__ = ("enabled", "keep_series", "counters", "accs", "series")

    def __init__(self, enabled: bool = True, keep_series: bool = False,
                 counters: Optional[Dict[str, int]] = None,
                 accs: Optional[Dict[str, Accumulator]] = None,
                 series: Optional[Dict[str, List[Tuple[float, float]]]] = None):
        self.enabled = enabled
        self.keep_series = keep_series
        self.counters: Dict[str, int] = {} if counters is None else counters
        self.accs: Dict[str, Accumulator] = {} if accs is None else accs
        self.series: Dict[str, List[Tuple[float, float]]] = \
            {} if series is None else series

    def count(self, name: str, n: int = 1) -> None:
        """Increment a named counter."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n

    def record(self, name: str, value: float, t: Optional[float] = None) -> None:
        """Add a value to a named accumulator (and optional series)."""
        if not self.enabled:
            return
        acc = self.accs.get(name)
        if acc is None:
            acc = self.accs[name] = Accumulator()
        acc.add(value)
        if self.keep_series and t is not None:
            self.series.setdefault(name, []).append((t, value))

    def record_many(self, name: str, values: Sequence[float]) -> None:
        """Add a batch of values to a named accumulator: the same count,
        total, min and max as one :meth:`record` call per value (no
        series are kept, as for ``record`` without a time)."""
        if not self.enabled or not values:
            return
        acc = self.accs.get(name)
        if acc is None:
            acc = self.accs[name] = Accumulator()
        acc.add_many(values)

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

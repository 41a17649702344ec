"""Simple time series and windowed counters for experiment instrumentation."""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import (
    Callable,
    Dict,
    Generic,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

K = TypeVar("K")
N = TypeVar("N", int, float)


def _nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank selection from an ascending-sorted sequence.

    ``q=0`` selects the minimum, ``q=1`` the maximum; the sequence must be
    non-empty. This is the one selection rule shared by every percentile
    accessor in the repo (histograms approximate it on bucket edges).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not sorted_values:
        raise ValueError("cannot take a percentile of an empty sequence")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class TimeSeries:
    """Append-only (time, value) series with window aggregation.

    Timestamps must be non-decreasing (simulation time only moves forward),
    which keeps range queries a binary search.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def append(self, time: float, value: float) -> None:
        """Record ``value`` at ``time``; time must not regress."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"timestamps must be non-decreasing: {time} after {self._times[-1]}"
            )
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    def items(self) -> List[Tuple[float, float]]:
        """All (time, value) pairs."""
        return list(zip(self._times, self._values))

    def window(self, start: float, end: float) -> List[Tuple[float, float]]:
        """Pairs with ``start <= time < end``."""
        lo = bisect_left(self._times, start)
        hi = bisect_left(self._times, end)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def sum_in(self, start: float, end: float) -> float:
        """Sum of values in ``[start, end)``."""
        return sum(value for _, value in self.window(start, end))

    def mean_in(self, start: float, end: float) -> Optional[float]:
        """Mean of values in ``[start, end)``, or None when empty."""
        points = self.window(start, end)
        if not points:
            return None
        return sum(value for _, value in points) / len(points)

    def values_in(self, start: float, end: float) -> List[float]:
        """Values with ``start <= time < end`` (insertion order)."""
        lo = bisect_left(self._times, start)
        hi = bisect_left(self._times, end)
        return self._values[lo:hi]

    def percentile_in(self, start: float, end: float, q: float) -> Optional[float]:
        """Nearest-rank percentile of values in ``[start, end)``.

        Returns ``None`` when the window is empty, so callers can
        distinguish "no traffic" from "zero latency".
        """
        values = self.values_in(start, end)
        if not values:
            return None
        return _nearest_rank(sorted(values), q)

    def quantiles(
        self,
        qs: Sequence[float] = (0.5, 0.9, 0.99),
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Dict[float, float]:
        """Several percentiles over one window with a single sort.

        ``start``/``end`` default to the whole series; an empty window
        yields an empty dict.
        """
        if start is None and end is None:
            values = list(self._values)
        else:
            lo = 0 if start is None else bisect_left(self._times, start)
            hi = len(self._times) if end is None else bisect_left(self._times, end)
            values = self._values[lo:hi]
        if not values:
            return {}
        values.sort()
        return {q: _nearest_rank(values, q) for q in qs}

    def last(self) -> Optional[Tuple[float, float]]:
        """Most recent (time, value), or None when empty."""
        if not self._times:
            return None
        return self._times[-1], self._values[-1]


class WindowedCounter:
    """Event counter bucketed into fixed-width time windows.

    Used to build per-unit-time load series (e.g. beacon load per minute)
    without storing every event.
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.window = window
        self._buckets: List[float] = []

    def record(self, time: float, weight: float = 1.0) -> None:
        """Add ``weight`` to the bucket containing ``time``."""
        if time < 0:
            raise ValueError(f"time must be >= 0, got {time}")
        index = int(time / self.window)
        if index >= len(self._buckets):
            self._buckets.extend([0.0] * (index + 1 - len(self._buckets)))
        self._buckets[index] += weight

    def buckets(self) -> List[float]:
        """Per-window totals (copy)."""
        return list(self._buckets)

    def rate_series(self) -> List[float]:
        """Per-window event *rates* (totals divided by the window width)."""
        return [total / self.window for total in self._buckets]

    def total(self) -> float:
        """Sum across all windows."""
        return sum(self._buckets)

    def mean_rate(self) -> float:
        """Mean events per time unit over the observed span."""
        if not self._buckets:
            return 0.0
        return self.total() / (len(self._buckets) * self.window)


class WindowedDelta(Generic[K, N]):
    """Per-window deltas of the cumulative counters ``read`` returns.

    :meth:`take` returns how much each counter grew since the previous
    take (or construction, or :meth:`rebase`), keeping value types. A
    counter below its baseline was reset inside the window (the runner
    zeroes statistics at the warm-up boundary): its post-reset value *is*
    the delta.
    """

    def __init__(self, read: Callable[[], Mapping[K, N]]) -> None:
        self._read = read
        self._base = read()

    def rebase(self) -> None:
        """Restart the window at the counters' current totals."""
        self._base = self._read()

    def take(self) -> Dict[K, N]:
        """Deltas since the last take; the current totals become the base."""
        totals = self._read()
        base = self._base
        self._base = totals
        return {
            name: value - base.get(name, 0)
            if value >= base.get(name, 0)
            else value
            for name, value in totals.items()
        }

"""Span tracer that wraps the program's layer entry points from outside.

The tracer patches class attributes (and one module function) of the
``repro`` package with timing wrappers, so no file under ``src/`` changes.
Every wrapped call is a span. Spans nest through an explicit stack of
child-time accumulators: when a span closes, its duration is added to its
parent's accumulator, so a span's self time is its duration minus the time
its child spans cover.

Work a wrapper does for a counting hook (``before``/``after``) runs outside
the span's own interval and is also removed from the parent's self time, so
hook cost lands in the unattributed remainder, never in a layer.

Wrappers must be installed *before* the cloud is built: the program captures
some methods as bound methods at construction (for example the sub-range
cycle callback), and those captures must already point at the wrapper.

A bounded prefix of the spans is also kept as records (id, parent id, name,
start, end) and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: How many closed spans are kept as full records for the span log.
SPAN_LOG_LIMIT = 20_000


class SpanStat:
    """Aggregates of one span name: calls, inclusive and self seconds."""

    __slots__ = ("name", "layer", "calls", "total", "self_time")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0

    def mean_us(self) -> float:
        """Mean inclusive duration in microseconds (0 when never called)."""
        return self.total / self.calls * 1e6 if self.calls else 0.0

    def self_us(self) -> float:
        """Mean self time in microseconds (0 when never called)."""
        return self.self_time / self.calls * 1e6 if self.calls else 0.0


class Tracer:
    """Span bookkeeping shared by every installed wrapper."""

    def __init__(self) -> None:
        self.enabled = False
        #: One child-time accumulator per open span, innermost last.
        self.frames: List[float] = []
        self.stats: Dict[str, SpanStat] = {}
        #: Per-call inclusive durations (seconds) for percentile metrics.
        self.durations: Dict[str, array] = {}
        #: Counts gathered by hooks (holders walked, live holders, ...).
        self.counts: Dict[str, float] = {}
        #: Span records: (id, parent id, name, start, end); parent -1 = root.
        self.span_log: List[Tuple[int, int, str, float, float]] = []
        self._ids: List[int] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        before: Optional[Callable[[tuple], Any]] = None,
        after: Optional[Callable[[tuple, Any, float, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``before(args)`` runs before the span opens and returns a context;
        ``after(args, result, seconds, context)`` runs after it closes.
        """
        original = vars(owner)[attr]
        name = f"{owner.__name__}.{attr}"
        stat = self.stats.setdefault(name, SpanStat(name, layer))
        frames = self.frames
        perf = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            context = None
            if before is not None:
                h0 = perf()
                context = before(args)
                if frames:
                    frames[-1] += perf() - h0
            logging = len(tracer.span_log) < SPAN_LOG_LIMIT
            if logging:
                span_id = tracer._next_id
                tracer._next_id += 1
                tracer._ids.append(span_id)
            frames.append(0.0)
            t0 = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf()
                child = frames.pop()
                elapsed = t1 - t0
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - child
                if frames:
                    frames[-1] += elapsed
                if logging:
                    tracer._ids.pop()
                    parent = tracer._ids[-1] if tracer._ids else -1
                    tracer.span_log.append((span_id, parent, name, t0, t1))
            if after is not None:
                h0 = perf()
                after(args, result, elapsed, context)
                if frames:
                    frames[-1] += perf() - h0
            return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap_iterator(self, iterator, layer: str, name: str):
        """A generator that times each ``next()`` of ``iterator`` as a span."""
        stat = self.stats.setdefault(name, SpanStat(name, layer))
        frames = self.frames
        perf = time.perf_counter
        source = iter(iterator)
        while True:
            if not self.enabled:
                item = next(source, _DONE)
            else:
                frames.append(0.0)
                t0 = perf()
                item = next(source, _DONE)
                elapsed = perf() - t0
                child = frames.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - child
                if frames:
                    frames[-1] += elapsed
            if item is _DONE:
                return
            yield item

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Hook helpers
    # ------------------------------------------------------------------
    def add(self, key: str, amount: float = 1.0) -> None:
        """Add to a hook counter."""
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def sample(self, key: str, seconds: float) -> None:
        """Keep one duration for percentile metrics."""
        samples = self.durations.get(key)
        if samples is None:
            samples = self.durations[key] = array("d")
        samples.append(seconds)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def stat(self, name: str) -> SpanStat:
        """The aggregate for ``name`` (an empty one when never wrapped)."""
        return self.stats.get(name) or SpanStat(name, "")

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self seconds summed per layer."""
        totals: Dict[str, float] = {}
        for stat in self.stats.values():
            totals[stat.layer] = totals.get(stat.layer, 0.0) + stat.self_time
        return totals

    def percentile_us(self, key: str, q: float) -> float:
        """The ``q``-quantile (0..1) of kept durations, in microseconds."""
        samples = self.durations.get(key)
        if not samples:
            return 0.0
        ordered = sorted(samples)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index] * 1e6

    def write_span_log(self, path: str) -> None:
        """Write the kept span records as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.span_log:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


_DONE = object()

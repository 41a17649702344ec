"""The unified telemetry registry.

One :class:`Telemetry` object owns every observability primitive — named
counters, gauges, per-category histograms, the span recorder, and a raw
request-latency time series for windowed percentiles. As a subscriber of
the observer seam (:mod:`repro.core.observer`) it turns protocol events
into spans and wire attempts into histograms and counters; with nothing
subscribed the hot path pays a single attribute check and nothing else
(see the off-path structural equivalence tests in
tests/test_core_fabric.py).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.fabric import Delivery
from repro.core.node import MINUTES_TO_MS, RequestOutcome, RequestResult
from repro.core.observer import LegOutcome, ProtocolObserver
from repro.core.utility import PlacementContext
from repro.metrics.timeseries import TimeSeries
from repro.observe.histogram import LogHistogram
from repro.observe.spans import Span, SpanRecorder

__all__ = ["Telemetry"]

#: Shed kinds on the update path: the push is deferred, not shed.
_DEFERRED_KINDS = frozenset({"fanout_leg", "tree_push"})


class Telemetry(ProtocolObserver):
    """Counters, gauges, histograms, and a span sink behind one handle.

    Histograms are keyed ``latency_ms.<category>`` / ``bytes.<category>``
    and created on demand with fixed log-spaced buckets, so the export
    shape depends only on which categories saw traffic — not on the seed.
    """

    SCHEMA_VERSION = 1

    def __init__(self, max_spans: int = 10_000) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, LogHistogram] = {}
        self.spans = SpanRecorder(max_spans=max_spans)
        self.request_latencies = TimeSeries("request_latency_ms")
        #: The open request/update root span (its events nest under it).
        self._root: Optional[Span] = None

    # -- scalar instruments -------------------------------------------------

    def count(self, name: str, delta: int = 1) -> None:
        """Increment counter ``name`` by ``delta``."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = float(value)

    def histogram(self, name: str) -> LogHistogram:
        """Fetch-or-create the histogram named ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = LogHistogram()
            self.histograms[name] = hist
        return hist

    # -- protocol-plane hooks ----------------------------------------------

    def record_attempt(
        self, category: str, num_bytes: int, latency_minutes: Optional[float]
    ) -> None:
        """Record one fabric dispatch attempt for ``category``.

        ``latency_minutes`` is the transport's verdict: a float for a
        delivered message (converted to ms for the histogram), ``None``
        for a loss, which is counted instead of measured.
        """
        self.count(f"fabric.attempts.{category}")
        self.histogram(f"bytes.{category}").record(float(num_bytes))
        if latency_minutes is None:
            self.count(f"fabric.lost.{category}")
        else:
            self.histogram(f"latency_ms.{category}").record(
                latency_minutes * MINUTES_TO_MS
            )

    def observe_request(self, now: float, latency_ms: float) -> None:
        """Record one completed client request at sim-time ``now``."""
        self.request_latencies.append(now, latency_ms)
        self.histogram("latency_ms.request").record(latency_ms)

    # -- observer events (repro.core.observer) -----------------------------

    def request_begin(self, cache_id: int, doc_id: int, now: float) -> None:
        self._root = self.spans.begin("request", now, cache=cache_id, doc=doc_id)

    def request_end(self, now: float, result: RequestResult) -> None:
        assert self._root is not None
        self.spans.end(
            self._root,
            now + result.latency_ms / MINUTES_TO_MS,
            outcome=result.outcome.value,
            served_by=result.served_by,
            latency_ms=result.latency_ms,
        )
        self.count("requests." + result.outcome.value)
        if result.outcome is not RequestOutcome.REJECTED:
            # A rejected request has no service latency — recording its 0.0
            # would drag every latency percentile toward zero exactly when
            # the cloud is overloaded. Rejections are visible through the
            # requests.rejected counter and the overload statistics.
            self.observe_request(now, result.latency_ms)

    def update_begin(self, doc_id: int, now: float) -> None:
        self._root = self.spans.begin("update", now, doc=doc_id)

    def update_end(self, now: float, refreshed: int) -> None:
        assert self._root is not None
        # The root's end is widened to cover the propagation children.
        self.spans.end(self._root, now, refreshed=refreshed)
        self.count("updates.handled")

    def abort(self, now: float) -> None:
        assert self._root is not None
        self.spans.unwind(self._root, now)

    def leg(
        self, name: str, start: float, outcome: LegOutcome, units: int,
        attrs: Dict[str, object],
    ) -> None:
        span = self.spans.begin(name, start, **attrs)
        if isinstance(outcome, Delivery):
            end = start + outcome.latency
            self.spans.end(span, end, ok=outcome.ok, attempts=outcome.attempts)
        else:
            self.spans.end(span, outcome)

    def placement(
        self, time: float, stored: bool, context: Optional[PlacementContext]
    ) -> None:
        self.spans.end(self.spans.begin("placement", time, stored=stored), time)

    def shed(self, time: float, kind: str, node: int) -> None:
        if kind in _DEFERRED_KINDS:
            name, counter = "overload_defer", "overload.deferred.fanout"
        else:
            name, counter = "overload_shed", "overload.shed." + kind
        self.spans.end(self.spans.begin(name, time, kind=kind, node=node), time)
        self.count(counter)

    def attempt(
        self, src: int, dst: int, num_bytes: int, category: str,
        latency: Optional[float],
    ) -> None:
        self.record_attempt(category, num_bytes, latency)

    def rejection(self, category: str) -> None:
        self.count(f"fabric.rejected.{category}")

    def queue(self, dst: int, category: str, delay: float, depth: int) -> None:
        if delay > 0.0:
            self.histogram(f"queue_delay_ms.{category}").record(
                delay * MINUTES_TO_MS
            )
        self.gauge(f"queue_depth.{dst}", float(depth))

    # -- span sink delegates ------------------------------------------------

    def begin_span(self, name: str, start: float, **attrs: object) -> Span:
        return self.spans.begin(name, start, **attrs)

    def end_span(self, span: Span, end: float, **attrs: object) -> None:
        self.spans.end(span, end, **attrs)

    def __repr__(self) -> str:
        return (
            f"Telemetry(counters={len(self.counters)}, "
            f"histograms={len(self.histograms)}, spans={len(self.spans.spans)})"
        )

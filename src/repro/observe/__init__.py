"""Deterministic, zero-overhead-when-off observability for the protocol plane.

Every recorder here subscribes to the protocol plane's single observer
seam (:mod:`repro.core.observer`), whose typed events the roles, the
strategy plane and the message fabric emit. Six small modules:

* :mod:`repro.observe.spans` — request-scoped trace spans over sim time.
* :mod:`repro.observe.histogram` — fixed-bucket log-spaced histograms.
* :mod:`repro.observe.registry` — the :class:`Telemetry` subscriber that
  owns counters, gauges, histograms, and the span sink.
* :mod:`repro.observe.export` — canonical JSON artifact and text reports.
* :mod:`repro.observe.profile` — per-role, per-phase work attribution
  (:class:`WorkProfile`), charged from ``leg``/``walk``/``placement``.
* :mod:`repro.observe.flight` — the streaming windowed flight recorder
  (:class:`FlightRecorder`), its JSONL artifact, and the render/diff
  dashboard behind ``repro flight``.

Attach with ``cloud.attach_telemetry(Telemetry())``,
``cloud.attach_profile(WorkProfile())`` and/or
``cloud.attach_flight(FlightRecorder(path))``; when nothing is attached
the protocol plane's behavior and accounting are byte-identical to
running without this package imported at all.
"""

from repro.observe.export import (
    dump_json,
    find_tree,
    render_span_tree,
    render_summary,
    span_trees,
    telemetry_to_jsonable,
    write_json,
)
from repro.observe.flight import (
    FLIGHT_SCHEMA_VERSION,
    FlightLog,
    FlightRecorder,
    FlightSpec,
    FlightWriter,
    diff_flights,
    read_flight,
    render_flight_html,
    render_flight_report,
    sparkline,
)
from repro.observe.histogram import LogHistogram
from repro.observe.profile import PHASE_ROLES, PHASES, WorkProfile
from repro.observe.registry import Telemetry
from repro.observe.spans import Span, SpanRecorder

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "FlightLog",
    "FlightRecorder",
    "FlightSpec",
    "FlightWriter",
    "LogHistogram",
    "PHASES",
    "PHASE_ROLES",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "WorkProfile",
    "diff_flights",
    "dump_json",
    "find_tree",
    "read_flight",
    "render_flight_html",
    "render_flight_report",
    "render_span_tree",
    "render_summary",
    "span_trees",
    "sparkline",
    "telemetry_to_jsonable",
    "write_json",
]

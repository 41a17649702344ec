"""Deterministic per-role, per-phase work attribution (cost profiling).

The telemetry registry (:mod:`repro.observe.registry`) answers "what
happened on the wire"; this module answers "who did the work". A
:class:`WorkProfile` holds one integer pair per protocol *phase* — how many
times the phase ran (``counts``) and how many abstract work units it
consumed (``units``). It is a subscriber of the observer seam
(:mod:`repro.core.observer`): ``leg`` events charge the phase their span
name maps to (:data:`LEG_PHASES`), ``walk`` events charge
``holder_verify``, and ``placement`` events that carry a placement context
charge ``placement``:

========================  =========  =====================================
phase                     role       one unit is
========================  =========  =====================================
``beacon_lookup``         beacon     one lookup-RPC leg serviced
``holder_verify``         beacon     one holder candidate walked in
                                     ``answer_lookup`` (the ROADMAP
                                     holder-walk open item, measured)
``peer_fetch``            holder     one peer-transfer wire attempt
``origin_fetch``          origin     one origin-fetch wire attempt (a
                                     beacon-routed fetch charges both legs)
``placement``             requester  one live holder examined by a store
                                     decision, plus the decision itself
``fanout_leg``            beacon     one update fan-out push attempt
                                     (star leg or CUP tree push)
========================  =========  =====================================

Charging follows the telemetry attach contract: a cloud with no
subscriber executes the exact same instruction stream as before the
profiler existed (pinned by the structural-equivalence tests), and
charging draws no randomness and sends no messages — the numbers are a
pure function of the protocol's own deterministic execution.

``record_walk`` additionally feeds a ``holder_walk_length`` log-histogram
and a per-window hottest-documents table, which the flight recorder
(:mod:`repro.observe.flight`) drains at each window close.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.observer import LegOutcome, ProtocolObserver
from repro.core.utility import PlacementContext
from repro.observe.histogram import LogHistogram

__all__ = ["LEG_PHASES", "PHASES", "PHASE_ROLES", "WorkProfile"]

#: Every phase a role may charge, in protocol order.
PHASES: Tuple[str, ...] = (
    "beacon_lookup",
    "holder_verify",
    "peer_fetch",
    "origin_fetch",
    "placement",
    "fanout_leg",
)

#: The protocol role that performs each phase's work.
PHASE_ROLES: Dict[str, str] = {
    "beacon_lookup": "beacon",
    "holder_verify": "beacon",
    "fanout_leg": "beacon",
    "peer_fetch": "holder",
    "origin_fetch": "origin",
    "placement": "requester",
}

#: The phase each protocol leg's work is charged to, by span name. A
#: beacon-routed fetch charges both of its legs to ``origin_fetch``: no
#: peer served anything. Update notices, server→beacon bodies and origin
#: refreshes are not charged.
LEG_PHASES: Dict[str, str] = {
    "beacon_lookup": "beacon_lookup",
    "peer_fetch": "peer_fetch",
    "origin_fetch": "origin_fetch",
    "beacon_forward": "origin_fetch",
    "fanout_leg": "fanout_leg",
    "tree_push": "fanout_leg",
}


class WorkProfile(ProtocolObserver):
    """Cumulative per-phase work counters plus the holder-walk histogram.

    All state is integer counters and one fixed-bucket histogram: memory is
    O(phases) + O(distinct documents looked up in the current window), and
    two same-seed runs produce identical contents.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {phase: 0 for phase in PHASES}
        self.units: Dict[str, int] = {phase: 0 for phase in PHASES}
        #: Distribution of ``answer_lookup`` walk lengths over the whole
        #: recording (walks of length 0 land in the underflow bucket).
        self.walk_hist = LogHistogram(lower=1.0, upper=1e6, buckets_per_decade=4)
        #: doc_id -> longest walk observed this window (drained per window).
        self._window_walks: Dict[int, int] = {}
        self._window_walk_max = 0

    # ------------------------------------------------------------------
    # Charging (driven by observer events)
    # ------------------------------------------------------------------
    def charge(self, phase: str, units: int = 1) -> None:
        """Record one execution of ``phase`` costing ``units`` work units."""
        self.counts[phase] += 1
        self.units[phase] += units

    def record_walk(self, doc_id: int, walked: int) -> None:
        """One ``answer_lookup`` holder walk of ``walked`` candidates."""
        self.counts["holder_verify"] += 1
        self.units["holder_verify"] += walked
        self.walk_hist.record(float(walked))
        if walked > self._window_walks.get(doc_id, -1):
            self._window_walks[doc_id] = walked
        if walked > self._window_walk_max:
            self._window_walk_max = walked

    walk = record_walk

    def leg(
        self, name: str, start: float, outcome: LegOutcome, units: int,
        attrs: Dict[str, object],
    ) -> None:
        phase = LEG_PHASES.get(name)
        if phase is not None:
            self.charge(phase, units)

    def placement(
        self, time: float, stored: bool, context: Optional[PlacementContext]
    ) -> None:
        if context is not None:
            # One store decision, whose work scales with the live holders
            # whose residence the DAI component examined.
            self.charge("placement", 1 + len(context.existing_holders))

    # ------------------------------------------------------------------
    # Snapshots and window drains (called by observers)
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Copies of the cumulative (counts, units) maps, for deltas."""
        return dict(self.counts), dict(self.units)

    def drain_window(self, top_k: int) -> Tuple[int, List[Tuple[int, int]]]:
        """Close the current window's walk table.

        Returns ``(max_walk, top_docs)`` where ``top_docs`` holds at most
        ``top_k`` ``(doc_id, walk)`` pairs, longest walk first (ties break
        toward the lower doc id, so the list is deterministic), then resets
        the window-local state. The cumulative counters and the histogram
        are untouched — only the windowed view drains.
        """
        top = sorted(
            self._window_walks.items(), key=lambda item: (-item[1], item[0])
        )[: max(0, top_k)]
        max_walk = self._window_walk_max
        self._window_walks = {}
        self._window_walk_max = 0
        return max_walk, top

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready cumulative summary (phases with any activity only)."""
        return {
            "phases": {
                phase: [self.counts[phase], self.units[phase]]
                for phase in PHASES
                if self.counts[phase]
            },
            "holder_walk_length": self.walk_hist.to_dict(),
        }

    def __repr__(self) -> str:
        busy = {p: self.units[p] for p in PHASES if self.counts[p]}
        return f"WorkProfile(units={busy!r})"

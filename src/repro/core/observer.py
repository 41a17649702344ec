"""The observer seam: every protocol event goes to one subscriber reference.

The protocol roles, the strategy plane (``apply_store_decision``,
``CUPTreeStrategy``) and the :class:`~repro.core.fabric.MessageFabric`
report what they do as typed events to a single observer reference, held
by the fabric and mirrored on the cloud. It is ``None`` when nothing is
subscribed (the fast path: one ``is not None`` test per emitting site),
the subscriber itself when there is one, and an :class:`ObserverFanOut`
when there are several. Emitting draws no randomness and dispatches
nothing, so subscribing changes what is recorded, never what the
protocols do. DESIGN.md §8 tables every event with its emitter and what
each subscriber does with it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.fabric import Delivery
    from repro.core.node import RequestResult
    from repro.core.utility import PlacementContext

#: A leg's outcome: its :class:`~repro.core.fabric.Delivery` (the leg ends
#: at start + latency), or just its end time (forced origin fetches, the
#: bare update notice).
LegOutcome = Union["Delivery", float]

__all__ = ["EVENTS", "LegOutcome", "ObserverFanOut", "ProtocolObserver"]

#: Every event a :class:`ProtocolObserver` handles.
EVENTS = (
    "request_begin", "request_end", "update_begin", "update_end", "abort",
    "leg", "walk", "placement", "shed", "attempt", "rejection", "queue",
)


class ProtocolObserver:
    """A subscriber: every event handler is a no-op until overridden."""

    def request_begin(self, cache_id: int, doc_id: int, now: float) -> None:
        """A client request for ``doc_id`` arrived at ``cache_id``."""

    def request_end(self, now: float, result: "RequestResult") -> None:
        """The request that began at ``now`` was served (or rejected)."""

    def update_begin(self, doc_id: int, now: float) -> None:
        """The origin published an update of ``doc_id``."""

    def update_end(self, now: float, refreshed: int) -> None:
        """The update that began at ``now`` refreshed ``refreshed`` holders."""

    def abort(self, now: float) -> None:
        """The current request or update raised before it returned."""

    def leg(
        self, name: str, start: float, outcome: LegOutcome, units: int,
        attrs: Dict[str, object],
    ) -> None:
        """One protocol leg, dispatched at ``start``; ``units`` is its work
        (wire attempts, or lookup-RPC legs) and ``attrs`` describe it."""

    def walk(self, doc_id: int, walked: int) -> None:
        """A lookup walked ``walked`` directory candidates for ``doc_id``."""

    def placement(
        self, time: float, stored: bool, context: Optional["PlacementContext"]
    ) -> None:
        """A requester-side store decision, with the placement context the
        policy consulted (``None`` for the on-path rules)."""

    def shed(self, time: float, kind: str, node: int) -> None:
        """Overload shed a ``lookup``/``peer_fetch`` at ``node``, or
        deferred a ``fanout_leg``/``tree_push`` to it."""

    def attempt(
        self, src: int, dst: int, num_bytes: int, category: str,
        latency: Optional[float],
    ) -> None:
        """One wire attempt; ``latency`` is ``None`` when it was lost."""

    def rejection(self, category: str) -> None:
        """A delivered attempt was turned away by a full queue."""

    def queue(self, dst: int, category: str, delay: float, depth: int) -> None:
        """A delivered attempt waited ``delay`` at ``dst``'s queue, which
        then held ``depth`` messages."""


def _forward(handlers: Sequence[Callable[..., None]]) -> Callable[..., None]:
    def emit(*args: Any) -> None:
        for handler in handlers:
            handler(*args)

    return emit


class ObserverFanOut(ProtocolObserver):
    """Forwards every event to each subscriber, in subscription order.

    Emitters pass event arguments positionally; each handler is bound once
    here, so a fanned-out event costs one loop over bound methods.
    """

    def __init__(self, observers: Sequence[ProtocolObserver]) -> None:
        self.observers = tuple(observers)
        for event in EVENTS:
            handlers = [getattr(observer, event) for observer in self.observers]
            setattr(self, event, _forward(handlers))

    def __repr__(self) -> str:
        return f"ObserverFanOut({list(self.observers)!r})"

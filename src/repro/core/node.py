"""The requester-side protocol role: one cache node of the cloud.

:class:`CacheNode` wraps one :class:`~repro.edgecache.cache.EdgeCache`
with the message protocols the requester side of the paper speaks:
collaborative miss handling (lookup at the beacon point, peer transfer or
origin fetch), holder registration, and eviction notices. The *decisions*
along that path — how a group-miss fetch is routed and who stores the
retrieved copy — are delegated to the cloud's composed
:class:`~repro.strategies.base.CacheStrategy`; this module owns the
message legs only. The no-cooperation baseline
(:meth:`CacheNode.fetch_direct`) lives here too — it is the same node
talking only to the origin.

There is exactly ONE implementation of each protocol. Fault behaviour —
loss, retries, timeouts, forced deliveries — is a property of the
:class:`~repro.core.fabric.MessageFabric` the node dispatches through, not
of this code: with no injector attached every dispatch succeeds on its
first attempt and the failure branches below are simply never taken.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.core.fabric import Delivery
from repro.core.protocol import (
    DocumentTransfer,
    EvictionNotice,
    HolderRegistration,
    LookupRequest,
    LookupResponse,
)
from repro.core.utility import PlacementContext
from repro.edgecache.cache import EdgeCache
from repro.network.bandwidth import TrafficCategory
from repro.strategies.base import FetchRoute, ReplyHop, Retrieval, ServedFrom

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.cloud import CacheCloud

#: Simulated minutes -> reported milliseconds.
MINUTES_TO_MS = 60_000.0


class RequestOutcome(enum.Enum):
    """How a client request was ultimately served."""

    LOCAL_HIT = "local_hit"
    CLOUD_HIT = "cloud_hit"  # retrieved from a peer cache in the cloud
    ORIGIN_FETCH = "origin_fetch"  # group miss
    # Cooperative path abandoned after exhausting the retry budget.
    CLOUD_TIMEOUT_ORIGIN_FALLBACK = "cloud_timeout_origin_fallback"
    # No live beacon point could be found for the document.
    BEACON_DOWN_ORIGIN_FALLBACK = "beacon_down_origin_fallback"
    # Cooperative work shed by the overload controller (saturated beacon):
    # served origin-direct without consulting the cloud.
    OVERLOAD_ORIGIN_FALLBACK = "overload_origin_fallback"
    # The ingress cache's service queue was full: the client was turned
    # away entirely (the last rung of graceful degradation).
    REJECTED = "rejected"


@dataclass
class RequestResult:
    """Outcome + client-perceived latency of one request."""

    outcome: RequestOutcome
    latency_ms: float
    served_by: int  # cache id, or the origin's node id


class CacheNode:
    """Requester-side protocol behaviour for one edge cache."""

    def __init__(self, cloud: "CacheCloud", cache: EdgeCache) -> None:
        self._cloud = cloud
        self.cache = cache

    @property
    def cache_id(self) -> int:
        """The wrapped cache's id."""
        return self.cache.cache_id

    @property
    def cloud(self) -> "CacheCloud":
        """The owning cloud (public handle for the strategy plane)."""
        return self._cloud

    # ------------------------------------------------------------------
    # Collaborative miss handling (paper §2.1)
    # ------------------------------------------------------------------
    def serve_miss(self, doc_id: int, now: float) -> RequestResult:
        """Consult the beacon point; retrieve from a peer or the origin."""
        cloud = self._cloud
        fabric = cloud.fabric
        cache = self.cache
        cache_id = cache.cache_id
        document = cloud.corpus[doc_id]
        size = document.size_bytes
        version = cloud.origin.version_of(doc_id)
        irh = cloud.doc_irh(doc_id)

        beacon_id = cloud.routable_beacon(doc_id)
        if beacon_id is None:
            cloud.beacon_unreachable += 1
            return self.origin_fallback(
                doc_id, size, now,
                RequestOutcome.BEACON_DOWN_ORIGIN_FALLBACK, 0.0,
            )
        beacon_role = cloud.beacon_roles[beacon_id]
        overload = cloud.overload
        observer = cloud.observer
        if overload is not None and overload.shed_lookup(beacon_id):
            # Graceful degradation, first rung: the beacon point is
            # saturated (queue depth over the high watermark), so the
            # cooperative lookup is shed and the miss served origin-direct.
            # Cheaper for the beacon than rejecting the lookup RPC leg by
            # leg, and the requester is still served.
            if observer is not None:
                observer.shed(now, "lookup", beacon_id)
            return self.origin_fallback(
                doc_id, size, now,
                RequestOutcome.OVERLOAD_ORIGIN_FALLBACK, 0.0,
            )
        beacon_state = beacon_role.state
        hops = cloud.doc_hops(doc_id)
        # Lookup RPC (possibly multi-hop for consistent hashing). The load
        # counter ticks on every attempt whose request legs arrive — the
        # beacon did its work even if its response then went missing.
        request: Optional[LookupRequest] = None
        if fabric.trace.enabled:
            request = LookupRequest(cache_id, beacon_id, doc_id)
        # The delivery callback is the beacon state's bound ``record_lookup``
        # with the IrH value threaded through the fabric — no per-request
        # closure allocation on the hot path.
        lookup = fabric.request_response(
            cache_id,
            beacon_id,
            hops,
            irh=irh,
            on_request_delivered=beacon_state.record_lookup,
            request=request,
        )
        if observer is not None:
            observer.leg(
                "beacon_lookup", now, lookup, hops + 1,
                {"beacon": beacon_id, "hops": hops},
            )
        if not lookup.ok:
            return self._timed_out(doc_id, size, now, lookup.latency)

        holder_id = beacon_role.answer_lookup(doc_id, cache_id, version)
        if (
            holder_id is not None
            and overload is not None
            and overload.shed_peer_fetch(holder_id)
        ):
            # Second rung: the directory knows a holder, but that holder is
            # itself saturated — fetch from the origin instead of piling a
            # peer transfer onto its queue. The lookup already succeeded,
            # so this counts as an ordinary group miss downstream.
            if observer is not None:
                observer.shed(now, "peer_fetch", holder_id)
            holder_id = None
        if fabric.trace.enabled:
            # Only built under capture: the frozenset copy of the holder set
            # is pure instrumentation and must not tax the hot loop.
            fabric.emit(
                LookupResponse(
                    beacon_id,
                    cache_id,
                    doc_id,
                    frozenset(beacon_state.directory.holders(doc_id)),
                )
            )

        if holder_id is not None:
            transfer = self._send_copy(
                holder_id, cache_id, doc_id, size, TrafficCategory.PEER_TRANSFER
            )
            if observer is not None:
                observer.leg(
                    "peer_fetch", now + lookup.latency, transfer,
                    transfer.attempts, {"holder": holder_id, "bytes": size},
                )
            if not transfer.ok:
                # The peer copy never arrived; degrade to the origin.
                return self._timed_out(
                    doc_id, size, now, lookup.latency + transfer.latency
                )
            # Serving a peer refreshes the holder's recency for the document.
            cloud.caches[holder_id].storage.access(doc_id, now)
            cache.stats.cloud_hits += 1
            outcome = RequestOutcome.CLOUD_HIT
            served_by = holder_id
            transfer_latency = transfer.latency
        else:
            cache.stats.origin_fetches += 1
            outcome = RequestOutcome.ORIGIN_FETCH
            route = cloud.strategy.on_lookup(self, doc_id, beacon_id)
            if route is FetchRoute.VIA_BEACON:
                # The strategy wants an on-path storage point (beacon-point
                # placement, or the LCE/LCD/ProbCache chain), so the fetch
                # is routed through the beacon.
                return self._beacon_routed_fetch(
                    doc_id, size, version, now, beacon_id, lookup.latency
                )
            cloud.origin.serve_fetch(doc_id)
            transfer_latency = self._force_from_origin(doc_id, size)
            if observer is not None:
                fetch_start = now + lookup.latency
                observer.leg(
                    "origin_fetch", fetch_start, fetch_start + transfer_latency,
                    1, {"bytes": size},
                )
            served_by = cloud.origin.node_id

        # Admission decision at the requester, delegated to the strategy.
        cloud.strategy.on_retrieval(
            self,
            Retrieval(
                doc_id=doc_id,
                size_bytes=size,
                version=version,
                now=now,
                beacon_id=beacon_id,
                hop=ReplyHop.REQUESTER,
                served_from=(
                    ServedFrom.PEER
                    if outcome is RequestOutcome.CLOUD_HIT
                    else ServedFrom.ORIGIN
                ),
                decision_time=now + lookup.latency + transfer_latency,
            ),
        )
        latency_ms = MINUTES_TO_MS * (lookup.latency + transfer_latency)
        return RequestResult(outcome, latency_ms, served_by)

    def _beacon_routed_fetch(
        self,
        doc_id: int,
        size: int,
        version: int,
        now: float,
        beacon_id: int,
        lookup_latency: float,
    ) -> RequestResult:
        """Beacon-routed origin fetch (origin → beacon → requester).

        Taken when the strategy's ``on_lookup`` answers ``VIA_BEACON``: the
        beacon hop gets an on-path admission decision between the two legs,
        and the requester gets its own at the end.
        """
        cloud = self._cloud
        cache_id = self.cache.cache_id
        cloud.origin.serve_fetch(doc_id)
        observer = cloud.observer
        leg_start = now + lookup_latency
        leg_one = self._send_copy(
            cloud.origin.node_id, beacon_id, doc_id, size,
            TrafficCategory.ORIGIN_FETCH,
        )
        if observer is not None:
            observer.leg(
                "origin_fetch", leg_start, leg_one, leg_one.attempts,
                {"via_beacon": beacon_id, "bytes": size},
            )
        if not leg_one.ok:
            return self._timed_out(
                doc_id, size, now, lookup_latency + leg_one.latency
            )
        forward_start = leg_start + leg_one.latency
        # On-path admission at the beacon hop, between the two legs.
        cloud.strategy.on_retrieval(
            cloud.nodes[beacon_id],
            Retrieval(
                doc_id=doc_id,
                size_bytes=size,
                version=version,
                now=now,
                beacon_id=beacon_id,
                hop=ReplyHop.INTERMEDIATE,
                served_from=ServedFrom.ORIGIN_VIA_BEACON,
                decision_time=forward_start,
            ),
        )
        leg_two = self._send_copy(
            beacon_id, cache_id, doc_id, size, TrafficCategory.PEER_TRANSFER
        )
        if observer is not None:
            observer.leg(
                "beacon_forward", forward_start, leg_two, leg_two.attempts,
                {"beacon": beacon_id, "bytes": size},
            )
        if not leg_two.ok:
            return self._timed_out(
                doc_id, size, now,
                lookup_latency + leg_one.latency + leg_two.latency,
            )
        # Requester-side admission at the end of the routed fetch (the
        # beacon-point strategy declines here; the on-path family may store).
        cloud.strategy.on_retrieval(
            self,
            Retrieval(
                doc_id=doc_id,
                size_bytes=size,
                version=version,
                now=now,
                beacon_id=beacon_id,
                hop=ReplyHop.REQUESTER,
                served_from=ServedFrom.ORIGIN_VIA_BEACON,
                decision_time=forward_start + leg_two.latency,
            ),
        )
        latency_ms = MINUTES_TO_MS * (
            lookup_latency + leg_one.latency + leg_two.latency
        )
        return RequestResult(
            RequestOutcome.ORIGIN_FETCH, latency_ms, cloud.origin.node_id
        )

    # ------------------------------------------------------------------
    # Origin paths
    # ------------------------------------------------------------------
    def origin_fallback(
        self,
        doc_id: int,
        size: int,
        now: float,
        outcome: RequestOutcome,
        accrued_latency: float,
    ) -> RequestResult:
        """Serve from the origin after the cooperative path failed.

        The copy is stored ad hoc but *not* registered with the beacon —
        the directory was unreachable, which is exactly why we are here.
        Later lookups repair any resulting staleness.
        """
        cloud = self._cloud
        cache = self.cache
        cache.stats.origin_fetches += 1
        cloud.origin.serve_fetch(doc_id)
        transfer_latency = self._force_from_origin(doc_id, size)
        observer = cloud.observer
        if observer is not None:
            fetch_start = now + accrued_latency
            observer.leg(
                "origin_fetch", fetch_start, fetch_start + transfer_latency,
                1, {"bytes": size, "fallback": True},
            )
        version = cloud.origin.version_of(doc_id)
        evicted = cache.admit(doc_id, size, version, now)
        if evicted is None:
            cache.decline()
        else:
            for evicted_doc in evicted:
                self.notify_eviction(evicted_doc)
        latency_ms = MINUTES_TO_MS * (accrued_latency + transfer_latency)
        return RequestResult(outcome, latency_ms, cloud.origin.node_id)

    def fetch_direct(self, doc_id: int, now: float) -> RequestResult:
        """No-cooperation baseline: every miss goes to the origin.

        Both directions of the client fetch are dispatched — a control-sized
        request out plus the (forced) document back — so the reported
        round-trip latency and the bytes on the meter describe the same
        exchange. The document leg is forced for the same reason origin
        fetches always are: the origin is the last line of service.
        """
        cloud = self._cloud
        fabric = cloud.fabric
        cache = self.cache
        size = cloud.origin.serve_fetch(doc_id)
        request = fabric.send_control(
            cache.cache_id, cloud.origin.node_id, reliable=True
        )
        if not request.ok:
            # The origin never heard the request: the client's wait
            # (timeouts + backoff, already in ``request.latency``) still
            # counts, and the fallback counter must tick exactly as it does
            # on every cooperative path. The document leg below is forced —
            # the origin is the last line of service — so the client is
            # still served.
            cloud.fault_origin_fallbacks += 1
        transfer_latency = self._force_from_origin(doc_id, size)
        if cloud.observer is not None:
            # Request leg(s) plus the forced document leg of the direct fetch.
            cloud.observer.leg(
                "origin_fetch", now, now + request.latency + transfer_latency,
                request.attempts + 1, {"bytes": size, "direct": True},
            )
        cache.stats.origin_fetches += 1
        version = cloud.origin.version_of(doc_id)
        cache.admit(doc_id, size, version, now)  # ad hoc local store
        latency_ms = MINUTES_TO_MS * (request.latency + transfer_latency)
        return RequestResult(
            RequestOutcome.ORIGIN_FETCH, latency_ms, cloud.origin.node_id
        )

    # ------------------------------------------------------------------
    # Directory maintenance (registration + eviction notices)
    # ------------------------------------------------------------------
    def admit_and_register(
        self, doc_id: int, size: int, version: int, now: float
    ) -> None:
        """Store a copy locally and register it with the beacon point."""
        cloud = self._cloud
        cache = self.cache
        cache_id = cache.cache_id
        evicted = cache.admit(doc_id, size, version, now)
        if evicted is None:
            cache.decline()  # did not fit at all
            return
        irh = cloud.doc_irh(doc_id)
        beacon_id = cloud.beacon_for_doc(doc_id)
        beacon_role = cloud.beacon_roles[beacon_id]
        if cache_id == beacon_id:
            beacon_role.accept_registration(doc_id, irh, cache_id)
        elif not cloud.caches[beacon_id].alive:
            # Beacon unreachable: the copy stays unregistered and can only
            # serve local hits until a later registration succeeds.
            cloud.registrations_lost += 1
        else:
            message: Optional[HolderRegistration] = None
            if cloud.fabric.trace.enabled:
                message = HolderRegistration(cache_id, beacon_id, doc_id)
            delivery = cloud.fabric.send_control(
                cache_id, beacon_id, reliable=True, message=message
            )
            if delivery.ok:
                beacon_role.accept_registration(doc_id, irh, cache_id)
            else:
                cloud.registrations_lost += 1
        for evicted_doc in evicted:
            self.notify_eviction(evicted_doc)

    def notify_eviction(self, doc_id: int) -> None:
        """Tell the evicted document's beacon that this cache dropped it.

        Eviction notices are best-effort (no retransmission): a lost one
        leaves a stale directory entry that the next lookup's holder
        verification repairs.
        """
        cloud = self._cloud
        cache_id = self.cache.cache_id
        beacon_id = cloud.beacon_for_doc(doc_id)
        beacon_role = cloud.beacon_roles[beacon_id]
        if cache_id == beacon_id:
            beacon_role.accept_eviction(doc_id, cache_id)
            return
        if not cloud.caches[beacon_id].alive:
            cloud.eviction_notices_lost += 1
            return
        message: Optional[EvictionNotice] = None
        if cloud.fabric.trace.enabled:
            message = EvictionNotice(cache_id, beacon_id, doc_id)
        delivery = cloud.fabric.send_control(
            cache_id, beacon_id, reliable=False, message=message
        )
        if not delivery.ok:
            cloud.eviction_notices_lost += 1
            return
        beacon_role.accept_eviction(doc_id, cache_id)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def placement_context(
        self, doc_id: int, size: int, now: float, beacon_id: int
    ) -> PlacementContext:
        """Everything the placement policy needs for one store decision."""
        cloud = self._cloud
        cache = self.cache
        cache_id = cache.cache_id
        caches = cloud.caches
        # One pass over the directory's own holder set (no copy). Directory
        # entries can outlive their caches (churn kills a holder before its
        # entries are repaired); the policy must only see live replicas, in
        # ``existing_holders`` and the residence minimum alike — phantom
        # holders would deflate the DAI component.
        live: List[int] = []
        # An existing holder with no contention keeps its copy indefinitely;
        # only when every holder is under contention is the minimum finite,
        # so the residence queries stop at the first uncontended holder.
        contended = True
        min_residence: Optional[float] = None
        for h in cloud.beacons[beacon_id].directory.holders_view(doc_id):
            if h == cache_id:
                continue
            holder_cache = caches[h]
            if not holder_cache.alive:
                continue
            live.append(h)
            if contended:
                residence = holder_cache.storage.expected_residence(now)
                if residence is None:
                    contended = False
                    min_residence = None
                elif min_residence is None or residence < min_residence:
                    min_residence = residence
        update_tracker = cloud._update_rates.get(doc_id)
        return PlacementContext(
            cache_id=cache_id,
            doc_id=doc_id,
            size_bytes=size,
            now=now,
            beacon_id=beacon_id,
            existing_holders=frozenset(live),
            local_access_rate=cache.frequencies.rate_of(doc_id, now),
            cache_mean_rate=cache.frequencies.mean_rate(now),
            update_rate=update_tracker.rate(now) if update_tracker else 0.0,
            expected_residence_new=cache.storage.expected_residence(now),
            min_residence_existing=min_residence,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _timed_out(
        self, doc_id: int, size: int, now: float, accrued_latency: float
    ) -> RequestResult:
        """The cooperative path exhausted its retry budget: serve from the
        origin (counted as a fault fallback)."""
        self._cloud.fault_origin_fallbacks += 1
        return self.origin_fallback(
            doc_id, size, now,
            RequestOutcome.CLOUD_TIMEOUT_ORIGIN_FALLBACK, accrued_latency,
        )

    def _send_copy(
        self,
        src: int,
        dst: int,
        doc_id: int,
        size: int,
        category: TrafficCategory,
    ) -> Delivery:
        """Reliably dispatch one copy of ``doc_id`` (traced when capture is
        on)."""
        fabric = self._cloud.fabric
        message: Optional[DocumentTransfer] = None
        if fabric.trace.enabled:
            message = DocumentTransfer(src, dst, doc_id, size, category.value)
        return fabric.send_document(
            src, dst, size, category, reliable=True, message=message
        )

    def _force_from_origin(self, doc_id: int, size: int) -> float:
        """The origin's copy of ``doc_id`` to this cache, forced past the
        retry budget (the origin is the last line of service)."""
        cloud = self._cloud
        src, dst = cloud.origin.node_id, self.cache.cache_id
        message: Optional[DocumentTransfer] = None
        if cloud.fabric.trace.enabled:
            message = DocumentTransfer(
                src, dst, doc_id, size, TrafficCategory.ORIGIN_FETCH.value
            )
        return cloud.fabric.send_forced_document(
            src, dst, size, TrafficCategory.ORIGIN_FETCH, message=message
        )

    def __repr__(self) -> str:
        return f"CacheNode(cache={self.cache!r})"

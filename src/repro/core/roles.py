"""Server-side protocol roles: the beacon point and the origin facade.

The cache-cloud protocols have three message-speaking parties. The
requester side lives in :class:`repro.core.node.CacheNode`; this module
holds the other two:

* :class:`BeaconRole` — the per-document directory authority (paper §2.2):
  answers lookups (with holder verification and lazy directory repair),
  accepts holder registrations and eviction notices, ticks the IrH load
  counters that drive sub-range determination, and fans updates out to the
  document's holders.
* :class:`OriginRole` — the cloud-facing facade over the shared
  :class:`~repro.network.origin.OriginServer`: serves group-miss fetches
  and, when no live beacon point exists (or cooperation is off), refreshes
  every holding cache individually.

All messaging goes through the cloud's single
:class:`~repro.core.fabric.MessageFabric`, so loss/retry behaviour and byte
accounting are fabric properties, not role code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.beacon import BeaconState
from repro.core.protocol import UpdateNotice, UpdatePush
from repro.network.bandwidth import TrafficCategory
from repro.network.origin import OriginServer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.cloud import CacheCloud


class BeaconRole:
    """Beacon-point protocol behaviour for one cache.

    Wraps the cache's :class:`~repro.core.beacon.BeaconState` (directory +
    load counters, which stay a plain data object for tests and the audit
    layer) with the message protocols the role speaks.
    """

    def __init__(self, cloud: "CacheCloud", state: BeaconState) -> None:
        self._cloud = cloud
        self.state = state

    @property
    def beacon_id(self) -> int:
        """The hosting cache's id."""
        return self.state.cache_id

    @property
    def cloud(self) -> "CacheCloud":
        """The owning cloud (public handle for the strategy plane)."""
        return self._cloud

    # ------------------------------------------------------------------
    # Lookup answering
    # ------------------------------------------------------------------
    def answer_lookup(
        self, doc_id: int, requester: int, version: int
    ) -> Optional[int]:
        """Choose a live, fresh holder; repair stale directory entries.

        Preference order: nearest holder by transport latency (all ties
        break toward the lowest cache id for determinism).
        """
        cloud = self._cloud
        caches = cloud.caches
        directory = self.state.directory
        holders = directory.holders_view(doc_id)
        if cloud.observer is not None:
            # The walk below visits every holder but the requester exactly
            # once: this is the O(holders) verification cost, reported before
            # the loop so the length is independent of how many entries it
            # repairs.
            cloud.observer.walk(doc_id, len(holders) - (requester in holders))
        live: List[int] = []
        stale: List[int] = []
        for holder in holders:
            if holder == requester:
                continue
            holder_cache = caches[holder]
            # Freshness check inlined from ``EdgeCache.holds_fresh``: the
            # verification loop runs for every holder of every lookup.
            copy = holder_cache.storage.get(doc_id)
            if holder_cache.alive and copy is not None and copy.version >= version:
                live.append(holder)
            else:
                # Directory entry out of date (failure or stale replica).
                stale.append(holder)
        if stale:
            # Repaired after the walk: ``holders`` is the directory's own set.
            for holder in stale:
                directory.remove_holder(doc_id, holder)
            cloud.directory_repairs += len(stale)
        if not live:
            return None
        if cloud.transport.topology is None:
            return min(live)
        return min(
            live,
            key=lambda h: (cloud.transport.latency_minutes(h, requester), h),
        )

    # ------------------------------------------------------------------
    # Directory bookkeeping (invoked by delivered protocol messages)
    # ------------------------------------------------------------------
    def accept_registration(self, doc_id: int, irh: int, holder: int) -> None:
        """Record ``holder`` as holding ``doc_id``."""
        self.state.directory.add_holder(doc_id, irh, holder)

    def accept_eviction(self, doc_id: int, holder: int) -> None:
        """Remove ``holder`` from the document's holder set."""
        self.state.directory.remove_holder(doc_id, holder)

    # ------------------------------------------------------------------
    # Cooperative update propagation (paper §2.2)
    # ------------------------------------------------------------------
    def receive_update(
        self, doc_id: int, version: int, size: int, now: float
    ) -> Optional[Tuple[List[int], float]]:
        """The server→beacon half of an update, shared by every fan-out.

        Sends the bare invalidation notice when no live holder exists, the
        fresh body otherwise. Returns ``(sorted live holders, time the body
        reached the beacon)``, or ``None`` when there is nothing to push: no
        holder, or a lost body — which leaves *every* holder stale until its
        next request repairs it.
        """
        cloud = self._cloud
        fabric = cloud.fabric
        beacon_id = self.beacon_id
        caches = cloud.caches
        holders = [
            h
            for h in sorted(self.state.directory.holders(doc_id))
            if caches[h].alive and caches[h].storage.get(doc_id) is not None
        ]
        if fabric.trace.enabled:
            fabric.emit(
                UpdateNotice(doc_id, version, beacon_id, bool(holders), size)
            )
        cloud.origin.note_update_message(doc_id)
        origin_id = cloud.origin.node_id
        observer = cloud.observer
        if not holders:
            notice = fabric.send_control(origin_id, beacon_id, reliable=True)
            if observer is not None:
                observer.leg(
                    "update_notice", now, now + notice.latency,
                    notice.attempts, {"beacon": beacon_id, "ok": notice.ok},
                )
            if notice.ok:
                self.state.record_update(cloud.doc_irh(doc_id))
            return None
        body = fabric.send_document(
            origin_id,
            beacon_id,
            size,
            TrafficCategory.UPDATE_SERVER_TO_BEACON,
            reliable=True,
        )
        if observer is not None:
            observer.leg(
                "server_to_beacon", now, body, body.attempts,
                {"beacon": beacon_id, "bytes": size},
            )
        if not body.ok:
            cloud.update_pushes_lost += len(holders)
            return None
        self.state.record_update(cloud.doc_irh(doc_id))
        return holders, now + body.latency

    def propagate_update(
        self, doc_id: int, version: int, size: int, now: float
    ) -> int:
        """One server→beacon transfer, fanned out in-cloud to holders.

        This star fan-out is the default ``on_update`` of every strategy in
        :mod:`repro.strategies`;
        :class:`~repro.strategies.cup.CUPTreeStrategy` replaces it with an
        interest-tree push rooted at the same beacon. Both start with
        :meth:`receive_update`.

        Returns the number of holders refreshed. A lost fan-out push leaves
        that one holder stale; the version check on its next request
        detects and repairs it.
        """
        received = self.receive_update(doc_id, version, size, now)
        if received is None:
            return 0
        # Fan-out legs all start once the body has reached the beacon.
        holders, fanout_start = received
        cloud = self._cloud
        fabric = cloud.fabric
        beacon_id = self.beacon_id
        observer = cloud.observer
        overload = cloud.overload
        refreshed = 0
        for holder in holders:
            if holder != beacon_id:
                if overload is not None and overload.defer_fanout(holder):
                    # Graceful degradation: a saturated holder's push leg is
                    # deferred rather than queued. The holder stays stale —
                    # the same recovery contract as a *lost* push (version
                    # check on its next request, or anti-entropy, repairs
                    # it), so deferral needs no new repair machinery.
                    if observer is not None:
                        observer.shed(fanout_start, "fanout_leg", holder)
                    continue
                push = fabric.send_document(
                    beacon_id,
                    holder,
                    size,
                    TrafficCategory.UPDATE_FANOUT,
                    reliable=True,
                )
                if observer is not None:
                    observer.leg(
                        "fanout_leg", fanout_start, push, push.attempts,
                        {"holder": holder, "bytes": size},
                    )
                if not push.ok:
                    cloud.update_pushes_lost += 1
                    continue
                if fabric.trace.enabled:
                    fabric.emit(
                        UpdatePush(beacon_id, holder, doc_id, version, size)
                    )
            cloud.caches[holder].apply_update(doc_id, version, now, size_bytes=size)
            refreshed += 1
        return refreshed

    def __repr__(self) -> str:
        return f"BeaconRole(state={self.state!r})"


class OriginRole:
    """Cloud-facing facade over the shared origin server.

    The underlying :class:`OriginServer` stays a pure version/counter model
    (it may be shared by many clouds in an edge network); this facade binds
    it to *one* cloud's fabric for the message protocols it participates in.
    """

    def __init__(self, cloud: "CacheCloud", server: OriginServer) -> None:
        self._cloud = cloud
        self.server = server

    @property
    def node_id(self) -> int:
        """The origin's node id in the topology."""
        return self.server.node_id

    # ------------------------------------------------------------------
    # Degraded update path (no live beacon, or cooperation off)
    # ------------------------------------------------------------------
    def refresh_holders(
        self, doc_id: int, version: int, size: int, now: float
    ) -> int:
        """Refresh every holding cache individually from the origin.

        Serves both the no-cooperation baseline and the degraded update
        path when no live beacon exists. Each refresh is a reliable
        dispatch; a holder whose refresh is lost stays stale (repaired and
        counted on its next request).
        """
        cloud = self._cloud
        fabric = cloud.fabric
        refreshed = 0
        for cache in cloud.caches:
            if cache.alive and cache.holds(doc_id):
                self.server.note_update_message(doc_id)
                push = fabric.send_document(
                    self.node_id,
                    cache.cache_id,
                    size,
                    TrafficCategory.UPDATE_SERVER_TO_BEACON,
                    reliable=True,
                )
                if cloud.observer is not None:
                    cloud.observer.leg(
                        "origin_refresh", now, push, push.attempts,
                        {"holder": cache.cache_id, "bytes": size},
                    )
                if not push.ok:
                    cloud.update_pushes_lost += 1
                    continue
                cache.apply_update(doc_id, version, now, size_bytes=size)
                refreshed += 1
        return refreshed

    def __repr__(self) -> str:
        return f"OriginRole(server={self.server!r})"

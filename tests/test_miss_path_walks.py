"""The miss path's holder walks against naive references.

``BeaconRole.answer_lookup`` and ``CacheNode.placement_context`` walk the
directory's own holder set (``LookupDirectory.holders_view``) without
copying or sorting it. These tests pin them to the straightforward
versions — copy the holder set, drop the requester, walk it in sorted
order, repair as you go, and compute every holder's residence — on a
cloud with a topology (nearest holder wins, ties to the lowest id) and
on one without (lowest id wins).
"""

from __future__ import annotations

import pytest

from repro.core.cloud import CacheCloud
from repro.core.config import CloudConfig, PlacementScheme
from repro.core.directory import LookupDirectory
from repro.core.observer import ProtocolObserver
from repro.network.topology import EuclideanTopology
from repro.network.transport import Transport
from repro.workload.documents import build_corpus

NUM_CACHES = 8
DOC = 3
NOW = 50.0


class WalkLog(ProtocolObserver):
    def __init__(self):
        self.walks = []

    def walk(self, doc_id, walked):
        self.walks.append((doc_id, walked))


def _cloud(with_topology: bool) -> CacheCloud:
    config = CloudConfig(
        num_caches=NUM_CACHES,
        num_rings=2,
        intra_gen=100,
        placement=PlacementScheme.UTILITY,
        capacity_bytes=10_000_000,
    )
    transport = Transport()
    if with_topology:
        # Latency order from cache 0 differs from id order: 1, 4 and 6 are
        # nearest (the bad entries below), then 5; 2 and 3 tie, so only
        # the id can break it.
        positions = {
            0: (0.0, 0.0),
            1: (5.0, 0.0),
            2: (0.0, -20.0),
            3: (0.0, 20.0),
            4: (8.0, 0.0),
            5: (10.0, 0.0),
            6: (9.0, 0.0),
            7: (70.0, 0.0),
        }
        positions[-1] = (100.0, 100.0)
        transport = Transport(topology=EuclideanTopology(positions))
    return CacheCloud(config, build_corpus(20, fixed_size=1024), transport=transport)


def _register(cloud: CacheCloud, cache_id: int, version: int) -> None:
    """Give ``cache_id`` a copy of DOC at ``version`` and a directory entry."""
    size = cloud.corpus[DOC].size_bytes
    cloud.caches[cache_id].storage.admit(DOC, size, version, NOW - 10.0)
    _directory(cloud).add_holder(DOC, cloud.doc_irh(DOC), cache_id)


def _directory(cloud: CacheCloud) -> LookupDirectory:
    return cloud.beacons[cloud.beacon_for_doc(DOC)].directory


def _contend(cloud: CacheCloud, cache_id: int, residence: float) -> None:
    """Record one eviction of ``residence`` minutes at ``cache_id``."""
    storage = cloud.caches[cache_id].storage
    filler = 19
    storage.admit(filler, 1024, 0, NOW - residence)
    storage.remove(filler, NOW, count_as_eviction=True)


def _naive_lookup(cloud: CacheCloud, requester: int, version: int):
    """(chosen holder, entries to repair), by the copy-and-sort walk."""
    candidates = set(_directory(cloud).holders(DOC))
    candidates.discard(requester)
    live, repaired = [], []
    for holder in sorted(candidates):
        cache = cloud.caches[holder]
        copy = cache.storage.get(DOC)
        if cache.alive and copy is not None and copy.version >= version:
            live.append(holder)
        else:
            repaired.append(holder)
    if not live:
        return None, repaired
    transport = cloud.transport
    if transport.topology is None:
        return live[0], repaired
    chosen = min(live, key=lambda h: (transport.latency_minutes(h, requester), h))
    return chosen, repaired


def _naive_placement(cloud: CacheCloud, requester: int):
    """(existing_holders, min_residence_existing), every residence queried."""
    holders = set(_directory(cloud).holders(DOC))
    holders.discard(requester)
    live = [h for h in holders if cloud.caches[h].alive]
    residences = [cloud.caches[h].storage.expected_residence(NOW) for h in live]
    finite = [r for r in residences if r is not None]
    if finite and len(finite) == len(residences):
        return frozenset(live), min(finite)
    return frozenset(live), None


@pytest.fixture(params=[False, True], ids=["no_topology", "topology"])
def cloud(request):
    return _cloud(request.param)


class TestAnswerLookup:
    def _populate(self, cloud: CacheCloud) -> int:
        """Holders 0-7 of DOC with one bad entry of each kind; returns the
        current version."""
        version = cloud.origin.publish_update(DOC)
        for cache_id in range(NUM_CACHES):
            _register(cloud, cache_id, version)
        # Holder 1: crashed with its copy still on disk (dead).
        cloud.caches[1].alive = False
        # Holder 4: missed the update push (stale version).
        cloud.caches[4].storage.refresh_version(DOC, version - 1, now=NOW)
        # Holder 6: dropped the copy, eviction notice lost (no copy).
        cloud.caches[6].storage.remove(DOC, NOW)
        return version

    def test_repairs_bad_entries_once_and_matches_reference(self, cloud):
        version = self._populate(cloud)
        requester = 0
        # The requester missed, so its own entry is stale too; the lookup
        # skips it rather than repairing it.
        cloud.caches[requester].storage.remove(DOC, NOW)
        expected, repaired = _naive_lookup(cloud, requester, version)
        assert repaired == [1, 4, 6]
        before = _directory(cloud).holders(DOC)
        log = WalkLog()
        cloud.fabric.subscribe("walks", log)
        role = cloud.beacon_roles[cloud.beacon_for_doc(DOC)]

        chosen = role.answer_lookup(DOC, requester, version)

        assert chosen == expected
        assert _directory(cloud).holders(DOC) == before - set(repaired)
        assert requester in _directory(cloud).holders(DOC)
        assert cloud.directory_repairs == len(repaired)
        assert log.walks == [(DOC, len(before) - 1)]

    def test_choice_order(self, cloud):
        version = self._populate(cloud)
        role = cloud.beacon_roles[cloud.beacon_for_doc(DOC)]
        nearest_first = cloud.transport.topology is not None
        # Live holders are 2, 3, 5 and 7: the nearest is 5, the lowest id 2.
        assert role.answer_lookup(DOC, 0, version) == (5 if nearest_first else 2)
        # Without 5, the latency tie between 2 and 3 breaks toward 2.
        _directory(cloud).remove_holder(DOC, 5)
        assert role.answer_lookup(DOC, 0, version) == 2
        # Revived and re-registered, 1 is both the nearest and the lowest id.
        cloud.caches[1].alive = True
        _directory(cloud).add_holder(DOC, cloud.doc_irh(DOC), 1)
        assert role.answer_lookup(DOC, 0, version) == 1

    def test_requester_outside_holder_set(self, cloud):
        version = self._populate(cloud)
        requester = 0
        _directory(cloud).remove_holder(DOC, requester)
        expected, repaired = _naive_lookup(cloud, requester, version)
        log = WalkLog()
        cloud.fabric.subscribe("walks", log)
        role = cloud.beacon_roles[cloud.beacon_for_doc(DOC)]
        before = _directory(cloud).holders(DOC)

        assert role.answer_lookup(DOC, requester, version) == expected
        assert cloud.directory_repairs == len(repaired) == 3
        # Every entry is walked when the requester holds none of them.
        assert log.walks == [(DOC, len(before))]

    def test_all_bad_entries_drop_the_document(self, cloud):
        version = cloud.origin.publish_update(DOC)
        for cache_id in (2, 3):
            _register(cloud, cache_id, version)
            cloud.caches[cache_id].alive = False
        role = cloud.beacon_roles[cloud.beacon_for_doc(DOC)]
        assert role.answer_lookup(DOC, 0, version) is None
        assert cloud.directory_repairs == 2
        assert not _directory(cloud).knows(DOC)

    def test_unknown_document(self, cloud):
        role = cloud.beacon_roles[cloud.beacon_for_doc(DOC)]
        log = WalkLog()
        cloud.fabric.subscribe("walks", log)
        assert role.answer_lookup(DOC, 0, 0) is None
        assert cloud.directory_repairs == 0
        assert log.walks == [(DOC, 0)]


class TestPlacementContext:
    def _placement(self, cloud: CacheCloud, requester: int):
        node = cloud.nodes[requester]
        return node.placement_context(
            DOC, cloud.corpus[DOC].size_bytes, NOW, cloud.beacon_for_doc(DOC)
        )

    def _populate(self, cloud: CacheCloud) -> None:
        for cache_id in (0, 2, 3, 5, 7):
            _register(cloud, cache_id, 0)
        cloud.caches[3].alive = False  # dead: excluded everywhere
        for cache_id, residence in ((0, 1.5), (2, 7.25), (3, 0.5), (5, 3.0), (7, 3.0)):
            _contend(cloud, cache_id, residence)

    def test_every_holder_contended(self, cloud):
        self._populate(cloud)
        ctx = self._placement(cloud, requester=0)
        holders, min_residence = _naive_placement(cloud, 0)
        assert ctx.existing_holders == holders == frozenset({2, 5, 7})
        assert ctx.min_residence_existing == min_residence == 3.0

    def test_one_uncontended_holder_makes_the_minimum_unbounded(self, cloud):
        self._populate(cloud)
        _register(cloud, 6, 0)  # no eviction at cache 6 yet
        for requester in (0, 1, 6):
            ctx = self._placement(cloud, requester)
            holders, min_residence = _naive_placement(cloud, requester)
            assert ctx.existing_holders == holders
            assert ctx.min_residence_existing == min_residence
        assert self._placement(cloud, 0).min_residence_existing is None
        # Cache 6 deciding for itself sees only contended peers.
        assert self._placement(cloud, 6).min_residence_existing == 1.5

    def test_no_holders(self, cloud):
        ctx = self._placement(cloud, requester=0)
        assert ctx.existing_holders == frozenset()
        assert ctx.min_residence_existing is None

    def test_walk_leaves_the_directory_untouched(self, cloud):
        self._populate(cloud)
        before = _directory(cloud).holders(DOC)
        self._placement(cloud, requester=0)
        assert _directory(cloud).holders(DOC) == before


class TestHolderViews:
    def test_mutating_the_holders_copy_leaves_the_directory_untouched(self):
        directory = LookupDirectory()
        directory.add_holder(DOC, 5, 1)
        directory.add_holder(DOC, 5, 2)
        copy = directory.holders(DOC)
        copy.add(9)
        copy.discard(1)
        assert directory.holders(DOC) == {1, 2}
        assert directory.holders_view(DOC) == {1, 2}
        directory.holders(99).add(4)
        assert not directory.knows(99)

    def test_view_is_the_live_set(self):
        directory = LookupDirectory()
        assert directory.holders_view(DOC) == frozenset()
        directory.add_holder(DOC, 5, 1)
        view = directory.holders_view(DOC)
        directory.add_holder(DOC, 5, 2)
        assert view == {1, 2}
        assert directory.holders_view(DOC) is view

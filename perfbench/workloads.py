"""The benchmark's workloads and their measurement passes.

Each workload builds its system from public ``repro`` APIs, warms it up, and
then drives a seeded record stream through it in a closed loop: the next
record is issued only after the previous call returned. The seed draws the
traffic (arrival times, which document each record names, which cache it
enters at); the *site* (corpus sizes, popularity order, live set) is part of
the workload's definition and comes from ``SITE_SEED``, so the simulated
metrics stay comparable across seeds.

A *pass* runs the timed phase on a warmed state. Its first ``fixed_chunks``
chunks (``federation_fill``) or its first whole-duration replay
(``sydney_sim``) are the fixed prefix: the simulated metrics and the
fingerprint are taken over exactly that work, so they repeat bit for bit for
a given seed. The amount of timed work is fixed for a given ``--seconds``:
``seconds x nominal_rate`` records, where the nominal rate is what the
workload reached on a 2-vCPU Xeon VM, so every count and the peak memory are
independent of host speed.

A run times the same records several times: every ``federation_fill`` pass
replays them from its own, identical warm state, and every ``sydney_sim``
replay from a fresh build. Each replay is cut into chunks, and throughput is
one replay's records over the sum, chunk by chunk, of the fastest time any
replay took for that chunk. The host's speed drifts by up to 2x over seconds
to minutes and interference only ever adds time, so the fastest time is the
steadiest estimate of the program's own cost, as with ``timeit``'s minimum.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Tuple

import repro.experiments.runner as runner
from repro.audit.invariants import InvariantAuditor
from repro.core.cloud import CacheCloud
from repro.core.config import (
    WEIGHTS_DSCC_OFF,
    AssignmentScheme,
    CloudConfig,
    PlacementScheme,
)
from repro.core.edgenetwork import EdgeCacheNetwork
from repro.experiments.runner import run_experiment
from repro.metrics.loadbalance import coefficient_of_variation
from repro.network.bandwidth import TrafficCategory, TrafficMeter
from repro.simulation.engine import Simulator
from repro.simulation.events import EventPriority
from repro.simulation.rng import RandomStreams
from repro.workload.documents import build_corpus
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator

#: Seed of the fixed site every workload serves (the figures' scale seed).
SITE_SEED = 7

#: Counters whose growth means an operation was rejected, lost or took a
#: fault fallback. All stay 0 on a fault-free cloud.
FAILURE_COUNTERS = (
    "fault_origin_fallbacks",
    "beacon_unreachable",
    "requests_redirected",
    "update_pushes_lost",
    "registrations_lost",
    "eviction_notices_lost",
)


# ----------------------------------------------------------------------
# Counters, fingerprints and the GC probe
# ----------------------------------------------------------------------
def snapshot(
    clouds: List[CacheCloud],
    meter: TrafficMeter,
    network: Optional[EdgeCacheNetwork] = None,
) -> Dict[str, Any]:
    """Cumulative counters of ``clouds`` and their meter, as plain values.

    A federation's updates bypass ``CacheCloud.handle_update``, so with a
    ``network`` the request and update totals come from the network.
    """
    counts: Dict[str, Any] = {
        "requests_handled": 0, "updates_handled": 0, "requests": 0,
        "local_hits": 0, "cloud_hits": 0, "origin_fetches": 0,
        "stores": 0, "placement_rejects": 0, "evictions": 0,
        "dispatches": 0, "fast_path_dispatches": 0, "retries": 0,
        "timeouts": 0, "rejections": 0, "directory_repairs": 0, "failures": 0,
    }
    loads: List[float] = []
    for cloud in clouds:
        counts["requests_handled"] += cloud.requests_handled
        counts["updates_handled"] += cloud.updates_handled
        counts["directory_repairs"] += cloud.directory_repairs
        counts["failures"] += sum(getattr(cloud, name) for name in FAILURE_COUNTERS)
        fabric = cloud.fabric
        counts["dispatches"] += fabric.stats.dispatches
        counts["retries"] += fabric.stats.retries
        counts["timeouts"] += fabric.stats.timeouts
        counts["rejections"] += fabric.stats.rejections
        if (
            fabric.faults is None and fabric.dispatch_log is None
            and fabric.telemetry is None and fabric.flight is None
            and fabric.service is None
        ):
            counts["fast_path_dispatches"] += fabric.stats.dispatches
        for cache in cloud.caches:
            stats = cache.stats
            counts["requests"] += stats.requests
            counts["local_hits"] += stats.local_hits
            counts["cloud_hits"] += stats.cloud_hits
            counts["origin_fetches"] += stats.origin_fetches
            counts["stores"] += stats.stores
            counts["placement_rejects"] += stats.placement_rejects
            counts["evictions"] += cache.storage.evictions
        loads.extend(cloud.beacon_loads()[cid] for cid in sorted(cloud.beacons))
    if network is not None:
        counts["requests_handled"] = network.requests_handled
        counts["updates_handled"] = network.updates_handled
    counts["beacon_loads"] = loads
    counts["bytes"] = {c.value: meter.bytes_for(c) for c in TrafficCategory}
    counts["messages"] = {c.value: meter.messages_for(c) for c in TrafficCategory}
    return counts


def delta(end: Dict[str, Any], start: Dict[str, Any]) -> Dict[str, Any]:
    """``end - start`` for every counter (element-wise for loads and bytes)."""
    out: Dict[str, Any] = {}
    for key, value in end.items():
        if isinstance(value, dict):
            out[key] = {k: v - start[key][k] for k, v in value.items()}
        elif isinstance(value, list):
            out[key] = [a - b for a, b in zip(value, start[key])]
        else:
            out[key] = value - start[key]
    return out


def fingerprint(counts: Dict[str, Any]) -> Dict[str, Any]:
    """Outcome mix, fabric dispatches, directory repairs, meter bytes."""
    return {
        "requests": counts["requests_handled"],
        "updates": counts["updates_handled"],
        "local_hits": counts["local_hits"],
        "cloud_hits": counts["cloud_hits"],
        "origin_fetches": counts["origin_fetches"],
        "dispatches": counts["dispatches"],
        "directory_repairs": counts["directory_repairs"],
        "bytes": counts["bytes"],
    }


def digest(value: Dict[str, Any]) -> str:
    """Short stable hash of a fingerprint."""
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class GcProbe:
    """Collector pause time and collections per generation, via ``gc.callbacks``.

    Only collections that start while ``active`` is set are counted, so the
    probe can be switched on around the timed calls alone.
    """

    def __init__(self) -> None:
        self.active = False
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self._started: Optional[float] = None

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter() if self.active else None
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1
            self._started = None

    def __enter__(self) -> "GcProbe":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


@dataclass
class PassResult:
    """What one timed pass measured."""

    #: Host seconds of each timed chunk, one list per replay of the records.
    chunk_s: List[List[float]] = field(default_factory=list)
    #: Records processed and host seconds spent processing them.
    ops: int = 0
    busy_s: float = 0.0
    #: Host seconds spent generating records outside the timed calls.
    gen_s: float = 0.0
    #: Counter growth over the measured window: the fixed prefix, or the
    #: post-warm-up part of a simulator run.
    counts: Dict[str, Any] = field(default_factory=dict)
    #: Counter growth over the whole pass (failures, retries, timeouts).
    whole: Dict[str, Any] = field(default_factory=dict)
    #: Simulator events dispatched (0 on ``federation_fill``).
    events: int = 0
    #: Whether every same-seed replay in the pass had the same fingerprint.
    replays_agree: bool = True

    @property
    def measured_ops(self) -> int:
        return self.counts["requests_handled"] + self.counts["updates_handled"]

    @property
    def fingerprint(self) -> Dict[str, Any]:
        return fingerprint(self.counts)

    @property
    def failed(self) -> int:
        return self.whole["failures"] + self.whole["rejections"]

    def replay_rates(self) -> List[float]:
        """Records per second of each replay, as it ran."""
        records = self.ops / len(self.chunk_s)
        return [records / sum(times) for times in self.chunk_s]

    def best_rate(self) -> float:
        """Records per second of one replay with every chunk at the fastest
        time any replay took for it."""
        if len({len(times) for times in self.chunk_s}) != 1:
            raise RuntimeError("replays were cut into different chunks")
        records = self.ops / len(self.chunk_s)
        return records / sum(min(chunk) for chunk in zip(*self.chunk_s))

    def model(self) -> Dict[str, float]:
        """Hit ratio, network KiB per op and beacon-load CoV (simulated)."""
        counts = self.counts
        return {
            "hit_ratio": (counts["local_hits"] + counts["cloud_hits"])
            / counts["requests"],
            "network_kb_per_op": sum(counts["bytes"].values()) / 1024.0
            / self.measured_ops,
            "beacon_load_cov": coefficient_of_variation(counts["beacon_loads"]),
        }

    def merge(self, other: "PassResult") -> None:
        """Pool another replay of the same inputs into this one.

        Replays of the same seed from the same warm state must do the same
        work, so a differing fingerprint clears ``replays_agree``.
        """
        self.replays_agree &= (
            other.replays_agree and other.fingerprint == self.fingerprint
        )
        self.chunk_s.extend(other.chunk_s)
        self.ops += other.ops
        self.busy_s += other.busy_s
        self.whole = {
            key: self.whole[key] + other.whole[key]
            for key in ("failures", "rejections", "retries", "timeouts")
        }


# ----------------------------------------------------------------------
# Direct-drive workload (no simulator): federation_fill
# ----------------------------------------------------------------------
#: A record: (cache node, doc id, now); node -1 marks an origin update.
Record = Tuple[int, int, float]


@dataclass
class DriveState:
    """A warmed direct-drive system and the rest of its record stream."""

    system: Any
    clouds: List[CacheCloud]
    meter: TrafficMeter
    stream: Iterator[Record]
    network: Optional[EdgeCacheNetwork] = None
    #: Records the warm-up drove.
    warmup_records: int = 0

    def snapshot(self) -> Dict[str, Any]:
        return snapshot(self.clouds, self.meter, self.network)


def _skewed_doc(rng: random.Random, num_docs: int) -> int:
    """Squared-uniform document draw: low ids are hot (the scale bench's skew)."""
    return int(rng.random() ** 2 * num_docs) % num_docs


class FederationFill:
    """2 clouds x 250 caches past disk fill: the scale bench's post-knee regime."""

    num_clouds = 2
    caches_per_cloud = 250
    update_every = 50
    num_docs = 10_000
    disk_fraction = 0.01
    #: Records per timed chunk and chunks in the fixed prefix.
    chunk = 5_000
    fixed_chunks = 8
    #: Builds per untraced run (``setup_s`` is their median); each is
    #: followed by its own timed pass, so every chunk is timed four times.
    #: Each warm-up drives ~110k records, so four builds, not more.
    setup_repeats = 4
    timed_passes = 4
    #: Records per host second on the reference machine; sizes the work.
    nominal_rate = 9_000
    #: Records driven after the last cache's first eviction: throughput
    #: keeps sliding for ~20k records after the last disk fills.
    warmup_margin = 30_000
    #: Give up (and fail the fill check) after this many warm-up records.
    warmup_limit = 1_000_000

    def build(self, seed: int) -> DriveState:
        corpus = build_corpus(self.num_docs, random.Random(SITE_SEED))
        config = CloudConfig(
            num_caches=self.caches_per_cloud,
            num_rings=10,
            intra_gen=1000,
            assignment=AssignmentScheme.DYNAMIC,
            placement=PlacementScheme.UTILITY,
            capacity_bytes=max(1, int(corpus.total_bytes * self.disk_fraction)),
            seed=seed,
        )
        memberships = [
            range(c * self.caches_per_cloud, (c + 1) * self.caches_per_cloud)
            for c in range(self.num_clouds)
        ]
        network = EdgeCacheNetwork(memberships, config, corpus)
        return DriveState(
            network, network.clouds, network.meter, self.records(seed), network
        )

    def records(self, seed: int) -> Iterator[Record]:
        """The scale bench's stream: uniform caches, skewed docs, an update
        every ``update_every`` requests."""
        rng = random.Random(seed)
        num_nodes = self.num_clouds * self.caches_per_cloud
        i = 0
        while True:
            now = i / 1000.0
            yield (rng.randrange(num_nodes), _skewed_doc(rng, self.num_docs), now)
            if i % self.update_every == self.update_every - 1:
                yield (-1, (7 * i) % self.num_docs, now)
            i += 1

    def audit(self, state: DriveState):
        return InvariantAuditor().audit_network(state.system)

    def setup(self, seed: int) -> DriveState:
        """Build the system and warm it up past disk fill.

        Records are driven a chunk at a time until every cache has evicted
        at least once (its disk is full), then ``warmup_margin`` more.
        """
        state = self.build(seed)
        caches = [cache for cloud in state.clouds for cache in cloud.caches]
        while state.warmup_records < self.warmup_limit and not all(
            cache.storage.evictions for cache in caches
        ):
            self.drive(state, list(islice(state.stream, self.chunk)))
            state.warmup_records += self.chunk
        self.drive(state, list(islice(state.stream, self.warmup_margin)))
        state.warmup_records += self.warmup_margin
        return state

    @staticmethod
    def drive(state: DriveState, batch: List[Record]) -> None:
        """Issue ``batch`` in a closed loop."""
        handle_request = state.system.handle_request
        handle_update = state.system.handle_update
        for node, doc_id, now in batch:
            if node < 0:
                handle_update(doc_id, now)
            else:
                handle_request(node, doc_id, now)

    def warm_checks(self, state: DriveState) -> List[Tuple[str, bool, str]]:
        """The warm-up must have filled every disk (eviction everywhere)."""
        caches = [cache for cloud in state.clouds for cache in cloud.caches]
        filled = sum(1 for cache in caches if cache.storage.evictions > 0)
        return [(
            "warmup_past_disk_fill",
            filled == len(caches),
            f"{filled}/{len(caches)} caches have evicted after "
            f"{state.warmup_records} warm-up records",
        )]

    def warm_fingerprint(self, state: DriveState) -> Dict[str, Any]:
        return fingerprint(state.snapshot())

    def run_pass(
        self,
        state: DriveState,
        records: float,
        probe: Optional[GcProbe] = None,
    ) -> PassResult:
        """``records`` rounded up to whole chunks, at least the fixed prefix."""
        result = PassResult()
        start = state.snapshot()
        perf = time.perf_counter
        chunk_s: List[float] = []
        result.chunk_s.append(chunk_s)
        chunks = max(self.fixed_chunks, math.ceil(records / self.chunk))
        for done in range(1, chunks + 1):
            g0 = perf()
            batch = list(islice(state.stream, self.chunk))
            result.gen_s += perf() - g0
            if probe is not None:
                probe.active = True
            t0 = perf()
            self.drive(state, batch)
            elapsed = perf() - t0
            if probe is not None:
                probe.active = False
            chunk_s.append(elapsed)
            result.busy_s += elapsed
            result.ops += len(batch)
            if done == self.fixed_chunks:
                result.counts = delta(state.snapshot(), start)
        result.whole = delta(state.snapshot(), start)
        return result


# ----------------------------------------------------------------------
# sydney_sim: the discrete-event simulator path (Figures 7 and 8)
# ----------------------------------------------------------------------
class SiteSydneyGenerator(SydneyTraceGenerator):
    """Sydney-like generator whose site is fixed and whose traffic is seeded.

    The constructor draws the site (popularity order, epoch drift, flash
    plan, live set) from ``config.seed``; the request and update streams
    draw their randomness lazily from the generator's streams, which are
    replaced here by a family seeded with ``traffic_seed``.
    """

    def __init__(self, config: SydneyConfig, traffic_seed: int) -> None:
        super().__init__(config)
        self._streams = RandomStreams(traffic_seed)


@dataclass
class SydneyState:
    """A freshly built Figure 7/8 cloud plus its generator."""

    seed: int
    cloud: CacheCloud
    corpus: Any
    generator: SiteSydneyGenerator


#: Counters that ``run_experiment`` resets at the warm-up instant.
RESET_AT_WARMUP = (
    "requests", "local_hits", "cloud_hits", "origin_fetches", "stores",
    "placement_rejects", "beacon_loads", "bytes", "messages",
)


class SydneySim:
    """Figures 7-8 setting through ``run_experiment`` on the simulator."""

    #: A build takes milliseconds: many builds steady the ``setup_s``
    #: median, and the first two are each followed by a replay.
    setup_repeats = 15
    timed_passes = 2
    nominal_rate = 25_000
    num_docs = 2_000
    num_caches = 10
    #: SMALL_SCALE rates: 80 requests/min per cache at the diurnal peak,
    #: 195 updates/min, 15-minute sub-range cycles.
    request_rate = 80.0
    update_rate = 195.0
    cycle_length = 15.0
    duration = 240.0
    #: Counters reset after two cycles, as in the figure runs.
    warmup = 30.0
    #: Records per timed chunk (chunks are cut inside each replay).
    chunk = 10_000

    def setup(self, seed: int) -> SydneyState:
        corpus = build_corpus(self.num_docs, random.Random(SITE_SEED))
        generator = SiteSydneyGenerator(
            SydneyConfig(
                num_documents=self.num_docs,
                num_caches=self.num_caches,
                peak_request_rate_per_cache=self.request_rate,
                base_update_rate=self.update_rate,
                duration_minutes=self.duration,
                diurnal_period_minutes=self.duration,
                num_epochs=max(2, int(self.duration / 60.0)),
                drift_pool=max(10, self.num_docs // 10),
                seed=SITE_SEED,
            ),
            traffic_seed=seed,
        )
        config = CloudConfig(
            num_caches=self.num_caches,
            num_rings=5,
            cycle_length=self.cycle_length,
            assignment=AssignmentScheme.DYNAMIC,
            placement=PlacementScheme.UTILITY,
            utility_weights=WEIGHTS_DSCC_OFF,
            utility_threshold=0.5,
            capacity_bytes=None,
            seed=seed,
        )
        return SydneyState(seed, CacheCloud(config, corpus), corpus, generator)

    def warm_checks(self, state: SydneyState) -> List[Tuple[str, bool, str]]:
        return []

    def warm_fingerprint(self, state: SydneyState) -> Dict[str, Any]:
        return fingerprint(snapshot([state.cloud], state.cloud.transport.meter))

    def run_once(
        self,
        state: SydneyState,
        probe: Optional[GcProbe] = None,
        flight=None,
    ) -> PassResult:
        """One ``run_experiment`` over the whole simulated duration.

        The merged record stream is tapped to cut chunks. The tap wraps
        whatever ``merge_streams`` is installed, so under the tracer it
        wraps the traced iterator.
        """
        cloud = state.cloud
        meter = cloud.transport.meter
        result = PassResult()
        marks: List[float] = []
        pulled = [0]
        chunk = self.chunk
        perf = time.perf_counter

        def tap(stream):
            n = 0
            for record in stream:
                n += 1
                if n % chunk == 0:
                    marks.append(perf())
                yield record
            pulled[0] = n

        merge = runner.merge_streams

        def tapped_merge(requests, updates):
            return tap(merge(requests, updates))

        simulator = Simulator()
        at_warmup: Dict[str, Any] = {}

        def mark_warmup() -> None:
            # Scheduled before run_experiment's own counter reset at the
            # same instant and priority, so it runs just before it.
            at_warmup.update(snapshot([cloud], meter))

        simulator.schedule_at(
            self.warmup, mark_warmup, priority=EventPriority.METRICS,
            label="bench-warmup-mark",
        )
        start = snapshot([cloud], meter)
        runner.merge_streams = tapped_merge
        try:
            if probe is not None:
                probe.active = True
            t0 = perf()
            run_experiment(
                cloud.config,
                state.corpus,
                state.generator.requests(),
                state.generator.updates(),
                duration=self.duration,
                warmup=self.warmup,
                cloud=cloud,
                simulator=simulator,
                flight=flight,
            )
            elapsed = perf() - t0
        finally:
            if probe is not None:
                probe.active = False
            runner.merge_streams = merge
        end = snapshot([cloud], meter)
        result.whole = delta(end, start)
        result.ops = result.whole["requests_handled"] + result.whole["updates_handled"]
        edges = [t0] + marks + [t0 + elapsed]
        result.chunk_s = [[b - a for a, b in zip(edges, edges[1:])]]
        result.busy_s = elapsed
        result.events = simulator.dispatched_events
        counts = delta(end, at_warmup)
        for key in RESET_AT_WARMUP:
            counts[key] = end[key]
        result.counts = counts
        if pulled[0] != result.ops:
            raise RuntimeError(f"fed {pulled[0]} records but handled {result.ops}")
        return result

    def run_pass(
        self,
        state: SydneyState,
        records: float,
        probe: Optional[GcProbe] = None,
    ) -> PassResult:
        """Whole-duration replays until ``records`` are done (at least one);
        every further replay runs on a fresh cloud."""
        first = self.run_once(state, probe)
        while first.ops < records:
            first.merge(self.run_once(self.setup(state.seed), probe))
        return first

    def audit(self, state: SydneyState):
        return InvariantAuditor().audit(state.cloud)


WORKLOADS = {
    "sydney_sim": SydneySim,
    "federation_fill": FederationFill,
}

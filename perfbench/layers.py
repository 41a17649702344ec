"""Which entry points the traced run wraps, and the per-layer ledger.

Layers are named after the ``repro`` modules they time:

==============  ==========================================================
workload        the record iterators (``repro.workload``)
simulation      ``Simulator.run``/``run_until`` (``repro.simulation``)
cloud           ``CacheCloud.handle_request``/``handle_update``/``run_cycle``
edgenetwork     ``EdgeCacheNetwork.handle_request``/``handle_update``
node            ``CacheNode.serve_miss``/``admit_and_register``
placement       ``CacheNode.placement_context``
roles           ``BeaconRole.answer_lookup``/``propagate_update``
storage         ``CacheStorage.admit``/``expected_residence``
fabric          every ``MessageFabric.send*`` and ``request_response``
==============  ==========================================================

``Simulator.run`` is wrapped but ``run_experiment`` drives ``run_until``, so
only the latter records spans; a seam that is never called reports 0.
"""

from __future__ import annotations

from typing import Dict, Optional

import repro.experiments.runner as runner
from repro.core.cloud import CacheCloud, RequestOutcome
from repro.core.edgenetwork import EdgeCacheNetwork
from repro.core.fabric import MessageFabric
from repro.core.node import CacheNode
from repro.core.roles import BeaconRole
from repro.edgecache.storage import CacheStorage
from repro.network.bandwidth import TrafficCategory
from repro.simulation.engine import Simulator

from tracer import Tracer
from workloads import PassResult

LAYERS = (
    "workload", "simulation", "cloud", "edgenetwork", "node", "placement",
    "roles", "storage", "fabric",
)

FABRIC_ENTRY_POINTS = (
    "send_control", "send_document", "send", "send_forced_document",
    "send_system", "send_system_control", "send_system_batch",
    "send_exchange", "request_response",
)

#: Span name of the workload iterator (wrapped per run, not per class).
WORKLOAD_SPAN = "workload.records"


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; call before any cloud is built."""

    def classify_request(args, result, seconds, context):
        if result.outcome is RequestOutcome.LOCAL_HIT:
            tracer.sample("local_hit", seconds)
        else:
            tracer.sample("miss", seconds)

    def sample_update(args, result, seconds, context):
        tracer.sample("update", seconds)

    def lookup_before(args):
        role, doc_id, requester = args[0], args[1], args[2]
        holders = role.state.directory.holders(doc_id)
        walked = len(holders) - (requester in holders)
        return walked, role.cloud.directory_repairs

    def lookup_after(args, result, seconds, context):
        walked, repairs_before = context
        repaired = args[0].cloud.directory_repairs - repairs_before
        tracer.add("lookup.walked", walked)
        tracer.add("lookup.live", walked - repaired)

    def placement_after(args, result, seconds, context):
        tracer.add("placement.live_holders", len(result.existing_holders))

    merge_streams = runner.merge_streams

    def traced_merge_streams(requests, updates):
        return tracer.wrap_iterator(
            merge_streams(requests, updates), "workload", WORKLOAD_SPAN
        )

    # run_experiment looks merge_streams up in its own module at call time.
    tracer.patch(runner, "merge_streams", traced_merge_streams)
    tracer.wrap(Simulator, "run", "simulation")
    tracer.wrap(Simulator, "run_until", "simulation")
    tracer.wrap(CacheCloud, "handle_request", "cloud", after=classify_request)
    tracer.wrap(CacheCloud, "handle_update", "cloud", after=sample_update)
    tracer.wrap(CacheCloud, "run_cycle", "cloud")
    tracer.wrap(EdgeCacheNetwork, "handle_request", "edgenetwork")
    tracer.wrap(EdgeCacheNetwork, "handle_update", "edgenetwork")
    tracer.wrap(CacheNode, "serve_miss", "node")
    tracer.wrap(CacheNode, "admit_and_register", "node")
    tracer.wrap(CacheNode, "placement_context", "placement", after=placement_after)
    tracer.wrap(
        BeaconRole, "answer_lookup", "roles", before=lookup_before, after=lookup_after
    )
    tracer.wrap(BeaconRole, "propagate_update", "roles")
    tracer.wrap(CacheStorage, "admit", "storage")
    tracer.wrap(CacheStorage, "expected_residence", "storage")
    for name in FABRIC_ENTRY_POINTS:
        tracer.wrap(MessageFabric, name, "fabric")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ledger(
    tracer: Tracer,
    untraced: PassResult,
    traced: PassResult,
    gen_us_per_op: Optional[float],
    gc_pause_s: float,
    gc_gen2: int,
    tracked_objects: int,
    flight_us_per_op: float,
) -> Dict[str, float]:
    """Every per-layer metric of the traced run but ``host.calibration_us``.

    Span-derived numbers are per call or per op of the traced pass.
    Counter-derived numbers come from the untraced pass's measured window;
    the fingerprint check guarantees both passes did the same work.
    ``gen_us_per_op`` is given for workloads that generate records outside
    the timed calls; otherwise it comes from the workload iterator spans.
    """
    stat = tracer.stat
    counts = untraced.counts
    measured_ops = untraced.measured_ops
    traced_ops = traced.ops
    wall = traced.busy_s
    layer_self = tracer.layer_self_seconds()
    misses = len(tracer.durations.get("miss", ()))
    lookups = stat("BeaconRole.answer_lookup")
    placements = stat("CacheNode.placement_context")
    residence = stat("CacheStorage.expected_residence")
    admits = stat("CacheStorage.admit")
    if gen_us_per_op is None:
        gen_us_per_op = _ratio(layer_self.get("workload", 0.0) * 1e6, traced_ops)

    metrics: Dict[str, float] = {
        "workload.gen_us_per_op": gen_us_per_op,
        "simulation.engine_self_us_per_event": _ratio(
            layer_self.get("simulation", 0.0) * 1e6, traced.events
        ),
        "simulation.events_per_op": _ratio(traced.events, traced_ops),
        "cloud.local_hit_us_p50": tracer.percentile_us("local_hit", 0.50),
        "cloud.miss_us_p50": tracer.percentile_us("miss", 0.50),
        "cloud.miss_us_p99": tracer.percentile_us("miss", 0.99),
        "cloud.update_us_p50": tracer.percentile_us("update", 0.50),
        "cloud.update_us_p99": tracer.percentile_us("update", 0.99),
        "cloud.run_cycle_ms": stat("CacheCloud.run_cycle").mean_us() / 1e3,
        "roles.answer_lookup_us": lookups.mean_us(),
        "roles.holders_per_lookup": _ratio(
            tracer.counts.get("lookup.walked", 0.0), lookups.calls
        ),
        "roles.live_holder_ratio": _ratio(
            tracer.counts.get("lookup.live", 0.0),
            tracer.counts.get("lookup.walked", 0.0),
        ),
        "roles.propagate_update_us": stat("BeaconRole.propagate_update").mean_us(),
        "roles.fanout_legs_per_update": _ratio(
            counts["messages"][TrafficCategory.UPDATE_FANOUT.value],
            counts["updates_handled"],
        ),
        "node.serve_miss_self_us": stat("CacheNode.serve_miss").self_us(),
        "node.placement_context_us": placements.mean_us(),
        "node.live_holders_per_placement": _ratio(
            tracer.counts.get("placement.live_holders", 0.0), placements.calls
        ),
        "node.admit_and_register_us": stat("CacheNode.admit_and_register").mean_us(),
        "placement.store_ratio": _ratio(
            counts["stores"], counts["stores"] + counts["placement_rejects"]
        ),
        "storage.expected_residence_us": residence.mean_us(),
        "storage.expected_residence_calls_per_miss": _ratio(residence.calls, misses),
        "storage.admit_us": admits.mean_us(),
        "storage.evictions_per_admit": _ratio(
            traced.whole["evictions"], admits.calls
        ),
        "fabric.dispatches_per_op": _ratio(counts["dispatches"], measured_ops),
        "fabric.send_us": _ratio(
            layer_self.get("fabric", 0.0) * 1e6, traced.whole["dispatches"]
        ),
        "fabric.fast_path_share": _ratio(
            counts["fast_path_dispatches"], counts["dispatches"]
        ),
    }
    for category in TrafficCategory:
        metrics[f"network.bytes_per_op.{category.value}"] = _ratio(
            counts["bytes"][category.value], measured_ops
        )
    metrics.update({
        "edgenetwork.handle_update_us": stat("EdgeCacheNetwork.handle_update").mean_us(),
        "gc.pause_ms_per_kop": _ratio(gc_pause_s * 1e3, untraced.ops / 1e3),
        "gc.gen2_collections": float(gc_gen2),
        "gc.tracked_objects_end": float(tracked_objects),
        "observe.flight_us_per_op": flight_us_per_op,
        "trace.overhead_ratio": _ratio(
            _ratio(traced.busy_s, traced_ops), _ratio(untraced.busy_s, untraced.ops)
        ),
        "trace.unattributed_share": 1.0 - _ratio(sum(layer_self.values()), wall),
    })
    for layer in LAYERS:
        metrics[f"self_share.{layer}"] = _ratio(layer_self.get(layer, 0.0), wall)
    return metrics

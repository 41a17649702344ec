"""Golden fingerprint of one cloud in the disk-contention regime.

The pipeline goldens (``test_golden_fingerprints.py``) run tiny clouds
whose disks never fill, so they never reach the code a miss runs once
every admission evicts: the residence-time estimate behind the DsCC
component (paper §3.1), utility placement against contended holders, and
the lookup's holder verification repairing entries that lost eviction
notices left behind. This golden drives exactly that regime:

* one cloud of 50 caches over 10k documents, utility placement with all
  four components weighted (so the residence estimate decides stores),
  lazy directory replication on;
* per-cache disks of 1% of the corpus bytes;
* the scale bench's stream shape: squared-uniform document draws, an
  origin update every 50 requests, 60k requests;
* a seeded fault injector dropping 20% of control messages, so eviction
  notices get lost and lookups must repair the directory.

The hash covers the outcome mix, the outcome counts of every 10k-request
window, the repair and fallback counters, the fabric's dispatch count and
the meter's bytes per traffic category. It was captured before the
miss-path flattening (memoized residence mean, copy-free holder walks);
the refactor-safety contract of ``test_golden_fingerprints.py`` applies.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

from repro.core.cloud import CacheCloud
from repro.core.config import (
    WEIGHTS_ALL_ON,
    AssignmentScheme,
    CloudConfig,
    PlacementScheme,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.network.bandwidth import TrafficCategory
from repro.workload.documents import build_corpus

NUM_CACHES = 50
NUM_DOCS = 10_000
NUM_REQUESTS = 60_000
UPDATE_EVERY = 50
WINDOW_REQUESTS = 10_000
DISK_FRACTION = 0.01
SEED = 1_000_003

#: Captured before the miss-path flattening; see the module docstring.
GOLDEN_CONTENTION = (
    "4ffcd6daca03df99bafe86886789e57b558558fdbdc7aab560dec1af11413c1c"
)


def _build_cloud() -> CacheCloud:
    corpus = build_corpus(NUM_DOCS, random.Random(SEED))
    config = CloudConfig(
        num_caches=NUM_CACHES,
        num_rings=10,
        intra_gen=1000,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.UTILITY,
        utility_weights=WEIGHTS_ALL_ON,
        capacity_bytes=max(1, int(corpus.total_bytes * DISK_FRACTION)),
        failure_resilience=True,
        seed=SEED,
    )
    cloud = CacheCloud(config, corpus)
    plan = FaultPlan(seed=SEED, category_loss=(("control", 0.2),))
    cloud.attach_faults(FaultInjector(plan, cloud.transport))
    return cloud


def _drive(cloud: CacheCloud):
    """The scale bench's stream, scaled to one cloud; per-window outcomes."""
    rng = random.Random(SEED + 1)
    windows = []
    window: Counter = Counter()
    for i in range(NUM_REQUESTS):
        node = rng.randrange(NUM_CACHES)
        doc_id = int(rng.random() ** 2 * NUM_DOCS) % NUM_DOCS
        now = float(i) / 1000.0
        window[cloud.handle_request(node, doc_id, now).outcome.value] += 1
        if i % UPDATE_EVERY == UPDATE_EVERY - 1:
            cloud.handle_update((7 * i) % NUM_DOCS, now)
        if i % WINDOW_REQUESTS == WINDOW_REQUESTS - 1:
            windows.append(dict(sorted(window.items())))
            window = Counter()
    return windows


def _fingerprint(cloud: CacheCloud, windows) -> dict:
    mix: Counter = Counter()
    for counts in windows:
        mix.update(counts)
    meter = cloud.transport.meter
    return {
        "outcome_mix": dict(sorted(mix.items())),
        "windows": windows,
        "directory_repairs": cloud.directory_repairs,
        "fault_origin_fallbacks": cloud.fault_origin_fallbacks,
        "dispatches": cloud.fabric.stats.dispatches,
        "bytes": {c.value: meter.bytes_for(c) for c in TrafficCategory},
    }


def _digest(value: dict) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestContentionGolden:
    def test_fingerprint_unchanged(self):
        cloud = _build_cloud()
        windows = _drive(cloud)
        # The run really is in the contention regime: every disk filled
        # and evicted, and lost eviction notices forced lookup repairs.
        assert all(cache.storage.evictions > 0 for cache in cloud.caches)
        assert cloud.directory_repairs > 0
        assert _digest(_fingerprint(cloud, windows)) == GOLDEN_CONTENTION

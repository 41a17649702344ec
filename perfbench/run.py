"""The repository's benchmark: one workload per run, seeded, self-checking.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sydney_sim --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached.
``--trace 1`` is the separate traced run: an untraced pass, then a pass with
every layer entry point wrapped, reporting the per-layer ledger. Both print
human-readable lines first and, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A failed
correctness check prints ``"correct": false`` and exits 1. See
``perfbench/NOTES.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch files (flight artifact, span log) stay inside the checkout.
SCRATCH = ROOT / ".perfbench"

#: Metric names, units and bounds: the root ``BENCHMARK.json``.
SPEC = ROOT / "BENCHMARK.json"


def calibrate(rounds: int = 5) -> float:
    """Median microseconds of a fixed pure-Python loop (host speed probe)."""
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i % 7
        samples.append((time.perf_counter() - t0) * 1e6)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outcome_checks(label, result, audits):
    """Correctness gate shared by every pass."""
    counts = result.counts
    outcomes = counts["local_hits"] + counts["cloud_hits"] + counts["origin_fetches"]
    violations = [v for audit in audits for v in audit.violations]
    return [
        (f"{label}.requests_equal_outcomes", counts["requests"] == outcomes,
         f"requests={counts['requests']} outcomes={outcomes}"),
        (f"{label}.no_rejected_requests",
         counts["requests"] == counts["requests_handled"],
         f"served={counts['requests']} handled={counts['requests_handled']}"),
        (f"{label}.zero_retries_timeouts",
         result.whole["retries"] == 0 and result.whole["timeouts"] == 0,
         f"retries={result.whole['retries']} timeouts={result.whole['timeouts']}"),
        (f"{label}.zero_failed_ops", result.failed == 0, f"failed={result.failed}"),
        (f"{label}.replays_agree", result.replays_agree, "same-seed fingerprints"),
        (f"{label}.audit_clean", not violations,
         f"audits={len(audits)} violations={len(violations)}"),
    ]


def untraced_run(workload, seed: int, seconds: float):
    """Build ``workload.setup_repeats`` times; time a pass after the first
    ``workload.timed_passes`` builds.

    The passes split ``seconds x nominal_rate`` records between them and
    replay the same records from the same warm state, so they spread the
    measurement over the run and must all report the same fingerprint.
    """
    from workloads import GcProbe, digest

    records = seconds * workload.nominal_rate / workload.timed_passes
    setup_times, warm, checks, audits = [], [], [], []
    result = None
    with GcProbe() as probe:
        for build in range(workload.setup_repeats):
            state = None
            gc.collect()
            t0 = time.perf_counter()
            state = workload.setup(seed)
            setup_times.append(time.perf_counter() - t0)
            warm.append(digest(workload.warm_fingerprint(state)))
            if build >= workload.timed_passes:
                continue
            checks += workload.warm_checks(state)
            gc.collect()
            timed = workload.run_pass(state, records, probe)
            audits.append(workload.audit(state))
            if result is None:
                result = timed
            else:
                result.merge(timed)
    checks.append(("setups_agree", len(set(warm)) == 1, " ".join(sorted(set(warm)))))
    checks += outcome_checks("timed", result, audits)
    metrics = {
        "ops_per_s": result.best_rate(),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        **result.model(),
    }
    info = {
        "replay_rates": [round(rate) for rate in result.replay_rates()],
        "setup_times_s": [round(t, 4) for t in setup_times],
        "gc_pause_ms": probe.pause_s * 1e3,
        "gc_collections": probe.collections,
    }
    return result, metrics, checks, info


def traced_run(workload, seed: int, name: str):
    """An untraced pass, then the same work with every layer wrapped."""
    import layers
    from tracer import Tracer
    from workloads import GcProbe, SydneySim, digest

    checks = []
    gc.collect()
    state = workload.setup(seed)
    warm_untraced = digest(workload.warm_fingerprint(state))
    gc.collect()
    with GcProbe() as probe:
        untraced = workload.run_pass(state, 0, probe)
    tracked_objects = len(gc.get_objects())
    checks += outcome_checks("untraced", untraced, [workload.audit(state)])
    state = None

    flight_us = 0.0
    if isinstance(workload, SydneySim):
        # The cost of attached observability: the same replay with
        # FlightRecorder + WorkProfile attached the way
        # `repro flight record` attaches them.
        from repro.observe.flight import FlightRecorder

        SCRATCH.mkdir(exist_ok=True)
        path = SCRATCH / f"flight-{os.getpid()}.jsonl"
        try:
            flown = workload.run_once(
                workload.setup(seed), flight=FlightRecorder(str(path), window=1.0)
            )
        finally:
            if path.exists():
                path.unlink()
        flight_us = (flown.busy_s - untraced.busy_s) / untraced.ops * 1e6
        checks.append(("flight_recorder_off_path",
                       flown.fingerprint == untraced.fingerprint,
                       digest(flown.fingerprint)))

    tracer = Tracer()
    layers.install(tracer)
    try:
        gc.collect()
        state = workload.setup(seed)
        warm_traced = digest(workload.warm_fingerprint(state))
        tracer.enabled = True
        traced = workload.run_pass(state, 0)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    checks += outcome_checks("traced", traced, [workload.audit(state)])
    checks.append(("warm_state_traced_equals_untraced",
                   warm_traced == warm_untraced, f"{warm_untraced} {warm_traced}"))
    checks.append(("fingerprint_traced_equals_untraced",
                   traced.fingerprint == untraced.fingerprint,
                   f"{digest(untraced.fingerprint)} {digest(traced.fingerprint)}"))

    gen_us = None
    if not isinstance(workload, SydneySim):
        gen_us = untraced.gen_s / untraced.ops * 1e6
    metrics = layers.ledger(
        tracer, untraced, traced,
        gen_us_per_op=gen_us,
        gc_pause_s=probe.pause_s,
        gc_gen2=probe.collections[2],
        tracked_objects=tracked_objects,
        flight_us_per_op=flight_us,
    )
    SCRATCH.mkdir(exist_ok=True)
    span_log = SCRATCH / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_span_log(str(span_log))
    info = {"span_log": str(span_log.relative_to(ROOT)), "spans_kept": len(tracer.span_log)}
    return traced, metrics, checks, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}

    calibration = [calibrate()]
    if args.trace:
        result, metrics, checks, info = traced_run(workload, args.seed, args.workload)
    else:
        result, metrics, checks, info = untraced_run(
            workload, args.seed, args.seconds
        )
    calibration.append(calibrate())
    if args.trace:
        metrics["host.calibration_us"] = statistics.mean(calibration)
    if set(metrics) != set(units):
        print(f"error: metrics differ from {SPEC.name}: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 3

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"metric failed_ops_ratio {result.failed / result.ops:.6g} ratio")
        print(f"host.calibration_us before {calibration[0]:.1f} after {calibration[1]:.1f}")
    else:
        ranking = sorted(
            (k for k in metrics if k.startswith("self_share.")),
            key=lambda k: -metrics[k],
        )
        print("self_share ranking " + " > ".join(
            f"{k.split('.', 1)[1]}={metrics[k]:.3f}" for k in ranking
        ))
    print(f"fingerprint {digest(result.fingerprint)} "
          f"{json.dumps(result.fingerprint, sort_keys=True)}")
    for key, value in info.items():
        print(f"info {key} {value}")
    correct = True
    for check, ok, detail in checks:
        correct = correct and ok
        print(f"check {'PASS' if ok else 'FAIL'} {check} {detail}")

    print(json.dumps({
        "correct": correct,
        "attempted": result.ops,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface for the cache-clouds reproduction.

Usage::

    python -m repro figure 3 --scale small
    python -m repro figures --scale tiny
    python -m repro ablation threshold
    python -m repro extension consistency
    python -m repro trace --documents 500 --duration 30 --out trace.txt
    python -m repro run --caches 10 --rings 5 --placement utility
    python -m repro run --telemetry telemetry.json
    python -m repro observe --duration 20 --out telemetry.json
    python -m repro resilience --scale tiny --loss 0 0.2 0.5 --churn 0 0.05
    python -m repro overload --scale tiny --multipliers 1 4 16
    python -m repro audit --seeds 1 2 --loss 0.15 0.3 --churn 0 0.1
    python -m repro compare old.json new.json --tolerance 0.1
    python -m repro flight record --out flight.jsonl --duration 20 --report
    python -m repro flight render flight.jsonl --html flight.html
    python -m repro flight diff baseline.jsonl candidate.jsonl

Every subcommand prints the same tables the benchmark harness produces, so
the paper's figures can be regenerated without pytest.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.config import AssignmentScheme, CloudConfig, PlacementScheme
from repro.experiments import ablations, extensions, figures, zoo
from repro.experiments.runner import run_experiment
from repro.workload.documents import build_corpus
from repro.workload.generator import SyntheticTraceGenerator, WorkloadConfig
from repro.workload.readers import write_trace

_SCALES = {
    "tiny": figures.TINY_SCALE,
    "small": figures.SMALL_SCALE,
    "paper": figures.PAPER_SCALE,
}

_ZOO_SCALES = {
    "tiny": zoo.ZOO_TINY,
    "small": zoo.ZOO_SMALL,
    "scale": zoo.ZOO_SCALE,
}

_FIGURES = {
    "3": figures.figure3,
    "4": figures.figure4,
    "5": figures.figure5,
    "6": figures.figure6,
    "7": figures.figure7,
    "8": figures.figure8,
    "9": figures.figure9,
}

_ABLATIONS = {
    "load-info": ablations.ablation_load_information,
    "consistent-hashing": ablations.ablation_consistent_hashing,
    "threshold": ablations.ablation_threshold,
    "cycle-length": ablations.ablation_cycle_length,
}

_EXTENSIONS = {
    "consistency": extensions.consistency_mode_comparison,
    "multi-cloud": extensions.multi_cloud_update_savings,
    "adaptive-weights": extensions.adaptive_weights_comparison,
    "failure-resilience": extensions.failure_resilience_value,
    "latency": extensions.client_latency_comparison,
    "capabilities": extensions.capability_proportionality,
}


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="small",
        help="experiment scale (tiny for smoke runs, paper for near-paper sizes)",
    )


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for experiment sweeps (0 = all CPUs; "
        "default: the REPRO_JOBS environment variable, else serial)",
    )


def _add_archive(parser: argparse.ArgumentParser, what: str = "sweep") -> None:
    """``--out`` (archive the result) and ``--fingerprint``."""
    parser.add_argument("--out", help=f"archive the {what} result to this JSON file")
    parser.add_argument(
        "--fingerprint", action="store_true",
        help="print a SHA-256 fingerprint of the result (determinism checks)",
    )


def _add_traced_workload(parser: argparse.ArgumentParser) -> None:
    """The small clustered workload ``observe`` and ``flight record`` run."""
    parser.add_argument("--documents", type=int, default=300)
    parser.add_argument("--caches", type=int, default=8)
    parser.add_argument("--rings", type=int, default=4)
    parser.add_argument("--request-rate", type=float, default=60.0,
                        help="requests per minute per cache")
    parser.add_argument("--update-rate", type=float, default=30.0,
                        help="updates per minute")
    parser.add_argument("--alpha", type=float, default=0.9, help="Zipf parameter")
    parser.add_argument("--duration", type=float, default=20.0, help="minutes")
    parser.add_argument("--cycle", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)


def _jobs_kwargs(func, args) -> dict:
    """``{"jobs": N}`` when ``func`` accepts a job count, else ``{}``.

    A few extension experiments drive bespoke simulation loops with no
    sweep to parallelize; those take no ``jobs`` parameter.
    """
    params = inspect.signature(func).parameters
    accepts_jobs = "jobs" in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )
    return {"jobs": args.jobs} if accepts_jobs else {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cache Clouds (ICDCS 2005) reproduction harness",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    fig = subparsers.add_parser("figure", help="reproduce one paper figure (3-9)")
    fig.add_argument("number", choices=sorted(_FIGURES))
    _add_scale(fig)
    _add_jobs(fig)

    allfigs = subparsers.add_parser("figures", help="reproduce every figure")
    _add_scale(allfigs)
    _add_jobs(allfigs)

    abl = subparsers.add_parser("ablation", help="run one ablation study")
    abl.add_argument("name", choices=sorted(_ABLATIONS))
    _add_scale(abl)
    _add_jobs(abl)

    ext = subparsers.add_parser("extension", help="run one extension experiment")
    ext.add_argument("name", choices=sorted(_EXTENSIONS))
    _add_scale(ext)
    _add_jobs(ext)

    trace = subparsers.add_parser("trace", help="generate a synthetic trace file")
    trace.add_argument("--documents", type=int, default=1000)
    trace.add_argument("--caches", type=int, default=10)
    trace.add_argument("--request-rate", type=float, default=60.0,
                       help="requests per minute per cache")
    trace.add_argument("--update-rate", type=float, default=40.0,
                       help="updates per minute")
    trace.add_argument("--alpha", type=float, default=0.9, help="Zipf parameter")
    trace.add_argument("--duration", type=float, default=60.0, help="minutes")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", required=True, help="output trace file")

    run = subparsers.add_parser("run", help="run one cloud over a generated workload")
    run.add_argument("--documents", type=int, default=2000)
    run.add_argument("--caches", type=int, default=10)
    run.add_argument("--rings", type=int, default=5)
    run.add_argument("--assignment", choices=[s.value for s in AssignmentScheme],
                     default="dynamic")
    run.add_argument("--placement", choices=[s.value for s in PlacementScheme],
                     default="utility")
    run.add_argument("--request-rate", type=float, default=60.0)
    run.add_argument("--update-rate", type=float, default=40.0)
    run.add_argument("--alpha", type=float, default=0.9)
    run.add_argument("--duration", type=float, default=60.0)
    run.add_argument("--cycle", type=float, default=15.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--telemetry", nargs="?", const="telemetry.json", default=None,
        metavar="FILE",
        help="attach the observability registry and write its JSON artifact "
        "(span trees + per-category latency/bytes histograms) to FILE "
        "(default: telemetry.json)",
    )

    obs = subparsers.add_parser(
        "observe",
        help="run a small traced workload on a clustered topology and "
        "report span trees plus per-category latency histograms",
    )
    _add_traced_workload(obs)
    obs.add_argument(
        "--span-limit", type=int, default=10_000,
        help="maximum spans retained by the recorder",
    )
    obs.add_argument("--out", help="write the telemetry JSON artifact here")
    obs.add_argument(
        "--json", action="store_true",
        help="print the canonical JSON artifact instead of the text report",
    )

    res = subparsers.add_parser(
        "resilience",
        help="sweep hit-rate/origin-load degradation vs loss and churn rates",
    )
    _add_scale(res)
    _add_jobs(res)
    res.add_argument(
        "--loss", type=float, nargs="+", default=[0.0, 0.05, 0.2, 0.5],
        help="message loss rates to sweep (space-separated, in [0, 1])",
    )
    res.add_argument(
        "--churn", type=float, nargs="+", default=[0.0],
        help="cloud-wide cache failure rates per minute to sweep",
    )
    res.add_argument(
        "--seed", type=int, default=None,
        help="override the scale's seed (re-derives workload/fault/churn streams)",
    )
    _add_archive(res)
    res.add_argument(
        "--telemetry", metavar="FILE", default=None,
        help="additionally re-run the harshest (loss, churn) sweep point "
        "serially with the observability registry attached and write its "
        "JSON artifact to FILE",
    )

    ovl = subparsers.add_parser(
        "overload",
        help="flash-crowd sweep: bounded node queues + admission control, "
        "cooperative vs origin-direct at increasing load multipliers",
    )
    _add_scale(ovl)
    _add_jobs(ovl)
    ovl.add_argument(
        "--multipliers", type=float, nargs="+", default=[1.0, 4.0, 16.0],
        help="load multipliers on the scale's request rate (space-separated)",
    )
    ovl.add_argument(
        "--seed", type=int, default=None,
        help="override the scale's seed (re-derives the flash-crowd workload)",
    )
    _add_archive(ovl)

    ela = subparsers.add_parser(
        "elastic",
        help="diurnal autoscaling sweep: elastic sizing vs static over-/"
        "under-provisioning across a day with a flash crowd",
    )
    _add_scale(ela)
    _add_jobs(ela)
    ela.add_argument(
        "--seed", type=int, default=None,
        help="override the scale's seed (re-derives the diurnal workload)",
    )
    _add_archive(ela)

    zoo = subparsers.add_parser(
        "zoo",
        help="strategy zoo: every caching strategy (paper placements + "
        "LCE/LCD/ProbCache/CUP-tree) over one shared workload, ranked",
    )
    zoo.add_argument(
        "--scale",
        choices=sorted(_ZOO_SCALES),
        default="small",
        help="sweep scale (tiny for smoke runs; scale = 1000 caches, "
        "10M streamed requests per arm)",
    )
    _add_jobs(zoo)
    zoo.add_argument(
        "--schemes", nargs="+", default=None, metavar="SCHEME",
        help="subset of strategies to run (default: the whole zoo)",
    )
    zoo.add_argument(
        "--seed", type=int, default=None,
        help="override the scale's seed (re-derives the shared workload)",
    )
    zoo.add_argument(
        "--checkpoint",
        help="resume file: completed arms are recorded here and skipped "
        "when the sweep restarts with the same arguments",
    )
    zoo.add_argument(
        "--materialize", action="store_true",
        help="build the full trace in memory instead of streaming it "
        "(value-identical; only useful for memory comparisons)",
    )
    _add_archive(zoo)
    zoo.add_argument(
        "--flight-dir",
        help="stream one windowed flight artifact per arm to "
        "<dir>/<scheme>.jsonl (compare arms with `repro flight diff`)",
    )

    flight = subparsers.add_parser(
        "flight",
        help="streaming flight recorder: record a windowed run, render "
        "the throughput/cost dashboard, or diff two artifacts",
    )
    flight_actions = flight.add_subparsers(dest="flight_action", required=True)
    rec = flight_actions.add_parser(
        "record",
        help="run a traced workload with the flight recorder attached and "
        "stream the windowed JSONL artifact",
    )
    rec.add_argument("--out", required=True, help="flight artifact (JSONL) path")
    _add_traced_workload(rec)
    rec.add_argument("--window", type=float, default=1.0,
                     help="flight window width in simulated minutes")
    rec.add_argument("--top-docs", type=int, default=5,
                     help="hottest documents tracked per window")
    rec.add_argument(
        "--report", action="store_true",
        help="render the dashboard after recording",
    )
    ren = flight_actions.add_parser(
        "render", help="render a recorded artifact as a text dashboard"
    )
    ren.add_argument("artifact", help="flight artifact (JSONL)")
    ren.add_argument("--html", help="also write an HTML report here")
    ren.add_argument("--top", type=int, default=5,
                     help="hottest documents shown")
    fdiff = flight_actions.add_parser(
        "diff",
        help="compare two artifacts with thresholded verdicts "
        "(exit 1 on any FAIL)",
    )
    fdiff.add_argument("baseline", help="baseline flight artifact")
    fdiff.add_argument("candidate", help="candidate flight artifact")
    fdiff.add_argument(
        "--tolerance", type=float, default=0.10,
        help="relative drift allowed per verdict (default 10%%)",
    )

    aud = subparsers.add_parser(
        "audit",
        help="chaos-audit: seeded fault+churn campaigns, quiesced, "
        "anti-entropy-repaired, and checked against every invariant",
    )
    _add_jobs(aud)
    aud.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2],
        help="scenario seeds (one grid per seed)",
    )
    aud.add_argument(
        "--loss", type=float, nargs="+", default=[0.15, 0.3],
        help="message loss rates to sweep (space-separated, in [0, 1))",
    )
    aud.add_argument(
        "--churn", type=float, nargs="+", default=[0.0, 0.1],
        help="cloud-wide cache failure rates per minute to sweep",
    )
    aud.add_argument(
        "--duration", type=float, default=60.0,
        help="simulated minutes per scenario",
    )
    aud.add_argument(
        "--no-anti-entropy", action="store_true",
        help="run the grid without background repair (divergence baseline; "
        "unrepaired violations are reported, not failed on)",
    )
    _add_archive(aud, "grid")

    compare = subparsers.add_parser(
        "compare", help="diff two archived experiment results (JSON)"
    )
    compare.add_argument("old", help="baseline archive")
    compare.add_argument("new", help="candidate archive")
    compare.add_argument(
        "--tolerance", type=float, default=0.05,
        help="relative drift above which a metric is reported (default 5%%)",
    )

    return parser


def _run_named(func, args) -> int:
    """Run one figure/ablation/extension entry point and print its table(s)."""
    result = func(_SCALES[args.scale], **_jobs_kwargs(func, args))
    for part in result if isinstance(result, tuple) else (result,):
        print(part.render())
    return 0


def _cmd_figures(args) -> int:
    scale = _SCALES[args.scale]
    # Figures 7 and 8 share their runs; regenerate them together.
    for number in ("3", "4", "5", "6"):
        print(_FIGURES[number](scale, jobs=args.jobs).render())
    stored, traffic = figures.figure7_and_8(scale, jobs=args.jobs)
    stored.figure, traffic.figure = "Figure 7", "Figure 8"
    print(stored.render())
    print(traffic.render())
    print(figures.figure9(scale, jobs=args.jobs).render())
    return 0


def _generator(args) -> SyntheticTraceGenerator:
    """The synthetic workload the ``trace``/``run``/``observe``/``flight
    record`` flags describe."""
    return SyntheticTraceGenerator(
        WorkloadConfig(
            num_documents=args.documents,
            num_caches=args.caches,
            request_rate_per_cache=args.request_rate,
            update_rate=args.update_rate,
            alpha_requests=args.alpha,
            duration_minutes=args.duration,
            seed=args.seed,
        )
    )


def _traced_run(args, **observers):
    """Run the ``observe``/``flight record`` workload with ``observers``.

    A clustered topology with a far-away origin gives the latency columns
    real shape: peer transfers are cheap, origin fetches are not, and the
    span trees show exactly where each request paid.
    """
    import random

    from repro.core.cloud import CacheCloud
    from repro.network.origin import ORIGIN_NODE_ID, OriginServer
    from repro.network.topology import EuclideanTopology
    from repro.network.transport import Transport

    corpus = build_corpus(args.documents)
    generator = _generator(args)
    config = CloudConfig(
        num_caches=args.caches,
        num_rings=args.rings,
        cycle_length=args.cycle,
        seed=args.seed,
    )
    topology = EuclideanTopology.random(
        args.caches,
        random.Random(args.seed),
        extent=100.0,
        num_clusters=2,
        cluster_spread=25.0,
    )
    topology.add_node(ORIGIN_NODE_ID, (2_000.0, 2_000.0))
    cloud = CacheCloud(
        config,
        corpus,
        origin=OriginServer(corpus),
        transport=Transport(topology=topology),
    )
    run_experiment(
        config,
        corpus,
        generator.requests(),
        generator.updates(),
        duration=args.duration,
        cloud=cloud,
        **observers,
    )


def _cmd_trace(args) -> int:
    generator = _generator(args)
    count = write_trace(generator.build_trace(), args.out)
    print(f"wrote {count} records to {args.out}")
    return 0


def _cmd_run(args) -> int:
    corpus = build_corpus(args.documents)
    generator = _generator(args)
    config = CloudConfig(
        num_caches=args.caches,
        num_rings=args.rings,
        cycle_length=args.cycle,
        assignment=AssignmentScheme(args.assignment),
        placement=PlacementScheme(args.placement),
        seed=args.seed,
    )
    telemetry = None
    if args.telemetry:
        from repro.observe import Telemetry

        telemetry = Telemetry()
    result = run_experiment(
        config,
        corpus,
        generator.requests(),
        generator.updates(),
        duration=args.duration,
        telemetry=telemetry,
    )
    stats = result.stats
    print(f"requests={stats.requests} updates={result.updates}")
    print(f"local hit rate={stats.local_hit_rate:.3f} "
          f"cloud hit rate={stats.cloud_hit_rate:.3f}")
    print(f"beacon-load CoV={result.load_stats.cov:.3f} "
          f"peak/mean={result.load_stats.peak_to_mean:.3f}")
    print(f"network={result.network_mb_per_unit:.3f} MB/unit")
    print(f"docs stored per cache={result.docs_stored_percent:.1f}%")
    if telemetry is not None:
        from repro.observe import write_json

        write_json(telemetry, args.telemetry)
        print(f"telemetry: {len(telemetry.spans.spans)} spans, "
              f"{len(telemetry.histograms)} histograms -> {args.telemetry}")
    return 0


def _cmd_observe(args) -> int:
    from repro.observe import (
        Telemetry,
        dump_json,
        find_tree,
        render_span_tree,
        render_summary,
        span_trees,
        write_json,
    )

    telemetry = Telemetry(max_spans=args.span_limit)
    _traced_run(args, telemetry=telemetry)
    if args.json:
        print(dump_json(telemetry))
    else:
        print(render_summary(telemetry))
        example = find_tree(
            span_trees(telemetry.spans.spans),
            {"request", "beacon_lookup", "peer_fetch", "placement"},
        )
        if example is not None:
            print("\nexample collaborative miss (times in sim minutes):")
            print(render_span_tree(example))
    if args.out:
        write_json(telemetry, args.out)
        print(f"telemetry artifact -> {args.out}")
    return 0


def _report(result, args, kind: str) -> None:
    """Print a sweep's table; archive and fingerprint it when asked."""
    from repro.experiments.reporting import fingerprint, save_result

    print(result.render())
    if args.out:
        save_result(result, args.out, kind)
        print(f"archived to {args.out}")
    if args.fingerprint:
        print(f"fingerprint: {fingerprint(result)}")


def _cmd_resilience(args) -> int:
    from repro.experiments.resilience import resilience_sweep

    result = resilience_sweep(
        _SCALES[args.scale],
        loss_rates=tuple(args.loss),
        churn_rates=tuple(args.churn),
        jobs=args.jobs,
        seed=args.seed,
    )
    _report(result, args, "resilience")
    if args.telemetry:
        from repro.experiments.resilience import instrumented_point
        from repro.observe import write_json

        loss_rate = max(args.loss)
        churn_rate = max(args.churn)
        _, telemetry = instrumented_point(
            _SCALES[args.scale],
            loss_rate=loss_rate,
            churn_rate=churn_rate,
            seed=args.seed,
        )
        write_json(telemetry, args.telemetry)
        print(
            f"telemetry for point (loss={loss_rate}, churn={churn_rate}) "
            f"-> {args.telemetry}"
        )
    return 1 if result.failures else 0


def _cmd_overload(args) -> int:
    from repro.experiments.overload import overload_sweep

    result = overload_sweep(
        _SCALES[args.scale],
        multipliers=tuple(args.multipliers),
        jobs=args.jobs,
        seed=args.seed,
    )
    _report(result, args, "overload")
    return 1 if result.failures else 0


def _cmd_elastic(args) -> int:
    from repro.experiments.elastic import elastic_sweep

    result = elastic_sweep(
        _SCALES[args.scale], jobs=args.jobs, seed=args.seed
    )
    _report(result, args, "elastic")
    if result.failures:
        return 1
    # The sweep exists to demonstrate the acceptance claims; an arm that
    # breaks one (or a missing arm) is a failing run, not a shrug.
    verdicts = result.acceptance()
    if not verdicts or not all(verdicts.values()):
        return 1
    return 0


def _cmd_zoo(args) -> int:
    from repro.experiments.zoo import DEFAULT_SCHEMES, zoo_sweep

    result = zoo_sweep(
        _ZOO_SCALES[args.scale],
        schemes=tuple(args.schemes) if args.schemes else DEFAULT_SCHEMES,
        jobs=args.jobs,
        seed=args.seed,
        streaming=not args.materialize,
        checkpoint=args.checkpoint,
        flight_dir=args.flight_dir,
    )
    _report(result, args, "zoo")
    return 1 if result.failures else 0


def _cmd_flight_record(args) -> int:
    from repro.observe.flight import (
        FlightRecorder,
        read_flight,
        render_flight_report,
    )

    recorder = FlightRecorder(
        args.out, window=args.window, top_docs=args.top_docs
    )
    _traced_run(args, flight=recorder)
    log = read_flight(args.out)
    print(
        f"flight artifact -> {args.out} "
        f"({len(log.windows)} windows, window={log.window_width:g} min)"
    )
    if args.report:
        print()
        print(render_flight_report(log, top_k=args.top_docs))
    return 0


def _cmd_flight(args) -> int:
    from repro.observe.flight import (
        diff_flights,
        read_flight,
        render_flight_html,
        render_flight_report,
    )

    if args.flight_action == "record":
        return _cmd_flight_record(args)
    if args.flight_action == "render":
        log = read_flight(args.artifact)
        print(render_flight_report(log, top_k=args.top))
        if args.html:
            Path(args.html).write_text(
                render_flight_html(log, top_k=args.top), encoding="utf-8"
            )
            print(f"\nhtml report -> {args.html}")
        return 0
    # diff
    baseline = read_flight(args.baseline)
    candidate = read_flight(args.candidate)
    lines, ok = diff_flights(baseline, candidate, tolerance=args.tolerance)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _cmd_audit(args) -> int:
    from repro.audit.chaos import chaos_audit_grid

    result = chaos_audit_grid(
        seeds=tuple(args.seeds),
        loss_rates=tuple(args.loss),
        churn_rates=tuple(args.churn),
        anti_entropy=not args.no_anti_entropy,
        jobs=args.jobs,
        scenario_overrides={"duration_minutes": args.duration},
    )
    _report(result, args, "chaos-audit")
    if result.failures or result.total_hard_violations:
        return 1
    # With repair enabled the bar is absolute: everything must converge.
    if not args.no_anti_entropy and result.total_unrepaired:
        return 1
    return 0


def _cmd_compare(args) -> int:
    from repro.experiments.reporting import compare_runs, load_result

    old = load_result(args.old)
    new = load_result(args.new)
    drifted = compare_runs(old, new, tolerance=args.tolerance)
    if not drifted:
        print(f"no metric drifted more than {args.tolerance:.0%}")
        return 0
    print(f"{len(drifted)} metrics drifted more than {args.tolerance:.0%}:")
    for path, before, after, delta in drifted:
        print(f"  {path}: {before:g} -> {after:g} ({delta:+.1%})")
    return 1


_HANDLERS = {
    "figure": lambda args: _run_named(_FIGURES[args.number], args),
    "figures": _cmd_figures,
    "ablation": lambda args: _run_named(_ABLATIONS[args.name], args),
    "extension": lambda args: _run_named(_EXTENSIONS[args.name], args),
    "trace": _cmd_trace,
    "run": _cmd_run,
    "observe": _cmd_observe,
    "resilience": _cmd_resilience,
    "overload": _cmd_overload,
    "elastic": _cmd_elastic,
    "zoo": _cmd_zoo,
    "flight": _cmd_flight,
    "audit": _cmd_audit,
    "compare": _cmd_compare,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # Downstream reader (head, less) closed the pipe; redirect stdout
        # to devnull so the interpreter's exit-time flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())

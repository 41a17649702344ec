"""One reproduction entry point per evaluation figure (Figures 3-9).

Each ``figureN`` function runs the corresponding experiment and returns a
result object carrying both the raw series and a :meth:`render` method that
prints the same rows/series the paper charts. The benchmark harness in
``benchmarks/`` is a thin wrapper over these functions.

Scaling
-------
The paper simulates 25 000-52 000 documents over 24 hours. Pure-Python
replays of that volume are possible but slow; every entry point therefore
takes a :class:`FigureScale`. ``SMALL_SCALE`` (the default) runs each figure
in seconds while preserving every qualitative conclusion (who wins, by
roughly what factor); ``PAPER_SCALE`` approaches the paper's sizes.
EXPERIMENTS.md records paper-vs-measured numbers at the benchmark scale.

Parallelism
-----------
Every entry point accepts ``jobs``: the sweep's independent runs are built
as :class:`~repro.experiments.parallel.ExperimentSpec` objects and executed
through :func:`~repro.experiments.parallel.run_sweep`, which fans out over
``jobs`` worker processes (``None`` defers to the ``REPRO_JOBS`` environment
variable, default serial). Results are value-identical at any job count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import (
    AssignmentScheme,
    CloudConfig,
    PlacementScheme,
    UtilityWeights,
    WEIGHTS_ALL_ON,
    WEIGHTS_DSCC_OFF,
)
from repro.core.overload import OverloadConfig
from repro.experiments.parallel import ExperimentSpec, WorkloadSpec, run_sweep
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.sweeps import (
    CLOUD_SIZE_SWEEP,
    RING_SIZE_SWEEP,
    UPDATE_RATE_SWEEP,
    ZIPF_SWEEP,
    rings_for,
)
from repro.metrics.loadbalance import improvement_percent
from repro.metrics.report import Table, format_figure_header
from repro.workload.documents import Corpus, seed_corpus_rng
from repro.workload.generator import WorkloadConfig
from repro.workload.sydney import SydneyConfig
from repro.workload.trace import Trace


@dataclass(frozen=True)
class FigureScale:
    """Run-size knobs shared by all figure reproductions."""

    num_documents: int
    request_rate_per_cache: float
    update_rate: float
    duration_minutes: float
    #: Sub-range determination cycle length. The paper uses 1 hour over a
    #: 24-hour trace (≈ 24 cycles); scaled runs shrink the cycle with the
    #: duration so the dynamic scheme gets a comparable number of cycles.
    cycle_length: float = 60.0
    #: Disk budget (fraction of corpus bytes) for the load-balance figures;
    #: keeps lookup traffic flowing at steady state.
    loadbalance_disk_fraction: float = 0.10
    #: Figure 9's limited-disk budget — the paper sets 5 % of the corpus.
    limited_disk_fraction: float = 0.05
    #: Multiplier applied to the paper's update-rate sweep in Figures 7-9.
    #: The paper's x-axis (10..1000 updates/unit) sits against an Olympics
    #: site's request volume, which dwarfs it; scaled-down runs shrink the
    #: sweep by the same factor as the request volume so the request:update
    #: ratio — the quantity the placement trade-off actually depends on —
    #: is preserved. Rendered tables report the actual simulated rates.
    update_sweep_scale: float = 1.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_documents <= 0 or self.duration_minutes <= 0:
            raise ValueError("scale sizes must be positive")


#: Fast default: each figure in seconds on a laptop.
SMALL_SCALE = FigureScale(
    num_documents=2_000,
    request_rate_per_cache=80.0,
    update_rate=195.0,
    duration_minutes=120.0,
    cycle_length=15.0,
    update_sweep_scale=0.25,
)

#: Tiny scale for unit tests.
TINY_SCALE = FigureScale(
    num_documents=300,
    request_rate_per_cache=30.0,
    update_rate=60.0,
    duration_minutes=40.0,
    cycle_length=5.0,
    update_sweep_scale=0.08,
)

#: Near-paper scale (tens of minutes of wall-clock).
PAPER_SCALE = FigureScale(
    num_documents=25_000,
    request_rate_per_cache=200.0,
    update_rate=195.0,
    duration_minutes=480.0,
    cycle_length=60.0,
)


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------
def _loadbalance_config(
    assignment: AssignmentScheme,
    num_caches: int,
    num_rings: int,
    scale: FigureScale,
    use_per_irh_load: bool = True,
) -> CloudConfig:
    """Cloud config for the load-balance experiments (Figures 3-6).

    Beacon-point placement keeps every non-beacon request flowing through
    the beacon (a lookup) at steady state, so beacon load carries the full
    Zipf skew of both components the paper counts ("number of document
    updates and document lookups ... per unit time"). Under ad-hoc placement
    with ample disk the hot documents are resident everywhere and lookups
    degenerate to the near-uniform tail, washing out the skew the experiment
    is about.
    """
    return CloudConfig(
        num_caches=num_caches,
        num_rings=num_rings,
        intra_gen=1000,
        cycle_length=scale.cycle_length,
        assignment=assignment,
        placement=PlacementScheme.BEACON,
        capacity_bytes=None,
        use_per_irh_load=use_per_irh_load,
        seed=scale.seed,
    )


def _zipf_workload(
    scale: FigureScale,
    num_caches: int,
    alpha: float = 0.9,
    update_rate: Optional[float] = None,
) -> WorkloadSpec:
    """Picklable recipe for a Zipf corpus + trace (built in sweep workers)."""
    return WorkloadSpec(
        generator_config=WorkloadConfig(
            num_documents=scale.num_documents,
            num_caches=num_caches,
            request_rate_per_cache=scale.request_rate_per_cache,
            update_rate=scale.update_rate if update_rate is None else update_rate,
            alpha_requests=alpha,
            duration_minutes=scale.duration_minutes,
            seed=scale.seed,
        ),
        corpus_documents=scale.num_documents,
        corpus_seed=scale.seed,
    )


def _sydney_workload(
    scale: FigureScale,
    num_caches: int,
    update_rate: Optional[float] = None,
) -> WorkloadSpec:
    """Picklable recipe for a Sydney-like corpus + trace."""
    return WorkloadSpec(
        generator_config=SydneyConfig(
            num_documents=scale.num_documents,
            num_caches=num_caches,
            peak_request_rate_per_cache=scale.request_rate_per_cache,
            base_update_rate=(
                scale.update_rate if update_rate is None else update_rate
            ),
            duration_minutes=scale.duration_minutes,
            diurnal_period_minutes=scale.duration_minutes,
            num_epochs=max(2, int(scale.duration_minutes / 60.0)),
            drift_pool=max(10, scale.num_documents // 10),
            seed=scale.seed,
        ),
        corpus_documents=scale.num_documents,
        corpus_seed=scale.seed,
    )


def _spec(
    key: object,
    config: CloudConfig,
    workload: WorkloadSpec,
    duration: float,
    overload: Optional[OverloadConfig] = None,
) -> ExperimentSpec:
    """An :class:`ExperimentSpec` with the figures' shared warm-up rule.

    Two full cycles of warm-up: the dynamic scheme has rebalanced at least
    twice before measurement starts, and the static scheme gets the
    identical window (common random numbers).
    """
    return ExperimentSpec(
        key=key,
        config=config,
        workload=workload,
        duration=duration,
        warmup=min(2.0 * config.cycle_length, duration / 2.0),
        overload=overload,
    )


def _run(
    config: CloudConfig, corpus: Corpus, trace: Trace, duration: float
) -> ExperimentResult:
    """One in-process experiment under the figures' shared warm-up rule."""
    warmup = min(2.0 * config.cycle_length, duration / 2.0)
    return run_experiment(
        config, corpus, trace.requests, trace.updates, duration=duration,
        warmup=warmup,
    )


# ----------------------------------------------------------------------
# Figures 3-4: per-beacon load distribution, static vs dynamic
# ----------------------------------------------------------------------
@dataclass
class LoadDistributionResult:
    """Result of a Figure-3/4-style comparison."""

    figure: str
    dataset: str
    static: ExperimentResult
    dynamic: ExperimentResult

    @property
    def static_peak_to_mean(self) -> float:
        """Heaviest-load / mean-load under static hashing."""
        return self.static.load_stats.peak_to_mean

    @property
    def dynamic_peak_to_mean(self) -> float:
        """Heaviest-load / mean-load under dynamic hashing."""
        return self.dynamic.load_stats.peak_to_mean

    @property
    def cov_improvement_percent(self) -> float:
        """CoV improvement of dynamic over static, percent."""
        return improvement_percent(self.static.load_stats.cov, self.dynamic.load_stats.cov)

    @property
    def peak_improvement_percent(self) -> float:
        """Peak/mean improvement of dynamic over static, percent."""
        return improvement_percent(self.static_peak_to_mean, self.dynamic_peak_to_mean)

    def render(self) -> str:
        """The figure's series as a table plus the headline statistics."""
        table = Table(
            ["rank", "static load", "dynamic load"],
            precision=1,
            title=f"Loads at beacon points (decreasing order), {self.dataset}",
        )
        static_loads = self.static.sorted_loads()
        dynamic_loads = self.dynamic.sorted_loads()
        for rank, (s, d) in enumerate(zip(static_loads, dynamic_loads), start=1):
            table.add_row(rank, s, d)
        lines = [
            format_figure_header(self.figure, f"load distribution, {self.dataset}"),
            table.render(),
            f"mean load: static={self.static.load_stats.mean:.1f} "
            f"dynamic={self.dynamic.load_stats.mean:.1f}",
            f"peak/mean: static={self.static_peak_to_mean:.2f} "
            f"dynamic={self.dynamic_peak_to_mean:.2f} "
            f"(improvement {self.peak_improvement_percent:.0f}%)",
            f"coeff. of variation: static={self.static.load_stats.cov:.3f} "
            f"dynamic={self.dynamic.load_stats.cov:.3f} "
            f"(improvement {self.cov_improvement_percent:.0f}%)",
        ]
        return "\n".join(lines)


def _load_distribution(
    figure: str,
    dataset: str,
    workload: WorkloadSpec,
    scale: FigureScale,
    jobs: Optional[int] = None,
    overload: Optional[OverloadConfig] = None,
) -> LoadDistributionResult:
    num_caches = 10
    specs = [
        _spec(
            scheme.value,
            _loadbalance_config(scheme, num_caches, 5, scale),
            workload,
            scale.duration_minutes,
            overload=overload,
        )
        for scheme in (AssignmentScheme.STATIC, AssignmentScheme.DYNAMIC)
    ]
    static, dynamic = run_sweep(specs, jobs=jobs)
    return LoadDistributionResult(figure, dataset, static, dynamic)


def figure3(
    scale: FigureScale = SMALL_SCALE,
    jobs: Optional[int] = None,
    overload: Optional[OverloadConfig] = None,
) -> LoadDistributionResult:
    """Figure 3: load distribution for the Zipf-0.9 dataset.

    Paper: 10 caches, 5 beacon rings of 2 beacon points, IntraGen 1000,
    1-hour cycles. Static hashing's heaviest beacon carries ~1.9x the mean;
    dynamic hashing cuts that to ~1.2x (a ~37 % improvement) and improves
    the coefficient of variation by ~63 %.

    ``overload`` optionally attaches a per-node service model to every
    run; a zero-cost config is value-identical to omitting it (pinned by
    the golden-fingerprint equivalence tests).
    """
    workload = _zipf_workload(scale, num_caches=10, alpha=0.9)
    return _load_distribution(
        "Figure 3", "Zipf-0.9 dataset", workload, scale, jobs=jobs,
        overload=overload,
    )


def figure4(
    scale: FigureScale = SMALL_SCALE, jobs: Optional[int] = None
) -> LoadDistributionResult:
    """Figure 4: load distribution for the Sydney(-like) dataset.

    Paper: dynamic hashing improves peak/mean by ~40 % (to 1.06) and the
    coefficient of variation by ~63 %.
    """
    workload = _sydney_workload(scale, num_caches=10)
    return _load_distribution(
        "Figure 4", "Sydney dataset", workload, scale, jobs=jobs
    )


# ----------------------------------------------------------------------
# Figure 5: beacon-ring size vs load balancing
# ----------------------------------------------------------------------
@dataclass
class Figure5Result:
    """CoV per (cloud size, scheme) — the grouped bars of Figure 5."""

    cloud_sizes: List[int]
    ring_sizes: List[int]
    #: (num_caches, label) -> coefficient of variation.
    cov: Dict[Tuple[int, str], float] = field(default_factory=dict)

    def labels(self) -> List[str]:
        """Bar labels in the paper's order."""
        return ["static"] + [f"dynamic/{r}-per-ring" for r in self.ring_sizes]

    def render(self) -> str:
        table = Table(
            ["caches"] + self.labels(),
            precision=3,
            title="Coefficient of variation by cloud size and beacon-ring size",
        )
        for n in self.cloud_sizes:
            table.add_row(n, *[self.cov[(n, label)] for label in self.labels()])
        return "\n".join(
            [
                format_figure_header(
                    "Figure 5", "impact of beacon ring size on load balancing"
                ),
                table.render(),
            ]
        )


def figure5(
    scale: FigureScale = SMALL_SCALE,
    cloud_sizes: Tuple[int, ...] = CLOUD_SIZE_SWEEP,
    ring_sizes: Tuple[int, ...] = RING_SIZE_SWEEP,
    jobs: Optional[int] = None,
) -> Figure5Result:
    """Figure 5: CoV for static vs dynamic at ring sizes 2/5/10.

    Paper: dynamic with 2 beacon points per ring already beats static
    significantly; growing rings to 5 and 10 improves balance incrementally.
    """
    result = Figure5Result(list(cloud_sizes), list(ring_sizes))
    specs = []
    for num_caches in cloud_sizes:
        workload = _sydney_workload(scale, num_caches=num_caches)
        specs.append(
            _spec(
                (num_caches, "static"),
                _loadbalance_config(AssignmentScheme.STATIC, num_caches, 1, scale),
                workload,
                scale.duration_minutes,
            )
        )
        for ring_size in ring_sizes:
            specs.append(
                _spec(
                    (num_caches, f"dynamic/{ring_size}-per-ring"),
                    _loadbalance_config(
                        AssignmentScheme.DYNAMIC,
                        num_caches,
                        rings_for(num_caches, ring_size),
                        scale,
                    ),
                    workload,
                    scale.duration_minutes,
                )
            )
    for spec, run in zip(specs, run_sweep(specs, jobs=jobs)):
        result.cov[spec.key] = run.load_stats.cov
    return result


# ----------------------------------------------------------------------
# Figure 6: Zipf-parameter sweep
# ----------------------------------------------------------------------
@dataclass
class Figure6Result:
    """CoV vs Zipf parameter for static and dynamic hashing."""

    alphas: List[float]
    cov_static: List[float] = field(default_factory=list)
    cov_dynamic: List[float] = field(default_factory=list)

    def divergence_at(self, alpha: float) -> float:
        """How much worse static is than dynamic at ``alpha``, percent."""
        index = self.alphas.index(alpha)
        dynamic = self.cov_dynamic[index]
        if dynamic == 0:
            return 0.0
        return (self.cov_static[index] - dynamic) / dynamic * 100.0

    def render(self) -> str:
        table = Table(
            ["zipf alpha", "static CoV", "dynamic CoV"],
            precision=3,
            title="Coefficient of variation vs workload skew",
        )
        for alpha, s, d in zip(self.alphas, self.cov_static, self.cov_dynamic):
            table.add_row(alpha, s, d)
        return "\n".join(
            [
                format_figure_header(
                    "Figure 6", "impact of Zipf parameter on load balancing"
                ),
                table.render(),
            ]
        )


def figure6(
    scale: FigureScale = SMALL_SCALE,
    alphas: Tuple[float, ...] = ZIPF_SWEEP,
    jobs: Optional[int] = None,
    overload: Optional[OverloadConfig] = None,
) -> Figure6Result:
    """Figure 6: CoV vs Zipf parameter (0 → 0.99).

    Paper: both schemes are balanced at low skew; CoV grows with skew for
    both but far faster for static hashing — ~45 % worse at alpha 0.9.
    """
    result = Figure6Result(list(alphas))
    specs = []
    for alpha in alphas:
        workload = _zipf_workload(scale, num_caches=10, alpha=alpha)
        for scheme in (AssignmentScheme.STATIC, AssignmentScheme.DYNAMIC):
            specs.append(
                _spec(
                    (alpha, scheme.value),
                    _loadbalance_config(scheme, 10, 5, scale),
                    workload,
                    scale.duration_minutes,
                    overload=overload,
                )
            )
    runs = run_sweep(specs, jobs=jobs)
    for static, dynamic in zip(runs[0::2], runs[1::2]):
        result.cov_static.append(static.load_stats.cov)
        result.cov_dynamic.append(dynamic.load_stats.cov)
    return result


# ----------------------------------------------------------------------
# Figures 7-9: placement-scheme comparison over the update-rate sweep
# ----------------------------------------------------------------------
PLACEMENT_LABELS = {
    PlacementScheme.AD_HOC: "ad hoc",
    PlacementScheme.UTILITY: "utility",
    PlacementScheme.BEACON: "beacon",
}


@dataclass
class PlacementSweepResult:
    """Per-update-rate results for the three placement schemes."""

    figure: str
    metric: str  # "docs stored %" or "network MB/unit"
    update_rates: List[float]
    #: scheme label -> series over update_rates.
    series: Dict[str, List[float]] = field(default_factory=dict)
    #: Unique documents in each trace's request stream (the Fig. 7 denominator).
    unique_docs: List[int] = field(default_factory=list)
    observed_rate: float = 195.0

    def value(self, scheme: str, update_rate: float) -> float:
        """Series value for ``scheme`` at ``update_rate``."""
        return self.series[scheme][self.update_rates.index(update_rate)]

    def render(self) -> str:
        table = Table(
            ["update rate"] + list(self.series),
            precision=2,
            title=f"{self.metric} vs document update rate "
            f"(observed rate ≈ {self.observed_rate:g}/unit)",
        )
        for index, rate in enumerate(self.update_rates):
            table.add_row(rate, *[self.series[s][index] for s in self.series])
        return "\n".join(
            [format_figure_header(self.figure, self.metric), table.render()]
        )


def _placement_config(
    placement: PlacementScheme,
    weights: UtilityWeights,
    capacity_bytes: Optional[int],
    scale: FigureScale,
) -> CloudConfig:
    return CloudConfig(
        num_caches=10,
        num_rings=5,
        cycle_length=scale.cycle_length,
        assignment=AssignmentScheme.DYNAMIC,
        placement=placement,
        utility_weights=weights,
        utility_threshold=0.5,
        capacity_bytes=capacity_bytes,
        seed=scale.seed,
    )


def _placement_sweep(
    figure: str,
    metric: str,
    scale: FigureScale,
    update_rates: Tuple[float, ...],
    weights: UtilityWeights,
    disk_fraction: Optional[float],
    jobs: Optional[int] = None,
) -> Tuple[PlacementSweepResult, PlacementSweepResult]:
    """Run the three placements over the sweep; returns (stored%, MB) results.

    Figures 7 and 8 are two views of the same runs (unlimited disk); Figure 9
    re-runs with limited disk. Sharing the runs keeps them consistent and
    halves the compute.
    """
    actual_rates = [rate * scale.update_sweep_scale for rate in update_rates]
    stored = PlacementSweepResult(
        figure,
        "documents stored per cache (%)",
        actual_rates,
        observed_rate=195.0 * scale.update_sweep_scale,
    )
    traffic = PlacementSweepResult(
        figure, metric, actual_rates, observed_rate=195.0 * scale.update_sweep_scale
    )
    schemes = [PlacementScheme.AD_HOC, PlacementScheme.UTILITY, PlacementScheme.BEACON]
    for label in (PLACEMENT_LABELS[s] for s in schemes):
        stored.series[label] = []
        traffic.series[label] = []
    if disk_fraction is None:
        capacity = None
    else:
        # The corpus depends only on the scale's seed — build it once here to
        # size the disk budget; workers rebuild the identical corpus.
        corpus = _sydney_workload(scale, num_caches=10).build_corpus()
        capacity = max(1, int(corpus.total_bytes * disk_fraction))
    specs = []
    for update_rate in update_rates:
        workload = _sydney_workload(
            scale, num_caches=10, update_rate=update_rate * scale.update_sweep_scale
        )
        for scheme in schemes:
            specs.append(
                _spec(
                    (update_rate, PLACEMENT_LABELS[scheme]),
                    _placement_config(scheme, weights, capacity, scale),
                    workload,
                    scale.duration_minutes,
                )
            )
    runs = run_sweep(specs, jobs=jobs)
    for spec, run in zip(specs, runs):
        _, label = spec.key
        if label == PLACEMENT_LABELS[schemes[0]]:
            stored.unique_docs.append(run.unique_request_docs)
            traffic.unique_docs.append(run.unique_request_docs)
        stored.series[label].append(
            100.0 * run.mean_resident_docs / run.unique_request_docs
        )
        traffic.series[label].append(run.network_mb_per_unit)
    return stored, traffic


def figure7_and_8(
    scale: FigureScale = SMALL_SCALE,
    update_rates: Tuple[float, ...] = UPDATE_RATE_SWEEP,
    jobs: Optional[int] = None,
) -> Tuple[PlacementSweepResult, PlacementSweepResult]:
    """Figures 7-8: unlimited disk, DsCC off (weights ⅓/⅓/0/⅓).

    Figure 7 (documents stored per cache): ad hoc ≈ everything, beacon ≈
    1/num_caches, utility high at low update rates and falling as updates
    dominate. Figure 8 (network MB per unit time): utility lowest at every
    rate; ad hoc grows fastest with update rate; beacon high at all rates.
    """
    return _placement_sweep(
        "Figures 7-8",
        "network load (MB per unit time), unlimited disk",
        scale,
        update_rates,
        WEIGHTS_DSCC_OFF,
        disk_fraction=None,
        jobs=jobs,
    )


def figure7(scale: FigureScale = SMALL_SCALE, **kwargs) -> PlacementSweepResult:
    """Figure 7 only (documents stored per cache, unlimited disk)."""
    stored, _ = figure7_and_8(scale, **kwargs)
    stored.figure = "Figure 7"
    return stored


def figure8(scale: FigureScale = SMALL_SCALE, **kwargs) -> PlacementSweepResult:
    """Figure 8 only (network load, unlimited disk)."""
    _, traffic = figure7_and_8(scale, **kwargs)
    traffic.figure = "Figure 8"
    return traffic


def figure9(
    scale: FigureScale = SMALL_SCALE,
    update_rates: Tuple[float, ...] = UPDATE_RATE_SWEEP,
    jobs: Optional[int] = None,
) -> PlacementSweepResult:
    """Figure 9: network load with disk = 5 % of the corpus, LRU, DsCC on.

    Paper: utility placement still generates the least traffic; its edge
    over ad hoc at *low* update rates is much larger than in the unlimited
    case (~25 % vs ~8 %) because the utility function is now also fighting
    disk-space contention.
    """
    _, traffic = _placement_sweep(
        "Figure 9",
        "network load (MB per unit time), disk = 5% of corpus",
        scale,
        update_rates,
        WEIGHTS_ALL_ON,
        disk_fraction=scale.limited_disk_fraction,
        jobs=jobs,
    )
    traffic.figure = "Figure 9"
    return traffic

"""Parallel experiment engine: fan experiment *cells* over processes.

Every §8 experiment decomposes into independent cells — one selector run
plus its metric evaluations for a given configuration and repetition.
The engine makes that decomposition explicit and executes it either
serially or over a :class:`~concurrent.futures.ProcessPoolExecutor`,
with three guarantees:

* **Determinism across job counts.**  Cells are enumerated in a
  canonical order and cell ``i`` draws its randomness from
  ``np.random.SeedSequence(seed).spawn(n)[i]`` (reconstructed in the
  worker as ``SeedSequence(entropy=seed, spawn_key=(i,))``, which is the
  identical sequence).  Results are reassembled positionally, so
  ``jobs=1`` and ``jobs=N`` produce byte-identical tables and
  selections.
* **Compact work shipping.**  Workers receive an
  :class:`InstanceSpec` — the handful of integers that *rebuild* a
  configuration — never a pickled repository or
  :class:`~repro.core.index.InstanceIndex`.  Each worker materializes a
  spec at most once (module-level cache); under the default ``fork``
  start method the parent pre-materializes every spec so children
  inherit the built instance and its CSR index copy-on-write for free.
* **One instance build per configuration.**  Materialization runs the
  offline grouping module (Fig. 1) and warms the sparse index, so every
  cell of a configuration shares one build — in a worker or in the
  parent.

The figure modules (:mod:`~repro.experiments.fig3`,
:mod:`~repro.experiments.fig4`, :mod:`~repro.experiments.scalability`,
:mod:`~repro.experiments.optimal_ratio`) all route through
:func:`run_cells`; ``repro report --jobs N`` and ``repro bench --suite
experiments`` expose the knob on the command line.  The bench
(:func:`benchmark_experiment_engine`) times the engine against a serial
baseline that runs Podium on the paper's eager Algorithm 1, and
records whether every mode reproduced its selections and table.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import zlib
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..baselines import (
    ClusteringSelector,
    DistanceSelector,
    PodiumSelector,
    RandomSelector,
    Selector,
)
from ..core.errors import PodiumError
from ..core.greedy import greedy_select
from ..core.groups import GroupingConfig, build_simple_groups
from ..core.index import instance_index
from ..core.instance import build_instance
from ..core.optimal import optimal_select
from ..core.weights import EBSWeights, IdenWeights, LBSWeights, PropCoverage, SingleCoverage
from ..datasets.derive import (
    build_repository,
    tripadvisor_derive_config,
    yelp_derive_config,
)
from ..datasets.synth import (
    generate,
    generate_profile_repository,
    tripadvisor_config,
    yelp_config,
)
from ..metrics.intrinsic import evaluate_intrinsic
from .harness import INTRINSIC_METRICS, ComparisonTable

_WEIGHT_SCHEMES = {None: None, "Iden": IdenWeights, "LBS": LBSWeights, "EBS": EBSWeights}
_COVERAGE_SCHEMES = {None: None, "Single": SingleCoverage, "Prop": PropCoverage}

_SYNTH_PRESETS = {"tripadvisor": tripadvisor_config, "yelp": yelp_config}
_DERIVE_PRESETS = {
    "tripadvisor": tripadvisor_derive_config,
    "yelp": yelp_derive_config,
}


# ---------------------------------------------------------------------------
# Instance specs — the compact rebuild recipe shipped to workers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaterializedSpec:
    """What a spec rebuilds: dataset and/or repository + instance."""

    dataset: Any = None
    repository: Any = None
    instance: Any = None


@dataclass(frozen=True)
class InstanceSpec:
    """Compact, hashable recipe for one experiment configuration.

    ``kind`` selects the rebuild path:

    * ``"profiles"`` — :func:`generate_profile_repository` (the Figs. 5–6
      populations) + grouping + instance;
    * ``"reviews"`` — synthetic review platform (``preset``) + profile
      derivation + grouping + instance (the Fig. 3/4 populations);
    * ``"dataset"`` — the raw review dataset only (procurement cells
      derive their own per-destination holdout repositories).
    """

    kind: str
    preset: str = "tripadvisor"
    n_users: int = 500
    dataset_seed: int = 0
    budget: int = 8
    min_support: int = 1
    n_properties: int = 200
    mean_profile_size: float = 40.0
    weight_scheme: str | None = None
    coverage_scheme: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("profiles", "reviews", "dataset"):
            raise PodiumError(
                f"spec kind must be 'profiles', 'reviews' or 'dataset', "
                f"got {self.kind!r}"
            )
        if self.kind != "profiles" and self.preset not in _SYNTH_PRESETS:
            raise PodiumError(f"unknown preset {self.preset!r}")
        if self.weight_scheme not in _WEIGHT_SCHEMES:
            raise PodiumError(f"unknown weight scheme {self.weight_scheme!r}")
        if self.coverage_scheme not in _COVERAGE_SCHEMES:
            raise PodiumError(
                f"unknown coverage scheme {self.coverage_scheme!r}"
            )

    def materialize(self) -> MaterializedSpec:
        """Rebuild the configuration from scratch (deterministic)."""
        if self.kind == "profiles":
            repository = generate_profile_repository(
                n_users=self.n_users,
                n_properties=self.n_properties,
                mean_profile_size=self.mean_profile_size,
                seed=self.dataset_seed,
            )
            dataset = None
        else:
            config = _SYNTH_PRESETS[self.preset](n_users=self.n_users)
            dataset = generate(config, seed=self.dataset_seed)
            if self.kind == "dataset":
                return MaterializedSpec(dataset=dataset)
            repository = build_repository(
                dataset, _DERIVE_PRESETS[self.preset]()
            )
        groups = build_simple_groups(
            repository, GroupingConfig(min_support=self.min_support)
        )
        weight_cls = _WEIGHT_SCHEMES[self.weight_scheme]
        coverage_cls = _COVERAGE_SCHEMES[self.coverage_scheme]
        instance = build_instance(
            repository,
            self.budget,
            groups=groups,
            weight_scheme=weight_cls() if weight_cls else None,
            coverage_scheme=coverage_cls() if coverage_cls else None,
        )
        instance_index(instance)  # warm the CSR index: one build per config
        return MaterializedSpec(
            dataset=dataset, repository=repository, instance=instance
        )


#: Per-process materialization cache.  Under ``fork`` the parent warms it
#: before spawning workers, so children inherit built instances
#: copy-on-write; under ``spawn`` each worker rebuilds a spec on first use.
_SPEC_CACHE: dict[InstanceSpec, MaterializedSpec] = {}


def materialize_cached(spec: InstanceSpec) -> MaterializedSpec:
    """Materialize ``spec`` once per process."""
    hit = _SPEC_CACHE.get(spec)
    if hit is None:
        hit = spec.materialize()
        _SPEC_CACHE[spec] = hit
    return hit


# ---------------------------------------------------------------------------
# Selector registry — cells name selectors by key, workers instantiate.
# ---------------------------------------------------------------------------

_SELECTOR_FACTORIES: dict[str, Callable[[], Selector]] = {
    "podium": PodiumSelector,
    "podium-eager": lambda: PodiumSelector(method="eager"),
    "podium-sharded": lambda: PodiumSelector(method="sharded"),
    "podium-stochastic": lambda: PodiumSelector(method="stochastic"),
    "random": RandomSelector,
    "clustering": ClusteringSelector,
    "distance": DistanceSelector,
    "distance-min": lambda: DistanceSelector("min"),
}

#: Row names used when assembling tables from selector keys.
SELECTOR_DISPLAY = {
    "podium": "Podium",
    "podium-eager": "Podium",
    "podium-sharded": "Podium-sharded",
    "podium-stochastic": "Podium-stochastic",
    "random": "Random",
    "clustering": "Clustering",
    "distance": "Distance",
    "distance-min": "Distance-min",
}


def make_selector(key: str) -> Selector:
    """Instantiate the selector registered under ``key``."""
    try:
        return _SELECTOR_FACTORIES[key]()
    except KeyError:
        raise PodiumError(
            f"unknown selector key {key!r}; known: "
            f"{sorted(_SELECTOR_FACTORIES)}"
        ) from None


# ---------------------------------------------------------------------------
# Cells and the process-pool driver.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentCell:
    """One independent unit of experiment work.

    With ``seed_mode="spawn"`` (the default), ``seed`` is
    ``(entropy, spawn_index)`` and the worker rebuilds the rng as
    ``SeedSequence(entropy=entropy, spawn_key=(spawn_index,))`` — exactly
    the child ``SeedSequence(entropy).spawn(...)`` would hand out for that
    index — so the stream depends only on the cell's identity, never on
    which process or in which order it runs.

    ``seed_mode="raw"`` instead feeds ``seed`` verbatim to
    ``np.random.default_rng``; the figure modules use it to reproduce the
    exact streams of the pre-engine serial loops (e.g. Fig. 3's
    ``default_rng((seed, selector_index, repetition))``), which is equally
    schedule-independent.  ``seed=None`` runs the cell without an rng
    (fully deterministic selectors).
    """

    runner: str
    spec: InstanceSpec
    params: tuple = ()
    seed: tuple | None = None
    seed_mode: str = "spawn"


def cell_rng(cell: ExperimentCell) -> np.random.Generator | None:
    """Reconstruct the cell's deterministic, process-independent rng."""
    if cell.seed is None:
        return None
    if cell.seed_mode == "raw":
        return np.random.default_rng(cell.seed)
    if cell.seed_mode != "spawn":
        raise PodiumError(
            f"seed_mode must be 'spawn' or 'raw', got {cell.seed_mode!r}"
        )
    entropy, spawn_index = cell.seed
    return np.random.default_rng(
        np.random.SeedSequence(entropy=entropy, spawn_key=(spawn_index,))
    )


_CELL_RUNNERS: dict[str, Callable] = {}


def _runner(name: str) -> Callable:
    def register(fn: Callable) -> Callable:
        _CELL_RUNNERS[name] = fn
        return fn

    return register


def run_cell(cell: ExperimentCell):
    """Execute one cell in the current process (worker entry point)."""
    try:
        fn = _CELL_RUNNERS[cell.runner]
    except KeyError:
        raise PodiumError(
            f"unknown cell runner {cell.runner!r}; known: "
            f"{sorted(_CELL_RUNNERS)}"
        ) from None
    return fn(cell.spec, cell.params, cell_rng(cell))


def normalize_jobs(jobs: int | None) -> int:
    """``None``/``0``/negative → every core; otherwise ``jobs``."""
    if not jobs or jobs < 1:
        return os.cpu_count() or 1
    return jobs


def run_cells(cells: Iterable[ExperimentCell], jobs: int | None = 1) -> list:
    """Run every cell, serially or across ``jobs`` worker processes.

    Results come back in cell order regardless of completion order, and
    per-cell seeding makes them independent of the schedule, so any
    ``jobs`` value yields identical output.
    """
    cells = list(cells)
    jobs = normalize_jobs(jobs)
    if jobs <= 1 or len(cells) <= 1:
        return [run_cell(cell) for cell in cells]
    if multiprocessing.get_start_method() == "fork":
        # Build each configuration once in the parent: forked workers
        # inherit the materialized instances copy-on-write instead of
        # rebuilding (or being shipped pickles).
        for cell in cells:
            materialize_cached(cell.spec)
    workers = min(jobs, len(cells))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_cell, cells))


# ---------------------------------------------------------------------------
# Cell runners.
# ---------------------------------------------------------------------------


@_runner("intrinsic")
def _intrinsic_cell(
    spec: InstanceSpec, params: tuple, rng: np.random.Generator | None
) -> dict:
    """One selector run + its intrinsic metric evaluations."""
    selector_key, top_k = params
    built = materialize_cached(spec)
    selector = make_selector(selector_key)
    selected = selector.select(
        built.repository, built.instance, spec.budget, rng=rng
    )
    report = evaluate_intrinsic(built.instance, selected, k=top_k)
    return {"selected": list(selected), "metrics": report.as_dict()}


@_runner("procurement")
def _procurement_cell(
    spec: InstanceSpec, params: tuple, rng: np.random.Generator | None
) -> dict:
    """One held-out destination: every selector's procurement selection.

    Mirrors :func:`repro.procurement.simulate.run_procurement` exactly —
    shared holdout repository per destination, crc32-tagged rng stream
    per selector — so the parallel run is byte-identical to the serial
    one.
    """
    from ..procurement.simulate import holdout_repository, procure_destination

    destination, destination_index, selector_keys, config, seed = params
    built = materialize_cached(spec)
    repository = holdout_repository(built.dataset, destination, config)
    selections: dict[str, list[str]] = {}
    for key in selector_keys:
        selector = make_selector(key)
        name_tag = zlib.crc32(selector.name.encode()) & 0xFFFF
        stream = np.random.default_rng((seed, destination_index, name_tag))
        selections[key] = procure_destination(
            built.dataset,
            destination,
            selector,
            config,
            rng=stream,
            repository=repository,
        )
    return selections


@_runner("fig4")
def _fig4_cell(
    spec: InstanceSpec, params: tuple, rng: np.random.Generator | None
) -> list[tuple[int, dict]]:
    """One Fig. 4 repetition: nested priority sets, one run per size."""
    from ..core.customization import (
        CustomizationFeedback,
        custom_select,
        feedback_group_coverage,
    )
    from .fig4 import _nested_priority_sets

    priority_sizes = params[0]
    built = materialize_cached(spec)
    nested = _nested_priority_sets(built.instance, priority_sizes, rng)
    results = []
    for size, priority in zip(priority_sizes, nested):
        feedback = CustomizationFeedback(priority=priority)
        custom = custom_select(
            built.repository, built.instance, feedback, spec.budget
        )
        metrics = evaluate_intrinsic(built.instance, custom.selected).as_dict()
        metrics["feedback_group_coverage"] = feedback_group_coverage(
            built.instance, feedback, custom.selected
        )
        results.append((size, metrics))
    return results


@_runner("timing")
def _timing_cell(
    spec: InstanceSpec, params: tuple, rng: np.random.Generator | None
) -> float:
    """Wall-clock one selection run (Figs. 5–6); build time excluded."""
    (selector_key,) = params
    built = materialize_cached(spec)
    selector = make_selector(selector_key)
    start = time.perf_counter()
    selector.select(built.repository, built.instance, spec.budget, rng=rng)
    return time.perf_counter() - start


@_runner("constraints")
def _constraints_cell(
    spec: InstanceSpec, params: tuple, rng: np.random.Generator | None
) -> dict:
    """One constrained-selection scenario vs the unconstrained greedy."""
    from .constraints import run_constraint_cell

    return run_constraint_cell(spec, params)


@_runner("ratio")
def _ratio_cell(
    spec: InstanceSpec, params: tuple, rng: np.random.Generator | None
) -> dict:
    """Greedy vs exhaustive-optimal scores on one (tiny) instance."""
    built = materialize_cached(spec)
    greedy = greedy_select(built.repository, built.instance, spec.budget)
    best = optimal_select(built.repository, built.instance, spec.budget)
    ratio = 1.0 if best.score == 0 else float(greedy.score / best.score)
    return {
        "greedy_score": float(greedy.score),
        "optimal_score": float(best.score),
        "ratio": ratio,
    }


# ---------------------------------------------------------------------------
# High-level experiment drivers.
# ---------------------------------------------------------------------------


@dataclass
class IntrinsicEngineResult:
    """Assembled output of an engine-run intrinsic comparison."""

    table: ComparisonTable
    #: Selector key -> one selection per repetition, in cell order.
    selections: dict[str, list[list[str]]] = field(default_factory=dict)


def intrinsic_cells(
    spec: InstanceSpec,
    selectors: Sequence[tuple[str, int]],
    top_k: int,
    seed: int,
    unseeded: tuple[str, ...] = (),
    seed_mode: str = "spawn",
) -> list[ExperimentCell]:
    """Enumerate intrinsic cells — ``(key, repetitions)`` per selector.

    In ``"spawn"`` mode the spawn index advances for every cell (including
    unseeded ones), so two cell lists with the same shape draw the same
    streams per position — what the benchmark's eager/matrix parity
    rides on.  In ``"raw"`` mode cell ``(selector_index, rep)`` seeds
    ``default_rng((seed, selector_index, rep))``, replaying the
    pre-engine serial loop of ``run_intrinsic_comparison`` exactly.
    """
    cells = []
    spawn_index = 0
    for selector_index, (key, repetitions) in enumerate(selectors):
        for rep in range(repetitions):
            if key in unseeded:
                cell_seed = None
            elif seed_mode == "raw":
                cell_seed = (seed, selector_index, rep)
            else:
                cell_seed = (seed, spawn_index)
            cells.append(
                ExperimentCell(
                    runner="intrinsic",
                    spec=spec,
                    params=(key, top_k),
                    seed=cell_seed,
                    seed_mode=seed_mode,
                )
            )
            spawn_index += 1
    return cells


def run_intrinsic_experiment(
    title: str,
    spec: InstanceSpec,
    selector_keys: Sequence[str],
    repetitions: int = 3,
    top_k: int = 200,
    seed: int = 0,
    jobs: int | None = 1,
    stochastic: tuple[str, ...] = ("random", "clustering"),
    unseeded: tuple[str, ...] = (),
    seed_mode: str = "spawn",
) -> IntrinsicEngineResult:
    """Engine-backed equivalent of ``run_intrinsic_comparison``.

    Stochastic selectors are averaged over ``repetitions`` independent
    cells; deterministic ones pay a single cell.  Any ``jobs`` value
    yields the identical table.
    """
    selectors = [
        (key, repetitions if key in stochastic else 1)
        for key in selector_keys
    ]
    cells = intrinsic_cells(
        spec, selectors, top_k, seed, unseeded=unseeded, seed_mode=seed_mode,
    )
    results = run_cells(cells, jobs=jobs)

    table = ComparisonTable(title, INTRINSIC_METRICS)
    selections: dict[str, list[list[str]]] = {}
    position = 0
    for key, reps in selectors:
        chunk = results[position:position + reps]
        position += reps
        selections[key] = [r["selected"] for r in chunk]
        table.add_row(
            SELECTOR_DISPLAY.get(key, key),
            {
                metric: float(
                    np.mean([r["metrics"][metric] for r in chunk])
                )
                for metric in INTRINSIC_METRICS
            },
        )
    return IntrinsicEngineResult(table=table, selections=selections)


def run_procurement_experiment(
    dataset_spec: InstanceSpec,
    selector_keys: Sequence[str],
    config,
    seed: int = 0,
    jobs: int | None = 1,
):
    """Engine-backed §8.4 procurement: one cell per held-out destination.

    Returns ``{selector display name: OpinionReport}`` — byte-identical
    to :func:`repro.procurement.simulate.run_procurement` on the same
    dataset/config/seed, for every ``jobs`` value.
    """
    from ..metrics.opinion import evaluate_opinions
    from ..procurement.simulate import pick_destinations

    built = materialize_cached(dataset_spec)
    destinations = pick_destinations(built.dataset, config)
    selector_keys = tuple(selector_keys)
    cells = [
        ExperimentCell(
            runner="procurement",
            spec=dataset_spec,
            params=(destination, index, selector_keys, config, seed),
        )
        for index, destination in enumerate(destinations)
    ]
    results = run_cells(cells, jobs=jobs)
    per_selector: dict[str, dict[str, list[str]]] = {
        key: {} for key in selector_keys
    }
    for destination, cell_result in zip(destinations, results):
        for key in selector_keys:
            per_selector[key][destination] = cell_result[key]
    return {
        SELECTOR_DISPLAY.get(key, key): evaluate_opinions(
            built.dataset, per_destination
        )
        for key, per_destination in per_selector.items()
    }


# ---------------------------------------------------------------------------
# End-to-end engine benchmark (BENCH_experiments.json).
# ---------------------------------------------------------------------------

#: Selector keys of the fig3-style bench, and its serial baseline: the
#: same selectors with Podium on the paper's eager Algorithm 1.
#: Clustering is excluded: its k-means is an order of magnitude slower
#: than every other selector (§8.5), so it would only mask the layers
#: this benchmark measures.
BENCH_SELECTORS: tuple[str, ...] = (
    "podium", "random", "distance", "distance-min",
)
BENCH_BASELINE_SELECTORS: tuple[str, ...] = (
    "podium-eager", "random", "distance", "distance-min",
)


def benchmark_experiment_engine(
    users: int = 2000,
    budget: int = 8,
    repetitions: int = 10,
    top_k: int = 200,
    seed: int = 3,
    jobs: int = 4,
) -> dict:
    """Time a fig3-style intrinsic experiment end-to-end, three ways.

    Modes: the serial baseline (``serial-eager``: Podium on eager
    Algorithm 1, every cell in the parent), then the engine with matrix
    Podium at ``jobs`` ∈ {1, ``jobs``, all cores}.  The instance build
    (the offline grouping module of Fig. 1) is identical in every mode
    and reported once as ``build_seconds``, mirroring the
    ``index_build_seconds`` convention of ``BENCH_selection.json``; the
    timed section is the experiment proper — every selector run and
    metric evaluation.  One untimed warm-up run (the engine at jobs 1,
    reported as ``warmup_seconds``) precedes every timed mode: the first
    run of the metrics in a process is slower than any later one, so
    without it the first mode timed would pay for all of them.
    ``selections_match`` records that each mode reproduced the
    baseline's selections cell for cell.
    """
    spec = InstanceSpec(
        kind="profiles",
        n_users=users,
        dataset_seed=seed,
        budget=budget,
        min_support=2,
    )
    # Podium is deterministic here (rng=None), the domain where its
    # eager and matrix backends select identical sequences.
    stochastic = ("random", "distance", "distance-min")
    unseeded = ("podium", "podium-eager")

    start = time.perf_counter()
    materialize_cached(spec)
    build_seconds = time.perf_counter() - start

    def run(keys, run_jobs):
        start = time.perf_counter()
        result = run_intrinsic_experiment(
            "fig3-style engine bench",
            spec,
            keys,
            repetitions=repetitions,
            top_k=top_k,
            seed=seed,
            jobs=run_jobs,
            stochastic=stochastic,
            unseeded=unseeded,
        )
        return time.perf_counter() - start, result

    warmup_seconds, _ = run(BENCH_SELECTORS, 1)
    baseline_seconds, baseline = run(BENCH_BASELINE_SELECTORS, 1)
    reference = [
        selection
        for key in BENCH_BASELINE_SELECTORS
        for selection in baseline.selections[key]
    ]

    all_jobs = os.cpu_count() or 1
    rows = [
        {"mode": "serial-eager", "jobs": 1, "seconds": baseline_seconds},
    ]
    for run_jobs in dict.fromkeys((1, jobs, all_jobs)):
        seconds, result = run(BENCH_SELECTORS, run_jobs)
        flat = [
            selection
            for key in BENCH_SELECTORS
            for selection in result.selections[key]
        ]
        rows.append(
            {
                "mode": "engine-vectorized",
                "jobs": run_jobs,
                "seconds": seconds,
                "speedup_vs_serial_eager": baseline_seconds / seconds,
                "selections_match": flat == reference,
                "table_matches": result.table.rows == baseline.table.rows,
            }
        )
    return {
        "experiment": "fig3_style_experiment_engine",
        "users": users,
        "budget": budget,
        "repetitions": repetitions,
        "top_k": top_k,
        "seed": seed,
        "selectors": list(BENCH_SELECTORS),
        "baseline_selectors": list(BENCH_BASELINE_SELECTORS),
        "cpu_count": all_jobs,
        "build_seconds": build_seconds,
        "warmup_seconds": warmup_seconds,
        "rows": rows,
    }

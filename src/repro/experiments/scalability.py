"""Figures 5–6 reproduction: execution-time scalability.

* Fig. 5 — runtime versus population size ``|U|`` (profiles capped at
  200 properties in the paper's runs).
* Fig. 6 — runtime versus average profile size at a fixed population.

Expected shapes: Podium and the distance baseline scale linearly on both
axes and run roughly an order of magnitude faster than clustering; the
Optimal baseline explodes exponentially and is reported separately
(:mod:`repro.experiments.optimal_ratio`).

Timings cover the *selection* step only, matching the paper: bucketing
and weight computation happen in the offline grouping module (Fig. 1).

``repro bench`` (``BENCH_selection.json``) adds two reports:
:func:`benchmark_selection_backends` times eager/lazy/matrix greedy with
a cross-backend selection check, and
:func:`benchmark_index_native_stages` times the request-time stages —
the one explanation path, and customization eager vs matrix with an
exact-parity flag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..baselines import (
    ClusteringSelector,
    DistanceSelector,
    PodiumSelector,
    Selector,
)
from ..core.customization import CustomizationFeedback, custom_select
from ..core.explanations import explain_selection
from ..core.greedy import greedy_select
from ..core.groups import GroupingConfig, build_simple_groups
from ..core.index import instance_index
from ..core.instance import build_instance
from ..datasets.synth import generate_profile_repository
from .engine import SELECTOR_DISPLAY, ExperimentCell, InstanceSpec, run_cells
from .harness import TimingRow

#: Backends compared by the selection-backend benchmark, slowest first.
SELECTION_BACKENDS: tuple[str, ...] = ("eager", "lazy", "matrix")

#: Engine keys of the Figs. 5–6 algorithms (Random is immediate, §8.5).
SCALABILITY_SELECTOR_KEYS: tuple[str, ...] = (
    "podium",
    "clustering",
    "distance",
)


@dataclass(frozen=True)
class ScalabilitySetup:
    """Knobs of the scalability sweeps (sizes default laptop-scale)."""

    budget: int = 8
    user_sizes: tuple[int, ...] = (500, 1000, 2000, 4000)
    n_properties: int = 200
    mean_profile_size: float = 40.0
    profile_sizes: tuple[int, ...] = (10, 20, 40, 80)
    fixed_users: int = 2000
    seed: int = 3
    repetitions: int = 3
    #: Selection budget of the post-selection stage benchmark
    #: (:func:`benchmark_index_native_stages`).  Larger than the Fig. 5
    #: budget because explanation/customization cost scales with the
    #: panel size being explained, and the paper's prototype serves
    #: panels well beyond 8 members.
    stage_budget: int = 64


def scalability_selectors() -> list[Selector]:
    """Podium, Clustering and Distance (Random is immediate, §8.5)."""
    return [PodiumSelector(), ClusteringSelector(), DistanceSelector()]


def _timing_sweep(
    specs: list[tuple[int, InstanceSpec]],
    setup: ScalabilitySetup,
    jobs: int | None,
) -> list[TimingRow]:
    """Run every (x, spec) × selector × repetition as engine timing cells.

    The whole sweep is one cell batch, so with ``jobs > 1`` all sizes
    progress concurrently; the median per (x, selector) is reported.
    Timings with ``jobs > 1`` share cores and only indicate relative
    shape — use the serial default for publishable numbers.
    """
    cells = [
        ExperimentCell(
            runner="timing",
            spec=spec,
            params=(key,),
            seed=(setup.seed, repetition),
            seed_mode="raw",
        )
        for _, spec in specs
        for key in SCALABILITY_SELECTOR_KEYS
        for repetition in range(setup.repetitions)
    ]
    seconds = iter(run_cells(cells, jobs=jobs))
    rows: list[TimingRow] = []
    for x, _ in specs:
        for key in SCALABILITY_SELECTOR_KEYS:
            samples = [next(seconds) for _ in range(setup.repetitions)]
            rows.append(
                TimingRow(SELECTOR_DISPLAY[key], x, float(np.median(samples)))
            )
    return rows


def scalability_in_users(
    setup: ScalabilitySetup | None = None, jobs: int | None = 1
) -> list[TimingRow]:
    """Fig. 5: runtime as ``|U|`` grows (≤200 properties per profile)."""
    setup = setup or ScalabilitySetup()
    specs = [
        (
            n_users,
            InstanceSpec(
                kind="profiles",
                n_users=n_users,
                dataset_seed=setup.seed,
                budget=setup.budget,
                min_support=2,
                n_properties=setup.n_properties,
                mean_profile_size=setup.mean_profile_size,
            ),
        )
        for n_users in setup.user_sizes
    ]
    return _timing_sweep(specs, setup, jobs)


def scalability_in_profile_size(
    setup: ScalabilitySetup | None = None, jobs: int | None = 1
) -> list[TimingRow]:
    """Fig. 6: runtime as the average profile size grows, fixed ``|U|``."""
    setup = setup or ScalabilitySetup()
    specs = [
        (
            mean_size,
            InstanceSpec(
                kind="profiles",
                n_users=setup.fixed_users,
                dataset_seed=setup.seed,
                budget=setup.budget,
                min_support=2,
                n_properties=max(setup.n_properties, 2 * mean_size),
                mean_profile_size=float(mean_size),
            ),
        )
        for mean_size in setup.profile_sizes
    ]
    return _timing_sweep(specs, setup, jobs)


def benchmark_selection_backends(
    setup: ScalabilitySetup | None = None,
    backends: tuple[str, ...] = SELECTION_BACKENDS,
) -> dict:
    """Time every greedy backend on the Fig. 5 sweep (same instances).

    For each population size the diversification instance is built once
    (the offline grouping module of Fig. 1), the sparse index is
    pre-built — its cost is reported separately as
    ``index_build_seconds``, mirroring the paper's convention of timing
    the selection step only — and each backend runs ``repetitions``
    deterministic selections (``rng=None``); the median wall-clock is
    reported.  Backends must select identical sequences; the row records
    the check so regressions surface in ``BENCH_selection.json``.
    """
    setup = setup or ScalabilitySetup()
    rows: list[dict] = []
    for n_users in setup.user_sizes:
        repository = generate_profile_repository(
            n_users=n_users,
            n_properties=setup.n_properties,
            mean_profile_size=setup.mean_profile_size,
            seed=setup.seed,
        )
        groups = build_simple_groups(repository, GroupingConfig(min_support=2))
        instance = build_instance(repository, setup.budget, groups=groups)
        start = time.perf_counter()
        instance_index(instance)
        index_seconds = time.perf_counter() - start

        seconds: dict[str, float] = {}
        selections: dict[str, tuple[str, ...]] = {}
        for backend in backends:
            samples = []
            for _ in range(setup.repetitions):
                start = time.perf_counter()
                result = greedy_select(
                    repository, instance, setup.budget, method=backend
                )
                samples.append(time.perf_counter() - start)
            seconds[backend] = float(np.median(samples))
            selections[backend] = result.selected
        reference = selections[backends[0]]
        row = {
            "users": n_users,
            "groups": len(instance.groups),
            "index_build_seconds": index_seconds,
            "seconds": seconds,
            "selections_match": all(
                s == reference for s in selections.values()
            ),
        }
        if "eager" in seconds and "matrix" in seconds and seconds["matrix"]:
            row["speedup_matrix_vs_eager"] = (
                seconds["eager"] / seconds["matrix"]
            )
        rows.append(row)
    return {
        "experiment": "fig5_selection_backends",
        "budget": setup.budget,
        "n_properties": setup.n_properties,
        "mean_profile_size": setup.mean_profile_size,
        "repetitions": setup.repetitions,
        "seed": setup.seed,
        "backends": list(backends),
        "rows": rows,
    }


def benchmark_index_native_stages(
    setup: ScalabilitySetup | None = None,
) -> dict:
    """Time the post-selection stages every ``POST /select`` pays.

    For each population size one instance is built (budget
    ``setup.stage_budget``), a panel is selected once, and then two
    request-time stages are timed:

    * **explanation** — :func:`repro.core.explanations.explain_selection`
      with three distribution properties (CSR hits + memoized payload);
    * **customization** — :func:`repro.core.customization.custom_select`
      with a representative feedback (one must-not group, two priority
      groups), ``method="eager"`` (the paper's Algorithm 1 on the
      rescaled dict instance) versus ``method="matrix"``.

    Each stage runs once untimed (warming the cached index, reverse
    links and explanation sort orders — the steady state a serving
    process sits in) and then ``repetitions`` timed runs; the median is
    reported.  Every row records an exact customization-parity flag:
    the eager and matrix selections and scores must be equal, not just
    close.
    """
    setup = setup or ScalabilitySetup()
    rows: list[dict] = []
    for n_users in setup.user_sizes:
        repository = generate_profile_repository(
            n_users=n_users,
            n_properties=setup.n_properties,
            mean_profile_size=setup.mean_profile_size,
            seed=setup.seed,
        )
        groups = build_simple_groups(repository, GroupingConfig(min_support=2))
        instance = build_instance(
            repository, setup.stage_budget, groups=groups
        )
        properties = sorted(repository.property_labels)[:3]
        keys = sorted(instance.groups.keys, key=str)
        feedback = CustomizationFeedback(
            must_not=frozenset(keys[:1]),
            priority=frozenset(keys[1:3]),
        )
        result = greedy_select(repository, instance, method="matrix")

        def timed(fn, repetitions=setup.repetitions):
            fn()  # warm caches: index, reverse links, sort orders
            samples = []
            for _ in range(repetitions):
                start = time.perf_counter()
                value = fn()
                samples.append(time.perf_counter() - start)
            return value, float(np.median(samples))

        _, explain_s = timed(
            lambda: explain_selection(
                result, distribution_properties=properties
            )
        )
        custom_eager, custom_eager_s = timed(
            lambda: custom_select(
                repository, instance, feedback, method="eager"
            )
        )
        custom_matrix, custom_matrix_s = timed(
            lambda: custom_select(
                repository, instance, feedback, method="matrix"
            )
        )
        rows.append(
            {
                "users": n_users,
                "groups": len(instance.groups),
                "explanation_seconds": explain_s,
                "customization_seconds": {
                    "eager": custom_eager_s,
                    "matrix": custom_matrix_s,
                },
                "speedup_customization": custom_eager_s / custom_matrix_s
                if custom_matrix_s
                else float("inf"),
                "customization_parity": (
                    custom_eager.selected == custom_matrix.selected
                    and custom_eager.result.score == custom_matrix.result.score
                    and custom_eager.priority_score
                    == custom_matrix.priority_score
                    and custom_eager.standard_score
                    == custom_matrix.standard_score
                ),
            }
        )
    return {
        "experiment": "index_native_stages",
        "budget": setup.stage_budget,
        "n_properties": setup.n_properties,
        "mean_profile_size": setup.mean_profile_size,
        "repetitions": setup.repetitions,
        "seed": setup.seed,
        "rows": rows,
    }


def timing_table(rows: list[TimingRow]) -> str:
    """Markdown rendering of a timing sweep."""
    algorithms = sorted({r.algorithm for r in rows})
    xs = sorted({r.x for r in rows})
    lookup = {(r.algorithm, r.x): r.seconds for r in rows}
    header = "| x | " + " | ".join(algorithms) + " |"
    rule = "|---" * (len(algorithms) + 1) + "|"
    lines = [header, rule]
    for x in xs:
        cells = " | ".join(
            f"{lookup.get((a, x), float('nan')):.4f}" for a in algorithms
        )
        lines.append(f"| {x} | {cells} |")
    return "\n".join(lines)


def linear_fit_r2(rows: list[TimingRow], algorithm: str) -> float:
    """R² of a linear time-vs-x fit — the paper's "scales linearly" claim."""
    points = sorted(
        ((r.x, r.seconds) for r in rows if r.algorithm == algorithm)
    )
    if len(points) < 3:
        return 1.0
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    coeffs = np.polyfit(x, y, 1)
    predicted = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot

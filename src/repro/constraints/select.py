"""Top-level constrained selection entry points and result model.

:func:`constrained_select` is what every layer above the solvers calls:
the service's ``POST /select`` constraints block, the experiment
engine's fairness/cluster cells, the bench suite and
:func:`~repro.core.greedy.select_from_index`'s ``constraints=`` keyword
all land here.  It dispatches on the spec's mode, runs the CSR-native
solver, and wraps the picks in a :class:`ConstrainedSelectionResult`
carrying a per-bound satisfaction report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.errors import InvalidBudgetError, PodiumError
from ..core.greedy import (
    SelectionResult,
    _candidate_slots,
    _sampling,
    _shard_union,
)
from ..core.groups import GroupKey
from ..core.index import InstanceIndex
from .clustered import (
    ClusterSolve,
    clustered_select_rows,
    partition_rows,
)
from .fair import fair_select_rows
from .spec import ConstraintSpec


@dataclass(frozen=True)
class BoundReport:
    """Achieved count of one floor or ceiling in the final selection."""

    key: GroupKey
    bound: int
    achieved: int
    satisfied: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "property": self.key.property_label,
            "bucket": self.key.bucket_label,
            "bound": self.bound,
            "achieved": self.achieved,
            "satisfied": self.satisfied,
        }


@dataclass(frozen=True)
class ClusterReport:
    """One cluster's budget share and picks in a clustered selection."""

    label: str
    size: int
    seats: int
    selected: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "size": self.size,
            "seats": self.seats,
            "selected": list(self.selected),
        }


@dataclass(frozen=True)
class ConstrainedSelectionResult:
    """A selection together with its constraint-satisfaction report.

    ``result.score`` is always the exact unconstrained ``score_G`` of
    the selected subset (the number price-of-fairness compares against
    a plain greedy run); ``result.gains`` are the realized per-pick
    gains of the solve that produced each pick.
    """

    result: SelectionResult
    spec: ConstraintSpec
    floors: tuple[BoundReport, ...] = ()
    ceilings: tuple[BoundReport, ...] = ()
    clusters: tuple[ClusterReport, ...] | None = None
    repair: tuple[str, ...] = ()

    @property
    def selected(self) -> tuple[str, ...]:
        return self.result.selected

    @property
    def satisfied(self) -> bool:
        """True iff every floor and ceiling holds in the selection."""
        return all(
            r.satisfied for r in (*self.floors, *self.ceilings)
        )

    def to_dict(self) -> dict[str, Any]:
        document: dict[str, Any] = {
            "mode": self.spec.mode,
            "satisfied": self.satisfied,
        }
        if self.floors:
            document["floors"] = [r.to_dict() for r in self.floors]
        if self.ceilings:
            document["ceilings"] = [r.to_dict() for r in self.ceilings]
        if self.clusters is not None:
            document["clusters"] = [r.to_dict() for r in self.clusters]
            document["repair"] = list(self.repair)
        return document


def _bound_reports(
    hits: np.ndarray,
    index: InstanceIndex,
    bounds: tuple[tuple[GroupKey, int], ...],
    is_floor: bool,
) -> tuple[BoundReport, ...]:
    reports = []
    for key, bound in bounds:
        achieved = int(hits[index.group_pos[key]])
        satisfied = achieved >= bound if is_floor else achieved <= bound
        reports.append(BoundReport(key, bound, achieved, satisfied))
    return tuple(reports)


def _fair_union_rows(
    index: InstanceIndex,
    spec: ConstraintSpec,
    budget: int,
    rows: np.ndarray,
    shards: int,
    shard_seed: int,
) -> np.ndarray:
    """GreeDi-style union enrichment for the fair sharded backend.

    Round 1 runs the *unconstrained* greedy per shard (2B winners each,
    like the plain sharded backend), then the union is enriched with
    each floor group's strongest candidates — twice the floor count by
    descending initial gain (row ascending on ties) — so the merge
    round always has enough members of every floor group to be
    feasible.  The fair merge round then runs exactly over the union.
    Approximate by construction: not byte-identical to the matrix fair
    backend, quality-gated by the constraints bench instead.
    """
    assert index.initial_gains is not None
    union = set(
        rows[_shard_union(index, rows, budget, shards, 1, shard_seed)].tolist()
    )
    pool_mask = np.zeros(index.n_users, dtype=bool)
    pool_mask[rows] = True
    for key, required in spec.floors:
        if required <= 0:
            continue
        gid = index.group_pos[key]
        members = np.asarray(
            index.members_of_rows(np.asarray([gid], dtype=np.int64)),
            dtype=np.int64,
        )
        members = members[pool_mask[members]]
        order = np.lexsort(
            (members, -np.asarray(index.initial_gains[members]))
        )
        union.update(int(r) for r in members[order[: 2 * required]])
    return np.asarray(sorted(union), dtype=np.int64)


def constrained_select(
    index: InstanceIndex,
    spec: ConstraintSpec,
    budget: int,
    *,
    method: str = "matrix",
    candidates: list[str] | None = None,
    rng: np.random.Generator | None = None,
    shards: int = 4,
    jobs: int | None = 1,
    shard_seed: int = 0,
    epsilon: float = 0.1,
    sample_ratio: float | None = None,
    partition: list[tuple[str, np.ndarray]] | None = None,
) -> ConstrainedSelectionResult:
    """Select under ``spec`` on an :class:`InstanceIndex`.

    Fair mode (floors/ceilings) supports ``method`` ``"matrix"`` (exact
    constrained greedy), ``"stochastic"`` (per-step sampling inside the
    feasible region; ``sample_ratio=1.0`` is exact) and ``"sharded"``
    (unconstrained GreeDi union enriched with floor-group candidates,
    fair merge round — approximate, bench-gated).  Clustered mode
    passes ``method`` through to every per-cluster solve.  Raises
    :class:`~repro.core.errors.InvalidConstraintError` for unknown
    groups and :class:`~repro.core.errors.InfeasibleConstraintError`
    when no selection of this budget can satisfy the floors.
    """
    if budget < 1:
        raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
    if not index.vectorizable:
        raise PodiumError(
            "constrained selection requires a vectorizable index; "
            "big-int or non-integer weights are not supported"
        )
    spec.validate_for_index(index)
    rows = None if candidates is None else _candidate_slots(index, candidates)

    if spec.clusters is not None:
        picked, gains, score, solves, repair = clustered_select_rows(
            index,
            spec.clusters,
            budget,
            rows,
            method=method,
            partition=partition,
            shards=shards,
            jobs=jobs,
            shard_seed=shard_seed,
            epsilon=epsilon,
            sample_ratio=sample_ratio,
        )
        result = SelectionResult(
            selected=tuple(str(index.users[r]) for r in picked),
            score=score,
            gains=tuple(gains),
            instance=None,
        )
        return ConstrainedSelectionResult(
            result=result,
            spec=spec,
            clusters=tuple(
                ClusterReport(
                    solve.label,
                    solve.size,
                    solve.seats,
                    tuple(str(index.users[r]) for r in solve.rows),
                )
                for solve in solves
            ),
            repair=tuple(str(index.users[r]) for r in repair),
        )

    if method == "matrix":
        picked, gains, score = fair_select_rows(
            index, spec, budget, rows, rng
        )
    elif method == "stochastic":
        pool_size = int(rows.size) if rows is not None else index.n_users
        picked, gains, score = fair_select_rows(
            index, spec, budget, rows,
            **_sampling(pool_size, budget, rng, epsilon, sample_ratio),
        )
    elif method == "sharded":
        pool = (
            rows
            if rows is not None
            else np.arange(index.n_users, dtype=np.int64)
        )
        union = _fair_union_rows(
            index, spec, budget, pool, shards, shard_seed
        )
        picked, gains, score = fair_select_rows(
            index, spec, budget, union, rng
        )
    else:
        raise PodiumError(
            f"unknown constrained selection method {method!r}; use "
            f"'matrix', 'sharded' or 'stochastic'"
        )
    result = SelectionResult(
        selected=tuple(str(index.users[r]) for r in picked),
        score=score,
        gains=tuple(gains),
        instance=None,
    )
    hits = index.row_hits(picked)
    return ConstrainedSelectionResult(
        result=result,
        spec=spec,
        floors=_bound_reports(hits, index, spec.floors, is_floor=True),
        ceilings=_bound_reports(hits, index, spec.ceilings, is_floor=False),
    )


__all__ = [
    "BoundReport",
    "ClusterReport",
    "ClusterSolve",
    "ConstrainedSelectionResult",
    "constrained_select",
    "partition_rows",
]

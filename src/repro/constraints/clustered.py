"""Clustered greedy: budget-split coverage maximization per cluster.

"Maximizing diversity over clustered data" (Zhang & Gionis) motivates
the mode: partition the users, give every cluster a budget share, and
diversify within each cluster so no region of the population is
starved.  The pipeline here:

1. **partition** — ``method="stratified"`` uses the buckets of the
   highest-membership property (plus a remainder cluster for users
   carrying none of them), computed straight off the CSR index;
   ``method="kmeans"`` clusters the dense user × group membership
   matrix with the baselines package's k-means under a fixed seed.
2. **apportion** — the budget is split across clusters by
   largest-remainder proportional apportionment (the same
   :func:`~repro.baselines.stratified.proportional_apportionment` the
   stratified baseline uses), capped at cluster size.
3. **solve per cluster** — coverage greedy on an
   :meth:`InstanceIndex.take_rows` sub-index.  Because ``take_rows``
   keeps groups whole, sub-index gains equal parent gains, so the
   per-cluster solve is exactly the parent greedy restricted to the
   cluster — and it recurses through
   :func:`~repro.core.greedy.select_from_index`, so the
   matrix/sharded/stochastic backends all compose with cluster mode.
   Trailing zero-gain picks are trimmed: a cluster whose coverage value
   is exhausted hands its remaining seats back as slack.
4. **repair** — slack seats are reassigned globally by marginal gain
   conditioned on everything already selected, so no budget is wasted
   on zero-value picks while another cluster still has value left.

With a single cluster the pipeline degenerates to plain matrix greedy:
the solve is the whole pool, and the trimmed zero-gain tail is re-picked
by the repair round in the same minimal-user-id order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.clustering import kmeans
from ..baselines.stratified import proportional_apportionment
from ..core.greedy import _greedy_kernel, select_from_index
from ..core.index import InstanceIndex
from .spec import ClusterSpec


@dataclass(frozen=True)
class ClusterSolve:
    """One cluster's share of a clustered selection."""

    label: str
    size: int
    seats: int
    rows: tuple[int, ...]
    gains: tuple[int, ...]


def partition_rows(
    index: InstanceIndex, cluster_spec: ClusterSpec
) -> list[tuple[str, np.ndarray]]:
    """Partition every dense row into labelled, ascending, disjoint sets.

    Deterministic for a given ``(index, cluster_spec)`` — the property
    the service's per-spec partition cache relies on.
    """
    if cluster_spec.method == "stratified":
        return _stratified_partition(index)
    return _kmeans_partition(index, cluster_spec)


def _stratified_partition(
    index: InstanceIndex,
) -> list[tuple[str, np.ndarray]]:
    """Buckets of the highest-membership property, plus a remainder.

    Ties on total membership break on the lexicographically smallest
    property label.  Users in several buckets of the chosen property
    (possible only for non-bucket group structures) go to the smallest
    dense group id, keeping the result a partition.
    """
    totals: dict[str, int] = {}
    for gid, key in enumerate(index.group_keys):
        size = int(index.g_indptr[gid + 1] - index.g_indptr[gid])
        totals[key.property_label] = (
            totals.get(key.property_label, 0) + size
        )
    if not totals:
        return [("all", np.arange(index.n_users, dtype=np.int64))]
    variable = min(totals, key=lambda p: (-totals[p], p))
    assignment = np.full(index.n_users, -1, dtype=np.int64)
    labelled: list[tuple[str, int]] = []
    for gid, key in enumerate(index.group_keys):
        if key.property_label != variable:
            continue
        members = index.members_of_rows(np.asarray([gid], dtype=np.int64))
        members = np.asarray(members, dtype=np.int64)
        fresh = members[assignment[members] < 0]
        assignment[fresh] = len(labelled)
        labelled.append((f"{variable}::{key.bucket_label}", gid))
    clusters = [
        (label, np.flatnonzero(assignment == position))
        for position, (label, _gid) in enumerate(labelled)
    ]
    rest = np.flatnonzero(assignment < 0)
    if rest.size:
        clusters.append((f"{variable}::<rest>", rest))
    return [(label, rows) for label, rows in clusters if rows.size]


def _kmeans_partition(
    index: InstanceIndex, cluster_spec: ClusterSpec
) -> list[tuple[str, np.ndarray]]:
    """Seeded k-means over the dense user × group membership matrix."""
    if index.n_users == 0:
        return []
    data = index.membership_matrix(range(index.n_groups)).T.astype(
        np.float64
    )
    k = min(cluster_spec.k, index.n_users)
    fitted = kmeans(
        data, k, rng=np.random.default_rng(cluster_spec.seed)
    )
    clusters = [
        (f"kmeans-{c}", np.flatnonzero(fitted.labels == c))
        for c in range(k)
    ]
    return [(label, rows) for label, rows in clusters if rows.size]


def _trim_zero_tail(
    rows: list[int], gains: list[int]
) -> tuple[list[int], list[int]]:
    """Drop trailing zero-gain picks — their seats return as slack."""
    keep = len(gains)
    while keep and gains[keep - 1] == 0:
        keep -= 1
    return rows[:keep], gains[:keep]


def clustered_select_rows(
    index: InstanceIndex,
    cluster_spec: ClusterSpec,
    budget: int,
    rows: np.ndarray | None = None,
    *,
    method: str = "matrix",
    partition: list[tuple[str, np.ndarray]] | None = None,
    shards: int = 4,
    jobs: int | None = 1,
    shard_seed: int = 0,
    epsilon: float = 0.1,
    sample_ratio: float | None = None,
) -> tuple[list[int], list[int], int, list[ClusterSolve], list[int]]:
    """Clustered greedy over dense rows.

    Returns ``(picked_rows, gains, score, cluster_solves, repair_rows)``
    where ``picked_rows`` concatenates the per-cluster picks (partition
    order) and the repair picks, ``gains`` are the per-solve realized
    gains (within-cluster for the cluster picks, globally conditioned
    for the repair picks) and ``score`` is the *exact* combined
    ``score_G`` of the whole selection.  Deterministic — per-cluster
    solves and the repair round all run without an rng.

    ``partition`` lets callers supply a precomputed (cached) partition;
    it must come from :func:`partition_rows` on the same index.
    """
    assert index.wei is not None
    if partition is None:
        partition = partition_rows(index, cluster_spec)
    if rows is not None:
        pool = np.asarray(rows, dtype=np.int64)
        partition = [
            (label, np.intersect1d(cluster, pool))
            for label, cluster in partition
        ]
        partition = [
            (label, cluster) for label, cluster in partition if cluster.size
        ]
    else:
        pool = np.arange(index.n_users, dtype=np.int64)
    sizes = [int(cluster.size) for _label, cluster in partition]
    seats = proportional_apportionment(sizes, budget)

    picked: list[int] = []
    gains: list[int] = []
    solves: list[ClusterSolve] = []
    for (label, cluster), share in zip(partition, seats):
        if share == 0:
            solves.append(
                ClusterSolve(label, int(cluster.size), 0, (), ())
            )
            continue
        sub = index.take_rows(cluster)
        result = select_from_index(
            sub,
            share,
            method=method,
            shards=shards,
            jobs=jobs,
            shard_seed=shard_seed,
            epsilon=epsilon,
            sample_ratio=sample_ratio,
        )
        solve_rows = [index.user_pos[u] for u in result.selected]
        solve_rows, solve_gains = _trim_zero_tail(
            solve_rows, [int(g) for g in result.gains]
        )
        solves.append(
            ClusterSolve(
                label,
                int(cluster.size),
                share,
                tuple(solve_rows),
                tuple(solve_gains),
            )
        )
        picked.extend(solve_rows)
        gains.extend(solve_gains)

    repair: list[int] = []
    slack = budget - len(picked)
    if slack > 0:
        taken = np.zeros(index.n_users, dtype=bool)
        taken[picked] = True
        leftover = pool[~taken[pool]]
        if leftover.size:
            # Gains conditioned on the cluster picks: the kernel starts
            # from the coverage they left unmet.
            remaining = np.maximum(index.cov - index.row_hits(picked), 0)
            picks, repair_gains, _ = _greedy_kernel(
                index, leftover, slack, remaining=remaining
            )
            repair = [int(leftover[p]) for p in picks]
            picked.extend(repair)
            gains.extend(repair_gains)

    hits = index.row_hits(picked)
    score = int(np.sum(index.wei * np.minimum(hits, index.cov)))
    return picked, gains, score, solves, repair

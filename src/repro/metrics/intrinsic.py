"""Intrinsic diversity metrics over the selected profiles (paper §8.2).

Four complementary metrics, mirroring the bars of Fig. 3a/3c:

* **Selection total score** — Def. 3.3's objective (what Podium directly
  approximates under LBS + Single).
* **Top-k group coverage** — fraction of the ``k`` largest groups with at
  least one selected representative (paper uses k = 200).
* **Intersected-property coverage** — like top-k but over pairwise
  intersections of simple groups that are at least as large as the k-th
  largest simple group; tests whether simple-group selection implicitly
  covers complex groups.
* **Distribution similarity** — mean CD-sim between population and subset
  bucket distributions, over the properties of the top-20 largest groups.

Every coverage count comes off the instance's CSR index (segment sums
and Gram products over membership masks).  The per-group set-loop
originals are the parity oracles in ``tests/oracles/metrics.py``; both
return identical floats, because the array arithmetic performs the
same exact integer counts.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..core.groups import Group
from ..core.index import instance_index
from ..core.instance import DiversificationInstance
from ..core.scoring import subset_score
from .cdsim import cd_sim_from_counts


def top_k_coverage(
    instance: DiversificationInstance,
    selected: Iterable[str],
    k: int = 200,
) -> float:
    """Fraction of the ``k`` largest groups with a selected representative.

    Every membership test is answered from the instance's CSR index (one
    segment-sum over the selection mask).
    """
    top = instance.groups.top_k(k)
    if not top:
        return 1.0
    index = instance_index(instance)
    hits = index.selection_hits(selected)
    covered = int(
        np.count_nonzero(hits[[index.group_pos[g.key] for g in top]])
    )
    return covered / len(top)


def _large_simple_groups(
    instance: DiversificationInstance, k: int
) -> tuple[list[Group], int]:
    """Simple groups at least as large as the k-th largest, + threshold."""
    simple = [g for g in instance.groups if g.bucket is not None]
    simple.sort(key=lambda g: (-g.size, str(g.key)))
    if not simple:
        return [], 0
    threshold = simple[min(k, len(simple)) - 1].size
    return [g for g in simple if g.size >= threshold], threshold


def intersected_property_coverage(
    instance: DiversificationInstance,
    selected: Iterable[str],
    k: int = 200,
    max_intersections: int = 20000,
) -> float:
    """Coverage of large pairwise intersections of simple groups.

    Only intersections between *different properties* count (two buckets
    of one property never overlap), and only those at least as large as
    the k-th largest simple group (the paper's size floor).  The number of
    examined pairs is capped at ``max_intersections``, scanning the pairs
    of the largest groups first — exactly the region where qualifying
    intersections live.

    The candidate groups are densified into membership masks once:
    ``masks @ masks.T`` gives ``|G_a ∩ G_b|`` for every candidate pair
    and ``(masks · sel) @ masks.T`` the number of *selected* members of
    each pairwise intersection.  The row-major upper triangle is the
    examination order, so the pair cap cuts at the same pair a nested
    loop over the candidates would.
    """
    candidates, threshold = _large_simple_groups(instance, k)
    if not candidates or threshold == 0:
        return 1.0
    index = instance_index(instance)
    masks = index.membership_matrix(
        index.group_pos[g.key] for g in candidates
    ).astype(np.float64)
    sel = index.selection_mask(selected).astype(np.float64)
    inter = masks @ masks.T
    sel_inter = (masks * sel) @ masks.T

    labels = np.array([g.key.property_label for g in candidates], dtype=object)
    rows, cols = np.triu_indices(len(candidates), 1)
    examined = np.flatnonzero(labels[rows] != labels[cols])[:max_intersections]
    qualifying = inter[rows[examined], cols[examined]] >= threshold
    total = int(qualifying.sum())
    if total == 0:
        return 1.0
    covered = int(
        (qualifying & (sel_inter[rows[examined], cols[examined]] > 0)).sum()
    )
    return covered / total


def distribution_similarity(
    instance: DiversificationInstance,
    selected: Iterable[str],
    top_groups: int = 20,
) -> float:
    """Mean bucket-distribution CD-sim over the top groups' properties.

    For each property behind one of the ``top_groups`` largest groups,
    compare the population weight share per bucket with the subset's
    member share per bucket (paper §8.2's group-bucket construction).
    Every subset bucket count comes from one ``group_hits`` segment sum
    over the instance's CSR index.
    """
    selected = list(selected)
    properties: list[str] = []
    for group in instance.groups.top_k(top_groups):
        label = group.key.property_label
        if label not in properties:
            properties.append(label)

    index = instance_index(instance)
    hits = index.selection_hits(selected)
    similarities: list[float] = []
    for label in properties:
        buckets = instance.groups.buckets_of_property(label)
        if not buckets:
            continue
        buckets.sort(key=lambda g: (g.bucket.lo if g.bucket else 0.0, g.label))
        all_counts = [float(instance.wei[g.key]) for g in buckets]
        sub_counts = [
            float(int(hits[index.group_pos[g.key]])) for g in buckets
        ]
        similarities.append(cd_sim_from_counts(sub_counts, all_counts))
    if not similarities:
        return 1.0
    return sum(similarities) / len(similarities)


@dataclass(frozen=True)
class IntrinsicReport:
    """All intrinsic metrics for one selected subset."""

    total_score: float
    top_k_coverage: float
    intersected_coverage: float
    distribution_similarity: float

    def as_dict(self) -> dict[str, float]:
        return {
            "total_score": self.total_score,
            "top_k_coverage": self.top_k_coverage,
            "intersected_coverage": self.intersected_coverage,
            "distribution_similarity": self.distribution_similarity,
        }


def evaluate_intrinsic(
    instance: DiversificationInstance,
    selected: Iterable[str],
    k: int = 200,
    top_groups: int = 20,
) -> IntrinsicReport:
    """Compute the full intrinsic report of Fig. 3a/3c for one subset."""
    selected = list(selected)
    return IntrinsicReport(
        total_score=float(subset_score(instance, selected)),
        top_k_coverage=top_k_coverage(instance, selected, k),
        intersected_coverage=intersected_property_coverage(
            instance, selected, k
        ),
        distribution_similarity=distribution_similarity(
            instance, selected, top_groups
        ),
    )

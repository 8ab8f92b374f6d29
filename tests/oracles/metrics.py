"""Set-loop references for the CSR-backed metrics.

Each oracle answers its metric with per-group Python set intersections
over the dict-based instance — the original implementations the
segment sums and Gram products of :mod:`repro.metrics.intrinsic` and
:func:`repro.core.customization.feedback_group_coverage` replaced.  The
counts are exact integers on both sides, so the parity tests compare
floats with ``==``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.customization import CustomizationFeedback
from repro.core.groups import Group
from repro.core.instance import DiversificationInstance
from repro.core.scoring import subset_score
from repro.metrics.cdsim import cd_sim_from_counts
from repro.metrics.intrinsic import IntrinsicReport, _large_simple_groups


def top_k_coverage_oracle(
    instance: DiversificationInstance,
    selected: Iterable[str],
    k: int = 200,
) -> float:
    """Fraction of the ``k`` largest groups with a selected member."""
    top = instance.groups.top_k(k)
    if not top:
        return 1.0
    selected_set = set(selected)
    covered = sum(1 for g in top if g.members & selected_set)
    return covered / len(top)


def intersected_property_coverage_oracle(
    instance: DiversificationInstance,
    selected: Iterable[str],
    k: int = 200,
    max_intersections: int = 20000,
) -> float:
    """Coverage of large cross-property intersections, pair by pair."""
    candidates, threshold = _large_simple_groups(instance, k)
    if not candidates or threshold == 0:
        return 1.0
    selected_set = set(selected)

    covered = 0
    total = 0
    examined = 0
    for i in range(len(candidates)):
        if examined >= max_intersections:
            break
        a = candidates[i]
        for j in range(i + 1, len(candidates)):
            if examined >= max_intersections:
                break
            b = candidates[j]
            if a.key.property_label == b.key.property_label:
                continue
            examined += 1
            common = a.members & b.members
            if len(common) < threshold:
                continue
            total += 1
            if common & selected_set:
                covered += 1
    if total == 0:
        return 1.0
    return covered / total


def distribution_similarity_oracle(
    instance: DiversificationInstance,
    selected: Iterable[str],
    top_groups: int = 20,
) -> float:
    """Mean bucket-distribution CD-sim, subset counts by set walks."""
    selected_set = set(selected)
    properties: list[str] = []
    for group in instance.groups.top_k(top_groups):
        label = group.key.property_label
        if label not in properties:
            properties.append(label)

    def subset_count(group: Group) -> float:
        return float(len(group.members & selected_set))

    similarities: list[float] = []
    for label in properties:
        buckets = instance.groups.buckets_of_property(label)
        if not buckets:
            continue
        buckets.sort(key=lambda g: (g.bucket.lo if g.bucket else 0.0, g.label))
        all_counts = [float(instance.wei[g.key]) for g in buckets]
        sub_counts = [subset_count(g) for g in buckets]
        similarities.append(cd_sim_from_counts(sub_counts, all_counts))
    if not similarities:
        return 1.0
    return sum(similarities) / len(similarities)


def evaluate_intrinsic_oracle(
    instance: DiversificationInstance,
    selected: Iterable[str],
    k: int = 200,
    top_groups: int = 20,
) -> IntrinsicReport:
    """The Fig. 3a/3c report from the set-loop metrics."""
    selected = list(selected)
    return IntrinsicReport(
        total_score=float(subset_score(instance, selected)),
        top_k_coverage=top_k_coverage_oracle(instance, selected, k),
        intersected_coverage=intersected_property_coverage_oracle(
            instance, selected, k
        ),
        distribution_similarity=distribution_similarity_oracle(
            instance, selected, top_groups
        ),
    )


def feedback_group_coverage_oracle(
    instance: DiversificationInstance,
    feedback: CustomizationFeedback,
    selected: Iterable[str],
) -> float:
    """Fraction of priority groups whose coverage ``selected`` meets."""
    if not feedback.priority:
        return 1.0
    selected_set = set(selected)
    covered = sum(
        1
        for key in feedback.priority
        if len(instance.groups.group(key).members & selected_set)
        >= instance.cov[key]
    )
    return covered / len(feedback.priority)

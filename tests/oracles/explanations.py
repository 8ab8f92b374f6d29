"""Dict-walking reference for :func:`repro.core.explanations.explain_selection`.

:func:`explain_selection_oracle` assembles the Fig. 2 payload from the
public Def. 5.1 helpers — per-group set intersections over the
dict-based instance, no index.  The index-native explanation must equal
it (``==``) on every selection.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.explanations import (
    SelectionExplanation,
    compare_distributions,
    explain_group,
    explain_subset_group,
    explain_user,
)
from repro.core.greedy import SelectionResult


def explain_selection_oracle(
    result: SelectionResult,
    top_k: int = 200,
    distribution_properties: Iterable[str] = (),
) -> SelectionExplanation:
    """The explanation payload of ``result``, one set walk per group."""
    instance = result.instance
    selected = list(result.selected)

    by_weight = sorted(
        instance.groups.keys,
        key=lambda k: (-instance.wei[k], str(k)),
    )
    top_keys = by_weight[:top_k]

    subset_groups = tuple(
        explain_subset_group(instance, selected, key) for key in by_weight
    )
    covered_top = sum(
        1
        for key in top_keys
        if explain_subset_group(instance, selected, key).covered
    )
    top_fraction = covered_top / len(top_keys) if top_keys else 1.0

    return SelectionExplanation(
        group_explanations=tuple(
            explain_group(instance, key) for key in by_weight
        ),
        user_explanations=tuple(
            explain_user(instance, user_id) for user_id in selected
        ),
        subset_group_explanations=subset_groups,
        top_coverage_fraction=top_fraction,
        distributions=tuple(
            compare_distributions(instance, selected, p)
            for p in distribution_properties
        ),
    )

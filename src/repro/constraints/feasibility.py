"""Shared eligibility logic for customization and constraint solvers.

Customization's contradiction-avoidance rule (paper Def. 6.3: a user
must sit in *some* must-have bucket of every constrained property and
in *no* must-not group) is a boolean eligibility mask over dense user
rows driven by forbidden groups and per-property required-bucket
families; :func:`repro.core.customization._refine_mask_index` delegates
here.  The fair solver's hard exclusions (``ceiling = 0`` groups) block
exactly the rows a forbidden group removes — its gate treats such a
group as full from the start — which is what pins ``custom_select``'s
G₊/G₋ as the degenerate ``floors=1`` / ``ceilings=0`` case of a
:class:`ConstraintSpec`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..core.groups import GroupKey
from ..core.index import InstanceIndex


def keys_by_property(
    keys: Iterable[GroupKey],
) -> dict[str, list[GroupKey]]:
    """Group constraint keys into per-property families.

    Bucket order within a family follows the input; callers that need
    determinism pass sorted keys.
    """
    families: dict[str, list[GroupKey]] = {}
    for key in keys:
        families.setdefault(key.property_label, []).append(key)
    return families


def eligibility_mask(
    index: InstanceIndex,
    forbidden: Iterable[GroupKey] = (),
    required_by_property: dict[str, list[GroupKey]] | None = None,
) -> np.ndarray:
    """Boolean mask over dense rows of users satisfying hard constraints.

    A row is eligible iff it belongs to no ``forbidden`` group and, for
    every property in ``required_by_property``, to at least one of that
    property's listed buckets.  Pure array work — one row gather per
    group — so a memory-mapped index evaluates eligibility without
    decoding a single id string.
    """
    eligible = np.ones(index.n_users, dtype=bool)
    forbidden = list(forbidden)
    if forbidden:
        rows = np.fromiter(
            (index.group_pos[k] for k in forbidden),
            dtype=np.int64,
            count=len(forbidden),
        )
        eligible[index.members_of_rows(rows)] = False
    for keys in (required_by_property or {}).values():
        wanted = np.fromiter(
            (index.group_pos[k] for k in keys),
            dtype=np.int64,
            count=len(keys),
        )
        in_some_bucket = np.zeros(index.n_users, dtype=bool)
        in_some_bucket[index.members_of_rows(wanted)] = True
        eligible &= in_some_bucket
    return eligible


def eligible_user_filter(
    memberships: set[GroupKey],
    forbidden: frozenset[GroupKey],
    required_by_property: dict[str, set[GroupKey]],
) -> bool:
    """Pure-Python twin of :func:`eligibility_mask` for one user.

    ``memberships`` is the user's group-key set; the dict-side
    :func:`repro.core.customization.refine_users` and the constraint
    oracles both call this per user.
    """
    if memberships & forbidden:
        return False
    return all(
        memberships & bucket_keys
        for bucket_keys in required_by_property.values()
    )

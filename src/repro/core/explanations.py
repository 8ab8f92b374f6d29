"""Explanations of diversification results (paper §5, Def. 5.1).

Three complementary explanation types are produced:

* **Group explanation** — ``⟨label, wei(G), cov(G)⟩``: what the group is
  and how important it was to the selection.
* **User explanation** — the groups a selected user represents (why the
  user was picked).
* **Subset-group explanation** — ``⟨cov(G), |U ∩ G|⟩``: required versus
  actual coverage of a group by the whole subset.

:func:`explain_selection` assembles these into the payload behind the
prototype's explanation page (Fig. 2): per-user top-weight groups, the
fraction of top-weight groups covered, the full weighted group list with
covered flags, and per-property score distributions of population versus
subset.  It answers every membership question off the CSR
:class:`~repro.core.index.InstanceIndex` and reads only group *metadata*
(labels, weights, coverage) from the dict-based instance — O(|G|)
scalar lookups, never O(Σ_G |G|) member walks — so it runs unchanged on
a memory-mapped checkpoint index without materializing its lazy id
sequence.  The dict-walking original, built from the Def. 5.1 helpers
below, is the parity oracle in ``tests/oracles/explanations.py``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import PodiumError
from .greedy import SelectionResult
from .groups import GroupKey
from .index import instance_index
from .instance import DiversificationInstance
from .weights import Weight

#: Attribute under which the selection-independent explanation state
#: (sort orders + memoized group explanations) is cached on an instance.
_EXPLAIN_CACHE_ATTR = "_podium_explain_cache"


@dataclass(frozen=True)
class GroupExplanation:
    """Def. 5.1 group explanation: ``⟨l_G, wei(G), cov(G)⟩``."""

    key: GroupKey
    label: str
    weight: Weight
    coverage: int

    def as_tuple(self) -> tuple[str, Weight, int]:
        return (self.label, self.weight, self.coverage)


@dataclass(frozen=True)
class UserExplanation:
    """Def. 5.1 user explanation: the groups ``u`` represents."""

    user_id: str
    groups: tuple[GroupExplanation, ...]

    def top(self, k: int) -> tuple[GroupExplanation, ...]:
        """The user's ``k`` heaviest groups (what the UI's left pane shows)."""
        return tuple(
            sorted(self.groups, key=lambda g: (-g.weight, str(g.key)))[:k]
        )


@dataclass(frozen=True)
class SubsetGroupExplanation:
    """Def. 5.1 subset-group explanation: ``⟨cov(G), |U ∩ G|⟩``."""

    key: GroupKey
    label: str
    required: int
    actual: int

    @property
    def covered(self) -> bool:
        return self.actual >= self.required

    def as_tuple(self) -> tuple[int, int]:
        return (self.required, self.actual)


@dataclass(frozen=True)
class DistributionComparison:
    """Population-vs-subset score distribution for one property.

    This backs the right pane of Fig. 2: for each bucket of the property,
    the fraction of the population weight versus the subset weight that
    falls in it.
    """

    property_label: str
    bucket_labels: tuple[str, ...]
    population: tuple[float, ...]
    subset: tuple[float, ...]


@dataclass(frozen=True)
class SelectionExplanation:
    """Full explanation payload for a selection result."""

    group_explanations: tuple[GroupExplanation, ...]
    user_explanations: tuple[UserExplanation, ...]
    subset_group_explanations: tuple[SubsetGroupExplanation, ...]
    top_coverage_fraction: float
    distributions: tuple[DistributionComparison, ...] = field(default=())

    def for_user(self, user_id: str) -> UserExplanation:
        for ue in self.user_explanations:
            if ue.user_id == user_id:
                return ue
        raise KeyError(f"user {user_id!r} is not part of the selection")

    def covered(self) -> tuple[SubsetGroupExplanation, ...]:
        return tuple(e for e in self.subset_group_explanations if e.covered)

    def uncovered(self) -> tuple[SubsetGroupExplanation, ...]:
        return tuple(
            e for e in self.subset_group_explanations if not e.covered
        )


def explain_group(
    instance: DiversificationInstance, key: GroupKey
) -> GroupExplanation:
    """Build the Def. 5.1 explanation of a single group."""
    group = instance.groups.group(key)
    return GroupExplanation(
        key=key,
        label=group.label,
        weight=instance.wei[key],
        coverage=instance.cov[key],
    )


def explain_user(
    instance: DiversificationInstance, user_id: str
) -> UserExplanation:
    """Build the Def. 5.1 explanation of one selected user."""
    keys = sorted(instance.groups.groups_of(user_id), key=str)
    return UserExplanation(
        user_id=user_id,
        groups=tuple(explain_group(instance, k) for k in keys),
    )


def explain_subset_group(
    instance: DiversificationInstance,
    selected: Iterable[str],
    key: GroupKey,
) -> SubsetGroupExplanation:
    """Build the Def. 5.1 subset-group explanation ``⟨cov, |U ∩ G|⟩``."""
    group = instance.groups.group(key)
    selected_set = set(selected)
    return SubsetGroupExplanation(
        key=key,
        label=group.label,
        required=instance.cov[key],
        actual=len(group.members & selected_set),
    )


def compare_distributions(
    instance: DiversificationInstance,
    selected: Iterable[str],
    property_label: str,
) -> DistributionComparison:
    """Weight-share per bucket for population vs selected subset.

    Follows §8.2's group-bucket distribution construction:
    ``f_all(b) = wei(G_{p,b}) / Σ_b' wei(G_{p,b'})`` and the analogue for
    the subset restricted to each bucket's members.
    """
    selected_set = set(selected)
    buckets = instance.groups.buckets_of_property(property_label)
    buckets = sorted(
        buckets, key=lambda g: (g.bucket.lo if g.bucket else 0.0, g.label)
    )
    pop_weights = [float(instance.wei[g.key]) for g in buckets]
    sub_weights = [float(len(g.members & selected_set)) for g in buckets]
    pop_total = sum(pop_weights) or 1.0
    sub_total = sum(sub_weights) or 1.0
    return DistributionComparison(
        property_label=property_label,
        bucket_labels=tuple(
            g.bucket.label if g.bucket else g.label for g in buckets
        ),
        population=tuple(w / pop_total for w in pop_weights),
        subset=tuple(w / sub_total for w in sub_weights),
    )


def explain_selection(
    result: SelectionResult,
    top_k: int = 200,
    distribution_properties: Iterable[str] = (),
) -> SelectionExplanation:
    """Assemble the full explanation payload for ``result``.

    ``top_k`` bounds the "top-weight relevant groups" the coverage
    percentage is computed over, mirroring the middle pane of Fig. 2.

    One ``group_hits`` segment sum over the CSR incidence yields every
    subset-group actual, the top-coverage fraction *and* the subset side
    of every distribution comparison; user explanations are per-row CSR
    slices resolved through ``user_pos`` (which on a memory-mapped
    checkpoint decodes only the looked-up ids, never the full sequence).
    The dict-based instance supplies labels, weights and coverage — O(1)
    metadata per group — so no membership set is ever intersected in
    Python.  Weights are taken from ``instance.wei`` directly, keeping
    the path exact for EBS big-ints the int64 index refuses to encode.
    """
    instance = result.instance
    if instance is None:
        raise PodiumError(
            "explain_selection requires a result carrying its instance"
        )
    idx = instance_index(instance)
    selected = list(result.selected)
    groups = instance.groups
    wei, cov = instance.wei, instance.cov

    hits = idx.selection_hits(selected)
    group_keys = idx.group_keys

    # Selection-independent per-group state — the weight-sorted order,
    # the sort-by-str(key) ranks and the memoized group-explanation
    # objects — is cached on the instance (same invalidation contract as
    # the cached index: drop when the group set mutates or the index is
    # swapped), so a serving process explaining many selections against
    # one artifact pays the O(|G| log |G|) sorts once.
    cached = instance.__dict__.get(_EXPLAIN_CACHE_ATTR)
    if (
        cached is not None
        and cached[0] == groups.version
        and cached[1] is idx
    ):
        _, _, by_weight, str_rank, labels, memo = cached
    else:
        by_weight = sorted(
            range(idx.n_groups),
            key=lambda g: (-wei[group_keys[g]], str(group_keys[g])),
        )
        # Rank of every dense group id under the sort-by-str(key) order
        # the per-user explanations use; computed once so each user's
        # CSR row is ordered by one small argsort instead of a per-user
        # key sort.  str(key) determines the key's fields, so the order
        # has no ties and matches the oracle's ``sorted(keys, key=str)``
        # exactly.
        str_order = sorted(
            range(idx.n_groups), key=lambda g: str(group_keys[g])
        )
        str_rank = np.empty(idx.n_groups, dtype=np.int64)
        str_rank[str_order] = np.arange(idx.n_groups, dtype=np.int64)
        labels = [None] * idx.n_groups
        memo = [None] * idx.n_groups
        object.__setattr__(
            instance,
            _EXPLAIN_CACHE_ATTR,
            (groups.version, idx, by_weight, str_rank, labels, memo),
        )

    def label_of(gid: int) -> str:
        cached = labels[gid]
        if cached is None:
            cached = groups.group(group_keys[gid]).label
            labels[gid] = cached
        return cached

    def group_explanation(gid: int) -> GroupExplanation:
        """Memoized Def. 5.1 group explanation, keyed by dense group id.

        The triple is user-independent, so one frozen object per group
        is shared between the group list and every user explanation —
        the oracle builds equal (``==``) copies instead.  Indexing by
        dense id keeps the hot per-membership lookups free of
        ``GroupKey`` hashing.
        """
        cached = memo[gid]
        if cached is None:
            key = group_keys[gid]
            cached = GroupExplanation(
                key=key,
                label=label_of(gid),
                weight=wei[key],
                coverage=cov[key],
            )
            memo[gid] = cached
        return cached

    top_gids = by_weight[:top_k]

    # idx.cov holds exactly instance.cov[key] per dense id (int64), so
    # requirements come off the array without re-hashing keys.
    required = idx.cov
    subset_groups = [
        SubsetGroupExplanation(
            key=group_keys[g],
            label=label_of(g),
            required=int(required[g]),
            actual=int(hits[g]),
        )
        for g in by_weight
    ]
    if top_gids:
        top = np.asarray(top_gids, dtype=np.int64)
        covered_top = int(np.count_nonzero(hits[top] >= required[top]))
        top_fraction = covered_top / len(top_gids)
    else:
        top_fraction = 1.0

    user_explanations = []
    for user_id in selected:
        pos = idx.user_pos.get(user_id)
        if pos is None:
            ordered = ()
        else:
            rows = np.asarray(idx.groups_of_row(int(pos)), dtype=np.int64)
            ordered = rows[np.argsort(str_rank[rows])]
        user_explanations.append(
            UserExplanation(
                user_id=user_id,
                groups=tuple(
                    group_explanation(int(g)) for g in ordered
                ),
            )
        )

    distributions = []
    for property_label in distribution_properties:
        buckets = sorted(
            groups.buckets_of_property(property_label),
            key=lambda g: (g.bucket.lo if g.bucket else 0.0, g.label),
        )
        pop_weights = [float(wei[g.key]) for g in buckets]
        sub_weights = [
            float(int(hits[idx.group_pos[g.key]])) for g in buckets
        ]
        pop_total = sum(pop_weights) or 1.0
        sub_total = sum(sub_weights) or 1.0
        distributions.append(
            DistributionComparison(
                property_label=property_label,
                bucket_labels=tuple(
                    g.bucket.label if g.bucket else g.label for g in buckets
                ),
                population=tuple(w / pop_total for w in pop_weights),
                subset=tuple(w / sub_total for w in sub_weights),
            )
        )

    return SelectionExplanation(
        group_explanations=tuple(
            group_explanation(g) for g in by_weight
        ),
        user_explanations=tuple(user_explanations),
        subset_group_explanations=tuple(subset_groups),
        top_coverage_fraction=top_fraction,
        distributions=tuple(distributions),
    )

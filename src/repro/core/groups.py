"""Simple and complex user groups (paper §3.2, Def. 3.4).

A *simple group* ``G_{p,b}`` is the set of users whose score for property
``p`` falls in bucket ``b``.  The :class:`GroupSet` is the output of the
grouping module (paper §7): it holds every group's member set, its label
and the bidirectional user ↔ group links the greedy algorithm requires.

Complex groups (intersections/unions of simple groups, Example 3.5) are
supported both as first-class :class:`Group` members of a group set and as
*evaluation-only* constructs for the intersected-property coverage metric.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .buckets import (
    Bucket,
    is_boolean,
    partition_from_splits,
    split_scores,
)
from .errors import InvalidInstanceError, UnknownGroupError
from .profiles import UserRepository


@dataclass(frozen=True)
class GroupKey:
    """Identifier of a simple group: property label + bucket label."""

    property_label: str
    bucket_label: str

    def __str__(self) -> str:
        return f"{self.property_label}::{self.bucket_label}"


@dataclass(frozen=True)
class Group:
    """A user group with its defining key, bucket and member set.

    ``bucket`` is ``None`` for complex (intersection/union) groups, which
    have no single defining score range.
    """

    key: GroupKey
    members: frozenset[str]
    bucket: Bucket | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", _default_label(self))

    @property
    def size(self) -> int:
        """``|G|`` — the number of members."""
        return len(self.members)

    def intersect(self, other: "Group", label: str = "") -> "Group":
        """Complex group: members of both ``self`` and ``other``."""
        key = GroupKey(f"({self.key} & {other.key})", "intersection")
        return Group(key, self.members & other.members, None,
                     label or f"{self.label} AND {other.label}")

    def union(self, other: "Group", label: str = "") -> "Group":
        """Complex group: members of ``self`` or ``other``."""
        key = GroupKey(f"({self.key} | {other.key})", "union")
        return Group(key, self.members | other.members, None,
                     label or f"{self.label} OR {other.label}")

    def __contains__(self, user_id: object) -> bool:
        return user_id in self.members

    def __len__(self) -> int:
        return len(self.members)


def _default_label(group: Group) -> str:
    """Human-readable group label per paper §5 (property + bucket label)."""
    if group.bucket is None:
        return str(group.key)
    if group.bucket.label in ("true", "false"):
        # Boolean properties read naturally without a bucket label
        # ("lives in Tokyo"), negated for the false bucket.
        prefix = "not " if group.bucket.label == "false" else ""
        return f"{prefix}{group.key.property_label}"
    return f"{group.bucket.label} scores for {group.key.property_label}"


class GroupSet:
    """The set ``G`` of (possibly overlapping) groups over a population.

    Maintains the group → members and user → groups links described in the
    data-structures paragraph of paper §4, so that the greedy algorithm can
    walk both directions in O(1) per step.
    """

    def __init__(self, groups: Iterable[Group] = ()) -> None:
        self._groups: dict[GroupKey, Group] = {}
        #: User → groups reverse links, built lazily on the first reverse
        #: lookup (``groups_of``/``degree``/``max_degree``).  Projections
        #: like :meth:`subset` only ever walk the forward direction, so
        #: deferring the build keeps them O(|keys|) instead of O(Σ|G|) —
        #: the customization path derives a restricted group set per
        #: request and never asks it a reverse question.
        self._user_groups: dict[str, set[GroupKey]] | None = None
        #: Lazily-built immutable views handed out by :meth:`groups_of`;
        #: entries are invalidated whenever a user's link set changes.
        self._views: dict[str, frozenset[GroupKey]] = {}
        #: Mutation counter consumed by derived caches (the sparse
        #: :class:`~repro.core.index.InstanceIndex` keyed on an instance
        #: drops its cached build when this moves).
        self._version = 0
        for group in groups:
            self.add(group)

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation of the group set.

        Derived structures (e.g. the cached sparse index of an instance
        built over this group set) compare the version they were built at
        against the current one to detect staleness — the same
        invalidation contract ``property_incidence`` has with
        :meth:`~repro.core.profiles.UserRepository.add`.
        """
        return self._version

    def add(self, group: Group) -> None:
        """Insert ``group``; re-adding the same key replaces it.

        Users the replacement unlinks from their last group are pruned
        from the user → groups map entirely, so ``degree`` and
        ``groups_of`` never see stale empty entries.
        """
        previous = self._groups.get(group.key)
        if self._user_groups is not None:
            # Reverse links exist: maintain them incrementally.  (Views
            # can only be populated once the links exist, so the lazy
            # branch below has nothing to invalidate.)
            if previous is not None:
                for user_id in previous.members:
                    links = self._user_groups[user_id]
                    links.discard(group.key)
                    if not links:
                        del self._user_groups[user_id]
                    self._views.pop(user_id, None)
            for user_id in group.members:
                self._user_groups.setdefault(user_id, set()).add(group.key)
                self._views.pop(user_id, None)
        self._groups[group.key] = group
        self._version += 1

    def _links(self) -> dict[str, set[GroupKey]]:
        """The user → groups map, built on first demand.

        Building from the current ``_groups`` state folds any
        replacements that happened while the map was unbuilt, so the
        result is identical to eager incremental maintenance.
        """
        if self._user_groups is None:
            links: dict[str, set[GroupKey]] = {}
            for group in self._groups.values():
                for user_id in group.members:
                    links.setdefault(user_id, set()).add(group.key)
            self._user_groups = links
        return self._user_groups

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator[Group]:
        return iter(self._groups.values())

    def __contains__(self, key: object) -> bool:
        return key in self._groups

    @property
    def keys(self) -> list[GroupKey]:
        return list(self._groups)

    def group(self, key: GroupKey) -> Group:
        """Return the group stored under ``key``; raise if absent."""
        try:
            return self._groups[key]
        except KeyError:
            raise UnknownGroupError(f"unknown group {key}") from None

    def groups_of(self, user_id: str) -> frozenset[GroupKey]:
        """Keys of every group containing ``user_id`` (user explanation).

        Returns a cached immutable view: the greedy hot path calls this
        once per candidate per round, so no per-call copy is made.
        """
        view = self._views.get(user_id)
        if view is None:
            view = frozenset(self._links().get(user_id, ()))
            self._views[user_id] = view
        return view

    def degree(self, user_id: str) -> int:
        """``|{G in G-set | u in G}|`` — the user's group membership count."""
        return len(self._links().get(user_id, ()))

    def max_group_size(self) -> int:
        """``max_G |G|`` (appears in the complexity bound of Prop. 4.4)."""
        return max((g.size for g in self), default=0)

    def max_degree(self) -> int:
        """``max_u |{G | u in G}|`` (the other Prop. 4.4 factor)."""
        return max((len(k) for k in self._links().values()), default=0)

    def top_k(self, k: int) -> list[Group]:
        """The ``k`` largest groups, ties broken by key for determinism."""
        return sorted(self, key=lambda g: (-g.size, str(g.key)))[:k]

    def restricted_to_users(self, user_ids: Iterable[str]) -> "GroupSet":
        """Project every group onto a user subset (used by CUSTOM-DIVERSITY)."""
        keep = frozenset(user_ids)
        return GroupSet(
            Group(g.key, g.members & keep, g.bucket, g.label) for g in self
        )

    def subset(self, keys: Iterable[GroupKey]) -> "GroupSet":
        """Return a group set containing only ``keys``."""
        return GroupSet(self.group(k) for k in keys)

    def buckets_of_property(self, property_label: str) -> list[Group]:
        """All simple groups derived from one property — the set ``β(p)``."""
        return [
            g
            for g in self
            if g.bucket is not None and g.key.property_label == property_label
        ]

    def __repr__(self) -> str:
        return f"GroupSet(groups={len(self)})"


@dataclass(frozen=True)
class GroupingConfig:
    """Configuration of the offline grouping module (paper §7).

    ``buckets_per_property`` is the target number of score buckets ``k``
    for non-Boolean properties; ``strategy`` selects the 1-d splitting
    method; ``min_support`` drops properties carried by fewer users (rare
    properties generate near-empty groups that only add noise);
    ``drop_empty`` removes buckets that end up with no members;
    ``fixed_splits``, when given, bypasses the data-driven strategy and
    buckets every non-Boolean property at these interior boundaries (the
    paper's running example uses 0.4 and 0.65).
    """

    buckets_per_property: int = 3
    strategy: str = "jenks"
    min_support: int = 1
    drop_empty: bool = True
    fixed_splits: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.buckets_per_property < 1:
            raise InvalidInstanceError(
                f"buckets_per_property must be >= 1, "
                f"got {self.buckets_per_property}"
            )
        if self.min_support < 1:
            raise InvalidInstanceError(
                f"min_support must be >= 1, got {self.min_support}"
            )


#: The ordered kept ``(property label, bucket)`` pairs of a group set.
Grouping = tuple[tuple[str, Bucket], ...]


def grouping_of(groups: GroupSet) -> Grouping:
    """The kept ``(label, bucket)`` pairs of simple ``groups``, in order."""
    return tuple((g.key.property_label, g.bucket) for g in groups)


def groups_from_grouping(
    repository: UserRepository, grouping: Grouping
) -> GroupSet:
    """The groups of ``grouping`` over ``repository``, in its order.

    Members are the users whose score for the property lies in the
    bucket, found with one score vector per run of a property's buckets
    and an array mask per bucket, so the buckets need not tile ``[0, 1]``.
    """
    groups, current = GroupSet(), None
    for label, bucket in grouping:
        if label != current:
            current, held = label, repository.support(label) > 0
            user_ids, scores = (
                repository.scores_for(label) if held else ((), ())
            )
            ids, scores = np.array(user_ids, dtype=object), np.asarray(scores)
        below = scores <= bucket.hi if bucket.closed_hi else scores < bucket.hi
        members = frozenset(ids[(scores >= bucket.lo) & below].tolist())
        groups.add(Group(GroupKey(label, bucket.label), members, bucket))
    return groups


def build_simple_groups(
    repository: UserRepository,
    config: GroupingConfig | None = None,
) -> GroupSet:
    """Run the grouping module: bucket every property, emit simple groups.

    This is the offline pre-processing step of Fig. 1: for each property
    ``p`` with enough support, compute ``β(p)`` with the configured
    splitting strategy and materialize one :class:`Group` per non-empty
    bucket through :func:`groups_from_grouping`.
    """
    config = config or GroupingConfig()
    grouping: list[tuple[str, Bucket]] = []
    for label in repository.property_labels:
        if repository.support(label) < config.min_support:
            continue
        _, scores = repository.scores_for(label)
        if config.fixed_splits is not None and not is_boolean(scores):
            buckets = partition_from_splits(config.fixed_splits)
        else:
            buckets = split_scores(
                scores, k=config.buckets_per_property, strategy=config.strategy
            )
        grouping.extend((label, bucket) for bucket in buckets)
    groups = groups_from_grouping(repository, tuple(grouping))
    if config.drop_empty:
        groups = GroupSet(group for group in groups if group.members)
    return groups


def intersect_groups(groups: Iterable[Group]) -> Group:
    """Fold a sequence of groups into one intersection group."""
    groups = list(groups)
    if not groups:
        raise InvalidInstanceError("cannot intersect an empty group sequence")
    result = groups[0]
    for group in groups[1:]:
        result = result.intersect(group)
    return result


def augment_with_intersections(
    groups: GroupSet,
    min_size: int = 2,
    max_new: int = 100,
) -> GroupSet:
    """Add the largest pairwise cross-property intersections as groups.

    Example 3.5 shows complex groups like "Tokyo residents who are also
    Mexican food lovers"; this helper materializes the ``max_new``
    largest such intersections (of at least ``min_size`` members) as
    first-class groups, so weights/coverage/selection treat them like any
    simple group.  Buckets of the same property never intersect and are
    skipped.  Returns a new group set; the input is untouched.
    """
    if min_size < 1:
        raise InvalidInstanceError(f"min_size must be >= 1, got {min_size}")
    simple = [g for g in groups if g.bucket is not None]
    simple.sort(key=lambda g: (-g.size, str(g.key)))
    candidates: list[Group] = []
    # Sizes of the current best ``max_new`` candidates (min-heap).  Since
    # |A ∩ B| <= min(|A|, |B|) and the pair scan walks sizes in
    # non-increasing order, a pair whose bound falls strictly below the
    # max_new-th best size so far — and hence every later pair in that
    # row/column — can never enter the final top list, so the scan stops
    # early instead of touching all O(n²) pairs.  Ties (bound equal to
    # the threshold) keep scanning, so the emitted top ``max_new`` under
    # the (-size, key) order are identical to the exhaustive scan's.
    best_sizes: list[int] = []

    def cutoff(bound: int) -> bool:
        return len(best_sizes) == max_new and bound < best_sizes[0]

    for i in range(len(simple)):
        if simple[i].size < min_size or cutoff(simple[i].size):
            break
        for j in range(i + 1, len(simple)):
            a, b = simple[i], simple[j]
            if b.size < min_size or cutoff(b.size):
                break
            if a.key.property_label == b.key.property_label:
                continue
            common = a.intersect(b)
            if common.size >= min_size:
                candidates.append(common)
                if len(best_sizes) < max_new:
                    heapq.heappush(best_sizes, common.size)
                elif common.size > best_sizes[0]:
                    heapq.heapreplace(best_sizes, common.size)
    candidates.sort(key=lambda g: (-g.size, str(g.key)))
    augmented = GroupSet(groups)
    for group in candidates[:max_new]:
        augmented.add(group)
    return augmented

"""Integer-encoded sparse instance index for the vectorized backend.

The paper's §4 data structures (bidirectional user ↔ group links) are
dict/set based, which keeps the greedy loop readable but pays Python
object overhead per membership visit.  :class:`InstanceIndex` re-encodes
a :class:`~repro.core.instance.DiversificationInstance` once into dense
integer ids plus CSR-style incidence arrays so the selection hot paths
(`method="matrix"` in :func:`~repro.core.greedy.greedy_select`,
:func:`~repro.core.scoring.subset_score`,
:func:`~repro.core.scoring.covered_groups`) run as numpy array ops:

* users appearing in any group get dense ids ``0..n_users-1`` in sorted
  user-id order, so ``argmax`` over a gain vector breaks ties by minimal
  user id exactly like the eager/lazy implementations;
* the user → group and group → user incidence is stored twice as CSR
  (``indptr``/``indices``; indices are int32 whenever the id space fits,
  int64 otherwise) for O(degree) row slicing in both directions;
* ``wei``/``cov`` are materialized as dense int64 vectors.

EBS weights are exact Python integers ``(B + 1)^ord(G)`` that overflow
int64 at realistic ranks, and customized instances may carry non-integer
weights.  The index therefore computes the exact total incidence mass
``Σ_G wei(G)·|G|`` in Python-int arithmetic and only declares itself
:attr:`~InstanceIndex.vectorizable` when every weight is an ``int`` and
every partial sum a backend can form is representable in int64.  Callers
must honor the flag by falling back to the exact object-dtype paths —
correctness never depends on the backend.

The index is immutable and cached on the instance (instances are frozen
and documented immutable for their lifetime), so repeated selections,
scores and coverage queries share one build.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .groups import GroupKey
from .instance import DiversificationInstance
from .weights import Weight

#: Largest value an int64 cell may hold; sums bounded by this stay exact.
_INT64_MAX = np.iinfo(np.int64).max

#: Largest dense id an int32 CSR indices array may store.
_INT32_MAX = np.iinfo(np.int32).max

#: Attribute used to cache the built index on a (frozen) instance.  The
#: cached value is a ``(groups_version, index)`` pair so mutations of the
#: underlying group set invalidate the build.
_CACHE_ATTR = "_instance_index_cache"


def id_dtype(n: int) -> type:
    """Smallest integer dtype able to hold dense ids ``0..n-1``.

    CSR ``indices`` arrays dominate index memory at scale, so they are
    stored as int32 whenever the id space fits (halving their footprint);
    the int64 ``wei``/``cov`` accumulators and the exact big-int fallback
    are unaffected — only ids shrink, never arithmetic.
    """
    return np.int32 if n <= _INT32_MAX else np.int64


def _segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Exact int64 per-row sums of a CSR value array (empty rows -> 0)."""
    if values.size == 0:
        return np.zeros(len(indptr) - 1, dtype=np.int64)
    cumulative = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(values, dtype=np.int64)]
    )
    return cumulative[indptr[1:]] - cumulative[indptr[:-1]]


@dataclass(frozen=True)
class InstanceIndex:
    """Dense-id sparse view of one diversification instance.

    Attributes
    ----------
    users:
        Every user appearing in at least one group, sorted ascending —
        the dense user id is the position in this tuple.
    user_pos:
        Inverse map ``user_id -> dense id``.
    group_keys:
        Dense group id -> :class:`GroupKey`, in group-set iteration order.
    group_pos:
        Inverse map ``GroupKey -> dense group id``.
    u_indptr / u_indices:
        CSR rows per user listing the dense ids of its groups.
    g_indptr / g_indices:
        CSR rows per group listing the dense ids of its members.
    cov:
        Required coverage per group (int64).
    wei:
        Group weights as int64, or ``None`` when not vectorizable.
    initial_gains:
        Per-user marginal gain of the empty subset (every group active),
        or ``None`` when not vectorizable.
    vectorizable:
        True iff all weights are Python ints and ``Σ_G wei(G)·|G|`` fits
        int64, so every partial sum the array backend forms is exact.
    """

    users: tuple[str, ...]
    user_pos: dict[str, int]
    group_keys: tuple[GroupKey, ...]
    group_pos: dict[GroupKey, int]
    u_indptr: np.ndarray
    u_indices: np.ndarray
    g_indptr: np.ndarray
    g_indices: np.ndarray
    cov: np.ndarray
    wei: np.ndarray | None
    initial_gains: np.ndarray | None
    vectorizable: bool

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_groups(self) -> int:
        return len(self.group_keys)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, instance: DiversificationInstance) -> "InstanceIndex":
        """Encode ``instance`` into dense ids and CSR incidence arrays."""
        groups = list(instance.groups)
        group_keys = tuple(g.key for g in groups)
        users = tuple(sorted({u for g in groups for u in g.members}))
        user_pos = {u: i for i, u in enumerate(users)}
        n_users, n_groups = len(users), len(groups)

        # Group -> user CSR.  The only Python-level pass over the raw
        # membership data is the id -> dense-id lookup; everything after
        # runs as array ops.
        sizes = np.fromiter(
            (len(g.members) for g in groups), dtype=np.int64, count=n_groups
        )
        g_indptr = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(sizes, out=g_indptr[1:])
        total = int(g_indptr[-1])
        g_indices = np.fromiter(
            (user_pos[u] for g in groups for u in g.members),
            dtype=id_dtype(n_users),
            count=total,
        )

        # User -> group CSR: transpose the (group, user) entry list with a
        # stable counting-style sort on the user column.
        entry_group = np.repeat(
            np.arange(n_groups, dtype=id_dtype(n_groups)), sizes
        )
        order = np.argsort(g_indices, kind="stable")
        u_indices = entry_group[order]
        degree = np.bincount(g_indices, minlength=n_users).astype(np.int64)
        u_indptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(degree, out=u_indptr[1:])

        cov = np.fromiter(
            (int(instance.cov[k]) for k in group_keys),
            dtype=np.int64,
            count=n_groups,
        )

        raw_weights = [instance.wei[k] for k in group_keys]
        vectorizable = all(
            isinstance(w, int) and not isinstance(w, bool) for w in raw_weights
        )
        if vectorizable:
            # Exact Python-int bound on every partial sum any backend
            # forms: gains, scores and cumulative sums all total at most
            # Σ_G wei(G)·|G| (coverage caps only shrink terms).
            mass = sum(
                w * int(g_indptr[gid + 1] - g_indptr[gid])
                for gid, w in enumerate(raw_weights)
            )
            vectorizable = mass <= _INT64_MAX

        wei = initial_gains = None
        if vectorizable:
            wei = np.fromiter(raw_weights, dtype=np.int64, count=n_groups)
            initial_gains = _segment_sums(wei[u_indices], u_indptr)

        return cls(
            users=users,
            user_pos=user_pos,
            group_keys=group_keys,
            group_pos={key: gid for gid, key in enumerate(group_keys)},
            u_indptr=u_indptr,
            u_indices=u_indices,
            g_indptr=g_indptr,
            g_indices=g_indices,
            cov=cov,
            wei=wei,
            initial_gains=initial_gains,
            vectorizable=vectorizable,
        )

    @classmethod
    def from_csr(
        cls,
        users: tuple[str, ...],
        group_keys: tuple[GroupKey, ...],
        u_indptr: np.ndarray,
        u_indices: np.ndarray,
        g_indptr: np.ndarray,
        g_indices: np.ndarray,
        cov: np.ndarray,
        weights: list | None,
        user_pos: Mapping[str, int] | None = None,
        group_pos: dict[GroupKey, int] | None = None,
    ) -> "InstanceIndex":
        """Assemble an index from pre-built CSR arrays.

        The columnar construction path lands here: it produces the arrays
        directly from triple columns without materializing dict-of-dict
        repositories or group sets.  ``weights`` are exact Python ints (or
        ``None`` for a non-vectorizable index); the same
        ``Σ_G wei(G)·|G|`` int64-representability check as :meth:`build`
        decides whether the vectorized fast path is safe.
        """
        n_groups = len(group_keys)
        vectorizable = weights is not None and all(
            isinstance(w, int) and not isinstance(w, bool) for w in weights
        )
        if vectorizable:
            assert weights is not None
            mass = sum(
                w * int(g_indptr[gid + 1] - g_indptr[gid])
                for gid, w in enumerate(weights)
            )
            vectorizable = mass <= _INT64_MAX
        wei = initial_gains = None
        if vectorizable:
            wei = np.fromiter(weights, dtype=np.int64, count=n_groups)
            initial_gains = _segment_sums(wei[u_indices], u_indptr)
        if user_pos is None:
            # Callers whose ``users`` is an unchanged lazy sequence (a
            # mapped checkpoint) pass the id→row mapping through instead:
            # enumerating here would decode the whole id array.
            user_pos = {u: i for i, u in enumerate(users)}
        if group_pos is None:
            group_pos = {key: gid for gid, key in enumerate(group_keys)}
        return cls(
            users=users,
            user_pos=user_pos,
            group_keys=group_keys,
            group_pos=group_pos,
            u_indptr=u_indptr,
            u_indices=u_indices,
            g_indptr=g_indptr,
            g_indices=g_indices,
            cov=cov,
            wei=wei,
            initial_gains=initial_gains,
            vectorizable=vectorizable,
        )

    def restricted_scaled(
        self, group_dense_ids: np.ndarray, weights: list
    ) -> "InstanceIndex":
        """Derived index over a group subset with replacement weights.

        The customization path (paper §6) restricts an instance to the
        active groups ``G_d ∪ G_d?`` and rescales priority weights; doing
        that on the dict-based instance re-walks every membership set in
        Python.  Here the restriction is pure array work on the existing
        CSR arrays, with no sort: every user row of ``u_indices`` is
        strictly ascending (the row-order invariant all construction
        paths keep), so filtering out the dropped groups and renumbering
        the rest through a monotone map leaves each row ascending in the
        new ids — the same arrays a fresh transpose would produce, in
        O(nnz).  When no group is dropped the CSR arrays are shared with
        this index by reference and only ``wei``/``initial_gains`` are
        new.  ``weights`` (exact Python ints, parallel to
        ``group_dense_ids``) replace the originals.  The user id space is
        kept whole — users left with no active group simply have empty
        rows and zero initial gain, which selects identically to absent
        users.

        ``group_dense_ids`` must be strictly ascending (hence duplicate
        free) dense ids of this index; the monotone renumbering depends
        on it.
        """
        group_dense_ids = np.asarray(group_dense_ids, dtype=np.int64)
        m = len(group_dense_ids)
        if m and (
            (np.diff(group_dense_ids) <= 0).any()
            or group_dense_ids[0] < 0
            or group_dense_ids[-1] >= self.n_groups
        ):
            raise ValueError(
                "restricted_scaled requires strictly ascending dense "
                "group ids"
            )
        g_dtype = id_dtype(m)
        if m == self.n_groups:
            # Strictly ascending and complete: the identity restriction.
            group_keys, group_pos = self.group_keys, self.group_pos
            u_indptr = self.u_indptr
            u_indices = self.u_indices.astype(g_dtype, copy=False)
            g_indptr = self.g_indptr
            g_indices = self.g_indices
            cov = self.cov
        else:
            group_keys = tuple(self.group_keys[g] for g in group_dense_ids)
            group_pos = None
            renumber = np.full(self.n_groups, -1, dtype=g_dtype)
            renumber[group_dense_ids] = np.arange(m, dtype=g_dtype)
            mapped = renumber[self.u_indices]
            keep = mapped >= 0
            u_indices = mapped[keep]
            kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
            np.cumsum(keep, out=kept_before[1:])
            u_indptr = kept_before[self.u_indptr]
            g_indptr = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(self.row_sizes(group_dense_ids), out=g_indptr[1:])
            g_indices = self.members_of_rows(group_dense_ids)
            cov = self.cov[group_dense_ids]
        return InstanceIndex.from_csr(
            users=self.users,
            group_keys=group_keys,
            u_indptr=u_indptr,
            u_indices=u_indices,
            g_indptr=g_indptr,
            g_indices=g_indices,
            cov=cov,
            weights=weights,
            user_pos=self.user_pos,
            group_pos=group_pos,
        )

    def take_rows(self, rows: np.ndarray) -> "InstanceIndex":
        """Small eager sub-index over a subset of user rows.

        The streaming sharded backend's merge round runs here: the union
        of shard winners (≤ 2·shards·budget rows) is gathered out of the
        — possibly memory-mapped — parent index into a self-contained
        index whose resident size is O(union), never O(n).  Groups are
        kept whole (same keys, coverage and weights) with membership
        restricted to ``rows``, so every gain the merge round computes
        equals the parent's gain for the same candidate: greedy over a
        ``take_rows`` union is exactly greedy over the parent restricted
        to that union.  ``rows`` must be ascending so the sub-index keeps
        the sorted-by-id row order the argmax tie-break rides on.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and (np.diff(rows) <= 0).any():
            raise ValueError("take_rows requires strictly ascending rows")
        users = tuple(str(self.users[int(r)]) for r in rows)
        degrees = (self.u_indptr[rows + 1] - self.u_indptr[rows]).astype(
            np.int64
        )
        u_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(degrees, out=u_indptr[1:])
        if int(u_indptr[-1]):
            u_indices = np.concatenate(
                [
                    self.u_indices[self.u_indptr[r]:self.u_indptr[r + 1]]
                    for r in rows
                ]
            )
        else:
            u_indices = np.empty(0, dtype=self.u_indices.dtype)
        entry_user = np.repeat(
            np.arange(len(rows), dtype=id_dtype(max(len(rows), 1))), degrees
        )
        order = np.argsort(u_indices, kind="stable")
        g_indices = entry_user[order]
        g_indptr = np.zeros(self.n_groups + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(
                np.asarray(u_indices, dtype=np.int64),
                minlength=self.n_groups,
            ),
            out=g_indptr[1:],
        )
        weights = (
            [int(w) for w in self.wei] if self.wei is not None else None
        )
        return InstanceIndex.from_csr(
            users=users,
            group_keys=self.group_keys,
            u_indptr=u_indptr,
            u_indices=np.asarray(u_indices),
            g_indptr=g_indptr,
            g_indices=g_indices,
            cov=np.array(self.cov, dtype=np.int64),
            weights=weights,
        )

    # -- row access --------------------------------------------------------

    def groups_of_row(self, user_dense_id: int) -> np.ndarray:
        """Dense group ids of one user's memberships (a CSR row view)."""
        lo, hi = self.u_indptr[user_dense_id], self.u_indptr[user_dense_id + 1]
        return self.u_indices[lo:hi]

    def members_of_rows(self, group_dense_ids: np.ndarray) -> np.ndarray:
        """Concatenated member ids of several groups (parallel to repeats)."""
        if group_dense_ids.size == 0:
            return np.empty(0, dtype=self.g_indices.dtype)
        return np.concatenate(
            [
                self.g_indices[self.g_indptr[g]:self.g_indptr[g + 1]]
                for g in group_dense_ids
            ]
        )

    def row_sizes(self, group_dense_ids: np.ndarray) -> np.ndarray:
        """Member counts of several groups."""
        return self.g_indptr[group_dense_ids + 1] - self.g_indptr[group_dense_ids]

    # -- vectorized scoring ------------------------------------------------

    def selection_mask(self, user_ids: Iterable[str]) -> np.ndarray:
        """Boolean membership vector over dense user ids."""
        mask = np.zeros(self.n_users, dtype=bool)
        for user_id in user_ids:
            pos = self.user_pos.get(user_id)
            if pos is not None:
                mask[pos] = True
        return mask

    def group_hits(self, mask: np.ndarray) -> np.ndarray:
        """``|U ∩ G|`` per group for a selection mask, as int64."""
        return _segment_sums(
            mask[self.g_indices].astype(np.int64), self.g_indptr
        )

    def row_hits(self, rows: Iterable[int]) -> np.ndarray:
        """``|S ∩ G|`` per group for a set ``S`` of distinct dense rows.

        Same exact counts as ``group_hits`` over the rows' mask, but
        O(Σ_u deg(u)) over the selection instead of a pass over the full
        incidence — for a budget-sized selection that is a few hundred
        entries, not millions.  On a memory-mapped index only the
        selected rows' pages fault in.
        """
        parts = [self.groups_of_row(r) for r in rows]
        if not parts:
            return np.zeros(self.n_groups, dtype=np.int64)
        counts = np.bincount(
            np.concatenate(parts), minlength=self.n_groups
        )
        return counts.astype(np.int64, copy=False)

    def selection_hits(self, user_ids: Iterable[str]) -> np.ndarray:
        """``|U ∩ G|`` per group of a selection given by user id.

        :meth:`row_hits` over the ids' rows; duplicate and unknown ids
        contribute nothing, exactly like the mask path.
        """
        rows = {self.user_pos.get(u) for u in user_ids}
        rows.discard(None)
        return self.row_hits(rows)

    def subset_score(self, user_ids: Iterable[str]) -> Weight:
        """Exact ``score_G`` of a subset; requires :attr:`vectorizable`."""
        assert self.wei is not None
        hits = self.group_hits(self.selection_mask(user_ids))
        return int(np.sum(self.wei * np.minimum(hits, self.cov)))

    def covered_group_keys(self, user_ids: Iterable[str]) -> set[GroupKey]:
        """Keys of groups with at least ``cov(G)`` selected members."""
        hits = self.group_hits(self.selection_mask(user_ids))
        covered = np.flatnonzero(hits >= self.cov)
        return {self.group_keys[g] for g in covered}

    def membership_matrix(self, group_dense_ids: Iterable[int]) -> np.ndarray:
        """Dense boolean rows-per-group × dense-user membership matrix.

        The vectorized intrinsic metrics expand a handful of large groups
        into masks once, then answer every pairwise intersection question
        with one matrix product instead of Python set arithmetic.
        """
        rows = list(group_dense_ids)
        matrix = np.zeros((len(rows), self.n_users), dtype=bool)
        for r, gid in enumerate(rows):
            lo, hi = self.g_indptr[gid], self.g_indptr[gid + 1]
            matrix[r, self.g_indices[lo:hi]] = True
        return matrix


def instance_index(instance: DiversificationInstance) -> InstanceIndex:
    """Build (or fetch the cached) :class:`InstanceIndex` of ``instance``.

    Instances are frozen dataclasses, so the index is computed once and
    stashed on the instance; every selection backend, score and coverage
    query then shares one build.  The group set an instance wraps *is*
    mutable, however (``GroupSet.add`` replaces groups in place), so the
    cache records the group set's version at build time and rebuilds
    whenever the set has mutated since — the same invalidation contract
    :func:`property_incidence` has with ``UserRepository.add``.
    """
    version = instance.groups.version
    cached = instance.__dict__.get(_CACHE_ATTR)
    if cached is not None and cached[0] == version:
        return cached[1]
    index = InstanceIndex.build(instance)
    object.__setattr__(instance, _CACHE_ATTR, (version, index))
    return index


def attach_index(
    instance: DiversificationInstance, index: InstanceIndex
) -> None:
    """Install a pre-built ``index`` as ``instance``'s cached index.

    Used by paths that already hold the index — a columnar build handing
    out its lazily materialized instance view, or an ``.npz`` checkpoint
    loaded next to a persisted instance — so selections over the instance
    skip the re-encode entirely.
    """
    object.__setattr__(
        instance, _CACHE_ATTR, (instance.groups.version, index)
    )


#: Attribute caching the densified incidence on a repository; the
#: repository invalidates it whenever a profile is added.
_INCIDENCE_CACHE_ATTR = "_property_incidence_cache"


def property_incidence(
    repository,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """User × property boolean incidence of a repository, densified.

    Returns ``(user_ids, incidence, sizes)`` where ``incidence[i, j]`` is
    1.0 iff user ``i`` (repository order) carries property ``j``
    (``property_labels`` order) and ``sizes[i] = |P_u|``.  The matrix is
    float64 so ``incidence @ incidence[i]`` yields exact pairwise
    intersection counts (0/1 partial sums stay below 2**53): the product
    the distance baseline uses in place of per-pair Python set
    intersections.  Scores are irrelevant here — a property present with
    score 0.0 still counts as carried (open-world semantics, §3.1).

    The result is cached on the repository and invalidated by
    :meth:`~repro.core.profiles.UserRepository.add`, so repeated
    selections over one population share a single densification.
    """
    cached = repository.__dict__.get(_INCIDENCE_CACHE_ATTR)
    if cached is not None:
        return cached
    user_ids = repository.user_ids
    labels = repository.property_labels
    position = {label: j for j, label in enumerate(labels)}
    incidence = np.zeros((len(user_ids), len(labels)), dtype=np.float64)
    for i, user_id in enumerate(user_ids):
        for label in repository.profile(user_id).properties:
            incidence[i, position[label]] = 1.0
    built = (user_ids, incidence, incidence.sum(axis=1).astype(np.int64))
    repository.__dict__[_INCIDENCE_CACHE_ATTR] = built
    return built

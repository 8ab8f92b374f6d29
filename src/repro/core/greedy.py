"""Greedy user selection — Algorithm 1 of the paper (§4).

Two interchangeable implementations are provided:

* :func:`greedy_select` with ``method="eager"`` follows the paper line by
  line: it maintains every candidate's marginal contribution
  ``marg_{u,U}`` and, whenever a group's remaining coverage hits zero,
  subtracts the group's weight from the contribution of its other members
  (Algorithm 1, line 10).  Complexity
  ``O(B · max_G |G| · max_u degree(u))`` per Prop. 4.4.
* ``method="lazy"`` is the standard lazy-greedy accelerant for monotone
  submodular objectives: stale upper bounds sit in a max-heap and are only
  refreshed when popped.  It returns a subset with the same score
  guarantee and is typically much faster on large, overlapping group sets.
* ``method="matrix"`` runs the same eager recurrence over the
  integer-encoded sparse index (:mod:`repro.core.index`): candidates'
  marginal gains live in one int64 vector, the best pick is an ``argmax``
  and exhausted-group decrements are scattered through CSR incidence
  arrays.  When the instance's weights cannot be represented exactly in
  int64 (EBS big-ints, non-integer weights), it transparently falls back
  to the exact lazy path — correctness never depends on the backend.

All three achieve the (1 − 1/e) approximation of Prop. 4.4 because the
score function is monotone submodular for every weight/coverage choice,
and all three select *identical sequences* when ``rng`` is None.  Under
one seeded generator they still agree pick for pick on a pool of
distinct candidates: each breaks a tie with one ``rng.integers(k)``
draw over the ``k`` tied ids in ascending order, and a lone leader
draws nothing (``integers(1)`` consumes no state).  The property holds
whenever matrix runs its own kernel or falls back to lazy, i.e. for
every weight scheme (``tests/core/test_kernel_differential.py``).

Two additional backends trade a little quality guarantee for scale:

* ``method="sharded"`` is the GreeDi two-round scheme [Mirzasoleiman et
  al., "Distributed submodular maximization"]: partition the candidates
  into S shards (deterministic under ``shard_seed``), solve each shard
  with the matrix backend (fanned out over a fork-warmed process pool,
  see :mod:`repro.core.sharding`), then run one exact greedy over the
  union of the ≤ S·B shard picks.  Worst-case guarantee
  (1 − 1/e)/min(S, B)·OPT, but on partitionable instances the measured
  quality ratio vs exact greedy is near 1 (tracked by
  ``repro bench --suite scale``).  ``shards=1`` reproduces the matrix
  selections exactly — the final round restricted to greedy's own output
  re-picks the same sequence.
* ``method="stochastic"`` is lazier-than-lazy stochastic greedy
  [Mirzasoleiman et al., AAAI'15]: each step evaluates marginals only on
  a uniform random sample of ``⌈(n/B)·ln(1/ε)⌉`` remaining candidates,
  giving (1 − 1/e − ε) in expectation at O(n·ln(1/ε)) total marginal
  evaluations.  ``sample_ratio=1.0`` degenerates to the exact
  deterministic greedy for any rng.

Both fall back to the exact lazy path on non-vectorizable instances,
like ``matrix``.  The three array backends — and the customized,
fair and clustered selections — all run one private kernel,
:func:`_greedy_kernel`.  :func:`select_from_index` exposes the vectorized
backends directly on an :class:`~repro.core.index.InstanceIndex`, so the
columnar construction path can select without ever materializing
dict-based ``UserRepository``/``GroupSet`` objects.

Ties between candidates with equal marginal gain are broken
deterministically by user id unless an ``rng`` is supplied, in which case
they are broken uniformly at random — the controlled randomness the paper
mentions in §10.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBudgetError, PodiumError
from .index import InstanceIndex, _segment_sums, instance_index
from .instance import DiversificationInstance
from .profiles import UserRepository
from .scoring import CoverageState
from .sharding import solve_range_shards, solve_shards
from .weights import Weight


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a selection run.

    Attributes
    ----------
    selected:
        User ids in the order they were picked.
    score:
        Final ``score_G`` of the subset.
    gains:
        Realized marginal gain of each pick, parallel to ``selected``.
    instance:
        The diversification instance the selection ran against (used by
        explanations and metrics downstream).  ``None`` for selections
        produced straight from an :class:`InstanceIndex`
        (:func:`select_from_index`), where no dict-based instance was
        ever materialized.
    """

    selected: tuple[str, ...]
    score: Weight
    gains: tuple[Weight, ...]
    instance: DiversificationInstance | None = None

    def __post_init__(self) -> None:
        if len(self.selected) != len(self.gains):
            raise PodiumError("selected and gains must be parallel")

    def __len__(self) -> int:
        return len(self.selected)

    def __contains__(self, user_id: object) -> bool:
        return user_id in self.selected


def _resolve_candidates(
    repository: UserRepository, candidates: list[str] | None
) -> list[str]:
    if candidates is None:
        return repository.user_ids
    return [u for u in candidates if u in repository]


def _pick_tie(
    tied: list[str], rng: np.random.Generator | None
) -> str:
    """Minimal id, or a uniform ``rng`` draw over the ids in ascending
    order — the order the array backends hold their candidates in, and
    one that does not vary with the interpreter's hash seed."""
    if rng is None or len(tied) == 1:
        return min(tied)
    tied.sort()
    return tied[int(rng.integers(len(tied)))]


def greedy_select(
    repository: UserRepository,
    instance: DiversificationInstance,
    budget: int | None = None,
    candidates: list[str] | None = None,
    method: str = "eager",
    rng: np.random.Generator | None = None,
    *,
    shards: int = 4,
    jobs: int | None = 1,
    shard_seed: int = 0,
    epsilon: float = 0.1,
    sample_ratio: float | None = None,
) -> SelectionResult:
    """Select up to ``budget`` users maximizing ``score_G`` greedily.

    Parameters
    ----------
    repository:
        The population ``U`` to select from.
    instance:
        The diversification instance ``(G, wei, cov)``.
    budget:
        Bound ``B`` on the subset size; defaults to ``instance.budget``.
    candidates:
        Optional pre-filtered candidate pool (CUSTOM-DIVERSITY passes the
        refined user set ``U'`` here); ids absent from the repository are
        ignored.
    method:
        ``"eager"`` (paper Algorithm 1), ``"lazy"`` (heap accelerant),
        ``"matrix"`` (vectorized sparse backend with exact fallback),
        ``"sharded"`` (GreeDi two-round over ``shards`` user shards) or
        ``"stochastic"`` (per-step sampled marginals).
    rng:
        Optional generator for random tie-breaking (eager/lazy/matrix and
        the sharded merge round) or for per-step candidate sampling
        (stochastic; defaults to a seed-0 generator so runs are
        reproducible by default).
    shards / jobs / shard_seed:
        Sharded backend only: shard count, worker processes for the
        shard solves and the seed of the deterministic user → shard
        permutation.
    epsilon / sample_ratio:
        Stochastic backend only: the guarantee slack ε fixing the sample
        size ``⌈(n/B)·ln(1/ε)⌉``, or an explicit sample fraction of the
        pool overriding it (``1.0`` → exact deterministic greedy).
    """
    budget = instance.budget if budget is None else budget
    if budget < 1:
        raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
    pool = _resolve_candidates(repository, candidates)
    if method == "eager":
        return _greedy_eager(pool, instance, budget, rng)
    if method == "lazy":
        return _greedy_lazy(pool, instance, budget, rng)
    if method not in _ARRAY_METHODS:
        raise PodiumError(
            f"unknown greedy method {method!r}; use 'eager', 'lazy', "
            f"'matrix', 'sharded' or 'stochastic'"
        )
    index = instance_index(instance)
    if not index.vectorizable:
        # Weights past int64: the exact lazy path (both GreeDi rounds on
        # it for "sharded" — the scheme, not the backend, is what shards).
        if method == "sharded":
            return _greedy_lazy_sharded(
                pool, instance, budget, rng, shards, jobs, shard_seed
            )
        return _greedy_lazy(pool, instance, budget, rng)
    ordered = sorted(pool)
    slots = _id_slots(index, ordered)
    picks, gains, score = _select_slots(
        index, slots, budget, method, rng,
        shards=shards, jobs=jobs, shard_seed=shard_seed,
        epsilon=epsilon, sample_ratio=sample_ratio,
    )
    return SelectionResult(
        selected=tuple(ordered[p] for p in picks),
        score=score,
        gains=tuple(gains),
        instance=instance,
    )


def _id_slots(index: InstanceIndex, ordered: list[str]) -> np.ndarray:
    """Dense rows of ``ordered`` ids; ``-1`` for an id the index does
    not know (a user in no group)."""
    return np.fromiter(
        (index.user_pos.get(u, -1) for u in ordered),
        dtype=np.int64,
        count=len(ordered),
    )


def _greedy_eager(
    pool: list[str],
    instance: DiversificationInstance,
    budget: int,
    rng: np.random.Generator | None,
) -> SelectionResult:
    """Paper-faithful Algorithm 1 with explicit marg_{u,U} updates."""
    groups = instance.groups
    state = CoverageState(instance)
    # Line 2: initial marginal contribution of every candidate.
    marg: dict[str, Weight] = {u: state.marginal_gain(u) for u in pool}
    remaining = set(pool)
    gains: list[Weight] = []

    for _ in range(budget):
        if not remaining:  # Line 4: pool exhausted before the budget.
            break
        best = max(marg[u] for u in remaining)
        tied = [u for u in remaining if marg[u] == best]
        chosen = _pick_tie(tied, rng)  # Line 5 (+ tie policy).
        remaining.discard(chosen)  # Line 6.
        gains.append(state.add(chosen))
        # Lines 7-10: for every group the pick exhausted, its weight no
        # longer counts toward co-members' marginal contributions.
        for key in state.last_exhausted():
            weight = instance.wei[key]
            for member in groups.group(key).members:
                if member in remaining:
                    marg[member] -= weight

    return SelectionResult(
        selected=tuple(state.selected),
        score=state.score,
        gains=tuple(gains),
        instance=instance,
    )


def _greedy_lazy(
    pool: list[str],
    instance: DiversificationInstance,
    budget: int,
    rng: np.random.Generator | None,
) -> SelectionResult:
    """Lazy-greedy: heap of stale upper bounds, refreshed on pop.

    Heap priorities are exact ``(-gain, user_id)`` tuples (Python ints
    for EBS weights never pass through float, which would overflow for
    ``(B+1)^rank``).  Because marginal gains only shrink as the subset
    grows (submodularity), a stored priority is a lower bound of the true
    one; a popped entry whose refreshed priority equals its stored
    priority is therefore the global maximum — with ties resolved by
    user id, *exactly* like the eager implementation, so both methods
    select identical sequences when ``rng`` is None.
    """
    state = CoverageState(instance)
    heap: list[tuple[Weight, str]] = [
        (-state.marginal_gain(user_id), user_id) for user_id in pool
    ]
    heapq.heapify(heap)

    gains: list[Weight] = []
    while heap and len(state.selected) < budget:
        stored, user_id = heapq.heappop(heap)
        fresh = state.marginal_gain(user_id)
        if -fresh != stored:
            # Stale: re-insert with the exact current priority.
            heapq.heappush(heap, (-fresh, user_id))
            continue
        if rng is not None:
            # Randomized tie-breaking: gather every fresh candidate tied
            # on gain, pick uniformly, push the rest back.
            tied = [user_id]
            while heap and heap[0][0] == stored:
                other_priority, other = heapq.heappop(heap)
                other_fresh = state.marginal_gain(other)
                if -other_fresh == stored:
                    tied.append(other)
                else:
                    heapq.heappush(heap, (-other_fresh, other))
            chosen = tied[int(rng.integers(len(tied)))]
            for loser in tied:
                if loser != chosen:
                    heapq.heappush(heap, (stored, loser))
            gains.append(state.add(chosen))
            continue
        gains.append(state.add(user_id))

    return SelectionResult(
        selected=tuple(state.selected),
        score=state.score,
        gains=tuple(gains),
        instance=instance,
    )


#: Backends that run the vectorized kernel (with an exact lazy fallback
#: when the instance's weights do not fit int64).
_ARRAY_METHODS = ("matrix", "sharded", "stochastic")


def _greedy_kernel(
    index: InstanceIndex,
    slots: range | np.ndarray,
    budget: int,
    rng: np.random.Generator | None = None,
    *,
    sample_size: int | None = None,
    sample_rng: np.random.Generator | None = None,
    remaining: np.ndarray | None = None,
    gate=None,
) -> tuple[list[int], list[Weight], int]:
    """The eager recurrence every array selection path runs on.

    Candidates' marginal gains live in one int64 vector: picking is an
    ``argmax`` and exhausted-group propagation is one unbuffered
    scatter-subtract through the CSR incidence.

    ``slots`` holds the candidates' dense rows in ascending user-id
    order, so the first ``argmax`` is the minimal tied id — the eager
    tie-break.  A slot of ``-1`` is a candidate the index does not know:
    it sits in no group, keeps gain 0 and is picked in the zero-gain
    tail at its id position.  Gains live in ``n + 1`` cells: the last is
    a sink that every row outside the pool maps to, so one slot map
    (``slot_of``) serves the exhausted-group drop and the gate alike.  A
    contiguous pool is passed as a ``range`` and maps a row by a shift
    and a clamp, with no ``arange`` and no O(|U|) map — on a
    memory-mapped index the full-pool select and each streaming shard
    touch only their own rows; any other pool maps through one
    dense-to-slot array.

    ``sample_size`` restricts each step to a uniform ``sample_rng``
    sample of that many feasible candidates (stochastic greedy); a
    sample covering them all degenerates to the exact argmax, so
    ``sample_size >= len(slots)`` reproduces the deterministic picks for
    any ``sample_rng``.  Otherwise ``rng`` breaks gain ties uniformly.

    ``remaining`` is the starting per-group coverage still required
    (default ``cov``); gains are then conditioned on whatever selection
    consumed the rest.  ``gate`` is called once as ``gate(slot_of, n)``
    and must return an object whose ``feasible(active, picked)`` gives
    the mask of slots allowed for the next pick and whose
    ``update(touched)`` records the dense groups of each pick;
    ``slot_of(dense_rows)`` returns every row's slot, ``n`` (the sink)
    for a row outside the pool.  The loop stops early when
    no candidate is feasible.  Without a gate, ``rng`` or sampling it
    also stops once the best gain is 0 and fills the rest of the budget
    with the active slots in id order — the picks the argmax would
    make one by one, without its O(n) pass per pick.

    Returns ``(picks, gains, score)``; picks are positions in ``slots``.
    """
    assert index.wei is not None and index.initial_gains is not None
    contiguous = isinstance(slots, range)
    if remaining is None:
        base = index.initial_gains
        remaining = index.cov
    else:
        live = np.where(remaining > 0, index.wei, 0)
        base = _segment_sums(live[index.u_indices], index.u_indptr)
    remaining = np.array(remaining, dtype=np.int64)
    if contiguous:
        lo, n = slots.start, len(slots)
        cells = np.zeros(n + 1, dtype=np.int64)
        cells[:n] = base[lo:lo + n]

        def slot_of(rows: np.ndarray) -> np.ndarray:
            # Rows below ``lo`` go negative, which the unsigned view
            # turns huge: one clamp sends them, and rows past the
            # range, to the sink.  Every result lies in ``[0, n]``.
            shifted = rows - lo
            unsigned = shifted.view(f"u{shifted.itemsize}")
            np.minimum(unsigned, n, out=unsigned)
            return shifted

    else:
        slots = np.asarray(slots, dtype=np.int64)
        n = slots.size
        known = slots >= 0
        cells = np.zeros(n + 1, dtype=np.int64)
        cells[:n][known] = base[slots[known]]
        to_slot = np.full(index.n_users, n, dtype=np.int64)
        to_slot[slots[known]] = np.flatnonzero(known)
        slot_of = to_slot.__getitem__

    gain = cells[:n]
    check = gate(slot_of, n) if gate is not None else None
    active = np.ones(n, dtype=bool)
    picks: list[int] = []
    gains: list[Weight] = []
    score = 0
    for _ in range(budget):
        feasible = (
            active if check is None else check.feasible(active, len(picks))
        )
        if not feasible.any():
            break
        if sample_size is not None:
            candidates = np.flatnonzero(feasible)
            if sample_size < candidates.size:
                assert sample_rng is not None
                pick = sample_rng.choice(
                    candidates.size, size=sample_size, replace=False
                )
                # Sorted sample keeps argmax ties on the minimal user id.
                candidates = candidates[np.sort(pick)]
            slot = int(candidates[int(np.argmax(gain[candidates]))])
        else:
            masked = np.where(feasible, gain, np.int64(-1))
            if rng is None:
                slot = int(np.argmax(masked))
                if check is None and masked[slot] == 0:
                    # Saturated: gains never rise, so every later pick is
                    # the next active slot in id order, at gain 0.
                    tail = np.flatnonzero(active)[: budget - len(picks)]
                    picks.extend(tail.tolist())
                    gains.extend([0] * tail.size)
                    break
            else:
                tied = np.flatnonzero(masked == masked.max())
                slot = int(tied[int(rng.integers(tied.size))])
        realized = int(gain[slot])
        active[slot] = False
        picks.append(slot)
        gains.append(realized)
        score += realized

        row = lo + slot if contiguous else int(slots[slot])
        if row < 0:
            continue
        touched = np.asarray(index.groups_of_row(row), dtype=np.int64)
        if check is not None:
            check.update(touched)
        hit = touched[remaining[touched] > 0]
        remaining[hit] -= 1
        exhausted = hit[remaining[hit] == 0]
        if exhausted.size:
            np.subtract.at(
                cells,
                slot_of(index.members_of_rows(exhausted)),
                np.repeat(index.wei[exhausted], index.row_sizes(exhausted)),
            )

    return picks, gains, score


def _sampling(
    n: int,
    budget: int,
    rng: np.random.Generator | None,
    epsilon: float,
    sample_ratio: float | None,
) -> dict:
    """Stochastic-greedy kernel arguments for a pool of ``n`` candidates.

    The per-step sample size is ``⌈(n/B)·ln(1/ε)⌉`` (or
    ``⌈sample_ratio·n⌉``), clamped to ``[1, n]``.  ``rng`` drives the
    sampling; without one a seed-0 generator keeps runs reproducible by
    default.
    """
    if sample_ratio is not None:
        if not 0.0 < sample_ratio <= 1.0:
            raise PodiumError(
                f"sample_ratio must lie in (0, 1], got {sample_ratio}"
            )
        size = math.ceil(sample_ratio * n)
    else:
        if not 0.0 < epsilon < 1.0:
            raise PodiumError(f"epsilon must lie in (0, 1), got {epsilon}")
        size = math.ceil((n / budget) * math.log(1.0 / epsilon))
    return {
        "sample_size": max(1, min(size, n)),
        "sample_rng": rng if rng is not None else np.random.default_rng(0),
    }


def _shard_positions(
    n: int, shards: int, shard_seed: int
) -> list[np.ndarray]:
    """Deterministically partition ``n`` sorted candidates into shards.

    A seeded permutation deals positions round-robin so shard sizes
    differ by at most one and shard composition is independent of the
    original clustering of ids — the random partition GreeDi's analysis
    assumes.  Each shard's positions are ascending, so a shard of a
    sorted pool is itself sorted.
    """
    if shards < 1:
        raise PodiumError(f"shards must be >= 1, got {shards}")
    shards = min(shards, n) or 1
    perm = np.random.default_rng(shard_seed).permutation(n)
    return [np.sort(perm[i::shards]) for i in range(shards)]


def _shard_union(
    index: InstanceIndex,
    slots: np.ndarray,
    budget: int,
    shards: int,
    jobs: int | None,
    shard_seed: int,
) -> np.ndarray:
    """GreeDi round 1: ascending slot positions of every shard's winners.

    Each shard over-returns up to 2B winners (its B-budget sequence is
    the prefix, so ``shards=1`` exactness is unaffected): the richer
    union measurably lifts the merge round's quality for a ~2x round-1
    cost.  Shard solves are deterministic, so forking them over ``jobs``
    workers changes nothing but wall-clock time.
    """

    def solve(part: np.ndarray) -> np.ndarray:
        picks, _gains, _score = _greedy_kernel(index, slots[part], 2 * budget)
        return part[picks]

    parts = _shard_positions(len(slots), shards, shard_seed)
    return np.unique(np.concatenate(solve_shards(solve, parts, jobs=jobs)))


def _candidate_slots(
    index: InstanceIndex, candidates: list[str] | None
) -> range | np.ndarray:
    """Ascending dense rows of ``candidates``; ids not indexed are dropped.

    ``None`` means every row, as a ``range``: the kernel then builds no
    per-user Python object, so a memory-mapped index decodes only the
    winners' ids (``list(index.users)`` would materialize every id
    string — at 5M users most of the out-of-core RSS budget).  Dense ids
    ascend with user ids, so sorted rows are in id order.
    """
    if candidates is None:
        return range(index.n_users)
    rows = (index.user_pos.get(u) for u in set(candidates))
    return np.asarray(
        sorted(r for r in rows if r is not None), dtype=np.int64
    )


def _select_slots(
    index: InstanceIndex,
    slots: range | np.ndarray,
    budget: int,
    method: str,
    rng: np.random.Generator | None,
    *,
    shards: int = 4,
    jobs: int | None = 1,
    shard_seed: int = 0,
    epsilon: float = 0.1,
    sample_ratio: float | None = None,
) -> tuple[list[int], list[Weight], int]:
    """Run one array backend over ``slots`` (see :func:`_greedy_kernel`).

    ``"sharded"`` is GreeDi's two rounds: :func:`_shard_union`, then one
    exact greedy over the union with ``rng`` breaking its ties.  With
    ``shards=1`` the union is greedy's own 2B-pick run, which re-picks
    its first B picks (each is still the max-gain, min-id candidate in
    any subset containing it), so the matrix selections are reproduced
    exactly.  Returns ``(picks, gains, score)`` with picks as positions
    in ``slots``.
    """
    if method == "matrix":
        return _greedy_kernel(index, slots, budget, rng)
    if method == "stochastic":
        return _greedy_kernel(
            index, slots, budget,
            **_sampling(len(slots), budget, rng, epsilon, sample_ratio),
        )
    if isinstance(slots, range):
        slots = np.arange(slots.start, slots.stop, dtype=np.int64)
    union = _shard_union(index, slots, budget, shards, jobs, shard_seed)
    picks, gains, score = _greedy_kernel(index, slots[union], budget, rng)
    return [int(union[p]) for p in picks], gains, score


def _greedy_lazy_sharded(
    pool: list[str],
    instance: DiversificationInstance,
    budget: int,
    rng: np.random.Generator | None,
    shards: int,
    jobs: int | None,
    shard_seed: int,
) -> SelectionResult:
    """GreeDi's two rounds on the exact lazy path (non-vectorizable)."""
    ordered = sorted(pool)
    pools = [
        [ordered[p] for p in part]
        for part in _shard_positions(len(ordered), shards, shard_seed)
    ]

    def solve(shard_pool: list[str]) -> list[str]:
        return list(
            _greedy_lazy(shard_pool, instance, 2 * budget, None).selected
        )

    shard_picks = solve_shards(solve, pools, jobs=jobs)
    union = sorted({u for picks in shard_picks for u in picks})
    return _greedy_lazy(union, instance, budget, rng)


def select_from_index(
    index: InstanceIndex,
    budget: int,
    method: str = "matrix",
    candidates: list[str] | None = None,
    rng: np.random.Generator | None = None,
    *,
    shards: int = 4,
    jobs: int | None = 1,
    shard_seed: int = 0,
    epsilon: float = 0.1,
    sample_ratio: float | None = None,
    instance: DiversificationInstance | None = None,
    constraints=None,
) -> SelectionResult:
    """Run a vectorized backend straight on an :class:`InstanceIndex`.

    This is the scale path's entry point: a columnar build (or a loaded
    ``.npz`` checkpoint) holds only the index, and selection should not
    force the dict-based instance into existence.  Only the array
    backends are available — the index must be :attr:`vectorizable`
    (columnar builds always are) — and the returned
    :class:`SelectionResult` carries ``instance=None`` unless the caller
    passes the dict-based ``instance`` the index encodes (the serving
    path does, so explanations can run on the result without the backend
    ever touching the dict structures).

    ``candidates`` defaults to every indexed user; ids the index does not
    know are ignored (they sit in no group, so they can never contribute).

    ``constraints`` accepts a
    :class:`~repro.constraints.ConstraintSpec`; a non-empty spec routes
    the call through :func:`~repro.constraints.constrained_select` (the
    fair or clustered solver, composed with the requested ``method``)
    and returns its underlying :class:`SelectionResult` — callers that
    need the per-bound satisfaction report call ``constrained_select``
    directly.
    """
    if budget < 1:
        raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
    if not index.vectorizable:
        raise PodiumError(
            "select_from_index requires a vectorizable index; big-int or "
            "non-integer weights need the dict-based greedy_select paths"
        )
    if constraints is not None and not constraints.is_empty:
        from ..constraints import constrained_select

        constrained = constrained_select(
            index,
            constraints,
            budget,
            method=method,
            candidates=candidates,
            rng=rng,
            shards=shards,
            jobs=jobs,
            shard_seed=shard_seed,
            epsilon=epsilon,
            sample_ratio=sample_ratio,
        )
        result = constrained.result
        if instance is not None:
            result = SelectionResult(
                selected=result.selected,
                score=result.score,
                gains=result.gains,
                instance=instance,
            )
        return result
    if method not in _ARRAY_METHODS:
        raise PodiumError(
            f"unknown index selection method {method!r}; use 'matrix', "
            f"'sharded' or 'stochastic'"
        )
    slots = _candidate_slots(index, candidates)
    picks, gains, score = _select_slots(
        index, slots, budget, method, rng,
        shards=shards, jobs=jobs, shard_seed=shard_seed,
        epsilon=epsilon, sample_ratio=sample_ratio,
    )
    return SelectionResult(
        selected=tuple(str(index.users[int(slots[p])]) for p in picks),
        score=score,
        gains=tuple(gains),
        instance=instance,
    )


def select_sharded_streaming(
    index: InstanceIndex,
    budget: int,
    *,
    shards: int = 4,
    jobs: int | None = 1,
    rng: np.random.Generator | None = None,
) -> SelectionResult:
    """GreeDi over contiguous row ranges of a (memory-mapped) index.

    The out-of-core twin of ``method="sharded"``: shards are row ranges
    ``[i·n/S, (i+1)·n/S)`` instead of a seeded permutation, so a forked
    worker touches only its own slice of the mapped CSR arrays (via
    :func:`~repro.core.sharding.solve_range_shards`, which re-opens the
    source checkpoint per worker when the index carries one).  Round 1
    returns each shard's 2B winners as compact ``(rows, gains)`` int64
    arrays — no id strings cross the process boundary; round 2 gathers
    the union into a small :meth:`InstanceIndex.take_rows` sub-index and
    runs the exact greedy on it.  Resident memory in the parent is
    O(union); in each worker, O(shard).

    Contiguous row ranges partition users by id order rather than
    randomly, so the GreeDi guarantee is the same worst case but the
    measured quality can differ from the permuted variant; the scale
    bench gates both against the 0.95 floor.  ``shards=1`` reproduces
    the matrix selections exactly: the union is greedy's own 2B-pick
    run, whose first B picks re-pick themselves (each is still the
    max-gain, min-id candidate in any subset containing it).
    """
    if budget < 1:
        raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
    if not index.vectorizable:
        raise PodiumError(
            "select_sharded_streaming requires a vectorizable index; "
            "big-int or non-integer weights need the dict-based "
            "greedy_select paths"
        )
    if shards < 1:
        raise PodiumError(f"shards must be >= 1, got {shards}")
    n = index.n_users
    shards = min(shards, n) or 1
    bounds = [
        (i * n // shards, (i + 1) * n // shards) for i in range(shards)
    ]
    shard_budget = 2 * budget

    def solve(
        shard_index: InstanceIndex, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        picks, row_gains, _ = _greedy_kernel(
            shard_index, range(lo, hi), shard_budget
        )
        return (
            np.asarray(picks, dtype=np.int64) + lo,
            np.asarray(row_gains, dtype=np.int64),
        )

    winners = solve_range_shards(solve, index, bounds, jobs=jobs)
    union_rows = np.unique(
        np.concatenate([rows for rows, _gains in winners])
        if winners
        else np.empty(0, dtype=np.int64)
    )
    sub = index.take_rows(union_rows)
    picked, gains, score = _greedy_kernel(
        sub, range(sub.n_users), budget, rng
    )
    return SelectionResult(
        selected=tuple(str(sub.users[r]) for r in picked),
        score=score,
        gains=tuple(gains),
        instance=None,
    )

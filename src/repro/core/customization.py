"""Customization of diversification results (paper §6).

A :class:`CustomizationFeedback` carries the four group subsets of
Def. 6.1: must-have (``G₊``), must-not (``G₋``), priority coverage
(``G_d``) and standard coverage (``G_d?``).  Groups in none of the latter
two are ignored for coverage.

Solving CUSTOM-DIVERSITY (Def. 6.3) follows the paper's Prop. 6.5 proof:

1. filter the repository down to the refined user set ``U'``;
2. rescale weights so priority groups lexicographically dominate:
   ``score~(U) = score_{G_d}(U) · MAX_SCORE + score_{G_d?}(U)`` with
   ``MAX_SCORE`` exceeding any achievable standard score — computed as an
   exact Python integer scale, so the lexicographic order is never broken
   by floating-point rounding;
3. run the unchanged greedy algorithm on the rescaled instance.

The rescaled score remains submodular, monotone and non-negative
(Lemma 6.6), so the (1 − 1/e) guarantee carries over.

Every array method (integer weights) does all three steps on the
cached :class:`~repro.core.index.InstanceIndex`: ``U'`` is a row mask,
and the rescaled weights are a copy of the index's ``wei`` with
priority groups scaled and ignored groups set to 0 — a zero-weight
group adds nothing to any gain, so dropping it and zeroing it select
alike.  The dict instance of step 2 (:func:`customized_instance`) and
its restricted index (:func:`customized_index`) serve explanations,
the dict path (eager/lazy, weights past int64) and the references.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections.abc import Container, Iterable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InfeasibleSelectionError,
    InvalidBudgetError,
    InvalidFeedbackError,
)
from .greedy import (
    _ARRAY_METHODS,
    SelectionResult,
    _id_slots,
    _select_slots,
    greedy_select,
)
from .groups import GroupKey, GroupSet
from .index import _INT64_MAX, InstanceIndex, attach_index, instance_index
from .instance import DiversificationInstance
from .profiles import UserRepository
from .scoring import subset_score
from .weights import Weight


@dataclass(frozen=True)
class CustomizationFeedback:
    """Def. 6.1 feedback: four group subsets steering the selection.

    ``priority`` and ``standard`` default to the paper defaults
    (``G_d = ∅``, ``G_d? = G``) when instantiated via
    :meth:`resolve_defaults`; a raw instance keeps ``standard=None`` to
    mean "everything not in priority".
    """

    must_have: frozenset[GroupKey] = frozenset()
    must_not: frozenset[GroupKey] = frozenset()
    priority: frozenset[GroupKey] = frozenset()
    standard: frozenset[GroupKey] | None = None

    @classmethod
    def none(cls) -> "CustomizationFeedback":
        """The empty feedback — CUSTOM-DIVERSITY degrades to BASE-DIVERSITY."""
        return cls()

    def validate(self, known: Container[GroupKey]) -> None:
        """Ensure every referenced group exists in ``known``.

        ``known`` is a :class:`GroupSet` or an index's ``group_pos``:
        both answer ``key in known`` by one dict lookup, so no key set
        is built per request.
        """
        for name, keys in (
            ("must_have", self.must_have),
            ("must_not", self.must_not),
            ("priority", self.priority),
            ("standard", self.standard or frozenset()),
        ):
            unknown = [k for k in keys if k not in known]
            if unknown:
                raise InvalidFeedbackError(
                    f"{name} references unknown groups: "
                    f"{[str(k) for k in unknown[:3]]}"
                )

    def resolve_standard(self, groups: GroupSet) -> frozenset[GroupKey]:
        """Concrete ``G_d?``: the stored set, or ``G − G_d`` by default."""
        if self.standard is not None:
            return self.standard
        return frozenset(groups.keys) - self.priority


def refine_users(
    repository: UserRepository,
    groups: GroupSet,
    feedback: CustomizationFeedback,
) -> list[str]:
    """Compute the refined user set ``U'`` of Def. 6.3.

    For every property with at least one must-have bucket, a user must
    belong to *some* must-have bucket of that property (the paper's
    contradiction-avoidance rule); and a user must belong to no must-not
    group.  The rule itself lives in
    :mod:`repro.constraints.feasibility`, shared with the fair solver's
    floor/ceiling eligibility checks.
    """
    from ..constraints.feasibility import (
        eligible_user_filter,
        keys_by_property,
    )

    feedback.validate(groups)
    must_have_by_property = {
        label: set(keys)
        for label, keys in keys_by_property(feedback.must_have).items()
    }
    return [
        user_id
        for user_id in repository.user_ids
        if eligible_user_filter(
            groups.groups_of(user_id),
            feedback.must_not,
            must_have_by_property,
        )
    ]


def _refine_mask_index(
    index: InstanceIndex, feedback: CustomizationFeedback
) -> np.ndarray:
    """Refined user set ``U'`` as a boolean mask over dense rows.

    Must-not groups clear their members' bits with one row gather; each
    must-have property sets an "in some must-have bucket" mask the same
    way and AND-s it in.  Pure array work: no id string is decoded, so
    a memory-mapped index refines without touching its lazy id
    sequence.  Delegates to the shared
    :func:`repro.constraints.feasibility.eligibility_mask`, the same
    helper the fair solver's hard exclusions run on.
    """
    from ..constraints.feasibility import eligibility_mask, keys_by_property

    return eligibility_mask(
        index,
        forbidden=feedback.must_not,
        required_by_property=keys_by_property(feedback.must_have),
    )


def _exact_weight(weight: Weight) -> int | Fraction:
    """Lift a weight into exact arithmetic (floats become exact binary
    rationals, so no information is invented or lost)."""
    if isinstance(weight, int) and not isinstance(weight, bool):
        return weight
    if isinstance(weight, Fraction):
        return weight
    return Fraction(weight)


def _integer_weight_scale(
    standard_max: Weight, priority_weights: Iterable[Weight] = ()
) -> int:
    """An exact integer scale enforcing lexicographic priority dominance.

    With integer weights any positive priority-score difference is >= 1,
    so ``floor(standard_max) + 1`` suffices.  With non-integer weights
    the smallest positive difference between two priority scores is
    ``1/D`` where ``D`` is the lcm of the (exact rational) priority
    weights' denominators, so the scale is multiplied by ``D`` — the
    pre-scaling that keeps ``scale · Δpriority > standard_max`` exact
    instead of trusting float rounding.
    """
    denominator = 1
    for weight in priority_weights:
        exact = _exact_weight(weight)
        if isinstance(exact, Fraction):
            denominator = math.lcm(denominator, exact.denominator)
    if isinstance(standard_max, int):
        base = standard_max + 1
    else:
        base = math.floor(_exact_weight(standard_max)) + 1
    return base * denominator


def _exact_standard_max(
    instance: DiversificationInstance, standard: frozenset[GroupKey]
) -> Weight:
    """``Σ_{G in G_d?} wei(G)·cov(G)`` in exact arithmetic."""
    total: int | Fraction = 0
    for key in standard:
        total += _exact_weight(instance.wei[key]) * instance.cov[key]
    return total


def customized_instance(
    instance: DiversificationInstance,
    feedback: CustomizationFeedback,
) -> DiversificationInstance:
    """Rescale ``instance`` so priority groups dominate lexicographically.

    Groups outside ``G_d ∪ G_d?`` are dropped entirely (their coverage is
    ignored per Def. 6.1); priority groups get their weight multiplied by
    ``MAX_SCORE``, an integer exceeding the best achievable standard
    score ``Σ_{G in G_d?} wei(G)·cov(G)``.

    All arithmetic is exact: integer weights stay integers (the common
    LBS/Iden/EBS case), while float weights are lifted into
    :class:`~fractions.Fraction` and the scale absorbs their common
    denominator, so the lexicographic order survives even adversarially
    close scores that float multiplication would collapse.
    """
    feedback.validate(instance.groups)
    standard = feedback.resolve_standard(instance.groups)
    active = feedback.priority | standard
    restricted = instance.restricted_to_groups(active)

    standard_max = _exact_standard_max(instance, standard)
    all_int = all(
        isinstance(instance.wei[k], int)
        and not isinstance(instance.wei[k], bool)
        for k in restricted.groups.keys
    )
    if all_int:
        scale = _integer_weight_scale(standard_max)
        wei: dict[GroupKey, Weight] = {
            key: (
                instance.wei[key] * scale
                if key in feedback.priority
                else instance.wei[key]
            )
            for key in restricted.groups.keys
        }
    else:
        scale = _integer_weight_scale(
            standard_max,
            (instance.wei[k] for k in feedback.priority),
        )
        wei = {
            key: (
                _exact_weight(instance.wei[key]) * scale
                if key in feedback.priority
                else _exact_weight(instance.wei[key])
            )
            for key in restricted.groups.keys
        }
    return DiversificationInstance(
        groups=restricted.groups,
        wei=wei,
        cov=dict(restricted.cov),
        budget=instance.budget,
        population_size=instance.population_size,
    )


def customized_index(
    instance: DiversificationInstance,
    feedback: CustomizationFeedback,
) -> InstanceIndex | None:
    """Build the rescaled instance's sparse index by pure array ops.

    Rather than re-encoding the rescaled dict instance from scratch, the
    active groups are sliced out of the base instance's cached index and
    the priority rows' weights multiplied by the exact integer scale —
    the same numbers :func:`customized_instance` materializes, so matrix
    selections over the derived index match the eager path bit for bit.
    Returns ``None`` when the base index is not vectorizable (EBS
    big-ints, float weights); callers then fall back to the dict path.
    """
    index = instance_index(instance)
    if not index.vectorizable:
        return None
    assert index.wei is not None
    standard = feedback.resolve_standard(instance.groups)
    active_keys = feedback.priority | standard
    active = np.fromiter(
        sorted(index.group_pos[k] for k in active_keys),
        dtype=np.int64,
        count=len(active_keys),
    )
    standard_max = sum(
        int(index.wei[index.group_pos[k]]) * int(instance.cov[k])
        for k in standard
    )
    scale = _integer_weight_scale(standard_max)
    priority_ids = {index.group_pos[k] for k in feedback.priority}
    weights = [
        int(index.wei[g]) * (scale if int(g) in priority_ids else 1)
        for g in active
    ]
    return index.restricted_scaled(active, weights)


@dataclass(frozen=True)
class CustomSelectionResult:
    """Outcome of a CUSTOM-DIVERSITY run with per-tier scores.

    ``priority_score`` and ``standard_score`` report ``score_{G_d}`` and
    ``score_{G_d?}`` separately (the lexicographic components), alongside
    the underlying :class:`SelectionResult` on the rescaled instance.
    """

    result: SelectionResult
    feedback: CustomizationFeedback
    refined_pool_size: int
    priority_score: Weight
    standard_score: Weight

    @property
    def selected(self) -> tuple[str, ...]:
        return self.result.selected

    def explainable(
        self, instance: DiversificationInstance
    ) -> SelectionResult:
        """The selection carrying the rescaled instance it ran on.

        Explanations read ``result.instance``.  The dense-row path
        leaves it ``None``, so this builds the rescaled dict instance
        of the base ``instance`` (:func:`customized_instance`, with
        :func:`customized_index` attached) only when one is asked for.
        """
        if self.result.instance is not None:
            return self.result
        rescaled = customized_instance(instance, self.feedback)
        derived = customized_index(instance, self.feedback)
        if derived is not None:
            attach_index(rescaled, derived)
        return dataclasses.replace(self.result, instance=rescaled)


def custom_select(
    repository: UserRepository,
    instance: DiversificationInstance,
    feedback: CustomizationFeedback,
    budget: int | None = None,
    method: str = "matrix",
    rng: np.random.Generator | None = None,
) -> CustomSelectionResult:
    """Solve CUSTOM-DIVERSITY greedily (Prop. 6.5).

    The array methods (``matrix``, ``sharded``, ``stochastic``) run the
    whole pipeline on the sparse index when the instance is
    vectorizable (:func:`_custom_select_rows`): the refined pool ``U'``
    is a boolean mask over the CSR incidence and the rescaled weights
    are written into a copy of the base index's ``wei``
    (:func:`_rescaled_index`), so no dict instance and no CSR rebuild
    happens per request; the result's ``instance`` is then ``None``
    (see :meth:`CustomSelectionResult.explainable`).  ``eager``,
    ``lazy``, non-vectorizable instances and rescaled weights past int64
    take the dict path: :func:`refine_users`, :func:`customized_instance`
    and :func:`greedy_select`, with the tier scores :func:`subset_score`
    over the restricted instance.  Selections are identical to
    ``method="eager"`` for every feedback.

    Raises :class:`InfeasibleSelectionError` when the must-have/must-not
    filters eliminate every candidate.
    """
    if method in _ARRAY_METHODS:
        base_index = instance_index(instance)
        if base_index.vectorizable:
            rows = _custom_select_rows(
                repository, instance, base_index, feedback, budget, rng,
                method,
            )
            if rows is not None:
                return rows
    pool = refine_users(repository, instance.groups, feedback)
    if not pool:
        raise InfeasibleSelectionError(
            "customization feedback filtered out every user"
        )
    rescaled = customized_instance(instance, feedback)
    if method in _ARRAY_METHODS:
        derived = customized_index(instance, feedback)
        if derived is not None:
            # Rescaled weights past int64: the derived index (not
            # vectorizable) spares greedy_select a dict re-encode before
            # its exact lazy fallback.
            attach_index(rescaled, derived)
    result = greedy_select(
        repository,
        rescaled,
        budget=budget,
        candidates=pool,
        method=method,
        rng=rng,
    )

    def tier_score(keys: frozenset[GroupKey]) -> Weight:
        return subset_score(
            instance.restricted_to_groups(keys), result.selected
        )

    return CustomSelectionResult(
        result=result,
        feedback=feedback,
        refined_pool_size=len(pool),
        priority_score=tier_score(feedback.priority),
        standard_score=tier_score(feedback.resolve_standard(instance.groups)),
    )


def _tier_masks(
    index: InstanceIndex, feedback: CustomizationFeedback
) -> tuple[np.ndarray, np.ndarray]:
    """``G_d`` and ``G_d?`` as boolean masks over the dense groups.

    Validates every feedback key through ``group_pos`` first, raising
    the same :class:`InvalidFeedbackError` as a check against the group
    set.  The default ``G_d? = G − G_d`` is the priority mask's
    complement.
    """
    feedback.validate(index.group_pos)
    pos = index.group_pos
    priority = np.zeros(index.n_groups, dtype=bool)
    priority[[pos[k] for k in feedback.priority]] = True
    if feedback.standard is None:
        return priority, ~priority
    standard = np.zeros(index.n_groups, dtype=bool)
    standard[[pos[k] for k in feedback.standard]] = True
    return priority, standard


def _rescaled_index(
    index: InstanceIndex, priority: np.ndarray, standard: np.ndarray
) -> InstanceIndex | None:
    """The rescaled instance's index (Prop. 6.5) on the base's own arrays.

    Priority weights are multiplied by the exact integer scale of
    :func:`customized_instance`; groups outside ``G_d ∪ G_d?`` get
    weight 0 instead of being dropped.  A zero-weight group adds 0 to
    every gain, so greedy picks, gains and score equal those over
    :func:`customized_index`'s restricted index.  Only ``wei`` and
    ``initial_gains`` are new: the CSR arrays, ``cov``, ``users`` and
    ``group_pos`` are the base index's, which is never mutated.

    The changed groups (priority and inactive) are the only ones
    touched: the new mass ``Σ wei'·|G|`` is the base mass plus their
    exact Python-int difference, and the initial gains are the base
    gains plus one scatter of ``wei' − wei`` over their members.  The
    scatter never visits more than the nnz incidence entries a full
    segment sum would, and costs less per entry (20k users, 500k
    entries, 2-core x86 host: 3.3 ms with every group changed, against
    9 ms).  Returns ``None`` when a rescaled weight or the mass leaves
    int64; the caller then takes the exact dict path.
    """
    assert index.wei is not None and index.initial_gains is not None
    wei = index.wei
    # Σ_{G_d?} wei·cov over Python ints: exact however large.
    standard_max = sum(
        map(operator.mul, wei[standard].tolist(), index.cov[standard].tolist())
    )
    scale = _integer_weight_scale(standard_max)
    changed = np.flatnonzero(priority | ~standard)
    sizes = index.row_sizes(changed)
    old = wei[changed].tolist()
    new = [
        w * scale if p else 0
        for w, p in zip(old, priority[changed].tolist())
    ]
    # Weights are positive and the base index is vectorizable, so every
    # partial sum of the base mass Σ wei·|G| fits int64: the dot is exact.
    mass = int(wei @ np.diff(index.g_indptr)) + sum(
        (n - o) * s for n, o, s in zip(new, old, sizes.tolist())
    )
    if mass > _INT64_MAX or max(new, default=0) > _INT64_MAX:
        return None
    rescaled = np.array(wei, dtype=np.int64)
    rescaled[changed] = new
    gains = np.array(index.initial_gains, dtype=np.int64)
    np.add.at(
        gains,
        index.members_of_rows(changed),
        np.repeat(rescaled[changed] - wei[changed], sizes),
    )
    return dataclasses.replace(index, wei=rescaled, initial_gains=gains)


def _custom_select_rows(
    repository: UserRepository,
    instance: DiversificationInstance,
    base_index: InstanceIndex,
    feedback: CustomizationFeedback,
    budget: int | None,
    rng: np.random.Generator | None,
    method: str = "matrix",
) -> CustomSelectionResult | None:
    """CUSTOM-DIVERSITY on dense rows, for every array ``method``.

    Works from the base index's arrays alone: the refined pool is a row
    mask (:func:`_refine_mask_index`), the rescaled weights are
    :func:`_rescaled_index`, and the tier scores are masked gathers over
    one ``row_hits`` of the winners — O(|G|) array work plus the greedy
    kernel, with no dict instance and no CSR rebuild.  The result
    carries ``instance=None`` (the :func:`select_from_index`
    convention); :meth:`CustomSelectionResult.explainable` builds the
    rescaled dict instance when an explanation needs it.

    A fully indexed repository selects over its eligible rows, which
    ascend in user-id order (the index invariant), so no id is decoded
    but the winners'.  Otherwise the repository's ids, in ascending
    order, map to rows as :func:`greedy_select` maps them: a user in no
    group gets slot ``-1``, is eligible exactly when there is no
    must-have, and can only fill the zero-gain tail.  Either way the
    kernel runs the pool :func:`refine_users` yields, over weights equal
    to :func:`customized_instance`'s.  Returns ``None`` when the
    rescaled weights do not fit int64 — the caller falls back to the
    exact dict path.
    """
    budget = instance.budget if budget is None else budget
    if budget < 1:
        raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
    priority, standard = _tier_masks(base_index, feedback)
    eligible = _refine_mask_index(base_index, feedback)
    if base_index.n_users == len(repository):
        ids = base_index.users
        slots = positions = np.flatnonzero(eligible)
    else:
        ids = sorted(repository.user_ids)
        rows = _id_slots(base_index, ids)
        # Slot -1 reads the appended cell: a user in no group.
        positions = np.flatnonzero(
            np.append(eligible, not feedback.must_have)[rows]
        )
        slots = rows[positions]
    if not slots.size:
        raise InfeasibleSelectionError(
            "customization feedback filtered out every user"
        )
    derived = _rescaled_index(base_index, priority, standard)
    if derived is None:
        return None
    picks, gains, score = _select_slots(derived, slots, budget, method, rng)
    picked = slots[picks]
    assert base_index.wei is not None
    group_scores = base_index.wei * np.minimum(
        base_index.row_hits(picked[picked >= 0]), base_index.cov
    )
    return CustomSelectionResult(
        result=SelectionResult(
            selected=tuple(str(ids[positions[p]]) for p in picks),
            score=score,
            gains=tuple(gains),
        ),
        feedback=feedback,
        refined_pool_size=int(slots.size),
        priority_score=int(group_scores[priority].sum()),
        standard_score=int(group_scores[standard].sum()),
    )


def feedback_group_coverage(
    instance: DiversificationInstance,
    feedback: CustomizationFeedback,
    selected: Iterable[str],
) -> float:
    """Fraction of priority groups covered by ``selected`` (Fig. 4 metric).

    Hit counts are gathered at the priority groups' dense ids off the
    cached CSR index — one segment sum, no membership-set intersection.
    """
    if not feedback.priority:
        return 1.0
    index = instance_index(instance)
    hits = index.selection_hits(selected)
    ids = np.fromiter(
        (index.group_pos[k] for k in feedback.priority),
        dtype=np.int64,
        count=len(feedback.priority),
    )
    required = np.fromiter(
        (int(instance.cov[k]) for k in feedback.priority),
        dtype=np.int64,
        count=len(feedback.priority),
    )
    covered = int(np.count_nonzero(hits[ids] >= required))
    return covered / len(feedback.priority)

"""Stratified-sampling baseline (paper §2 / Table 1, survey methodology).

Surveyors define a *small* set of non-overlapping strata and sample each
proportionally (Def. 2.1).  To emulate that practice on a profile
repository, this selector:

1. picks the single highest-support property as the stratification
   variable (surveys stratify on one or two demographics);
2. forms strata from its buckets plus an "unknown" stratum for users
   lacking the property — non-overlapping by construction;
3. allocates the budget to strata by largest-remainder proportional
   apportionment and samples uniformly within each stratum.

Included to make Table 1's comparison executable: stratified sampling is
coverage-based, intrinsic and explainable, but cannot exploit more than a
handful of dimensions — which is exactly where Podium's relaxed coverage
objective takes over.

Users are assigned to strata with one ``searchsorted``; the per-user
``Bucket.contains`` loop it replaced is the parity oracle in
``tests/oracles/baselines.py`` (identical strata, hence identical seeded
draws).
"""

from __future__ import annotations

import numpy as np

from ..core.buckets import assign_bucket_indices, split_scores
from ..core.errors import InvalidBudgetError
from ..core.instance import DiversificationInstance
from ..core.profiles import UserRepository
from .base import Selector


def proportional_apportionment(
    sizes: list[int], budget: int
) -> list[int]:
    """Largest-remainder (Hamilton) apportionment of ``budget`` seats.

    Strata with zero members get zero seats; each non-empty stratum's
    seats never exceed its size (seats lost to that cap are re-assigned
    by largest remainder among strata with spare capacity).
    """
    if budget < 0:
        raise InvalidBudgetError(f"budget must be >= 0, got {budget}")
    total = sum(sizes)
    if total == 0 or budget == 0:
        return [0] * len(sizes)
    budget = min(budget, total)
    quotas = [budget * size / total for size in sizes]
    seats = [min(int(q), size) for q, size in zip(quotas, sizes)]
    while sum(seats) < budget:
        remainders = [
            (quotas[i] - seats[i]) if seats[i] < sizes[i] else -1.0
            for i in range(len(sizes))
        ]
        best = int(np.argmax(remainders))
        if remainders[best] < 0:
            break
        seats[best] += 1
    return seats


class StratifiedSelector(Selector):
    """Single-variable proportional stratified sampling."""

    name = "Stratified"

    def __init__(self, strata_buckets: int = 3) -> None:
        self._strata_buckets = strata_buckets

    def _stratify(
        self, repository: UserRepository
    ) -> list[list[str]]:
        """Partition users into strata.

        Every carrier is assigned to its bucket with one ``searchsorted``
        (first-containing-bucket fallback when the partition does not
        tile ``[0, 1]``), walking ``scores_for`` order — the strata, and
        therefore the rng draws in :meth:`select`, equal the per-user
        loop of ``tests/oracles/baselines.py``.
        """
        if not repository.property_labels:
            return [repository.user_ids]
        variable = max(repository.property_labels, key=repository.support)
        user_ids, scores = repository.scores_for(variable)
        scores = np.asarray(scores)
        buckets = split_scores(
            scores, k=self._strata_buckets, strategy="quantile"
        )
        assignment = assign_bucket_indices(buckets, scores)
        if assignment is None:
            assignment = np.full(len(scores), -1, dtype=np.int64)
            for position, bucket in enumerate(buckets):
                if bucket.closed_hi:
                    mask = (scores >= bucket.lo) & (scores <= bucket.hi)
                else:
                    mask = (scores >= bucket.lo) & (scores < bucket.hi)
                assignment[mask & (assignment < 0)] = position
        ids = np.asarray(user_ids, dtype=object)
        strata = [
            list(ids[assignment == position])
            for position in range(len(buckets))
        ]
        carriers = set(user_ids)
        unknown = [u for u in repository.user_ids if u not in carriers]
        if unknown:
            strata.append(unknown)
        return [s for s in strata if s]

    def select(
        self,
        repository: UserRepository,
        instance: DiversificationInstance,
        budget: int,
        rng: np.random.Generator | None = None,
    ) -> list[str]:
        if budget < 1:
            raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
        rng = rng or np.random.default_rng()
        strata = self._stratify(repository)
        seats = proportional_apportionment(
            [len(s) for s in strata], budget
        )
        selected: list[str] = []
        for stratum, count in zip(strata, seats):
            if count == 0:
                continue
            picked = rng.choice(len(stratum), size=count, replace=False)
            selected.extend(stratum[int(i)] for i in picked)
        return selected

"""Distance-based diversification baseline — the S-Model (paper §8.3).

Represents the distance-based family ([Wu et al. 2015] S-Model): greedily
grow a subset maximizing pairwise Jaccard *distances* between the selected
users' property sets.  Two objectives are provided:

* ``"sum"`` (default) — each step adds the user with the largest summed
  distance to the current subset (max-sum dispersion greedy);
* ``"min"`` — each step adds the user maximizing the minimum distance to
  the subset (max-min dispersion greedy).

As the paper observes (§8.4), this family explicitly avoids property
overlap between the selected users — which is precisely why it under-
covers complex (intersection) groups relative to Podium.

The pairwise arithmetic runs through the user × property incidence
matrix of :func:`~repro.core.index.property_incidence`: each greedy step
updates the whole distance vector with one matrix–vector product
(``incidence @ incidence[chosen]`` gives every ``|P_u ∩ P_chosen|`` at
once) instead of one Python set intersection per remaining user.  The
original per-pair ``frozenset`` loop is the parity oracle in
``tests/oracles/baselines.py``: both perform the identical IEEE-754
operations per candidate in the identical order (intersection and union
counts are exact integers in float64), so selections — including seeded
RNG tie-breaks — are byte-identical
(``tests/baselines/test_distance_parity.py``).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import InvalidBudgetError, PodiumError
from ..core.index import property_incidence
from ..core.instance import DiversificationInstance
from ..core.profiles import UserRepository
from .base import Selector


def jaccard_distance(a: frozenset[str], b: frozenset[str]) -> float:
    """1 − |A ∩ B| / |A ∪ B|; two empty sets have distance 0."""
    union = len(a | b)
    if union == 0:
        return 0.0
    return 1.0 - len(a & b) / union


def mean_pairwise_intersection(
    repository: UserRepository, user_ids: list[str]
) -> float:
    """Average ``|P_u ∩ P_v|`` over selected pairs (the §8.4 diagnostic:
    ~2 for distance-based versus tens for Podium on Yelp).

    Vectorized: the selected users' incidence rows are densified once and
    every pairwise count comes out of one Gram product ``A @ A.T``.
    """
    user_ids = list(user_ids)
    if len(user_ids) < 2:
        return 0.0
    subset = repository.subset(user_ids)
    _, incidence, _ = property_incidence(subset)
    gram = incidence @ incidence.T
    n = len(user_ids)
    upper = np.triu_indices(n, 1)
    return float(gram[upper].sum() / (n * (n - 1) / 2))


class DistanceSelector(Selector):
    """Greedy pairwise-Jaccard dispersion over user property sets."""

    name = "Distance"

    def __init__(self, objective: str = "sum") -> None:
        if objective not in ("sum", "min"):
            raise PodiumError(
                f"objective must be 'sum' or 'min', got {objective!r}"
            )
        self._objective = objective

    def select(
        self,
        repository: UserRepository,
        instance: DiversificationInstance,
        budget: int,
        rng: np.random.Generator | None = None,
    ) -> list[str]:
        if budget < 1:
            raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
        if not repository.user_ids:
            return []
        user_ids, incidence, sizes = property_incidence(repository)
        n = len(user_ids)

        # Seed with the user of the largest property set: the conventional
        # dispersion-greedy anchor (deterministic unless an rng is given).
        if rng is None:
            seed = max(range(n), key=lambda i: (int(sizes[i]), user_ids[i]))
        else:
            seed = int(rng.integers(n))

        remaining = np.ones(n, dtype=bool)
        remaining[seed] = False
        selected = [seed]

        def distances_to(chosen: int) -> np.ndarray:
            inter = incidence @ incidence[chosen]
            union = (sizes + int(sizes[chosen])) - inter
            with np.errstate(invalid="ignore", divide="ignore"):
                d = 1.0 - inter / union
            d[union == 0] = 0.0
            return d

        # Track each candidate's aggregate distance to the subset.
        agg = distances_to(seed)
        while remaining.any() and len(selected) < budget:
            best = float(agg[remaining].max())
            tied = np.flatnonzero(remaining & (agg == best))
            if rng is None:
                chosen = int(min(tied, key=lambda i: user_ids[i]))
            else:
                chosen = int(tied[int(rng.integers(len(tied)))])
            selected.append(chosen)
            remaining[chosen] = False
            d = distances_to(chosen)
            if self._objective == "sum":
                agg = agg + d
            else:
                agg = np.minimum(agg, d)
        return [user_ids[i] for i in selected]

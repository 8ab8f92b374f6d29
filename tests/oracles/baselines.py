"""Pure-Python references for the array-backed baselines.

* :func:`distance_select_oracle` is the per-pair ``frozenset`` loop of
  the distance (S-Model) greedy, and
  :func:`mean_pairwise_intersection_oracle` its §8.4 diagnostic — what
  the incidence-matrix arithmetic of :mod:`repro.baselines.distance`
  replaced.
* :func:`stratified_select_oracle` is the stratified baseline with the
  per-user, per-bucket ``Bucket.contains`` loop in place of the
  ``searchsorted`` assignment of :mod:`repro.baselines.stratified`.

The parity tests assert byte-identical selections, seeded rng draws
included.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.distance import jaccard_distance
from repro.baselines.stratified import proportional_apportionment
from repro.core.buckets import split_scores
from repro.core.profiles import UserRepository


def distance_select_oracle(
    repository: UserRepository,
    budget: int,
    rng: np.random.Generator | None = None,
    objective: str = "sum",
) -> list[str]:
    """Greedy Jaccard dispersion with one set intersection per pair."""
    user_ids = repository.user_ids
    if not user_ids:
        return []
    props = {u: repository.profile(u).properties for u in user_ids}

    if rng is None:
        seed = max(user_ids, key=lambda u: (len(props[u]), u))
    else:
        seed = user_ids[int(rng.integers(len(user_ids)))]
    # ``remaining`` keeps repository order so tie lists are ordered
    # identically to the vectorized dense ids (a plain set's iteration
    # order would vary with the interpreter's hash seed, making seeded
    # tie-breaks irreproducible across processes).
    remaining = [u for u in user_ids if u != seed]
    selected = [seed]

    agg = {
        u: jaccard_distance(props[u], props[seed]) for u in remaining
    }
    while remaining and len(selected) < budget:
        best = max(agg[u] for u in remaining)
        tied = [u for u in remaining if agg[u] == best]
        chosen = min(tied) if rng is None else tied[int(rng.integers(len(tied)))]
        selected.append(chosen)
        remaining.remove(chosen)
        for u in remaining:
            d = jaccard_distance(props[u], props[chosen])
            if objective == "sum":
                agg[u] += d
            else:
                agg[u] = min(agg[u], d)
    return selected


def mean_pairwise_intersection_oracle(
    repository: UserRepository, user_ids: list[str]
) -> float:
    """Average ``|P_u ∩ P_v|`` over selected pairs, pair by pair."""
    props = [repository.profile(u).properties for u in user_ids]
    if len(props) < 2:
        return 0.0
    total, pairs = 0, 0
    for i in range(len(props)):
        for j in range(i + 1, len(props)):
            total += len(props[i] & props[j])
            pairs += 1
    return total / pairs


def stratify_oracle(
    repository: UserRepository, strata_buckets: int = 3
) -> list[list[str]]:
    """Strata of the highest-support property, one user at a time."""
    if not repository.property_labels:
        return [repository.user_ids]
    variable = max(repository.property_labels, key=repository.support)
    user_ids, scores = repository.scores_for(variable)
    scores = np.asarray(scores)
    buckets = split_scores(scores, k=strata_buckets, strategy="quantile")
    strata = [[] for _ in buckets]
    carriers = set()
    for user_id, score in zip(user_ids, scores):
        carriers.add(user_id)
        for index, bucket in enumerate(buckets):
            if bucket.contains(float(score)):
                strata[index].append(user_id)
                break
    unknown = [u for u in repository.user_ids if u not in carriers]
    if unknown:
        strata.append(unknown)
    return [s for s in strata if s]


def stratified_select_oracle(
    repository: UserRepository,
    budget: int,
    rng: np.random.Generator,
    strata_buckets: int = 3,
) -> list[str]:
    """Proportional stratified sample over :func:`stratify_oracle`."""
    strata = stratify_oracle(repository, strata_buckets)
    seats = proportional_apportionment([len(s) for s in strata], budget)
    selected: list[str] = []
    for stratum, count in zip(strata, seats):
        if count == 0:
            continue
        picked = rng.choice(len(stratum), size=count, replace=False)
        selected.extend(stratum[int(i)] for i in picked)
    return selected

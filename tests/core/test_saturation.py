"""The kernel's saturation stop (``core/greedy.py``, ``_greedy_kernel``).

Once every feasible gain is 0 the deterministic kernel fills the rest
of the budget with the active candidates in id order instead of
running one ``argmax`` per pick.  These tests take budgets far past
that point and check every answer against the paper's eager
Algorithm 1 (``greedy_select(method="eager")``), including candidates
in no group, which the array path carries as ``-1`` slots.  A seeded
``rng`` must still draw the zero-gain tail at random.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GroupingConfig,
    build_instance,
    build_simple_groups,
    greedy_select,
    instance_index,
    select_from_index,
)
from repro.core.profiles import UserProfile, UserRepository
from repro.core.weights import (
    IdenWeights,
    LBSWeights,
    PropCoverage,
    SingleCoverage,
)
from repro.datasets.synth import generate_profile_repository

SCHEMES = [
    (weight, coverage)
    for weight in (IdenWeights, LBSWeights)
    for coverage in (SingleCoverage, PropCoverage)
]


def _triple(result):
    return result.selected, result.gains, result.score


def _repository(seed: int, groupless: int) -> UserRepository:
    """A synthetic corpus plus ``groupless`` users with empty profiles."""
    base = generate_profile_repository(
        n_users=40, n_properties=6, mean_profile_size=3.0, seed=seed
    )
    extra = [UserProfile(f"zz{i:02d}", {}) for i in range(groupless)]
    return UserRepository([*base, *extra])


def _instance(repo, budget, weight, coverage):
    return build_instance(
        repo,
        budget=budget,
        groups=build_simple_groups(repo, GroupingConfig()),
        weight_scheme=weight(),
        coverage_scheme=coverage(),
    )


def _saturation(result) -> int:
    """Number of positive-gain picks before the first zero gain."""
    return next(
        (i for i, gain in enumerate(result.gains) if gain == 0),
        len(result.gains),
    )


@pytest.mark.parametrize("weight,coverage", SCHEMES)
@pytest.mark.parametrize("seed", range(3))
def test_budgets_past_saturation_match_eager(weight, coverage, seed):
    repo = _repository(seed, groupless=5)
    n = len(repo)
    probe = _instance(repo, n, weight, coverage)
    saturated = _saturation(greedy_select(repo, probe, n, method="eager"))
    assert saturated < n  # the run does reach its zero-gain tail
    n_groups = len(probe.groups)
    for budget in sorted(
        {1, saturated, saturated + 1, saturated + 7, n_groups, n - 1, n, n + 4}
        - {0}
    ):
        instance = _instance(repo, budget, weight, coverage)
        reference = _triple(greedy_select(repo, instance, method="eager"))
        # The pool holds the groupless users: -1 slots in the kernel.
        assert _triple(
            greedy_select(repo, instance, method="matrix")
        ) == reference, budget
        pool = repo.user_ids[1::2]
        assert _triple(
            greedy_select(repo, instance, method="matrix", candidates=pool)
        ) == _triple(
            greedy_select(repo, instance, method="eager", candidates=pool)
        ), budget
        # The index alone holds only grouped users: a contiguous pool.
        indexed = [str(u) for u in instance_index(instance).users]
        assert _triple(
            select_from_index(instance_index(instance), budget)
        ) == _triple(
            greedy_select(repo, instance, method="eager", candidates=indexed)
        ), budget


@pytest.mark.parametrize("seed", range(3))
def test_seeded_zero_gain_tail_is_drawn_at_random(seed):
    repo = _repository(seed, groupless=12)
    n = len(repo)
    instance = _instance(repo, n, LBSWeights, SingleCoverage)
    result = greedy_select(
        repo, instance, method="matrix", rng=np.random.default_rng(seed)
    )
    assert _triple(result) == _triple(
        greedy_select(
            repo, instance, method="eager", rng=np.random.default_rng(seed)
        )
    )
    tail = list(result.selected[_saturation(result):])
    assert len(tail) > 10
    assert tail != sorted(tail)
    # Without an rng the same tail comes out in id order.
    plain = greedy_select(repo, instance, method="matrix")
    plain_tail = list(plain.selected[_saturation(plain):])
    assert plain_tail == sorted(plain_tail)

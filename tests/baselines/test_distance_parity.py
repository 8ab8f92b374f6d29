"""Distance-baseline parity sweep: selector == set-loop oracle, both
objectives.

:class:`~repro.baselines.distance.DistanceSelector` promises
byte-identical selections to the pure-Python per-pair loop of
``tests/oracles/baselines.py`` — the incidence-matrix arithmetic
performs the same IEEE-754 operations in the same per-candidate order,
so even seeded RNG tie-breaks resolve identically (mirroring
``tests/core/test_backend_parity.py`` for the greedy backends).
"""

import numpy as np
import pytest

from repro.baselines.distance import (
    DistanceSelector,
    mean_pairwise_intersection,
)
from repro.core import GroupingConfig, build_instance, build_simple_groups
from repro.core.errors import PodiumError
from repro.core.profiles import UserProfile, UserRepository
from repro.datasets.synth import generate_profile_repository

from ..oracles.baselines import (
    distance_select_oracle,
    mean_pairwise_intersection_oracle,
)

OBJECTIVES = ("sum", "min")


def _sweep_repo(seed, n_users=60):
    repo = generate_profile_repository(
        n_users=n_users, n_properties=30, mean_profile_size=10.0, seed=seed
    )
    groups = build_simple_groups(repo, GroupingConfig())
    instance = build_instance(repo, budget=6, groups=groups)
    return repo, instance


class TestDistanceParity:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_deterministic_selections_identical(self, objective, seed):
        repo, instance = _sweep_repo(seed)
        vector = DistanceSelector(objective).select(repo, instance, 6)
        oracle = distance_select_oracle(repo, 6, objective=objective)
        assert vector == oracle

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("rng_seed", (0, 7, 42))
    def test_seeded_rng_tie_breaks_identical(self, objective, rng_seed):
        repo, instance = _sweep_repo(seed=3)
        vector = DistanceSelector(objective).select(
            repo, instance, 6, rng=np.random.default_rng(rng_seed)
        )
        oracle = distance_select_oracle(
            repo, 6, rng=np.random.default_rng(rng_seed), objective=objective
        )
        assert vector == oracle

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_duplicate_profiles_force_ties(self, objective):
        # Many identical profiles make every step a tie: the regime where
        # an ordering mismatch between the implementations would surface.
        repo = UserRepository(
            [UserProfile(f"u{i}", {"a": 0.5, "b": 0.5}) for i in range(12)]
            + [UserProfile(f"v{i}", {"c": 1.0}) for i in range(4)]
        )
        groups = build_simple_groups(repo, GroupingConfig())
        instance = build_instance(repo, budget=5, groups=groups)
        for rng_seed in (0, 1, 2):
            vector = DistanceSelector(objective).select(
                repo, instance, 5, rng=np.random.default_rng(rng_seed)
            )
            oracle = distance_select_oracle(
                repo, 5, rng=np.random.default_rng(rng_seed),
                objective=objective,
            )
            assert vector == oracle

    def test_invalid_arguments_rejected(self):
        with pytest.raises(PodiumError):
            DistanceSelector("max")


class TestMeanPairwiseIntersectionParity:
    @pytest.mark.parametrize("seed", (0, 1))
    def test_matches_python_oracle(self, seed):
        repo, _ = _sweep_repo(seed, n_users=40)
        users = repo.user_ids[:15]
        assert mean_pairwise_intersection(
            repo, users
        ) == mean_pairwise_intersection_oracle(repo, users)

    def test_fewer_than_two_users(self):
        repo, _ = _sweep_repo(0, n_users=10)
        assert mean_pairwise_intersection(repo, []) == 0.0
        assert mean_pairwise_intersection(repo, repo.user_ids[:1]) == 0.0

"""Unit tests for the stratified-sampling baseline (paper §2 practice)."""

import numpy as np
import pytest

from repro.baselines import StratifiedSelector, proportional_apportionment
from repro.baselines import stratified
from repro.core import (
    InvalidBudgetError,
    UserProfile,
    UserRepository,
    build_instance,
)
from repro.core.buckets import Bucket

from ..oracles import baselines as oracle


class TestApportionment:
    def test_exact_proportions(self):
        assert proportional_apportionment([60, 40], 10) == [6, 4]

    def test_largest_remainder_breaks_fractions(self):
        # Quotas 3.33 / 3.33 / 3.33 -> one stratum gets the extra seat.
        seats = proportional_apportionment([10, 10, 10], 10)
        assert sum(seats) == 10
        assert sorted(seats) == [3, 3, 4]

    def test_seats_capped_by_stratum_size(self):
        seats = proportional_apportionment([1, 99], 10)
        assert seats[0] <= 1
        assert sum(seats) == 10

    def test_budget_exceeding_population(self):
        assert proportional_apportionment([2, 3], 99) == [2, 3]

    def test_empty_strata_get_nothing(self):
        assert proportional_apportionment([0, 5], 4) == [0, 4]

    def test_zero_budget(self):
        assert proportional_apportionment([5, 5], 0) == [0, 0]

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidBudgetError):
            proportional_apportionment([5], -1)


@pytest.fixture()
def skewed_repo():
    """80 low scorers, 20 high scorers on the stratification variable."""
    profiles = [
        UserProfile(f"lo{i}", {"activity": 0.1 + 0.001 * i}) for i in range(80)
    ] + [
        UserProfile(f"hi{i}", {"activity": 0.9 + 0.0005 * i}) for i in range(20)
    ]
    return UserRepository(profiles)


class TestStratifiedSelector:
    def test_respects_budget_and_uniqueness(self, skewed_repo, rng):
        instance = build_instance(skewed_repo, 10)
        picked = StratifiedSelector().select(skewed_repo, instance, 10, rng)
        assert len(picked) == 10
        assert len(set(picked)) == 10

    def test_proportional_across_strata(self, skewed_repo):
        instance = build_instance(skewed_repo, 10)
        counts = {"lo": 0, "hi": 0}
        for seed in range(10):
            picked = StratifiedSelector(strata_buckets=2).select(
                skewed_repo, instance, 10, np.random.default_rng(seed)
            )
            for user in picked:
                counts[user[:2]] += 1
        # 80/20 population -> roughly 8/2 per draw.
        assert counts["lo"] > 3 * counts["hi"]
        assert counts["hi"] > 0

    def test_unknown_stratum_represented(self):
        profiles = [
            UserProfile(f"k{i}", {"activity": 0.5}) for i in range(6)
        ] + [UserProfile(f"u{i}", {}) for i in range(6)]
        repo = UserRepository(profiles)
        instance = build_instance(
            repo.filter(lambda p: len(p) > 0), 4
        )
        picked = StratifiedSelector().select(
            repo, instance, 4, np.random.default_rng(1)
        )
        kinds = {u[0] for u in picked}
        assert kinds == {"k", "u"}

    def test_empty_property_space(self):
        repo = UserRepository([UserProfile(f"u{i}", {}) for i in range(5)])
        selector = StratifiedSelector()
        # No properties at all: one big stratum, uniform sampling.
        strata = selector._stratify(repo)
        assert len(strata) == 1
        assert len(strata[0]) == 5

    def test_bad_budget(self, skewed_repo):
        instance = build_instance(skewed_repo, 2)
        with pytest.raises(InvalidBudgetError):
            StratifiedSelector().select(skewed_repo, instance, 0)


def _partial_repo(seed):
    """90 users with uniform scores on up to four properties; every
    fourth user has none, so the "unknown" stratum is populated."""
    rng = np.random.default_rng(seed)
    labels = ("a", "b", "c", "d")
    return UserRepository(
        UserProfile(
            f"u{i:03d}",
            {}
            if i % 4 == 0
            else {
                label: float(rng.random())
                for label in labels
                if rng.random() < 0.7
            },
        )
        for i in range(90)
    )


class TestStratifiedOracleParity:
    """``searchsorted`` strata == the per-user ``Bucket.contains`` loop."""

    @pytest.mark.parametrize("strata_buckets", (1, 2, 3, 5))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_selections_identical(self, strata_buckets, seed):
        repo = _partial_repo(seed)
        instance = build_instance(repo, 9)
        selector = StratifiedSelector(strata_buckets=strata_buckets)
        assert selector._stratify(repo) == oracle.stratify_oracle(
            repo, strata_buckets
        )
        for budget in (1, 9, 40):
            assert selector.select(
                repo, instance, budget, np.random.default_rng(seed)
            ) == oracle.stratified_select_oracle(
                repo, budget, np.random.default_rng(seed), strata_buckets
            )

    @pytest.mark.parametrize(
        "partition",
        (
            # Overlapping buckets: a score in both goes to the first.
            (Bucket(0.0, 0.6, "low"), Bucket(0.4, 1.0, "high", True)),
            # A gap: carriers scoring inside it join no stratum.
            (Bucket(0.0, 0.3, "low"), Bucket(0.5, 1.0, "high", True)),
        ),
    )
    def test_non_tiling_partition_uses_first_containing_bucket(
        self, partition, monkeypatch
    ):
        def split(scores, k, strategy):
            return partition

        monkeypatch.setattr(stratified, "split_scores", split)
        monkeypatch.setattr(oracle, "split_scores", split)
        repo = _partial_repo(3)
        instance = build_instance(repo, 9)
        assert StratifiedSelector()._stratify(repo) == oracle.stratify_oracle(
            repo
        )
        for rng_seed in (0, 7):
            assert StratifiedSelector().select(
                repo, instance, 12, np.random.default_rng(rng_seed)
            ) == oracle.stratified_select_oracle(
                repo, 12, np.random.default_rng(rng_seed)
            )

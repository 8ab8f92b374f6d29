"""Unit tests for incremental repository updates (paper §9)."""

import pytest

from repro.core import (
    GroupingConfig,
    InvalidDeltaError,
    UnknownUserError,
    UserProfile,
    build_instance,
    build_simple_groups,
    greedy_select,
    instance_index,
)
from repro.core.groups import Group, GroupKey
from repro.core.updates import (
    ProfileDelta,
    apply_delta_to_repository,
    reassign_groups,
    rebuild_instance,
)
from repro.datasets import example_grouping_config


class TestProfileDelta:
    def test_touched_union(self):
        delta = ProfileDelta(
            upserts=(UserProfile("a", {}),), removals=frozenset({"b"})
        )
        assert delta.touched == frozenset({"a", "b"})

    def test_duplicate_upsert_rejected(self):
        """A malformed delta is an InvalidDeltaError, not UnknownUserError:
        the delta is self-inconsistent regardless of any repository."""
        with pytest.raises(InvalidDeltaError, match="duplicate"):
            ProfileDelta(
                upserts=(UserProfile("a", {}), UserProfile("a", {}))
            )

    def test_upsert_and_remove_clash_rejected(self):
        with pytest.raises(InvalidDeltaError, match="both upserted"):
            ProfileDelta(
                upserts=(UserProfile("a", {}),), removals=frozenset({"a"})
            )

    def test_invalid_delta_is_not_unknown_user(self):
        """The two error classes stay distinct at the service boundary."""
        with pytest.raises(InvalidDeltaError) as excinfo:
            ProfileDelta(
                upserts=(UserProfile("a", {}),), removals=frozenset({"a"})
            )
        assert not isinstance(excinfo.value, UnknownUserError)


class TestApplyDelta:
    def test_insert_new_user(self, table2_repo):
        frank = UserProfile("Frank", {"livesIn Tokyo": 1.0})
        updated = apply_delta_to_repository(
            table2_repo, ProfileDelta(upserts=(frank,))
        )
        assert "Frank" in updated
        assert len(updated) == 6
        assert "Frank" not in table2_repo  # original untouched

    def test_replace_existing_profile(self, table2_repo):
        new_alice = UserProfile("Alice", {"livesIn Paris": 1.0})
        updated = apply_delta_to_repository(
            table2_repo, ProfileDelta(upserts=(new_alice,))
        )
        assert updated.profile("Alice").properties == frozenset(
            {"livesIn Paris"}
        )

    def test_remove_user(self, table2_repo):
        updated = apply_delta_to_repository(
            table2_repo, ProfileDelta(removals=frozenset({"Carol"}))
        )
        assert "Carol" not in updated
        assert len(updated) == 4

    def test_remove_unknown_raises(self, table2_repo):
        with pytest.raises(UnknownUserError):
            apply_delta_to_repository(
                table2_repo, ProfileDelta(removals=frozenset({"Zed"}))
            )


class TestReassignGroups:
    def test_new_user_joins_matching_buckets(self, table2_repo, table2_groups):
        frank = UserProfile(
            "Frank", {"livesIn Tokyo": 1.0, "avgRating Mexican": 0.9}
        )
        delta = ProfileDelta(upserts=(frank,))
        repo = apply_delta_to_repository(table2_repo, delta)
        groups = reassign_groups(table2_groups, repo, delta)
        assert "Frank" in groups.group(GroupKey("livesIn Tokyo", "true")).members
        assert (
            "Frank"
            in groups.group(GroupKey("avgRating Mexican", "high")).members
        )

    def test_removed_user_leaves_groups(self, table2_repo, table2_groups):
        delta = ProfileDelta(removals=frozenset({"Alice"}))
        repo = apply_delta_to_repository(table2_repo, delta)
        groups = reassign_groups(table2_groups, repo, delta)
        assert all("Alice" not in g.members for g in groups)
        # Untouched users keep their memberships.
        assert "David" in groups.group(GroupKey("livesIn Tokyo", "true")).members

    def test_profile_change_moves_between_buckets(
        self, table2_repo, table2_groups
    ):
        # Alice's Mexican rating drops from high (0.95) to low (0.1).
        new_alice = table2_repo.profile("Alice").with_score(
            "avgRating Mexican", 0.1
        )
        delta = ProfileDelta(upserts=(new_alice,))
        repo = apply_delta_to_repository(table2_repo, delta)
        groups = reassign_groups(table2_groups, repo, delta)
        assert (
            "Alice"
            not in groups.group(GroupKey("avgRating Mexican", "high")).members
        )
        assert (
            "Alice"
            in groups.group(GroupKey("avgRating Mexican", "low")).members
        )

    def test_matches_full_rebuild_on_frozen_buckets(
        self, table2_repo, table2_groups
    ):
        """Incremental reassignment equals a from-scratch rebuild with the
        same fixed splits."""
        frank = UserProfile(
            "Frank", {"visitFreq Mexican": 0.5, "livesIn NYC": 1.0}
        )
        delta = ProfileDelta(
            upserts=(frank,), removals=frozenset({"Bob"})
        )
        repo = apply_delta_to_repository(table2_repo, delta)
        incremental = reassign_groups(table2_groups, repo, delta)
        rebuilt = build_simple_groups(
            repo,
            GroupingConfig(fixed_splits=(0.4, 0.65), drop_empty=False),
        )
        # Compare on the incremental key set: the rebuild additionally
        # materializes never-populated buckets (e.g. Boolean "false"
        # buckets) that the original drop_empty grouping never had.
        for group in incremental:
            assert rebuilt.group(group.key).members == group.members


class TestRebuildInstance:
    def test_empty_groups_get_floor_weight(self, table2_repo, table2_groups):
        delta = ProfileDelta(removals=frozenset({"Bob"}))
        repo = apply_delta_to_repository(table2_repo, delta)
        groups = reassign_groups(table2_groups, repo, delta)
        instance = rebuild_instance(groups, repo, budget=2)
        nyc = GroupKey("livesIn NYC", "true")
        assert groups.group(nyc).size == 0
        assert instance.wei[nyc] == 1  # floor keeps the instance valid

    def test_weights_track_new_sizes(self, table2_repo, table2_groups):
        frank = UserProfile("Frank", {"livesIn Tokyo": 1.0})
        delta = ProfileDelta(upserts=(frank,))
        repo = apply_delta_to_repository(table2_repo, delta)
        groups = reassign_groups(table2_groups, repo, delta)
        instance = rebuild_instance(groups, repo, budget=2)
        assert instance.wei[GroupKey("livesIn Tokyo", "true")] == 3


class TestDeltaThenSelect:
    """apply → reassign → rebuild, then select: the §9 update path."""

    GINA = UserProfile(
        "Gina",
        {
            "livesIn Paris": 1.0,
            "avgRating Mexican": 0.8,
            "visitFreq Mexican": 0.5,
            "avgRating CheapEats": 0.5,
            "visitFreq CheapEats": 0.25,
            "ageGroup 50-64": 1.0,
        },
    )

    def _update(self, repo, groups, delta):
        repo = apply_delta_to_repository(repo, delta)
        groups = reassign_groups(groups, repo, delta)
        return repo, rebuild_instance(groups, repo, budget=2)

    def test_delta_then_select(self, table2_repo, table2_groups):
        base = greedy_select(
            table2_repo, rebuild_instance(table2_groups, table2_repo, 2)
        )
        assert set(base.selected) == {"Alice", "Eve"}
        # A new super-user carrying many large groups displaces Eve.
        repo, instance = self._update(
            table2_repo, table2_groups, ProfileDelta(upserts=(self.GINA,))
        )
        updated = greedy_select(repo, instance)
        assert "Gina" in updated.selected
        assert len(repo) == 6

    def test_delta_then_matrix_selection_matches_eager(
        self, table2_repo, table2_groups
    ):
        """The matrix backend after an update must see the new instance,
        not a stale cached index warmed before the update."""
        greedy_select(
            table2_repo,
            rebuild_instance(table2_groups, table2_repo, 2),
            method="matrix",
        )
        repo, instance = self._update(
            table2_repo, table2_groups, ProfileDelta(upserts=(self.GINA,))
        )
        eager = greedy_select(repo, instance, method="eager")
        matrix = greedy_select(repo, instance, method="matrix")
        assert matrix.selected == eager.selected
        assert matrix.score == eager.score
        assert "Gina" in matrix.selected


class TestIndexCacheInvalidation:
    """The cached sparse index must drop when the group set mutates.

    Regression: the index was cached on the instance without a version
    check, so a matrix selection warmed before an in-place ``GroupSet``
    mutation silently replayed the pre-mutation incidence.
    """

    def test_in_place_group_mutation_invalidates_cache(self, table2_repo):
        # Private group set: the shared fixture is session-scoped and must
        # not be mutated.
        groups = build_simple_groups(table2_repo, example_grouping_config())
        instance = build_instance(table2_repo, 2, groups=groups)
        greedy_select(table2_repo, instance, method="matrix")  # warm cache
        stale = instance_index(instance)

        # Re-adding under the same key replaces the group in place: the
        # instance object is untouched but its incidence changed.
        mexican = groups.group(GroupKey("avgRating Mexican", "high"))
        assert "Eve" in mexican.members
        groups.add(
            Group(
                mexican.key,
                mexican.members - {"Eve"},
                mexican.bucket,
                mexican.label,
            )
        )

        fresh = instance_index(instance)
        assert fresh is not stale
        eager = greedy_select(table2_repo, instance, method="eager")
        matrix = greedy_select(table2_repo, instance, method="matrix")
        assert matrix.selected == eager.selected
        assert matrix.score == eager.score

    def test_unmutated_group_set_keeps_cached_index(
        self, table2_repo, table2_groups
    ):
        instance = build_instance(table2_repo, 2, groups=table2_groups)
        assert instance_index(instance) is instance_index(instance)

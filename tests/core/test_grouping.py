"""A grouping is its kept buckets (paper §3.2, §9).

Bucket boundaries stay fixed while users change, so the members of every
group are a function of the kept ``(label, bucket)`` pairs and the
current repository.  The property below pins that invariant against the
incremental path it replaces as a durable form: after any delta
sequence, :func:`groups_from_grouping` over the final repository equals
the :func:`reassign_groups` chain from the first group set — same keys,
members, buckets and order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GroupingConfig,
    build_simple_groups,
    grouping_of,
    groups_from_grouping,
)
from repro.core.profiles import UserProfile, UserRepository
from repro.core.updates import (
    ProfileDelta,
    apply_delta_to_repository,
    reassign_groups,
)

LABELS = ("a0", "a1", "flag", "z0")
BOOLEAN = frozenset({"flag"})
PREFIXES = ("a", "flag")
#: Few distinct values, so ties are common; 0.4 and 0.65 are the
#: fixed splits' boundaries.
TIES = (0.0, 0.25, 0.4, 0.5, 0.65, 1.0)

scores_st = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _score(draw, label, boundaries):
    if label in BOOLEAN:
        return draw(st.sampled_from((0.0, 1.0)))
    values = st.sampled_from(boundaries) | st.sampled_from(TIES) | scores_st
    return draw(values)


def _profile(draw, user_id, boundaries):
    labels = draw(st.lists(st.sampled_from(LABELS), unique=True))
    return UserProfile(
        user_id, {label: _score(draw, label, boundaries) for label in labels}
    )


def _restricted(repository, prefixes):
    """What the service groups a configuration with property prefixes on."""
    if prefixes is None:
        return repository
    return UserRepository(
        profile.restricted_to(
            label for label in profile.properties if label.startswith(prefixes)
        )
        for profile in repository
    )


@st.composite
def _delta(draw, repository, boundaries, fresh):
    ids = sorted(repository.user_ids)
    removals = set()
    if draw(st.booleans()):
        # Every holder of one property leaves.
        removals = set(repository.users_with(draw(st.sampled_from(LABELS))))
    if ids:
        removals |= set(draw(st.lists(st.sampled_from(ids), max_size=3)))
    candidates = [u for u in ids if u not in removals] + [fresh]
    upserts = draw(
        st.lists(st.sampled_from(candidates), unique=True, max_size=4)
    )
    return ProfileDelta(
        upserts=tuple(_profile(draw, u, boundaries) for u in upserts),
        removals=frozenset(removals),
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_members_derive_from_the_kept_buckets_after_any_deltas(data):
    draw = data.draw
    repository = UserRepository(
        _profile(draw, f"u{i}", TIES) for i in range(draw(st.integers(1, 10)))
    )
    config = GroupingConfig(
        buckets_per_property=draw(st.integers(1, 4)),
        strategy=draw(st.sampled_from(("jenks", "quantile", "equal-width"))),
        min_support=draw(st.integers(1, 3)),
        fixed_splits=draw(st.sampled_from((None, (0.4, 0.65)))),
    )
    prefixes = draw(st.sampled_from((None, PREFIXES)))
    initial = build_simple_groups(_restricted(repository, prefixes), config)
    grouping = grouping_of(initial)
    boundaries = sorted(
        {0.0, 1.0} | {b.lo for _, b in grouping} | {b.hi for _, b in grouping}
    )

    groups = initial
    assert list(groups_from_grouping(repository, grouping)) == list(groups)
    for step in range(draw(st.integers(0, 5))):
        delta = draw(_delta(repository, boundaries, f"new{step}"))
        repository = apply_delta_to_repository(repository, delta)
        groups = reassign_groups(groups, repository, delta)
        assert list(groups_from_grouping(repository, grouping)) == list(
            groups
        )


def _fixed(repository):
    return build_simple_groups(
        repository, GroupingConfig(fixed_splits=(0.4, 0.65))
    )


def test_a_bucket_dropped_as_empty_stays_dropped():
    repository = UserRepository.from_records(
        {"u0": {"a0": 0.1}, "u1": {"a0": 0.2}}
    )
    initial = _fixed(repository)
    assert [bucket.label for _, bucket in grouping_of(initial)] == ["low"]
    delta = ProfileDelta(upserts=(UserProfile("u2", {"a0": 0.5}),))
    repository = apply_delta_to_repository(repository, delta)
    derived = groups_from_grouping(repository, grouping_of(initial))
    assert list(derived) == list(reassign_groups(initial, repository, delta))
    assert derived.groups_of("u2") == frozenset()


def test_a_property_whose_holders_all_leave_keeps_empty_groups():
    repository = UserRepository.from_records(
        {"u0": {"a0": 0.1, "a1": 0.9}, "u1": {"a1": 0.3}}
    )
    initial = _fixed(repository)
    delta = ProfileDelta(removals=frozenset({"u0"}))
    repository = apply_delta_to_repository(repository, delta)
    derived = groups_from_grouping(repository, grouping_of(initial))
    assert list(derived) == list(reassign_groups(initial, repository, delta))
    assert [g.size for g in derived if g.key.property_label == "a0"] == [0]

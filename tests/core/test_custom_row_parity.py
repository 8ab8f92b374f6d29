"""The dense-row customization path equals the eager reference, field by field.

``custom_select(method="matrix")`` on a fully indexed repository runs
from the cached index alone: the refined pool is a row mask and the
rescaled weights are the base ``wei`` with priority groups scaled and
ignored groups zeroed (paper §6, Prop. 6.5).  This property draws
Iden/LBS × Single/Prop instances — plus tied weights — and feedback of
every shape the serving path meets, and asserts that every field of the
result equals ``method="eager"`` (the dict instance restricted to the
active groups) and that the base index is left untouched.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CustomizationFeedback,
    GroupingConfig,
    InfeasibleSelectionError,
    build_instance,
    build_simple_groups,
    custom_select,
    instance_index,
)
from repro.core.instance import DiversificationInstance
from repro.core.weights import (
    IdenWeights,
    LBSWeights,
    PropCoverage,
    SingleCoverage,
)
from repro.datasets.synth import generate_profile_repository

SHAPES = (
    "priority",
    "must_have_two_properties",
    "must_not",
    "standard_subset",
    "standard_empty",
    "standard_overlaps_priority",
    "one_eligible",
)

INDEX_ARRAYS = (
    "u_indptr",
    "u_indices",
    "g_indptr",
    "g_indices",
    "cov",
    "wei",
    "initial_gains",
)


def _instance(draw):
    seed = draw(st.integers(0, 40))
    repo = generate_profile_repository(
        n_users=40, n_properties=10, mean_profile_size=4.0, seed=seed
    )
    groups = build_simple_groups(repo, GroupingConfig(strategy="quantile"))
    weights = draw(st.sampled_from(("Iden", "LBS", "tied")))
    coverage = draw(st.sampled_from((SingleCoverage, PropCoverage)))
    instance = build_instance(
        repo,
        budget=draw(st.integers(1, 6)),
        groups=groups,
        weight_scheme=LBSWeights() if weights == "LBS" else IdenWeights(),
        coverage_scheme=coverage(),
    )
    if weights == "tied":
        # Two weight values only, so many groups tie in weight and gains
        # tie across users with different memberships.
        instance = DiversificationInstance(
            groups=instance.groups,
            wei={
                key: draw(st.sampled_from((2, 3)))
                for key in sorted(instance.groups.keys, key=str)
            },
            cov=dict(instance.cov),
            budget=instance.budget,
            population_size=instance.population_size,
        )
    return repo, instance


def _feedback(draw, repo, instance, shape):
    keys = sorted(instance.groups.keys, key=str)
    picked = draw(
        st.lists(st.sampled_from(keys), min_size=1, max_size=5, unique=True)
    )
    if shape == "priority":
        return CustomizationFeedback(priority=frozenset(picked))
    if shape == "must_have_two_properties":
        labels = sorted({k.property_label for k in keys})
        first, second = draw(
            st.lists(
                st.sampled_from(labels), min_size=2, max_size=2, unique=True
            )
        )
        must_have = [
            key
            for label in (first, second)
            for key in draw(
                st.lists(
                    st.sampled_from(
                        [k for k in keys if k.property_label == label]
                    ),
                    min_size=1,
                    unique=True,
                )
            )
        ]
        return CustomizationFeedback(
            must_have=frozenset(must_have), priority=frozenset(picked[:1])
        )
    if shape == "must_not":
        return CustomizationFeedback(
            must_not=frozenset(picked[:2]), priority=frozenset(picked[2:])
        )
    if shape == "standard_subset":
        standard = draw(
            st.lists(st.sampled_from(keys), min_size=1, unique=True)
        )
        return CustomizationFeedback(
            priority=frozenset(picked[:2]), standard=frozenset(standard)
        )
    if shape == "standard_empty":
        return CustomizationFeedback(
            priority=frozenset(picked), standard=frozenset()
        )
    if shape == "standard_overlaps_priority":
        extra = draw(st.lists(st.sampled_from(keys), unique=True))
        return CustomizationFeedback(
            priority=frozenset(picked),
            standard=frozenset(picked[: len(picked) // 2 + 1] + extra),
        )
    # one_eligible: only users whose groups are exactly the target's
    # groups pass (must-have every target bucket, must-not every other
    # group) — one user unless another shares every bucket.
    target = draw(st.sampled_from(repo.user_ids))
    own = instance.groups.groups_of(target)
    return CustomizationFeedback(
        must_have=frozenset(own),
        must_not=frozenset(k for k in keys if k not in own),
        priority=frozenset(picked),
    )


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    shape=st.sampled_from(SHAPES),
    tie_seed=st.none() | st.integers(0, 3),
)
def test_row_path_equals_eager_on_every_field(data, shape, tie_seed):
    repo, instance = _instance(data.draw)
    feedback = _feedback(data.draw, repo, instance, shape)
    base = instance_index(instance)
    assert base.n_users == len(repo)
    before = {name: np.array(getattr(base, name)) for name in INDEX_ARRAYS}

    def run(method):
        rng = None if tie_seed is None else np.random.default_rng(tie_seed)
        try:
            return custom_select(
                repo, instance, feedback, method=method, rng=rng
            )
        except InfeasibleSelectionError:
            return None

    fast, slow = run("matrix"), run("eager")
    assert (fast is None) == (slow is None)
    if fast is not None:
        # The row path ran: no dict instance rides on the result.
        assert fast.result.instance is None
        assert fast.selected == slow.selected
        assert fast.result.score == slow.result.score
        assert fast.result.gains == slow.result.gains
        assert fast.priority_score == slow.priority_score
        assert fast.standard_score == slow.standard_score
        assert fast.refined_pool_size == slow.refined_pool_size
        if shape == "one_eligible":
            twins = [
                u for u in repo.user_ids
                if instance.groups.groups_of(u) == feedback.must_have
            ]
            assert fast.refined_pool_size == len(twins) >= 1
            assert set(fast.selected) <= set(twins)

    assert instance_index(instance) is base
    for name, snapshot in before.items():
        after = np.asarray(getattr(base, name))
        assert after.dtype == snapshot.dtype, name
        assert np.array_equal(after, snapshot), name

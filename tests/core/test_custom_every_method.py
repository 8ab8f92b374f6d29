"""Customized selects on every array method equal the id-pool composition.

``custom_select`` with ``method`` in ``matrix``/``sharded``/``stochastic``
must answer exactly what running the unchanged greedy on the refined
pool with rescaled weights answers (paper §6, Prop. 6.5):
``greedy_select(repo, customized_instance(...),
candidates=refine_users(...), method=m)``, with the tier scores
``subset_score`` of the instance restricted to ``G_d`` and ``G_d?``.

The repositories hold users in no group (empty profiles, with ids
before, between and after the grouped ones), which the index does not
know: they are candidates exactly when there is no must-have, and can
only fill the zero-gain tail.  Iden/LBS × Single/Prop, the feedback
shapes of :mod:`tests.core.test_custom_row_parity`, budgets past the
pool size, and a seeded ``rng`` for ties, merge rounds and sampling.
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
    customized_instance,
    greedy_select,
    instance_index,
    refine_users,
)
from repro.core.profiles import UserProfile, UserRepository
from repro.core.scoring import subset_score
from repro.core.weights import (
    IdenWeights,
    LBSWeights,
    PropCoverage,
    SingleCoverage,
)
from repro.datasets.synth import generate_profile_repository

from .test_custom_row_parity import SHAPES, _feedback

#: Ids of the users in no group: before, between and after the
#: generated ``u000000``… ids, so they interleave in id order.
NO_GROUP_IDS = (
    "a-first",
    "u000003a",
    "u000011x",
    "u000020a",
    "u000027z",
    "u000038b",
    "zz-last",
)

METHODS = ("matrix", "sharded", "stochastic")


def _instance(draw):
    seed = draw(st.integers(0, 40))
    grouped = generate_profile_repository(
        n_users=40, n_properties=10, mean_profile_size=4.0, seed=seed
    )
    repo = UserRepository(
        [*grouped, *(UserProfile(u, {}) for u in NO_GROUP_IDS)]
    )
    weights = draw(st.sampled_from((IdenWeights, LBSWeights)))
    coverage = draw(st.sampled_from((SingleCoverage, PropCoverage)))
    instance = build_instance(
        repo,
        budget=draw(st.sampled_from((3, 6, 90))),
        groups=build_simple_groups(repo, GroupingConfig(strategy="quantile")),
        weight_scheme=weights(),
        coverage_scheme=coverage(),
    )
    return repo, instance


def _reference(repo, instance, feedback, method, rng):
    """The id-pool composition, or ``None`` when the pool is empty."""
    pool = refine_users(repo, instance.groups, feedback)
    if not pool:
        return None
    result = greedy_select(
        repo,
        customized_instance(instance, feedback),
        candidates=pool,
        method=method,
        rng=rng,
    )

    def tier(keys):
        restricted = instance.restricted_to_groups(keys)
        return subset_score(restricted, result.selected)

    return (
        result.selected,
        result.score,
        result.gains,
        tier(feedback.priority),
        tier(feedback.resolve_standard(instance.groups)),
        len(pool),
    )


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    shape=st.sampled_from(SHAPES),
    seed=st.none() | st.integers(0, 3),
)
def test_every_array_method_equals_the_id_pool_composition(
    data, shape, seed
):
    repo, instance = _instance(data.draw)
    assert instance_index(instance).n_users < len(repo)
    feedback = _feedback(data.draw, repo, instance, shape)
    for method in METHODS:

        def rng():
            if seed is None:
                return None
            return np.random.default_rng(seed)

        expected = _reference(repo, instance, feedback, method, rng())
        try:
            custom = custom_select(
                repo, instance, feedback, method=method, rng=rng()
            )
        except InfeasibleSelectionError:
            assert expected is None, method
            continue
        assert expected is not None, method
        assert (
            custom.selected,
            custom.result.score,
            custom.result.gains,
            custom.priority_score,
            custom.standard_score,
            custom.refined_pool_size,
        ) == expected, method


def test_no_group_users_fill_the_tail_without_must_have():
    repo = UserRepository(
        [
            UserProfile("a", {"p": 1.0}),
            UserProfile("b", {}),
            UserProfile("c", {"p": 0.0}),
        ]
    )
    instance = build_instance(
        repo,
        budget=3,
        groups=build_simple_groups(repo, GroupingConfig()),
        weight_scheme=IdenWeights(),
        coverage_scheme=SingleCoverage(),
    )
    keys = sorted(instance.groups.keys, key=str)
    for method in METHODS:
        free = custom_select(
            repo,
            instance,
            CustomizationFeedback(priority=frozenset(keys[:1])),
            method=method,
        )
        assert free.refined_pool_size == 3
        assert free.selected[-1] == "b"
        assert free.result.gains[-1] == 0
        bound = custom_select(
            repo,
            instance,
            CustomizationFeedback(must_have=frozenset(keys)),
            method=method,
        )
        assert bound.refined_pool_size == 2
        assert "b" not in bound.selected

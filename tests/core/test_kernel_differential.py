"""Differential property test: every array selection path == eager.

All array backends run one greedy kernel.  This module draws small
instances across Iden/LBS/EBS (vectorizable only) × Single/Prop, with
tied scores, users in no group, random candidate pools (including ids
nobody knows) and budgets up to past the pool size, and asserts that
each entry point reproduces the paper's eager Algorithm 1 exactly
(``selected``, ``gains`` and ``score``) when ``rng`` is None:

* ``greedy_select`` matrix, stochastic at ``sample_ratio=1.0`` and
  sharded at ``shards=1`` — users in no group are still candidates and
  fill the zero-gain tail in id order;
* ``select_from_index`` on the full pool and on candidate pools, whose
  ids the index does not know are dropped;
* ``select_sharded_streaming`` at ``shards=1``;
* ``custom_select`` matrix vs eager;
* ``constrained_select`` with one k-means cluster, and with floors and
  ceilings set to the plain selection's own group counts (tight but
  never binding), vs the plain matrix selection.

With a seeded ``rng`` the identity narrows to ``greedy_select``'s eager,
lazy and matrix backends over a pool of distinct candidates (the
domain ``core/greedy.py`` documents): each breaks a tie with one draw
over the tied ids in ascending order.  That covers EBS weights past
int64 too, where matrix runs the lazy fallback.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints import ClusterSpec, ConstraintSpec, constrained_select
from repro.core import (
    GroupingConfig,
    build_instance,
    build_simple_groups,
    greedy_select,
    instance_index,
    select_from_index,
    select_sharded_streaming,
)
from repro.core.customization import CustomizationFeedback, custom_select
from repro.core.errors import PodiumError
from repro.core.profiles import UserProfile, UserRepository
from repro.core.weights import (
    EBSWeights,
    IdenWeights,
    LBSWeights,
    PropCoverage,
    SingleCoverage,
)
from repro.datasets.synth import generate_profile_repository

#: Few distinct scores, so buckets, gains and hence picks tie often.
TIED_SCORES = (0.0, 0.25, 0.5, 1.0)

#: Array backends with the settings that make them exact.
EXACT_BACKENDS = (
    ("matrix", {}),
    ("stochastic", {"sample_ratio": 1.0}),
    ("sharded", {"shards": 1}),
)


@st.composite
def cases(draw):
    """``(repo, instance, index, pool)`` with a vectorizable index."""
    n_users = draw(st.integers(1, 12))
    labels = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    profiles = []
    for u in range(n_users):
        chosen = draw(st.lists(st.sampled_from(labels), unique=True))
        scores = {label: draw(st.sampled_from(TIED_SCORES)) for label in chosen}
        profiles.append(UserProfile(f"u{u:02d}", scores))
    repo = UserRepository(profiles)
    config = GroupingConfig(min_support=draw(st.integers(1, 3)))
    instance = build_instance(
        repo,
        budget=draw(st.integers(1, n_users + 3)),
        groups=build_simple_groups(repo, config),
        weight_scheme=draw(
            st.sampled_from((IdenWeights, LBSWeights, EBSWeights))
        )(),
        coverage_scheme=draw(st.sampled_from((SingleCoverage, PropCoverage)))(),
    )
    index = instance_index(instance)
    assume(index.vectorizable)
    pool = draw(
        st.lists(st.sampled_from([*repo.user_ids, "zz-unknown"]), unique=True)
    )
    return repo, instance, index, pool


def _triple(result):
    return result.selected, result.gains, result.score


def _eager(repo, instance, candidates=None):
    return _triple(
        greedy_select(repo, instance, method="eager", candidates=candidates)
    )


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_greedy_select_backends_match_eager(case):
    repo, instance, _index, pool = case
    for candidates in (None, pool):
        reference = _eager(repo, instance, candidates)
        for method, options in EXACT_BACKENDS:
            result = greedy_select(
                repo, instance, method=method, candidates=candidates,
                **options,
            )
            assert _triple(result) == reference, method


@settings(max_examples=60, deadline=None)
@given(case=cases(), seed=st.integers(0, 2**16))
def test_seeded_backends_match_eager(case, seed):
    repo, instance, _index, pool = case
    _assert_seeded_backends_match(repo, instance, (None, pool), seed)


def _assert_seeded_backends_match(repo, instance, pools, seed):
    for candidates in pools:
        reference = _triple(
            greedy_select(
                repo, instance, method="eager", candidates=candidates,
                rng=np.random.default_rng(seed),
            )
        )
        for method in ("lazy", "matrix"):
            result = greedy_select(
                repo, instance, method=method, candidates=candidates,
                rng=np.random.default_rng(seed),
            )
            assert _triple(result) == reference, method


@pytest.mark.parametrize("seed", range(5))
def test_seeded_backends_match_eager_past_int64(seed):
    """EBS weights past int64: matrix runs the exact lazy fallback.

    A budget past the groups' reach ends in a long zero-gain tail, where
    every remaining candidate ties.
    """
    repo = generate_profile_repository(
        n_users=40, n_properties=12, mean_profile_size=4.0, seed=seed
    )
    instance = build_instance(
        repo,
        budget=30,
        groups=build_simple_groups(repo, GroupingConfig()),
        weight_scheme=EBSWeights(),
    )
    assert not instance_index(instance).vectorizable
    _assert_seeded_backends_match(
        repo, instance, (None, repo.user_ids[::2]), seed
    )


_HASH_SEED_PROBE = """
import numpy as np
from repro.core import (
    GroupingConfig, build_instance, build_simple_groups, greedy_select,
)
from repro.datasets.synth import generate_profile_repository

repo = generate_profile_repository(
    n_users=300, n_properties=40, mean_profile_size=12.0, seed=0
)
instance = build_instance(
    repo, budget=12, groups=build_simple_groups(repo, GroupingConfig())
)
result = greedy_select(
    repo, instance, method="eager", rng=np.random.default_rng(7)
)
print(",".join(result.selected))
"""


def test_seeded_eager_independent_of_hash_seed():
    """A seeded eager panel is the same in every interpreter process."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    panels = set()
    for hash_seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        panels.add(
            subprocess.run(
                [sys.executable, "-c", _HASH_SEED_PROBE],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
        )
    assert len(panels) == 1


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_index_entry_points_match_eager(case):
    repo, instance, index, pool = case
    budget = instance.budget
    full = _eager(repo, instance, list(index.users))
    known = [u for u in pool if u in index.user_pos]
    restricted = _eager(repo, instance, known)
    for method, options in EXACT_BACKENDS:
        assert _triple(
            select_from_index(index, budget, method=method, **options)
        ) == full, method
        assert _triple(
            select_from_index(
                index, budget, method=method, candidates=pool, **options
            )
        ) == restricted, method
    assert _triple(select_sharded_streaming(index, budget, shards=1)) == full


@settings(max_examples=40, deadline=None)
@given(case=cases(), data=st.data())
def test_custom_select_matrix_matches_eager(case, data):
    repo, instance, _index, _pool = case
    keys = sorted(instance.groups.keys, key=str)
    assume(keys)
    picked = data.draw(
        st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True)
    )
    half = len(picked) // 2
    feedback = CustomizationFeedback(
        must_not=frozenset(picked[:half]), priority=frozenset(picked[half:])
    )
    try:
        slow = custom_select(repo, instance, feedback, method="eager")
    except PodiumError as exc:
        with pytest.raises(type(exc)):
            custom_select(repo, instance, feedback, method="matrix")
        return
    fast = custom_select(repo, instance, feedback, method="matrix")
    assert _triple(fast.result) == _triple(slow.result)
    assert fast.priority_score == slow.priority_score
    assert fast.standard_score == slow.standard_score
    assert fast.refined_pool_size == slow.refined_pool_size


@settings(max_examples=40, deadline=None)
@given(case=cases(), data=st.data())
def test_degenerate_constraints_match_plain_matrix(case, data):
    _repo, instance, index, _pool = case
    assume(index.n_users)
    budget = instance.budget
    plain = select_from_index(index, budget)

    one_cluster = ConstraintSpec.build(clusters=ClusterSpec("kmeans", k=1))
    clustered = constrained_select(index, one_cluster, budget)
    assert _triple(clustered.result) == _triple(plain)

    # Bounds equal to the plain selection's own counts: every plain pick
    # stays feasible, so the fair solver must re-pick the same sequence.
    hits = index.selection_hits(plain.selected)
    keys = list(index.group_keys)
    floored = data.draw(st.lists(st.sampled_from(keys), unique=True))
    ceiled = data.draw(st.lists(st.sampled_from(keys), unique=True))
    spec = ConstraintSpec.build(
        floors={
            k: int(hits[index.group_pos[k]])
            for k in floored
            if hits[index.group_pos[k]]
        },
        ceilings={k: int(hits[index.group_pos[k]]) for k in ceiled},
    )
    assume(not spec.is_empty)
    for method, options in EXACT_BACKENDS[:2]:
        fair = constrained_select(index, spec, budget, method=method, **options)
        assert _triple(fair.result) == _triple(plain), method
        assert fair.satisfied

"""The greedy kernel selects alike over both pool shapes.

A contiguous pool reaches ``_greedy_kernel`` as a ``range`` (no O(|U|)
slot map is built, so a mapped shard touches only its own rows) and any
other pool as an array of dense rows.  Both must give the same picks,
gains and score: for every ``range(lo, hi)`` against
``np.arange(lo, hi)``, with and without a seeded tie-break ``rng``,
with per-step sampling, and behind the fair gate, whose ceilings block
members on both sides of the range.  Rows below ``lo`` and at or past
``hi`` must land in the sink cell, never wrap into the pool's gains.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import ConstraintSpec
from repro.constraints.fair import _FairArrays, _FairGate, fair_select_rows
from repro.core import (
    GroupingConfig,
    build_instance,
    build_simple_groups,
    instance_index,
)
from repro.core.errors import InfeasibleConstraintError
from repro.core.greedy import _greedy_kernel
from repro.core.profiles import UserProfile, UserRepository
from repro.core.weights import (
    IdenWeights,
    LBSWeights,
    PropCoverage,
    SingleCoverage,
)
from repro.datasets.synth import generate_profile_repository


def _index(draw, n_users=40):
    repo = generate_profile_repository(
        n_users=n_users,
        n_properties=8,
        mean_profile_size=4.0,
        seed=draw(st.integers(0, 60)),
    )
    instance = build_instance(
        repo,
        budget=4,
        groups=build_simple_groups(repo, GroupingConfig()),
        weight_scheme=draw(st.sampled_from((IdenWeights, LBSWeights)))(),
        coverage_scheme=draw(
            st.sampled_from((SingleCoverage, PropCoverage))
        )(),
    )
    return instance_index(instance)


def _ceiling_gate(draw, index, budget):
    """A fair gate of random ceilings (0 blocks a group outright)."""
    keys = draw(
        st.lists(
            st.sampled_from(index.group_keys), max_size=4, unique=True
        )
    )
    spec = ConstraintSpec.build(
        ceilings={key: draw(st.integers(0, 2)) for key in keys}
    )
    return functools.partial(
        _FairGate, index, _FairArrays(index, spec), budget
    )


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    variant=st.sampled_from(("plain", "rng", "sample", "gate")),
)
def test_range_pool_equals_its_rows(data, variant):
    index = _index(data.draw)
    n = index.n_users
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    budget = data.draw(st.integers(1, hi - lo + 3))
    seed = data.draw(st.integers(0, 2**16))
    options = {}
    if variant == "sample":
        options["sample_size"] = data.draw(st.integers(1, hi - lo))
    if variant == "gate":
        options["gate"] = _ceiling_gate(data.draw, index, budget)

    def run(slots):
        if variant == "rng":
            options["rng"] = np.random.default_rng(seed)
        if variant == "sample":
            options["sample_rng"] = np.random.default_rng(seed)
        return _greedy_kernel(index, slots, budget, **options)

    assert run(range(lo, hi)) == run(np.arange(lo, hi, dtype=np.int64))


def _fair(index, spec, budget, **kwargs):
    try:
        return fair_select_rows(index, spec, budget, **kwargs)
    except InfeasibleConstraintError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fair_select_every_row_equals_explicit_rows(data):
    index = _index(data.draw, n_users=60)
    counts = np.diff(index.g_indptr)
    keys = data.draw(
        st.lists(
            st.sampled_from(index.group_keys),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    floors = {
        key: data.draw(
            st.integers(0, min(2, int(counts[index.group_pos[key]])))
        )
        for key in keys[:2]
    }
    ceilings = {
        key: data.draw(st.integers(0, 3)) for key in keys[2:]
    }
    spec = ConstraintSpec.build(floors=floors, ceilings=ceilings)
    budget = data.draw(st.integers(1, 10))
    assert _fair(index, spec, budget) == _fair(
        index, spec, budget, rows=np.arange(index.n_users, dtype=np.int64)
    )


@pytest.mark.parametrize("lo", [0, 1, 17])
def test_rows_outside_the_range_never_reach_its_gains(lo):
    """Every group exhausted by the first pick has members outside the
    pool; a drop that wrapped them into the pool's cells would lower
    the gains of the pool's last slots."""
    repo = UserRepository(
        UserProfile(f"u{i:02d}", {"p": float(i % 2), "q": 1.0})
        for i in range(24)
    )
    instance = build_instance(
        repo,
        budget=24,
        groups=build_simple_groups(repo, GroupingConfig()),
        weight_scheme=IdenWeights(),
        coverage_scheme=SingleCoverage(),
    )
    index = instance_index(instance)
    hi = lo + 5
    picks, gains, score = _greedy_kernel(index, range(lo, hi), 5)
    expected = _greedy_kernel(index, np.arange(lo, hi, dtype=np.int64), 5)
    assert (picks, gains, score) == expected
    assert all(g >= 0 for g in gains)

"""The customized index: sort-free derivation, sharing and row order.

``InstanceIndex.restricted_scaled`` derives the customization path's
rescaled index (paper §6, Prop. 6.5) by filtering and renumbering the
cached user-side CSR instead of re-transposing it.  These tests pin:

* byte identity with the transpose-based oracle
  (:mod:`tests.oracles.index`) across hypothesis-drawn feedback shapes,
  including the int64-overflow fallback;
* that sharing the base arrays (no group dropped) never lets a
  customized select mutate the base index;
* the strictly-ascending precondition on the group ids;
* the row-order invariant the filter depends on — every user row of
  ``u_indices`` strictly ascending — on every index construction path.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GroupingConfig,
    build_columnar_instance,
    build_index_external,
    build_instance,
    build_simple_groups,
    instance_index,
)
from repro.core.customization import (
    CustomizationFeedback,
    _custom_select_rows,
    custom_select,
    customized_index,
)
from repro.core.index import InstanceIndex, attach_index
from repro.core.instance import DiversificationInstance
from repro.core.persistence import open_index_npz, save_index_npz
from repro.core.weights import (
    IdenWeights,
    LBSWeights,
    PropCoverage,
    SingleCoverage,
)
from repro.datasets.synth import (
    generate_profile_columns,
    generate_profile_repository,
)

from ..oracles.index import restricted_scaled_by_transpose

ARRAY_FIELDS = (
    "u_indptr",
    "u_indices",
    "g_indptr",
    "g_indices",
    "cov",
    "wei",
    "initial_gains",
)

SHAPES = (
    "priority",
    "must_have_must_not",
    "standard_subset",
    "standard_empty",
)


def _case(seed, weight_cls=LBSWeights, coverage_cls=SingleCoverage):
    repo = generate_profile_repository(
        n_users=60, n_properties=14, mean_profile_size=6.0, seed=seed
    )
    groups = build_simple_groups(repo, GroupingConfig(min_support=2))
    instance = build_instance(
        repo,
        budget=4,
        groups=groups,
        weight_scheme=weight_cls(),
        coverage_scheme=coverage_cls(),
    )
    return repo, instance


def _feedback(draw, keys, shape):
    picked = draw(
        st.lists(st.sampled_from(keys), min_size=1, max_size=6, unique=True)
    )
    half = len(picked) // 2
    if shape == "priority":
        return CustomizationFeedback(priority=frozenset(picked))
    if shape == "must_have_must_not":
        return CustomizationFeedback(
            must_have=frozenset(picked[:half]),
            must_not=frozenset(picked[half:]),
        )
    if shape == "standard_subset":
        standard = draw(
            st.lists(st.sampled_from(keys), max_size=len(keys), unique=True)
        )
        return CustomizationFeedback(
            priority=frozenset(picked[:half]), standard=frozenset(standard)
        )
    return CustomizationFeedback(
        priority=frozenset(picked), standard=frozenset()
    )


def _derive_with_oracle(instance, feedback):
    """``customized_index`` plus the oracle's answer to the same call."""
    calls = []
    real = InstanceIndex.restricted_scaled

    def spy(self, group_dense_ids, weights):
        calls.append((self, np.array(group_dense_ids), list(weights)))
        return real(self, group_dense_ids, weights)

    with mock.patch.object(InstanceIndex, "restricted_scaled", spy):
        derived = customized_index(instance, feedback)
    assert derived is not None and len(calls) == 1
    return derived, restricted_scaled_by_transpose(*calls[0])


def _assert_identical(derived, oracle):
    for name in ARRAY_FIELDS:
        fast, slow = getattr(derived, name), getattr(oracle, name)
        if slow is None:
            assert fast is None, name
            continue
        fast, slow = np.asarray(fast), np.asarray(slow)
        assert fast.dtype == slow.dtype, name
        assert fast.shape == slow.shape, name
        assert fast.tobytes() == slow.tobytes(), name
    assert derived.group_keys == oracle.group_keys
    assert derived.group_pos == oracle.group_pos
    assert derived.vectorizable == oracle.vectorizable
    assert derived.users is oracle.users
    assert derived.user_pos is oracle.user_pos


def _assert_rows_ascending(index):
    u_indptr = np.asarray(index.u_indptr, dtype=np.int64)
    u_indices = np.asarray(index.u_indices, dtype=np.int64)
    assert u_indptr[0] == 0 and u_indptr[-1] == len(u_indices)
    assert (np.diff(u_indptr) >= 0).all()
    if len(u_indices) < 2:
        return
    # Adjacent entries must strictly ascend unless a row boundary
    # separates them.
    ascending = np.diff(u_indices) > 0
    row_start = np.zeros(len(u_indices), dtype=bool)
    row_start[u_indptr[1:-1][u_indptr[1:-1] < len(u_indices)]] = True
    assert (ascending | row_start[1:]).all()


def _overflowing_instance(instance):
    """Same groups with weights whose priority rescale passes int64.

    The base mass ``Σ wei·|G|`` stays well inside int64 (the base index
    vectorizes), but ``wei · (Σ_{G_d?} wei·cov + 1)`` does not.
    """
    big = 1 << 40
    return DiversificationInstance(
        groups=instance.groups,
        wei={key: big for key in instance.groups.keys},
        cov=dict(instance.cov),
        budget=instance.budget,
        population_size=instance.population_size,
    )


class TestOracleIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 30),
        weight_cls=st.sampled_from((IdenWeights, LBSWeights)),
        coverage_cls=st.sampled_from((SingleCoverage, PropCoverage)),
        shape=st.sampled_from(SHAPES),
        data=st.data(),
    )
    def test_every_field_identical(
        self, seed, weight_cls, coverage_cls, shape, data
    ):
        _, instance = _case(seed, weight_cls, coverage_cls)
        keys = sorted(instance.groups.keys, key=str)
        feedback = _feedback(data.draw, keys, shape)
        derived, oracle = _derive_with_oracle(instance, feedback)
        _assert_identical(derived, oracle)
        _assert_rows_ascending(derived)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 30), data=st.data())
    def test_priority_past_int64_falls_back(self, seed, data):
        repo, base = _case(seed)
        instance = _overflowing_instance(base)
        assert instance_index(instance).vectorizable
        keys = sorted(instance.groups.keys, key=str)
        feedback = _feedback(data.draw, keys, "priority")
        derived, oracle = _derive_with_oracle(instance, feedback)
        _assert_identical(derived, oracle)
        assert not derived.vectorizable
        assert derived.wei is None and derived.initial_gains is None
        assert (
            _custom_select_rows(
                repo, instance, instance_index(instance), feedback, None, None
            )
            is None
        )
        fast = custom_select(repo, instance, feedback, method="matrix")
        slow = custom_select(repo, instance, feedback, method="eager")
        assert fast.selected == slow.selected
        assert fast.result.score == slow.result.score

    def test_mapped_checkpoint_identical(self, tmp_path):
        _, instance = _case(3)
        path = tmp_path / "index.npz"
        save_index_npz(instance_index(instance), path, compressed=False)
        attach_index(instance, open_index_npz(path))
        keys = sorted(instance.groups.keys, key=str)
        for feedback in (
            CustomizationFeedback(priority=frozenset(keys[:3])),
            CustomizationFeedback(
                priority=frozenset(keys[:2]), standard=frozenset(keys[4:9])
            ),
        ):
            derived, oracle = _derive_with_oracle(instance, feedback)
            _assert_identical(derived, oracle)


class TestSharing:
    def test_default_feedback_shares_csr_arrays(self):
        _, instance = _case(1)
        base = instance_index(instance)
        keys = sorted(instance.groups.keys, key=str)
        derived = customized_index(
            instance, CustomizationFeedback(priority=frozenset(keys[:2]))
        )
        for name in ("u_indptr", "u_indices", "g_indptr", "g_indices"):
            assert getattr(derived, name) is getattr(base, name), name
        assert not np.shares_memory(derived.wei, base.wei)
        assert not np.shares_memory(
            derived.initial_gains, base.initial_gains
        )

    @pytest.mark.parametrize("shape", SHAPES)
    def test_custom_select_leaves_base_index_unchanged(self, shape):
        repo, instance = _case(2)
        base = instance_index(instance)
        before = {
            name: np.array(getattr(base, name)) for name in ARRAY_FIELDS
        }
        keys = sorted(instance.groups.keys, key=str)
        feedback = {
            "priority": CustomizationFeedback(priority=frozenset(keys[:3])),
            "must_have_must_not": CustomizationFeedback(
                must_not=frozenset(keys[:1]), priority=frozenset(keys[2:4])
            ),
            "standard_subset": CustomizationFeedback(
                priority=frozenset(keys[:2]), standard=frozenset(keys[3:12])
            ),
            "standard_empty": CustomizationFeedback(
                priority=frozenset(keys[:3]), standard=frozenset()
            ),
        }[shape]
        for method in ("matrix", "stochastic"):
            custom_select(
                repo,
                instance,
                feedback,
                method=method,
                rng=np.random.default_rng(0),
            )
        assert instance_index(instance) is base
        for name, snapshot in before.items():
            after = getattr(base, name)
            assert after.dtype == snapshot.dtype, name
            assert np.array_equal(after, snapshot), name


class TestPrecondition:
    @pytest.mark.parametrize(
        "ids",
        [[2, 1], [0, 3, 3], [1, 0, 2], [-1, 0], [0, 10**6]],
        ids=["descending", "duplicate", "unsorted", "negative", "too-big"],
    )
    def test_rejects_non_ascending_or_foreign_ids(self, ids):
        _, instance = _case(0)
        index = instance_index(instance)
        weights = [1] * len(ids)
        with pytest.raises(ValueError, match="strictly ascending"):
            index.restricted_scaled(np.array(ids), weights)

    def test_empty_selection_allowed(self):
        _, instance = _case(0)
        index = instance_index(instance)
        derived = index.restricted_scaled(np.array([], dtype=np.int64), [])
        assert derived.n_groups == 0 and derived.n_users == index.n_users
        assert not np.asarray(derived.initial_gains).any()


class TestRowOrderInvariant:
    """Every construction path keeps each ``u_indices`` row ascending."""

    def test_build(self):
        for seed in range(4):
            _, instance = _case(seed)
            _assert_rows_ascending(InstanceIndex.build(instance))

    @pytest.mark.parametrize("weights", ["Iden", "LBS"])
    def test_columnar_from_csr(self, weights):
        columns = generate_profile_columns(
            n_users=300, n_properties=12, mean_profile_size=5.0, seed=4
        )
        columnar = build_columnar_instance(
            columns, budget=8, weight_scheme=weights
        )
        _assert_rows_ascending(columnar.index)

    def test_external_builder_and_mapped_checkpoint(self, tmp_path):
        store = generate_profile_columns(
            n_users=300,
            n_properties=12,
            mean_profile_size=5.0,
            seed=4,
            store_dir=tmp_path / "store",
        )
        path = tmp_path / "external.npz"
        build_index_external(
            store,
            budget=8,
            out_path=path,
            run_entries=200,
            chunk_entries=150,
        )
        _assert_rows_ascending(open_index_npz(path))

    def test_take_rows(self):
        _, instance = _case(6)
        index = instance_index(instance)
        rows = np.arange(0, index.n_users, 3)
        _assert_rows_ascending(index.take_rows(rows))

    def test_restricted_scaled(self):
        _, instance = _case(7)
        index = instance_index(instance)
        rng = np.random.default_rng(7)
        for _ in range(10):
            ids = np.flatnonzero(rng.random(index.n_groups) < 0.5)
            derived = index.restricted_scaled(ids, [1] * len(ids))
            _assert_rows_ascending(derived)

"""Index-native stage parity: explanations/customization vs dict oracles.

The columnar-source-of-truth promise: every index-native stage — matrix
selection, ``explain_selection``, matrix ``custom_select`` and
``feedback_group_coverage`` — produces payloads equal (``==``) to its
dict-walking oracle (eager selection and customization, and the
``tests/oracles`` explanation and coverage twins), across Iden/LBS ×
Single/Prop, both on in-RAM indexes and on ``open_index_npz``-mapped
checkpoints.  On the mapped checkpoint a counting ``LazyUserIds``
wrapper additionally proves the user-id array is never materialized:
only the handful of selected winners are ever decoded.
"""

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
from repro.core.customization import (
    CustomizationFeedback,
    custom_select,
    feedback_group_coverage,
)
from repro.core.errors import PodiumError
from repro.core.explanations import _EXPLAIN_CACHE_ATTR, explain_selection
from repro.core.index import attach_index
from repro.core.persistence import (
    LazyUserIds,
    open_index_npz,
    save_index_npz,
)
from repro.core.weights import (
    IdenWeights,
    LBSWeights,
    PropCoverage,
    SingleCoverage,
)
from repro.datasets.synth import generate_profile_repository
from repro.experiments.scalability import ScalabilitySetup

from ..oracles.explanations import explain_selection_oracle
from ..oracles.metrics import feedback_group_coverage_oracle

WEIGHTS = (IdenWeights, LBSWeights)
COVERAGES = (SingleCoverage, PropCoverage)
BUDGET = 6


class CountingLazyUserIds(LazyUserIds):
    """LazyUserIds that counts every id decode (per element)."""

    __slots__ = ("decoded",)

    def __init__(self, ids: np.ndarray) -> None:
        super().__init__(ids)
        self.decoded = 0

    def __getitem__(self, item):
        if isinstance(item, slice):
            self.decoded += len(self._ids[item])
        else:
            self.decoded += 1
        return super().__getitem__(item)

    def __iter__(self):
        for u in self._ids:
            self.decoded += 1
            yield str(u)


def _case(weight_cls, coverage_cls, seed=0, n_users=120):
    repo = generate_profile_repository(
        n_users=n_users, n_properties=40, mean_profile_size=12.0, seed=seed
    )
    groups = build_simple_groups(repo, GroupingConfig(min_support=2))

    def make_instance():
        return build_instance(
            repo,
            budget=BUDGET,
            groups=groups,
            weight_scheme=weight_cls(),
            coverage_scheme=coverage_cls(),
        )

    return repo, groups, make_instance


def _feedback(groups):
    keys = sorted(groups.keys, key=str)
    return CustomizationFeedback(
        must_not=frozenset(keys[:1]), priority=frozenset(keys[1:4])
    )


def _assert_custom_parity(fast, slow):
    assert fast.selected == slow.selected
    assert fast.result.score == slow.result.score
    assert fast.priority_score == slow.priority_score
    assert fast.standard_score == slow.standard_score
    assert fast.refined_pool_size == slow.refined_pool_size


@pytest.mark.parametrize("weight_cls", WEIGHTS)
@pytest.mark.parametrize("coverage_cls", COVERAGES)
class TestInRamParity:
    def test_explanation_payloads_identical(self, weight_cls, coverage_cls):
        repo, _, make_instance = _case(weight_cls, coverage_cls)
        instance = make_instance()
        result = greedy_select(repo, instance, method="matrix")
        props = tuple(sorted(repo.property_labels)[:2])
        assert explain_selection(
            result, top_k=25, distribution_properties=props
        ) == explain_selection_oracle(
            result, top_k=25, distribution_properties=props
        )

    def test_customization_identical(self, weight_cls, coverage_cls):
        repo, groups, make_instance = _case(weight_cls, coverage_cls)
        instance = make_instance()
        feedback = _feedback(groups)
        fast = custom_select(repo, instance, feedback, method="matrix")
        slow = custom_select(repo, instance, feedback, method="eager")
        _assert_custom_parity(fast, slow)

    def test_feedback_coverage_identical(self, weight_cls, coverage_cls):
        repo, groups, make_instance = _case(weight_cls, coverage_cls)
        instance = make_instance()
        feedback = _feedback(groups)
        selected = greedy_select(repo, instance, method="matrix").selected
        assert feedback_group_coverage(
            instance, feedback, selected
        ) == feedback_group_coverage_oracle(instance, feedback, selected)


@pytest.mark.parametrize("budget", (8, ScalabilitySetup().stage_budget))
def test_explanation_parity_at_stage_bench_shape(budget):
    """The explanation stage of ``repro bench`` at its smallest size.

    A generated 500-user repository with the stage bench's profile
    shape, a matrix panel and three distribution properties at the
    default ``top_k``.
    """
    setup = ScalabilitySetup()
    repo = generate_profile_repository(
        n_users=500,
        n_properties=setup.n_properties,
        mean_profile_size=setup.mean_profile_size,
        seed=setup.seed,
    )
    groups = build_simple_groups(repo, GroupingConfig(min_support=2))
    instance = build_instance(repo, budget, groups=groups)
    result = greedy_select(repo, instance, method="matrix")
    props = tuple(sorted(repo.property_labels)[:3])
    assert explain_selection(
        result, distribution_properties=props
    ) == explain_selection_oracle(result, distribution_properties=props)


@pytest.mark.parametrize("weight_cls", WEIGHTS)
@pytest.mark.parametrize("coverage_cls", COVERAGES)
class TestMappedCheckpointParity:
    """The full sweep again, on an ``open_index_npz``-mapped checkpoint."""

    def _mapped_instance(self, make_instance, tmp_path):
        source = make_instance()
        path = tmp_path / "index.npz"
        save_index_npz(instance_index(source), path)
        mapped = open_index_npz(path)
        counting = CountingLazyUserIds(mapped.users._ids)
        object.__setattr__(mapped, "users", counting)
        instance = make_instance()
        attach_index(instance, mapped)
        return instance, counting

    def test_selection_explanation_and_customization(
        self, weight_cls, coverage_cls, tmp_path
    ):
        repo, groups, make_instance = _case(weight_cls, coverage_cls)
        mapped_instance, counting = self._mapped_instance(
            make_instance, tmp_path
        )
        oracle_instance = make_instance()

        oracle = greedy_select(repo, oracle_instance, method="eager")
        result = greedy_select(repo, mapped_instance, method="matrix")
        assert result.selected == oracle.selected
        assert result.score == oracle.score

        assert explain_selection(
            result, top_k=25
        ) == explain_selection_oracle(oracle, top_k=25)

        feedback = _feedback(groups)
        fast = custom_select(
            repo, mapped_instance, feedback, method="matrix"
        )
        slow = custom_select(
            repo, oracle_instance, feedback, method="eager"
        )
        _assert_custom_parity(fast, slow)

        assert feedback_group_coverage(
            mapped_instance, feedback, result.selected
        ) == feedback_group_coverage_oracle(
            oracle_instance, feedback, result.selected
        )

        # The whole pipeline decoded only the selected winners — never
        # the full id array (full materialization would be >= |U| per
        # pass, 120 here).
        assert counting.decoded < len(repo.user_ids) // 2


class TestMappedMethodValidation:
    def test_unknown_method_rejected_before_any_decode(self, tmp_path):
        """A bad ``method`` fails fast: no user id is decoded first."""
        _repo, _groups, make_instance = _case(LBSWeights, SingleCoverage)
        path = tmp_path / "index.npz"
        save_index_npz(instance_index(make_instance()), path)
        mapped = open_index_npz(path)
        counting = CountingLazyUserIds(mapped.users._ids)
        object.__setattr__(mapped, "users", counting)
        with pytest.raises(
            PodiumError, match="unknown index selection method 'eager'"
        ):
            select_from_index(mapped, BUDGET, method="eager")
        assert counting.decoded == 0


class TestSelectionHits:
    def test_row_hits_match_mask_path(self):
        _repo, _, make_instance = _case(IdenWeights, PropCoverage)
        idx = instance_index(make_instance())
        rows = [0, 4, 9]
        mask = np.zeros(idx.n_users, dtype=bool)
        mask[rows] = True
        np.testing.assert_array_equal(
            idx.row_hits(rows), idx.group_hits(mask)
        )
        assert not idx.row_hits([]).any()

    def test_matches_mask_path(self):
        repo, _, make_instance = _case(LBSWeights, SingleCoverage)
        instance = make_instance()
        idx = instance_index(instance)
        selected = list(idx.users[:7])
        np.testing.assert_array_equal(
            idx.selection_hits(selected),
            idx.group_hits(idx.selection_mask(selected)),
        )

    def test_duplicates_and_unknown_users_ignored(self):
        repo, _, make_instance = _case(IdenWeights, PropCoverage)
        instance = make_instance()
        idx = instance_index(instance)
        selected = [idx.users[0], idx.users[3]]
        noisy = selected + [idx.users[0], "no-such-user"]
        np.testing.assert_array_equal(
            idx.selection_hits(noisy), idx.selection_hits(selected)
        )

    def test_empty_selection_is_zero(self):
        repo, _, make_instance = _case(LBSWeights, SingleCoverage)
        idx = instance_index(make_instance())
        hits = idx.selection_hits([])
        assert hits.shape == (idx.n_groups,)
        assert not hits.any()


class TestExplanationCache:
    def test_reuses_memoized_group_explanations(self):
        repo, _, make_instance = _case(LBSWeights, SingleCoverage)
        instance = make_instance()
        result = greedy_select(repo, instance, method="matrix")
        first = explain_selection(result)
        assert getattr(instance, _EXPLAIN_CACHE_ATTR, None) is not None
        second = explain_selection(result)
        assert first == second
        # Same payload and the *same* frozen objects: the per-instance
        # cache was hit, not rebuilt.
        assert (
            first.group_explanations[0] is second.group_explanations[0]
        )

    def test_stale_cache_dropped_when_index_replaced(self):
        repo, _, make_instance = _case(LBSWeights, SingleCoverage)
        instance = make_instance()
        result = greedy_select(repo, instance, method="matrix")
        first = explain_selection(result)
        # Attaching a fresh (equal) index invalidates the cached sort
        # orders: the guard is identity on the index object, so the
        # payload is rebuilt — equal content, distinct objects.
        attach_index(instance, instance_index(make_instance()))
        rebuilt = explain_selection(result)
        assert rebuilt == first
        assert (
            rebuilt.group_explanations[0]
            is not first.group_explanations[0]
        )

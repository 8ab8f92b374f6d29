"""Constraint edge cases: infeasibility diagnosis, ceiling exhaustion,
degenerate clustering, and composition with customization."""

import numpy as np
import pytest

from repro.core import (
    CustomizationFeedback,
    GroupKey,
    InvalidBudgetError,
    PodiumError,
    greedy_select,
    subset_score,
)
from repro.core.customization import customized_index, customized_instance
from repro.core.errors import (
    InfeasibleConstraintError,
    InfeasibleSelectionError,
    InvalidConstraintError,
)
from repro.core.weights import IdenWeights, LBSWeights, SingleCoverage
from repro.constraints import (
    ClusterSpec,
    ConstraintSpec,
    constrained_select,
)

from ..oracles.constraints import fair_select_oracle
from .conftest import sweep_case

BUDGET = 6


def _group_by_size(index, position):
    """Group key at ``position`` in the descending-size order."""
    counts = np.diff(index.g_indptr)
    order = sorted(
        range(index.n_groups),
        key=lambda g: (-int(counts[g]), str(index.group_keys[g])),
    )
    return index.group_keys[order[position]], int(counts[order[position]])


class TestInfeasibleFloors:
    def test_floor_sum_exceeds_budget_names_property(self):
        _repo, _instance, index = sweep_case(IdenWeights, SingleCoverage, 0)
        counts = np.diff(index.g_indptr)
        # Two buckets of the same property, floors summing past budget.
        by_property = {}
        for g, key in enumerate(index.group_keys):
            by_property.setdefault(key.property_label, []).append(g)
        label, gids = next(
            (label, gids)
            for label, gids in sorted(by_property.items())
            if len(gids) >= 2
            and all(counts[g] >= 4 for g in gids[:2])
        )
        spec = ConstraintSpec.build(
            floors={
                index.group_keys[gids[0]]: 4,
                index.group_keys[gids[1]]: 4,
            }
        )
        with pytest.raises(InfeasibleConstraintError, match=label):
            constrained_select(index, spec, BUDGET)

    def test_floor_above_group_size_names_group(self):
        _repo, _instance, index = sweep_case(IdenWeights, SingleCoverage, 0)
        key, size = _group_by_size(index, index.n_groups - 1)
        spec = ConstraintSpec.build(floors={key: size + 1})
        with pytest.raises(InfeasibleConstraintError, match=str(key)):
            constrained_select(index, spec, BUDGET)

    def test_floor_on_group_outside_pool_names_group(self):
        repo, _instance, index = sweep_case(IdenWeights, SingleCoverage, 0)
        key, _size = _group_by_size(index, 0)
        gid = index.group_pos[key]
        members = {
            str(index.users[int(r)]) for r in index.members_of_rows(np.asarray([gid], dtype=np.int64))
        }
        pool = sorted(set(repo.user_ids) - members)
        assert pool, "candidate pool must not be empty"
        spec = ConstraintSpec.build(floors={key: 1})
        with pytest.raises(InfeasibleConstraintError, match=str(key)):
            constrained_select(index, spec, BUDGET, candidates=pool)

    def test_oracle_raises_identically(self):
        _repo, instance, index = sweep_case(IdenWeights, SingleCoverage, 0)
        key, size = _group_by_size(index, index.n_groups - 1)
        spec = ConstraintSpec.build(floors={key: size + 1})
        with pytest.raises(InfeasibleConstraintError, match=str(key)):
            fair_select_oracle(instance, spec, BUDGET)

    def test_unknown_group_rejected(self):
        _repo, _instance, index = sweep_case(IdenWeights, SingleCoverage, 0)
        spec = ConstraintSpec.build(
            floors={GroupKey("no-such-property", "bucket"): 1}
        )
        with pytest.raises(InvalidConstraintError, match="unknown groups"):
            constrained_select(index, spec, BUDGET)

    def test_infeasible_is_an_infeasible_selection_error(self):
        """Callers catching the existing exhaustion error keep working."""
        assert issubclass(
            InfeasibleConstraintError, InfeasibleSelectionError
        )

    def test_bad_budget_rejected(self):
        _repo, _instance, index = sweep_case(IdenWeights, SingleCoverage, 0)
        with pytest.raises(InvalidBudgetError):
            constrained_select(index, ConstraintSpec.build(), 0)


class TestCeilingExhaustion:
    def test_ceilings_below_budget_stop_early(self):
        """Restricted to one property's buckets with ceilings summing to
        3, the solver must stop at 3 picks — never violate, never spin."""
        _repo, instance, index = sweep_case(IdenWeights, SingleCoverage, 0)
        counts = np.diff(index.g_indptr)
        by_property = {}
        for g, key in enumerate(index.group_keys):
            by_property.setdefault(key.property_label, []).append(g)
        label, gids = max(
            sorted(by_property.items()),
            key=lambda e: sum(int(counts[g]) for g in e[1]),
        )
        pool = sorted(
            {
                str(index.users[int(r)])
                for r in index.members_of_rows(
                    np.asarray(gids, dtype=np.int64)
                )
            }
        )
        caps = [2, 1] + [0] * (len(gids) - 2)
        spec = ConstraintSpec.build(
            ceilings={
                index.group_keys[g]: cap for g, cap in zip(gids, caps)
            }
        )
        result = constrained_select(index, spec, BUDGET, candidates=pool)
        assert 0 < len(result.selected) <= 3
        assert result.satisfied
        selected, _gains, score = fair_select_oracle(
            instance, spec, BUDGET, candidates=pool
        )
        assert result.selected == tuple(selected)
        assert result.result.score == score

    def test_zero_ceiling_excludes_group_entirely(self):
        _repo, _instance, index = sweep_case(LBSWeights, SingleCoverage, 1)
        key, _size = _group_by_size(index, 0)
        gid = index.group_pos[key]
        members = {
            str(index.users[int(r)]) for r in index.members_of_rows(np.asarray([gid], dtype=np.int64))
        }
        spec = ConstraintSpec.build(ceilings={key: 0})
        result = constrained_select(index, spec, BUDGET)
        assert not members & set(result.selected)
        assert result.satisfied


class TestDegenerateClustering:
    def test_single_cluster_equals_plain_matrix_greedy(self):
        repo, instance, index = sweep_case(LBSWeights, SingleCoverage, 0)
        spec = ConstraintSpec.build(
            clusters=ClusterSpec(method="kmeans", k=1, seed=0)
        )
        clustered = constrained_select(index, spec, BUDGET)
        plain = greedy_select(repo, instance, method="matrix")
        assert clustered.selected == plain.selected
        assert clustered.result.score == plain.score
        assert clustered.result.gains == plain.gains

    def test_k_above_population_is_clamped(self):
        _repo, _instance, index = sweep_case(IdenWeights, SingleCoverage, 1)
        spec = ConstraintSpec.build(
            clusters=ClusterSpec(method="kmeans", k=500, seed=0)
        )
        result = constrained_select(index, spec, BUDGET)
        assert len(result.selected) == BUDGET


class TestCustomizationComposition:
    def test_constraints_on_customized_index(self):
        """Fair floors compose with the §6 rescaled index: the native run
        on ``customized_index`` must match the oracle on the rescaled
        *instance* — same weights, same refusal to cross bounds."""
        _repo, instance, index = sweep_case(LBSWeights, SingleCoverage, 0)
        counts = np.diff(index.g_indptr)
        order = sorted(
            range(index.n_groups),
            key=lambda g: (-int(counts[g]), str(index.group_keys[g])),
        )
        priority_key = index.group_keys[order[1]]
        floor_key = index.group_keys[order[0]]
        feedback = CustomizationFeedback(
            priority=frozenset({priority_key})
        )
        cidx = customized_index(instance, feedback)
        assert cidx is not None
        cinstance = customized_instance(instance, feedback)
        spec = ConstraintSpec.build(floors={floor_key: 2})
        native = constrained_select(cidx, spec, BUDGET)
        selected, _gains, score = fair_select_oracle(
            cinstance, spec, BUDGET
        )
        assert native.selected == tuple(selected)
        assert native.result.score == score
        assert native.satisfied
        assert subset_score(cinstance, list(native.selected)) == score

    def test_non_vectorizable_index_rejected(self):
        from repro.core import instance_index
        from repro.core.weights import EBSWeights

        _repo, instance, _index = sweep_case(EBSWeights, SingleCoverage, 2)
        index = instance_index(instance)
        assert not index.vectorizable
        spec = ConstraintSpec.build()
        with pytest.raises(PodiumError, match="vectorizable"):
            constrained_select(index, spec, BUDGET)

"""Clustered-solver parity: CSR-native == pure-Python oracle, exactly.

The oracle receives the *same partition* decoded to user ids — the
partition itself (stratified buckets or k-means labels) is deterministic
given the spec, so native and oracle must agree on every seat count,
every per-cluster pick, the repair round and the exact combined score.
"""

import pytest

from repro.core import subset_score
from repro.core.weights import (
    IdenWeights,
    LBSWeights,
    PropCoverage,
    SingleCoverage,
)
from repro.constraints import (
    ClusterSpec,
    ConstraintSpec,
    constrained_select,
    partition_rows,
)

from ..oracles.constraints import clustered_select_oracle
from .conftest import sweep_case

WEIGHTS = (IdenWeights, LBSWeights)
COVERAGES = (SingleCoverage, PropCoverage)
SEEDS = (0, 1)
BUDGET = 6


def _oracle_partition(index, cluster_spec):
    return [
        (label, [str(index.users[r]) for r in rows])
        for label, rows in partition_rows(index, cluster_spec)
    ]


class TestClusteredParitySweep:
    @pytest.mark.parametrize("weight_cls", WEIGHTS)
    @pytest.mark.parametrize("coverage_cls", COVERAGES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("method", ("stratified", "kmeans"))
    def test_native_matches_oracle(
        self, weight_cls, coverage_cls, seed, method
    ):
        _repo, instance, index = sweep_case(weight_cls, coverage_cls, seed)
        cluster_spec = ClusterSpec(method=method, k=3, seed=0)
        spec = ConstraintSpec.build(clusters=cluster_spec)
        native = constrained_select(index, spec, BUDGET)
        selected, gains, score = clustered_select_oracle(
            instance, _oracle_partition(index, cluster_spec), BUDGET
        )
        assert native.selected == tuple(selected)
        assert native.result.gains == tuple(gains)
        assert native.result.score == score
        assert subset_score(instance, list(native.selected)) == score

    def test_cluster_report_covers_selection(self):
        _repo, _instance, index = sweep_case(LBSWeights, SingleCoverage, 0)
        spec = ConstraintSpec.build(
            clusters=ClusterSpec(method="stratified", k=4, seed=0)
        )
        result = constrained_select(index, spec, BUDGET)
        assert result.clusters is not None
        from_clusters = {
            u for report in result.clusters for u in report.selected
        }
        assert from_clusters | set(result.repair) == set(result.selected)
        assert sum(r.seats for r in result.clusters) <= BUDGET
        sizes = {r.label: r.size for r in result.clusters}
        assert all(size > 0 for size in sizes.values())

    def test_seats_follow_largest_remainder(self):
        _repo, _instance, index = sweep_case(IdenWeights, SingleCoverage, 0)
        from repro.baselines.stratified import proportional_apportionment

        cluster_spec = ClusterSpec(method="stratified", k=4, seed=0)
        partition = partition_rows(index, cluster_spec)
        expected = proportional_apportionment(
            [len(rows) for _label, rows in partition], BUDGET
        )
        spec = ConstraintSpec.build(clusters=cluster_spec)
        result = constrained_select(index, spec, BUDGET)
        reported = {r.label: r.seats for r in result.clusters}
        for (label, _rows), seats in zip(partition, expected):
            assert reported[label] == seats

    def test_deterministic_across_runs(self):
        _repo, _instance, index = sweep_case(LBSWeights, PropCoverage, 1)
        spec = ConstraintSpec.build(
            clusters=ClusterSpec(method="kmeans", k=3, seed=5)
        )
        first = constrained_select(index, spec, BUDGET)
        second = constrained_select(index, spec, BUDGET)
        assert first.selected == second.selected
        assert first.result.score == second.result.score

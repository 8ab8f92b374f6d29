"""Fair-solver parity sweep: CSR-native == pure-Python oracle, exactly.

Mirrors ``tests/core/test_backend_parity.py``: every weight × coverage
× seed combination must produce byte-identical selections, gains and
scores between :func:`fair_select_rows` (via :func:`constrained_select`)
and :func:`fair_select_oracle` (``tests/oracles/constraints.py``) — on
the in-RAM index AND on a memory-mapped ``.npz`` checkpoint of the same
index.
"""

import numpy as np
import pytest

from repro.core import open_index_npz, select_from_index, subset_score
from repro.core.persistence import save_index_npz
from repro.core.weights import (
    IdenWeights,
    LBSWeights,
    PropCoverage,
    SingleCoverage,
)
from repro.constraints import constrained_select

from ..oracles.constraints import fair_select_oracle
from .conftest import fair_spec_for, sweep_case

WEIGHTS = (IdenWeights, LBSWeights)
COVERAGES = (SingleCoverage, PropCoverage)
SEEDS = (0, 1)
BUDGET = 6


class TestFairParitySweep:
    @pytest.mark.parametrize("weight_cls", WEIGHTS)
    @pytest.mark.parametrize("coverage_cls", COVERAGES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_native_matches_oracle(self, weight_cls, coverage_cls, seed):
        _repo, instance, index = sweep_case(weight_cls, coverage_cls, seed)
        spec = fair_spec_for(index)
        native = constrained_select(index, spec, BUDGET)
        selected, gains, score = fair_select_oracle(instance, spec, BUDGET)
        assert native.selected == tuple(selected)
        assert native.result.gains == tuple(gains)
        assert native.result.score == score
        assert native.satisfied
        # The reported score is the exact unconstrained subset score.
        assert subset_score(instance, list(native.selected)) == score

    @pytest.mark.parametrize("weight_cls", WEIGHTS)
    @pytest.mark.parametrize("coverage_cls", COVERAGES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mapped_checkpoint_matches_in_ram(
        self, weight_cls, coverage_cls, seed, tmp_path
    ):
        _repo, _instance, index = sweep_case(weight_cls, coverage_cls, seed)
        spec = fair_spec_for(index)
        in_ram = constrained_select(index, spec, BUDGET)
        path = tmp_path / "index.npz"
        save_index_npz(index, path)
        mapped = open_index_npz(path)
        via_mapped = constrained_select(mapped, spec, BUDGET)
        assert via_mapped.selected == in_ram.selected
        assert via_mapped.result.score == in_ram.result.score
        assert via_mapped.result.gains == in_ram.result.gains

    @pytest.mark.parametrize("seed", SEEDS)
    def test_candidate_pool_respected(self, seed):
        repo, instance, index = sweep_case(LBSWeights, SingleCoverage, seed)
        pool = sorted(repo.user_ids)[:40]
        spec = fair_spec_for(index)
        native = constrained_select(index, spec, BUDGET, candidates=pool)
        selected, _gains, score = fair_select_oracle(
            instance, spec, BUDGET, candidates=pool
        )
        assert native.selected == tuple(selected)
        assert native.result.score == score
        assert set(native.selected) <= set(pool)


class TestFairBackends:
    def test_stochastic_full_ratio_is_exact(self):
        _repo, _instance, index = sweep_case(IdenWeights, SingleCoverage, 0)
        spec = fair_spec_for(index)
        exact = constrained_select(index, spec, BUDGET)
        sampled = constrained_select(
            index, spec, BUDGET, method="stochastic", sample_ratio=1.0
        )
        assert sampled.selected == exact.selected
        assert sampled.result.score == exact.result.score

    def test_stochastic_subsampled_stays_feasible(self):
        _repo, instance, index = sweep_case(LBSWeights, SingleCoverage, 1)
        spec = fair_spec_for(index)
        result = constrained_select(
            index,
            spec,
            BUDGET,
            method="stochastic",
            rng=np.random.default_rng(7),
            sample_ratio=0.5,
        )
        assert len(result.selected) == BUDGET
        assert result.satisfied
        assert (
            subset_score(instance, list(result.selected))
            == result.result.score
        )

    @pytest.mark.parametrize("shards", (1, 3))
    def test_sharded_fair_satisfies_floors(self, shards):
        _repo, instance, index = sweep_case(LBSWeights, PropCoverage, 0)
        spec = fair_spec_for(index)
        result = constrained_select(
            index, spec, BUDGET, method="sharded", shards=shards
        )
        assert len(result.selected) == BUDGET
        assert result.satisfied
        assert (
            subset_score(instance, list(result.selected))
            == result.result.score
        )

    def test_select_from_index_routes_constraints(self):
        _repo, _instance, index = sweep_case(IdenWeights, SingleCoverage, 0)
        spec = fair_spec_for(index)
        direct = constrained_select(index, spec, BUDGET)
        routed = select_from_index(index, BUDGET, constraints=spec)
        assert routed.selected == direct.selected
        assert routed.score == direct.result.score

    def test_unknown_method_rejected(self):
        from repro.core import PodiumError

        _repo, _instance, index = sweep_case(IdenWeights, SingleCoverage, 0)
        spec = fair_spec_for(index)
        with pytest.raises(PodiumError, match="unknown constrained"):
            constrained_select(index, spec, BUDGET, method="lazy")

"""Parity of the CSR-backed intrinsic coverage metrics with set loops.

``top_k_coverage`` and ``intersected_property_coverage`` run as
membership-mask arithmetic; the original set-loop implementations are
the oracles in ``tests/oracles/metrics.py`` and both must return
*identical* floats — the mask arithmetic performs the same exact
integer counts, so no tolerance is needed.
"""

import pytest

from repro.core import GroupingConfig, build_instance, build_simple_groups
from repro.datasets.synth import generate_profile_repository
from repro.metrics import (
    evaluate_intrinsic,
    intersected_property_coverage,
    top_k_coverage,
)

from ..oracles.metrics import (
    evaluate_intrinsic_oracle,
    intersected_property_coverage_oracle,
    top_k_coverage_oracle,
)


def _instance(seed, n_users=80, min_support=1):
    repo = generate_profile_repository(
        n_users=n_users, n_properties=40, mean_profile_size=12.0, seed=seed
    )
    groups = build_simple_groups(
        repo, GroupingConfig(min_support=min_support)
    )
    return repo, build_instance(repo, budget=6, groups=groups)


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("k", (5, 50, 200))
class TestCoverageParity:
    def test_top_k_coverage(self, seed, k):
        repo, instance = _instance(seed)
        selected = repo.user_ids[::7]
        assert top_k_coverage(
            instance, selected, k=k
        ) == top_k_coverage_oracle(instance, selected, k=k)

    def test_intersected_property_coverage(self, seed, k):
        repo, instance = _instance(seed)
        selected = repo.user_ids[::7]
        assert intersected_property_coverage(
            instance, selected, k=k
        ) == intersected_property_coverage_oracle(instance, selected, k=k)


class TestParityEdges:
    def test_examination_cap_applies_to_same_pairs(self):
        # A tiny cap truncates the row-major scan mid-way; both methods
        # must cut at the identical pair.
        repo, instance = _instance(3)
        selected = repo.user_ids[:10]
        for cap in (1, 5, 17):
            assert intersected_property_coverage(
                instance, selected, k=50, max_intersections=cap,
            ) == intersected_property_coverage_oracle(
                instance, selected, k=50, max_intersections=cap,
            )

    def test_empty_selection(self):
        _, instance = _instance(0)
        assert top_k_coverage(instance, [], k=10) == 0.0
        assert top_k_coverage_oracle(instance, [], k=10) == 0.0

    def test_full_report_parity(self):
        repo, instance = _instance(1)
        selected = repo.user_ids[:8]
        assert evaluate_intrinsic(
            instance, selected
        ) == evaluate_intrinsic_oracle(instance, selected)

"""Parallel experiment engine: determinism, seeding, spec rebuilds.

The engine's contract is that the *schedule never shows*: jobs=1 and
jobs=N produce byte-identical tables and per-repetition selections,
because every cell's randomness is derived from its identity via
``SeedSequence(entropy, spawn_key=(index,))`` and results are assembled
positionally.
"""

import numpy as np
import pytest

from repro.core.errors import PodiumError
from repro.experiments.engine import (
    ExperimentCell,
    InstanceSpec,
    benchmark_experiment_engine,
    cell_rng,
    make_selector,
    materialize_cached,
    run_cells,
    run_intrinsic_experiment,
)

SPEC = InstanceSpec(
    kind="profiles",
    n_users=120,
    dataset_seed=5,
    budget=5,
    min_support=2,
    n_properties=30,
    mean_profile_size=8.0,
)


class TestInstanceSpec:
    def test_materialize_builds_instance(self):
        built = SPEC.materialize()
        assert len(built.repository) == 120
        assert built.instance.budget == 5

    def test_materialize_is_deterministic(self):
        a, b = SPEC.materialize(), SPEC.materialize()
        assert a.repository.user_ids == b.repository.user_ids
        assert list(a.instance.groups.keys) == list(b.instance.groups.keys)

    def test_cache_returns_same_object(self):
        assert materialize_cached(SPEC) is materialize_cached(SPEC)

    def test_invalid_kind_rejected(self):
        with pytest.raises(PodiumError):
            InstanceSpec(kind="magic")
        with pytest.raises(PodiumError):
            InstanceSpec(kind="reviews", preset="imdb")
        with pytest.raises(PodiumError):
            InstanceSpec(kind="profiles", weight_scheme="Quadratic")


class TestSeeding:
    def test_spawn_key_matches_seedsequence_spawn(self):
        # The worker-side reconstruction must equal SeedSequence.spawn's
        # children — the documented seeding scheme.
        root = np.random.SeedSequence(42)
        children = root.spawn(5)
        for index in range(5):
            direct = np.random.default_rng(
                np.random.SeedSequence(entropy=42, spawn_key=(index,))
            )
            via_spawn = np.random.default_rng(children[index])
            assert direct.integers(1 << 30, size=8).tolist() == \
                via_spawn.integers(1 << 30, size=8).tolist()

    def test_cell_rng_modes(self):
        cell = ExperimentCell("timing", SPEC, ("random",), seed=(1, 2))
        raw = ExperimentCell(
            "timing", SPEC, ("random",), seed=(1, 2), seed_mode="raw"
        )
        assert cell_rng(cell) is not None
        assert (
            cell_rng(raw).integers(1 << 30)
            == np.random.default_rng((1, 2)).integers(1 << 30)
        )
        assert cell_rng(ExperimentCell("timing", SPEC, ())) is None
        with pytest.raises(PodiumError):
            cell_rng(
                ExperimentCell(
                    "timing", SPEC, (), seed=(1,), seed_mode="hash"
                )
            )

    def test_unknown_runner_and_selector_rejected(self):
        from repro.experiments.engine import run_cell

        with pytest.raises(PodiumError):
            run_cell(ExperimentCell("warp", SPEC, ()))
        with pytest.raises(PodiumError):
            make_selector("quantum")


class TestDeterminismAcrossJobs:
    def test_tables_and_selections_identical(self):
        results = [
            run_intrinsic_experiment(
                "engine determinism",
                SPEC,
                ("podium", "random", "distance"),
                repetitions=3,
                top_k=50,
                seed=9,
                jobs=jobs,
            )
            for jobs in (1, 2)
        ]
        serial, parallel = results
        assert serial.table.rows == parallel.table.rows
        assert serial.selections == parallel.selections
        # Per-repetition selections exist for the stochastic selector.
        assert len(serial.selections["random"]) == 3
        assert len(serial.selections["podium"]) == 1

    def test_repetitions_draw_distinct_streams(self):
        result = run_intrinsic_experiment(
            "distinct streams",
            SPEC,
            ("random",),
            repetitions=4,
            top_k=50,
            seed=9,
            jobs=1,
        )
        reps = result.selections["random"]
        assert len({tuple(r) for r in reps}) > 1

    def test_cells_run_in_order(self):
        cells = [
            ExperimentCell("timing", SPEC, ("random",), seed=(0, i))
            for i in range(4)
        ]
        assert len(run_cells(cells, jobs=2)) == 4


class TestEngineBench:
    def test_engine_reproduces_serial_eager_baseline(self):
        report = benchmark_experiment_engine(
            users=150, repetitions=2, jobs=2
        )
        baseline, *engine = report["rows"]
        assert report["warmup_seconds"] > 0
        assert baseline["mode"] == "serial-eager"
        assert report["baseline_selectors"][0] == "podium-eager"
        assert engine
        for row in engine:
            assert row["mode"] == "engine-vectorized"
            assert row["selections_match"] is True
            assert row["table_matches"] is True

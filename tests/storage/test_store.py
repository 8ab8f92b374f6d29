"""Durable store: snapshot + WAL recovery, validation, compaction.

The invariant under test throughout: reopening a data directory yields
the exact serving state the writer last acknowledged — same users, same
groups, same selection — regardless of where in the snapshot/WAL cycle
the process died.
"""

import json
import pytest

from repro.core.errors import DatasetError, StorageError, UnknownUserError
from repro.core.greedy import select_from_index
from repro.core.groups import (
    GroupingConfig,
    build_simple_groups,
    grouping_of,
)
from repro.core.index import instance_index
from repro.core.persistence import (
    index_source_path,
    load_index_npz,
    payload_checksum,
    save_index_npz,
)
from repro.core.profiles import UserProfile
from repro.core.updates import ProfileDelta, rebuild_instance
from repro.datasets.synth import generate_profile_repository
from repro.storage import (
    DurableRepositoryStore,
    SnapshotArtifact,
    inspect_data_dir,
    scan_wal,
)
from repro.service import PodiumService
from repro.storage.snapshot import current_snapshot_path

from ..oracles.groups import member_list_document

BUDGET = 4


@pytest.fixture()
def repo():
    return generate_profile_repository(
        n_users=80, n_properties=30, mean_profile_size=8.0, seed=11
    )


def _same_repository(a, b):
    if sorted(a.user_ids) != sorted(b.user_ids):
        return False
    return all(
        a.profile(u).scores == b.profile(u).scores for u in a.user_ids
    )


def _delta(repo, n=0):
    template = repo.profile(sorted(repo.user_ids)[0])
    return ProfileDelta(
        upserts=(UserProfile(f"new{n:03d}", dict(template.scores)),),
        removals=frozenset(),
    )


class TestLifecycle:
    def test_initialize_then_reopen(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        store.close()
        reopened = DurableRepositoryStore(tmp_path, fsync=False)
        assert _same_repository(reopened.repository, repo)
        assert reopened.replayed_records == 0
        reopened.close()

    def test_initialize_twice_rejected(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        with pytest.raises(StorageError, match="reset"):
            store.initialize(repo)
        store.close()

    def test_replay_after_crash_without_snapshot(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        for i in range(5):
            store.append_delta(_delta(repo, i))
        expected = store.repository
        store.close()  # no snapshot of the deltas: all 5 must replay
        reopened = DurableRepositoryStore(tmp_path, fsync=False)
        assert reopened.replayed_records == 5
        assert _same_repository(reopened.repository, expected)
        assert reopened.last_seq == 5
        reopened.close()

    def test_compact_empties_wal_and_keeps_numbering(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        for i in range(3):
            store.append_delta(_delta(repo, i))
        store.compact()
        assert store.stats()["wal_records_pending"] == 0
        store.close()
        reopened = DurableRepositoryStore(tmp_path, fsync=False)
        assert reopened.replayed_records == 0
        assert reopened.snapshot_seq == 3
        # Post-compaction appends continue the global numbering.
        assert reopened.append_delta(_delta(repo, 99)) == 4
        reopened.close()

    def test_reset_discards_history(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        store.append_delta(_delta(repo, 0))
        replacement = generate_profile_repository(
            n_users=10, n_properties=30, mean_profile_size=8.0, seed=12
        )
        store.reset(replacement)
        assert store.artifacts == {}
        store.close()
        reopened = DurableRepositoryStore(tmp_path, fsync=False)
        assert _same_repository(reopened.repository, replacement)
        assert reopened.replayed_records == 0
        reopened.close()


class TestValidation:
    def test_unknown_removal_rejected_before_wal_write(
        self, repo, tmp_path
    ):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        before = scan_wal(store.wal_path)
        with pytest.raises(UnknownUserError):
            store.append_delta(
                ProfileDelta(upserts=(), removals=frozenset({"ghost"}))
            )
        after = scan_wal(store.wal_path)
        assert len(after.records) == len(before.records)
        store.close()

    def test_log_delta_validates_too(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        with pytest.raises(UnknownUserError):
            store.log_delta(
                ProfileDelta(upserts=(), removals=frozenset({"ghost"}))
            )
        store.close()

    def test_malformed_buckets_rejected_before_wal_write(
        self, repo, tmp_path
    ):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        record = {"kind": "config", "config": {"name": "x"}, "buckets": {}}
        with pytest.raises(DatasetError, match="format"):
            store.log(record)
        assert store.last_seq == 0
        store.close()

    def test_unknown_record_kind_fails_replay(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        store._wal.append({"kind": "mystery"})
        store.close()
        with pytest.raises(StorageError, match="kind"):
            DurableRepositoryStore(tmp_path, fsync=False)


class TestArtifacts:
    def _artifact(self, repo):
        groups = build_simple_groups(repo, GroupingConfig(min_support=2))
        index = instance_index(rebuild_instance(groups, repo, BUDGET))
        return SnapshotArtifact(
            config={"budget": BUDGET},
            grouping=grouping_of(groups),
            index=index,
        )

    def test_selection_identical_after_reopen(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        artifact = self._artifact(repo)
        store.set_artifacts({"cfg": artifact})
        store.snapshot()
        want = select_from_index(artifact.index, BUDGET, method="matrix")
        store.close()

        reopened = DurableRepositoryStore(tmp_path, fsync=False)
        restored = reopened.artifacts["cfg"]
        assert restored.config == {"budget": BUDGET}
        assert restored.index is not None
        got = select_from_index(restored.index, BUDGET, method="matrix")
        assert got.selected == want.selected
        assert got.score == want.score
        reopened.close()

    def test_replay_drops_stale_indexes(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        store.set_artifacts({"cfg": self._artifact(repo)})
        store.snapshot()
        store.append_delta(_delta(repo, 0))  # post-snapshot churn
        expected_users = len(store.repository)
        store.close()

        reopened = DurableRepositoryStore(tmp_path, fsync=False)
        assert reopened.replayed_records == 1
        restored = reopened.artifacts["cfg"]
        assert restored.index is None  # incidence changed after snapshot
        assert "new000" in reopened.repository
        assert len(reopened.repository) == expected_users
        reopened.close()


class TestMappedArtifacts:
    def _store_with_snapshot(self, repo, tmp_path):
        groups = build_simple_groups(repo, GroupingConfig(min_support=2))
        index = instance_index(rebuild_instance(groups, repo, BUDGET))
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        store.set_artifacts(
            {
                "cfg": SnapshotArtifact(
                    config={"budget": BUDGET},
                    grouping=grouping_of(groups),
                    index=index,
                )
            }
        )
        store.snapshot()
        want = select_from_index(index, BUDGET, method="matrix")
        store.close()
        return want

    def test_reopen_maps_artifact_indexes(self, repo, tmp_path):
        want = self._store_with_snapshot(repo, tmp_path)
        reopened = DurableRepositoryStore(tmp_path, fsync=False)
        restored = reopened.artifacts["cfg"]
        assert index_source_path(restored.index) is not None  # mapped
        assert reopened.stats()["mapped_artifact_indexes"] == 1
        got = select_from_index(restored.index, BUDGET, method="matrix")
        assert got.selected == want.selected
        assert got.score == want.score
        reopened.close()

    def test_legacy_compressed_snapshot_loads_eagerly(self, repo, tmp_path):
        """Pre-migration snapshots (DEFLATE index members) still load:
        recovery transparently falls back to the eager reader instead of
        refusing to map."""
        want = self._store_with_snapshot(repo, tmp_path)
        snap = current_snapshot_path(tmp_path)
        index_path = snap / "index-cfg.npz"
        save_index_npz(
            load_index_npz(index_path), index_path, compressed=True
        )
        with pytest.warns(RuntimeWarning, match="DEFLATE-compressed"):
            reopened = DurableRepositoryStore(tmp_path, fsync=False)
        restored = reopened.artifacts["cfg"]
        assert restored.index is not None
        assert index_source_path(restored.index) is None  # eager fallback
        assert reopened.stats()["mapped_artifact_indexes"] == 0
        got = select_from_index(restored.index, BUDGET, method="matrix")
        assert got.selected == want.selected
        assert got.score == want.score
        reopened.close()


class TestGroupingFiles:
    """A snapshot stores each grouping as buckets; member lists in the
    earlier format still load."""

    def _serve_then_stop(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        service = PodiumService(store=store)
        service.load_repository(repo)
        want = service.select("default", budget=BUDGET, explain=False)
        store.close()
        return want, service.groups_for("default")

    def test_groups_file_holds_buckets_only(self, repo, tmp_path):
        self._serve_then_stop(repo, tmp_path)
        snap = current_snapshot_path(tmp_path)
        document = json.loads((snap / "groups-default.json").read_text())
        assert document["format"] == "podium-grouping-v1"
        for entry in document["groups"]:
            assert set(entry) == {"property", "bucket"}

    def test_member_list_groups_file_recovers_the_same_answers(
        self, repo, tmp_path
    ):
        want, groups = self._serve_then_stop(repo, tmp_path)
        snap = current_snapshot_path(tmp_path)
        legacy = member_list_document(groups)
        (snap / "groups-default.json").write_text(json.dumps(legacy))
        manifest = json.loads((snap / "manifest.json").read_text())
        manifest["configs"]["default"]["groups_crc32"] = payload_checksum(
            legacy
        )
        (snap / "manifest.json").write_text(json.dumps(manifest))

        reopened = DurableRepositoryStore(tmp_path, fsync=False)
        try:
            restarted = PodiumService(store=reopened)
            assert restarted.restore_artifacts() == ["default"]
            assert list(restarted.groups_for("default")) == list(groups)
            got = restarted.select("default", budget=BUDGET, explain=False)
            assert got == want
        finally:
            reopened.close()


class TestInspect:
    def test_inspect_reports_wal_and_snapshot(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        store.append_delta(_delta(repo, 0))
        store.close()
        summary = inspect_data_dir(tmp_path)
        assert summary["wal_records"] == 1
        assert summary["wal_last_seq"] == 1
        assert summary["replay_pending"] == 1
        assert summary["snapshot"]["n_users"] == len(repo)
        assert summary["snapshot"]["wal_seq"] == 0

    def test_inspect_empty_dir(self, tmp_path):
        summary = inspect_data_dir(tmp_path)
        assert summary["wal_records"] == 0
        assert summary["snapshot"] is None
        assert summary["replay_pending"] == 0

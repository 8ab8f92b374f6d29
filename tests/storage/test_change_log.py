"""Change-log records in storage: config records, the durable registry,
the in-memory log and the WAL tail read."""

import json

import pytest

from repro.core.errors import StorageError, UnknownUserError
from repro.core.profiles import UserProfile
from repro.core.updates import ProfileDelta
from repro.datasets.synth import generate_profile_repository
from repro.storage import (
    DurableRepositoryStore,
    MemoryLog,
    WriteAheadLog,
    config_record,
    current_snapshot_path,
    delta_record,
    inspect_data_dir,
    load_snapshot,
    snapshot_state_from_dict,
    snapshot_state_to_dict,
)
from repro.storage import wal as wal_module

LATE = {"name": "late", "weight_scheme": "Iden", "budget": 3}


@pytest.fixture()
def repo():
    return generate_profile_repository(
        n_users=30, n_properties=8, mean_profile_size=4.0, seed=2
    )


def _delta(n):
    return ProfileDelta(upserts=(UserProfile(f"new{n}", {"p0": 0.5}),))


class TestConfigRecords:
    def test_replay_registers_and_drops_the_artifact(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        store.append_delta(_delta(0))
        seq = store.append(config_record(LATE))
        assert seq == 2 and store.configurations == {"late": LATE}
        store.close()

        reopened = DurableRepositoryStore(tmp_path, fsync=False)
        assert reopened.replayed_records == 2
        assert reopened.configurations == {"late": LATE}
        assert "new0" in reopened.repository
        reopened.close()

    def test_registry_survives_compaction(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        store.append(config_record(LATE))
        store.compact()
        store.close()

        reopened = DurableRepositoryStore(tmp_path, fsync=False)
        assert reopened.replayed_records == 0
        assert reopened.configurations == {"late": LATE}
        reopened.close()

    def test_reset_keeps_the_registry(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        store.append(config_record(LATE))
        store.reset(repo)
        assert store.configurations == {"late": LATE}
        store.close()
        reopened = DurableRepositoryStore(tmp_path, fsync=False)
        assert reopened.configurations == {"late": LATE}
        reopened.close()

    def test_snapshot_without_registry_loads(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        store.append(config_record(LATE))
        store.compact()
        store.close()
        manifest_path = current_snapshot_path(tmp_path) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["registry"]  # as written before it was durable
        manifest_path.write_text(json.dumps(manifest))

        state = load_snapshot(current_snapshot_path(tmp_path))
        assert state.configurations == {}
        assert len(state.repository) == len(repo)

    def test_log_refuses_unapplyable_records(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        with pytest.raises(StorageError, match="kind"):
            store.log({"kind": "mystery"})
        with pytest.raises(UnknownUserError):
            store.log(delta_record(ProfileDelta(removals=frozenset({"x"}))))
        assert store.last_seq == 0
        store.close()

    def test_handoff_document_carries_the_registry(self, repo, tmp_path):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        store.append(config_record(LATE))
        store.snapshot()
        state = load_snapshot(current_snapshot_path(tmp_path))
        document = json.loads(json.dumps(snapshot_state_to_dict(state)))
        assert snapshot_state_from_dict(document).configurations == {
            "late": LATE
        }
        store.close()

    def test_inspect_reports_registry_and_pending_kinds(
        self, repo, tmp_path
    ):
        store = DurableRepositoryStore(tmp_path, fsync=False)
        store.initialize(repo)
        store.append(config_record(LATE))
        store.snapshot()
        store.append_delta(_delta(0))
        store.append_delta(_delta(1))
        store.append(config_record({**LATE, "name": "later"}))
        store.close()
        summary = inspect_data_dir(tmp_path)
        assert summary["snapshot"]["registry"] == ["late"]
        assert summary["replay_pending"] == 3
        assert summary["replay_pending_by_kind"] == {"delta": 2, "config": 1}


class TestMemoryLog:
    def test_reads_like_the_wal(self):
        log = MemoryLog()
        for n in range(3):
            assert log.append(delta_record(_delta(n))) == n + 1
        records, last_seq, resync = log.records_since(1, limit=1)
        assert [r.seq for r in records] == [2]
        assert (last_seq, resync) == (3, False)
        assert log.records_since(3) == ((), 3, False)

    def test_overflow_is_a_resync(self):
        log = MemoryLog(capacity=2)
        for n in range(4):
            log.append(delta_record(_delta(n)))
        assert log.records_since(0) == ((), 4, True)
        assert [r.seq for r in log.records_since(2)[0]] == [3, 4]

    def test_reset_starts_an_epoch_and_keeps_numbering(self):
        log = MemoryLog()
        log.append(delta_record(_delta(0)))
        log.reset()
        assert log.reset_epoch == 1
        assert log.records_since(0) == ((), 1, True)
        assert log.append(delta_record(_delta(1))) == 2

    def test_a_reader_ahead_of_the_log_resyncs(self):
        log = MemoryLog()
        assert log.records_since(5) == ((), 0, True)


class _CountingFile:
    def __init__(self, handle, counter):
        self._handle = handle
        self._counter = counter

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def seek(self, offset):
        return self._handle.seek(offset)

    def read(self, *args):
        data = self._handle.read(*args)
        self._counter.append(len(data))
        return data


def test_tail_read_from_the_tip_reads_only_new_bytes(tmp_path, monkeypatch):
    wal = WriteAheadLog(tmp_path / "wal.log", fsync=False)
    for n in range(20):
        wal.append({"kind": "delta", "n": n, "pad": "x" * 200})
    records, _ = wal.read_since(0, limit=100)
    assert len(records) == 20  # the read hint now sits at the tip
    before = wal.size_bytes
    wal.append({"kind": "delta", "n": 20})
    appended = wal.size_bytes - before

    read = []
    monkeypatch.setattr(
        wal_module,
        "open",
        lambda path, mode: _CountingFile(open(path, mode), read),
        raising=False,
    )
    records, last_seq = wal.read_since(20)
    assert [r.seq for r in records] == [21] and last_seq == 21
    assert sum(read) == appended
    wal.close()

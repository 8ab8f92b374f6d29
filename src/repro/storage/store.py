"""Durable repository store: snapshot + write-ahead log + replay.

:class:`DurableRepositoryStore` is the facade the serving layer and the
CLI talk to.  On open it recovers the newest snapshot (if any), then
replays every WAL record with a sequence number past the snapshot's
``wal_seq`` — through the *same* incremental-update code the live path
uses (:func:`apply_delta_to_repository` + :func:`reassign_groups`), so a
recovered process holds byte-identical serving state.

A WAL record is a profile delta or a configuration put, which registers
the definition and drops the name's frozen artifact.

Durability contract: :meth:`log` validates a record against the current
state and writes it to the WAL (fsync by default); :meth:`append` then
applies it in memory.  The WAL therefore never contains a record that
cannot be replayed, and a change is acknowledged only once it is on
disk.  Compaction folds the applied log into a fresh snapshot and
truncates the WAL; sequence numbering survives compaction and restarts.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any

from ..core.errors import StorageError, UnknownUserError
from ..core.persistence import index_source_path
from ..core.profiles import UserRepository
from ..core.triplestore import find_triple_stores, inspect_triple_store
from ..core.updates import (
    ProfileDelta,
    apply_delta_to_repository,
    profile_delta_from_dict,
    profile_delta_to_dict,
    reassign_groups,
)
from .faults import REAL_FS, FilesystemShim
from .snapshot import (
    SnapshotArtifact,
    SnapshotState,
    current_snapshot_path,
    load_snapshot,
    write_snapshot,
)
from .wal import WalRecord, WriteAheadLog, scan_wal, tail_window

#: The record kinds of every change log (WAL, in-memory log, shipping).
KIND_DELTA = "delta"
KIND_CONFIG = "config"


def delta_record(delta: ProfileDelta) -> dict[str, Any]:
    """The change-log record of a profile delta."""
    return {"kind": KIND_DELTA, "delta": profile_delta_to_dict(delta)}


def config_record(config: dict[str, Any]) -> dict[str, Any]:
    """The change-log record of a configuration put (its ``to_dict``)."""
    return {"kind": KIND_CONFIG, "config": config}


class DurableRepositoryStore:
    """Crash-safe repository state rooted at one data directory.

    Layout: ``<data_dir>/wal.log`` plus ``<data_dir>/snapshots/`` (see
    :mod:`repro.storage.snapshot`).  All mutation goes through this
    object; callers serialize concurrent writers (the service holds its
    write lock around :meth:`append_delta`), but the store also carries
    its own lock so CLI tooling is safe standalone.
    """

    def __init__(
        self,
        data_dir: str | Path,
        fsync: bool = True,
        fs: FilesystemShim | None = None,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._fs = fs if fs is not None else REAL_FS
        self._lock = threading.RLock()

        started = time.monotonic()
        snapshot_path = current_snapshot_path(self.data_dir)
        if snapshot_path is not None:
            state = load_snapshot(snapshot_path)
        else:
            state = SnapshotState(repository=UserRepository(()))
        self.repository = state.repository
        self.artifacts: dict[str, SnapshotArtifact] = dict(state.artifacts)
        #: The registered configurations (name -> config dict).
        self.configurations: dict[str, dict[str, Any]] = dict(
            state.configurations
        )
        self.generation = state.generation
        self.snapshot_seq = state.wal_seq
        # Counts wholesale epoch replacements (reset) this process
        # performed.  Sequence numbering survives a reset, so this
        # counter is what tells a replication follower that history was
        # rewritten and a contiguous tail no longer means convergence.
        self.reset_epoch = 0

        self._wal = WriteAheadLog(self.wal_path, fsync=fsync, fs=self._fs)
        if self._wal.last_seq < state.wal_seq:
            # Post-compaction restart: the log was truncated after the
            # snapshot; resume global numbering from the snapshot.
            self._wal.truncate(base_seq=state.wal_seq)
        self.replayed_records = 0
        for record in self._wal.records():
            if record.seq <= state.wal_seq:
                continue  # already folded into the snapshot
            self._apply(record.payload)
            self.replayed_records += 1
        if self.replayed_records:
            # Any cached indexes in the snapshot predate the replayed
            # deltas; drop them rather than serve stale incidence.
            self.artifacts = {
                name: SnapshotArtifact(a.config, a.groups, index=None)
                for name, a in self.artifacts.items()
            }
        self.replay_seconds = time.monotonic() - started

    # -- recovery ----------------------------------------------------------

    @property
    def wal_path(self) -> Path:
        return self.data_dir / "wal.log"

    @property
    def fsync(self) -> bool:
        return self._wal.fsync

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable record."""
        return self._wal.last_seq

    def _check(self, payload: dict[str, Any]) -> None:
        """Refuse a record that replay could not apply (lock held)."""
        kind = payload.get("kind")
        if kind not in (KIND_DELTA, KIND_CONFIG):
            raise StorageError(f"unknown WAL record kind {kind!r}")
        for user_id in (payload.get("delta") or {}).get("removals", ()):
            if user_id not in self.repository:
                raise UnknownUserError(
                    f"cannot remove unknown user {user_id!r}"
                )

    def _apply(self, payload: dict[str, Any]) -> None:
        """Apply a record to the in-memory state (lock held)."""
        kind = payload.get("kind")
        if kind == KIND_CONFIG:
            config = dict(payload["config"])
            self.configurations[config["name"]] = config
            self.artifacts.pop(config["name"], None)
        elif kind == KIND_DELTA:
            delta = profile_delta_from_dict(payload.get("delta") or {})
            self.repository = apply_delta_to_repository(
                self.repository, delta
            )
            self.artifacts = {
                name: SnapshotArtifact(
                    a.config,
                    reassign_groups(a.groups, self.repository, delta),
                    index=None,  # incidence changed; caller rebuilds lazily
                )
                for name, a in self.artifacts.items()
            }
        else:
            raise StorageError(f"unknown WAL record kind {kind!r}")
        self.generation += 1

    # -- writing -----------------------------------------------------------

    def initialize(self, repository: UserRepository) -> None:
        """Seed an empty store with a full repository (first boot).

        Writes an immediate snapshot so the repository is durable before
        any delta arrives.  Raises if the store already holds users —
        wholesale replacement must go through :meth:`reset` so the
        caller is explicit about discarding history.
        """
        with self._lock:
            if len(self.repository) or self.snapshot_seq or self.last_seq:
                raise StorageError(
                    "store already holds data; use reset() to replace it"
                )
            self.repository = repository
            self.generation += 1
            self.snapshot()

    def log(self, payload: dict[str, Any]) -> int:
        """Durably log a record WITHOUT applying it; returns its sequence.

        The serving layer applies the record itself, exactly once, then
        mirrors its state back via :meth:`adopt`.  The record is first
        validated against the store's state, so the WAL never holds an
        unapplyable record.
        """
        with self._lock:
            self._check(payload)
            return self._wal.append(payload)

    def append(self, payload: dict[str, Any]) -> int:
        """Durably log then apply one record; returns its sequence."""
        with self._lock:
            seq = self.log(payload)
            self._apply(payload)
            return seq

    def append_delta(self, delta: ProfileDelta) -> int:
        """Durably log then apply one delta; returns its sequence number."""
        return self.append(delta_record(delta))

    def log_delta(self, delta: ProfileDelta) -> int:
        """Durably log a delta without applying it (see :meth:`log`)."""
        return self.log(delta_record(delta))

    def adopt(
        self,
        repository: UserRepository | None,
        artifacts: dict[str, SnapshotArtifact] | None = None,
        configurations: dict[str, dict[str, Any]] | None = None,
    ) -> None:
        """Mirror the serving layer's post-apply state into the store.

        Pairs with :meth:`log`: the service applies the logged record
        through its own cache-refresh path and hands the resulting
        repository, artifacts and registry back (``None`` keeps the
        store's), so snapshots capture exactly what is being served.
        """
        with self._lock:
            if repository is not None:
                self.repository = repository
            if artifacts is not None:
                self.artifacts = dict(artifacts)
            if configurations is not None:
                self.configurations = dict(configurations)
            self.generation += 1

    def set_artifacts(
        self, artifacts: dict[str, SnapshotArtifact]
    ) -> None:
        """Adopt the serving layer's built artifacts for future snapshots."""
        with self._lock:
            self.artifacts = dict(artifacts)

    def snapshot(self) -> Path:
        """Write the current state as the live snapshot (WAL kept)."""
        with self._lock:
            path = write_snapshot(
                self.data_dir,
                SnapshotState(
                    repository=self.repository,
                    artifacts=self.artifacts,
                    configurations=self.configurations,
                    wal_seq=self.last_seq,
                    generation=self.generation,
                ),
                fs=self._fs,
            )
            self.snapshot_seq = self.last_seq
            return path

    def compact(self) -> Path:
        """Fold the WAL into a fresh snapshot and truncate the log."""
        with self._lock:
            path = self.snapshot()
            self._wal.truncate()
            return path

    def reset(
        self,
        repository: UserRepository,
        base_seq: int | None = None,
        artifacts: dict[str, SnapshotArtifact] | None = None,
        configurations: dict[str, dict[str, Any]] | None = None,
    ) -> None:
        """Replace the repository wholesale (new epoch).

        The previous history is discarded: artifacts are replaced by
        ``artifacts`` (the group sets the caller will serve for the new
        population; none by default), the registry by ``configurations``
        (kept when ``None``), a fresh snapshot makes the new
        state durable, and only then is the WAL truncated.
        Snapshot-before-truncate is the crash-safety point: the snapshot
        captures ``wal_seq == last_seq``, so every pre-reset WAL record
        is ``<= snapshot_seq`` and skipped on replay — a crash anywhere
        in between recovers the *new* epoch, never the replaced
        population over an already-emptied log.

        ``base_seq`` lets a replication follower adopt the primary's
        sequence numbering before its own appends continue it.
        """
        with self._lock:
            self.repository = repository
            self.artifacts = dict(artifacts or {})
            if configurations is not None:
                self.configurations = dict(configurations)
            self.generation += 1
            self.reset_epoch += 1
            if base_seq is not None:
                self._wal.truncate(base_seq=int(base_seq))
            self.snapshot()
            self._wal.truncate()

    def records_since(
        self, from_seq: int, limit: int = 512
    ) -> tuple[tuple[WalRecord, ...], int, bool]:
        """WAL records past ``from_seq`` for a replication follower.

        Returns ``(records, last_seq, resync)``; see
        :func:`~repro.storage.wal.tail_window` for when ``resync`` is
        set and the follower must fall back to a full state transfer.
        """
        records, last_seq = self._wal.read_since(from_seq, limit=limit)
        return tail_window(records, from_seq, last_seq)

    def close(self) -> None:
        self._wal.close()

    def release_after_fork(self) -> None:
        """Drop the inherited WAL descriptor in a forked worker process.

        Deliberately lock-free: the fork may have happened while a
        parent thread held ``self._lock`` (that thread does not exist in
        the child), so taking locks here could deadlock.  The child
        never writes through this store — it only needs to stop sharing
        the WAL file offset with the parent.
        """
        self._wal.release_fd()

    def __enter__(self) -> "DurableRepositoryStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Storage gauges for ``/metrics`` and ``repro store inspect``."""
        with self._lock:
            return {
                "data_dir": str(self.data_dir),
                "fsync": self.fsync,
                "generation": self.generation,
                "reset_epoch": self.reset_epoch,
                "wal_seq": self.last_seq,
                "wal_bytes": self._wal.size_bytes,
                "wal_records_pending": self.last_seq - self.snapshot_seq,
                "wal_truncated_bytes_on_open": self._wal.truncated_bytes,
                "snapshot_seq": self.snapshot_seq,
                "replayed_records": self.replayed_records,
                "replay_seconds": self.replay_seconds,
                "n_users": len(self.repository),
                "configs": sorted(self.artifacts),
                "registry": sorted(self.configurations),
                "mapped_artifact_indexes": sum(
                    1
                    for a in self.artifacts.values()
                    if a.index is not None
                    and index_source_path(a.index) is not None
                ),
            }


def inspect_data_dir(data_dir: str | Path) -> dict[str, Any]:
    """Read-only summary of a data directory (no recovery, no writes)."""
    data_dir = Path(data_dir)
    wal = scan_wal(data_dir / "wal.log")
    summary: dict[str, Any] = {
        "data_dir": str(data_dir),
        "wal_records": len(wal.records),
        "wal_bytes": wal.valid_bytes,
        "wal_torn_bytes": wal.torn_bytes,
        "wal_last_seq": wal.last_seq,
        "snapshot": None,
    }
    path = current_snapshot_path(data_dir)
    snapshot_seq = 0
    if path is not None:
        state = load_snapshot(path)
        snapshot_seq = state.wal_seq
        summary["snapshot"] = {
            "path": str(path),
            "wal_seq": state.wal_seq,
            "generation": state.generation,
            "n_users": len(state.repository),
            "configs": sorted(state.artifacts),
            "registry": sorted(state.configurations),
        }
    pending = [r for r in wal.records if r.seq > snapshot_seq]
    summary["replay_pending"] = len(pending)
    summary["replay_pending_by_kind"] = dict(
        Counter(str(r.payload.get("kind")) for r in pending)
    )
    stores = [
        inspect_triple_store(store_dir)
        for store_dir in find_triple_stores(data_dir)
    ]
    if stores:
        summary["triple_stores"] = stores
    return summary

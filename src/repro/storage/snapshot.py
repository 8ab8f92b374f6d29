"""Point-in-time snapshots of the durable repository state.

A snapshot is a directory under ``<data_dir>/snapshots/`` holding
everything the serving layer needs to answer selections exactly as it
did before a restart:

.. code-block:: text

    snapshots/
      CURRENT              # name of the live snapshot directory
      snap-000000000042/
        manifest.json      # generation, wal_seq, registry, per-config metadata
        profiles.json      # full repository (podium-profiles-v1)
        groups-<name>.json # grouping per configuration (podium-grouping-v1)
        index-<name>.npz   # optional cached CSR index per configuration

Groupings (kept buckets, no members) are part of the snapshot because
restart-identical selection depends on them: boundaries a regroup draws
drift as the population changes.  Members derive from the grouping and
the repository (:func:`~repro.core.groups.groups_from_grouping`); a
``groups-*.json`` with member lists (``podium-groups-v1``) still loads.

Writes are atomic *and power-loss safe*: every staged file is written
and fsynced, the stage directory is fsynced, the stage is renamed to a
final directory name that is never reused (re-snapshots at the same
sequence get a ``.N`` suffix instead of deleting the live directory
first), the rename is made durable with a directory fsync, and only
then does ``CURRENT`` flip (its temp file fsynced before the
``os.replace``).  A crash at any point leaves either the old
``CURRENT`` or the new one — never a pointer to a half-written,
half-synced or deleted directory.  Should a legacy layout still present
a dangling pointer, loading falls back to the newest snapshot directory
that carries a manifest.

All state-changing syscalls go through the injectable filesystem shim
(:mod:`.faults`), which is how the chaos harness proves the ordering
above actually holds at every crash point.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.errors import DatasetError, StorageError
from ..core.groups import Grouping
from ..core.index import InstanceIndex
from ..core.persistence import (
    CHECKPOINT_VERSION,
    grouping_from_dict,
    grouping_to_dict,
    index_npz_mappable,
    load_index_npz,
    open_index_npz,
    payload_checksum,
    save_index_npz,
)
from ..core.profiles import UserRepository
from ..datasets.io import profiles_from_dict, profiles_to_dict
from .faults import REAL_FS, FilesystemShim

_MANIFEST_FORMAT = "podium-snapshot-v1"
_CURRENT = "CURRENT"
_SNAP_PREFIX = "snap-"


@dataclass(frozen=True)
class SnapshotArtifact:
    """One configuration's frozen serving state inside a snapshot."""

    config: dict[str, Any]  # DiversificationConfiguration.to_dict()
    grouping: Grouping
    index: InstanceIndex | None = None


@dataclass
class SnapshotState:
    """Everything a snapshot captures (also the recovery result shape)."""

    repository: UserRepository
    artifacts: dict[str, SnapshotArtifact] = field(default_factory=dict)
    #: The registry: configuration name -> config dict.
    configurations: dict[str, dict[str, Any]] = field(default_factory=dict)
    wal_seq: int = 0
    generation: int = 0


def snapshot_state_to_dict(state: SnapshotState) -> dict[str, Any]:
    """The JSON handoff form of a state (indexes and generation left out).

    Uses the serializers the snapshot files do: the repository as a
    ``podium-profiles-v1`` document, each artifact as its config dict
    plus its grouping, and the registry as a list of config dicts.  A
    receiver derives members and rebuilds indexes, as recovery does
    after a WAL replay.
    """
    return {
        "configurations": list(state.configurations.values()),
        "profiles": profiles_to_dict(state.repository),
        "artifacts": {
            name: {
                "config": artifact.config,
                "groups": grouping_to_dict(artifact.grouping),
            }
            for name, artifact in state.artifacts.items()
        },
        "wal_seq": state.wal_seq,
    }


def snapshot_state_from_dict(document: dict[str, Any]) -> SnapshotState:
    """Rebuild a state serialized by :func:`snapshot_state_to_dict`.

    A document without ``artifacts`` (an older sender) decodes to a
    state with no groupings: the receiver regroups.
    """
    return SnapshotState(
        configurations={
            str(doc["name"]): dict(doc)
            for doc in document.get("configurations") or ()
        },
        repository=profiles_from_dict(document["profiles"]),
        artifacts={
            name: SnapshotArtifact(
                config=dict(doc.get("config") or {}),
                grouping=grouping_from_dict(doc["groups"]),
            )
            for name, doc in (document.get("artifacts") or {}).items()
        },
        wal_seq=int(document.get("wal_seq", 0)),
    )


def snapshots_dir(data_dir: str | Path) -> Path:
    return Path(data_dir) / "snapshots"


def _snap_name(wal_seq: int) -> str:
    return f"{_SNAP_PREFIX}{wal_seq:012d}"


def current_snapshot_path(data_dir: str | Path) -> Path | None:
    """Resolve the live snapshot directory, or ``None`` if there is none.

    A damaged pointer — empty, torn, or naming a directory that no
    longer exists (the pre-fix re-snapshot path could delete the live
    directory before renaming its replacement in) — falls back to the
    newest snapshot directory holding a manifest, because only committed
    snapshots survive pruning.  Recovery raises only when no usable
    snapshot exists at all.
    """
    root = snapshots_dir(data_dir)
    pointer = root / _CURRENT
    if not pointer.exists():
        return None
    name = pointer.read_text().strip()
    path = root / name
    if name.startswith(_SNAP_PREFIX) and path.is_dir():
        return path
    fallback = _newest_valid_snapshot(root)
    if fallback is None:
        raise StorageError(
            f"snapshot pointer {pointer} names missing or invalid "
            f"snapshot {name!r} and no other snapshot is recoverable"
        )
    warnings.warn(
        f"snapshot pointer {pointer} names missing or invalid snapshot "
        f"{name!r}; falling back to {fallback.name}",
        RuntimeWarning,
        stacklevel=2,
    )
    return fallback


def _snap_sort_key(name: str) -> tuple[int, int]:
    """Order snapshot names by (sequence, re-snapshot suffix)."""
    body = name[len(_SNAP_PREFIX):]
    seq_text, _, suffix = body.partition(".")
    try:
        seq = int(seq_text)
    except ValueError:
        seq = -1
    try:
        revision = int(suffix) if suffix else 0
    except ValueError:
        revision = 0
    return (seq, revision)


def _newest_valid_snapshot(root: Path) -> Path | None:
    """Newest ``snap-*`` directory that still holds a manifest."""
    candidates = sorted(
        (
            entry
            for entry in root.iterdir()
            if entry.name.startswith(_SNAP_PREFIX)
            and entry.is_dir()
            and (entry / "manifest.json").is_file()
        ),
        key=lambda entry: _snap_sort_key(entry.name),
    )
    return candidates[-1] if candidates else None


def write_snapshot(
    data_dir: str | Path,
    state: SnapshotState,
    fs: FilesystemShim | None = None,
) -> Path:
    """Atomically write ``state`` as the new live snapshot.

    Crash-safety ordering (each step durable before the next):

    1. stage every payload file, then fsync each one *and* the stage
       directory — a crash after the later pointer flip must never
       leave ``CURRENT`` naming a directory whose file contents were
       still sitting in the page cache;
    2. rename the stage to a never-before-used final name (re-snapshots
       at the same sequence take a ``.N`` suffix rather than deleting
       the live directory — the old snapshot stays intact until the new
       pointer is durable) and fsync the snapshots root;
    3. write the pointer's temp file, fsync it, ``os.replace`` it over
       ``CURRENT``, and fsync the root again — the commit point;
    4. prune superseded snapshot directories and stale stage leftovers.
       A crash during pruning at worst leaves orphans that the next
       snapshot removes.

    Returns the final snapshot directory.
    """
    fs = fs if fs is not None else REAL_FS
    root = snapshots_dir(data_dir)
    root.mkdir(parents=True, exist_ok=True)
    name = _snap_name(state.wal_seq)
    revision = 0
    while (root / name).exists():
        revision += 1
        name = f"{_snap_name(state.wal_seq)}.{revision}"
    final = root / name
    stage = root / f".tmp-{name}"
    if stage.exists():
        fs.rmtree(stage)
    stage.mkdir()

    fs.write_bytes(
        stage / "profiles.json",
        json.dumps(profiles_to_dict(state.repository)).encode(),
    )
    configs: dict[str, dict[str, Any]] = {}
    for cfg_name, artifact in state.artifacts.items():
        groups_doc = grouping_to_dict(artifact.grouping)
        fs.write_bytes(
            stage / f"groups-{cfg_name}.json", json.dumps(groups_doc).encode()
        )
        has_index = False
        if artifact.index is not None and artifact.index.vectorizable:
            # Stored (uncompressed) members so recovery can memory-map
            # the CSR payload straight out of the archive; forked
            # serving workers then share one page-cache copy.  The
            # write goes through the fault shim like every other staged
            # file (direct streaming only in production, where the shim
            # is REAL_FS and an in-memory archive copy buys nothing).
            save_index_npz(
                artifact.index,
                stage / f"index-{cfg_name}.npz",
                compressed=False,
                fs=None if fs is REAL_FS else fs,
            )
            has_index = True
        configs[cfg_name] = {
            "config": artifact.config,
            "groups_crc32": payload_checksum(groups_doc),
            "has_index": has_index,
        }

    manifest = {
        "format": _MANIFEST_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "generation": state.generation,
        "wal_seq": state.wal_seq,
        "n_users": len(state.repository),
        "created_unix": time.time(),
        "registry": list(state.configurations.values()),
        "configs": configs,
    }
    fs.write_bytes(
        stage / "manifest.json", json.dumps(manifest, indent=1).encode()
    )

    # Durability point of the payload: every staged file's *content*
    # must be on disk before any rename makes the directory reachable.
    for staged in sorted(stage.iterdir()):
        fs.fsync_path(staged)
    fs.fsync_dir(stage)

    fs.replace(stage, final)
    fs.fsync_dir(root)

    pointer = root / _CURRENT
    tmp_pointer = root / f".{_CURRENT}.tmp"
    fs.write_bytes(tmp_pointer, (name + "\n").encode())
    fs.fsync_path(tmp_pointer)
    fs.replace(tmp_pointer, pointer)
    fs.fsync_dir(root)

    for entry in root.iterdir():
        stale_stage = (
            entry.name.startswith(".tmp-") and entry.name != stage.name
        )
        superseded = (
            entry.name.startswith(_SNAP_PREFIX) and entry.name != name
        )
        if stale_stage or superseded:
            try:
                fs.rmtree(entry)
            except OSError:
                pass  # orphan: the next snapshot retries
    return final


def load_snapshot(path: str | Path) -> SnapshotState:
    """Load a snapshot directory written by :func:`write_snapshot`.

    Each configuration's index is opened fully lazily via
    :func:`~repro.core.persistence.open_index_npz` (after checksum
    verification): CSR payload, integer arrays *and* the user-id array
    become read-only memory maps of the snapshot file.  Snapshots
    written by this version store the arrays uncompressed exactly so
    this works; legacy DEFLATE-compressed snapshots fall back to the
    eager :func:`~repro.core.persistence.load_index_npz` with a
    ``RuntimeWarning``.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(
            f"snapshot {path} has a missing or invalid manifest: {exc}"
        ) from exc
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise StorageError(
            f"snapshot {path}: expected format {_MANIFEST_FORMAT!r}, "
            f"got {manifest.get('format')!r}"
        )
    version = manifest.get("format_version")
    if not isinstance(version, int) or version > CHECKPOINT_VERSION:
        raise StorageError(
            f"snapshot {path} format_version {version!r} is newer than "
            f"this reader (supports <= {CHECKPOINT_VERSION})"
        )
    try:
        repository = profiles_from_dict(
            json.loads((path / "profiles.json").read_text())
        )
    except (OSError, json.JSONDecodeError, DatasetError) as exc:
        raise StorageError(
            f"snapshot {path} has unreadable profiles: {exc}"
        ) from exc

    artifacts: dict[str, SnapshotArtifact] = {}
    for cfg_name, meta in manifest.get("configs", {}).items():
        groups_path = path / f"groups-{cfg_name}.json"
        try:
            groups_doc = json.loads(groups_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(
                f"snapshot {path} has unreadable groups for "
                f"{cfg_name!r}: {exc}"
            ) from exc
        stored_crc = meta.get("groups_crc32")
        if stored_crc is not None:
            actual = payload_checksum(groups_doc)
            if stored_crc != actual:
                raise StorageError(
                    f"snapshot {path} group checksum mismatch for "
                    f"{cfg_name!r} (stored {stored_crc}, computed {actual})"
                )
        index = None
        if meta.get("has_index"):
            index_path = path / f"index-{cfg_name}.npz"
            try:
                if index_npz_mappable(index_path):
                    index = open_index_npz(index_path)
                else:
                    index = load_index_npz(index_path)
                    warnings.warn(
                        f"snapshot index {index_path} has "
                        f"DEFLATE-compressed members and cannot be "
                        f"memory-mapped; loaded it eagerly.  The next "
                        f"snapshot rewrites it uncompressed.",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            except DatasetError as exc:
                raise StorageError(
                    f"snapshot {path} has a corrupt index for "
                    f"{cfg_name!r}: {exc}"
                ) from exc
        artifacts[cfg_name] = SnapshotArtifact(
            config=dict(meta.get("config") or {}),
            grouping=grouping_from_dict(groups_doc),
            index=index,
        )
    return SnapshotState(
        repository=repository,
        artifacts=artifacts,
        # Manifests written before the registry was durable have none.
        configurations={
            str(doc["name"]): doc for doc in manifest.get("registry", ())
        },
        wal_seq=int(manifest.get("wal_seq", 0)),
        generation=int(manifest.get("generation", 0)),
    )

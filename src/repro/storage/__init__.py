"""Durable storage & streaming maintenance for the serving layer.

Write-ahead log (:mod:`.wal`), atomic snapshots (:mod:`.snapshot`), the
recovering store facade (:mod:`.store`), the streaming selection
maintainer (:mod:`.maintainer`) and the injectable filesystem shim the
chaos harness drives faults through (:mod:`.faults`).
"""

from .faults import (
    REAL_FS,
    CrashFS,
    FaultPlan,
    FilesystemShim,
    SimulatedCrash,
)
from .maintainer import StreamingMaintainer
from .snapshot import (
    SnapshotArtifact,
    SnapshotState,
    current_snapshot_path,
    load_snapshot,
    snapshot_state_from_dict,
    snapshot_state_to_dict,
    write_snapshot,
)
from .store import DurableRepositoryStore, inspect_data_dir
from .wal import WalRecord, WalScan, WriteAheadLog, scan_wal

__all__ = [
    "REAL_FS",
    "CrashFS",
    "DurableRepositoryStore",
    "FaultPlan",
    "FilesystemShim",
    "SimulatedCrash",
    "SnapshotArtifact",
    "SnapshotState",
    "StreamingMaintainer",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "current_snapshot_path",
    "inspect_data_dir",
    "load_snapshot",
    "scan_wal",
    "snapshot_state_from_dict",
    "snapshot_state_to_dict",
    "write_snapshot",
]

"""Durable storage & streaming maintenance for the serving layer.

Write-ahead log and its in-memory twin (:mod:`.wal`), atomic snapshots
(:mod:`.snapshot`), the recovering store facade and its record kinds
(:mod:`.store`), the streaming selection maintainer (:mod:`.maintainer`)
and the injectable filesystem shim the chaos harness drives faults
through (:mod:`.faults`).
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
from .store import (
    KIND_CONFIG,
    KIND_DELTA,
    DurableRepositoryStore,
    config_record,
    delta_record,
    inspect_data_dir,
)
from .wal import MemoryLog, WalRecord, WalScan, WriteAheadLog, scan_wal

__all__ = [
    "KIND_CONFIG",
    "KIND_DELTA",
    "MemoryLog",
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
    "config_record",
    "current_snapshot_path",
    "delta_record",
    "inspect_data_dir",
    "load_snapshot",
    "scan_wal",
    "snapshot_state_from_dict",
    "snapshot_state_to_dict",
    "write_snapshot",
]

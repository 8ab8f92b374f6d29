"""Append-only write-ahead log of JSON records.

The durable ingestion path (paper §9: Podium "may be easily executed
multiple times, e.g., to incorporate data updates") acknowledges a
profile delta only after it is on disk.  The log is a single append-only
file of length-prefixed, CRC-checksummed records:

.. code-block:: text

    record := length  : uint32 big-endian   (payload byte count)
              crc32   : uint32 big-endian   (CRC32 of the payload bytes)
              payload : `length` bytes of UTF-8 JSON

A crash can only damage the *tail* of the file (appends are sequential
and earlier bytes are never rewritten), so recovery scans records from
the start and stops at the first one that is short or fails its CRC —
everything before it is intact by construction.  :class:`WriteAheadLog`
truncates that torn tail on open, which restores the append invariant:
the file always ends on a record boundary.

Records carry monotonically increasing sequence numbers (stored inside
the payload envelope) so replay can be resumed from a snapshot's
sequence number and duplicates/regressions are detected loudly.

``fsync`` is on by default — an acknowledged append survives the
process *and* the OS dying.  ``fsync=False`` trades that for raw
throughput (the bytes still leave the process on every append via
``flush``; only the OS page cache is trusted), which the ingest bench
quantifies.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from ..core.errors import StorageError
from .faults import REAL_FS, FilesystemShim

_HEADER = struct.Struct(">II")  # (payload length, payload crc32)

#: Upper bound on a single record's payload; a corrupt length prefix
#: decoding to something absurd is treated as a torn tail, not an
#: attempted multi-gigabyte allocation.
MAX_RECORD_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class WalRecord:
    """One recovered log record: sequence number + JSON payload."""

    seq: int
    payload: dict[str, Any]
    offset: int  # file offset the record starts at
    length: int  # total on-disk size (header + payload)


@dataclass(frozen=True)
class WalScan:
    """Outcome of scanning a log file: intact records + torn-tail info."""

    records: tuple[WalRecord, ...]
    valid_bytes: int
    torn_bytes: int

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else 0


def _encode(seq: int, payload: dict[str, Any]) -> bytes:
    body = json.dumps(
        {"seq": seq, **payload}, sort_keys=True, separators=(",", ":")
    ).encode()
    return _HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


def _decode_records(
    data: bytes, base: int, after_seq: int, path: Path
) -> Iterator[WalRecord]:
    """Yield the intact records of ``data`` (file offset ``base``).

    The first short, implausible, CRC-failing or undecodable record ends
    the iteration: a torn or in-flight tail.  A sequence number not
    above its predecessor's (``after_seq`` for the first) is a real
    corruption of the writer protocol and raises :class:`StorageError`.
    """
    offset = 0
    last_seq = after_seq
    while offset + _HEADER.size <= len(data):
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        if length > MAX_RECORD_BYTES or start + length > len(data):
            return
        body = data[start:start + length]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            return
        try:
            payload = json.loads(body.decode())
            seq = int(payload.pop("seq"))
        except (ValueError, KeyError, UnicodeDecodeError):
            return
        if seq <= last_seq:
            raise StorageError(
                f"WAL {path} sequence regression at offset "
                f"{base + offset}: {seq} after {last_seq}"
            )
        yield WalRecord(
            seq=seq,
            payload=payload,
            offset=base + offset,
            length=_HEADER.size + length,
        )
        last_seq = seq
        offset = start + length


def scan_wal(path: str | Path) -> WalScan:
    """Scan a WAL file, returning every intact record and the torn tail.

    The scan never raises on damage: everything from the first damaged
    record on is reported as ``torn_bytes``.  Sequence regressions
    *within the intact prefix*, however, raise :class:`StorageError`.
    """
    path = Path(path)
    if not path.exists():
        return WalScan(records=(), valid_bytes=0, torn_bytes=0)
    data = path.read_bytes()
    records = tuple(_decode_records(data, 0, 0, path))
    valid = records[-1].offset + records[-1].length if records else 0
    return WalScan(
        records=records, valid_bytes=valid, torn_bytes=len(data) - valid
    )


def tail_window(
    records: tuple[WalRecord, ...] | list[WalRecord],
    from_seq: int,
    last_seq: int,
) -> tuple[tuple[WalRecord, ...], int, bool]:
    """``(records, last_seq, resync)`` for a read past ``from_seq``;
    ``resync`` when the records do not continue ``from_seq`` (dropped by
    compaction, a reset or overflow, or the reader is ahead of the log).
    """
    first = records[0].seq if records else last_seq + 1
    if first != from_seq + 1:
        return (), last_seq, True
    return tuple(records), last_seq, False


class WriteAheadLog:
    """Append-only, crash-safe record log.

    Opening scans the existing file, truncates any torn tail and
    positions the writer after the last intact record.  Appends are
    serialized by an internal lock, flushed, and (by default) fsynced
    before the new sequence number is returned — the durability point
    the service acknowledges deltas at.
    """

    def __init__(
        self,
        path: str | Path,
        fsync: bool = True,
        fs: FilesystemShim | None = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._fs = fs if fs is not None else REAL_FS
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        scan = scan_wal(self.path)
        self.truncated_bytes = scan.torn_bytes
        if scan.torn_bytes:
            self._fs.truncate_file(self.path, scan.valid_bytes)
        self._last_seq = scan.last_seq
        self._bytes = scan.valid_bytes
        self._handle = open(self.path, "ab")
        # Resume hint for sequential tail readers (WAL shipping): the
        # (seq, offset) record boundary the previous read_since ended at.
        self._read_hint: tuple[int, int] = (0, 0)

    # -- introspection -----------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable record (0 when empty)."""
        return self._last_seq

    @property
    def size_bytes(self) -> int:
        """Bytes of intact records currently in the log."""
        return self._bytes

    # -- writing -----------------------------------------------------------

    def append(self, payload: dict[str, Any]) -> int:
        """Durably append one record; returns its sequence number.

        The payload must be a JSON object; ``seq`` is reserved for the
        log's own envelope.

        A failed append (``ENOSPC`` mid-write, a torn device write)
        never corrupts the log: the tail is rolled back to the last
        intact record boundary before the error propagates, so
        ``last_seq`` does not advance and the *next* append lands on a
        clean boundary instead of burying itself behind garbage bytes
        that recovery would treat as the torn tail.
        """
        if "seq" in payload:
            raise StorageError("payload field 'seq' is reserved by the WAL")
        with self._lock:
            if self._handle.closed:
                raise StorageError(f"WAL {self.path} is closed")
            seq = self._last_seq + 1
            record = _encode(seq, payload)
            try:
                self._fs.file_write(self._handle, record)
                if self.fsync:
                    self._fs.file_fsync(self._handle)
            except OSError:
                self._heal_tail()
                raise
            self._last_seq = seq
            self._bytes += len(record)
            return seq

    def _heal_tail(self) -> None:
        """Roll a partially-written record back off the log (lock held).

        Best effort by necessity — on a full disk even the truncate can
        fail, but truncation releases space rather than consuming it, so
        in practice the tail is restored and the logical state
        (``last_seq``, ``size_bytes``) stays at the last acknowledged
        record either way.
        """
        try:
            self._handle.close()
        except OSError:
            pass
        try:
            self._fs.truncate_file(self.path, self._bytes)
        except OSError:
            pass
        self._handle = open(self.path, "ab")

    def truncate(self, base_seq: int | None = None) -> None:
        """Drop every record (log compaction).

        ``base_seq`` restarts numbering after the snapshot that made the
        records disposable, so post-compaction appends continue the
        pre-compaction sequence; defaults to the current ``last_seq``.
        """
        with self._lock:
            if self._handle.closed:
                raise StorageError(f"WAL {self.path} is closed")
            self._handle.close()
            self._fs.truncate_file(self.path, 0)
            self._handle = open(self.path, "ab")
            self._last_seq = (
                self._last_seq if base_seq is None else int(base_seq)
            )
            self._bytes = 0
            self._read_hint = (0, 0)

    def advance_seq(self, seq: int) -> None:
        """Raise the sequence counter to at least ``seq``.

        Used after recovery from a snapshot whose ``wal_seq`` outruns the
        (compacted, empty) log, so post-recovery appends continue the
        global numbering instead of restarting at 1.  Only legal on an
        empty log — renumbering around existing records would corrupt
        the replay order.
        """
        with self._lock:
            if seq <= self._last_seq:
                return
            if self._bytes:
                raise StorageError(
                    f"cannot advance WAL sequence to {seq}: log still "
                    f"holds records up to {self._last_seq}"
                )
            self._last_seq = int(seq)

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                if self.fsync:
                    self._fs.file_fsync(self._handle)
                self._handle.close()

    def release_fd(self) -> None:
        """Close the underlying descriptor without flushing or locking.

        For forked children that inherited the log open: the parent owns
        the file offset and buffered state, and the child must not touch
        either (its copy of ``self._lock`` may be held by a thread that
        did not survive the fork).  The Python file object is left as-is
        — the child never appends, and child exit goes through
        ``os._exit`` so no finalizer will trip over the dead fd.
        """
        try:
            os.close(self._handle.fileno())
        except (OSError, ValueError):
            pass

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def records(self) -> Iterator[WalRecord]:
        """Re-scan the on-disk log (used by inspect/replay tooling)."""
        yield from scan_wal(self.path).records

    # -- tail reading (WAL shipping) ----------------------------------------

    def read_since(
        self, from_seq: int, limit: int = 512
    ) -> tuple[tuple[WalRecord, ...], int]:
        """Records with ``seq > from_seq`` (at most ``limit``), plus the
        newest sequence number known.

        Reads the on-disk file independently of the writer handle, so a
        reader can tail the log while appends are in flight (an append's
        bytes appear atomically at the tail; a half-flushed record
        parses as torn and is simply picked up by the next poll).
        Sequential pollers read O(new bytes): the read seeks to the
        record boundary the previous call ended at whenever that
        boundary is at or before ``from_seq``.
        """
        with self._lock:
            hint_seq, hint_offset = self._read_hint
            known_last = self._last_seq
        start_seq, offset = (
            (hint_seq, hint_offset) if hint_seq <= from_seq else (0, 0)
        )
        try:
            with open(self.path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except OSError:
            return (), known_last
        records: list[WalRecord] = []
        boundary = (start_seq, offset)
        for record in _decode_records(data, offset, start_seq, self.path):
            boundary = (record.seq, record.offset + record.length)
            if record.seq > from_seq:
                records.append(record)
                if len(records) == limit:
                    break
        with self._lock:
            # Only advance the hint: truncation resets it under the same
            # lock, and a stale racing reader must not resurrect it.
            if boundary[1] > self._read_hint[1] and boundary[1] <= (
                self._bytes
            ):
                self._read_hint = boundary
            known_last = self._last_seq
        return tuple(records), max(known_last, boundary[0])


class MemoryLog:
    """The change log of a store-less pool writer: bounded, in memory,
    with the WAL's records and the store's ``records_since`` API.
    Records evicted past ``capacity`` read as ``resync``, the signal a
    compacted WAL gives."""

    def __init__(self, capacity: int = 1024) -> None:
        self._records: deque[WalRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.last_seq = 0
        #: Wholesale replacements so far; sequence numbers survive them.
        self.reset_epoch = 0

    def append(self, payload: dict[str, Any]) -> int:
        with self._lock:
            self.last_seq += 1
            self._records.append(
                WalRecord(self.last_seq, payload, offset=0, length=0)
            )
            return self.last_seq

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
            self.reset_epoch += 1

    def records_since(
        self, from_seq: int, limit: int = 512
    ) -> tuple[tuple[WalRecord, ...], int, bool]:
        with self._lock:
            records = [r for r in self._records if r.seq > from_seq]
            return tail_window(records[:limit], from_seq, self.last_seq)

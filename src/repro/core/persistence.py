"""Checkpointing the grouping module's output (paper §7, Fig. 1).

The grouping module runs "in an offline process"; its output is worth
persisting so the selection module can restart without re-bucketing.
:func:`group_set_to_dict` / :func:`group_set_from_dict` serialize a
frozen group set to plain JSON (a snapshot stores one per
configuration, checksummed with :func:`payload_checksum`).

The CSR arrays of a large instance are tens of megabytes of integers
that JSON would serialize as text and rebuild through Python objects.
:func:`save_index_npz` / :func:`load_index_npz` round-trip an
:class:`~repro.core.index.InstanceIndex` through one ``.npz`` file
instead: the arrays are stored verbatim (no recompute on load, no
re-derivation of groups), user ids and group keys as fixed-width
unicode arrays, so a saved index selects byte-identically after reload.
"""

from __future__ import annotations

import io
import json
import struct
import zipfile
import zlib
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # circular at runtime: storage builds on core
    from ..storage.faults import FilesystemShim

from .buckets import Bucket
from .errors import DatasetError
from .groups import Group, GroupKey, GroupSet
from .index import InstanceIndex

_GROUPS_FORMAT = "podium-groups-v1"
_INDEX_FORMAT = "podium-index-npz-v1"

#: Checkpoint-envelope version written by :func:`save_index_npz`.
#: Readers accept this version and the legacy header-less files of
#: version 1; anything newer fails with a clear error instead of a
#: cryptic decode failure.
CHECKPOINT_VERSION = 2


def payload_checksum(payload: dict[str, Any]) -> int:
    """CRC32 of a JSON payload in canonical (sorted, compact) form.

    Canonicalization makes the checksum independent of key order and
    whitespace, so any JSON writer produces the same digest for the same
    logical document.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode()
    return zlib.crc32(canonical) & 0xFFFFFFFF


def _bucket_to_dict(bucket: Bucket | None) -> dict[str, Any] | None:
    if bucket is None:
        return None
    return {
        "lo": bucket.lo,
        "hi": bucket.hi,
        "label": bucket.label,
        "closed_hi": bucket.closed_hi,
    }


def _bucket_from_dict(data: dict[str, Any] | None) -> Bucket | None:
    if data is None:
        return None
    return Bucket(
        lo=float(data["lo"]),
        hi=float(data["hi"]),
        label=str(data["label"]),
        closed_hi=bool(data["closed_hi"]),
    )


def group_set_to_dict(groups: GroupSet) -> dict[str, Any]:
    """Serialize a group set (keys, members, buckets, labels)."""
    return {
        "format": _GROUPS_FORMAT,
        "groups": [
            {
                "property": g.key.property_label,
                "bucket_label": g.key.bucket_label,
                "members": sorted(g.members),
                "bucket": _bucket_to_dict(g.bucket),
                "label": g.label,
            }
            for g in groups
        ],
    }


def group_set_from_dict(document: dict[str, Any]) -> GroupSet:
    """Rebuild a group set serialized by :func:`group_set_to_dict`."""
    if document.get("format") != _GROUPS_FORMAT:
        raise DatasetError(
            f"expected format {_GROUPS_FORMAT!r}, got {document.get('format')!r}"
        )
    try:
        return GroupSet(
            Group(
                GroupKey(str(g["property"]), str(g["bucket_label"])),
                frozenset(g["members"]),
                _bucket_from_dict(g.get("bucket")),
                str(g.get("label", "")),
            )
            for g in document["groups"]
        )
    except (KeyError, TypeError) as exc:
        raise DatasetError(f"malformed group document: {exc}") from exc


def _index_checksum(arrays: dict[str, np.ndarray]) -> int:
    """CRC32 over the index's array payload in a fixed name order.

    Each array contributes its name, dtype, shape and raw bytes, so a
    silent dtype or shape flip is caught alongside bit corruption.
    """
    crc = 0
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        header = f"{name}:{array.dtype.str}:{array.shape}:".encode()
        crc = zlib.crc32(array.tobytes(), zlib.crc32(header, crc))
    return crc & 0xFFFFFFFF


def save_index_npz(
    index: InstanceIndex,
    path: str | Path,
    compressed: bool = False,
    fs: "FilesystemShim | None" = None,
) -> None:
    """Write an :class:`InstanceIndex` checkpoint as one ``.npz`` file.

    Everything needed to reconstruct the index exactly is stored —
    including ``wei``/``initial_gains`` and the ``vectorizable`` flag, so
    loading never recomputes the big-int mass check.  A format-version
    header and a CRC32 over every stored array guard the load path.
    Non-vectorizable indexes (EBS big-ints) are rejected: their exact
    weights live in the instance, not the index.

    The default stores the arrays verbatim (``ZIP_STORED`` members) so
    :func:`open_index_npz` can memory-map them in place — the layout the serving tier depends on, where N forked
    workers share one page-cache copy of the CSR payload instead of N
    private heap copies.  Pass ``compressed=True`` for DEFLATE members
    when the checkpoint is an archival/transfer artifact and mapping
    does not matter.

    .. note:: **Migration.** Checkpoints written before the default
       flipped (DEFLATE-compressed) still load through
       :func:`load_index_npz`; only :func:`open_index_npz` requires
       stored members.  Re-save once with the new default to make an
       old checkpoint mappable.

    ``fs`` routes the final write through an injectable filesystem shim
    (:class:`~repro.storage.faults.FilesystemShim`): the archive is
    assembled in memory and lands on disk via one ``fs.write_bytes``
    call, so the chaos harness can tear or crash an index write exactly
    like any other durable-tier file.  ``None`` (the default, and the
    right choice for out-of-core checkpoints) streams straight to
    ``path`` with no in-memory copy of the archive.
    """
    if not index.vectorizable:
        raise DatasetError(
            "only vectorizable indexes can be saved as .npz; big-int "
            "weights are not array-representable — persist the instance "
            "as JSON instead"
        )
    assert index.wei is not None and index.initial_gains is not None
    arrays = {
        "users": np.asarray(index.users, dtype=np.str_),
        "key_property": np.asarray(
            [k.property_label for k in index.group_keys], dtype=np.str_
        ),
        "key_bucket": np.asarray(
            [k.bucket_label for k in index.group_keys], dtype=np.str_
        ),
        "u_indptr": index.u_indptr,
        "u_indices": index.u_indices,
        "g_indptr": index.g_indptr,
        "g_indices": index.g_indices,
        "cov": index.cov,
        "wei": index.wei,
        "initial_gains": index.initial_gains,
    }
    writer = np.savez if not compressed else np.savez_compressed
    envelope = {
        "format": np.asarray(_INDEX_FORMAT),
        "format_version": np.asarray(CHECKPOINT_VERSION, dtype=np.int64),
        "payload_crc32": np.asarray(
            _index_checksum(arrays), dtype=np.uint32
        ),
    }
    if fs is None:
        writer(Path(path), **envelope, **arrays)
        return
    # np.savez accepts any file-like with write(): build the archive in
    # memory, then let the shim make the single write (and its faults)
    # visible to the chaos harness.
    buffer = io.BytesIO()
    writer(buffer, **envelope, **arrays)
    fs.write_bytes(Path(path), buffer.getvalue())


#: Array members of an index ``.npz``: the CSR topology and integer
#: payloads.
_ARRAY_MEMBERS = (
    "u_indptr",
    "u_indices",
    "g_indptr",
    "g_indices",
    "cov",
    "wei",
    "initial_gains",
)

_ZIP_LOCAL_HEADER = struct.Struct("<4s22xHH")  # magic, name len, extra len


def _stored_member_layouts(
    path: Path, wanted: tuple[str, ...]
) -> dict[str, tuple[int, np.dtype, tuple[int, ...], bool]]:
    """Locate uncompressed ``.npy`` members inside an ``.npz`` archive.

    ``.npz`` is a ZIP archive; a member written by :func:`np.savez` is a
    ``ZIP_STORED`` (uncompressed) ``.npy`` file sitting at a computable
    byte offset.  For every requested member that is stored verbatim,
    returns ``(data_offset, dtype, shape, fortran_order)`` — enough to
    either :class:`np.memmap` the array in place or stream its raw bytes
    with bounded memory.  Missing or compressed members are simply
    absent from the result (the caller decides whether that is a
    fallback or an error).
    """
    layouts: dict[str, tuple[int, np.dtype, tuple[int, ...], bool]] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for name in wanted:
            try:
                info = archive.getinfo(f"{name}.npy")
            except KeyError:
                continue
            if info.compress_type != zipfile.ZIP_STORED:
                continue  # deflated member: not mappable / streamable
            raw.seek(info.header_offset)
            header = raw.read(_ZIP_LOCAL_HEADER.size)
            magic, name_len, extra_len = _ZIP_LOCAL_HEADER.unpack(header)
            if magic != b"PK\x03\x04":
                raise DatasetError(
                    f"index checkpoint {path} has a corrupt ZIP member "
                    f"header for {name!r}"
                )
            npy_start = (
                info.header_offset
                + _ZIP_LOCAL_HEADER.size
                + name_len
                + extra_len
            )
            raw.seek(npy_start)
            version = np.lib.format.read_magic(raw)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(
                    raw
                )
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(
                    raw
                )
            else:  # pragma: no cover — numpy writes 1.0/2.0 only
                continue
            layouts[name] = (raw.tell(), dtype, tuple(shape), fortran)
    return layouts


def _mmap_npz_members(
    path: Path, wanted: tuple[str, ...]
) -> dict[str, np.ndarray]:
    """Memory-map the uncompressed ``.npy`` members of an ``.npz`` file.

    The array data of a ``ZIP_STORED`` member is mapped read-only
    straight out of the archive with :class:`np.memmap` — no
    decompression, no heap copy, and the pages are shared between every
    process that maps the same file.  Members that turn out to be
    compressed are skipped (the caller reports them).
    """
    mapped: dict[str, np.ndarray] = {}
    for name, (offset, dtype, shape, fortran) in _stored_member_layouts(
        path, wanted
    ).items():
        if dtype.hasobject:
            continue  # object arrays cannot be mapped
        mapped[name] = np.memmap(
            path,
            mode="r",
            dtype=dtype,
            shape=shape,
            order="F" if fortran else "C",
            offset=offset,
        )
    return mapped


#: ``.npz`` members that are checkpoint metadata, not array payload —
#: excluded from the payload checksum.
_ENVELOPE_MEMBERS = ("format", "format_version", "payload_crc32")


def streamed_index_checksum(
    path: str | Path, chunk_bytes: int = 1 << 22
) -> int:
    """Recompute an index checkpoint's payload CRC32 with bounded memory.

    Replays exactly what :func:`_index_checksum` computes over the
    in-memory arrays — per member (in sorted name order) the
    ``name:dtype:shape:`` header followed by the raw array bytes — but
    reads ``ZIP_STORED`` members straight off disk in ``chunk_bytes``
    slices, so a multi-gigabyte checkpoint verifies without ever being
    resident.  Compressed members (legacy checkpoints) are decompressed
    whole as a fallback.
    """
    path = Path(path)
    with zipfile.ZipFile(path) as archive:
        names = sorted(
            info.filename[:-4]
            for info in archive.infolist()
            if info.filename.endswith(".npy")
        )
    names = [name for name in names if name not in _ENVELOPE_MEMBERS]
    layouts = _stored_member_layouts(path, tuple(names))
    crc = 0
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for name in names:
            layout = layouts.get(name)
            if layout is None:  # compressed member: no streamable layout
                with archive.open(f"{name}.npy") as member:
                    array = np.lib.format.read_array(
                        member, allow_pickle=False
                    )
                array = np.ascontiguousarray(array)
                header = f"{name}:{array.dtype.str}:{array.shape}:".encode()
                crc = zlib.crc32(array.tobytes(), zlib.crc32(header, crc))
                continue
            offset, dtype, shape, _fortran = layout
            header = f"{name}:{dtype.str}:{shape}:".encode()
            crc = zlib.crc32(header, crc)
            remaining = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            raw.seek(offset)
            while remaining > 0:
                data = raw.read(min(chunk_bytes, remaining))
                if not data:
                    raise DatasetError(
                        f"index checkpoint {path} is truncated inside "
                        f"member {name!r}"
                    )
                crc = zlib.crc32(data, crc)
                remaining -= len(data)
    return crc & 0xFFFFFFFF


def load_index_npz(path: str | Path) -> InstanceIndex:
    """Read an index checkpoint written by :func:`save_index_npz` eagerly.

    The CSR arrays come back verbatim (dtypes included), so selections
    over the loaded index are byte-identical to the original's.  The
    format version and array checksum are verified first (clear
    :class:`DatasetError` on mismatch); legacy header-less ``.npz``
    checkpoints still load, and so do DEFLATE-compressed ones — the
    reader for checkpoints :func:`open_index_npz` cannot map.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        if str(data["format"]) != _INDEX_FORMAT:
            raise DatasetError(
                f"expected format {_INDEX_FORMAT!r}, "
                f"got {str(data['format'])!r}"
            )
        if "format_version" in data.files:
            version = int(data["format_version"])
            if version > CHECKPOINT_VERSION:
                raise DatasetError(
                    f"index checkpoint format_version {version} is newer "
                    f"than this reader (supports <= {CHECKPOINT_VERSION}); "
                    f"upgrade to load it"
                )
            stored = int(data["payload_crc32"])
            arrays = {
                name: data[name]
                for name in data.files
                if name not in ("format", "format_version", "payload_crc32")
            }
            actual = _index_checksum(arrays)
            if stored != actual:
                raise DatasetError(
                    f"index checkpoint checksum mismatch (stored {stored}, "
                    f"computed {actual}): the file is corrupted or truncated"
                )
        users = tuple(str(u) for u in data["users"])
        group_keys = tuple(
            GroupKey(str(p), str(b))
            for p, b in zip(data["key_property"], data["key_bucket"])
        )
        arrays = {name: data[name] for name in _ARRAY_MEMBERS}
    return InstanceIndex(
        users=users,
        user_pos={u: i for i, u in enumerate(users)},
        group_keys=group_keys,
        group_pos={key: gid for gid, key in enumerate(group_keys)},
        u_indptr=arrays["u_indptr"],
        u_indices=arrays["u_indices"],
        g_indptr=arrays["g_indptr"],
        g_indices=arrays["g_indices"],
        cov=arrays["cov"],
        wei=arrays["wei"],
        initial_gains=arrays["initial_gains"],
        vectorizable=True,
    )


class LazyUserIds(Sequence):
    """Read-only user-id sequence over a memory-mapped unicode array.

    Stands in for the eager ``tuple[str, ...]`` on lazily opened
    indexes: ``len``, indexing, slicing and iteration behave
    identically, but ids are decoded only when asked for.  At 5M users
    the eager tuple (plus its inverse dict) costs on the order of a
    gigabyte of heap — most of the out-of-core RSS budget — while this
    wrapper holds a single mmap reference.
    """

    __slots__ = ("_ids",)

    def __init__(self, ids: np.ndarray) -> None:
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, item):  # type: ignore[override]
        if isinstance(item, slice):
            return tuple(str(u) for u in self._ids[item])
        return str(self._ids[item])

    def __iter__(self):
        for u in self._ids:
            yield str(u)

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"LazyUserIds(n={len(self._ids)})"


class SortedIdPositions(Mapping):
    """``user_pos`` stand-in: binary search over the sorted id array.

    Index checkpoints store user ids sorted ascending (that is the row
    order of the CSR), so the id→row dict can be replaced by
    :func:`np.searchsorted` against the mapped array — O(log n) per
    lookup, zero resident copies.  Selection resolves a handful of ids
    per pick, so the log factor is invisible next to the gain scans.
    """

    __slots__ = ("_ids",)

    def __init__(self, ids: np.ndarray) -> None:
        self._ids = ids

    def get(self, key, default=None):
        ids = self._ids
        if not isinstance(key, str) or len(ids) == 0:
            return default
        if len(key) > ids.dtype.itemsize // 4:
            # Longer than any stored id: casting for searchsorted would
            # truncate and could produce a false hit.
            return default
        pos = int(np.searchsorted(ids, key))
        if pos < len(ids) and str(ids[pos]) == key:
            return pos
        return default

    def __getitem__(self, key):
        pos = self.get(key)
        if pos is None:
            raise KeyError(key)
        return pos

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return (str(u) for u in self._ids)


#: Members :func:`open_index_npz` maps instead of loading: the CSR
#: topology, the integer payloads and the fixed-width user-id array.
_LAZY_MEMBERS = _ARRAY_MEMBERS + ("users",)

#: Attribute attached to lazily opened indexes recording the checkpoint
#: they were mapped from, so shard workers can re-open the same file
#: instead of pickling the index across the fork boundary.
_SOURCE_PATH_ATTR = "_source_path"


def index_source_path(index: InstanceIndex) -> str | None:
    """Checkpoint path a lazily opened index was mapped from, if any."""
    return getattr(index, _SOURCE_PATH_ATTR, None)


def index_npz_mappable(path: str | Path) -> bool:
    """Whether :func:`open_index_npz` can fully map this checkpoint.

    True iff every large member (CSR topology, integer payloads and the
    user-id array) is ``ZIP_STORED``.  Legacy DEFLATE-compressed
    checkpoints return False — callers fall back to
    :func:`load_index_npz` for those instead of letting
    :func:`open_index_npz` raise.  Probe failures (missing file, not a
    ZIP) also return False so the eager loader reports the real error.
    """
    try:
        layouts = _stored_member_layouts(Path(path), _LAZY_MEMBERS)
    except (OSError, zipfile.BadZipFile, DatasetError):
        return False
    return all(name in layouts for name in _LAZY_MEMBERS)


def open_index_npz(path: str | Path, verify: bool = True) -> InstanceIndex:
    """Open an uncompressed index checkpoint fully memory-mapped.

    :func:`load_index_npz` loads every member eagerly (the ``np.load``
    pass plus the id tuple and its inverse dict), which at millions of
    users costs more transient heap than the selection it serves.  This
    opener never materializes the payload: the small envelope and
    group-key members are read eagerly, every large member (user ids
    included) is memory-mapped in place,
    ``index.users`` becomes a :class:`LazyUserIds` sequence and
    ``index.user_pos`` a :class:`SortedIdPositions` binary-search
    mapping.  Resident cost is O(groups), independent of the user count.

    Requires the checkpoint to have been written uncompressed
    (``save_index_npz(..., compressed=False)`` or
    :func:`~repro.core.external.build_index_external`); compressed
    members raise a :class:`DatasetError` instead of silently ballooning
    the heap.  ``verify=True`` replays the payload CRC32 with
    bounded-memory streaming reads before anything is mapped.
    """
    path = Path(path)
    with zipfile.ZipFile(path) as archive:
        names = {
            info.filename[:-4]
            for info in archive.infolist()
            if info.filename.endswith(".npy")
        }

        def read_small(name: str) -> np.ndarray:
            with archive.open(f"{name}.npy") as member:
                return np.lib.format.read_array(member, allow_pickle=False)

        if "format" not in names or str(read_small("format")) != _INDEX_FORMAT:
            raise DatasetError(
                f"{path} is not an index checkpoint "
                f"(missing format {_INDEX_FORMAT!r})"
            )
        stored_crc: int | None = None
        if "format_version" in names:
            version = int(read_small("format_version"))
            if version > CHECKPOINT_VERSION:
                raise DatasetError(
                    f"index checkpoint format_version {version} is newer "
                    f"than this reader (supports <= {CHECKPOINT_VERSION}); "
                    f"upgrade to load it"
                )
            stored_crc = int(read_small("payload_crc32"))
        key_property = read_small("key_property")
        key_bucket = read_small("key_bucket")
    if verify and stored_crc is not None:
        actual = streamed_index_checksum(path)
        if actual != stored_crc:
            raise DatasetError(
                f"index checkpoint checksum mismatch (stored {stored_crc}, "
                f"computed {actual}): the file is corrupted or truncated"
            )
    mapped = _mmap_npz_members(path, _LAZY_MEMBERS)
    unmapped = [name for name in _LAZY_MEMBERS if name not in mapped]
    if unmapped:
        raise DatasetError(
            f"open_index_npz needs every large member ZIP_STORED, but "
            f"{', '.join(repr(n) for n in unmapped)} of {path} are "
            f"compressed or missing — rewrite the checkpoint with "
            f"save_index_npz(..., compressed=False), or use load_index_npz "
            f"for an eager load"
        )
    group_keys = tuple(
        GroupKey(str(p), str(b)) for p, b in zip(key_property, key_bucket)
    )
    ids = mapped["users"]
    index = InstanceIndex(
        users=LazyUserIds(ids),
        user_pos=SortedIdPositions(ids),
        group_keys=group_keys,
        group_pos={key: gid for gid, key in enumerate(group_keys)},
        u_indptr=mapped["u_indptr"],
        u_indices=mapped["u_indices"],
        g_indptr=mapped["g_indptr"],
        g_indices=mapped["g_indices"],
        cov=mapped["cov"],
        wei=mapped["wei"],
        initial_gains=mapped["initial_gains"],
        vectorizable=True,
    )
    object.__setattr__(index, _SOURCE_PATH_ATTR, str(path))
    return index

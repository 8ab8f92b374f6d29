"""Pre-fork multi-process serving for the Podium service.

``repro serve --workers N`` escapes the GIL for the read-heavy serving
path: the parent process recovers the repository (snapshot + WAL),
**warms** every configuration's ``(GroupSet, instance, CSR index)``
triple, then forks ``N`` worker processes.  The warmed numpy payloads —
plus memory-mapped snapshot indexes — are inherited copy-on-write, so
``N`` workers share one physical copy of the serving artifacts instead
of each paying a private build.

Topology
--------

.. code-block:: text

    parent (writer + supervisor)             worker 0..N-1 (readers)
    ├─ DurableRepositoryStore (WAL+snap)     ├─ no store (fd released)
    ├─ WriteCoordinator                      ├─ PooledWSGIServer
    │   applies writes, publishes to ring    │   SO_REUSEPORT socket
    ├─ ControlServer (unix socket) ◄────────►├─ WorkerRuntime
    │   ops: write / sync / cluster          │   forwards writes, syncs
    └─ SharedPoolState (shm counters)        └─ _SharedSlotMetrics

**Reads** (``/select``, ``/groups``, ``/health``, ...) are answered
entirely inside a worker.  The kernel balances connections across the
workers' ``SO_REUSEPORT`` listening sockets; where the option is
unavailable (or ``REPRO_NO_REUSEPORT=1``), the workers share one
inherited listening socket and compete on ``accept``.

**Writes** (``POST /profiles``, ``/profiles/delta``, ``/configurations``,
``/admin/snapshot``, ``/admin/compact``) are forwarded over a unix
control socket to the single writer — the parent — which WAL-appends and
applies them through exactly the single-process code path
(:func:`repro.service.app._dispatch`), appends the operation to an
in-process replication ring, and bumps a shared-memory **version**
counter.  Durability-before-acknowledgment is therefore identical to
single-process serving: the client's 200 means the delta is fsynced.

**Invalidation** is a per-request compare of two integers: each worker
checks the shared ``(epoch, version)`` pair before answering a read.
When behind, it asks the writer for the ring entries it missed and
replays them through
:meth:`~repro.service.app.PodiumService.apply_replicated_delta` — the
same deterministic incremental machinery the writer used — so every
process converges to byte-identical serving state.  Wholesale changes
(``POST /profiles``) bump the **epoch** instead, forcing a full state
transfer on next contact.

Worker lifetime is tied to the parent three ways: SIGTERM on graceful
shutdown, ``PR_SET_PDEATHSIG`` (Linux), and a lifeline pipe whose EOF —
delivered even after ``SIGKILL`` of the parent — tells the worker to
drain and exit.  The supervisor reaps and respawns crashed workers,
forking under the write lock so the clone is always a consistent
snapshot.
"""

from __future__ import annotations

import ctypes
import io
import json
import logging
import os
import select as _select
import signal
import socket
import struct
import tempfile
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.sharedctypes import RawArray, RawValue
from socketserver import ThreadingMixIn
from typing import Any, Callable
from wsgiref.simple_server import WSGIServer

from ..core.errors import PodiumError, ServiceError
from ..datasets.io import profiles_from_dict
from .app import (
    _JSON,
    _QuietHandler,
    _STATUS_LINES,
    PodiumService,
    _content_length,
    _dispatch,
    make_wsgi_app,
    parse_profile_delta,
)
from .config import DiversificationConfiguration
from .metrics import (
    WORKER_COUNTER_FIELDS,
    ServiceMetrics,
    StageTimer,
    aggregate_worker_rows,
    request_log_record,
)

logger = logging.getLogger("repro.service.workers")

#: Mutating routes a worker must not answer itself: single-writer
#: replication routes them to the parent over the control socket.
FORWARDED_ROUTES = frozenset(
    {
        ("POST", "/profiles"),
        ("POST", "/profiles/delta"),
        ("POST", "/configurations"),
        ("POST", "/admin/snapshot"),
        ("POST", "/admin/compact"),
    }
)

_FRAME_HEADER = struct.Struct(">I")
_MAX_FRAME = 512 * 1024 * 1024  # corrupt-length guard, not a quota
_FIELD_INDEX = {name: i for i, name in enumerate(WORKER_COUNTER_FIELDS)}


# ---------------------------------------------------------------------------
# Shared memory
# ---------------------------------------------------------------------------


class SharedPoolState:
    """Fork-shared pool state: invalidation counters + per-worker slots.

    Allocated *before* the workers fork, so every process addresses the
    same ``multiprocessing`` shared-memory pages.  ``version`` counts
    published incremental operations (deltas, configuration puts);
    ``epoch`` counts wholesale replacements.  A worker whose local pair
    lags either counter syncs with the writer before answering a read.

    The writer is the only mutator of ``version``/``epoch`` (a plain
    store is enough — no cross-process atomics needed); each worker is
    the only mutator of its own counter slot.
    """

    def __init__(self, slots: int) -> None:
        self.slots = slots
        self.version = RawValue(ctypes.c_uint64, 0)
        self.epoch = RawValue(ctypes.c_uint64, 0)
        self._counters = RawArray(
            ctypes.c_int64, slots * len(WORKER_COUNTER_FIELDS)
        )
        self._pids = RawArray(ctypes.c_int64, slots)

    def add_counter(self, slot: int, name: str, n: int = 1) -> None:
        self._counters[
            slot * len(WORKER_COUNTER_FIELDS) + _FIELD_INDEX[name]
        ] += n

    def set_pid(self, slot: int, pid: int) -> None:
        self._pids[slot] = pid

    def reset_slot(self, slot: int) -> None:
        base = slot * len(WORKER_COUNTER_FIELDS)
        for i in range(len(WORKER_COUNTER_FIELDS)):
            self._counters[base + i] = 0
        self._pids[slot] = 0

    def counter_row(self, slot: int) -> dict[str, int]:
        base = slot * len(WORKER_COUNTER_FIELDS)
        row: dict[str, int] = {
            "slot": slot,
            "pid": int(self._pids[slot]),
        }
        for i, name in enumerate(WORKER_COUNTER_FIELDS):
            row[name] = int(self._counters[base + i])
        return row

    def rows(self) -> list[dict[str, int]]:
        return [
            self.counter_row(slot)
            for slot in range(self.slots)
            if self._pids[slot]
        ]


# ---------------------------------------------------------------------------
# Replication ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChangeEntry:
    version: int
    kind: str  # "delta" | "config"
    payload: dict[str, Any]


class ChangeLog:
    """Bounded in-memory ring of published write operations.

    Workers that fall behind by more entries than the ring holds (or
    that straddle an epoch bump) get a full state transfer instead of
    deltas; ``since`` returning ``None`` signals that.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self._capacity = capacity
        self._entries: list[ChangeEntry] = []
        self._dropped = 0  # highest version evicted from the ring
        self._lock = threading.Lock()

    def append(self, entry: ChangeEntry) -> None:
        with self._lock:
            self._entries.append(entry)
            while len(self._entries) > self._capacity:
                self._dropped = self._entries.pop(0).version

    def clear(self) -> None:
        """Invalidate every buffered entry (epoch bump)."""
        with self._lock:
            if self._entries:
                self._dropped = self._entries[-1].version
                self._entries.clear()

    def since(
        self, after_version: int, upto_version: int
    ) -> list[ChangeEntry] | None:
        """Entries in ``(after_version, upto_version]``, oldest first.

        ``None`` when ``after_version`` predates the ring's history and
        the caller needs a full resync.
        """
        with self._lock:
            if after_version < self._dropped:
                return None
            return [
                e
                for e in self._entries
                if after_version < e.version <= upto_version
            ]


# ---------------------------------------------------------------------------
# Control-socket framing (length-prefixed JSON)
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, document: dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame to the control socket."""
    blob = json.dumps(document).encode()
    sock.sendall(_FRAME_HEADER.pack(len(blob)) + blob)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; ``None`` on a clean EOF between frames."""
    header = _recv_exact(sock, _FRAME_HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    if length > _MAX_FRAME:
        raise OSError(f"control frame of {length} bytes exceeds limit")
    blob = _recv_exact(sock, length, allow_eof=False)
    assert blob is not None
    return json.loads(blob.decode())


def _recv_exact(
    sock: socket.socket, n: int, allow_eof: bool
) -> bytes | None:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise OSError("control connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# Writer side (parent process)
# ---------------------------------------------------------------------------


class WriteCoordinator:
    """Serializes every pool mutation through the parent's service.

    ``handle_write`` replays a forwarded HTTP write through the *same*
    route dispatch the single-process server uses — identical
    validation, durability and response bodies — then publishes the
    operation and bumps the shared version counter, all under one mutex
    so ring order always equals apply order.
    """

    def __init__(
        self,
        service: PodiumService,
        shared: SharedPoolState,
        changelog: ChangeLog,
        reuseport: bool,
    ) -> None:
        self.service = service
        self.shared = shared
        self.changelog = changelog
        self.reuseport = reuseport
        self.mutex = threading.Lock()

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        try:
            if op == "write":
                status, payload = self.handle_write(
                    str(request.get("method", "POST")),
                    str(request.get("path", "")),
                    str(request.get("body", "")).encode(),
                )
                return {"status": status, "payload": payload}
            if op == "sync":
                return self.handle_sync(
                    int(request.get("epoch", 0)),
                    int(request.get("version", 0)),
                )
            if op == "cluster":
                return self.cluster_document()
        except Exception as exc:  # noqa: BLE001 — keep the channel alive
            logger.exception("control op %r failed", op)
            return {"error": f"{type(exc).__name__}: {exc}"}
        return {"error": f"unknown control op {op!r}"}

    def handle_write(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, Any]:
        if (method, path) not in FORWARDED_ROUTES:
            return 404, {"error": f"no forwardable route {method} {path}"}
        with self.mutex:
            environ = {
                "REQUEST_METHOD": method,
                "PATH_INFO": path,
                "CONTENT_LENGTH": str(len(body)),
                "wsgi.input": io.BytesIO(body),
            }
            try:
                status, payload, _ = _dispatch(
                    self.service, method, path, environ, StageTimer()
                )
            except PodiumError as exc:
                return 400, {"error": str(exc)}
            except (KeyError, TypeError, ValueError) as exc:
                return 400, {"error": f"malformed request: {exc}"}
            if status < 400:
                self._publish(path, body)
            return status, payload

    def _publish(self, path: str, body: bytes) -> None:
        """Make an applied write visible to the pool (mutex held)."""
        if path == "/profiles":
            # Wholesale replacement: deltas buffered against the old
            # population are meaningless — new epoch, full transfers.
            self.changelog.clear()
            self.shared.epoch.value += 1
            return
        if path in ("/admin/snapshot", "/admin/compact"):
            return  # storage-only; serving state unchanged
        kind = "delta" if path == "/profiles/delta" else "config"
        version = int(self.shared.version.value) + 1
        self.changelog.append(
            ChangeEntry(version, kind, json.loads(body.decode() or "{}"))
        )
        self.shared.version.value = version

    def handle_sync(self, epoch: int, version: int) -> dict[str, Any]:
        shared_epoch = int(self.shared.epoch.value)
        shared_version = int(self.shared.version.value)
        if epoch == shared_epoch:
            entries = self.changelog.since(version, shared_version)
            if entries is not None:
                return {
                    "mode": "deltas",
                    "epoch": shared_epoch,
                    "entries": [
                        {
                            "version": e.version,
                            "kind": e.kind,
                            "payload": e.payload,
                        }
                        for e in entries
                    ],
                }
        # Full transfer: under the write mutex so no publish lands
        # between reading the counters and snapshotting the state.
        with self.mutex:
            state = self.service.replication_snapshot()
            return {
                "mode": "full",
                "epoch": int(self.shared.epoch.value),
                "version": int(self.shared.version.value),
                **state,
            }

    def cluster_document(self) -> dict[str, Any]:
        rows = self.shared.rows()
        document: dict[str, Any] = {
            "workers": self.shared.slots,
            "live_workers": len(rows),
            "reuseport": self.reuseport,
            "writer": {
                "pid": os.getpid(),
                "epoch": int(self.shared.epoch.value),
                "version": int(self.shared.version.value),
            },
            "per_worker": rows,
            "totals": aggregate_worker_rows(rows),
        }
        store = self.service.store
        document["storage"] = store.stats() if store is not None else None
        return document


class ControlServer:
    """Threaded unix-socket server answering worker RPCs in the parent."""

    def __init__(
        self, sock: socket.socket, coordinator: WriteCoordinator
    ) -> None:
        self._sock = sock
        self._coordinator = coordinator
        self._thread = threading.Thread(
            target=self._accept_loop, name="pool-control", daemon=True
        )
        self._thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed: shutdown
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                request = recv_frame(conn)
                if request is None:
                    return
                send_frame(conn, self._coordinator.handle(request))
        except OSError:
            pass  # worker went away mid-exchange
        finally:
            conn.close()

    def close(self) -> None:
        self._sock.close()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _SharedSlotMetrics(ServiceMetrics):
    """Per-process metrics that mirror headline counters into shared memory.

    The worker keeps full in-process metrics (so its own ``/metrics``
    still has per-route and stage detail) while the parent — and any
    worker answering ``/metrics`` — reads the cross-process distribution
    from the shared slots without an extra RPC per worker.
    """

    def __init__(self, shared: SharedPoolState, slot: int) -> None:
        super().__init__()
        self._shared = shared
        self._slot = slot

    def _bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._shared.add_counter(self._slot, name, n)

    def observe_request(
        self,
        route: str,
        status: int,
        seconds: float,
        stages: dict[str, float] | None = None,
    ) -> None:
        super().observe_request(route, status, seconds, stages)
        self._bump("requests")
        if status >= 400:
            self._bump("errors")
        if route == "POST /select":
            self._bump("selects")

    def observe_cache(self, hit: bool) -> None:
        super().observe_cache(hit)
        self._bump("cache_hits" if hit else "cache_misses")


class WorkerRuntime:
    """One worker's view of the pool: freshness, forwarding, cluster RPC.

    ``rpc`` is injectable so tests can drive the invalidation protocol
    against an in-process coordinator without forking.
    """

    def __init__(
        self,
        service: PodiumService,
        shared: SharedPoolState,
        slot: int,
        rpc: Callable[[dict[str, Any]], dict[str, Any]],
        epoch: int | None = None,
        version: int | None = None,
    ) -> None:
        self.service = service
        self.shared = shared
        self.slot = slot
        self._rpc = rpc
        self._refresh_lock = threading.Lock()
        self._count_lock = threading.Lock()
        # (epoch, version) the handed-over state corresponds to.  A
        # forked worker receives the pair the *parent* read at fork time
        # (under the write mutex) — reading the shared counters here
        # instead could skip operations published between fork and
        # construction.  ``None`` (in-process tests) reads them now.
        self.epoch = (
            int(shared.epoch.value) if epoch is None else int(epoch)
        )
        self.version = (
            int(shared.version.value) if version is None else int(version)
        )

    def _count(self, name: str, n: int = 1) -> None:
        with self._count_lock:
            self.shared.add_counter(self.slot, name, n)

    def is_stale(self) -> bool:
        return (
            self.epoch != int(self.shared.epoch.value)
            or self.version < int(self.shared.version.value)
        )

    def ensure_fresh(self) -> bool:
        """Catch up with the writer if the shared counters moved.

        Returns ``True`` when a sync ran.  Raises on RPC failure —
        callers decide whether to serve stale (reads) or fail (tests).
        """
        if not self.is_stale():
            return False
        with self._refresh_lock:
            if not self.is_stale():
                return True  # another request thread caught us up
            reply = self._rpc(
                {"op": "sync", "epoch": self.epoch, "version": self.version}
            )
            if "error" in reply:
                raise OSError(f"sync rejected: {reply['error']}")
            self._count("syncs")
            if reply.get("mode") == "full":
                self._adopt_full(reply)
            else:
                self._replay(reply.get("entries", ()))
            return True

    def _adopt_full(self, reply: dict[str, Any]) -> None:
        configs = [
            DiversificationConfiguration.from_dict(doc)
            for doc in reply.get("configurations", ())
        ]
        self.service.replace_configurations(configs)
        self.service.load_repository(
            profiles_from_dict(reply.get("profiles") or {})
        )
        self.epoch = int(reply["epoch"])
        self.version = int(reply["version"])

    def _replay(self, entries: Any) -> None:
        for entry in entries:
            kind = entry.get("kind")
            if kind == "delta":
                self.service.apply_replicated_delta(
                    parse_profile_delta(entry.get("payload") or {})
                )
            elif kind == "config":
                self.service.put_configuration(
                    DiversificationConfiguration.from_dict(
                        entry.get("payload") or {}
                    )
                )
            else:
                raise OSError(f"unknown replication entry kind {kind!r}")
            self.version = int(entry["version"])

    def forward(self, method: str, path: str, body: bytes) -> tuple[int, Any]:
        """Route a mutating request to the writer; returns (status, payload)."""
        reply = self._rpc(
            {
                "op": "write",
                "method": method,
                "path": path,
                "body": body.decode("utf-8", "replace"),
            }
        )
        if "error" in reply:
            raise OSError(f"writer error: {reply['error']}")
        self._count("forwarded_writes")
        return int(reply["status"]), reply["payload"]

    def cluster_document(self) -> dict[str, Any]:
        reply = self._rpc({"op": "cluster"})
        reply["answered_by_slot"] = self.slot
        return reply

    def note_sync_failure(self) -> None:
        self._count("sync_failures")


def unix_rpc(control_path: str, timeout: float = 60.0) -> Callable:
    """Build the one-shot-connection RPC callable for a real worker."""

    def rpc(request: dict[str, Any]) -> dict[str, Any]:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(timeout)
            sock.connect(control_path)
            send_frame(sock, request)
            reply = recv_frame(sock)
        if reply is None:
            raise OSError("control channel closed before reply")
        return reply

    return rpc


def make_worker_app(service: PodiumService, runtime: WorkerRuntime) -> Callable:
    """Wrap the standard WSGI app with forwarding + freshness checks.

    Reads check the shared invalidation counters first and lazily catch
    up; if the writer is unreachable the worker *serves stale* (counted
    in ``sync_failures``) rather than failing reads.  Writes are
    forwarded to the writer; if it is unreachable they fail with 503 —
    never applied locally, so the single-writer durability contract
    holds.
    """
    inner = make_wsgi_app(service)

    def app(environ: dict[str, Any], start_response: Callable) -> list[bytes]:
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        if (method, path) in FORWARDED_ROUTES:
            return _forward_request(
                service, runtime, method, path, environ, start_response
            )
        try:
            runtime.ensure_fresh()
        except (OSError, ValueError, KeyError) as exc:
            runtime.note_sync_failure()
            logger.warning("serving stale state; sync failed: %s", exc)
        return inner(environ, start_response)

    return app


def _forward_request(
    service: PodiumService,
    runtime: WorkerRuntime,
    method: str,
    path: str,
    environ: dict[str, Any],
    start_response: Callable,
) -> list[bytes]:
    started = time.perf_counter()
    error: str | None = None
    try:
        length = _content_length(environ)
    except ServiceError as exc:
        status, payload = 400, {"error": str(exc)}
        error = str(exc)
    else:
        body = environ["wsgi.input"].read(length) if length else b""
        try:
            status, payload = runtime.forward(method, path, body)
        except (OSError, ValueError, KeyError) as exc:
            status = 503
            payload = {"error": f"writer unavailable: {exc}"}
            error = str(exc)
    seconds = time.perf_counter() - started
    route = f"{method} {path}"
    service.metrics.observe_request(
        route, status, seconds, {"forward": seconds}
    )
    logger.info(request_log_record(route, status, seconds, None, error))
    blob = json.dumps(payload).encode()
    start_response(
        _STATUS_LINES.get(status, f"{status} Error"),
        [("Content-Type", _JSON), ("Content-Length", str(len(blob)))],
    )
    return [blob]


class PooledWSGIServer(ThreadingMixIn, WSGIServer):
    """Threaded WSGI server adopting a pre-bound (possibly shared) socket.

    Unlike the single-process server, in-flight request threads are
    *joined* on close (``daemon_threads = False``) so a SIGTERM drains
    cleanly instead of killing responses mid-write.
    """

    daemon_threads = False
    block_on_close = True

    def __init__(
        self, sock: socket.socket, app: Callable, handler_class=_QuietHandler
    ) -> None:
        host, port = sock.getsockname()[:2]
        super().__init__(
            (host, port), handler_class, bind_and_activate=False
        )
        self.socket.close()  # replace the placeholder socket
        self.socket = sock
        self.server_name = host
        self.server_port = port
        self.setup_environ()
        self.set_app(app)


# ---------------------------------------------------------------------------
# Listening sockets
# ---------------------------------------------------------------------------


def reuseport_available() -> bool:
    """Whether per-worker ``SO_REUSEPORT`` listeners can be used here."""
    return (
        hasattr(socket, "SO_REUSEPORT")
        and os.environ.get("REPRO_NO_REUSEPORT") != "1"
    )


def _new_tcp_socket(reuseport: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if reuseport:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    return sock


def create_pool_listener(
    host: str, port: int
) -> tuple[socket.socket, bool]:
    """Reserve the pool's address; returns ``(socket, reuseport)``.

    With ``SO_REUSEPORT`` the parent binds but **never listens** — a
    bound-only socket receives no connections, it merely pins the
    (possibly ephemeral) port so each worker can bind its own listening
    socket to the same address and let the kernel balance accepts.
    Without it, the parent binds *and* listens one socket that all
    workers inherit and share.
    """
    reuseport = reuseport_available()
    sock = _new_tcp_socket(reuseport)
    try:
        sock.bind((host, port))
    except OSError:
        sock.close()
        raise
    if not reuseport:
        sock.listen(128)
    return sock, reuseport


def worker_listener(
    parent_sock: socket.socket, reuseport: bool
) -> socket.socket:
    """The socket a worker actually accepts on (call *after* fork)."""
    if reuseport:
        host, port = parent_sock.getsockname()[:2]
        sock = _new_tcp_socket(reuseport=True)
        sock.bind((host, port))
        sock.listen(128)
    else:
        sock = parent_sock
    # Non-blocking accept: with a shared listener, several workers can
    # wake for one connection; the losers' accept must not block the
    # serve loop (socketserver treats BlockingIOError as "no request").
    sock.setblocking(False)
    return sock


# ---------------------------------------------------------------------------
# Worker process main
# ---------------------------------------------------------------------------


def _set_pdeathsig() -> None:
    """Best-effort ``PR_SET_PDEATHSIG(SIGTERM)`` (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGTERM, 0, 0, 0)  # PR_SET_PDEATHSIG == 1
    except (OSError, AttributeError):
        pass


def _watch_lifeline(fd: int, httpd: WSGIServer, grace: float = 10.0) -> None:
    """Exit when the parent's pipe end closes (survives parent SIGKILL)."""
    try:
        os.read(fd, 1)  # blocks until EOF; the parent never writes
    except OSError:
        pass
    threading.Thread(target=httpd.shutdown, daemon=True).start()
    time.sleep(grace)
    os._exit(1)


def run_worker(
    service: PodiumService,
    shared: SharedPoolState,
    slot: int,
    parent_sock: socket.socket,
    reuseport: bool,
    control_path: str,
    lifeline_read_fd: int,
    ready_write_fd: int,
    baseline_epoch: int,
    baseline_version: int,
) -> None:
    """Worker process body; never returns (exits via ``os._exit``).

    Runs in the forked child: releases inherited store descriptors,
    re-arms locks, binds/adopts its listening socket, signals readiness
    to the parent, then serves until SIGTERM/SIGINT or lifeline EOF —
    draining in-flight requests before exiting.
    """
    exit_code = 1
    try:
        _set_pdeathsig()
        store = service.store
        if store is not None:
            # The parent owns the WAL; the child only had it by fork.
            store.release_after_fork()
            service.store = None
        service.reset_concurrency_after_fork()
        service.metrics = _SharedSlotMetrics(shared, slot)
        runtime = WorkerRuntime(
            service,
            shared,
            slot,
            unix_rpc(control_path),
            epoch=baseline_epoch,
            version=baseline_version,
        )
        service.cluster_stats_provider = runtime.cluster_document

        listener = worker_listener(parent_sock, reuseport)
        httpd = PooledWSGIServer(listener, make_worker_app(service, runtime))

        def _graceful(signum: int, frame: Any) -> None:
            # shutdown() blocks until the serve loop stops; never call
            # it from the loop's own thread (signal handlers run there).
            threading.Thread(target=httpd.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
        threading.Thread(
            target=_watch_lifeline,
            args=(lifeline_read_fd, httpd),
            daemon=True,
        ).start()

        shared.set_pid(slot, os.getpid())
        os.write(ready_write_fd, b"r")
        os.close(ready_write_fd)

        httpd.serve_forever(poll_interval=0.1)
        httpd.server_close()  # joins in-flight request threads (drain)
        exit_code = 0
    except Exception:  # noqa: BLE001 — last-resort worker log
        logger.exception("worker slot %d crashed", slot)
    finally:
        # Skip interpreter finalization: atexit hooks and GC finalizers
        # belong to the parent's world (store handles, temp dirs).
        os._exit(exit_code)


# ---------------------------------------------------------------------------
# Parent: pool supervisor
# ---------------------------------------------------------------------------


@dataclass
class _Child:
    pid: int
    lifeline_write_fd: int
    spawned_at: float = field(default_factory=time.monotonic)


class WorkerPool:
    """Fork, supervise, and gracefully stop the serving workers."""

    def __init__(
        self,
        service: PodiumService,
        host: str = "127.0.0.1",
        port: int = 8808,
        workers: int = 2,
        respawn_limit: int = 16,
        shutdown_grace: float = 15.0,
    ) -> None:
        if workers < 1:
            raise ValueError("worker pool needs at least one worker")
        self.service = service
        self.workers = workers
        self.respawn_limit = respawn_limit
        self.shutdown_grace = shutdown_grace
        self._requested = (host, port)
        self._children: dict[int, _Child] = {}
        self._respawns = 0
        self._stop = threading.Event()
        self.host = host
        self.port = port
        self.reuseport = False
        self._sock: socket.socket | None = None
        self._control_dir: str | None = None
        self._control: ControlServer | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        host, port = self._requested
        warmed = self.service.warm_artifacts()
        if warmed:
            logger.info("pre-fork warm built artifacts for %s", warmed)

        self._sock, self.reuseport = create_pool_listener(host, port)
        self.host, self.port = self._sock.getsockname()[:2]

        self.shared = SharedPoolState(self.workers)
        self.changelog = ChangeLog()
        self.coordinator = WriteCoordinator(
            self.service, self.shared, self.changelog, self.reuseport
        )
        self._control_dir = tempfile.mkdtemp(prefix="repro-pool-")
        self.control_path = os.path.join(self._control_dir, "control.sock")
        control_sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        control_sock.bind(self.control_path)
        control_sock.listen(64)
        self._control_sock = control_sock

        ready_fds = [self._spawn(slot) for slot in range(self.workers)]
        self._await_ready(ready_fds)
        # Accept worker RPCs only once every worker is up: nothing can
        # connect earlier, and the fork loop stays single-threaded.
        self._control = ControlServer(control_sock, self.coordinator)

    def _spawn(self, slot: int) -> int:
        """Fork one worker; returns the parent's readiness-pipe read fd."""
        self.shared.reset_slot(slot)
        lifeline_r, lifeline_w = os.pipe()
        ready_r, ready_w = os.pipe()
        # Descriptors of *other* children this child must not inherit
        # open — a held sibling lifeline would mask the parent's death.
        sibling_fds = [
            c.lifeline_write_fd for c in self._children.values()
        ]
        # Captured pre-fork: on respawn the caller holds the write
        # mutex, so these are exactly the state the child inherits.
        baseline_epoch = int(self.shared.epoch.value)
        baseline_version = int(self.shared.version.value)
        pid = os.fork()
        if pid == 0:
            try:
                os.close(lifeline_w)
                os.close(ready_r)
                for fd in sibling_fds:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                try:
                    self._control_sock.close()
                except OSError:
                    pass
                run_worker(
                    self.service,
                    self.shared,
                    slot,
                    self._sock,  # type: ignore[arg-type]
                    self.reuseport,
                    self.control_path,
                    lifeline_r,
                    ready_w,
                    baseline_epoch,
                    baseline_version,
                )
            finally:
                os._exit(1)  # run_worker never returns; belt and braces
        os.close(lifeline_r)
        os.close(ready_w)
        self._children[slot] = _Child(pid, lifeline_w)
        return ready_r

    def _await_ready(self, ready_fds: list[int], timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        pending = list(ready_fds)
        try:
            while pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"{len(pending)} worker(s) not ready after "
                        f"{timeout:.0f}s"
                    )
                readable, _, _ = _select.select(pending, [], [], remaining)
                for fd in readable:
                    if os.read(fd, 1) == b"":
                        raise RuntimeError("worker died before readiness")
                    pending.remove(fd)
        finally:
            for fd in ready_fds:
                try:
                    os.close(fd)
                except OSError:
                    pass

    def run(self) -> dict[str, Any]:
        """Supervise until SIGTERM/SIGINT; then drain, snapshot, report."""
        previous = {
            sig: signal.signal(sig, lambda *_: self._stop.set())
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            while not self._stop.is_set():
                self._reap_and_respawn()
                self._stop.wait(0.2)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        return self.shutdown()

    def _reap_and_respawn(self) -> None:
        for slot, child in list(self._children.items()):
            try:
                pid, status = os.waitpid(child.pid, os.WNOHANG)
            except ChildProcessError:
                pid, status = child.pid, -1
            if pid == 0:
                continue
            logger.warning(
                "worker slot %d (pid %d) exited with status %s",
                slot,
                child.pid,
                status,
            )
            self._close_lifeline(child)
            del self._children[slot]
            self.shared.reset_slot(slot)
            if self._respawns >= self.respawn_limit:
                logger.error(
                    "respawn limit (%d) reached; slot %d stays down",
                    self.respawn_limit,
                    slot,
                )
                continue
            self._respawns += 1
            # Fork under the write locks: no request or write can be
            # mid-mutation, so the child clones a consistent snapshot
            # (its own lock objects are re-armed in run_worker).
            with self.coordinator.mutex:
                with self.service._lock.write():  # noqa: SLF001
                    ready_fd = self._spawn(slot)
            self._await_ready([ready_fd])

    @staticmethod
    def _close_lifeline(child: _Child) -> None:
        try:
            os.close(child.lifeline_write_fd)
        except OSError:
            pass

    def shutdown(self) -> dict[str, Any]:
        """SIGTERM + drain every worker, then write one parent snapshot."""
        for child in self._children.values():
            try:
                os.kill(child.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + self.shutdown_grace
        while self._children and time.monotonic() < deadline:
            for slot, child in list(self._children.items()):
                try:
                    pid, _ = os.waitpid(child.pid, os.WNOHANG)
                except ChildProcessError:
                    pid = child.pid
                if pid:
                    self._close_lifeline(child)
                    del self._children[slot]
            if self._children:
                time.sleep(0.05)
        for slot, child in list(self._children.items()):
            logger.error(
                "worker slot %d did not drain in %.0fs; killing",
                slot,
                self.shutdown_grace,
            )
            try:
                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self._close_lifeline(child)
            del self._children[slot]

        if self._control is not None:
            self._control.close()
        if self._sock is not None:
            self._sock.close()
        if self._control_dir is not None:
            try:
                os.unlink(self.control_path)
                os.rmdir(self._control_dir)
            except OSError:
                pass

        summary = self.service.metrics_snapshot()
        summary["cluster"] = self.coordinator.cluster_document()
        if self.service.store is not None:
            # One snapshot, from the one process that owns the store —
            # the next boot replays an empty WAL suffix.
            self.service.snapshot_store()
            summary["storage"] = self.service.store.stats()
        return summary


def serve_pool(
    service: PodiumService,
    host: str = "127.0.0.1",
    port: int = 8808,
    workers: int = 2,
) -> dict[str, Any]:
    """Run the pre-fork pool until interrupted; return final metrics."""
    pool = WorkerPool(service, host=host, port=port, workers=workers)
    pool.start()
    mode = "SO_REUSEPORT" if pool.reuseport else "shared accept"
    print(
        f"Podium service listening on http://{pool.host}:{pool.port} "
        f"({workers} workers, {mode}, writer pid {os.getpid()}; "
        f"request stats at /metrics)",
        flush=True,
    )
    summary = pool.run()
    print("shutting down")
    if service.store is not None:
        print("snapshot written")
    return summary

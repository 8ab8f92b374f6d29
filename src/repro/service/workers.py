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
    │   applies writes, publishes counters   │   SO_REUSEPORT socket
    ├─ PooledWSGIServer (unix socket) ◄─────►├─ WorkerRuntime
    │   HTTP over the control socket         │   forwards writes, tails log
    └─ SharedPoolState (shm counters)        └─ _SharedSlotMetrics

**Reads** (``/select``, ``/groups``, ``/health``, ...) are answered
entirely inside a worker.  The kernel balances connections across the
workers' ``SO_REUSEPORT`` listening sockets; where the option is
unavailable (or ``REPRO_NO_REUSEPORT=1``), the workers share one
inherited listening socket and compete on ``accept``.

**Writes** (``POST /profiles``, ``/profiles/delta``, ``/configurations``,
``/admin/snapshot``, ``/admin/compact``) and the two log reads
(``GET /admin/wal``, ``GET /admin/state``: the writer holds the log)
are forwarded to the single writer — the parent — as plain HTTP
requests over a private unix control socket.  The writer serves there
the same WSGI app every process runs
(:func:`~repro.service.app.make_wsgi_app`), whose handler answers
through :func:`~repro.service.app.handle_request`, the boundary a
single-process server runs.  A delta or configuration put is a
change-log record: WAL-appended before it is applied with a store, put
in a bounded :class:`~repro.storage.MemoryLog` (same records, same
reader API) without one.  The client's 200 means the delta is fsynced, as in
single-process serving; a writer-side failure is the same JSON 500 a
single process answers, and a 503 means only that the writer could
not be reached.

**Invalidation** is a per-request compare of two integers: the shared
``(epoch, version)`` pair mirrors the log's ``(reset_epoch, last_seq)``.
A worker behind it tails the writer's log as a replication follower
tails a primary — sending ``GET /admin/wal`` and ``GET /admin/state``
over the same socket — through the shared
:func:`~repro.service.replication.apply_log_tail`: each record goes
through :meth:`~repro.service.app.PodiumService.apply_record`, the path
the writer took, so every process converges to byte-identical serving
state.  A new epoch (``POST /profiles``), a gap (compacted or evicted
records) or an out-of-sequence record installs the writer's full state
through :meth:`~repro.service.app.PodiumService.install_state`, the path
boot recovery takes, so the worker keeps the writer's bucket boundaries.

Worker lifetime is tied to the parent three ways: SIGTERM on graceful
shutdown, ``PR_SET_PDEATHSIG`` (Linux), and a lifeline pipe whose EOF —
delivered even after ``SIGKILL`` of the parent — tells the worker to
drain and exit.  The supervisor reaps and respawns crashed workers,
forking under the write lock so the clone is always a consistent
snapshot.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import logging
import os
import select as _select
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.sharedctypes import RawArray, RawValue
from socketserver import ThreadingMixIn
from typing import Any, Callable
from urllib.parse import urlencode
from wsgiref.simple_server import WSGIServer

from ..storage import MemoryLog, snapshot_state_from_dict
from .app import (
    WRITE_ROUTES,
    PodiumService,
    QuietHandler,
    handle_request,
    make_wsgi_app,
)
from .metrics import (
    WORKER_COUNTER_FIELDS,
    ServiceMetrics,
    StageTimer,
    aggregate_worker_rows,
)
from .replication import apply_log_tail

logger = logging.getLogger("repro.service.workers")

#: Routes a worker must not answer itself: single-writer replication
#: routes mutations to the parent over the control socket, and the
#: parent is the process that holds the change log.
FORWARDED_ROUTES = WRITE_ROUTES | {
    ("POST", "/admin/snapshot"),
    ("POST", "/admin/compact"),
    ("GET", "/admin/wal"),
    ("GET", "/admin/state"),
}

_FIELD_INDEX = {name: i for i, name in enumerate(WORKER_COUNTER_FIELDS)}


# ---------------------------------------------------------------------------
# Shared memory
# ---------------------------------------------------------------------------


class SharedPoolState:
    """Fork-shared pool state: invalidation counters + per-worker slots.

    Allocated *before* the workers fork, so every process addresses the
    same ``multiprocessing`` shared-memory pages.  ``version`` mirrors
    the writer's change-log ``last_seq`` (deltas, configuration puts);
    ``epoch`` its ``reset_epoch`` (wholesale replacements).  A worker
    whose local pair lags either counter catches up before answering a
    read.

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
# Writer side (parent process)
# ---------------------------------------------------------------------------


class WriteCoordinator:
    """Serializes every pool mutation through the parent's service.

    :meth:`request` is the handler of the writer's private endpoint —
    the app :func:`~repro.service.app.make_wsgi_app` builds, served on
    the control socket by :meth:`serve` — so a forwarded request is
    answered by the *same* :func:`~repro.service.app.handle_request`
    the single-process server runs: identical validation, durability,
    errors and response bodies.  A POST runs under one mutex that also
    publishes the change log's position (``memory_log`` without a
    store) to the shared counters.
    """

    def __init__(
        self,
        service: PodiumService,
        shared: SharedPoolState,
        memory_log: MemoryLog | None,
        reuseport: bool,
    ) -> None:
        self.service = service
        self.shared = shared
        self.reuseport = reuseport
        self.mutex = threading.Lock()
        if memory_log is not None:
            service.memory_log = memory_log
        service.cluster_stats_provider = self.cluster_document
        self._publish()

    def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        query: dict[str, Any] | None = None,
        timer: StageTimer | None = None,
    ) -> tuple[int, Any]:
        """Answer one forwarded request as ``(status, payload)``."""
        timer = timer or StageTimer()
        args = (self.service, method, path, query or {}, body, timer)
        if method != "POST":
            return handle_request(*args)
        with self.mutex:
            answer = handle_request(*args)
            self._publish()
        return answer

    def _publish(self) -> None:
        """Mirror the change log's position into the shared counters."""
        log = self.service.change_log
        self.shared.epoch.value = log.reset_epoch
        self.shared.version.value = log.last_seq

    def cluster_document(self) -> dict[str, Any]:
        rows = self.shared.rows()
        return {
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

    def serve(self, sock: socket.socket) -> "PooledWSGIServer":
        """Serve the writer's HTTP endpoint on ``sock`` from a thread."""
        server = PooledWSGIServer(
            sock, make_wsgi_app(self.service, self.request)
        )
        threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="pool-writer",
            daemon=True,
        ).start()
        return server


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
    """One worker's view of the pool: freshness, forwarding, cluster view.

    Everything it asks of the writer goes through one transport,
    ``send(method, path, query=, body=) -> (status, payload)``: over
    HTTP on the control socket in a real pool
    (:func:`unix_http_transport`), or an in-process coordinator's
    :meth:`WriteCoordinator.request` in tests.  A transport failure
    raises :class:`OSError`.
    """

    def __init__(
        self,
        service: PodiumService,
        shared: SharedPoolState,
        slot: int,
        send: Callable[..., tuple[int, Any]],
        epoch: int | None = None,
        version: int | None = None,
    ) -> None:
        self.service = service
        self.shared = shared
        self.slot = slot
        self._send = send
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
        """Catch up with the writer's log if the shared counters moved.

        Returns ``True`` when a sync ran.  Raises on transport failure —
        callers decide whether to serve stale (reads) or fail (tests);
        records applied before the failure stay applied, and the next
        sync resumes after them.
        """
        if not self.is_stale():
            return False
        with self._refresh_lock:
            if not self.is_stale():
                return True  # another request thread caught us up
            tail = self._fetch_tail()
            self._count("syncs")
            while (
                apply_log_tail(
                    self.service,
                    tail,
                    self.epoch,
                    self.version,
                    self._adopt_full,
                    self._advance,
                )
                and tail["records"]
                and self.is_stale()
            ):
                # A batch is capped by the read limit: fetch the next.
                tail = self._fetch_tail()
            return True

    def _fetch(self, path: str, **query: Any) -> dict[str, Any]:
        """``GET`` one of the writer's documents; non-200 raises."""
        status, payload = self._send("GET", path, query=query, body=b"")
        if status != 200:
            raise OSError(f"GET {path} answered {status}: {payload}")
        return payload

    def _fetch_tail(self) -> dict[str, Any]:
        return self._fetch("/admin/wal", from_seq=self.version, limit=256)

    def _advance(self, seq: int) -> None:
        self.version = seq

    def _adopt_full(self) -> None:
        """Install the writer's whole state (epoch change or log gap)."""
        document = self._fetch("/admin/state")
        state = snapshot_state_from_dict(document)
        self.service.install_state(state)
        self.epoch = int(document["reset_epoch"])
        self.version = state.wal_seq

    def forward(
        self, method: str, path: str, query: dict[str, Any], body: bytes
    ) -> tuple[int, Any]:
        """Route a client request to the writer; returns (status, payload)."""
        answer = self._send(method, path, query=query, body=body)
        if method == "POST":
            self._count("forwarded_writes")
        return answer

    def cluster_document(self) -> dict[str, Any]:
        """The writer's pool view and storage gauges, from its /metrics."""
        metrics = self._fetch("/metrics")
        return {
            **metrics["cluster"],
            "storage": metrics.get("storage"),
            "answered_by_slot": self.slot,
        }

    def note_sync_failure(self) -> None:
        self._count("sync_failures")


class _UnixHTTPConnection(http.client.HTTPConnection):
    """An HTTP client connection to a server on a unix socket path."""

    def __init__(self, socket_path: str, timeout: float) -> None:
        super().__init__("localhost", timeout=timeout)
        self.socket_path = socket_path

    def connect(self) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(self.timeout)
        self.sock.connect(self.socket_path)


def unix_http_transport(
    control_path: str, timeout: float = 60.0
) -> Callable[..., tuple[int, Any]]:
    """A real worker's ``send``: one HTTP request per fresh connection
    to the writer's endpoint on the control socket."""

    def send(
        method: str, path: str, query: dict[str, Any], body: bytes
    ) -> tuple[int, Any]:
        connection = _UnixHTTPConnection(control_path, timeout)
        target = f"{path}?{urlencode(query)}" if query else path
        try:
            connection.request(method, target, body=body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        except (http.client.HTTPException, ValueError) as exc:
            # A torn or garbled reply fails like a refused connection.
            raise OSError(f"{method} {path}: {exc!r}") from exc
        finally:
            connection.close()

    return send


def make_worker_app(service: PodiumService, runtime: WorkerRuntime) -> Callable:
    """The standard WSGI app with forwarding + freshness checks.

    ``FORWARDED_ROUTES`` go to the writer; if it is unreachable they
    fail with 503 — never applied locally, so the single-writer
    durability contract holds.  Every other route checks the shared
    invalidation counters first and lazily catches up; if the writer is
    unreachable the worker *serves stale* (counted in
    ``sync_failures``) rather than failing reads.
    """

    def handle(
        method: str,
        path: str,
        query: dict[str, Any],
        body: bytes,
        timer: StageTimer,
    ) -> tuple[int, Any]:
        if (method, path) in FORWARDED_ROUTES:
            try:
                with timer.stage("forward"):
                    return runtime.forward(method, path, query, body)
            except (OSError, ValueError, KeyError) as exc:
                return 503, {"error": f"writer unavailable: {exc}"}
        try:
            runtime.ensure_fresh()
        except (OSError, ValueError, KeyError) as exc:
            runtime.note_sync_failure()
            logger.warning("serving stale state; sync failed: %s", exc)
        return handle_request(service, method, path, query, body, timer)

    return make_wsgi_app(service, handle)


class PooledWSGIServer(ThreadingMixIn, WSGIServer):
    """Threaded WSGI server adopting a pre-bound (possibly shared) socket.

    The socket is a worker's TCP listener or the writer's unix control
    socket.  Unlike the single-process server, in-flight request threads
    are *joined* on close (``daemon_threads = False``) so a SIGTERM
    drains cleanly instead of killing responses mid-write.
    """

    daemon_threads = False
    block_on_close = True

    def __init__(
        self, sock: socket.socket, app: Callable, handler_class=QuietHandler
    ) -> None:
        self._unix = sock.family == socket.AF_UNIX
        host, port = (
            ("localhost", 0) if self._unix else sock.getsockname()[:2]
        )
        super().__init__(
            (host, port), handler_class, bind_and_activate=False
        )
        self.socket.close()  # replace the placeholder socket
        self.socket = sock
        self.server_name = host
        self.server_port = port
        self.setup_environ()
        self.set_app(app)

    def get_request(self) -> tuple[socket.socket, Any]:
        conn, address = self.socket.accept()
        # wsgiref's handler reads a (host, port) peer; a unix one has none.
        return conn, ("localhost", 0) if self._unix else address


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
        service.memory_log = None  # the parent's log; workers tail it
        service.reset_concurrency_after_fork()
        service.metrics = _SharedSlotMetrics(shared, slot)
        runtime = WorkerRuntime(
            service,
            shared,
            slot,
            unix_http_transport(control_path),
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
        self._control: PooledWSGIServer | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        host, port = self._requested
        warmed = self.service.warm_artifacts()
        if warmed:
            logger.info("pre-fork warm built artifacts for %s", warmed)

        self._sock, self.reuseport = create_pool_listener(host, port)
        self.host, self.port = self._sock.getsockname()[:2]

        self.shared = SharedPoolState(self.workers)
        self.coordinator = WriteCoordinator(
            self.service,
            self.shared,
            MemoryLog() if self.service.store is None else None,
            self.reuseport,
        )
        self._control_dir = tempfile.mkdtemp(prefix="repro-pool-")
        self.control_path = os.path.join(self._control_dir, "control.sock")
        control_sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        control_sock.bind(self.control_path)
        control_sock.listen(64)
        self._control_sock = control_sock

        ready_fds = [self._spawn(slot) for slot in range(self.workers)]
        self._await_ready(ready_fds)
        # Serve the workers only once every worker is up: nothing can
        # connect earlier, and the fork loop stays single-threaded.
        self._control = self.coordinator.serve(control_sock)

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
            # Deltas leave the writer's entries without instances; warm
            # them first so the child starts with built indexes.  Then
            # fork under the write locks: no request or write can be
            # mid-mutation, so the child clones a consistent snapshot
            # (its own lock objects are re-armed in run_worker).
            self.service.warm_artifacts()
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
            self._control.shutdown()
            self._control.server_close()
        if self._sock is not None:
            self._sock.close()
        if self._control_dir is not None:
            try:
                os.unlink(self.control_path)
                os.rmdir(self._control_dir)
            except OSError:
                pass

        summary = self.service.metrics_snapshot()
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

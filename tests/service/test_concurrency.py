"""Concurrency coverage: RW-lock contention and pool invalidation.

Exercises the writer-preferring :class:`ReadWriteLock` under sustained
reader pressure, then the multi-process invalidation protocol at two
levels: an in-process variant (injectable transport, real threads
hammering ``ensure_fresh`` against a live writer) and a forked variant
(a real child process syncing over HTTP on the unix control socket
against shared-memory counters — the exact production topology, minus
the public listener).
"""

import io
import json
import os
import socket
import threading
import time

import pytest

from repro.datasets import example_repository
from repro.service import (
    DiversificationConfiguration,
    PodiumService,
    ReadWriteLock,
)
from repro.service.workers import (
    SharedPoolState,
    WorkerRuntime,
    WriteCoordinator,
    make_worker_app,
    unix_http_transport,
)
from repro.storage import MemoryLog


def make_writer(capacity=1024):
    service = PodiumService(example_repository())
    service.configurations.put(
        DiversificationConfiguration(name="two", budget=2)
    )
    shared = SharedPoolState(2)
    changelog = MemoryLog(capacity=capacity)
    coordinator = WriteCoordinator(service, shared, changelog, False)
    return service, shared, changelog, coordinator


def make_follower(shared, coordinator, slot=0):
    service = PodiumService(example_repository())
    service.configurations.put(
        DiversificationConfiguration(name="two", budget=2)
    )
    runtime = WorkerRuntime(
        service, shared, slot, coordinator.request, epoch=0, version=0
    )
    return service, runtime


def wsgi_call(app, method, path, body=b"", query=""):
    status = []
    chunks = app(
        {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": query,
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        },
        lambda line, headers: status.append(line),
    )
    return status[0], json.loads(b"".join(chunks))


def delta_body(i):
    return json.dumps(
        {"upserts": {f"conc{i:04d}": {"avgRating Mexican": 0.9}}}
    ).encode()


class TestReadWriteLockContention:
    def test_writer_not_starved_by_reader_stream(self):
        """A continuous stream of overlapping readers must not starve
        the writer: writer preference means every queued write turns
        around while readers keep arriving."""
        lock = ReadWriteLock()
        stop = threading.Event()
        writes_done = 0

        def reader():
            while not stop.is_set():
                with lock.read():
                    time.sleep(0.001)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        try:
            deadline = time.monotonic() + 10
            for _ in range(5):
                with lock.write():
                    writes_done += 1
                assert time.monotonic() < deadline, "writer starved"
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=5)
        assert writes_done == 5

    def test_readers_see_no_torn_writes(self):
        """Readers under the lock always observe the pair invariant a
        writer maintains — no torn intermediate state."""
        lock = ReadWriteLock()
        state = {"a": 0, "b": 0}
        torn = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                with lock.read():
                    if state["a"] != state["b"]:
                        torn.append((state["a"], state["b"]))

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for t in readers:
            t.start()
        for i in range(200):
            with lock.write():
                state["a"] = i
                state["b"] = i
        stop.set()
        for t in readers:
            t.join(timeout=5)
        assert not torn


class TestInvalidationThreaded:
    def test_version_bump_marks_worker_stale(self):
        _, shared, _, coordinator = make_writer()
        _, runtime = make_follower(shared, coordinator)
        assert not runtime.is_stale()
        status, payload = coordinator.request(
            "POST", "/profiles/delta", delta_body(0)
        )
        assert status == 200 and payload["users"] == 6
        assert int(shared.version.value) == 1
        assert runtime.is_stale()

    def test_sync_replays_deltas_to_identical_state(self):
        writer, shared, _, coordinator = make_writer()
        follower, runtime = make_follower(shared, coordinator)
        for i in range(5):
            coordinator.request("POST", "/profiles/delta", delta_body(i))
        assert runtime.ensure_fresh()
        assert not runtime.is_stale()
        assert len(follower.repository) == len(writer.repository) == 10
        want = writer.select("two", explain=False)
        got = follower.select("two", explain=False)
        assert got["selected"] == want["selected"]
        assert got["score"] == want["score"]

    def test_ring_overflow_forces_full_resync(self):
        writer, shared, _, coordinator = make_writer(capacity=2)
        follower, runtime = make_follower(shared, coordinator)
        for service in (writer, follower):  # groups frozen pre-delta
            for name in service.configurations.names():
                service.select(name, explain=False)
        for i in range(6):  # far beyond the 2-entry ring
            coordinator.request("POST", "/profiles/delta", delta_body(i))
        _, reply = coordinator.request(
            "GET", "/admin/wal", query={"from_seq": runtime.version}
        )
        assert reply["resync"]
        runtime.ensure_fresh()
        assert len(follower.repository) == len(writer.repository)
        assert runtime.version == int(shared.version.value)
        for name in writer.configurations.names():
            for budget in (2, 4):
                assert follower.select(
                    name, budget=budget, explain=False
                ) == writer.select(name, budget=budget, explain=False)

    def test_profiles_post_bumps_epoch_and_resyncs(self):
        writer, shared, _, coordinator = make_writer()
        follower, runtime = make_follower(shared, coordinator)
        from repro.datasets import profiles_to_dict

        body = json.dumps(profiles_to_dict(example_repository())).encode()
        status, _ = coordinator.request("POST", "/profiles", body)
        assert status == 200
        assert int(shared.epoch.value) == 1
        assert runtime.is_stale()
        runtime.ensure_fresh()
        assert runtime.epoch == 1
        assert len(follower.repository) == 5

    def test_configuration_put_replicates(self):
        writer, shared, _, coordinator = make_writer()
        follower, runtime = make_follower(shared, coordinator)
        config = DiversificationConfiguration(name="three", budget=3)
        status, _ = coordinator.request(
            "POST", "/configurations", json.dumps(config.to_dict()).encode()
        )
        assert status == 201
        runtime.ensure_fresh()
        assert "three" in follower.configurations
        assert follower.configurations.get("three").budget == 3

    def test_rejected_write_publishes_nothing(self):
        _, shared, _, coordinator = make_writer()
        status, payload = coordinator.request(
            "POST",
            "/profiles/delta",
            json.dumps({"removals": ["nobody-here"]}).encode(),
        )
        assert status == 400
        assert "error" in payload
        assert int(shared.version.value) == 0

    def test_contended_reads_converge_with_live_writer(self):
        """Reader threads spinning ensure_fresh + select against a
        writer applying deltas concurrently: no exception, no torn
        state, and the follower converges to the writer exactly."""
        writer, shared, _, coordinator = make_writer()
        follower, runtime = make_follower(shared, coordinator)
        errors = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                try:
                    runtime.ensure_fresh()
                    follower.select("two", explain=False)
                except Exception as exc:  # noqa: BLE001 — the assertion
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        for t in readers:
            t.start()
        for i in range(30):
            status, _ = coordinator.request(
                "POST", "/profiles/delta", delta_body(i)
            )
            assert status == 200
        stop.set()
        for t in readers:
            t.join(timeout=10)
        assert not errors
        runtime.ensure_fresh()
        assert len(follower.repository) == len(writer.repository) == 35
        assert (
            follower.select("two", explain=False)
            == writer.select("two", explain=False)
        )


class TestPoolPrimaryLog:
    def test_worker_answers_log_routes_with_writers_documents(self):
        """A worker holds no log: it forwards ``GET /admin/wal`` and
        ``GET /admin/state`` to the writer, so a follower can tail a
        pool primary."""
        writer, shared, _, coordinator = make_writer()
        follower, runtime = make_follower(shared, coordinator)
        app = make_worker_app(follower, runtime)
        status, _ = wsgi_call(app, "POST", "/profiles/delta", delta_body(0))
        assert status.startswith("200")
        assert writer.change_log.last_seq == 1
        status, tail = wsgi_call(app, "GET", "/admin/wal", query="from_seq=0")
        assert status.startswith("200")
        assert tail == writer.wal_records_since(0, 256)
        assert [record["seq"] for record in tail["records"]] == [1]
        status, state = wsgi_call(app, "GET", "/admin/state")
        assert status.startswith("200")
        assert state == json.loads(json.dumps(writer.replication_snapshot()))
        assert state["wal_seq"] == 1


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork-based pool needs POSIX"
)
class TestInvalidationForked:
    def test_forked_worker_syncs_over_control_socket(self, tmp_path):
        """The production topology without a public listener: a forked
        child holding the pre-fork state syncs over HTTP on a real unix
        socket when the shared-memory version counter moves."""
        service, shared, changelog, coordinator = make_writer()
        control_path = str(tmp_path / "control.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(control_path)
        listener.listen(8)
        control = coordinator.serve(listener)

        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: wait for staleness, sync, report, exit
            verdict = b"0"
            try:
                os.close(read_fd)
                service.reset_concurrency_after_fork()
                runtime = WorkerRuntime(
                    service,
                    shared,
                    slot=1,
                    send=unix_http_transport(control_path, timeout=10),
                    epoch=0,
                    version=0,
                )
                deadline = time.monotonic() + 15
                while not runtime.is_stale():
                    if time.monotonic() > deadline:
                        raise TimeoutError("never saw the version bump")
                    time.sleep(0.01)
                runtime.ensure_fresh()
                selection = service.select("two", explain=False)
                if (
                    len(service.repository) == 6
                    and "conc0000" in service.repository
                    and selection["selected"]
                ):
                    verdict = b"1"
            except Exception:  # noqa: BLE001 — verdict stays b"0"
                pass
            finally:
                try:
                    os.write(write_fd, verdict)
                except OSError:
                    pass
                os._exit(0)

        os.close(write_fd)
        try:
            status, _ = coordinator.request(
                "POST", "/profiles/delta", delta_body(0)
            )
            assert status == 200
            verdict = os.read(read_fd, 1)
            _, exit_status = os.waitpid(pid, 0)
        finally:
            os.close(read_fd)
            control.shutdown()
            control.server_close()
        assert exit_status == 0
        assert verdict == b"1"
        # The child's sync was counted in its shared slot.
        assert shared.counter_row(1)["syncs"] == 1

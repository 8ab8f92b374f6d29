"""One change log: configuration puts are records, and every reader tails.

A configuration is part of the served problem, so a put travels like a
delta: a WAL record with a store, a :class:`~repro.storage.MemoryLog`
record in a store-less pool writer.  These tests check that a put
survives a restart and reaches a follower, and drive the catch-up rule
pool workers and WAL followers share (:func:`apply_log_tail`) through a
faulty transport: duplicated, reordered and gapped batches, an epoch
change mid-stream, and a sync RPC that dies mid-catch-up.
"""

import io
import json
import threading
import time
from urllib.parse import parse_qsl, urlsplit

import numpy as np
import pytest

from repro.core.profiles import UserProfile
from repro.core.updates import ProfileDelta, profile_delta_to_dict
from repro.datasets.io import profiles_to_dict
from repro.datasets.synth import generate_profile_repository
from repro.service import (
    DiversificationConfiguration,
    PodiumService,
    WalFollower,
    make_http_server,
)
from repro.service.workers import (
    SharedPoolState,
    WorkerRuntime,
    WriteCoordinator,
    make_worker_app,
)
from repro.storage import DurableRepositoryStore, MemoryLog

BUDGETS = (4, 8)
CONFIGS = (DiversificationConfiguration(name="c", weight_scheme="Iden"),)
LATE = DiversificationConfiguration(
    name="late", weight_scheme="Iden", buckets_per_property=2
)


def _repo(seed=3):
    return generate_profile_repository(
        n_users=120, n_properties=10, mean_profile_size=5.0, seed=seed
    )


def _deltas(repo, n=4, users=15, seed=3):
    """Deltas that push touched users' scores up into [0.6, 1.0]."""
    rng = np.random.default_rng(seed)
    ids = sorted(repo.user_ids)
    deltas = []
    for _ in range(n):
        picks = rng.choice(len(ids), size=users, replace=False)
        deltas.append(
            ProfileDelta(
                upserts=tuple(
                    UserProfile(
                        ids[i],
                        {
                            label: 0.6 + 0.4 * float(rng.random())
                            for label in repo.profile(ids[i]).properties
                        },
                    )
                    for i in picks
                )
            )
        )
    return deltas


def _service(repository=None, store=None):
    service = PodiumService(repository, store=store)
    for config in CONFIGS:
        service.configurations.put(config)
    return service


def _warm(service):
    for name in service.configurations.names():
        service.select(name, explain=False)


def _selections(service):
    return {
        (name, budget): service.select(name, budget=budget, explain=False)
        for name in service.configurations.names()
        for budget in BUDGETS
    }


def _registry(service):
    return {
        name: service.configurations.get(name).to_dict()
        for name in service.configurations.names()
    }


# ---------------------------------------------------------------------------
# Durability of a configuration put
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("snapshot_between", (False, True))
def test_put_configuration_survives_restart(tmp_path, snapshot_between):
    store = DurableRepositoryStore(tmp_path, fsync=False)
    source = _service(store=store)
    source.load_repository(_repo())
    _warm(source)
    for delta in _deltas(_repo()):
        source.apply_profile_delta(delta)
    source.put_configuration(LATE)
    want = _selections(source)  # reads "late": its groups are built
    if snapshot_between:
        source.snapshot_store()
    store.release_after_fork()  # crash: no clean close

    reopened = DurableRepositoryStore(tmp_path, fsync=False)
    try:
        restarted = _service(store=reopened)  # the boot registers "c"
        restored = restarted.restore_artifacts()
        assert "late" in restarted.configurations
        assert _registry(restarted) == _registry(source)
        if snapshot_between:
            assert "late" in restored  # its frozen groups came back
        assert _selections(restarted) == want
    finally:
        reopened.close()


def test_boot_definition_wins_over_stored_one(tmp_path):
    store = DurableRepositoryStore(tmp_path, fsync=False)
    source = _service(store=store)
    source.load_repository(_repo())
    source.put_configuration(LATE)
    store.close()

    reopened = DurableRepositoryStore(tmp_path, fsync=False)
    try:
        restarted = PodiumService(store=reopened)
        rebudgeted = DiversificationConfiguration(
            name="late", weight_scheme="Iden", budget=3
        )
        restarted.configurations.put(rebudgeted)
        restarted.restore_artifacts()
        assert restarted.configurations.get("late") == rebudgeted
        assert "c" in restarted.configurations  # stored, not booted
    finally:
        reopened.close()


# ---------------------------------------------------------------------------
# A configuration put reaches a follower over HTTP
# ---------------------------------------------------------------------------


@pytest.fixture()
def primary(tmp_path_factory):
    store = DurableRepositoryStore(
        tmp_path_factory.mktemp("primary"), fsync=False
    )
    service = _service(store=store)
    service.load_repository(_repo())
    _warm(service)
    for delta in _deltas(_repo()):
        service.apply_profile_delta(delta)
    httpd = make_http_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        yield service, f"http://{host}:{port}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        store.close()


@pytest.mark.parametrize("with_store", (False, True))
def test_put_after_bootstrap_reaches_follower(primary, tmp_path, with_store):
    source, url = primary
    store = (
        DurableRepositoryStore(tmp_path, fsync=False) if with_store else None
    )
    follower_service = PodiumService(store=store)
    follower = WalFollower(follower_service, url, poll_interval=0.02)
    follower.start()
    try:
        source.put_configuration(LATE)
        deadline = time.monotonic() + 10
        while "late" not in follower_service.configurations:
            assert time.monotonic() < deadline, "put never replicated"
            time.sleep(0.02)
        assert _registry(follower_service) == _registry(source)
        assert _selections(follower_service) == _selections(source)
        if with_store:
            assert store.last_seq == source.store.last_seq
            assert store.configurations == source.store.configurations
    finally:
        follower.stop()
        if store is not None:
            store.close()


# ---------------------------------------------------------------------------
# The shared catch-up rule under transport faults
# ---------------------------------------------------------------------------


def _writes(repo):
    """Deltas with a configuration put and a re-put between them."""
    deltas = _deltas(repo, n=6, users=8, seed=5)
    return [
        ("delta", deltas[0]),
        ("config", LATE),
        ("delta", deltas[1]),
        ("delta", deltas[2]),
        ("epoch", _repo(seed=11)),
        ("delta", _deltas(_repo(seed=11), n=1, users=8, seed=7)[0]),
        ("config", DiversificationConfiguration(name="late", budget=3)),
        ("delta", deltas[4]),
    ]


class FaultyTail:
    """Mangles each tail document the way an unreliable transport could."""

    def __init__(self, fault):
        self.fault = fault
        self.shipped = []

    def __call__(self, document):
        records = list(document.get("records", ()))
        if self.fault == "duplicated":
            # Resend what was shipped before, then this batch twice.
            records = self.shipped[-2:] + records + records
        elif self.fault == "reordered":
            records.reverse()
        elif self.fault == "gapped" and len(records) > 1:
            records = records[1:]
        self.shipped.extend(document.get("records", ()))
        return {**document, "records": records}


def _counting(service):
    """Record every payload ``service.apply_record`` applies."""
    applied = []
    apply_record = service.apply_record

    def counted(payload):
        applied.append(json.dumps(payload, sort_keys=True))
        return apply_record(payload)

    service.apply_record = counted
    return applied


def _route(kind, value):
    """``(path, body)`` of one write, as a client would send it."""
    if kind == "delta":
        return "/profiles/delta", profile_delta_to_dict(value)
    if kind == "config":
        return "/configurations", value.to_dict()
    return "/profiles", profiles_to_dict(value)


FAULTS = ("none", "duplicated", "reordered", "gapped")
#: Faults a reader absorbs without a full install: the one epoch change
#: in ``_writes`` is then the only one.
ABSORBED = ("none", "duplicated")


@pytest.mark.parametrize("fault", FAULTS)
def test_worker_catch_up_under_faults(fault):
    repo = _repo()
    writer = _service(repo)
    _warm(writer)
    shared = SharedPoolState(1)
    coordinator = WriteCoordinator(writer, shared, MemoryLog(), False)
    worker = _service(repo)  # the forked clone of the writer
    _warm(worker)
    applied = _counting(worker)
    mangle = FaultyTail(fault)

    def send(method, path, query, body):
        status, payload = coordinator.request(method, path, body, query)
        if path != "/admin/wal":
            return status, payload
        return status, mangle(payload)

    runtime = WorkerRuntime(worker, shared, 0, send, epoch=0, version=0)
    installs = []
    adopt_full = runtime._adopt_full
    runtime._adopt_full = lambda: (installs.append(1), adopt_full())[1]
    for step, (kind, value) in enumerate(_writes(repo)):
        path, body = _route(kind, value)
        status, _ = coordinator.request(
            "POST", path, json.dumps(body).encode()
        )
        assert status < 400
        if step % 2:  # let batches of two records build up
            continue
        assert runtime.ensure_fresh()
        assert not runtime.is_stale()
    runtime.ensure_fresh()
    assert (runtime.epoch, runtime.version) == (
        writer.memory_log.reset_epoch,
        writer.memory_log.last_seq,
    )
    assert len(applied) == len(set(applied)), "a record applied twice"
    if fault in ABSORBED:
        assert len(installs) == 1
    assert _registry(worker) == _registry(writer)
    assert _selections(worker) == _selections(writer)


def _in_process_get(primary_service, mangle):
    """A ``WalFollower._get`` answering from the primary in-process."""

    def get(path):
        url = urlsplit(path)
        if url.path == "/admin/state":
            return primary_service.replication_snapshot()
        query = dict(parse_qsl(url.query))
        return mangle(
            primary_service.wal_records_since(
                int(query["from_seq"]), int(query["limit"])
            )
        )

    return get


@pytest.mark.parametrize("fault", FAULTS)
def test_follower_catch_up_under_faults(fault):
    repo = _repo()
    primary_service = _service(repo)
    _warm(primary_service)
    primary_service.memory_log = MemoryLog()
    replica = PodiumService()
    follower = WalFollower(replica, "http://primary.invalid")
    follower._get = _in_process_get(primary_service, FaultyTail(fault))
    follower.resync()
    applied = _counting(replica)
    for step, (kind, value) in enumerate(_writes(repo)):
        if kind == "delta":
            primary_service.apply_profile_delta(value)
        elif kind == "config":
            primary_service.put_configuration(value)
        else:
            primary_service.load_repository(value)
        if step % 2 == 0:
            follower._poll_once()
    for _ in range(3):  # a faulty batch may need another poll
        follower._poll_once()
    assert follower.applied_seq == primary_service.memory_log.last_seq
    assert len(applied) == len(set(applied)), "a record applied twice"
    if fault in ABSORBED:
        assert follower.resyncs == 2  # the bootstrap and the epoch change
    assert _registry(replica) == _registry(primary_service)
    assert _selections(replica) == _selections(primary_service)


# ---------------------------------------------------------------------------
# A sync that dies mid-catch-up serves stale, counts, and converges
# ---------------------------------------------------------------------------


def _read(app):
    body = json.dumps({"configuration": "c", "explain": False}).encode()
    status = []
    chunks = app(
        {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/select",
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        },
        lambda line, headers: status.append(line),
    )
    return status[0], json.loads(b"".join(chunks))


@pytest.mark.parametrize("failing_op", ("wal", "state"))
def test_sync_failure_mid_catch_up_serves_stale(failing_op):
    repo = _repo()
    writer = _service(repo)
    _warm(writer)
    shared = SharedPoolState(1)
    coordinator = WriteCoordinator(writer, shared, MemoryLog(), False)
    worker = _service(repo)
    _warm(worker)
    calls = {"wal": 0, "state": 0}
    broken = {"on": True}

    def send(method, path, query, body):
        op = path.rsplit("/", 1)[-1]  # "wal" or "state"
        calls[op] = calls.get(op, 0) + 1
        if broken["on"] and op == failing_op and (
            op == "state" or calls[op] == 2
        ):
            raise OSError("control socket reset")
        status, payload = coordinator.request(method, path, body, query)
        if op == "wal" and failing_op == "wal":
            # One record per batch, so the catch-up needs a second call.
            payload = {**payload, "records": payload["records"][:1]}
        return status, payload

    runtime = WorkerRuntime(worker, shared, 0, send, epoch=0, version=0)
    app = make_worker_app(worker, runtime)
    for delta in _deltas(repo, n=2, users=8, seed=9):
        coordinator.request(
            "POST",
            "/profiles/delta",
            json.dumps(profile_delta_to_dict(delta)).encode(),
        )
    if failing_op == "state":  # a new epoch forces a full install
        coordinator.request(
            "POST",
            "/profiles",
            json.dumps(profiles_to_dict(_repo(seed=13))).encode(),
        )

    status, _ = _read(app)
    assert status.startswith("200")  # served, from stale state
    assert runtime.is_stale()
    assert shared.counter_row(0)["sync_failures"] == 1
    if failing_op == "wal":
        assert runtime.version == 1  # the first record stayed applied

    broken["on"] = False
    status, answer = _read(app)
    assert status.startswith("200")
    assert not runtime.is_stale()
    assert shared.counter_row(0)["sync_failures"] == 1
    assert answer == writer.select("c", explain=False)
    assert _selections(worker) == _selections(writer)

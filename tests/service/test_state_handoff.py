"""Handoff identity: every whole-state install serves the source's groups.

A process's serving state is its repository *plus* each configuration's
grouping, its kept buckets: deltas re-assign users to them, so a regroup
of the same repository can draw different boundaries and answer
``/select`` differently.  Each test here sends deltas that move score
distributions (and so the boundaries a fresh regroup would draw), hands
the state to another process by one of the install paths — crash
recovery, a pool worker's full resync, a follower's bootstrap — and
asserts the receiver selects exactly like the source.
"""

import io
import json
import threading

import numpy as np
import pytest

from repro.core.groups import grouping_of
from repro.core.persistence import grouping_to_dict
from repro.core.profiles import UserProfile
from repro.core.updates import ProfileDelta, profile_delta_to_dict
from repro.datasets.io import profiles_to_dict
from repro.datasets.synth import generate_profile_repository
from repro.service import app as service_app
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

BUDGETS = (8, 16)
CONFIGS = (DiversificationConfiguration(name="c", weight_scheme="Iden"),)


def _repo():
    return generate_profile_repository(
        n_users=300, n_properties=12, mean_profile_size=5.0, seed=3
    )


def _deltas(repo, n=8, users=40, seed=3):
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


def _source_with_deltas(store=None):
    """A source that served before its deltas: its groups are frozen."""
    repo = _repo()
    source = _service(store=store)
    source.load_repository(repo)
    _warm(source)
    for delta in _deltas(repo):
        source.apply_profile_delta(delta)
    return source


def test_deltas_move_the_boundaries():
    """Guard for the fixture: a fresh regroup answers differently, so
    every identity below would fail on a receiver that regroups."""
    source = _source_with_deltas()
    regrouped = _service(source.repository)
    assert _selections(regrouped) != _selections(source)


def test_restart_after_crash_before_any_later_snapshot(tmp_path):
    store = DurableRepositoryStore(tmp_path, fsync=False)
    source = _source_with_deltas(store)
    want = _selections(source)
    store.release_after_fork()  # crash: no snapshot after the epoch's

    reopened = DurableRepositoryStore(tmp_path, fsync=False)
    try:
        assert reopened.replayed_records == 8
        restarted = _service(store=reopened)
        assert restarted.restore_artifacts() == ["c", "default"]
        assert _selections(restarted) == want
    finally:
        reopened.close()


def test_pool_full_resync_after_ring_overflow():
    writer = _service(_repo())
    _warm(writer)
    shared = SharedPoolState(1)
    coordinator = WriteCoordinator(
        writer, shared, MemoryLog(capacity=2), False
    )
    worker = _service(_repo())  # the forked clone of the pre-delta writer
    _warm(worker)
    runtime = WorkerRuntime(
        worker, shared, 0, coordinator.request, epoch=0, version=0
    )
    for delta in _deltas(_repo()):
        status, _ = coordinator.request(
            "POST",
            "/profiles/delta",
            json.dumps(profile_delta_to_dict(delta)).encode(),
        )
        assert status == 200
    assert coordinator.request("GET", "/admin/wal")[1]["resync"]
    assert runtime.ensure_fresh()
    assert _selections(worker) == _selections(writer)


@pytest.fixture()
def primary(tmp_path_factory):
    """A live HTTP primary with a durable store, after its deltas."""
    store = DurableRepositoryStore(
        tmp_path_factory.mktemp("primary"), fsync=False
    )
    service = _source_with_deltas(store)
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
def test_follower_resync(primary, tmp_path, with_store):
    source, url = primary
    store = (
        DurableRepositoryStore(tmp_path, fsync=False) if with_store else None
    )
    follower = PodiumService(store=store)
    try:
        WalFollower(follower, url).resync()
        assert _selections(follower) == _selections(source)
    finally:
        if store is not None:
            store.close()


def test_follower_restart_right_after_bootstrap(primary, tmp_path):
    source, url = primary
    store = DurableRepositoryStore(tmp_path, fsync=False)
    WalFollower(PodiumService(store=store), url).resync()
    assert store.last_seq == source.store.last_seq
    store.release_after_fork()  # crash right after the bootstrap

    reopened = DurableRepositoryStore(tmp_path, fsync=False)
    try:
        restarted = _service(store=reopened)
        assert restarted.restore_artifacts() == ["c", "default"]
        assert _selections(restarted) == _selections(source)
    finally:
        reopened.close()


def _two_worker_pool(repo):
    """An in-process store-less pool: a writer and two forked clones."""
    writer = PodiumService(repo)
    writer.warm_artifacts()
    shared = SharedPoolState(2)
    coordinator = WriteCoordinator(writer, shared, MemoryLog(), False)
    apps = []
    for slot in range(2):
        clone = PodiumService(repo)
        clone.warm_artifacts()
        runtime = WorkerRuntime(
            clone, shared, slot, coordinator.request, epoch=0, version=0
        )
        apps.append(make_worker_app(clone, runtime))
    return apps


def _post(app, path, document):
    body = json.dumps(document).encode()
    status = []
    chunks = app(
        {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": path,
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        },
        lambda line, headers: status.append(line),
    )
    assert status[0].startswith(("200", "201")), status
    return json.loads(b"".join(chunks))


def _diverge_probe(repo, first_write, name):
    """Write, select on worker A only, remove 160 users, then have both
    workers answer the same ``/select`` on ``name``."""
    worker_a, worker_b = _two_worker_pool(repo)
    _post(worker_a, *first_write)
    select = {"configuration": name, "budget": 6, "explain": False}
    _post(worker_a, "/select", select)
    removed = sorted(repo.user_ids)[::2][:160]
    _post(worker_a, "/profiles/delta", {"removals": removed})
    return [_post(app, "/select", select) for app in (worker_a, worker_b)]


POOL_REPO = dict(
    n_users=400, n_properties=20, mean_profile_size=8.0, seed=5
)


def test_pool_workers_agree_on_a_configuration_put_before_deltas():
    """A put is grouped at the record, not on one worker's first read:
    a worker that read it before a delta answers like one that did not."""
    repo = generate_profile_repository(**POOL_REPO)
    late = {"name": "late", "budget": 6}
    answers = _diverge_probe(repo, ("/configurations", late), "late")
    assert answers[0] == answers[1]


def test_store_less_pool_workers_agree_after_a_new_epoch():
    """``POST /profiles`` on a store-less pool groups on the writer, so
    every worker adopts the same buckets, read or not before a delta."""
    repo = generate_profile_repository(**POOL_REPO)
    load = ("/profiles", profiles_to_dict(repo))
    answers = _diverge_probe(repo, load, "default")
    assert answers[0] == answers[1]


def _count_groupings(monkeypatch):
    """Record every split-strategy run of the serving layer."""
    calls = []
    build = service_app.build_simple_groups

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(service_app, "build_simple_groups", counted)
    return calls


def test_restart_after_a_put_and_deltas_before_any_later_snapshot(tmp_path):
    """A put's WAL record carries the buckets the writer drew: recovery
    serves them, not a regroup of the post-delta population."""
    repo = generate_profile_repository(**POOL_REPO)
    store = DurableRepositoryStore(tmp_path, fsync=False)
    source = PodiumService(store=store)
    source.load_repository(repo)
    source.put_configuration(
        DiversificationConfiguration(name="late", budget=6)
    )
    removed = frozenset(sorted(repo.user_ids)[::2][:160])
    source.apply_profile_delta(ProfileDelta(removals=removed))
    want = source.select("late", budget=6, explain=False)
    regrouped = PodiumService(source.repository)
    regrouped.put_configuration(
        DiversificationConfiguration(name="late", budget=6)
    )
    assert regrouped.select("late", budget=6, explain=False) != want
    store.release_after_fork()  # crash: no snapshot after the put

    reopened = DurableRepositoryStore(tmp_path, fsync=False)
    try:
        assert reopened.replayed_records == 2
        restarted = PodiumService(store=reopened)
        assert restarted.restore_artifacts() == ["default", "late"]
        assert restarted.select("late", budget=6, explain=False) == want
    finally:
        reopened.close()


def test_a_put_runs_the_split_strategy_once_pool_wide(monkeypatch):
    """Only the writer groups a put; each worker materializes the
    buckets the record carries on its first read."""
    worker_a, worker_b = _two_worker_pool(
        generate_profile_repository(**POOL_REPO)
    )
    calls = _count_groupings(monkeypatch)
    _post(worker_a, "/configurations", {"name": "late", "budget": 6})
    select = {"configuration": "late", "budget": 6, "explain": False}
    answers = [_post(app, "/select", select) for app in (worker_a, worker_b)]
    assert len(calls) == 1
    assert answers[0] == answers[1]


def test_a_follower_applies_a_put_without_grouping(
    primary, monkeypatch
):
    source, url = primary
    follower = PodiumService()
    tail = WalFollower(follower, url)
    tail.resync()
    source.put_configuration(DiversificationConfiguration(name="late"))
    calls = _count_groupings(monkeypatch)
    tail._poll_once()
    assert calls == []
    assert follower.groups_for("late").keys == source.groups_for("late").keys
    assert _selections(follower) == _selections(source)


def test_a_record_without_buckets_is_grouped_and_logged_with_them(
    monkeypatch,
):
    """A record in the earlier format still applies: the process groups
    it and logs the record with the buckets it drew."""
    service = _service(_repo())
    service.memory_log = MemoryLog()
    calls = _count_groupings(monkeypatch)
    late = DiversificationConfiguration(name="late", budget=6)
    service.apply_record({"kind": "config", "config": late.to_dict()})
    assert len(calls) == 1
    (record,), _, _ = service.memory_log.records_since(0)
    assert record.payload["buckets"] == grouping_to_dict(
        grouping_of(service.groups_for("late"))
    )

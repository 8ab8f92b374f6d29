"""Handoff identity: every whole-state install serves the source's groups.

A process's serving state is its repository *plus* each configuration's
frozen group set: deltas re-assign users to frozen buckets, so a regroup
of the same repository can draw different boundaries and answer
``/select`` differently.  Each test here sends deltas that move score
distributions (and so the boundaries a fresh regroup would draw), hands
the state to another process by one of the install paths — crash
recovery, a pool worker's full resync, a follower's bootstrap — and
asserts the receiver selects exactly like the source.
"""

import json
import threading

import numpy as np
import pytest

from repro.core.profiles import UserProfile
from repro.core.updates import ProfileDelta, profile_delta_to_dict
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
        worker, shared, 0, coordinator.handle, epoch=0, version=0
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

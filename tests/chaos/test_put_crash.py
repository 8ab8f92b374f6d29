"""Crash after a configuration put: recovery serves the put's buckets.

The sweep in :mod:`tests.chaos.test_crash_recovery` compares a recovered
store with a *fresh regroup* of the oracle state, so it cannot see a
recovery that regroups a configuration its writer had already grouped.
Here the workload is a put whose record carries the writer's buckets,
then deltas that move the boundaries a regroup would draw, then a
snapshot.  The process dies at every shimmed syscall, and the recovered
store must answer ``/select`` exactly like a never-crashed service fed
the same acknowledged records.
"""

from repro.core.profiles import UserProfile
from repro.core.updates import ProfileDelta
from repro.service import DiversificationConfiguration
from repro.service.app import PodiumService
from repro.storage import DurableRepositoryStore, MemoryLog

from .harness import (
    BUDGET,
    base_repository,
    count_ops,
    oracle_registries,
    oracle_states,
    run_with_crash,
    same_repository,
)

PUT = DiversificationConfiguration(name="late", budget=BUDGET)


def _put_record(repository) -> dict:
    """The configuration record a writer logs for ``PUT``."""
    writer = PodiumService(repository)
    writer.memory_log = MemoryLog()
    writer.put_configuration(PUT)
    (record,), _, _ = writer.memory_log.records_since(0)
    return record.payload


def _boundary_moving_deltas(repository) -> list[ProfileDelta]:
    """Push half the population's scores into the top of the range."""
    ids = sorted(repository.user_ids)[::2]
    return [
        ProfileDelta(
            upserts=tuple(
                UserProfile(
                    user_id,
                    {
                        label: 0.9 + 0.01 * (i % 10)
                        for label in repository.profile(user_id).properties
                    },
                )
                for user_id in ids[start:start + 4]
            )
        )
        for i, start in enumerate(range(0, len(ids), 4))
    ]


def put_workload() -> list[tuple]:
    repository = base_repository()
    return [
        ("init", repository),
        ("record", _put_record(repository)),
        *(("delta", d) for d in _boundary_moving_deltas(repository)),
        ("snapshot",),
    ]


def _served(service) -> dict:
    return {
        name: service.select(name, budget=BUDGET, explain=False)
        for name in service.configurations.names()
    }


def _never_crashed(steps: list[tuple], completed: int) -> dict | None:
    """``/select`` of a service fed the first ``completed`` steps."""
    if completed == 0:
        return None
    service = PodiumService(steps[0][1])
    for kind, *body in steps[1:completed]:
        if kind == "record":
            service.apply_record(body[0])
        elif kind == "delta":
            service.apply_profile_delta(body[0])
    return _served(service)


def _recovered(store: DurableRepositoryStore) -> dict | None:
    if not len(store.repository):
        return None
    service = PodiumService(store=store)
    service.restore_artifacts()
    return _served(service)


def test_fixture_deltas_move_the_put_boundaries():
    """Guard: a regroup after the deltas answers differently, so every
    crash point below would fail on a recovery that regroups the put."""
    steps = put_workload()
    final = oracle_states(steps)[-1]
    regrouped = PodiumService(final)
    regrouped.put_configuration(PUT)
    assert _served(regrouped)["late"] != _never_crashed(steps, len(steps))[
        "late"
    ]


def test_crash_at_every_syscall_after_a_put(tmp_path_factory):
    steps = put_workload()
    states = oracle_states(steps)
    registries = oracle_registries(steps)
    total = count_ops(tmp_path_factory.mktemp("probe"), steps)
    for crash_at in range(total):
        work = tmp_path_factory.mktemp(f"crash{crash_at:03d}")
        completed, _ = run_with_crash(work, steps, crash_at)
        recovered = DurableRepositoryStore(work, fsync=False)
        try:
            matches = [
                k
                for k in (completed, completed + 1)
                if k < len(states)
                and same_repository(recovered.repository, states[k])
                and recovered.configurations == registries[k]
            ]
            assert matches, f"crash at op {crash_at}: no admissible state"
            assert _recovered(recovered) == _never_crashed(
                steps, matches[0]
            ), (
                f"crash at op {crash_at} (after {completed} acked steps): "
                f"recovery answers /select unlike a never-crashed service"
            )
        finally:
            recovered.close()

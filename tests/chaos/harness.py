"""Crash-recovery harness for the durable tier.

The harness drives a fixed *workload* — a sequence of store operations
(initialize, delta appends, configuration puts, snapshots, compaction,
epoch reset) — through
:class:`~repro.storage.CrashFS`, the fault-injecting filesystem shim.
One fault-free run enumerates every state-changing syscall the workload
performs; the property test then replays the workload once per syscall
index, "killing the process" (raising :class:`SimulatedCrash`) at that
exact op, simulating the power loss (:meth:`CrashFS.lose_volatile`
rewinds every file to its fsynced length), and recovering with a fresh
:class:`DurableRepositoryStore` on the surviving disk image.

Correctness oracle
------------------
Crashes are only allowed two outcomes per in-flight operation: it never
happened, or it fully happened.  So after a crash with ``k`` workload
steps acknowledged, the recovered repository *and* configuration
registry must equal the oracle state after step ``k`` (in-flight op
lost) or after step ``k+1`` (in-flight op committed before the crash
point) — anything else means an acked delta or configuration was lost,
a torn write leaked, or a half-applied epoch swap surfaced.  On top of
that equality, the harness asserts ``/select`` parity on every
configuration: a service booted from the recovered store must answer
exactly like a never-crashed service holding the matching oracle state.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.profiles import UserProfile, UserRepository
from repro.core.updates import ProfileDelta, apply_delta_to_repository
from repro.datasets.synth import generate_profile_repository
from repro.service import DiversificationConfiguration
from repro.service.app import PodiumService
from repro.storage import (
    CrashFS,
    DurableRepositoryStore,
    FaultPlan,
    SimulatedCrash,
    config_record,
)

BUDGET = 3

#: Step kinds the workload runner understands.
_KINDS = ("init", "delta", "config", "snapshot", "compact", "reset")


def base_repository(seed: int = 29) -> UserRepository:
    """Small but non-trivial population (keeps per-crash-point cost low)."""
    return generate_profile_repository(
        n_users=24, n_properties=10, mean_profile_size=5.0, seed=seed
    )


def make_delta(n: int) -> ProfileDelta:
    """A deterministic, state-independent delta (new user per call)."""
    return ProfileDelta(
        upserts=(
            UserProfile(
                f"chaos{n:03d}",
                {"p0": 0.1 + 0.05 * n, "p1": 0.9 - 0.05 * n},
            ),
        ),
        removals=frozenset(),
    )


def make_config(name: str, **fields) -> dict:
    """A configuration put's record body (its ``to_dict``)."""
    return DiversificationConfiguration(
        name=name, budget=BUDGET, weight_scheme="Iden", **fields
    ).to_dict()


def default_workload() -> list[tuple]:
    """The canonical chaos workload: every mutation the store offers.

    Covers append (WAL write + fsync) of both record kinds, snapshot
    (staged files, pointer flip, pruning), re-snapshot at an unchanged
    sequence (the ``.N`` suffix path), compaction (snapshot + WAL
    truncate) and an epoch reset (snapshot-then-truncate ordering) with
    appends after each.  Configuration puts land before a snapshot,
    between the compaction and the reset, and after the reset (a re-put
    replacing an earlier definition).
    """
    return [
        ("init", base_repository()),
        ("delta", make_delta(0)),
        ("config", make_config("early")),
        ("delta", make_delta(1)),
        ("snapshot",),
        ("snapshot",),  # same seq: exercises the .N re-snapshot path
        ("delta", make_delta(2)),
        ("compact",),
        ("config", make_config("mid", coverage_scheme="Prop")),
        ("delta", make_delta(3)),
        ("reset", base_repository(seed=31)),
        ("config", make_config("early", buckets_per_property=2)),
        ("delta", make_delta(4)),
    ]


def oracle_states(steps: list[tuple]) -> list[UserRepository]:
    """Repository after each workload prefix; index k = k steps done."""
    repo = UserRepository(())
    states = [repo]
    for step in steps:
        kind = step[0]
        if kind in ("init", "reset"):
            repo = step[1]
        elif kind == "delta":
            repo = apply_delta_to_repository(repo, step[1])
        elif kind not in _KINDS:
            raise ValueError(f"unknown workload step {kind!r}")
        states.append(repo)
    return states


def oracle_registries(steps: list[tuple]) -> list[dict]:
    """Configuration registry after each workload prefix (name -> dict).

    A reset replaces the population, not the registry.
    """
    registry: dict = {}
    registries = [registry]
    for step in steps:
        if step[0] == "config":
            registry = {**registry, step[1]["name"]: step[1]}
        registries.append(registry)
    return registries


def _execute(store: DurableRepositoryStore, step: tuple) -> None:
    kind = step[0]
    if kind == "init":
        store.initialize(step[1])
    elif kind == "delta":
        store.append_delta(step[1])
    elif kind == "config":
        store.append(config_record(step[1]))
    elif kind == "snapshot":
        store.snapshot()
    elif kind == "compact":
        store.compact()
    elif kind == "reset":
        store.reset(step[1])
    else:
        raise ValueError(f"unknown workload step {kind!r}")


def count_ops(tmp_path: Path, steps: list[tuple]) -> int:
    """Fault-free run: how many shimmed syscalls the workload performs."""
    fs = CrashFS(FaultPlan())
    store = DurableRepositoryStore(tmp_path, fsync=True, fs=fs)
    for step in steps:
        _execute(store, step)
    ops = fs.op_count  # before close: the crash runs never close cleanly
    store.close()
    return ops


def run_with_crash(
    tmp_path: Path,
    steps: list[tuple],
    crash_at: int,
    rng=None,
    worst_case: bool = True,
) -> tuple[int, CrashFS]:
    """Run the workload, dying at syscall ``crash_at``; power-loss the disk.

    Returns ``(completed_steps, fs)``.  The store's file descriptor is
    released *without* flushing (the process died), then every file is
    rewound to its durable length — what a reboot would find.
    """
    fs = CrashFS(FaultPlan(crash_at=crash_at), rng=rng)
    completed = 0
    store = None
    try:
        store = DurableRepositoryStore(tmp_path, fsync=True, fs=fs)
        for step in steps:
            _execute(store, step)
            completed += 1
    except SimulatedCrash:
        pass
    else:
        raise AssertionError(
            f"crash_at={crash_at} never fired ({fs.op_count} ops total)"
        )
    finally:
        if store is not None:
            # A dead process closes nothing gracefully: drop the fd
            # without the flush/fsync a clean close would perform.
            store.release_after_fork()
    fs.lose_volatile(worst_case=worst_case)
    return completed, fs


def select_response(source, registry: dict | None = None) -> dict | None:
    """``/select`` documents by configuration for a store or a bare
    repository (with ``registry``'s configurations put on it).

    ``None`` when the source holds no users (a crash before the first
    initialize completes legitimately recovers an empty store).
    """
    if isinstance(source, DurableRepositoryStore):
        if not len(source.repository):
            return None
        service = PodiumService(store=source)
        service.restore_artifacts()
    else:
        if not len(source):
            return None
        service = PodiumService(repository=source)
        for config in (registry or {}).values():
            service.put_configuration(
                DiversificationConfiguration.from_dict(config)
            )
    return {
        name: service.select(name, budget=BUDGET, explain=False)
        for name in service.configurations.names()
    }


def same_repository(a: UserRepository, b: UserRepository) -> bool:
    if sorted(a.user_ids) != sorted(b.user_ids):
        return False
    return all(
        a.profile(u).scores == b.profile(u).scores for u in a.user_ids
    )


def verify_crash_point(
    tmp_path: Path,
    steps: list[tuple],
    crash_at: int,
    rng=None,
    worst_case: bool = True,
) -> None:
    """Crash at one syscall index and assert the recovery contract."""
    completed, _ = run_with_crash(
        tmp_path, steps, crash_at, rng=rng, worst_case=worst_case
    )
    states = oracle_states(steps)
    registries = oracle_registries(steps)
    admissible = [completed]
    if completed + 1 < len(states):
        admissible.append(completed + 1)

    recovered = DurableRepositoryStore(tmp_path, fsync=False)
    try:
        matches = [
            k
            for k in admissible
            if same_repository(recovered.repository, states[k])
            and recovered.configurations == registries[k]
        ]
        assert matches, (
            f"crash at op {crash_at} (after {completed} acked steps): "
            f"recovered {len(recovered.repository)} users and registry "
            f"{sorted(recovered.configurations)} matching no admissible "
            f"state (admissible sizes: "
            f"{[len(states[k]) for k in admissible]}, registries: "
            f"{[sorted(registries[k]) for k in admissible]})"
        )
        # /select parity with a never-crashed instance on the same state.
        k = matches[0]
        assert select_response(recovered) == select_response(
            states[k], registries[k]
        ), (
            f"crash at op {crash_at}: recovered store answers /select "
            f"differently from a never-crashed instance"
        )
    finally:
        recovered.close()

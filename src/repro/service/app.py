"""The Podium production service (paper §7, Fig. 1).

The original system is a Flask app; offline we provide the same
architecture on the standard library: a :class:`PodiumService` facade
wiring the Grouping Module (offline bucketing + weights per
configuration), the Selection Module (greedy / customized selection) and
the Visualization module (explanation payloads), plus a plain WSGI
adapter exposing it over HTTP.

Unlike the prototype, the serving path is built for sustained traffic:

* **Artifact cache** — one ``_ConfigArtifacts`` entry per configuration
  holds its frozen ``GroupSet`` and everything derived from it
  (instances with their ``InstanceIndex``, cluster partitions, greedy
  trajectories, streaming maintainers).  One memoized builder makes
  each artifact on first use; replacing the entry drops all of them.
  Repeated ``/select`` calls against an unchanged repository perform
  zero instance rebuilds, and under budget-independent schemes every
  budget shares one instance and one trajectory.
* **Vectorized selection** — plain selections run
  :func:`~repro.core.greedy.select_from_index` over the cached sparse
  index, and customized selections use the matrix customization path
  (a CSR row mask and a rescaled copy of the index's weights; the
  rescaled dict instance is built only to explain).
* **Incremental updates** — ``POST /profiles/delta`` applies a
  :class:`~repro.core.updates.ProfileDelta` through the §9 incremental
  machinery: cached group sets keep their frozen buckets and only
  re-assign members.  Instances are rebuilt on the first read after the
  delta, so a configuration nobody reads is never re-encoded.
* **Concurrency** — requests are served by a
  :class:`ThreadingWSGIServer`; a writer-preferring
  :class:`~repro.service.concurrency.ReadWriteLock` lets selections run
  concurrently while repository/cache swaps are exclusive, so in-flight
  requests always see a consistent snapshot.
* **Observability** — per-request structured JSON logs and a
  ``GET /metrics`` endpoint (request/error counts per route, cache
  hit/miss counters, per-stage timings).

Routes
------
``GET  /health``          — liveness + corpus stats
``GET  /metrics``         — request metrics, cache counters, timings
``GET  /configurations``  — list stored configurations
``POST /configurations``  — add a configuration (JSON body)
``POST /profiles``        — load a profile document (JSON body)
``POST /profiles/delta``  — apply an incremental profile delta
``GET  /groups``          — group explanations for ``?configuration=``
``POST /select``          — run a selection request (JSON body)
``GET  /explain.html``    — the Fig. 2 explanation page as static HTML
                            (``?configuration=`` and ``&budget=`` optional)

A selection request body::

    {"configuration": "default", "budget": 5,
     "feedback": {"must_have": [["avgRating Mexican", "high"]],
                  "must_not": [], "priority": [], "standard": null},
     "distribution_properties": ["avgRating Mexican"]}

``feedback`` is an object, ``explain`` and ``maintained`` are JSON
booleans and ``distribution_properties`` is a list of strings; any
other type is a 400 naming the field.

A constrained selection body (mutually exclusive with ``feedback`` and
``maintained``; floors/ceilings are hard per-group bounds, ``clusters``
switches to cluster-budgeted mode)::

    {"configuration": "default", "budget": 12,
     "constraints": {"floors": [["gender", "f", 5]],
                     "ceilings": [["region", "north", 3]]}}

A profile delta body::

    {"upserts": {"Alice": {"avgRating Mexican": 0.9}},
     "removals": ["Bob"]}
"""

from __future__ import annotations

import functools
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from itertools import accumulate
from socketserver import ThreadingMixIn
from typing import Any, Callable
from urllib.parse import parse_qsl
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from ..constraints import (
    ClusterSpec,
    ConstraintSpec,
    constrained_select,
    partition_rows,
)
from ..core.customization import CustomizationFeedback, custom_select
from ..core.errors import (
    InfeasibleConstraintError,
    InvalidBudgetError,
    PodiumError,
    ServiceError,
)
from ..core.explanations import explain_selection
from ..core.greedy import SelectionResult, greedy_select, select_from_index
from ..core.groups import (
    GroupKey,
    GroupSet,
    build_simple_groups,
    grouping_of,
    groups_from_grouping,
)
from ..core.index import InstanceIndex, attach_index, instance_index
from ..core.instance import DiversificationInstance
from ..core.profiles import UserProfile, UserRepository
from ..core.updates import (
    ProfileDelta,
    apply_delta_to_repository,
    profile_delta_from_dict,
    reassign_groups,
    rebuild_instance,
)
from ..core.weights import Weight
from ..core.persistence import grouping_from_dict, index_source_path
from ..storage import (
    KIND_CONFIG,
    KIND_DELTA,
    DurableRepositoryStore,
    MemoryLog,
    SnapshotArtifact,
    SnapshotState,
    StreamingMaintainer,
    config_record,
    delta_record,
    snapshot_state_to_dict,
)
from .concurrency import ReadWriteLock
from .config import (
    ConfigurationStore,
    DiversificationConfiguration,
    default_configuration,
    json_int,
    json_str_list,
)
from .metrics import ServiceMetrics, StageTimer, request_log_record
from .viz import explanation_payload

logger = logging.getLogger("repro.service")


def _parse_group_keys(pairs: Any, field_name: str) -> frozenset[GroupKey]:
    if pairs is None:
        return frozenset()
    try:
        return frozenset(
            GroupKey(str(prop), str(bucket)) for prop, bucket in pairs
        )
    except (TypeError, ValueError) as exc:
        raise ServiceError(
            f"feedback field {field_name!r} must be a list of "
            f"[property, bucket] pairs: {exc}"
        ) from exc


def parse_feedback(data: dict[str, Any] | None) -> CustomizationFeedback:
    """Parse the JSON feedback object into a :class:`CustomizationFeedback`."""
    if data is None:
        return CustomizationFeedback.none()
    if not isinstance(data, dict):
        raise ServiceError(
            "field 'feedback' must be a JSON object, got "
            f"{type(data).__name__}"
        )
    standard = data.get("standard")
    return CustomizationFeedback(
        must_have=_parse_group_keys(data.get("must_have"), "must_have"),
        must_not=_parse_group_keys(data.get("must_not"), "must_not"),
        priority=_parse_group_keys(data.get("priority"), "priority"),
        standard=(
            _parse_group_keys(standard, "standard")
            if standard is not None
            else None
        ),
    )


def parse_constraints(data: Any) -> ConstraintSpec | None:
    """Parse the ``/select`` body's ``constraints`` block at the JSON edge.

    ``None``/absent means unconstrained.  Malformed blocks raise
    :class:`~repro.core.errors.InvalidConstraintError`, which the WSGI
    boundary maps to a 400 like every other :class:`PodiumError` — a
    bad constraint never reaches the solver.
    """
    if data is None:
        return None
    spec = ConstraintSpec.from_dict(data)
    return None if spec.is_empty else spec


def parse_profile_delta(document: dict[str, Any]) -> ProfileDelta:
    """Parse the ``/profiles/delta`` JSON body into a :class:`ProfileDelta`."""
    upserts_raw = document.get("upserts") or {}
    if not isinstance(upserts_raw, dict):
        raise ServiceError(
            "delta field 'upserts' must map user ids to {property: score}"
        )
    upserts = []
    for user_id, scores in upserts_raw.items():
        if not isinstance(scores, dict):
            raise ServiceError(
                f"upsert for user {user_id!r} must be a "
                f"{{property: score}} object"
            )
        upserts.append(UserProfile(str(user_id), scores))
    removals_raw = document.get("removals") or []
    if not isinstance(removals_raw, list):
        raise ServiceError("delta field 'removals' must be a list of user ids")
    return ProfileDelta(
        upserts=tuple(upserts),
        removals=frozenset(str(u) for u in removals_raw),
    )


@dataclass(frozen=True)
class _Trajectory:
    """One greedy run long enough to saturate; budget ``k`` is its prefix.

    ``scores[k]`` is the score of the first ``k`` picks, so a budget
    within the run is answered by slicing, in O(k).
    """

    result: SelectionResult
    scores: tuple[Weight, ...]

    @classmethod
    def of(cls, result: SelectionResult) -> "_Trajectory":
        return cls(result, tuple(accumulate(result.gains, initial=0)))

    def prefix(self, budget: int) -> SelectionResult | None:
        """The budget's selection, or ``None`` past the run's length."""
        if budget > len(self.result):
            return None
        return SelectionResult(
            selected=self.result.selected[:budget],
            score=self.scores[budget],
            gains=self.result.gains[:budget],
            instance=self.result.instance,
        )


@dataclass
class _ConfigArtifacts:
    """Every serving artifact of one configuration, with one lifetime.

    The ``groups`` hold the members of the configuration's grouping, its
    one durable artifact; the tables below are derived from them,
    memoized on first use by :meth:`PodiumService._memo` and dropped
    together when the entry is replaced (a delta, a re-put
    configuration, a new state), so every entry in the cache belongs to
    the current repository generation.  An
    entry is valid while its configuration object is still the stored
    one and its group set has not been mutated in place
    (``GroupSet.version``).

    Instances, partitions and trajectories are keyed by the *instance
    key* (:meth:`PodiumService._instance_key`): the configuration's own
    budget when both of its schemes ignore the budget (Iden or LBS with
    Single), so every request budget shares one instance, and the
    request's effective budget otherwise (EBS, Prop).
    """

    config: DiversificationConfiguration
    groups: GroupSet
    groups_version: int = field(init=False)
    #: Instance key → instance, its sparse index pre-warmed on it.
    instances: dict[int, DiversificationInstance] = field(
        default_factory=dict
    )
    #: (instance key, ClusterSpec) → partition; the spec hashes by
    #: value, so requests declaring the same clustering on one index
    #: share one computation.
    partitions: dict[tuple[int, ClusterSpec], list] = field(
        default_factory=dict
    )
    #: Instance key → the saturated plain-greedy run whose prefixes
    #: answer every plain select (budget-independent schemes only).
    trajectories: dict[int, _Trajectory] = field(default_factory=dict)
    #: Budget → streaming maintainer.  The only table a delta carries
    #: over: each maintainer is repaired, not re-solved.
    maintainers: dict[int, StreamingMaintainer] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        self.groups_version = self.groups.version


class PodiumService:
    """Facade over the grouping, selection and visualization modules.

    Thread-safe: public entry points take a reader–writer lock — reads
    (selections, listings, metrics) run concurrently, mutations
    (profile loads, deltas, configuration changes) are exclusive and
    invalidate or refresh the artifact cache.
    """

    def __init__(
        self,
        repository: UserRepository | None = None,
        configurations: ConfigurationStore | None = None,
        metrics: ServiceMetrics | None = None,
        store: DurableRepositoryStore | None = None,
        swap_margin: float = 0.1,
        staleness_fraction: float = 0.25,
    ) -> None:
        self._repository = repository
        self._configurations = configurations or ConfigurationStore(
            (default_configuration(),)
        )
        self._cache: dict[str, _ConfigArtifacts] = {}
        self._generation = 0
        self._lock = ReadWriteLock()
        # Builds happen under the shared (read) lock: double-checked
        # against this mutex so concurrent cold starts build once.
        # Re-entrant: one artifact's build may build another it needs.
        self._build_lock = threading.RLock()
        self.metrics = metrics or ServiceMetrics()
        self.store = store
        self._swap_margin = swap_margin
        self._staleness_fraction = staleness_fraction
        # Multi-process serving: a worker process sets this to a callable
        # returning the pool-wide counter document, which
        # :meth:`metrics_snapshot` merges into ``GET /metrics`` so the
        # route reports the whole pool, not one worker's slice.
        self.cluster_stats_provider: Callable[[], dict[str, Any]] | None = (
            None
        )
        # WAL-shipping standby: the CLI attaches a WalFollower and flips
        # read_only; write routes answer 503 until POST /admin/promote.
        self.read_only = False
        self.follower: Any | None = None
        # A store-less pool writer's change log: the bounded in-memory
        # stand-in for the WAL its workers tail (set by WriteCoordinator).
        self.memory_log: MemoryLog | None = None
        if store is not None and repository is None and len(store.repository):
            # Recovered boot: the store already replayed snapshot + WAL.
            self._repository = store.repository

    # -- repository management -------------------------------------------

    @property
    def repository(self) -> UserRepository:
        if self._repository is None:
            raise ServiceError("no profiles loaded")
        return self._repository

    def load_repository(self, repository: UserRepository) -> None:
        """Swap the user repository wholesale (a new epoch).

        Goes through :meth:`install_state` with no groupings: every
        configuration regroups against the new population, and a store
        snapshots the new epoch with those groupings.
        """
        self.install_state(SnapshotState(repository=repository))

    def restore_artifacts(self) -> list[str]:
        """Install the store's recovered state (boot recovery).

        Called once at boot, *after* configurations are registered: the
        stored ones the boot did not register come back, and a name the
        boot registered keeps the boot's definition.  See
        :meth:`install_state` for the adoption rule.  Restoring the
        groupings is what makes a restarted process answer ``/select``
        identically: a fresh regroup could legally draw different bucket
        boundaries than the ones served before the restart.
        """
        if self.store is None:
            return []
        return self.install_state(
            SnapshotState(
                repository=self.store.repository,
                artifacts=self.store.artifacts,
                configurations={
                    **self.store.configurations,
                    **self._registry(),  # the boot's definitions win
                },
            ),
            new_epoch=False,
        )

    def install_state(
        self,
        state: SnapshotState,
        base_seq: int | None = None,
        new_epoch: bool = True,
    ) -> list[str]:
        """Install a whole serving state: repository plus groupings.

        The one path every wholesale change takes: boot recovery
        (:meth:`restore_artifacts`), a profile load
        (:meth:`load_repository`), a pool worker's full resync and a
        replication follower's bootstrap.  A non-empty
        ``state.configurations`` replaces the registry (a receiver
        adopting a sender's registry).  Each artifact is adopted only
        when its stored configuration dict equals the registered
        configuration's — a changed configuration must regroup, not
        serve stale buckets.  Its members derive from its grouping; its
        index, when present, is attached to the default-budget instance.

        With ``new_epoch`` true (everything but recovery, where the
        store already holds this state) a process with a change log
        groups every registered configuration and starts a new epoch:
        a store snapshots it with those groupings and the registry
        (``base_seq`` aligns its sequence numbering with a replication
        primary's), and the processes tailing the log install the same
        groupings.

        Returns the sorted names of the adopted artifacts.
        """
        with self._lock.write():
            if state.configurations:
                self._configurations = ConfigurationStore(
                    tuple(
                        DiversificationConfiguration.from_dict(config)
                        for config in state.configurations.values()
                    )
                )
            self._repository = state.repository
            self._generation += 1
            self._cache.clear()
            adopted = [
                name
                for name, artifact in state.artifacts.items()
                if name in self._configurations
                and artifact.config
                == self._configurations.get(name).to_dict()
            ]
            for name in adopted:
                self._adopt_artifact(name, state.artifacts[name])
            if new_epoch and self.change_log is not None:
                # Group every configuration now, as at a config record:
                # the processes tailing this log adopt these buckets.
                timer = StageTimer()
                for name in self._configurations.names():
                    self._artifacts(name, timer)
                if self.store is not None:
                    self.store.reset(
                        state.repository,
                        base_seq=base_seq,
                        artifacts=self._export_artifacts(),
                        configurations=self._registry(),
                    )
                else:
                    self.memory_log.reset()
        return sorted(adopted)

    def _adopt_artifact(self, name: str, artifact: SnapshotArtifact) -> None:
        """Seed one cache entry from a frozen artifact (write lock held)."""
        config = self._configurations.get(name)
        entry = self._cache[name] = _ConfigArtifacts(
            config, groups_from_grouping(self._repository, artifact.grouping)
        )
        if artifact.index is not None:
            started = time.perf_counter()
            self._instance(
                entry, config.budget, StageTimer(), index=artifact.index
            )
            # Adoption of a checkpoint index stands in for the encode a
            # cold boot would pay; recorded as its own stage so /metrics
            # shows open-vs-build cost.  Mapped opens (open_index_npz)
            # are split from the eager legacy-snapshot fallback.
            stage = (
                "artifact_open"
                if index_source_path(artifact.index) is not None
                else "artifact_open_eager"
            )
            self.metrics.observe_stage(stage, time.perf_counter() - started)

    def apply_profile_delta(self, delta: ProfileDelta) -> dict[str, Any]:
        """Apply a batch of upserts/removals incrementally (paper §9):
        cached group sets keep their frozen bucket boundaries, so the
        offline bucketing step is skipped (see :meth:`apply_record`)."""
        return self.apply_record(delta_record(delta))

    def put_configuration(
        self, config: DiversificationConfiguration
    ) -> dict[str, Any]:
        """Insert or replace a configuration, dropping its stale artifacts.
        Part of the served problem, so a change-log record like a delta."""
        return self.apply_record(config_record(config.to_dict()))

    def apply_record(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Turn one change-log record into serving state.

        The one path a change takes in every process: a local write, a
        pool worker catching up, a follower applying a shipped record.
        A store WAL-appends it (validated, fsynced) before any state
        changes; a store-less pool writer logs it in memory once applied.
        A config record without ``buckets`` is grouped and logged with
        them; one with them (not the writer's) materializes them.
        """
        started = time.perf_counter()
        wal_seconds = 0.0
        kind = payload.get("kind")
        with self._lock.write():
            if kind == KIND_DELTA:
                delta = profile_delta_from_dict(payload.get("delta") or {})
                self._repository_or_raise()
            elif kind == KIND_CONFIG:
                config = DiversificationConfiguration.from_dict(
                    payload.get("config") or {}
                )
                # Grouped at the record, not on a first read: every
                # process applying it serves the same buckets.
                entry = None
                if self._repository is not None and "buckets" in payload:
                    grouping = grouping_from_dict(payload["buckets"])
                    groups = groups_from_grouping(self._repository, grouping)
                    entry = _ConfigArtifacts(config, groups)
                elif self._repository is not None:
                    entry = self._group(config, StageTimer())
                    payload = config_record(
                        config.to_dict(), grouping_of(entry.groups)
                    )
            else:
                raise ServiceError(f"unknown change record kind {kind!r}")
            if self.store is not None:
                wal_started = time.perf_counter()
                seq = self.store.log(payload)
                wal_seconds = time.perf_counter() - wal_started
            if kind == KIND_CONFIG:
                self._configurations.put(config)
                self._cache.pop(config.name, None)
                if entry is not None:
                    self._cache[config.name] = entry
                response = {"configuration": config.name}
            else:
                response = self._apply_delta_locked(delta)
                self.metrics.observe_ingest(
                    len(delta.upserts),
                    len(delta.removals),
                    time.perf_counter() - started,
                    wal_seconds,
                )
            if self.store is not None:
                self.store.adopt(
                    self._repository,
                    self._export_artifacts(),
                    self._registry(),
                )
                response.update(wal_seq=seq, durable=True)
            elif self.memory_log is not None:
                self.memory_log.append(payload)
            return response

    def _apply_delta_locked(self, delta: ProfileDelta) -> dict[str, Any]:
        """Apply a delta to the repository + caches (write lock held).

        Each valid entry is replaced by one holding the re-assigned
        frozen groups and no instances: the first read rebuilds what it
        needs.  Maintainers carry over and are repaired against their
        own budget's instance, the only build on the write path.
        """
        repository = apply_delta_to_repository(self._repository, delta)
        self._repository = repository
        self._generation += 1
        refreshed: list[str] = []
        timer = StageTimer()
        touched = len(delta.touched)
        for name, entry in list(self._cache.items()):
            if name not in self._configurations or not self._entry_valid(
                entry, self._configurations.get(name)
            ):
                del self._cache[name]
                continue
            groups = reassign_groups(entry.groups, repository, delta)
            fresh = self._cache[name] = _ConfigArtifacts(
                entry.config, groups, maintainers=entry.maintainers
            )
            for budget, maintainer in fresh.maintainers.items():
                maintainer.refresh(self._index(fresh, budget, timer), touched)
            refreshed.append(name)
        return {
            "users": len(repository),
            "upserts": len(delta.upserts),
            "removals": len(delta.removals),
            "generation": self._generation,
            "refreshed_configurations": sorted(refreshed),
        }

    @property
    def configurations(self) -> ConfigurationStore:
        return self._configurations

    # -- multi-process serving hooks ---------------------------------------

    def replication_snapshot(self) -> dict[str, Any]:
        """The ``GET /admin/state`` document of the whole serving state.

        The JSON :class:`~repro.storage.SnapshotState` (repository,
        groupings, registry) plus the change log's ``wal_seq`` and
        ``reset_epoch``, read under one lock.  A pool worker's full
        install and a follower's bootstrap hand it to
        :meth:`install_state`, so the receiver serves the sender's bucket
        boundaries and resumes tailing at exactly that position.
        """
        with self._lock.read():
            log = self.change_log
            document = snapshot_state_to_dict(
                SnapshotState(
                    repository=self._repository_or_raise(),
                    artifacts=self._export_artifacts(),
                    configurations=self._registry(),
                    wal_seq=log.last_seq if log is not None else 0,
                )
            )
            document["reset_epoch"] = (
                log.reset_epoch if log is not None else 0
            )
            return document

    def wal_records_since(
        self, from_seq: int, limit: int = 256
    ) -> dict[str, Any]:
        """The ``GET /admin/wal`` document a follower or worker tails.

        Ships records with ``seq > from_seq`` plus the log tip and the
        reset-epoch counter; ``resync`` tells the reader a contiguous
        continuation is impossible (records compacted away or evicted,
        or the reader is ahead of this log) and a full state transfer is
        needed.
        """
        log = self.change_log or self._store_or_raise()
        if limit < 1:
            raise ServiceError(f"limit must be >= 1, got {limit}")
        records, last_seq, resync = log.records_since(from_seq, limit=limit)
        return {
            "from_seq": from_seq,
            "last_seq": last_seq,
            "resync": resync,
            "reset_epoch": log.reset_epoch,
            "records": [
                {"seq": r.seq, "payload": r.payload} for r in records
            ],
        }

    def promote(self) -> dict[str, Any]:
        """Take over as primary: stop tailing, enable writes.

        Idempotent — promoting a service that never followed anything
        just reports its current role.
        """
        follower = self.follower
        was_follower = follower is not None and self.read_only
        if follower is not None:
            follower.promote()
        self.read_only = False
        document: dict[str, Any] = {
            "read_only": False,
            "promoted": was_follower,
        }
        if self.store is not None:
            document["wal_seq"] = self.store.last_seq
        if follower is not None:
            document["replication"] = follower.stats()
        return document

    def reset_concurrency_after_fork(self) -> None:
        """Re-arm the service's locks in a freshly forked worker.

        A fork clones lock state but not the threads holding it: a lock
        acquired by a parent thread at fork time would stay locked
        forever in the child.  The pool forks while holding the write
        lock (so the cloned state is a consistent snapshot), then the
        child replaces every lock before serving.
        """
        self._lock = ReadWriteLock()
        self._build_lock = threading.RLock()

    # -- durable storage ---------------------------------------------------

    def _export_artifacts(self) -> dict[str, SnapshotArtifact]:
        """Freeze the cached serving artifacts for the store.

        Each configuration contributes its grouping plus, when
        the default-budget instance has been built and is vectorizable,
        its cached CSR index — so a recovered process can serve the
        first ``/select`` without re-encoding anything.
        """
        exported: dict[str, SnapshotArtifact] = {}
        for name, entry in self._cache.items():
            index = None
            instance = entry.instances.get(entry.config.budget)
            if instance is not None:
                built = instance_index(instance)
                if built.vectorizable:
                    index = built
            exported[name] = SnapshotArtifact(
                config=entry.config.to_dict(),
                grouping=grouping_of(entry.groups),
                index=index,
            )
        return exported

    def _registry(self) -> dict[str, dict[str, Any]]:
        """The registered configurations as config dicts, by name."""
        return {
            name: self._configurations.get(name).to_dict()
            for name in self._configurations.names()
        }

    @property
    def change_log(self) -> DurableRepositoryStore | MemoryLog | None:
        """The change log readers tail: the store's WAL, else the
        in-memory log of a store-less pool writer."""
        return self.store if self.store is not None else self.memory_log

    def _store_or_raise(self) -> DurableRepositoryStore:
        if self.store is None:
            raise ServiceError(
                "no data directory configured; start the service with "
                "--data-dir to enable durable storage"
            )
        return self.store

    def snapshot_store(self) -> dict[str, Any]:
        """Write a snapshot of the current serving state (admin route)."""
        return self._write_snapshot(compact=False)

    def compact_store(self) -> dict[str, Any]:
        """Snapshot then truncate the WAL (admin route)."""
        return self._write_snapshot(compact=True)

    def _write_snapshot(self, compact: bool) -> dict[str, Any]:
        """Snapshot every cached configuration complete with its index.

        A delta leaves entries without instances, so each default-budget
        instance is built here first: a recovered process then maps the
        checkpoint index instead of re-encoding it.
        """
        store = self._store_or_raise()
        with self._lock.write():
            timer = StageTimer()
            for entry in self._cache.values():
                self._instance(entry, entry.config.budget, timer)
            store.set_artifacts(self._export_artifacts())
            path = store.compact() if compact else store.snapshot()
            stats = store.stats()
        stats["snapshot_path"] = str(path)
        return stats

    def warm_artifacts(self) -> list[str]:
        """Build every configuration's default-budget serving artifacts.

        The pre-fork warm step of multi-process serving: the parent
        builds each ``(GroupSet, instance, CSR index)`` triple once, then
        forks — workers inherit the warmed cache copy-on-write, so no
        worker ever pays a cold build and the numpy payloads stay shared
        physical pages until a delta diverges them.
        """
        warmed: list[str] = []
        with self._lock.read():
            if self._repository is None:
                return warmed
            for name in self._configurations.names():
                timer = StageTimer()
                entry = self._artifacts(name, timer)
                self._instance(entry, entry.config.budget, timer)
                warmed.append(name)
        return sorted(warmed)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Public corpus/cache statistics (used by ``/health``, ``/metrics``)."""
        with self._lock.read():
            return self._stats()

    def _stats(self) -> dict[str, Any]:
        return {
            "users": len(self._repository) if self._repository else 0,
            "configurations": self._configurations.names(),
            "cached_configurations": sorted(self._cache),
            "generation": self._generation,
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """The ``GET /metrics`` document: counters + service stats."""
        snapshot = self.metrics.snapshot()
        snapshot["service"] = self.stats()
        if self.store is not None:
            snapshot["storage"] = self.store.stats()
        if self.follower is not None:
            snapshot["replication"] = self.follower.stats()
        elif self.read_only:
            snapshot["replication"] = {"role": "follower", "state": "idle"}
        with self._lock.read():
            maintainers = {
                f"{name}@{budget}": maintainer.stats()
                for name, entry in self._cache.items()
                for budget, maintainer in entry.maintainers.items()
            }
        if maintainers:
            snapshot["maintainers"] = maintainers
        if self.cluster_stats_provider is not None:
            # Pool worker: merge the pool-wide view so ``GET /metrics``
            # answered by any worker reports the whole pool — aggregated
            # per-worker counters plus the writer's storage gauges
            # (workers hold no store of their own).
            try:
                cluster = self.cluster_stats_provider()
            except Exception as exc:  # noqa: BLE001 — metrics must serve
                cluster = {"error": f"{type(exc).__name__}: {exc}"}
            storage = cluster.pop("storage", None)
            if storage is not None and "storage" not in snapshot:
                snapshot["storage"] = storage
            snapshot["cluster"] = cluster
        return snapshot

    # -- grouping module (offline step of Fig. 1) -------------------------

    def groups_for(self, config_name: str) -> GroupSet:
        """Bucketing + group materialization, cached per configuration."""
        with self._lock.read():
            return self._artifacts(config_name, StageTimer()).groups

    def instance_for(
        self, config_name: str, budget: int | None = None
    ) -> DiversificationInstance:
        """Resolve a configuration into a diversification instance.

        Under budget-independent schemes this is the configuration's one
        instance, built for its own budget, whatever ``budget`` says.
        """
        with self._lock.read():
            timer = StageTimer()
            entry = self._artifacts(config_name, timer)
            return self._instance(entry, self._effective_budget(
                entry.config, budget
            ), timer)

    # -- unlocked internals ------------------------------------------------

    def _repository_or_raise(self) -> UserRepository:
        if self._repository is None:
            raise ServiceError("no profiles loaded")
        return self._repository

    @staticmethod
    def _effective_budget(
        config: DiversificationConfiguration, budget: int | None
    ) -> int:
        """Resolve the request budget against the configuration default.

        The comparison is explicitly against ``None``: an explicit
        ``budget=0`` must be rejected, not silently replaced by the
        configuration default.
        """
        effective = config.budget if budget is None else budget
        if effective < 1:
            raise InvalidBudgetError(
                f"budget must be >= 1, got {effective}"
            )
        return effective

    @staticmethod
    def _instance_key(
        config: DiversificationConfiguration, budget: int
    ) -> int:
        """The budget an effective budget's instance is built for.

        Under budget-independent schemes (Iden or LBS with Single) one
        instance, built for the configuration's own budget, serves every
        request budget; EBS and Prop keep one instance per budget.
        """
        return config.budget if config.budget_independent else budget

    @staticmethod
    def _entry_valid(
        entry: _ConfigArtifacts | None,
        config: DiversificationConfiguration,
    ) -> bool:
        return (
            entry is not None
            and entry.config is config
            and entry.groups_version == entry.groups.version
        )

    def _memo(
        self,
        table: dict[Any, Any],
        key: Any,
        build: Callable[[], Any],
        valid: Callable[[Any], bool] = lambda value: value is not None,
    ) -> tuple[Any, bool]:
        """The one double-checked builder; returns ``(artifact, built)``.

        A hit takes no lock.  A miss builds under the re-entrant build
        lock, so concurrent cold requests build once and a build may
        fetch (or build) the artifacts it depends on.
        """
        value = table.get(key)
        if valid(value):
            return value, False
        with self._build_lock:
            value = table.get(key)
            if valid(value):
                return value, False
            value = table[key] = build()
            return value, True

    def _artifacts(
        self, config_name: str, timer: StageTimer
    ) -> _ConfigArtifacts:
        """Fetch (or group) the cache entry of one configuration."""
        config = self._configurations.get(config_name)
        entry, _ = self._memo(
            self._cache,
            config_name,
            lambda: self._group(config, timer),
            lambda cached: self._entry_valid(cached, config),
        )
        return entry

    def _group(
        self, config: DiversificationConfiguration, timer: StageTimer
    ) -> _ConfigArtifacts:
        """Group the repository under ``config`` into a fresh entry."""
        repository = self._repository_or_raise()
        with timer.stage("grouping"):
            if config.property_prefixes is not None:
                repository = UserRepository(
                    profile.restricted_to(
                        label
                        for label in profile.properties
                        if config.matches_property(label)
                    )
                    for profile in repository
                )
            groups = build_simple_groups(repository, config.grouping_config())
        return _ConfigArtifacts(config, groups)

    def _instance(
        self,
        entry: _ConfigArtifacts,
        budget: int,
        timer: StageTimer,
        index: InstanceIndex | None = None,
    ) -> DiversificationInstance:
        """Fetch (or build + index) the instance for an effective budget.

        The instance is cached and built under the budget's
        :meth:`_instance_key`.  ``index`` is a checkpoint index to attach
        instead of encoding one.
        """
        key = self._instance_key(entry.config, budget)

        def build() -> DiversificationInstance:
            weight, coverage = entry.config.schemes()
            with timer.stage("instance"):
                # rebuild_instance rather than build_instance: identical
                # on groupings with no empty buckets, but tolerant of
                # recovered/reassigned group sets whose buckets drained
                # (empty groups get the behaviour-neutral floor weight),
                # so fresh boots and recovered boots share one build path.
                instance = rebuild_instance(
                    entry.groups,
                    self._repository_or_raise(),
                    key,
                    weight,
                    coverage,
                )
                if index is not None:
                    attach_index(instance, index)
                else:
                    # Pre-warm the sparse index so no request pays it.
                    instance_index(instance)
            return instance

        instance, built = self._memo(entry.instances, key, build)
        self.metrics.observe_cache(hit=not built)
        return instance

    def _index(
        self, entry: _ConfigArtifacts, budget: int, timer: StageTimer
    ) -> InstanceIndex:
        """The sparse index of the budget's instance (built on demand)."""
        return instance_index(self._instance(entry, budget, timer))

    def _plain_select(
        self,
        entry: _ConfigArtifacts,
        instance: DiversificationInstance,
        budget: int,
        timer: StageTimer,
    ) -> SelectionResult:
        """BASE-DIVERSITY through the vectorized backend when possible.

        Under budget-independent schemes the answer is a prefix of the
        configuration's :meth:`_trajectory`; a budget past its length
        runs fresh.
        """
        repository = self._repository_or_raise()
        with timer.stage("selection"):
            index: InstanceIndex = instance_index(instance)
            if index.vectorizable and index.n_users == len(repository):
                if entry.config.budget_independent:
                    trajectory, built = self._trajectory(entry, instance)
                    result = trajectory.prefix(budget)
                    self.metrics.observe_trajectory(built, result is not None)
                    if result is not None:
                        return result
                return select_from_index(
                    index, budget, method="matrix", instance=instance
                )
            # Users outside every group (or non-int64 weights) need the
            # repository-wide pool; matrix falls back exactly as needed.
            return greedy_select(
                repository, instance, budget, method="matrix"
            )

    def _trajectory(
        self, entry: _ConfigArtifacts, instance: DiversificationInstance
    ) -> tuple[_Trajectory, bool]:
        """Fetch (or run) the saturated greedy run: ``(trajectory, built)``.

        Algorithm 1 is deterministic, so budget ``k``'s panel is the
        first ``k`` picks of any longer run.  Under Single coverage each
        positive-gain pick exhausts at least one group, so a run of
        ``min(|U|, |G|)`` picks holds every positive-gain pick followed
        by the zero-gain tail in id order.
        """

        def build() -> _Trajectory:
            index = instance_index(instance)
            length = max(1, min(index.n_users, index.n_groups))
            return _Trajectory.of(
                select_from_index(
                    index, length, method="matrix", instance=instance
                )
            )

        return self._memo(entry.trajectories, entry.config.budget, build)

    # -- selection module --------------------------------------------------

    def select(
        self,
        config_name: str = "default",
        budget: int | None = None,
        feedback: CustomizationFeedback | None = None,
        distribution_properties: tuple[str, ...] = (),
        explain: bool = True,
        timer: StageTimer | None = None,
        maintained: bool = False,
        constraints: ConstraintSpec | None = None,
    ) -> dict[str, Any]:
        """Run a selection request and return the response document."""
        timer = timer if timer is not None else StageTimer()
        with self._lock.read():
            return self._select(
                config_name,
                budget,
                feedback,
                distribution_properties,
                explain,
                timer,
                maintained,
                constraints,
            )

    def _maintainer(
        self, entry: _ConfigArtifacts, budget: int, timer: StageTimer
    ) -> StreamingMaintainer:
        """Fetch (or solve) the streaming maintainer for a budget."""
        maintainer, _ = self._memo(
            entry.maintainers,
            budget,
            lambda: StreamingMaintainer(
                self._index(entry, budget, timer),
                budget,
                swap_margin=self._swap_margin,
                staleness_fraction=self._staleness_fraction,
            ),
        )
        return maintainer

    def _partition(
        self,
        entry: _ConfigArtifacts,
        budget: int,
        index: InstanceIndex,
        cluster_spec: ClusterSpec,
        timer: StageTimer,
    ) -> list:
        """Fetch (or compute) the memoized partition for a cluster spec."""

        def build() -> list:
            with timer.stage("partition"):
                return partition_rows(index, cluster_spec)

        partition, _ = self._memo(
            entry.partitions,
            (self._instance_key(entry.config, budget), cluster_spec),
            build,
        )
        return partition

    def _constrained_select(
        self,
        entry: _ConfigArtifacts,
        instance: DiversificationInstance,
        budget: int,
        spec: ConstraintSpec,
        timer: StageTimer,
    ) -> tuple[SelectionResult, dict[str, Any]]:
        """Run the constrained solver; returns (result, report section)."""
        repository = self._repository_or_raise()
        with timer.stage("selection"):
            index: InstanceIndex = instance_index(instance)
            if not index.vectorizable:
                raise ServiceError(
                    "constrained selection requires a vectorizable "
                    "instance; this configuration's weights do not fit "
                    "the sparse index (int64)"
                )
            outside = len(repository) - index.n_users
            if outside:
                raise ServiceError(
                    "constrained selection requires every user in some "
                    f"group; {outside} user(s) are in no group of this "
                    "configuration"
                )
            partition = None
            if spec.clusters is not None:
                partition = self._partition(
                    entry, budget, index, spec.clusters, timer
                )
            try:
                outcome = constrained_select(
                    index, spec, budget, partition=partition
                )
            except InfeasibleConstraintError:
                self.metrics.observe_constraints(spec.mode, None)
                raise
        self.metrics.observe_constraints(spec.mode, outcome.satisfied)
        result = SelectionResult(
            selected=outcome.selected,
            score=outcome.result.score,
            gains=outcome.result.gains,
            instance=instance,
        )
        return result, outcome.to_dict()

    def _select(
        self,
        config_name: str,
        budget: int | None,
        feedback: CustomizationFeedback | None,
        distribution_properties: tuple[str, ...],
        explain: bool,
        timer: StageTimer,
        maintained: bool = False,
        constraints: ConstraintSpec | None = None,
    ) -> dict[str, Any]:
        entry = self._artifacts(config_name, timer)
        effective = self._effective_budget(entry.config, budget)
        if constraints is not None and maintained:
            raise ServiceError(
                "constrained selections are solved fresh per request; "
                "omit 'maintained' or 'constraints'"
            )
        if constraints is not None and feedback is not None and (
            feedback != CustomizationFeedback.none()
        ):
            raise ServiceError(
                "constraints cannot be combined with customization "
                "feedback in one request; express must-have/must-not as "
                "floors/ceilings instead"
            )
        if maintained:
            # Maintained selections serve the streaming-repaired subset
            # (swap/fill/re-solve rules, quality within the bench-pinned
            # ratio of fresh greedy) instead of running the exact greedy.
            if feedback is not None and feedback != (
                CustomizationFeedback.none()
            ):
                raise ServiceError(
                    "maintained selections do not support customization "
                    "feedback; omit 'maintained' or 'feedback'"
                )
            with timer.stage("selection"):
                maintainer = self._maintainer(entry, effective, timer)
                return {
                    "configuration": config_name,
                    "selected": list(maintainer.selection),
                    "score": float(maintainer.score()),
                    "maintained": True,
                    "maintainer": maintainer.stats(),
                }
        instance = self._instance(entry, effective, timer)
        if constraints is not None:
            result, report = self._constrained_select(
                entry, instance, effective, constraints, timer
            )
            response = {
                "configuration": config_name,
                "selected": list(result.selected),
                "score": float(result.score),
                "constraints": report,
            }
        elif feedback is None or feedback == CustomizationFeedback.none():
            result = self._plain_select(entry, instance, effective, timer)
            response: dict[str, Any] = {
                "configuration": config_name,
                "selected": list(result.selected),
                "score": float(result.score),
            }
        else:
            with timer.stage("selection"):
                custom = custom_select(
                    self._repository_or_raise(),
                    instance,
                    feedback,
                    effective,
                    method="matrix",
                )
                result = (
                    custom.explainable(instance) if explain else custom.result
                )
            response = {
                "configuration": config_name,
                "selected": list(custom.selected),
                "score": float(result.score),
                "priority_score": float(custom.priority_score),
                "standard_score": float(custom.standard_score),
                "refined_pool_size": custom.refined_pool_size,
            }
        if explain:
            with timer.stage("explanation"):
                explanation = explain_selection(
                    result, distribution_properties=distribution_properties
                )
                response["explanation"] = explanation_payload(explanation)
        return response

    def explanation_page(
        self,
        config_name: str = "default",
        budget: int | None = None,
        timer: StageTimer | None = None,
    ) -> str:
        """Render the Fig. 2 explanation page for a fresh selection."""
        from .viz import render_html

        timer = timer if timer is not None else StageTimer()
        with self._lock.read():
            entry = self._artifacts(config_name, timer)
            effective = self._effective_budget(entry.config, budget)
            instance = self._instance(entry, effective, timer)
            result = self._plain_select(entry, instance, effective, timer)
            # Show distributions for the three heaviest properties.
            heaviest: list[str] = []
            for key in sorted(
                instance.groups.keys,
                key=lambda k: (-float(instance.wei[k]), str(k)),
            ):
                if key.property_label not in heaviest:
                    heaviest.append(key.property_label)
                if len(heaviest) == 3:
                    break
            with timer.stage("explanation"):
                explanation = explain_selection(
                    result, distribution_properties=tuple(heaviest)
                )
                return render_html(
                    result,
                    explanation,
                    title=f"Podium — {config_name} selection",
                )

    def group_listing(
        self, config_name: str = "default", timer: StageTimer | None = None
    ) -> list[dict[str, Any]]:
        """Group explanations ordered by decreasing weight (Fig. 2 list)."""
        timer = timer if timer is not None else StageTimer()
        with self._lock.read():
            entry = self._artifacts(config_name, timer)
            instance = self._instance(
                entry, self._effective_budget(entry.config, None), timer
            )
        ordered = sorted(
            instance.groups,
            key=lambda g: (-float(instance.wei[g.key]), str(g.key)),
        )
        return [
            {
                "property": g.key.property_label,
                "bucket": g.key.bucket_label,
                "label": g.label,
                "weight": float(instance.wei[g.key]),
                "coverage": instance.cov[g.key],
                "size": g.size,
            }
            for g in ordered
        ]


# ---------------------------------------------------------------------------
# HTTP boundary
# ---------------------------------------------------------------------------

_JSON = "application/json"
_HTML = "text/html; charset=utf-8"

_STATUS_LINES = {
    200: "200 OK",
    201: "201 Created",
    400: "400 Bad Request",
    404: "404 Not Found",
    500: "500 Internal Server Error",
    503: "503 Service Unavailable",
}


def _content_length(environ: dict[str, Any]) -> int:
    """The request's declared body length (0 when absent or unparsable)."""
    try:
        return int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        return 0


def _read_json(body: bytes) -> dict[str, Any]:
    try:
        document = json.loads(body.decode() or "{}")
    except json.JSONDecodeError as exc:
        raise ServiceError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ServiceError("request body must be a JSON object")
    return document


def _query_int(
    query: dict[str, str], name: str, default: int | None
) -> int | None:
    """A decimal query-string integer; malformed input is a 400."""
    value = query.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise ServiceError(
            f"field {name!r} must be an integer, got {value!r}"
        ) from None


def _bool_field(document: dict[str, Any], name: str, default: bool) -> bool:
    """A JSON boolean request field; ``"false"`` or ``0`` is a 400."""
    value = document.get(name, default)
    if not isinstance(value, bool):
        raise ServiceError(
            f"field {name!r} must be a JSON boolean, got "
            f"{type(value).__name__}"
        )
    return value


def _put_configuration(service, query, body, timer) -> dict[str, Any]:
    config = DiversificationConfiguration.from_dict(_read_json(body))
    service.put_configuration(config)
    return config.to_dict()


def _load_profiles(service, query, body, timer) -> dict[str, Any]:
    from ..datasets.io import profiles_from_dict

    service.load_repository(profiles_from_dict(_read_json(body)))
    return {"loaded_users": len(service.repository)}


def _apply_delta(service, query, body, timer) -> dict[str, Any]:
    return service.apply_profile_delta(parse_profile_delta(_read_json(body)))


def _wal_tail(service, query, body, timer) -> dict[str, Any]:
    return service.wal_records_since(
        _query_int(query, "from_seq", 0), _query_int(query, "limit", 256)
    )


def _explain_page(service, query, body, timer) -> bytes:
    return service.explanation_page(
        query.get("configuration", "default"),
        _query_int(query, "budget", None),
        timer=timer,
    ).encode()


def _group_listing(service, query, body, timer) -> list[dict[str, Any]]:
    name = query.get("configuration", "default")
    return service.group_listing(name, timer=timer)


def _select(service, query, body, timer) -> dict[str, Any]:
    document = _read_json(body)
    return service.select(
        config_name=str(document.get("configuration", "default")),
        budget=(
            json_int(document["budget"], "budget")
            if "budget" in document
            else None
        ),
        feedback=parse_feedback(document.get("feedback")),
        distribution_properties=json_str_list(
            document.get("distribution_properties", []),
            "distribution_properties",
        ),
        explain=_bool_field(document, "explain", True),
        timer=timer,
        maintained=_bool_field(document, "maintained", False),
        constraints=parse_constraints(document.get("constraints")),
    )


def _configuration_list(service, *_: Any) -> list[dict[str, Any]]:
    registry = service.configurations
    return [registry.get(name).to_dict() for name in registry.names()]


#: The API, defined once: ``(method, path) → (status, handler)``, where
#: ``handler(service, query, body, timer)`` returns the payload.  The
#: WSGI adapter keys ``/metrics`` by membership here, so no client can
#: grow the per-route counter map.
ROUTES: dict[tuple[str, str], tuple[int, Callable[..., Any]]] = {
    ("GET", "/health"): (200, lambda s, *_: {"status": "ok", **s.stats()}),
    ("GET", "/metrics"): (200, lambda s, *_: s.metrics_snapshot()),
    ("GET", "/configurations"): (200, _configuration_list),
    ("POST", "/configurations"): (201, _put_configuration),
    ("POST", "/profiles"): (200, _load_profiles),
    ("POST", "/profiles/delta"): (200, _apply_delta),
    ("POST", "/admin/snapshot"): (200, lambda s, *_: s.snapshot_store()),
    ("POST", "/admin/compact"): (200, lambda s, *_: s.compact_store()),
    ("GET", "/admin/wal"): (200, _wal_tail),
    ("GET", "/admin/state"): (200, lambda s, *_: s.replication_snapshot()),
    ("POST", "/admin/promote"): (200, lambda s, *_: s.promote()),
    ("GET", "/explain.html"): (200, _explain_page),
    ("GET", "/groups"): (200, _group_listing),
    ("POST", "/select"): (200, _select),
}

#: The routes of :data:`ROUTES` that change served state, which a
#: read-only follower refuses until promotion.  Local admin durability
#: ops (snapshot/compact) stay allowed: they persist the follower's own
#: replicated state without diverging from the primary's history.
WRITE_ROUTES = frozenset(
    {
        ("POST", "/profiles"),
        ("POST", "/profiles/delta"),
        ("POST", "/configurations"),
    }
)


def _dispatch(
    service: PodiumService,
    method: str,
    path: str,
    query: dict[str, Any],
    body: bytes,
    timer: StageTimer,
) -> tuple[int, Any]:
    """Resolve one request to ``(status, payload)``."""
    route = ROUTES.get((method, path))
    if route is None:
        return 404, {"error": f"no route {method} {path}"}
    if service.read_only and (method, path) in WRITE_ROUTES:
        return (
            503,
            {
                "error": "read-only: this instance follows a primary's "
                "WAL; write to the primary, or POST /admin/promote to "
                "take over"
            },
        )
    status, handler = route
    return status, handler(service, query, body, timer)


def handle_request(
    service: PodiumService,
    method: str,
    path: str,
    query: dict[str, Any],
    body: bytes,
    timer: StageTimer,
) -> tuple[int, Any]:
    """Answer one parsed request as ``(status, payload)``; never raises.

    The one request boundary of every process: the WSGI adapter calls
    it for a single-process server and for a pool worker's reads, and a
    pool's writer calls it for every request a worker forwards.  Domain
    errors and malformed input are a JSON 400; anything else is logged
    and becomes a JSON 500 that names only the exception type.  A
    ``bytes`` payload is the HTML explanation page.
    """
    try:
        return _dispatch(service, method, path, query, body, timer)
    except PodiumError as exc:
        return 400, {"error": str(exc)}
    except (KeyError, TypeError, ValueError) as exc:
        # Malformed input that slipped past explicit validation.
        return 400, {"error": f"malformed request: {exc}"}
    except Exception as exc:  # noqa: BLE001 — the JSON-500 boundary
        logger.exception("unhandled error serving %s %s", method, path)
        return 500, {"error": f"internal server error: {type(exc).__name__}"}


def make_wsgi_app(
    service: PodiumService, handler: Callable | None = None
) -> Callable:
    """Build the WSGI callable exposing ``service`` over HTTP.

    The one WSGI adapter of every process: it parses ``environ`` into
    ``(method, path, query, body)``, has ``handler`` answer it —
    :func:`handle_request` on ``service`` unless a pool worker or the
    pool's writer passes its own, called as ``handler(method, path,
    query=, body=, timer=)`` — then counts the request in
    ``service.metrics``, logs it as a one-line JSON document and
    encodes the response.  A raw interpreter traceback never reaches
    the client.
    """
    if handler is None:
        handler = functools.partial(handle_request, service)

    def app(environ: dict[str, Any], start_response: Callable) -> list[bytes]:
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        timer = StageTimer()
        started = time.perf_counter()
        length = _content_length(environ)
        if length < 0:
            # ``wsgi.input.read(-1)`` reads to EOF: honoring a negative
            # length would hold the thread until the client hangs up.
            status = 400
            payload: Any = {"error": f"invalid Content-Length: {length}"}
        else:
            body = environ["wsgi.input"].read(length) if length else b""
            query = dict(parse_qsl(environ.get("QUERY_STRING", "")))
            status, payload = handler(
                method, path, query=query, body=body, timer=timer
            )
        seconds = time.perf_counter() - started
        # Paths outside the route table share one metrics bucket, so
        # arbitrary probes cannot grow the counter map without bound.
        route = (
            f"{method} {path}" if (method, path) in ROUTES else "<unmatched>"
        )
        service.metrics.observe_request(route, status, seconds, timer.seconds)
        error = payload.get("error") if status >= 400 else None
        logger.info(
            request_log_record(
                f"{method} {path}", status, seconds, timer.seconds, error
            )
        )
        if isinstance(payload, bytes):
            content_type, blob = _HTML, payload
        else:
            content_type, blob = _JSON, json.dumps(payload).encode()
        start_response(
            _STATUS_LINES[status],
            [
                ("Content-Type", content_type),
                ("Content-Length", str(len(blob))),
            ],
        )
        return [blob]

    return app


class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """WSGI server handling each request on its own daemon thread."""

    daemon_threads = True


class QuietHandler(WSGIRequestHandler):
    """Route wsgiref's per-request stderr lines through ``logging``."""

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        logging.getLogger("repro.service.http").debug(format, *args)


def make_http_server(
    service: PodiumService, host: str = "127.0.0.1", port: int = 8808
) -> WSGIServer:
    """Build the threaded HTTP server (``port=0`` picks an ephemeral port)."""
    return make_server(
        host,
        port,
        make_wsgi_app(service),
        server_class=ThreadingWSGIServer,
        handler_class=QuietHandler,
    )


def serve(
    service: PodiumService, host: str = "127.0.0.1", port: int = 8808
) -> dict[str, Any]:
    """Run the threaded service until interrupted; return final metrics."""
    httpd = make_http_server(service, host, port)
    bound_host, bound_port = httpd.server_address[:2]
    print(
        f"Podium service listening on http://{bound_host}:{bound_port} "
        f"(threaded; request stats at /metrics)"
    )
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
        if service.store is not None:
            # Graceful shutdown: fold the applied WAL into a snapshot so
            # the next boot replays nothing.  Crash recovery never
            # depends on this — it is purely a startup-time optimization.
            service.snapshot_store()
            print("snapshot written")
    finally:
        httpd.server_close()
    return service.metrics_snapshot()

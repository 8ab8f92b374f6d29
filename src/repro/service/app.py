"""The Podium production service (paper §7, Fig. 1).

The original system is a Flask app; offline we provide the same
architecture on the standard library: a :class:`PodiumService` facade
wiring the Grouping Module (offline bucketing + weights per
configuration), the Selection Module (greedy / customized selection) and
the Visualization module (explanation payloads), plus a plain WSGI
adapter exposing it over HTTP.

Unlike the prototype, the serving path is built for sustained traffic:

* **Artifact cache** — every configuration's ``(GroupSet,
  DiversificationInstance, InstanceIndex)`` triple is built once and
  reused across requests, keyed on the repository generation, the
  configuration object and ``GroupSet.version``; repeated ``/select``
  calls against an unchanged repository perform zero instance rebuilds.
* **Vectorized selection** — plain selections run
  :func:`~repro.core.greedy.select_from_index` over the cached sparse
  index, and customized selections use the matrix customization path
  (CSR-mask refinement + integer-rescaled derived index).
* **Incremental updates** — ``POST /profiles/delta`` applies a
  :class:`~repro.core.updates.ProfileDelta` through the §9 incremental
  machinery (frozen buckets, re-assigned members, re-materialized
  weights) instead of a full reload + regroup.
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

import json
import logging
import threading
import time
from dataclasses import dataclass, field
from socketserver import ThreadingMixIn
from typing import Any, Callable
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
from ..core.groups import GroupKey, GroupSet, build_simple_groups
from ..core.index import InstanceIndex, attach_index, instance_index
from ..core.instance import DiversificationInstance
from ..core.profiles import UserProfile, UserRepository
from ..core.updates import (
    ProfileDelta,
    apply_delta_to_repository,
    reassign_groups,
    rebuild_instance,
)
from ..core.persistence import index_source_path
from ..storage import (
    DurableRepositoryStore,
    SnapshotArtifact,
    StreamingMaintainer,
)
from .concurrency import ReadWriteLock
from .config import (
    ConfigurationStore,
    DiversificationConfiguration,
    default_configuration,
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
    if not data:
        return CustomizationFeedback.none()
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


@dataclass
class _ConfigArtifacts:
    """Cached serving artifacts of one configuration.

    An entry is valid while the repository generation it was built at is
    current, the configuration object is still the stored one (re-putting
    a configuration replaces the object) and the group set has not been
    mutated in place (``GroupSet.version``).  ``instances`` maps the
    effective budget to its built instance; the instance's sparse index
    is pre-warmed at build time and cached on the instance itself.
    """

    config: DiversificationConfiguration
    generation: int
    groups: GroupSet
    groups_version: int
    instances: dict[int, DiversificationInstance] = field(
        default_factory=dict
    )
    #: Cluster partitions memoized per (budget, ClusterSpec) — the spec
    #: object is hashable by value, so two requests declaring the same
    #: clustering share one partition computation.  Entry lifetime is
    #: the cache entry's own (generation / config / groups-version).
    partitions: dict[tuple[int, ClusterSpec], list] = field(
        default_factory=dict
    )


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
        self._build_lock = threading.Lock()
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
        # Streaming maintainers keyed by (configuration, budget); built
        # lazily on the first maintained selection, repaired on every
        # ingested delta instead of re-solving from scratch.
        self._maintainers: dict[tuple[str, int], StreamingMaintainer] = {}
        if store is not None and repository is None and len(store.repository):
            # Recovered boot: the store already replayed snapshot + WAL.
            self._repository = store.repository

    # -- repository management -------------------------------------------

    @property
    def repository(self) -> UserRepository:
        if self._repository is None:
            raise ServiceError("no profiles loaded")
        return self._repository

    def load_repository(
        self, repository: UserRepository, base_seq: int | None = None
    ) -> None:
        """Swap the user repository; invalidates all cached artifacts.

        With a durable store attached this starts a new epoch: the
        wholesale replacement is snapshotted immediately and the WAL is
        truncated (its deltas describe the discarded population).
        ``base_seq`` aligns the store's sequence numbering with a
        replication primary's WAL position during follower bootstrap.
        """
        with self._lock.write():
            self._repository = repository
            self._generation += 1
            self._cache.clear()
            self._maintainers.clear()
            if self.store is not None:
                self.store.reset(repository, base_seq=base_seq)

    def restore_artifacts(self) -> list[str]:
        """Seed the artifact cache from the store's recovered snapshot.

        Called once at boot, *after* configurations are registered: each
        recovered (config, groups, index) triple is adopted only when its
        stored configuration dict matches the currently registered one —
        a changed configuration must rebuild from scratch, not serve
        stale buckets.  Restoring the frozen group sets is what makes a
        restarted process answer ``/select`` identically: a fresh
        regroup could legally draw different bucket boundaries than the
        incremental reassignment path did before the restart.
        """
        if self.store is None:
            return []
        restored: list[str] = []
        with self._lock.write():
            for name, artifact in self.store.artifacts.items():
                if name not in self._configurations:
                    continue
                config = self._configurations.get(name)
                if artifact.config != config.to_dict():
                    continue
                started = time.perf_counter()
                entry = _ConfigArtifacts(
                    config=config,
                    generation=self._generation,
                    groups=artifact.groups,
                    groups_version=artifact.groups.version,
                )
                if artifact.index is not None:
                    weight, coverage = config.schemes()
                    instance = rebuild_instance(
                        artifact.groups,
                        self._repository_or_raise(),
                        config.budget,
                        weight,
                        coverage,
                    )
                    attach_index(instance, artifact.index)
                    entry.instances[config.budget] = instance
                self._cache[name] = entry
                restored.append(name)
                # Adoption of a checkpoint artifact stands in for the
                # grouping+instance build a cold boot would pay; recorded
                # as its own stage so /metrics shows open-vs-build cost
                # (stages.artifact_open next to stages.grouping /
                # stages.instance).  Mapped opens (open_index_npz) are
                # split from eager heap loads.
                stage = (
                    "artifact_open"
                    if index_source_path(artifact.index) is not None
                    else "artifact_open_eager"
                )
                self.metrics.observe_stage(
                    stage, time.perf_counter() - started
                )
        return sorted(restored)

    def apply_profile_delta(self, delta: ProfileDelta) -> dict[str, Any]:
        """Apply a batch of upserts/removals incrementally (paper §9).

        Instead of a full reload + regroup, cached group sets are kept
        with frozen bucket boundaries: touched users are re-assigned to
        the existing buckets and weights/coverage re-materialized, so the
        expensive offline bucketing step is skipped for every cached
        configuration.
        """
        started = time.perf_counter()
        wal_seconds = 0.0
        with self._lock.write():
            if self._repository is None:
                raise ServiceError("no profiles loaded")
            if self.store is not None:
                # Durability before acknowledgment: the delta reaches the
                # write-ahead log (validated, fsynced) before any
                # in-memory state changes; a crash from here on replays
                # it on the next boot.
                wal_started = time.perf_counter()
                seq = self.store.log_delta(delta)
                wal_seconds = time.perf_counter() - wal_started
            response = self._apply_delta_locked(delta)
            if self.store is not None:
                self.store.adopt(
                    self._repository, self._export_artifacts()
                )
                response["wal_seq"] = seq
                response["durable"] = True
            self.metrics.observe_ingest(
                len(delta.upserts),
                len(delta.removals),
                time.perf_counter() - started,
                wal_seconds,
            )
            return response

    def apply_replicated_delta(self, delta: ProfileDelta) -> dict[str, Any]:
        """Apply a delta that another process already made durable.

        The follower path of multi-process serving: the writer process
        WAL-appended and applied the delta, then published it on the
        pool's replication ring; each worker replays it here through the
        *same* incremental machinery (:meth:`_apply_delta_locked`), so
        every process converges to byte-identical serving state without
        touching the store.
        """
        started = time.perf_counter()
        with self._lock.write():
            if self._repository is None:
                raise ServiceError("no profiles loaded")
            response = self._apply_delta_locked(delta)
            self.metrics.observe_ingest(
                len(delta.upserts),
                len(delta.removals),
                time.perf_counter() - started,
            )
            return response

    def _apply_delta_locked(self, delta: ProfileDelta) -> dict[str, Any]:
        """Apply a delta to the repository + caches (write lock held)."""
        repository = apply_delta_to_repository(self._repository, delta)
        self._repository = repository
        self._generation += 1
        refreshed: list[str] = []
        for name, entry in list(self._cache.items()):
            current = (
                self._configurations.get(name)
                if name in self._configurations
                else None
            )
            if (
                current is None
                or entry.config is not current
                or entry.groups_version != entry.groups.version
            ):
                del self._cache[name]
                continue
            groups = reassign_groups(entry.groups, repository, delta)
            weight, coverage = entry.config.schemes()
            instances: dict[int, DiversificationInstance] = {}
            for budget in entry.instances:
                instance = rebuild_instance(
                    groups, repository, budget, weight, coverage
                )
                instance_index(instance)
                instances[budget] = instance
            self._cache[name] = _ConfigArtifacts(
                config=current,
                generation=self._generation,
                groups=groups,
                groups_version=groups.version,
                instances=instances,
            )
            refreshed.append(name)
        # Repair maintained selections against the refreshed indexes
        # instead of re-solving; maintainers of dropped cache entries
        # go with them.
        touched = len(delta.touched)
        for key in list(self._maintainers):
            name, budget = key
            entry = self._cache.get(name)
            if entry is None or budget not in entry.instances:
                del self._maintainers[key]
                continue
            self._maintainers[key].refresh(
                instance_index(entry.instances[budget]), touched
            )
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
        """Full serving state for a worker that cannot catch up by deltas.

        Ships the repository document plus every registered
        configuration; the receiving worker rebuilds groups/instances
        itself, which is deterministic given identical inputs — so a
        fully-resynced worker answers ``/select`` exactly like the
        writer.
        """
        from ..datasets.io import profiles_to_dict

        with self._lock.read():
            document = {
                "profiles": profiles_to_dict(self._repository_or_raise()),
                "configurations": [
                    self._configurations.get(name).to_dict()
                    for name in self._configurations.names()
                ],
                "wal_seq": 0,
                "reset_epoch": 0,
            }
            if self.store is not None:
                # WAL-shipping bootstrap: the follower resumes tailing
                # from exactly this position, in this epoch.  The key is
                # "reset_epoch", not "epoch" — the pool writer's
                # handle_sync merges this document under its own epoch
                # counter and must not be clobbered.
                document["wal_seq"] = self.store.last_seq
                document["reset_epoch"] = self.store.reset_epoch
            return document

    def wal_records_since(
        self, from_seq: int, limit: int = 256
    ) -> dict[str, Any]:
        """The ``GET /admin/wal`` document a follower tails.

        Ships records with ``seq > from_seq`` plus the log tip and the
        reset-epoch counter; ``resync`` tells the follower a contiguous
        continuation is impossible (records compacted away, or the
        follower is ahead of this primary) and a full state transfer is
        needed.
        """
        store = self._store_or_raise()
        if limit < 1:
            raise ServiceError(f"limit must be >= 1, got {limit}")
        records, last_seq, resync = store.records_since(
            from_seq, limit=limit
        )
        return {
            "from_seq": from_seq,
            "last_seq": last_seq,
            "resync": resync,
            "reset_epoch": store.reset_epoch,
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
        self._build_lock = threading.Lock()

    # -- durable storage ---------------------------------------------------

    def _export_artifacts(self) -> dict[str, SnapshotArtifact]:
        """Freeze the cached serving artifacts for the store.

        Each configuration contributes its frozen group set plus, when
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
                groups=entry.groups,
                index=index,
            )
        return exported

    def _store_or_raise(self) -> DurableRepositoryStore:
        if self.store is None:
            raise ServiceError(
                "no data directory configured; start the service with "
                "--data-dir to enable durable storage"
            )
        return self.store

    def snapshot_store(self) -> dict[str, Any]:
        """Write a snapshot of the current serving state (admin route)."""
        store = self._store_or_raise()
        with self._lock.write():
            store.set_artifacts(self._export_artifacts())
            path = store.snapshot()
            stats = store.stats()
        stats["snapshot_path"] = str(path)
        return stats

    def compact_store(self) -> dict[str, Any]:
        """Snapshot then truncate the WAL (admin route)."""
        store = self._store_or_raise()
        with self._lock.write():
            store.set_artifacts(self._export_artifacts())
            path = store.compact()
            stats = store.stats()
        stats["snapshot_path"] = str(path)
        return stats

    def put_configuration(
        self, config: DiversificationConfiguration
    ) -> None:
        """Insert or replace a configuration, dropping its stale artifacts."""
        with self._lock.write():
            self._configurations.put(config)
            self._cache.pop(config.name, None)

    def replace_configurations(
        self, configs: list[DiversificationConfiguration]
    ) -> None:
        """Replace the whole configuration registry (full resync).

        Used by pool workers adopting the writer's state wholesale: the
        registry is rebuilt and every cached artifact dropped, so the
        next request regroups against exactly the writer's
        configurations.
        """
        with self._lock.write():
            self._configurations = ConfigurationStore(tuple(configs))
            self._cache.clear()
            self._maintainers.clear()

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
            if self._maintainers:
                snapshot["maintainers"] = {
                    f"{name}@{budget}": maintainer.stats()
                    for (name, budget), maintainer in (
                        self._maintainers.items()
                    )
                }
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
        """Resolve a configuration into a diversification instance."""
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

    def _entry_valid(
        self,
        entry: _ConfigArtifacts | None,
        config: DiversificationConfiguration,
    ) -> bool:
        return (
            entry is not None
            and entry.config is config
            and entry.generation == self._generation
            and entry.groups_version == entry.groups.version
        )

    def _artifacts(
        self, config_name: str, timer: StageTimer
    ) -> _ConfigArtifacts:
        """Fetch (or build) the cached artifacts of one configuration."""
        config = self._configurations.get(config_name)
        entry = self._cache.get(config_name)
        if self._entry_valid(entry, config):
            return entry
        with self._build_lock:
            entry = self._cache.get(config_name)
            if self._entry_valid(entry, config):
                return entry
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
                groups = build_simple_groups(
                    repository, config.grouping_config()
                )
            entry = _ConfigArtifacts(
                config=config,
                generation=self._generation,
                groups=groups,
                groups_version=groups.version,
            )
            self._cache[config_name] = entry
            return entry

    def _instance(
        self, entry: _ConfigArtifacts, budget: int, timer: StageTimer
    ) -> DiversificationInstance:
        """Fetch (or build + index) the instance for an effective budget."""
        instance = entry.instances.get(budget)
        if instance is not None:
            self.metrics.observe_cache(hit=True)
            return instance
        with self._build_lock:
            instance = entry.instances.get(budget)
            if instance is not None:
                self.metrics.observe_cache(hit=True)
                return instance
            self.metrics.observe_cache(hit=False)
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
                    budget,
                    weight,
                    coverage,
                )
                # Pre-warm the sparse index so no request pays the encode.
                instance_index(instance)
            entry.instances[budget] = instance
            return instance

    def _plain_select(
        self,
        instance: DiversificationInstance,
        budget: int,
        timer: StageTimer,
    ) -> SelectionResult:
        """BASE-DIVERSITY through the vectorized backend when possible."""
        repository = self._repository_or_raise()
        with timer.stage("selection"):
            index: InstanceIndex = instance_index(instance)
            if index.vectorizable and index.n_users == len(repository):
                return select_from_index(
                    index, budget, method="matrix", instance=instance
                )
            # Users outside every group (or non-int64 weights) need the
            # repository-wide pool; matrix falls back exactly as needed.
            return greedy_select(
                repository, instance, budget, method="matrix"
            )

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
        self, config_name: str, entry: _ConfigArtifacts, budget: int,
        timer: StageTimer,
    ) -> StreamingMaintainer:
        key = (config_name, budget)
        maintainer = self._maintainers.get(key)
        if maintainer is not None:
            return maintainer
        # Build the index *before* taking the build lock: _instance
        # acquires the same (non-reentrant) lock on a cold cache.
        index = instance_index(self._instance(entry, budget, timer))
        with self._build_lock:
            maintainer = self._maintainers.get(key)
            if maintainer is not None:
                return maintainer
            maintainer = StreamingMaintainer(
                index,
                budget,
                swap_margin=self._swap_margin,
                staleness_fraction=self._staleness_fraction,
            )
            self._maintainers[key] = maintainer
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
        key = (budget, cluster_spec)
        partition = entry.partitions.get(key)
        if partition is not None:
            return partition
        with self._build_lock:
            partition = entry.partitions.get(key)
            if partition is not None:
                return partition
            with timer.stage("partition"):
                partition = partition_rows(index, cluster_spec)
            entry.partitions[key] = partition
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
            if not index.vectorizable or index.n_users != len(repository):
                raise ServiceError(
                    "constrained selection requires a vectorizable "
                    "instance covering every user; this configuration's "
                    "weights do not fit the sparse index"
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
                maintainer = self._maintainer(
                    config_name, entry, effective, timer
                )
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
            result = self._plain_select(instance, effective, timer)
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
            result = custom.result
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
            result = self._plain_select(instance, effective, timer)
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
# WSGI adapter
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
    """The request's declared body length; negative lengths are a 400.

    ``wsgi.input.read(-1)`` reads to EOF, so honoring a negative length
    would hold the handler thread until the client closes its socket.
    """
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        return 0
    if length < 0:
        raise ServiceError(f"invalid Content-Length: {length}")
    return length


def _read_json(environ: dict[str, Any]) -> dict[str, Any]:
    length = _content_length(environ)
    raw = environ["wsgi.input"].read(length) if length else b"{}"
    try:
        document = json.loads(raw.decode() or "{}")
    except json.JSONDecodeError as exc:
        raise ServiceError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ServiceError("request body must be a JSON object")
    return document


def _query(environ: dict[str, Any]) -> dict[str, str]:
    from urllib.parse import parse_qsl

    return dict(parse_qsl(environ.get("QUERY_STRING", "")))


def _int_field(value: Any, name: str) -> int:
    """Parse an integer request field; malformed input is a 400, not a 500."""
    try:
        if isinstance(value, bool):
            raise TypeError("booleans are not budgets")
        return int(value)
    except (TypeError, ValueError):
        raise ServiceError(
            f"field {name!r} must be an integer, got {value!r}"
        ) from None


#: Mutating routes a read-only follower refuses until promotion.  Local
#: admin durability ops (snapshot/compact) stay allowed: they persist
#: the follower's own replicated state without diverging from the
#: primary's history.
_WRITE_ROUTES = frozenset(
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
    environ: dict[str, Any],
    timer: StageTimer,
) -> tuple[int, Any, str]:
    """Resolve one request to ``(status, payload, content_type)``."""
    if service.read_only and (method, path) in _WRITE_ROUTES:
        return (
            503,
            {
                "error": "read-only: this instance follows a primary's "
                "WAL; write to the primary, or POST /admin/promote to "
                "take over"
            },
            _JSON,
        )
    if method == "GET" and path == "/health":
        return 200, {"status": "ok", **service.stats()}, _JSON
    if method == "GET" and path == "/metrics":
        return 200, service.metrics_snapshot(), _JSON
    if method == "GET" and path == "/configurations":
        return (
            200,
            [
                service.configurations.get(name).to_dict()
                for name in service.configurations.names()
            ],
            _JSON,
        )
    if method == "POST" and path == "/configurations":
        config = DiversificationConfiguration.from_dict(_read_json(environ))
        service.put_configuration(config)
        return 201, config.to_dict(), _JSON
    if method == "POST" and path == "/profiles":
        from ..datasets.io import profiles_from_dict

        service.load_repository(profiles_from_dict(_read_json(environ)))
        return 200, {"loaded_users": len(service.repository)}, _JSON
    if method == "POST" and path == "/profiles/delta":
        delta = parse_profile_delta(_read_json(environ))
        return 200, service.apply_profile_delta(delta), _JSON
    if method == "POST" and path == "/admin/snapshot":
        return 200, service.snapshot_store(), _JSON
    if method == "POST" and path == "/admin/compact":
        return 200, service.compact_store(), _JSON
    if method == "GET" and path == "/admin/wal":
        query = _query(environ)
        return (
            200,
            service.wal_records_since(
                _int_field(query.get("from_seq", 0), "from_seq"),
                _int_field(query.get("limit", 256), "limit"),
            ),
            _JSON,
        )
    if method == "GET" and path == "/admin/state":
        return 200, service.replication_snapshot(), _JSON
    if method == "POST" and path == "/admin/promote":
        return 200, service.promote(), _JSON
    if method == "GET" and path == "/explain.html":
        query = _query(environ)
        html = service.explanation_page(
            query.get("configuration", "default"),
            (
                _int_field(query["budget"], "budget")
                if "budget" in query
                else None
            ),
            timer=timer,
        )
        return 200, html.encode(), _HTML
    if method == "GET" and path == "/groups":
        name = _query(environ).get("configuration", "default")
        return 200, service.group_listing(name, timer=timer), _JSON
    if method == "POST" and path == "/select":
        body = _read_json(environ)
        response = service.select(
            config_name=str(body.get("configuration", "default")),
            budget=(
                _int_field(body["budget"], "budget")
                if "budget" in body
                else None
            ),
            feedback=parse_feedback(body.get("feedback")),
            distribution_properties=tuple(
                str(p) for p in body.get("distribution_properties", ())
            ),
            explain=bool(body.get("explain", True)),
            timer=timer,
            maintained=bool(body.get("maintained", False)),
            constraints=parse_constraints(body.get("constraints")),
        )
        return 200, response, _JSON
    return 404, {"error": f"no route {method} {path}"}, _JSON


def make_wsgi_app(service: PodiumService) -> Callable:
    """Build the WSGI callable exposing ``service`` over HTTP.

    Every response — including malformed input (400) and unexpected
    failures (500) — is JSON; a raw interpreter traceback never reaches
    the client.  Each request is timed, counted in ``service.metrics``
    and logged as a one-line JSON document.
    """

    def app(environ: dict[str, Any], start_response: Callable) -> list[bytes]:
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        timer = StageTimer()
        started = time.perf_counter()
        error: str | None = None
        matched = True
        try:
            status, payload, content_type = _dispatch(
                service, method, path, environ, timer
            )
            matched = status != 404
        except PodiumError as exc:
            status, payload, content_type = 400, {"error": str(exc)}, _JSON
            error = str(exc)
        except (KeyError, TypeError, ValueError) as exc:
            # Malformed input that slipped past explicit validation.
            status, content_type = 400, _JSON
            payload = {"error": f"malformed request: {exc}"}
            error = str(exc)
        except Exception as exc:  # noqa: BLE001 — the JSON-500 boundary
            logger.exception("unhandled error serving %s %s", method, path)
            status, content_type = 500, _JSON
            payload = {
                "error": f"internal server error: {type(exc).__name__}"
            }
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        # Unmatched paths share one metrics bucket so arbitrary probes
        # cannot grow the counter map without bound.
        route = f"{method} {path}" if matched else "<unmatched>"
        service.metrics.observe_request(route, status, seconds, timer.seconds)
        logger.info(
            request_log_record(
                f"{method} {path}", status, seconds, timer.seconds, error
            )
        )
        body = payload if isinstance(payload, bytes) else (
            json.dumps(payload).encode()
        )
        start_response(
            _STATUS_LINES[status],
            [
                ("Content-Type", content_type),
                ("Content-Length", str(len(body))),
            ],
        )
        return [body]

    return app


class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """WSGI server handling each request on its own daemon thread."""

    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
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
        handler_class=_QuietHandler,
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

"""Request metrics and structured logging for the serving path.

The production serving loop (threaded WSGI adapter + cached selection
artifacts) reports its behaviour through one :class:`ServiceMetrics`
object:

* **per-route counters** — request and error counts keyed by
  ``"METHOD /path"``;
* **cache counters** — hits/misses of the per-configuration
  ``(GroupSet, instance, index)`` artifact cache;
* **trajectory counters** — builds of the per-configuration greedy
  trajectory and plain selects answered from its prefix (hits);
* **stage timings** — cumulative/max seconds per pipeline stage
  (``grouping``, ``instance``, ``selection``, ``explanation``), so a slow
  layer is visible without a profiler.

All mutators take an internal lock: the WSGI adapter serves concurrent
requests from a thread pool, and counter increments must not be lost.
:meth:`snapshot` returns a plain JSON-ready dict — the body of
``GET /metrics``.

:func:`request_log_record` builds the one-line JSON document the adapter
logs per request (route, status, duration, stage breakdown), keeping log
parsing trivial for any structured-log shipper.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any


class StageTimer:
    """Accumulates named stage durations for one request.

    Used as ``with timer.stage("selection"): ...``; re-entering a stage
    adds to its total, so e.g. two selection passes in one request are
    reported as one stage.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def stage(self, name: str) -> "_StageContext":
        return _StageContext(self, name)

    def record(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds


class _StageContext:
    def __init__(self, timer: StageTimer, name: str) -> None:
        self._timer = timer
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_StageContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._timer.record(self._name, time.perf_counter() - self._start)


class ServiceMetrics:
    """Thread-safe request/cache/stage counters behind ``GET /metrics``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests: dict[str, dict[str, int]] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._stages: dict[str, dict[str, float]] = {}
        self._ingest = {
            "deltas": 0,
            "upserts": 0,
            "removals": 0,
            "total_seconds": 0.0,
            "max_seconds": 0.0,
            "wal_seconds": 0.0,
        }
        self._trajectory = {"builds": 0, "hits": 0}
        self._constraints = {
            "fair": 0,
            "clustered": 0,
            "satisfied": 0,
            "violated": 0,
            "infeasible": 0,
        }
        self._started = time.time()

    # -- observation -------------------------------------------------------

    def observe_request(
        self,
        route: str,
        status: int,
        seconds: float,
        stages: dict[str, float] | None = None,
    ) -> None:
        """Record one served request and its per-stage breakdown."""
        with self._lock:
            entry = self._requests.setdefault(
                route, {"count": 0, "errors": 0}
            )
            entry["count"] += 1
            if status >= 400:
                entry["errors"] += 1
            self._observe_stage("request", seconds)
            for name, stage_seconds in (stages or {}).items():
                self._observe_stage(name, stage_seconds)

    def observe_ingest(
        self,
        upserts: int,
        removals: int,
        seconds: float,
        wal_seconds: float = 0.0,
    ) -> None:
        """Record one applied profile delta on the durable ingest path.

        ``seconds`` is the full durability-to-visibility lag (WAL append
        + incremental apply + cache refresh); ``wal_seconds`` isolates
        the disk portion so fsync cost is visible on ``/metrics``.
        """
        with self._lock:
            self._ingest["deltas"] += 1
            self._ingest["upserts"] += upserts
            self._ingest["removals"] += removals
            self._ingest["total_seconds"] += seconds
            self._ingest["max_seconds"] = max(
                self._ingest["max_seconds"], seconds
            )
            self._ingest["wal_seconds"] += wal_seconds

    def observe_constraints(
        self, mode: str, satisfied: bool | None
    ) -> None:
        """Record one constrained selection request.

        ``mode`` is ``"fair"`` or ``"clustered"``; ``satisfied`` is the
        result's bound-satisfaction verdict, or ``None`` when the
        request was diagnosed infeasible (no selection produced).
        """
        with self._lock:
            if mode in self._constraints:
                self._constraints[mode] += 1
            if satisfied is None:
                self._constraints["infeasible"] += 1
            elif satisfied:
                self._constraints["satisfied"] += 1
            else:
                self._constraints["violated"] += 1

    def observe_cache(self, hit: bool) -> None:
        """Record an artifact-cache lookup outcome."""
        with self._lock:
            if hit:
                self._cache_hits += 1
            else:
                self._cache_misses += 1

    def observe_trajectory(self, built: bool, hit: bool) -> None:
        """Record one plain select under budget-independent schemes.

        ``built`` says the lookup ran the configuration's greedy
        trajectory; ``hit`` that a prefix of it answered (a budget past
        its end runs fresh).
        """
        with self._lock:
            self._trajectory["builds"] += built
            self._trajectory["hits"] += hit

    def observe_stage(self, name: str, seconds: float) -> None:
        """Record one standalone pipeline stage outside a request.

        The per-request stages flow in through :meth:`observe_request`;
        this hook is for stages that happen on the boot/restore path —
        e.g. ``artifact_open`` when a checkpoint index is memory-mapped
        instead of rebuilt — so ``GET /metrics`` can show open-vs-build
        cost side by side (``stages.artifact_open`` versus
        ``stages.grouping`` + ``stages.instance``).
        """
        with self._lock:
            self._observe_stage(name, seconds)

    def _observe_stage(self, name: str, seconds: float) -> None:
        stage = self._stages.setdefault(
            name, {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
        )
        stage["count"] += 1
        stage["total_seconds"] += seconds
        stage["max_seconds"] = max(stage["max_seconds"], seconds)

    # -- reporting ---------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        with self._lock:
            return self._cache_hits

    @property
    def cache_misses(self) -> int:
        with self._lock:
            return self._cache_misses

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of every counter (the ``/metrics`` body)."""
        with self._lock:
            requests = {
                route: dict(entry) for route, entry in self._requests.items()
            }
            stages = {
                name: {
                    "count": int(stage["count"]),
                    "total_seconds": round(stage["total_seconds"], 6),
                    "max_seconds": round(stage["max_seconds"], 6),
                }
                for name, stage in self._stages.items()
            }
            deltas = self._ingest["deltas"]
            return {
                "uptime_seconds": round(time.time() - self._started, 3),
                "requests": requests,
                "request_count": sum(e["count"] for e in requests.values()),
                "error_count": sum(e["errors"] for e in requests.values()),
                "cache": {
                    "instance_hits": self._cache_hits,
                    "instance_misses": self._cache_misses,
                },
                "ingest": {
                    "deltas": deltas,
                    "upserts": self._ingest["upserts"],
                    "removals": self._ingest["removals"],
                    "total_seconds": round(self._ingest["total_seconds"], 6),
                    "max_lag_seconds": round(self._ingest["max_seconds"], 6),
                    "mean_lag_seconds": round(
                        self._ingest["total_seconds"] / deltas, 6
                    )
                    if deltas
                    else 0.0,
                    "wal_seconds": round(self._ingest["wal_seconds"], 6),
                },
                "constraints": dict(self._constraints),
                "trajectory": dict(self._trajectory),
                "stages": stages,
            }


# Shared-memory counter layout for multi-process serving: every worker
# mirrors these per-process counters into a shared slot so the parent can
# report per-worker request distribution without an RPC round-trip to
# each child (see :mod:`repro.service.workers`).
WORKER_COUNTER_FIELDS = (
    "requests",
    "errors",
    "selects",
    "forwarded_writes",
    "cache_hits",
    "cache_misses",
    "syncs",
    "sync_failures",
)


def aggregate_worker_rows(
    rows: list[dict[str, Any]],
) -> dict[str, int]:
    """Sum per-worker counter rows into pool-wide totals.

    Ignores non-counter keys (``slot``, ``pid``) so rows can carry
    identity next to the counters.
    """
    return {
        field: sum(int(row.get(field, 0)) for row in rows)
        for field in WORKER_COUNTER_FIELDS
    }


def request_log_record(
    route: str,
    status: int,
    seconds: float,
    stages: dict[str, float] | None = None,
    error: str | None = None,
) -> str:
    """One-line JSON log document for a served request."""
    record: dict[str, Any] = {
        "route": route,
        "status": status,
        "duration_ms": round(seconds * 1000.0, 3),
    }
    if stages:
        record["stages_ms"] = {
            name: round(value * 1000.0, 3) for name, value in stages.items()
        }
    if error:
        record["error"] = error
    return json.dumps(record, sort_keys=True)

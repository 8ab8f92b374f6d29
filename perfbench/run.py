"""Serving benchmark of the Podium service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-mix --seed 1 --seconds 10 --trace 0

Boots the real ``repro serve`` subprocess from ``src/``, drives one
seeded, fixed-count workload against it from this single-threaded client
(closed loop), checks every answer, and prints one JSON object as the
last line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``; the per-layer
metrics with ``--trace 1``, which runs the workload untraced and then
again under ``perfbench/traced_serve.py``).  The line before it is the
run's envelope: git sha, host, versions and noise controls.

Workloads, metrics and which layer metric should move which end-to-end
metric are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

from harness import THREAD_PINS

# Pin the client's BLAS/OpenMP pools before anything imports numpy.
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

from harness import RequestFailed, Server, pss_mib, request  # noqa: E402
from stats import median, percentile, self_times  # noqa: E402

ROOT = Path.cwd()
WORKLOADS = ("read-mix", "pool-mixed")
#: Server boots per run; setup_s is their median, latencies pool them.
SESSIONS = 3
#: Restarts of the pool-mixed crash image; recovery_s is their median.
RESTARTS = 3
#: PSS is sampled after every PSS_EVERY-th measured operation.
PSS_EVERY = 4
#: Fixed per-session operation counts per ``--seconds`` of measuring.
READ_SHAPES_PER_SECOND = 6
READS_PER_SHAPE = 2
POOL_DELTAS_PER_SECOND = 0.6
#: Compact after every COMPACT_EVERY-th delta; the stream ends a fixed
#: WAL tail of deltas after its last compaction.
COMPACT_EVERY = 2
#: 2 of every 16 reads replay a delta (12.5%), so select_p90_ms falls
#: among replaying reads and select_p50_ms among settled fresh reads.
POOL_READS_PER_DELTA = 16


def in_process(app: Callable, method: str, path: str, body: Any) -> Any:
    """Call a WSGI app in this process; returns the decoded JSON answer."""
    raw = json.dumps(body).encode() if body is not None else b""
    path, _, query = path.partition("?")
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    status: list[str] = []
    chunks = app(environ, lambda line, headers: status.append(line))
    if not status[0].startswith("2"):
        raise RuntimeError(f"reference {method} {path}: {status[0]}")
    return json.loads(b"".join(chunks))


def reference_app(profiles: Path) -> Callable:
    """An in-process service configured exactly as ``repro serve`` is."""
    from repro.cli import _load_service, build_parser
    from repro.service.app import make_wsgi_app

    args = build_parser().parse_args(["serve"])
    return make_wsgi_app(_load_service(str(profiles), args))


@dataclass
class Run:
    """Everything one pass over a workload measured and found."""

    spans_dir: Path | None
    workdir: Path
    attempted: int = 0
    failed: int = 0
    findings: list[str] = field(default_factory=list)
    selects: list[float] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    latency: dict[str, float] = field(default_factory=dict)
    setups: list[float] = field(default_factory=list)
    recoveries: list[float] = field(default_factory=list)
    pss: list[float] = field(default_factory=list)
    ops: int = 0
    measured_seconds: float = 0.0
    #: Measured phases and their session ends, on the monotonic clock.
    windows: list[tuple[float, float, float]] = field(default_factory=list)
    counters: dict[str, list[float]] = field(default_factory=dict)
    server_cpu: int | None = None
    server_pids: list[int] = field(default_factory=list)
    #: Servers booted and not yet stopped.
    live: list[Server] = field(default_factory=list)

    def check(self, ok: bool, finding: str) -> None:
        if not ok:
            self.findings.append(finding)

    def send(
        self,
        server: Server,
        method: str,
        path: str,
        body: Any = None,
        kind: str | None = None,
        rid: str | None = None,
    ) -> Any:
        """One counted request; latency kept when ``kind`` is given."""
        self.attempted += 1
        try:
            document, seconds = request(server.port, method, path, body, rid)
        except RequestFailed as exc:
            self.failed += 1
            self.findings.append(str(exc))
            return None
        if kind == "select":
            self.selects.append(seconds)
        elif kind == "delta":
            self.deltas.append(seconds)
        if rid is not None:
            self.latency[rid] = seconds
        if kind is not None and len(self.latency) % PSS_EVERY == 0:
            self.pss.append(pss_mib(self.server_pids))
        return document

    def boot(self, label: str, serve_args: list[str]) -> Server:
        spans = None
        if self.spans_dir is not None:
            spans = self.spans_dir / label
        server = Server(
            ROOT, serve_args, self.workdir / "serve.log", spans,
            self.server_cpu,
        )
        self.server_pids = server.pids()
        self.live.append(server)
        return server

    def stop(self, server: Server) -> None:
        self.live.remove(server)
        try:
            if server.spans_dir is not None:
                server.dump_spans()
        finally:
            server.kill()

    def measure(self, phase: Callable[[], int]) -> None:
        """Time one measured phase; ``phase`` returns operations done."""
        start = time.monotonic()
        ops = phase()
        end = time.monotonic()
        self.ops += ops
        self.measured_seconds += end - start
        self.windows.append((start, end, end))

    def close_session(self) -> None:
        start, end, _ = self.windows[-1]
        self.windows[-1] = (start, end, time.monotonic())

    def count(self, name: str, value: float) -> None:
        self.counters.setdefault(name, []).append(value)


def write_profiles(corpus: Any, workdir: Path) -> Path:
    path = workdir / "profiles.json"
    path.write_text(json.dumps(corpus.profile_document()))
    return path


def cache_counters(metrics: dict[str, Any]) -> tuple[int, int]:
    cluster = metrics.get("cluster")
    if cluster:
        totals = cluster["totals"]
        return totals["cache_hits"], totals["cache_misses"]
    cache = metrics["cache"]
    return cache["instance_hits"], cache["instance_misses"]


def record_cache_ratio(run: Run, before: Any, after: Any) -> None:
    hits0, misses0 = cache_counters(before)
    hits1, misses1 = cache_counters(after)
    lookups = (hits1 - hits0) + (misses1 - misses0)
    run.count("cache_hit_ratio", (hits1 - hits0) / lookups if lookups else 0.0)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def run_read_mix(run: Run, seed: int, seconds: int) -> dict[str, Any]:
    """20,000 users, one process, reads only; every answer checked."""
    from workload import BUDGETS, make_corpus, read_shapes

    corpus = make_corpus(20000, 0, seed)
    profiles = write_profiles(corpus, run.workdir)
    properties = sorted({p for _, s in corpus.served for p in s})
    rng = random.Random(seed)
    shapes: list[dict[str, Any]] = []
    expected: list[Any] = []
    stream: list[int] = []
    for session in range(SESSIONS):
        server = run.boot(f"session-{session}", ["--profiles", str(profiles)])
        # Warm-up touches every (configuration, budget) pair, explanation
        # caches included; setup ends at the first warm answer.
        for budget in BUDGETS:
            run.send(server, "POST", "/select", {
                "configuration": "cli", "budget": budget, "explain": True,
                "distribution_properties": properties[:2],
            })
        run.send(server, "POST", "/select", {"configuration": "cli"})
        run.setups.append(time.perf_counter() - server.started)
        if session == 0:
            groups = run.send(server, "GET", "/groups?configuration=cli")
            # Each session sends every shape READS_PER_SHAPE times in a
            # seeded order, so the request mix is exact, not sampled.
            shapes = read_shapes(
                groups, len(corpus.served), READ_SHAPES_PER_SECOND * seconds,
                seed,
            )
            stream = list(range(len(shapes))) * READS_PER_SHAPE
            rng.shuffle(stream)
            app = reference_app(profiles)
            expected = [
                in_process(app, "POST", "/select", shape) for shape in shapes
            ]
            for shape, answer in zip(shapes, expected):
                if "constraints" in shape:
                    run.check(
                        answer["constraints"]["satisfied"],
                        f"reference constraints unsatisfied: {shape}",
                    )
            del app
        before = run.send(server, "GET", "/metrics")

        def phase() -> int:
            for i, index in enumerate(stream):
                answer = run.send(
                    server, "POST", "/select", shapes[index],
                    kind="select", rid=f"s{session}-{i}",
                )
                run.check(
                    answer == expected[index],
                    f"session {session} request {i}: answer differs from "
                    f"the in-process reference for {shapes[index]}",
                )
            return len(stream)

        run.measure(phase)
        after = run.send(server, "GET", "/metrics")
        record_cache_ratio(run, before, after)
        run.check(
            cache_counters(after)[1] == cache_counters(before)[1],
            "read-mix measured phase missed the artifact cache",
        )
        run.close_session()
        run.stop(server)
    return {"fsync": "n/a (no data dir)", "users": len(corpus.served)}


def delta_stream(corpus: Any, seed: int, count: int) -> tuple[list, list]:
    from workload import DeltaStream

    stream = DeltaStream(corpus, seed)
    deltas, users = [], []
    for _ in range(count):
        deltas.append(stream.next_delta())
        users.append(stream.users)
    return deltas, users


def check_ack(run: Run, ack: Any, users: int, where: str) -> None:
    run.check(
        ack is not None and ack.get("users") == users
        and ack.get("durable") is True,
        f"{where}: delta ack {ack and {k: ack.get(k) for k in ('users', 'durable')}} "
        f"!= {users} users, durable",
    )


def snapshot_bytes(data_dir: Path) -> int:
    """Bytes of the live snapshot a data directory's CURRENT names."""
    live = data_dir / "snapshots" / (
        (data_dir / "snapshots" / "CURRENT").read_text().strip()
    )
    return sum(p.stat().st_size for p in live.rglob("*") if p.is_file())


def worker_rows(metrics: dict[str, Any]) -> dict[int, dict[str, int]]:
    return {row["slot"]: row for row in metrics["cluster"]["per_worker"]}


def run_pool_mixed(run: Run, seed: int, seconds: int) -> dict[str, Any]:
    """8,000 users, two workers, fsync on: 1 delta per 16 explained
    selects, periodic compactions, then SIGKILL and restarts from one
    crash image."""
    from workload import make_corpus

    n = max(COMPACT_EVERY + 1, round(POOL_DELTAS_PER_SECOND * seconds))
    compact_after = set(range(COMPACT_EVERY, n, COMPACT_EVERY))
    tail = n - max(compact_after)
    corpus = make_corpus(8000, 4 * n, seed)
    profiles = write_profiles(corpus, run.workdir)
    properties = sorted({p for _, s in corpus.served for p in s})
    deltas, users = delta_stream(corpus, seed + 1, n)
    # Every read is the same explained select, so after its replay a
    # worker answers from warm explanation caches.
    read = {"configuration": "cli", "explain": True,
            "distribution_properties": properties[:2]}
    app = reference_app(profiles)
    in_process(app, "POST", "/select", read)  # build before the deltas
    for delta in deltas:
        in_process(app, "POST", "/profiles/delta", delta)
    expected = in_process(app, "POST", "/select", read)
    del app
    data_dir = run.workdir
    for session in range(SESSIONS):
        data_dir = run.workdir / f"data-{session}"
        server = run.boot(f"session-{session}", [
            "--profiles", str(profiles), "--data-dir", str(data_dir),
            "--workers", "2",
        ])
        sent = 1
        run.send(server, "POST", "/select", read)
        run.setups.append(time.perf_counter() - server.started)
        # Let every worker answer once before measuring.
        for _ in range(64):
            rows = worker_rows(run.send(server, "GET", "/metrics"))
            if all(row["selects"] for row in rows.values()):
                break
            run.send(server, "POST", "/select", read)
            sent += 1
        before = run.send(server, "GET", "/metrics")

        def phase() -> int:
            ops = 0
            for k, delta in enumerate(deltas, start=1):
                ack = run.send(server, "POST", "/profiles/delta", delta,
                               kind="delta", rid=f"s{session}-d{k}")
                check_ack(run, ack, users[k - 1], f"session {session} delta {k}")
                for j in range(POOL_READS_PER_DELTA):
                    run.send(server, "POST", "/select", read,
                             kind="select", rid=f"s{session}-r{k}.{j}")
                ops += 1 + POOL_READS_PER_DELTA
                if k in compact_after:
                    run.send(server, "POST", "/admin/compact", {})
                    ops += 1
            return ops

        run.measure(phase)
        sent += n * POOL_READS_PER_DELTA
        measured = run.send(server, "GET", "/metrics")
        answer = run.send(server, "POST", "/select", read)
        sent += 1
        run.check(
            answer == expected,
            f"session {session}: final answer differs from the reference",
        )
        health = run.send(server, "GET", "/health")
        run.check(
            health is not None and health["users"] == users[-1],
            f"session {session}: /health users "
            f"{health and health['users']} != {users[-1]} implied by acks",
        )
        # Barrier: every worker answers a read, so each has replayed
        # every delta before its counters are read.
        first = worker_rows(run.send(server, "GET", "/metrics"))
        for _ in range(64):
            after = run.send(server, "GET", "/metrics")
            rows = worker_rows(after)
            if all(rows[s]["requests"] > first[s]["requests"] for s in rows):
                break
        run.close_session()
        totals0 = before["cluster"]["totals"]
        totals1 = after["cluster"]["totals"]
        run.check(
            totals1["selects"] == sent,
            f"session {session}: workers counted {totals1['selects']} "
            f"selects, {sent} sent",
        )
        run.check(
            totals1["sync_failures"] == 0,
            f"session {session}: {totals1['sync_failures']} sync failures",
        )
        record_cache_ratio(run, before, measured)
        run.count("syncs_per_delta", (totals1["syncs"] - totals0["syncs"]) / n)
        shares = [
            worker_rows(measured)[s]["selects"] - worker_rows(before)[s]["selects"]
            for s in worker_rows(before)
        ]
        run.count("select_share", min(shares) / sum(shares))
        run.stop(server)  # SIGKILL: the data directory is a crash image
    run.count("snapshot_bytes", snapshot_bytes(data_dir))
    # Recovery is measured single-process: the store's snapshot load and
    # WAL replay, without the pool's fork.
    for attempt in range(RESTARTS):
        image = run.workdir / f"restart-{attempt}"
        shutil.copytree(data_dir, image)
        server = run.boot(f"restart-{attempt}", ["--data-dir", str(image)])
        recovered = run.send(server, "POST", "/select", read)
        run.recoveries.append(time.perf_counter() - server.started)
        run.check(
            recovered == answer,
            f"restart {attempt}: /select differs from the pre-crash answer",
        )
        storage = (run.send(server, "GET", "/metrics") or {}).get("storage", {})
        replayed = storage.get("replayed_records")
        run.count("replayed_records", replayed or 0)
        run.check(
            replayed == tail,
            f"restart {attempt}: replayed {replayed} WAL records, tail is {tail}",
        )
        run.stop(server)
        shutil.rmtree(image)
    return {"fsync": "on", "users": len(corpus.served), "deltas": n,
            "reads_per_delta": POOL_READS_PER_DELTA, "workers": 2,
            "compact_every": COMPACT_EVERY, "wal_tail": tail}


RUNNERS = {
    "read-mix": run_read_mix,
    "pool-mixed": run_pool_mixed,
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "setup_s": median(run.setups),
        "select_p50_ms": percentile(run.selects, 50) * 1000.0,
        "select_p90_ms": percentile(run.selects, 90) * 1000.0,
        "ops_per_s": run.ops / run.measured_seconds,
        "server_pss_mib": median(run.pss),
    }


def write_path(run: Run) -> dict[str, float]:
    """Write-path end-to-end figures; 0 where a workload has no writes."""
    return {
        "delta_p50_ms": percentile(run.deltas, 50) * 1000 if run.deltas else 0.0,
        "delta_p90_ms": percentile(run.deltas, 90) * 1000 if run.deltas else 0.0,
        "recovery_s": median(run.recoveries) if run.recoveries else 0.0,
    }


def load_spans(directory: Path) -> list[dict[str, Any]]:
    spans = []
    for path in sorted(directory.glob("spans-*.json")):
        pid = int(path.stem.split("-")[1])
        for span in json.loads(path.read_text()):
            span["pid"] = pid
            spans.append(span)
    return spans


def layer_metrics(run: Run, untraced: Run) -> dict[str, float]:
    """Per-layer figures of a traced run (see README.md for each)."""
    assert run.spans_dir is not None
    sessions: list[dict[str, Any]] = []
    restarts: list[dict[str, Any]] = []
    for path in sorted(run.spans_dir.iterdir()):
        target = restarts if path.name.startswith("restart") else sessions
        target.extend(load_spans(path))
    own = self_times(sessions)
    windows = run.windows

    def measured(span: dict[str, Any]) -> bool:
        return any(a <= span["start"] <= b for a, b, _ in windows)

    def counted(span: dict[str, Any]) -> bool:
        return any(a <= span["start"] <= c for a, _, c in windows)

    def named(name: str, spans: list, keep: Callable = measured) -> list:
        return [s for s in spans if s["name"] == name and keep(s)]

    def self_ms(name: str) -> float:
        values = [own[(s["pid"], s["id"])] for s in named(name, sessions)]
        return median(values) * 1000.0 if values else 0.0

    def duration(spans: list, scale: float = 1.0) -> float:
        values = [s["end"] - s["start"] for s in spans]
        return median(values) * scale if values else 0.0

    deltas = len(run.deltas)
    wsgi = [s for s in named("app.wsgi", sessions) if s["rid"] in run.latency]
    wsgi_self = [own[(s["pid"], s["id"])] for s in wsgi]
    wsgi_total = [s["end"] - s["start"] for s in wsgi]
    locks = [s["end"] - s["start"] for s in named("app.lock_wait", sessions)]
    appended = named("wal.append", sessions, counted)

    def counter(name: str) -> float:
        values = run.counters.get(name)
        return median(values) if values else 0.0

    metrics = {
        "app.wsgi_self_ms": median(wsgi_self) * 1000.0,
        "app.http_overhead_ms": median(
            run.latency[s["rid"]] - (s["end"] - s["start"]) for s in wsgi
        ) * 1000.0,
        "app.cache_hit_ratio": counter("cache_hit_ratio"),
        "app.lock_wait_ms": sum(locks) / len(locks) * 1000.0 if locks else 0.0,
        "greedy.select_ms": self_ms("greedy.select"),
        "explain.ms": self_ms("explain"),
        "custom.ms": self_ms("custom"),
        "constraints.ms": self_ms("constraints"),
        "groups.build_s": duration(
            named("groups.build", sessions, lambda s: True)
        ),
        "updates.apply_ms": self_ms("updates.apply"),
        "updates.reassign_ms": self_ms("updates.reassign"),
        "updates.rebuild_ms": self_ms("updates.rebuild"),
        "index.encode_ms": self_ms("index.encode"),
        "index.encodes_per_delta": (
            len(named("index.encode", sessions, counted)) / deltas
            if deltas else 0.0
        ),
        "wal.append_ms": duration(appended, 1000.0),
        "wal.bytes_per_delta": (
            sum(s["n"] for s in appended) / deltas if deltas else 0.0
        ),
        "store.open_s": duration(
            named("store.open", restarts, lambda s: True)
        ),
        "store.replayed_records": counter("replayed_records"),
        "store.adopt_ms": self_ms("store.adopt"),
        "snapshot.write_s": duration(
            named("snapshot.write", sessions, counted)
        ),
        "snapshot.load_s": duration(
            named("snapshot.load", restarts, lambda s: True)
        ),
        "snapshot.bytes": counter("snapshot_bytes"),
        "persistence.index_open_ms": duration(
            named("persistence.index_open", restarts, lambda s: True), 1000.0
        ),
        "workers.forward_ms": duration(
            named("workers.forward", sessions), 1000.0
        ),
        "workers.sync_ms": duration(
            named("workers.sync", sessions, counted), 1000.0
        ),
        "workers.syncs_per_delta": counter("syncs_per_delta"),
        "workers.full_resyncs": float(
            len(named("workers.full_resync", sessions, lambda s: True))
        ),
        "workers.select_share": counter("select_share"),
        "server.unattributed_share": sum(wsgi_self) / sum(wsgi_total),
        "trace.overhead_ms": (
            percentile(run.selects, 50) - percentile(untraced.selects, 50)
        ) * 1000.0,
    }
    metrics.update(write_path(untraced))
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    for suffix, unit in (("ms", "ms"), ("_s", "s"), ("_mib", "MiB")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("ratio", "share")):
        return "ratio"
    if name.endswith("bytes") or "bytes_per" in name:
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding ``path``, from ``/proc/mounts``."""
    best, kind = "", "unknown"
    resolved = str(path.resolve())
    for line in Path("/proc/mounts").read_text().splitlines():
        _, mount, fstype, *_ = line.split()
        if (resolved == mount or resolved.startswith(mount.rstrip("/") + "/")) \
                and len(mount) > len(best):
            best, kind = mount, fstype
    return kind


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's current speed."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        samples.append(time.perf_counter() - started)
    return median(samples) * 1000.0


def envelope(workload: str, params: dict[str, Any], workdir: Path) -> dict:
    import numpy

    return {
        "workload": workload,
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fsync": params.pop("fsync"),
        "data_dir_filesystem": filesystem_of(workdir),
        "noise_controls": {
            "thread_pins": THREAD_PINS,
            "cpu_pins": params.pop("cpus"),
            "client": "one process, one request thread, closed loop",
            "workloads": "one at a time; servers of a run never overlap",
            "warm_up": "outside latency samples, inside setup_s",
            "sessions": SESSIONS,
            "host_loop_ms": params.pop("host_loop_ms"),
        },
        "params": params,
    }


def pin_cpus() -> tuple[int, int] | None:
    """Pin this client to one CPU and return ``(client, server)`` CPUs."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None
    os.sched_setaffinity(0, {allowed[0]})
    return allowed[0], allowed[1]


def execute(
    workload: str,
    seed: int,
    seconds: int,
    workdir: Path,
    traced: bool,
    server_cpu: int | None,
) -> tuple[Run, dict[str, Any]]:
    workdir.mkdir(parents=True)
    spans_dir = workdir / "spans" if traced else None
    run = Run(spans_dir=spans_dir, workdir=workdir, server_cpu=server_cpu)
    try:
        params = RUNNERS[workload](run, seed, seconds)
    finally:
        # A run that fails part-way still stops every server it started.
        for server in run.live:
            server.kill()
    return run, params


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no src/repro under {ROOT}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cpus = pin_cpus()
    server_cpu = cpus[1] if cpus else None
    scratch = ROOT / ".perfbench_work"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    try:
        host_before = host_loop_ms()
        run, params = execute(
            args.workload, args.seed, args.seconds, workdir / "plain", False,
            server_cpu,
        )
        metrics = end_to_end(run)
        runs = [run]
        if args.trace:
            traced, _ = execute(
                args.workload, args.seed, args.seconds, workdir / "traced",
                True, server_cpu,
            )
            runs.append(traced)
            metrics = layer_metrics(traced, run)
        params["host_loop_ms"] = [host_before, host_loop_ms()]
        params["cpus"] = (
            {"client": cpus[0], "server": cpus[1]} if cpus else "unpinned"
        )
        info = envelope(args.workload, params, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    findings = [f for r in runs for f in r.findings]
    for finding in findings:
        print(f"finding: {finding}", file=sys.stderr)
    print(json.dumps({"envelope": info}))
    print(json.dumps({
        "correct": not findings,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Serving-path load benchmark: throughput and scaling across workers.

Boots the real HTTP service (``python -m repro serve``) as a subprocess
— once per worker count — and drives a mixed read/write workload
against it from multiple load-generator processes: mostly ``POST
/select`` with one durable ``POST /profiles/delta`` interleaved every
``delta_every`` selects.  Per worker count the report records total
requests, req/s, select latency p50/p99, acked deltas and the
per-worker share of selects (from the pool's shared counters), so the
kernel's ``SO_REUSEPORT`` balancing is visible, not assumed.

Three gate families turn the numbers into exit codes
(:func:`serve_report_failures`):

* **Throughput floor** — every worker count must sustain at least
  ``rps_floor`` requests/second; a regression in the serving path fails
  the run outright.
* **Read scaling** — with enough cores, the pooled configurations must
  beat the single-process baseline (``workers=4`` by ``scale_4x_floor``,
  ``workers=2`` by ``scale_2x_floor``).  On hosts without the cores to
  show the effect the gates are recorded as ``skipped (cpu-limited)``
  rather than silently passed — the numbers are still in the report.
* **Mapped worker boot** — the pool is booted from a snapshot
  (:func:`measure_worker_boot_rss`) and must adopt at least one
  mmap-backed checkpoint index; its boot time and per-worker ``VmRSS``
  are recorded, not judged.  Self-skips on single-core hosts —
  recorded as skipped, never silently passed.

``repro bench --suite serve`` writes the report to ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass
from multiprocessing import get_context
from typing import Any

import numpy as np

from ..datasets.io import save_profiles
from ..datasets.synth import generate_profile_repository

_SRC_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


@dataclass(frozen=True)
class ServeBenchSetup:
    """Knobs of the serving load benchmark."""

    users: int = 2000
    n_properties: int = 120
    mean_profile_size: float = 25.0
    budget: int = 8
    seed: int = 3
    #: Worker counts to boot and load-test, in order.
    worker_counts: tuple[int, ...] = (1, 2, 4)
    #: Seconds of sustained load per worker count.
    duration_seconds: float = 6.0
    #: Load-generator processes × request threads per process.
    client_processes: int = 2
    client_threads: int = 4
    #: One profile delta per this many selects (0 disables writes).
    delta_every: int = 50
    #: Minimum acceptable req/s for every worker count.
    rps_floor: float = 25.0
    #: Read-scaling floors vs the workers=1 baseline (cpu-gated).
    scale_2x_floor: float = 1.3
    scale_4x_floor: float = 2.5
    #: Population of the mapped worker boot.  Larger than the load-test
    #: population so the checkpoint index is a realistic mapping.
    rss_users: int = 4000
    #: Worker count of the mapped worker boot.
    rss_workers: int = 2


def _http(
    port: int, path: str, body: bytes | None = None, timeout: float = 30.0
) -> dict[str, Any]:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        method="POST" if body is not None else "GET",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _boot_server(
    profiles: str | None,
    data_dir: str,
    budget: int,
    workers: int,
) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = _SRC_ROOT + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--data-dir",
        data_dir,
        "--budget",
        str(budget),
        "--port",
        "0",
        "--workers",
        str(workers),
        "--log-level",
        "warning",
    ]
    if profiles is not None:
        command[4:4] = ["--profiles", profiles]
    server = subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    assert server.stdout is not None
    line = server.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", line)
    if not match:
        server.kill()
        server.wait()
        raise RuntimeError(
            f"serve (workers={workers}) printed no address: {line!r}"
        )
    port = int(match.group(1))
    deadline = time.monotonic() + 60
    while True:
        try:
            _http(port, "/health", timeout=5)
            return server, port
        except (OSError, urllib.error.URLError):
            if time.monotonic() > deadline:
                server.kill()
                server.wait()
                raise RuntimeError(
                    f"serve (workers={workers}) never became healthy"
                ) from None
            time.sleep(0.1)


def _stop_server(server: subprocess.Popen) -> None:
    server.send_signal(signal.SIGINT)
    try:
        server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()


def _client_main(
    port: int,
    duration: float,
    threads: int,
    delta_every: int,
    proc_idx: int,
    queue: Any,
) -> None:
    """One load-generator process: ``threads`` request loops."""
    merged = {"latencies": [], "deltas_acked": 0, "errors": 0}
    merge_lock = threading.Lock()
    stop_at = time.monotonic() + duration
    select_body = json.dumps(
        {"configuration": "cli", "explain": False}
    ).encode()

    def loop(thread_idx: int) -> None:
        latencies: list[float] = []
        acked = 0
        errors = 0
        n = 0
        while time.monotonic() < stop_at:
            n += 1
            if delta_every and n % delta_every == 0:
                delta = json.dumps(
                    {
                        "upserts": {
                            f"load-{proc_idx}-{thread_idx}-{n}": {
                                "bench load": 0.8
                            }
                        }
                    }
                ).encode()
                try:
                    reply = _http(port, "/profiles/delta", delta)
                    if reply.get("users"):
                        acked += 1
                except (OSError, urllib.error.URLError, ValueError):
                    errors += 1
                continue
            started = time.perf_counter()
            try:
                _http(port, "/select", select_body)
                latencies.append(time.perf_counter() - started)
            except (OSError, urllib.error.URLError, ValueError):
                errors += 1
        with merge_lock:
            merged["latencies"].extend(latencies)
            merged["deltas_acked"] += acked
            merged["errors"] += errors

    workers = [
        threading.Thread(target=loop, args=(i,)) for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    queue.put(merged)


def _drive_load(
    port: int, setup: ServeBenchSetup
) -> dict[str, Any]:
    context = get_context("fork")
    queue = context.Queue()
    processes = [
        context.Process(
            target=_client_main,
            args=(
                port,
                setup.duration_seconds,
                setup.client_threads,
                setup.delta_every,
                idx,
                queue,
            ),
        )
        for idx in range(setup.client_processes)
    ]
    started = time.monotonic()
    for process in processes:
        process.start()
    results = [queue.get(timeout=setup.duration_seconds * 10 + 60) for _ in processes]
    for process in processes:
        process.join(timeout=30)
    seconds = time.monotonic() - started
    latencies = np.array(
        [value for result in results for value in result["latencies"]],
        dtype=np.float64,
    )
    return {
        "seconds": seconds,
        "latencies": latencies,
        "deltas_acked": sum(r["deltas_acked"] for r in results),
        "errors": sum(r["errors"] for r in results),
    }


def _worker_select_share(port: int) -> list[float]:
    """Normalized per-worker select distribution from the pool counters."""
    try:
        cluster = _http(port, "/metrics").get("cluster")
    except (OSError, urllib.error.URLError, ValueError):
        return [1.0]
    if not cluster:
        return [1.0]  # single-process server: no pool counters
    counts = [
        int(row.get("selects", 0)) for row in cluster.get("per_worker", ())
    ]
    total = sum(counts)
    if not total:
        return [0.0 for _ in counts] or [1.0]
    return [round(c / total, 4) for c in counts]


def _proc_rss_kb(pid: int) -> int | None:
    """Resident set size of ``pid`` in KiB, or ``None`` off-Linux."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def _worker_pids(port: int, expected: int, timeout: float = 15.0) -> list[int]:
    """Worker pids from the pool's shared counter rows (poll until seen)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            cluster = _http(port, "/metrics").get("cluster") or {}
        except (OSError, urllib.error.URLError, ValueError):
            cluster = {}
        pids = [
            int(row["pid"])
            for row in cluster.get("per_worker", ())
            if row.get("pid")
        ]
        if len(pids) >= expected or time.monotonic() > deadline:
            return pids
        time.sleep(0.2)


def measure_worker_boot_rss(setup: ServeBenchSetup) -> dict[str, Any]:
    """Boot the worker pool off a snapshot with a mappable index.

    A seed boot builds the ``cli`` artifact and writes a snapshot whose
    index members are stored uncompressed (mappable).  The pool is then
    booted against that data directory, and the boot records
    time-to-healthy, every worker's post-boot ``VmRSS`` and how many
    checkpoint indexes it adopted as memory maps.
    """
    repository = generate_profile_repository(
        n_users=setup.rss_users,
        n_properties=setup.n_properties,
        mean_profile_size=setup.mean_profile_size,
        seed=setup.seed,
    )
    workdir = tempfile.mkdtemp(prefix="repro-serve-rss-")
    try:
        profiles = os.path.join(workdir, "profiles.json")
        save_profiles(repository, profiles)
        data_dir = os.path.join(workdir, "data")
        seed_server, port = _boot_server(profiles, data_dir, setup.budget, 1)
        try:
            # Build the serving artifact, then persist it (with its CSR
            # index) so the recovery boot adopts instead of rebuilding.
            _http(
                port,
                "/select",
                json.dumps(
                    {"configuration": "cli", "explain": False}
                ).encode(),
                timeout=120,
            )
            _http(port, "/admin/snapshot", b"{}")
        finally:
            _stop_server(seed_server)
        started = time.monotonic()
        server, port = _boot_server(
            None, data_dir, setup.budget, setup.rss_workers
        )
        try:
            boot_seconds = time.monotonic() - started
            pids = _worker_pids(port, setup.rss_workers)
            samples = [_proc_rss_kb(pid) for pid in pids]
            rss_kb = [kb for kb in samples if kb is not None]
            storage = _http(port, "/metrics").get("storage") or {}
        finally:
            _stop_server(server)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "users": setup.rss_users,
        "workers": setup.rss_workers,
        "boot_seconds": boot_seconds,
        "worker_pids": pids,
        "worker_rss_kb": rss_kb,
        "mean_worker_rss_kb": sum(rss_kb) / len(rss_kb) if rss_kb else None,
        "mapped_artifact_indexes": int(
            storage.get("mapped_artifact_indexes") or 0
        ),
    }


def benchmark_serving(setup: ServeBenchSetup) -> dict[str, Any]:
    """Run the load benchmark; returns the BENCH_serve.json document."""
    repository = generate_profile_repository(
        n_users=setup.users,
        n_properties=setup.n_properties,
        mean_profile_size=setup.mean_profile_size,
        seed=setup.seed,
    )
    rows: list[dict[str, Any]] = []
    workdir = tempfile.mkdtemp(prefix="repro-serve-bench-")
    try:
        profiles = os.path.join(workdir, "profiles.json")
        save_profiles(repository, profiles)
        for workers in setup.worker_counts:
            data_dir = os.path.join(workdir, f"data-{workers}")
            server, port = _boot_server(
                profiles, data_dir, setup.budget, workers
            )
            try:
                # One warm request so no client pays the cold build.
                _http(
                    port,
                    "/select",
                    json.dumps(
                        {"configuration": "cli", "explain": False}
                    ).encode(),
                    timeout=120,
                )
                load = _drive_load(port, setup)
                share = _worker_select_share(port)
            finally:
                _stop_server(server)
            latencies = load["latencies"]
            selects = int(latencies.size)
            requests = selects + load["deltas_acked"]
            rows.append(
                {
                    "workers": workers,
                    "seconds": round(load["seconds"], 3),
                    "selects": selects,
                    "deltas_acked": load["deltas_acked"],
                    "errors": load["errors"],
                    "requests": requests,
                    "requests_per_second": round(
                        requests / load["seconds"], 2
                    )
                    if load["seconds"]
                    else 0.0,
                    "select_p50_ms": round(
                        float(np.percentile(latencies, 50)) * 1000.0, 3
                    )
                    if selects
                    else None,
                    "select_p99_ms": round(
                        float(np.percentile(latencies, 99)) * 1000.0, 3
                    )
                    if selects
                    else None,
                    "per_worker_select_share": share,
                }
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cpus = os.cpu_count() or 1
    if cpus >= 2:
        worker_rss = measure_worker_boot_rss(setup)
    else:
        worker_rss = None

    report = {
        "setup": asdict(setup),
        "cpu_count": cpus,
        "rows": rows,
        "worker_rss": worker_rss,
        "gates": _evaluate_gates(setup, rows) + [_rss_gate(worker_rss)],
    }
    return report


def _evaluate_gates(
    setup: ServeBenchSetup, rows: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    gates: list[dict[str, Any]] = []
    for row in rows:
        rps = row["requests_per_second"]
        ok = rps >= setup.rps_floor and not row["errors"]
        detail = (
            f"{rps:.1f} req/s vs floor {setup.rps_floor:.1f}"
            + (f", {row['errors']} errors" if row["errors"] else "")
        )
        gates.append(
            {
                "name": f"throughput floor (workers={row['workers']})",
                "status": "passed" if ok else "failed",
                "detail": detail,
            }
        )

    by_workers = {row["workers"]: row for row in rows}
    baseline = by_workers.get(1)
    cpus = os.cpu_count() or 1
    for workers, floor, needed_cpus in (
        (2, setup.scale_2x_floor, 2),
        (4, setup.scale_4x_floor, 4),
    ):
        row = by_workers.get(workers)
        if row is None or baseline is None:
            continue
        name = f"read scaling (workers={workers} vs 1)"
        base_rps = baseline["requests_per_second"]
        ratio = row["requests_per_second"] / base_rps if base_rps else 0.0
        if cpus < needed_cpus:
            # A single busy core cannot demonstrate process-level
            # parallelism; record the ratio but do not judge it.
            gates.append(
                {
                    "name": name,
                    "status": f"skipped (cpu-limited: {cpus} < "
                    f"{needed_cpus} cores)",
                    "detail": f"measured ratio {ratio:.2f}x "
                    f"(floor {floor:.1f}x not enforced)",
                }
            )
            continue
        gates.append(
            {
                "name": name,
                "status": "passed" if ratio >= floor else "failed",
                "detail": f"{ratio:.2f}x vs floor {floor:.1f}x",
            }
        )
    return gates


def _rss_gate(worker_rss: dict[str, Any] | None) -> dict[str, Any]:
    """Judge the mapped worker boot: at least one mapped index adopted.

    Self-skips (never silently passes) on single-core hosts, which never
    run the boot.
    """
    name = "worker boot adopts mapped indexes"
    if worker_rss is None:
        cpus = os.cpu_count() or 1
        return {
            "name": name,
            "status": f"skipped (cpu-limited: {cpus} < 2 cores)",
            "detail": "worker-pool boot not run",
        }
    mapped = worker_rss["mapped_artifact_indexes"]
    mean_kb = worker_rss["mean_worker_rss_kb"]
    rss_note = (
        f"mean worker RSS {mean_kb / 1024.0:.1f} MiB"
        if mean_kb is not None
        else "no /proc RSS samples"
    )
    return {
        "name": name,
        "status": "passed" if mapped >= 1 else "failed",
        "detail": f"{mapped} mapped artifact index(es); {rss_note}; "
        f"boot {worker_rss['boot_seconds']:.2f}s",
    }


def serve_report_failures(report: dict[str, Any]) -> list[str]:
    """Acceptance gate: any failed gate row fails the benchmark."""
    return [
        f"{gate['name']}: {gate['detail']}"
        for gate in report.get("gates", ())
        if gate.get("status") == "failed"
    ]

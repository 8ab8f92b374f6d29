"""End-to-end tests of the pre-fork worker pool over real HTTP.

Boots ``python -m repro serve --workers N`` as a subprocess and checks
the pool against the single-process server's contract: identical
selections, durable-before-ack forwarded writes that converge on every
worker immediately, an aggregated ``/metrics`` cluster document,
graceful SIGTERM draining with a single parent snapshot, and restart
identity between ``--workers 4`` and ``--workers 1`` booted from the
same data directory.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets import example_repository
from repro.datasets.io import save_profiles
from repro.service import (
    DiversificationConfiguration,
    PodiumService,
    WalFollower,
)

from .raw_http import post_declaring_length

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pre-fork pool needs POSIX fork"
)

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC = os.path.join(REPO_ROOT, "src")

SELECT_BODY = json.dumps({"configuration": "cli"}).encode()


def request(port, path, body=None, timeout=30):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        method="POST" if body is not None else "GET",
    )
    with urllib.request.urlopen(req, timeout=timeout) as response:
        return json.loads(response.read())


def boot(extra_args, env_extra=None):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    env.update(env_extra or {})
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--budget",
            "2",
            "--log-level",
            "warning",
            *extra_args,
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    line = server.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", line)
    if not match:
        server.kill()
        server.wait()
        raise AssertionError(f"no address line: {line!r}")
    port = int(match.group(1))
    deadline = time.monotonic() + 60
    while True:
        try:
            request(port, "/health", timeout=5)
            return server, port, line
        except (OSError, urllib.error.URLError):
            if time.monotonic() > deadline:
                server.kill()
                server.wait()
                raise AssertionError("pool never became healthy") from None
            time.sleep(0.1)


def stop(server, sig=signal.SIGINT):
    server.send_signal(sig)
    try:
        return server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
        raise


def delta_body(i):
    return json.dumps(
        {"upserts": {f"pool{i:04d}": {"avgRating Mexican": 0.9}}}
    ).encode()


@pytest.fixture(scope="module")
def profiles_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "profiles.json"
    save_profiles(example_repository(), path)
    return str(path)


def reference_selection():
    """What the in-process service answers for the same configuration."""
    service = PodiumService(example_repository())
    service.configurations.put(
        DiversificationConfiguration(
            name="cli",
            description="configuration assembled from CLI flags",
            budget=2,
            weight_scheme="LBS",
            coverage_scheme="Single",
            bucketing_strategy="jenks",
            min_support=1,
        )
    )
    return service.select("cli")


class TestPoolEndToEnd:
    def test_pool_lifecycle(self, profiles_file, tmp_path):
        data_dir = str(tmp_path / "data")
        server, port, line = boot(
            [
                "--profiles",
                profiles_file,
                "--workers",
                "2",
                "--data-dir",
                data_dir,
            ]
        )
        try:
            assert "2 workers" in line

            # Selection parity with the in-process service.
            want = reference_selection()
            got = request(port, "/select", SELECT_BODY)
            assert got["selected"] == want["selected"]
            assert got["score"] == want["score"]

            # Forwarded write: durable before ack, immediately visible
            # on every worker (repeat /health until both answered).
            ack = request(port, "/profiles/delta", delta_body(0))
            assert ack["durable"] is True
            assert ack["wal_seq"] == 1
            for _ in range(10):
                assert request(port, "/health")["users"] == 6

            # Aggregated metrics: cluster document + writer's storage.
            metrics = request(port, "/metrics")
            assert metrics["storage"]["wal_seq"] == 1
            cluster = metrics["cluster"]
            assert cluster["workers"] == 2
            assert cluster["live_workers"] == 2
            assert len(cluster["per_worker"]) == 2
            assert cluster["totals"]["forwarded_writes"] == 1
            assert cluster["writer"]["version"] == 1
            pids = {row["pid"] for row in cluster["per_worker"]}
            assert server.pid not in pids  # workers, not the parent

            # Writes that the writer rejects surface as HTTP 400.
            bad = urllib.request.Request(
                f"http://127.0.0.1:{port}/profiles/delta",
                data=json.dumps({"removals": ["ghost"]}).encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(bad, timeout=15)
            assert failure.value.code == 400
        finally:
            code = stop(server, signal.SIGTERM)

        # Graceful shutdown: clean exit plus a single parent snapshot.
        assert code == 0
        snapshots = os.listdir(os.path.join(data_dir, "snapshots"))
        assert "CURRENT" in snapshots
        assert any(name.startswith("snap-") for name in snapshots)

    def test_pool_without_store_replicates_in_memory(self, profiles_file):
        server, port, _ = boot(
            ["--profiles", profiles_file, "--workers", "2"]
        )
        try:
            ack = request(port, "/profiles/delta", delta_body(1))
            assert "wal_seq" not in ack  # no store: nothing durable
            for _ in range(8):
                assert request(port, "/health")["users"] == 6
        finally:
            assert stop(server, signal.SIGTERM) == 0

    def test_negative_content_length_is_400(self, profiles_file):
        # /profiles/delta is forwarded to the writer; /select is served
        # by the worker itself.  Neither may wait for the client's EOF.
        server, port, _ = boot(
            ["--profiles", profiles_file, "--workers", "2"]
        )
        try:
            for path in ("/profiles/delta", "/select") * 2:
                status, body = post_declaring_length(port, path, -1)
                assert status == 400, path
                assert "Content-Length" in body["error"]
            assert request(port, "/health")["users"] == 5
        finally:
            assert stop(server, signal.SIGTERM) == 0

    def test_env_var_selects_pool(self, profiles_file):
        server, port, line = boot(
            ["--profiles", profiles_file],
            env_extra={"REPRO_SERVE_WORKERS": "2"},
        )
        try:
            assert "2 workers" in line
            assert request(port, "/health")["users"] == 5
        finally:
            assert stop(server, signal.SIGTERM) == 0


class TestPoolPrimaryFollowed:
    @pytest.mark.parametrize("durable", (True, False), ids=("store", "memory"))
    def test_wal_follower_tails_a_pool_primary(
        self, profiles_file, tmp_path, durable
    ):
        """The log routes are forwarded to the writer, so a follower
        bootstraps from a pool and tails its deltas and puts to lag 0."""
        store_args = ["--data-dir", str(tmp_path / "data")] if durable else []
        server, port, _ = boot(
            ["--profiles", profiles_file, "--workers", "2", *store_args]
        )
        replica = PodiumService()
        follower = WalFollower(
            replica, f"http://127.0.0.1:{port}", poll_interval=0.05
        )
        try:
            request(port, "/profiles/delta", delta_body(0))
            follower.start()
            assert replica.stats()["users"] == 6
            request(port, "/profiles/delta", delta_body(1))
            late = {"name": "late", "weight_scheme": "Iden", "budget": 2}
            request(port, "/configurations", json.dumps(late).encode())
            deadline = time.monotonic() + 15
            while True:
                stats = follower.stats()
                if stats["applied_seq"] == 3 and stats["lag_seq"] == 0:
                    break
                assert time.monotonic() < deadline, stats
                time.sleep(0.05)
            for name in ("cli", "late"):
                body = json.dumps({"configuration": name}).encode()
                want = request(port, "/select", body)
                got = json.loads(json.dumps(replica.select(name)))
                assert got == want, name
        finally:
            follower.stop()
            assert stop(server, signal.SIGTERM) == 0


class TestRespawn:
    def test_respawned_workers_start_warm(self, profiles_file):
        """A delta leaves the writer's cache entries without instances;
        the supervisor warms them before forking a replacement, so a
        respawned worker answers its first selects from the cache."""
        server, port, _ = boot(
            ["--profiles", profiles_file, "--workers", "2"]
        )
        try:
            request(port, "/profiles/delta", delta_body(7))
            cluster = request(port, "/metrics")["cluster"]
            old = {row["pid"] for row in cluster["per_worker"]}
            assert len(old) == 2
            for pid in old:
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while True:
                try:
                    rows = request(port, "/metrics", timeout=5)["cluster"][
                        "per_worker"
                    ]
                except (OSError, urllib.error.URLError):
                    rows = []
                pids = {row["pid"] for row in rows}
                if len(pids) == 2 and not pids & old:
                    break
                assert time.monotonic() < deadline, "workers not respawned"
                time.sleep(0.2)
            for _ in range(6):
                got = request(port, "/select", SELECT_BODY)
                assert got["selected"]
            totals = request(port, "/metrics")["cluster"]["totals"]
            assert totals["selects"] == 6
            assert totals["cache_misses"] == 0
            assert totals["cache_hits"] == 6
        finally:
            stop(server, signal.SIGTERM)


class TestRestartIdentity:
    def test_pool4_state_restarts_identically_under_single(
        self, profiles_file, tmp_path
    ):
        """`--workers 4` writes state that a `--workers 1` boot answers
        byte-identically — the durable format is process-model
        agnostic."""
        data_dir = str(tmp_path / "data")
        server, port, _ = boot(
            [
                "--profiles",
                profiles_file,
                "--workers",
                "4",
                "--data-dir",
                data_dir,
            ]
        )
        try:
            for i in range(3):
                request(port, "/profiles/delta", delta_body(i))
            request(port, "/select", SELECT_BODY)
            request(port, "/admin/snapshot", b"{}")
            for i in range(3, 6):
                request(port, "/profiles/delta", delta_body(i))
            want = request(port, "/select", SELECT_BODY)
        finally:
            assert stop(server, signal.SIGTERM) == 0

        server, port, line = boot(
            ["--workers", "1", "--data-dir", data_dir]
        )
        try:
            assert "workers" not in line  # legacy single-process banner
            got = request(port, "/select", SELECT_BODY)
            assert got == want  # the full response document, verbatim
            assert request(port, "/health")["users"] == 11
        finally:
            stop(server)

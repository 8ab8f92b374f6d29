"""End-to-end smoke test of the durable ingestion path.

Boots ``repro serve --data-dir`` as a real subprocess and checks the
two crash-safety promises over actual HTTP and actual process death:

* **Restart-identical selection** — deltas are ingested (some folded
  into a snapshot via ``POST /admin/snapshot``, some left in the WAL),
  the server is stopped, and a second server is booted from the same
  data directory *without* ``--profiles``.  ``/select`` must return the
  exact same users and score; any divergence is a recovery bug.
* **Acked deltas survive SIGKILL** — a writer thread streams deltas
  while the server is killed with ``SIGKILL`` (no shutdown hook, no
  snapshot).  Every delta that was acknowledged with ``durable: true``
  must be present after a cold reopen; the repository may additionally
  contain deltas that hit the WAL but whose ack was lost in flight —
  durability-before-ack allows that, never the reverse.

Run from the repository root::

    PYTHONPATH=src python scripts/ingest_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def fail(message: str) -> None:
    print(f"ingest-smoke: FAIL — {message}", file=sys.stderr)
    raise SystemExit(1)


def send(port, path, body=None, timeout=15):
    """``(status, raw body)`` of one request; no status is a failure."""
    url = f"http://127.0.0.1:{port}{path}"
    req = urllib.request.Request(
        url, data=body, method="POST" if body is not None else "GET"
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def request(port, path, body=None, expect_status=200, timeout=15):
    status, payload = send(port, path, body, timeout)
    if status != expect_status:
        fail(f"{path}: expected status {expect_status}, got {status}")
    return json.loads(payload)


def boot(args, env):
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
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
        fail(f"could not parse bound port from {line!r}")
    port = int(match.group(1))
    deadline = time.time() + 30
    while True:
        try:
            request(port, "/health")
            return server, port
        except (SystemExit, OSError):
            if time.time() > deadline:
                server.kill()
                fail("server never became healthy")
            time.sleep(0.2)


def delta_body(i):
    return json.dumps(
        {"upserts": {f"smoke{i:04d}": {"avgRating Mexican": 0.9}}}
    ).encode()


def stop(server, sig=signal.SIGINT):
    server.send_signal(sig)
    try:
        server.wait(timeout=15)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()


def check_restart_identity(tmp, env, profiles):
    data_dir = os.path.join(tmp, "data-restart")
    args = ["--budget", "2", "--data-dir", data_dir]
    server, port = boot(["--profiles", profiles, *args], env)
    try:
        for i in range(3):
            ack = request(port, "/profiles/delta", delta_body(i))
            if not ack.get("durable") or ack.get("wal_seq") != i + 1:
                fail(f"delta {i} not durably acknowledged: {ack}")
        # Warm the artifact cache, then fold the first deltas into a
        # snapshot; the remaining ones must come back via WAL replay.
        select_body = json.dumps({"configuration": "cli"}).encode()
        request(port, "/select", select_body)
        request(port, "/admin/snapshot", b"{}")
        for i in range(3, 6):
            request(port, "/profiles/delta", delta_body(i))
        want = request(port, "/select", select_body)
        metrics = request(port, "/metrics")
        if metrics["storage"]["wal_seq"] != 6:
            fail(f"unexpected wal_seq {metrics['storage']['wal_seq']}")
    finally:
        stop(server)

    # Second boot: no --profiles, state comes from the data directory.
    server, port = boot(args, env)
    try:
        got = request(port, "/select", select_body)
        if got["selected"] != want["selected"]:
            fail(
                f"post-restart selection diverged: "
                f"{got['selected']} != {want['selected']}"
            )
        if got["score"] != want["score"]:
            fail(f"post-restart score {got['score']} != {want['score']}")
        health = request(port, "/health")
        if health["users"] != 11:  # 5 example users + 6 upserts
            fail(f"post-restart corpus size {health['users']}")
    finally:
        stop(server)
    print("ingest-smoke: restart-identical selection OK")


def check_sigkill_durability(tmp, env, profiles):
    data_dir = os.path.join(tmp, "data-kill")
    args = ["--budget", "2", "--data-dir", data_dir]
    server, port = boot(["--profiles", profiles, *args], env)

    acked = []

    def spam():
        # The stream ends at the kill: a lost connection, or a 503 from
        # a pool worker that outlived its writer.  Neither fails the run.
        for i in range(10_000):
            try:
                status, payload = send(port, "/profiles/delta", delta_body(i))
            except OSError:
                return
            if status != 200:
                return
            ack = json.loads(payload)
            if ack.get("durable"):
                acked.append(ack["wal_seq"])

    writer = threading.Thread(target=spam, daemon=True)
    writer.start()
    while not acked:  # make sure the kill lands mid-stream, not before
        time.sleep(0.01)
    time.sleep(0.3)
    server.send_signal(signal.SIGKILL)
    server.wait()
    writer.join(timeout=30)
    if not acked:
        fail("no delta was acknowledged before the kill")

    server, port = boot(args, env)
    try:
        metrics = request(port, "/metrics")
        storage = metrics["storage"]
        if storage["wal_seq"] < max(acked):
            fail(
                f"acked delta lost: recovered wal_seq {storage['wal_seq']} "
                f"< acked {max(acked)}"
            )
        health = request(port, "/health")
        if health["users"] < 5 + len(acked):
            fail(
                f"recovered corpus has {health['users']} users, "
                f"expected >= {5 + len(acked)}"
            )
    finally:
        stop(server)
    print(
        f"ingest-smoke: SIGKILL durability OK "
        f"({len(acked)} acked deltas survived, "
        f"last seq {max(acked)}, recovered wal_seq {storage['wal_seq']})"
    )


def main() -> None:
    sys.path.insert(0, SRC)
    from repro.datasets import example_repository
    from repro.datasets.io import save_profiles

    with tempfile.TemporaryDirectory() as tmp:
        profiles = os.path.join(tmp, "profiles.json")
        save_profiles(example_repository(), profiles)
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        check_restart_identity(tmp, env, profiles)
        check_sigkill_durability(tmp, env, profiles)
    print("ingest-smoke: OK")


if __name__ == "__main__":
    main()

"""End-to-end smoke test of WAL shipping and follower promotion.

Boots a primary and a warm standby as real subprocesses talking over
real HTTP, then checks the replication promises the chaos/replication
layer makes:

* **Convergence** — the follower bootstraps the primary's state, tails
  its WAL (``GET /admin/wal``), and reports ``lag_seq == 0`` in
  ``/metrics`` once caught up; ``/select`` answers must be identical on
  both processes.
* **Configurations replicate** — a configuration put on the primary
  after the follower's bootstrap travels as a WAL record: the follower
  lists it and answers ``/select`` on it like the primary.
* **Read-only standby** — writes against the follower answer 503 while
  it follows.
* **Failover without ack loss** — the primary is killed with
  ``SIGKILL``; ``POST /admin/promote`` turns the follower into a
  writable primary and every delta the dead primary acknowledged must
  be present, with new writes continuing the global sequence numbering.
* **Replicated acks are locally durable** — the promoted follower is
  restarted from its own ``--data-dir`` and still holds the full
  population, and still lists and serves the replicated configuration.

With ``--primary-workers N`` the primary is a pre-fork pool of ``N``
workers: its workers forward the log routes to the writer, so the
follower (always single-process) tails the pool as it tails one process.

Run from the repository root::

    PYTHONPATH=src python scripts/replication_smoke.py [--primary-workers N]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

N_SEED_DELTAS = 5
N_STREAM_DELTAS = 5
#: Configuration puts between the bootstrap and the streamed deltas.
N_CONFIG_PUTS = 1
LATE_CONFIG = {
    "name": "late",
    "weight_scheme": "Iden",
    "budget": 2,
    "buckets_per_property": 2,
}
LATE_SELECT = json.dumps({"configuration": "late"}).encode()


def fail(message: str) -> None:
    print(f"replication-smoke: FAIL — {message}", file=sys.stderr)
    raise SystemExit(1)


def request(port, path, body=None, expect_status=200, timeout=15):
    url = f"http://127.0.0.1:{port}{path}"
    req = urllib.request.Request(
        url, data=body, method="POST" if body is not None else "GET"
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            status, payload = response.status, response.read()
    except urllib.error.HTTPError as exc:
        status, payload = exc.code, exc.read()
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


def stop(server, sig=signal.SIGINT):
    server.send_signal(sig)
    try:
        server.wait(timeout=15)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()


def delta_body(i):
    return json.dumps(
        {"upserts": {f"rep{i:04d}": {"avgRating Mexican": 0.8}}}
    ).encode()


def wait_for_lag_zero(port, want_seq, timeout=30):
    deadline = time.time() + timeout
    while time.time() < deadline:
        replication = request(port, "/metrics").get("replication") or {}
        if (
            replication.get("lag_seq") == 0
            and replication.get("applied_seq") == want_seq
            and replication.get("state") == "streaming"
        ):
            return replication
        time.sleep(0.1)
    fail(
        f"follower never caught up to seq {want_seq} "
        f"(last replication doc: {replication})"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--primary-workers",
        type=int,
        default=1,
        help="boot the primary with --workers N (default 1)",
    )
    primary_workers = parser.parse_args().primary_workers
    sys.path.insert(0, SRC)
    from repro.datasets import example_repository
    from repro.datasets.io import save_profiles

    with tempfile.TemporaryDirectory() as tmp:
        profiles = os.path.join(tmp, "profiles.json")
        save_profiles(example_repository(), profiles)
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        primary_dir = os.path.join(tmp, "primary")
        follower_dir = os.path.join(tmp, "follower")

        primary, pport = boot(
            ["--profiles", profiles, "--budget", "2",
             "--data-dir", primary_dir,
             "--workers", str(primary_workers)],
            env,
        )
        follower = None
        try:
            for i in range(N_SEED_DELTAS):
                ack = request(pport, "/profiles/delta", delta_body(i))
                if not ack.get("durable"):
                    fail(f"primary did not durably ack delta {i}: {ack}")

            follower, fport = boot(
                ["--follow", f"http://127.0.0.1:{pport}",
                 "--data-dir", follower_dir,
                 "--poll-interval", "0.1"],
                env,
            )
            wait_for_lag_zero(fport, N_SEED_DELTAS)
            print("replication-smoke: bootstrap + catch-up OK")

            request(
                pport, "/configurations",
                json.dumps(LATE_CONFIG).encode(), expect_status=201,
            )
            wait_for_lag_zero(fport, N_SEED_DELTAS + N_CONFIG_PUTS)
            listed = [c["name"] for c in request(fport, "/configurations")]
            if "late" not in listed:
                fail(f"follower does not list the put configuration: {listed}")
            want_late = request(pport, "/select", LATE_SELECT)
            got_late = request(fport, "/select", LATE_SELECT)
            if got_late["selected"] != want_late["selected"] or (
                got_late["score"] != want_late["score"]
            ):
                fail(
                    f"follower selection on 'late' diverged: "
                    f"{got_late['selected']} != {want_late['selected']}"
                )
            print("replication-smoke: configuration put replicated OK")

            for i in range(N_SEED_DELTAS, N_SEED_DELTAS + N_STREAM_DELTAS):
                request(pport, "/profiles/delta", delta_body(i))
            total = N_SEED_DELTAS + N_STREAM_DELTAS
            records = total + N_CONFIG_PUTS  # WAL records: deltas + puts
            replication = wait_for_lag_zero(fport, records)
            print(
                f"replication-smoke: streamed "
                f"{replication['applied_records']} records, lag 0 OK"
            )

            select_body = json.dumps({"configuration": "cli"}).encode()
            want = request(pport, "/select", select_body)
            got = request(fport, "/select", select_body)
            if got["selected"] != want["selected"] or (
                got["score"] != want["score"]
            ):
                fail(
                    f"follower selection diverged: {got['selected']} "
                    f"({got['score']}) != {want['selected']} "
                    f"({want['score']})"
                )
            print("replication-smoke: primary/follower /select parity OK")

            rejected = request(
                fport, "/profiles/delta", delta_body(999),
                expect_status=503,
            )
            if "read-only" not in rejected.get("error", ""):
                fail(f"follower 503 without read-only error: {rejected}")
            print("replication-smoke: read-only follower 503 OK")

            # The failover: kill the primary dead, promote the standby.
            primary.send_signal(signal.SIGKILL)
            primary.wait()
            promoted = request(fport, "/admin/promote", b"{}")
            if promoted.get("read_only") is not False or (
                not promoted.get("promoted")
            ):
                fail(f"promotion did not enable writes: {promoted}")
            if promoted.get("wal_seq") != records:
                fail(
                    f"promoted at wal_seq {promoted.get('wal_seq')}, "
                    f"expected {records}"
                )
            health = request(fport, "/health")
            if health["users"] != 5 + total:  # example corpus + deltas
                fail(
                    f"promoted follower lost acks: {health['users']} "
                    f"users, expected {5 + total}"
                )
            ack = request(fport, "/profiles/delta", delta_body(1000))
            if not ack.get("durable") or ack.get("wal_seq") != records + 1:
                fail(
                    f"promoted follower write not durable or "
                    f"mis-numbered: {ack}"
                )
            print(
                f"replication-smoke: promote after SIGKILL OK "
                f"(took over at seq {records}, first own write seq "
                f"{ack['wal_seq']})"
            )
            promoted_late = request(fport, "/select", LATE_SELECT)
        finally:
            if follower is not None:
                stop(follower)
            if primary.poll() is None:
                stop(primary)

        # Replicated acks must also be durable on the follower's own
        # disk: cold-boot it from its data directory, no primary around.
        reopened, rport = boot(
            ["--budget", "2", "--data-dir", follower_dir], env
        )
        try:
            health = request(rport, "/health")
            expected = 5 + N_SEED_DELTAS + N_STREAM_DELTAS + 1
            if health["users"] != expected:
                fail(
                    f"follower data dir recovered {health['users']} "
                    f"users, expected {expected}"
                )
            listed = [c["name"] for c in request(rport, "/configurations")]
            if "late" not in listed:
                fail(f"cold boot lost the put configuration: {listed}")
            if request(rport, "/select", LATE_SELECT) != promoted_late:
                fail("cold boot answers /select on 'late' differently")
        finally:
            stop(reopened)
        print("replication-smoke: follower-local durability OK")
    print("replication-smoke: OK")


if __name__ == "__main__":
    main()

"""End-to-end smoke test of the HTTP serving path.

Boots ``repro serve`` on an ephemeral port as a real subprocess, drives
``/health``, ``/select``, ``/metrics`` and the error paths over HTTP,
and exits non-zero if anything deviates:

* repeated ``/select`` must be served from the artifact cache
  (exactly one instance miss, the rest hits);
* every error body — malformed JSON, unknown configuration,
  ``budget: 0`` — must be JSON, never an HTML traceback;
* ``cli`` (LBS × Single) at two more budgets must reuse its one
  instance and its one greedy trajectory: still one instance miss,
  one trajectory build, and the budget-1 panel is the default one's
  first pick.

Run from the repository root::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

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


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL — {message}", file=sys.stderr)
    raise SystemExit(1)


def request(
    port: int,
    path: str,
    body: bytes | None = None,
    expect_status: int = 200,
) -> dict:
    url = f"http://127.0.0.1:{port}{path}"
    req = urllib.request.Request(
        url, data=body, method="POST" if body is not None else "GET"
    )
    try:
        with urllib.request.urlopen(req, timeout=15) as response:
            status, payload = response.status, response.read()
            content_type = response.headers.get("Content-Type", "")
    except urllib.error.HTTPError as exc:
        status, payload = exc.code, exc.read()
        content_type = exc.headers.get("Content-Type", "")
    if status != expect_status:
        fail(f"{path}: expected status {expect_status}, got {status}")
    if not content_type.startswith("application/json"):
        fail(f"{path}: non-JSON content type {content_type!r}")
    try:
        return json.loads(payload)
    except json.JSONDecodeError:
        fail(f"{path}: body is not JSON: {payload[:200]!r}")


def main() -> None:
    sys.path.insert(0, SRC)
    from repro.datasets import example_repository
    from repro.datasets.io import save_profiles

    with tempfile.TemporaryDirectory() as tmp:
        profiles = os.path.join(tmp, "profiles.json")
        save_profiles(example_repository(), profiles)

        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--profiles",
                profiles,
                "--port",
                "0",
                "--budget",
                "2",
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = server.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", line)
            if not match:
                fail(f"could not parse bound port from {line!r}")
            port = int(match.group(1))

            deadline = time.time() + 30
            while True:
                try:
                    health = request(port, "/health")
                    break
                except (SystemExit, OSError):
                    if time.time() > deadline:
                        fail("server never became healthy")
                    time.sleep(0.2)
            if health["users"] != 5:
                fail(f"unexpected corpus size {health['users']}")

            select_body = json.dumps({"configuration": "cli"}).encode()
            first = request(port, "/select", select_body)
            if not first["selected"]:
                fail("empty selection")
            for _ in range(2):
                repeat = request(port, "/select", select_body)
                if repeat["selected"] != first["selected"]:
                    fail("selection changed across identical requests")

            metrics = request(port, "/metrics")
            cache = metrics["cache"]
            if cache["instance_misses"] != 1:
                fail(
                    f"expected exactly 1 instance build, got "
                    f"{cache['instance_misses']} misses"
                )
            if cache["instance_hits"] != 2:
                fail(f"expected 2 cache hits, got {cache['instance_hits']}")
            if metrics["requests"]["POST /select"]["count"] != 3:
                fail("request counters did not track /select")

            # Error paths must all be JSON bodies.
            bad = request(port, "/select", b"{broken", expect_status=400)
            if "error" not in bad:
                fail("malformed-JSON 400 lacks an error field")
            bad = request(
                port,
                "/select",
                json.dumps({"configuration": "nope"}).encode(),
                expect_status=400,
            )
            if "unknown configuration" not in bad["error"]:
                fail(f"unexpected unknown-config error {bad['error']!r}")
            bad = request(
                port,
                "/select",
                json.dumps({"configuration": "cli", "budget": 0}).encode(),
                expect_status=400,
            )
            if "budget" not in bad["error"]:
                fail(f"budget=0 not rejected properly: {bad['error']!r}")
            request(port, "/definitely-not-a-route", expect_status=404)

            metrics = request(port, "/metrics")
            if metrics["error_count"] < 4:
                fail("error counter did not track the failed requests")

            # Budget-independent schemes: every budget is one instance
            # and a prefix of one greedy trajectory.
            for budget in (1, 3):
                other = request(
                    port,
                    "/select",
                    json.dumps(
                        {"configuration": "cli", "budget": budget}
                    ).encode(),
                )
                if other["selected"][:1] != first["selected"][:1]:
                    fail(f"budget {budget} panel is not a prefix")
            metrics = request(port, "/metrics")
            if metrics["cache"]["instance_misses"] != 1:
                fail(
                    f"expected budgets to share 1 instance, got "
                    f"{metrics['cache']['instance_misses']} misses"
                )
            builds = metrics["trajectory"]["builds"]
            if builds != 1:
                fail(f"expected 1 trajectory build, got {builds}")
        finally:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
    print("serve-smoke: OK")


if __name__ == "__main__":
    main()

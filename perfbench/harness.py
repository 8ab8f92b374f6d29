"""Process and HTTP plumbing of the serving benchmark.

:class:`Server` spawns ``python -m repro serve`` (or the traced launcher)
as a subprocess with the BLAS/OpenMP thread pools pinned to one thread,
parses the bound port from its banner, and stops it — with every
forked worker — by ``SIGKILL``, waiting until each process has ended.
:func:`request` is the benchmark's only HTTP client: one short-lived
connection per request (the service speaks HTTP/1.0), timed on the
client side.  :func:`parse_pss_kib` reads proportional set size from
``/proc/<pid>/smaps_rollup``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

#: Thread pools pinned for the server and the client: one core each.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_BANNER = re.compile(r"listening on http://[^:\s]+:(\d+)")


class RequestFailed(RuntimeError):
    """A request answered with a non-2xx status or not at all."""


def request(
    port: int,
    method: str,
    path: str,
    body: Any = None,
    request_id: str | None = None,
    timeout: float = 120.0,
) -> tuple[Any, float]:
    """Send one request; returns ``(decoded JSON, seconds)``.

    The latency spans connect to the last byte of the response, which is
    what a client of the service waits for.
    """
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    if request_id is not None:
        headers["X-Request-Id"] = request_id
    started = time.perf_counter()
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        payload = response.read()
    except OSError as exc:
        raise RequestFailed(f"{method} {path}: {exc}") from exc
    finally:
        connection.close()
    seconds = time.perf_counter() - started
    if not 200 <= response.status < 300:
        raise RequestFailed(
            f"{method} {path}: HTTP {response.status} {payload[:200]!r}"
        )
    return json.loads(payload), seconds


def parse_pss_kib(text: str) -> int:
    """The ``Pss:`` figure (KiB) of a ``smaps_rollup`` document."""
    for line in text.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    raise ValueError("no Pss line in smaps_rollup")


def process_tree(root: int) -> list[int]:
    """``root`` and its live descendants, read from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def pss_mib(pids: list[int]) -> float:
    """Proportional set size summed over ``pids``, in MiB."""
    total = 0
    for pid in pids:
        total += parse_pss_kib(Path(f"/proc/{pid}/smaps_rollup").read_text())
    return total / 1024.0


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class Server:
    """One ``repro serve`` subprocess (plus any workers it forks)."""

    def __init__(
        self,
        root: Path,
        serve_args: list[str],
        log_path: Path,
        spans_dir: Path | None = None,
        cpu: int | None = None,
    ) -> None:
        env = dict(os.environ, PYTHONUNBUFFERED="1", **THREAD_PINS)
        # Keep the pool's control socket inside the checkout when its
        # path fits the 107-byte unix socket limit.
        tmp = log_path.parent / "tmp"
        if len(str(tmp.resolve())) + len("/repro-pool-xxxxxxxx/control.sock") < 100:
            tmp.mkdir(exist_ok=True)
            env["TMPDIR"] = str(tmp.resolve())
        src = str(root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        if spans_dir is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            launcher = Path(__file__).with_name("traced_serve.py")
            command = [
                sys.executable, str(launcher), str(spans_dir), "serve",
            ]
        command += ["--port", "0", "--log-level", "warning", *serve_args]
        self.spans_dir = spans_dir
        self.started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            # Forked workers inherit the pin.
            preexec_fn=(
                None if cpu is None
                else lambda: os.sched_setaffinity(0, {cpu})
            ),
        )
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        match = _BANNER.search(line)
        if match is None:
            self.kill()
            raise RuntimeError(
                f"server printed no listening banner (see {log_path}): "
                f"{line!r}"
            )
        self.port = int(match.group(1))

    def pids(self) -> list[int]:
        return process_tree(self.process.pid)

    def dump_spans(self, timeout: float = 60.0) -> None:
        """Ask every server process to write its spans; wait for them."""
        assert self.spans_dir is not None
        pids = self.pids()
        for pid in pids:
            os.kill(pid, signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        pending = set(pids)
        while pending:
            pending = {
                pid for pid in pending
                if not (self.spans_dir / f"spans-{pid}.json").exists()
            }
            if pending and time.monotonic() > deadline:
                raise RuntimeError(f"no spans written by pids {pending}")
            time.sleep(0.02)

    def kill(self, timeout: float = 30.0) -> None:
        """SIGKILL the server and its workers; wait until all have ended."""
        pids = self.pids()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait(timeout=timeout)
        deadline = time.monotonic() + timeout
        while any(_alive(pid) for pid in pids if pid != self.process.pid):
            if time.monotonic() > deadline:
                raise RuntimeError("server workers outlived SIGKILL")
            time.sleep(0.02)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()

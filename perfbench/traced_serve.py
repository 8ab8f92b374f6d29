"""Traced launcher: ``repro serve`` with a span around each layer call.

Usage::

    python perfbench/traced_serve.py SPANS_DIR serve [serve flags...]

Wraps the public functions the serving path calls — where they are
called, e.g. ``repro.service.app.select_from_index``, because the
service imports them by name — and then runs ``repro.cli.main``.  No
file of the program changes.

Each span records its name, start and end on the system-wide monotonic
clock, the span open on the same thread when it started (its parent),
and the client's ``X-Request-Id`` (which the server itself ignores).
Spans stay in memory; on ``SIGUSR1`` a process writes its spans to
``SPANS_DIR/spans-<pid>.json``.  Forked pool workers inherit the handler
and start with an empty span list.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


class Recorder:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = iter(range(1, sys.maxsize))
        self._lock = threading.Lock()

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
        return local

    def depth(self) -> int:
        return len(self._state().stack)

    def set_request(self, rid: str | None) -> None:
        self._state().rid = rid

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        rename: Callable[[Any], str] | None = None,
        count: Callable[[], int] | None = None,
    ) -> Any:
        """Run ``fn`` inside a span; ``rename`` may rename it by result."""
        state = self._state()
        with self._lock:
            span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else None
        before = count() if count is not None else 0
        state.stack.append(span_id)
        start = clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = clock()
            state.stack.pop()
            amount = count() - before if count is not None else None
            label = rename(result) if rename is not None else name
            self.spans.append(
                (span_id, parent, label, start, end, state.rid, amount)
            )

    def dump(self, directory: Path) -> None:
        spans = [
            {
                "id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                "end": s[4], "rid": s[5], "n": s[6],
            }
            for s in list(self.spans)
        ]
        target = directory / f"spans-{os.getpid()}.json"
        staging = target.with_suffix(".tmp")
        staging.write_text(json.dumps(spans))
        os.replace(staging, target)


RECORDER = Recorder()


def _traced(name: str, fn: Callable, **options: Any) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return RECORDER.call(name, fn, args, kwargs, **options)

    return wrapper


def _traced_method(cls: type, attr: str, name: str, **options: Any) -> None:
    setattr(cls, attr, _traced(name, getattr(cls, attr), **options))


def _traced_app_factory(factory: Callable) -> Callable:
    """Wrap the WSGI apps a factory builds in one ``app.wsgi`` span.

    A pool worker's app wraps the plain app; only the outermost opens a
    span and binds the request id, so worker syncs count as server time.
    """

    @functools.wraps(factory)
    def make(*args: Any, **kwargs: Any) -> Callable:
        app = factory(*args, **kwargs)

        def traced(environ: dict, start_response: Callable) -> Any:
            if RECORDER.depth():
                return app(environ, start_response)
            RECORDER.set_request(environ.get("HTTP_X_REQUEST_ID"))
            try:
                return RECORDER.call(
                    "app.wsgi", app, (environ, start_response), {}
                )
            finally:
                RECORDER.set_request(None)

        return traced

    return make


def install() -> None:
    """Patch every traced call site of the serving path."""
    from repro.core.index import InstanceIndex
    from repro.service import app, concurrency, workers
    from repro.storage import snapshot, store, wal

    for module in (app, store):
        module.apply_delta_to_repository = _traced(
            "updates.apply", module.apply_delta_to_repository
        )
        module.reassign_groups = _traced(
            "updates.reassign", module.reassign_groups
        )
    for attr, name in (
        ("select_from_index", "greedy.select"),
        ("greedy_select", "greedy.select"),
        ("explain_selection", "explain"),
        ("custom_select", "custom"),
        ("constrained_select", "constraints"),
        ("build_simple_groups", "groups.build"),
        ("rebuild_instance", "updates.rebuild"),
    ):
        setattr(app, attr, _traced(name, getattr(app, attr)))
    app.make_wsgi_app = _traced_app_factory(app.make_wsgi_app)
    workers.make_wsgi_app = _traced_app_factory(workers.make_wsgi_app)
    workers.make_worker_app = _traced_app_factory(workers.make_worker_app)

    build = InstanceIndex.build
    InstanceIndex.build = classmethod(
        lambda cls, instance: RECORDER.call(
            "index.encode", build, (instance,), {}
        )
    )
    store.load_snapshot = _traced("snapshot.load", store.load_snapshot)
    store.write_snapshot = _traced("snapshot.write", store.write_snapshot)
    for attr in ("open_index_npz", "load_index_npz"):
        setattr(
            snapshot, attr,
            _traced("persistence.index_open", getattr(snapshot, attr)),
        )
    _traced_method(store.DurableRepositoryStore, "__init__", "store.open")
    _traced_method(store.DurableRepositoryStore, "adopt", "store.adopt")

    append = wal.WriteAheadLog.append

    def traced_append(self: Any, payload: dict) -> int:
        return RECORDER.call(
            "wal.append", append, (self, payload), {},
            count=lambda: self.size_bytes,
        )

    wal.WriteAheadLog.append = traced_append
    for attr in ("acquire_read", "acquire_write"):
        _traced_method(concurrency.ReadWriteLock, attr, "app.lock_wait")
    _traced_method(workers.WorkerRuntime, "forward", "workers.forward")
    _traced_method(
        workers.WorkerRuntime, "ensure_fresh", "workers.sync",
        rename=lambda synced: (
            "workers.sync" if synced else "workers.fresh_check"
        ),
    )
    _traced_method(
        workers.WorkerRuntime, "_adopt_full", "workers.full_resync"
    )


def main(argv: list[str]) -> int:
    spans_dir = Path(argv[0])
    spans_dir.mkdir(parents=True, exist_ok=True)
    install()
    os.register_at_fork(after_in_child=RECORDER.reset)
    signal.signal(signal.SIGUSR1, lambda *_: RECORDER.dump(spans_dir))
    from repro.cli import main as cli_main

    return cli_main(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

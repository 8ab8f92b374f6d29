"""The pool's private transport, over a real forked pool.

Workers reach the writer as plain HTTP clients of the writer's own WSGI
app, served on a unix control socket.  A :class:`WorkerPool` is started
in this process (so the writer's metrics can be read directly) beside a
single-process twin built from the same repository and registry; a
request answered by the pool must get the same status and body as the
twin, whatever its size or encoding.
"""

import http.client
import io
import json
import os

import pytest

from repro.datasets.synth import generate_profile_repository
from repro.service import (
    DiversificationConfiguration,
    PodiumService,
    make_wsgi_app,
)
from repro.service.workers import WorkerPool
from repro.storage import DurableRepositoryStore

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pre-fork pool needs POSIX fork"
)

CONFIG = DiversificationConfiguration(name="c", weight_scheme="Iden")
BIG = 64 * 1024


def _service(repo, data_dir):
    service = PodiumService(store=DurableRepositoryStore(data_dir, fsync=False))
    service.configurations.put(CONFIG)
    service.load_repository(repo)
    return service


@pytest.fixture(scope="module")
def twins(tmp_path_factory):
    """``(pool, single-process app)`` over the same starting state."""
    root = tmp_path_factory.mktemp("transport")
    repo = generate_profile_repository(
        n_users=120, n_properties=8, mean_profile_size=4.0, seed=7
    )
    single = _service(repo, root / "single")
    pool = WorkerPool(_service(repo, root / "pool"), port=0, workers=2)
    pool.start()
    try:
        yield pool, make_wsgi_app(single)
    finally:
        pool.shutdown()
        pool.service.store.close()
        single.store.close()


def _over_http(port, method, path, body=b""):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _in_process(app, method, path, body=b""):
    path, _, query = path.partition("?")
    status = []
    chunks = app(
        {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": query,
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        },
        lambda line, headers: status.append(line),
    )
    return int(status[0].split()[0]), json.loads(b"".join(chunks))


def _both(twins, method, path, body=b""):
    pool, single = twins
    return (
        _over_http(pool.port, method, path, body),
        _in_process(single, method, path, body),
    )


def test_large_delta_reaches_the_writer_intact(twins):
    upserts = {
        f"grand-é{i:05d}": {"prop00001": 0.25, "prop00003": i / 3000}
        for i in range(1500)
    }
    body = json.dumps({"upserts": upserts}, ensure_ascii=False).encode()
    assert len(body) > BIG
    pooled, single = _both(twins, "POST", "/profiles/delta", body)
    assert pooled == single
    assert pooled[0] == 200 and pooled[1]["upserts"] == 1500
    # The logged record is what the twin logged for the same bytes.
    tail = _both(twins, "GET", "/admin/wal?from_seq=0&limit=1000")
    assert tail[0] == tail[1]
    assert tail[0][1]["records"][-1]["payload"]["delta"]["upserts"] == upserts


def test_non_utf8_body_is_forwarded_byte_for_byte(twins):
    # The undecodable byte sits past 64 KiB: the writer's error names its
    # position, so equal answers mean every byte arrived in order.
    body = b'{"upserts": {"' + b"x" * BIG + b'caf\xe9": {}}}'
    pooled, single = _both(twins, "POST", "/profiles/delta", body)
    assert pooled == single
    assert pooled[0] == 400
    assert f"position {BIG + 17}" in pooled[1]["error"]


def test_writer_metrics_count_forwarded_routes(twins):
    pool, _ = twins
    body = json.dumps({"removals": []}).encode()
    assert _over_http(pool.port, "POST", "/profiles/delta", body)[0] == 200
    assert _over_http(pool.port, "GET", "/admin/wal?from_seq=0")[0] == 200
    requests = pool.service.metrics.snapshot()["requests"]
    assert requests["POST /profiles/delta"]["count"] >= 1
    assert requests["GET /admin/wal"]["count"] >= 1


def test_worker_metrics_carry_the_pool_view(twins):
    pool, _ = twins
    status, metrics = _over_http(pool.port, "GET", "/metrics")
    assert status == 200
    cluster = metrics["cluster"]
    assert sorted(row["slot"] for row in cluster["per_worker"]) == [0, 1]
    assert cluster["answered_by_slot"] in (0, 1)
    assert metrics["storage"]["data_dir"] == str(pool.service.store.data_dir)

"""Route-level coverage of the WSGI serving path.

Happy paths for every route, JSON error payloads for malformed input,
budget validation at the service boundary, delta-update invalidation,
cache hit/miss accounting via ``/metrics`` and a concurrent-select smoke
test against the threaded HTTP server.
"""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.datasets import example_repository, profiles_to_dict
from repro.service import (
    DiversificationConfiguration,
    PodiumService,
    make_http_server,
    make_wsgi_app,
)

from .raw_http import post_declaring_length


@pytest.fixture()
def service():
    svc = PodiumService(example_repository())
    svc.configurations.put(
        DiversificationConfiguration(name="two", budget=2)
    )
    return svc


def make_client(service):
    """WSGI-level test client: ``call(method, path, body)`` → (status, body)."""
    app = make_wsgi_app(service)

    def call(method, path, body=None, query="", raw=None):
        payload = (
            raw
            if raw is not None
            else json.dumps(body or {}).encode()
        )
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": query,
            "CONTENT_LENGTH": str(len(payload)),
            "wsgi.input": io.BytesIO(payload),
        }
        captured = {}

        def start_response(status, headers):
            captured["status"] = int(status.split()[0])
            captured["headers"] = dict(headers)

        body_bytes = b"".join(app(environ, start_response))
        if captured["headers"]["Content-Type"].startswith(
            "application/json"
        ):
            return captured["status"], json.loads(body_bytes)
        return captured["status"], body_bytes

    return call


@pytest.fixture()
def client(service):
    return make_client(service)


class TestHappyPaths:
    def test_health(self, client):
        status, body = client("GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["users"] == 5
        assert "two" in body["configurations"]
        assert "generation" in body

    def test_metrics(self, client):
        client("POST", "/select", {"configuration": "two"})
        status, body = client("GET", "/metrics")
        assert status == 200
        assert body["requests"]["POST /select"]["count"] == 1
        assert body["requests"]["POST /select"]["errors"] == 0
        assert body["request_count"] >= 1
        assert "selection" in body["stages"]
        assert body["service"]["users"] == 5

    def test_configurations_roundtrip(self, client):
        status, body = client(
            "POST",
            "/configurations",
            {"name": "tiny", "budget": 1},
        )
        assert status == 201
        status, listing = client("GET", "/configurations")
        assert status == 200
        assert "tiny" in [c["name"] for c in listing]

    def test_profiles_load(self, client):
        document = profiles_to_dict(example_repository())
        status, body = client("POST", "/profiles", document)
        assert status == 200
        assert body["loaded_users"] == 5

    def test_groups(self, client):
        status, listing = client(
            "GET", "/groups", query="configuration=two"
        )
        assert status == 200
        assert len(listing) >= 9
        weights = [e["weight"] for e in listing]
        assert weights == sorted(weights, reverse=True)

    def test_select_plain(self, client):
        status, body = client(
            "POST", "/select", {"configuration": "two"}
        )
        assert status == 200
        assert set(body["selected"]) == {"Alice", "Eve"}
        assert body["score"] == 17.0
        assert "explanation" in body

    def test_select_with_feedback(self, client):
        status, body = client(
            "POST",
            "/select",
            {
                "configuration": "two",
                "feedback": {
                    "must_have": [["avgRating Mexican", "high"]],
                },
            },
        )
        assert status == 200
        # Only Alice rates Mexican highly; the refined pool is smaller
        # than the budget, so the selection stops early.
        assert body["selected"] == ["Alice"]
        assert body["refined_pool_size"] == 1

    def test_explain_html(self, client):
        status, body = client(
            "GET", "/explain.html", query="configuration=two"
        )
        assert status == 200
        assert body.startswith(b"<!DOCTYPE html>") or b"<html" in body


class TestErrorPayloads:
    def test_malformed_json_is_json_400(self, client):
        status, body = client("POST", "/select", raw=b"{not json")
        assert status == 400
        assert "error" in body

    def test_unknown_configuration_is_json_400(self, client):
        status, body = client(
            "POST", "/select", {"configuration": "nope"}
        )
        assert status == 400
        assert "unknown configuration" in body["error"]

    def test_infeasible_feedback_is_json_400(self, client):
        status, body = client(
            "POST",
            "/select",
            {
                "configuration": "two",
                "feedback": {
                    "must_have": [["avgRating Mexican", "high"]],
                    "must_not": [["avgRating Mexican", "high"]],
                },
            },
        )
        assert status == 400
        assert "error" in body

    def test_budget_zero_rejected(self, client):
        status, body = client(
            "POST", "/select", {"configuration": "two", "budget": 0}
        )
        assert status == 400
        assert "budget" in body["error"]

    def test_non_integer_budget_rejected(self, client):
        status, body = client(
            "POST",
            "/select",
            {"configuration": "two", "budget": "lots"},
        )
        assert status == 400
        assert "budget" in body["error"]

    def test_unknown_route_is_json_404(self, client):
        status, body = client("GET", "/nope")
        assert status == 404
        assert "error" in body

    def test_non_object_body_rejected(self, client):
        status, body = client("POST", "/select", raw=b"[1, 2]")
        assert status == 400
        assert "error" in body

    def test_negative_content_length_is_json_400(self, service):
        app = make_wsgi_app(service)
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/select",
            "QUERY_STRING": "",
            "CONTENT_LENGTH": "-1",
            "wsgi.input": io.BytesIO(b'{"configuration": "two"}'),
        }
        captured = {}

        def start_response(status, headers):
            captured["status"] = int(status.split()[0])

        body = json.loads(b"".join(app(environ, start_response)))
        assert captured["status"] == 400
        assert "Content-Length" in body["error"]
        # The body was never read: read(-1) would have consumed it.
        assert environ["wsgi.input"].tell() == 0

    def test_unexpected_failure_is_json_500(self, service):
        app = make_wsgi_app(service)

        def boom(*args, **kwargs):
            raise RuntimeError("wired to fail")

        service.group_listing = boom
        environ = {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": "/groups",
            "QUERY_STRING": "configuration=two",
            "CONTENT_LENGTH": "0",
            "wsgi.input": io.BytesIO(b""),
        }
        captured = {}

        def start_response(status, headers):
            captured["status"] = int(status.split()[0])
            captured["headers"] = dict(headers)

        body = json.loads(b"".join(app(environ, start_response)))
        assert captured["status"] == 500
        assert captured["headers"]["Content-Type"] == "application/json"
        assert "internal server error" in body["error"]
        assert "wired to fail" not in body["error"]  # no detail leak
        assert service.metrics.snapshot()["error_count"] == 1


class TestCaching:
    def test_repeat_select_hits_cache(self, service, client):
        client("POST", "/select", {"configuration": "two"})
        misses_after_first = service.metrics.cache_misses
        assert misses_after_first == 1
        client("POST", "/select", {"configuration": "two"})
        client("POST", "/select", {"configuration": "two"})
        _, body = client("GET", "/metrics")
        assert body["cache"]["instance_misses"] == misses_after_first
        assert body["cache"]["instance_hits"] == 2
        # Zero rebuilds → no further "instance"/"grouping" stage samples.
        assert body["stages"]["instance"]["count"] == 1
        assert body["stages"]["grouping"]["count"] == 1

    def test_budget_override_caches_separately(self, service, client):
        client("POST", "/select", {"configuration": "two"})
        client(
            "POST", "/select", {"configuration": "two", "budget": 1}
        )
        assert service.metrics.cache_misses == 2
        client(
            "POST", "/select", {"configuration": "two", "budget": 1}
        )
        assert service.metrics.cache_hits == 1

    def test_profile_reload_invalidates(self, service, client):
        client("POST", "/select", {"configuration": "two"})
        document = profiles_to_dict(example_repository())
        client("POST", "/profiles", document)
        client("POST", "/select", {"configuration": "two"})
        assert service.metrics.cache_misses == 2

    def test_configuration_put_invalidates_only_that_name(
        self, service, client
    ):
        client("POST", "/select", {"configuration": "two"})
        client("POST", "/select", {"configuration": "default"})
        assert service.metrics.cache_misses == 2
        client(
            "POST", "/configurations", {"name": "two", "budget": 3}
        )
        assert "default" in service.stats()["cached_configurations"]
        assert "two" not in service.stats()["cached_configurations"]
        client("POST", "/select", {"configuration": "default"})
        assert service.metrics.cache_hits == 1


class TestProfileDelta:
    def test_delta_applies_and_refreshes(self, service, client):
        client("POST", "/select", {"configuration": "two"})
        status, body = client(
            "POST",
            "/profiles/delta",
            {
                "upserts": {
                    "Zoe": {
                        "avgRating Mexican": 0.99,
                        "visitFreq Mexican": 0.9,
                    }
                },
            },
        )
        assert status == 200
        assert body["users"] == 6
        assert body["upserts"] == 1
        assert body["refreshed_configurations"] == ["two"]
        status, health = client("GET", "/health")
        assert health["users"] == 6

    def test_delta_refresh_counts_as_rebuild_not_miss(
        self, service, client
    ):
        client("POST", "/select", {"configuration": "two"})
        client(
            "POST",
            "/profiles/delta",
            {"upserts": {"Zoe": {"avgRating Mexican": 0.99}}},
        )
        # The refreshed instance is served from cache afterwards.
        client("POST", "/select", {"configuration": "two"})
        assert service.metrics.cache_misses == 1
        assert service.metrics.cache_hits == 1

    def test_delta_removal(self, service, client):
        status, body = client(
            "POST", "/profiles/delta", {"removals": ["Bob"]}
        )
        assert status == 200
        assert body["users"] == 4

    def test_delta_unknown_removal_is_json_400(self, client):
        status, body = client(
            "POST", "/profiles/delta", {"removals": ["Nobody"]}
        )
        assert status == 400
        assert "error" in body

    def test_delta_malformed_upserts_is_json_400(self, client):
        status, body = client(
            "POST", "/profiles/delta", {"upserts": ["Alice"]}
        )
        assert status == 400
        assert "upserts" in body["error"]

    def test_delta_selection_reflects_new_user(self, service, client):
        client(
            "POST",
            "/profiles/delta",
            {
                "upserts": {
                    "Zoe": {
                        "avgRating Mexican": 0.99,
                        "visitFreq Mexican": 0.9,
                        "avgRating CheapEats": 0.9,
                        "visitFreq CheapEats": 0.9,
                        "livesIn Tokyo": 1.0,
                        "ageGroup 50-64": 1.0,
                    }
                }
            },
        )
        status, body = client(
            "POST", "/select", {"configuration": "two", "budget": 6}
        )
        assert status == 200
        assert "Zoe" in body["selected"]


class TestThreadedServer:
    def test_concurrent_selects_smoke(self, service):
        httpd = make_http_server(service, "127.0.0.1", 0)
        port = httpd.server_address[1]
        thread = threading.Thread(
            target=httpd.serve_forever, daemon=True
        )
        thread.start()
        try:
            results = []
            errors = []

            def hit():
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/select",
                    data=json.dumps(
                        {"configuration": "two", "explain": False}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                try:
                    with urllib.request.urlopen(
                        request, timeout=10
                    ) as response:
                        results.append(json.load(response))
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            workers = [
                threading.Thread(target=hit) for _ in range(8)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not errors
            assert len(results) == 8
            assert all(
                set(r["selected"]) == {"Alice", "Eve"} for r in results
            )
            # One build, seven cache hits.
            assert service.metrics.cache_misses == 1
            assert service.metrics.cache_hits == 7
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)

    def test_negative_content_length_answers_without_eof(self, service):
        httpd = make_http_server(service, "127.0.0.1", 0)
        port = httpd.server_address[1]
        thread = threading.Thread(
            target=httpd.serve_forever, daemon=True
        )
        thread.start()
        try:
            for path in ("/select", "/profiles/delta"):
                status, body = post_declaring_length(port, path, -1)
                assert status == 400, path
                assert "Content-Length" in body["error"]
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)

    def test_error_body_is_json_over_http(self, service):
        httpd = make_http_server(service, "127.0.0.1", 0)
        port = httpd.server_address[1]
        thread = threading.Thread(
            target=httpd.serve_forever, daemon=True
        )
        thread.start()
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/select",
                data=b"{broken",
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
            assert excinfo.value.headers.get("Content-Type") == (
                "application/json"
            )
            assert "error" in json.load(excinfo.value)
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)


class TestDurableStore:
    """Admin routes, durable delta acks and restart-identical selection."""

    @pytest.fixture()
    def durable(self, tmp_path):
        from repro.storage import DurableRepositoryStore

        store = DurableRepositoryStore(tmp_path / "data", fsync=False)
        svc = PodiumService(store=store)
        svc.configurations.put(
            DiversificationConfiguration(name="two", budget=2)
        )
        svc.load_repository(example_repository())
        yield svc, store
        store.close()

    def test_delta_ack_is_durable(self, durable):
        svc, store = durable
        call = make_client(svc)
        status, body = call(
            "POST",
            "/profiles/delta",
            {"upserts": {"Zoe": {"avgRating Mexican": 0.99}}},
        )
        assert status == 200
        assert body["durable"] is True
        assert body["wal_seq"] == 1
        assert store.last_seq == 1
        status, metrics = call("GET", "/metrics")
        assert metrics["ingest"]["deltas"] == 1
        assert metrics["storage"]["wal_seq"] == 1
        assert metrics["storage"]["n_users"] == 6

    def test_upsert_removal_clash_is_json_400(self, durable):
        svc, store = durable
        call = make_client(svc)
        status, body = call(
            "POST",
            "/profiles/delta",
            {
                "upserts": {"Bob": {"avgRating Mexican": 0.5}},
                "removals": ["Bob"],
            },
        )
        assert status == 400
        assert "error" in body
        assert store.last_seq == 0  # rejected before the WAL write

    def test_admin_snapshot_and_compact(self, durable):
        svc, store = durable
        call = make_client(svc)
        call(
            "POST",
            "/profiles/delta",
            {"upserts": {"Zoe": {"avgRating Mexican": 0.99}}},
        )
        status, body = call("POST", "/admin/snapshot")
        assert status == 200
        assert body["wal_records_pending"] == 0
        assert body["snapshot_path"]
        status, body = call("POST", "/admin/compact")
        assert status == 200
        assert body["wal_bytes"] == 0
        assert body["wal_seq"] == 1  # numbering survives

    def test_admin_routes_without_store_are_json_400(self, client):
        for path in ("/admin/snapshot", "/admin/compact"):
            status, body = client("POST", path)
            assert status == 400
            assert "data directory" in body["error"]

    def test_maintained_select(self, durable):
        svc, _ = durable
        call = make_client(svc)
        status, exact = call("POST", "/select", {"configuration": "two"})
        assert status == 200
        status, body = call(
            "POST", "/select", {"configuration": "two", "maintained": True}
        )
        assert status == 200
        assert body["maintained"] is True
        assert body["maintainer"]["resolves"] == 1
        assert body["selected"] == exact["selected"]

    def test_maintained_select_rejects_feedback(self, durable):
        svc, _ = durable
        call = make_client(svc)
        status, body = call(
            "POST",
            "/select",
            {
                "configuration": "two",
                "maintained": True,
                "feedback": {"must_have": [["avgRating Mexican", "high"]]},
            },
        )
        assert status == 400
        assert "error" in body

    def test_restart_identical_selection(self, tmp_path):
        from repro.storage import DurableRepositoryStore

        data_dir = tmp_path / "data"

        def boot(store):
            svc = PodiumService(store=store)
            svc.configurations.put(
                DiversificationConfiguration(name="two", budget=2)
            )
            return svc

        store = DurableRepositoryStore(data_dir, fsync=False)
        svc = boot(store)
        svc.load_repository(example_repository())
        call = make_client(svc)
        # Warm the artifact cache so the snapshot captures the frozen
        # group set for "two".
        call("POST", "/select", {"configuration": "two"})
        call("POST", "/admin/snapshot")
        # Post-snapshot churn: the restart must replay this from the WAL.
        call(
            "POST",
            "/profiles/delta",
            {"upserts": {"Zoe": {"avgRating Mexican": 0.99}}},
        )
        _, want = call("POST", "/select", {"configuration": "two"})
        store.close()

        reopened = DurableRepositoryStore(data_dir, fsync=False)
        restarted = boot(reopened)
        assert restarted.restore_artifacts() == ["two"]
        _, got = make_client(restarted)(
            "POST", "/select", {"configuration": "two"}
        )
        assert got["selected"] == want["selected"]
        assert got["score"] == want["score"]
        reopened.close()

    @pytest.mark.parametrize("mmap_indexes", (True, False))
    def test_restore_records_artifact_open_stage(
        self, tmp_path, mmap_indexes
    ):
        """Boot-time checkpoint adoption shows up in /metrics: mapped
        opens as ``artifact_open``, heap loads as ``artifact_open_eager``,
        and the storage section counts the mapped indexes."""
        from repro.storage import DurableRepositoryStore

        data_dir = tmp_path / "data"

        def boot(store):
            svc = PodiumService(store=store)
            svc.configurations.put(
                DiversificationConfiguration(name="two", budget=2)
            )
            return svc

        store = DurableRepositoryStore(data_dir, fsync=False)
        svc = boot(store)
        svc.load_repository(example_repository())
        call = make_client(svc)
        call("POST", "/select", {"configuration": "two"})
        call("POST", "/admin/snapshot")
        store.close()

        reopened = DurableRepositoryStore(
            data_dir, fsync=False, mmap_indexes=mmap_indexes
        )
        restarted = boot(reopened)
        assert restarted.restore_artifacts() == ["two"]
        status, body = make_client(restarted)("GET", "/metrics")
        assert status == 200
        expected_stage = (
            "artifact_open" if mmap_indexes else "artifact_open_eager"
        )
        assert body["stages"][expected_stage]["count"] == 1
        assert body["storage"]["mmap_indexes"] is mmap_indexes
        assert body["storage"]["mapped_artifact_indexes"] == (
            1 if mmap_indexes else 0
        )
        reopened.close()

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
from repro.service.app import ROUTES, WRITE_ROUTES

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


def _count_index_builds(monkeypatch):
    """Count ``InstanceIndex.build`` calls from now on; returns a reader."""
    from repro.core.index import InstanceIndex

    calls = []
    build = InstanceIndex.build.__func__

    def counted(cls, instance):
        calls.append(instance)
        return build(cls, instance)

    monkeypatch.setattr(InstanceIndex, "build", classmethod(counted))
    return lambda: len(calls)


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

    def test_bad_requests_to_unknown_paths_share_one_route_key(
        self, service
    ):
        app = make_wsgi_app(service)
        for i in range(5):
            environ = {
                "REQUEST_METHOD": "GET",
                "PATH_INFO": f"/random-{i}",
                "QUERY_STRING": "",
                "CONTENT_LENGTH": "-1",
                "wsgi.input": io.BytesIO(b""),
            }
            statuses = []
            app(environ, lambda status, headers: statuses.append(status))
            assert statuses == ["400 Bad Request"]
        requests = service.metrics.snapshot()["requests"]
        assert list(requests) == ["<unmatched>"]
        assert requests["<unmatched>"]["count"] == 5
        assert WRITE_ROUTES <= ROUTES.keys()

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
        # Prop coverage reads the budget: one instance per budget.
        service.configurations.put(
            DiversificationConfiguration(
                name="prop", coverage_scheme="Prop", budget=2
            )
        )
        client("POST", "/select", {"configuration": "prop"})
        client(
            "POST", "/select", {"configuration": "prop", "budget": 1}
        )
        assert service.metrics.cache_misses == 2
        client(
            "POST", "/select", {"configuration": "prop", "budget": 1}
        )
        assert service.metrics.cache_hits == 1

    def test_budget_independent_budgets_share_one_instance(
        self, service, client
    ):
        # LBS × Single never reads the budget: every budget is one
        # instance and a prefix of one greedy trajectory.
        client("POST", "/select", {"configuration": "two"})
        for budget in (1, 3, 2):
            status, _ = client(
                "POST", "/select", {"configuration": "two", "budget": budget}
            )
            assert status == 200
        _, body = client("GET", "/metrics")
        assert body["cache"] == {"instance_hits": 3, "instance_misses": 1}
        assert body["trajectory"] == {"builds": 1, "hits": 4}

    def test_trajectory_rebuilt_once_per_delta(
        self, service, client, monkeypatch
    ):
        # Builds run through the module-level name tracing wraps.
        from repro.service import app as app_module

        runs = []
        real = app_module.select_from_index
        monkeypatch.setattr(
            app_module,
            "select_from_index",
            lambda *args, **kwargs: runs.append(1) or real(*args, **kwargs),
        )
        service.warm_artifacts()
        for budget in (2, 1, 4):
            client(
                "POST", "/select", {"configuration": "two", "budget": budget}
            )
        _, body = client("GET", "/metrics")
        assert body["trajectory"]["builds"] == 1
        client("POST", "/profiles/delta", {"removals": ["Alice"]})
        for budget in (2, 1, 4):
            client(
                "POST", "/select", {"configuration": "two", "budget": budget}
            )
        _, body = client("GET", "/metrics")
        assert body["trajectory"] == {"builds": 2, "hits": 6}
        assert len(runs) == 2

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
        # Regrouped at the record: the entry is new and holds no instance.
        assert "two" in service.stats()["cached_configurations"]
        client("POST", "/select", {"configuration": "default"})
        assert service.metrics.cache_hits == 1
        client("POST", "/select", {"configuration": "two"})
        assert service.metrics.cache_misses == 3


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

    def test_first_select_after_delta_is_one_miss(
        self, service, client, monkeypatch
    ):
        client("POST", "/select", {"configuration": "two"})
        client(
            "POST",
            "/profiles/delta",
            {"upserts": {"Zoe": {"avgRating Mexican": 0.99}}},
        )
        # The delta re-assigned groups only; the first read rebuilds
        # one instance (one miss, one encode), the next read hits.
        encodes = _count_index_builds(monkeypatch)
        client("POST", "/select", {"configuration": "two"})
        assert (service.metrics.cache_misses, encodes()) == (2, 1)
        client("POST", "/select", {"configuration": "two"})
        assert service.metrics.cache_misses == 2
        assert service.metrics.cache_hits == 1
        assert encodes() == 1

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
        # load_repository grouped every registered configuration, so
        # "default" carries frozen groups too.
        assert restarted.restore_artifacts() == ["default", "two"]
        _, got = make_client(restarted)(
            "POST", "/select", {"configuration": "two"}
        )
        assert got["selected"] == want["selected"]
        assert got["score"] == want["score"]
        reopened.close()

    def test_restore_records_artifact_open_stage(self, tmp_path):
        """Boot-time checkpoint adoption shows up in /metrics: the
        mapped open as ``artifact_open``, and the storage section counts
        the mapped index."""
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

        reopened = DurableRepositoryStore(data_dir, fsync=False)
        restarted = boot(reopened)
        assert restarted.restore_artifacts() == ["default", "two"]
        status, body = make_client(restarted)("GET", "/metrics")
        assert status == 200
        # The snapshot built every cached configuration's index, so both
        # are adopted from the checkpoint.
        assert body["stages"]["artifact_open"]["count"] == 2
        assert "artifact_open_eager" not in body["stages"]
        assert body["storage"]["mapped_artifact_indexes"] == 2
        reopened.close()


class TestArtifactLifetime:
    """Everything derived from a configuration lives and dies with its
    cache entry; a delta refreshes frozen groups only."""

    ZOE = {"upserts": {"Zoe": {"avgRating Mexican": 0.99}}}

    def _durable_service(self, data_dir):
        from repro.storage import DurableRepositoryStore

        store = DurableRepositoryStore(data_dir, fsync=False)
        svc = PodiumService(store=store)
        svc.configurations.put(
            DiversificationConfiguration(name="two", budget=2)
        )
        return svc, store

    def test_delta_encodes_nothing_without_maintainer(
        self, tmp_path, monkeypatch
    ):
        svc, store = self._durable_service(tmp_path / "data")
        svc.load_repository(example_repository())
        call = make_client(svc)
        call("POST", "/select", {"configuration": "two"})
        call("POST", "/select", {"configuration": "default"})
        encodes = _count_index_builds(monkeypatch)
        status, body = call("POST", "/profiles/delta", self.ZOE)
        assert status == 200
        assert body["refreshed_configurations"] == ["default", "two"]
        assert encodes() == 0
        store.close()

    def test_delta_encodes_once_per_maintained_budget(
        self, service, client, monkeypatch
    ):
        client("POST", "/select", {"configuration": "default"})
        client("POST", "/select", {"configuration": "two", "maintained": True})
        encodes = _count_index_builds(monkeypatch)
        client("POST", "/profiles/delta", self.ZOE)
        assert encodes() == 1
        _, body = client(
            "POST", "/select", {"configuration": "two", "maintained": True}
        )
        assert "Zoe" in service.repository
        assert body["maintainer"]["touched_since_solve"] == 1
        assert encodes() == 1  # the maintained read reuses that build

    def test_reput_configuration_drops_its_maintainer(self):
        from repro.datasets.synth import generate_profile_repository

        repository = generate_profile_repository(
            n_users=400, n_properties=40, mean_profile_size=6.0, seed=1
        )
        lbs = DiversificationConfiguration(name="c", weight_scheme="LBS")
        iden = DiversificationConfiguration(
            name="c", weight_scheme="Iden", property_prefixes=("prop0000",)
        )
        svc = PodiumService(repository)
        svc.put_configuration(lbs)
        svc.select("c", maintained=True, explain=False)
        svc.put_configuration(iden)
        got = svc.select("c", maintained=True, explain=False)
        fresh = PodiumService(repository)
        fresh.put_configuration(iden)
        want = fresh.select("c", maintained=True, explain=False)
        assert got["selected"] == want["selected"]
        assert got["score"] == want["score"]

    def test_compact_before_any_read_keeps_every_index(self, tmp_path):
        from repro.core.persistence import index_source_path
        from repro.storage import DurableRepositoryStore

        data_dir = tmp_path / "data"
        svc, store = self._durable_service(data_dir)
        svc.load_repository(example_repository())
        call = make_client(svc)
        call("POST", "/profiles/delta", self.ZOE)
        call("POST", "/profiles/delta", {"removals": ["Bob"]})
        status, _ = call("POST", "/admin/compact")
        assert status == 200
        _, want = call("POST", "/select", {"configuration": "two"})
        store.close()

        reopened = DurableRepositoryStore(data_dir, fsync=False)
        assert sorted(reopened.artifacts) == ["default", "two"]
        for artifact in reopened.artifacts.values():
            assert index_source_path(artifact.index) is not None
        restarted = PodiumService(store=reopened)
        restarted.configurations.put(
            DiversificationConfiguration(name="two", budget=2)
        )
        assert restarted.restore_artifacts() == ["default", "two"]
        _, got = make_client(restarted)(
            "POST", "/select", {"configuration": "two"}
        )
        assert (got["selected"], got["score"]) == (
            want["selected"],
            want["score"],
        )
        reopened.close()

    def test_concurrent_cold_maintained_selects_build_once(
        self, service, monkeypatch
    ):
        """Many threads race cold maintained selects (a maintainer build
        that nests an instance build under the re-entrant build lock):
        the budgets share LBS × Single's one index, encoded once, and
        every thread is served its budget's one maintainer."""
        import sys

        budgets = (1, 2, 3)
        encodes = _count_index_builds(monkeypatch)
        answers = {budget: [] for budget in budgets}
        errors = []
        barrier = threading.Barrier(9)

        def worker(budget):
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    body = service.select(
                        "two", budget=budget, maintained=True, explain=False
                    )
                    answers[budget].append(tuple(body["selected"]))
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(budgets[i % 3],))
            for i in range(9)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert encodes() == 1
        for budget in budgets:
            assert len(answers[budget]) == 15
            assert len(set(answers[budget])) == 1

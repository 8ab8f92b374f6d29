"""Route-level coverage of the constrained-selection API surface.

``POST /select`` grows a ``constraints`` block (floors/ceilings or a
cluster budget).  These tests exercise the JSON boundary (validation
errors become 400s with actionable messages), the satisfaction report
attached to successful responses, the mutual-exclusion guards against
``feedback``/``maintained``, the per-spec partition cache and the
constraint counters on ``GET /metrics``.
"""

import pytest

from repro.datasets import example_repository
from repro.service import (
    DiversificationConfiguration,
    PodiumService,
    parse_constraints,
)

from .test_routes import make_client


@pytest.fixture()
def service():
    svc = PodiumService(example_repository())
    svc.configurations.put(
        DiversificationConfiguration(name="two", budget=2)
    )
    return svc


@pytest.fixture()
def client(service):
    return make_client(service)


class TestParseBoundary:
    def test_absent_and_empty_blocks_mean_unconstrained(self):
        assert parse_constraints(None) is None
        assert parse_constraints({}) is None
        assert parse_constraints({"floors": []}) is None

    def test_parse_builds_spec(self):
        spec = parse_constraints(
            {"floors": [["livesIn Tokyo", "true", 1]]}
        )
        assert spec is not None
        assert spec.mode == "fair"


class TestFairRoute:
    def test_floors_and_ceilings_report(self, client):
        status, body = client(
            "POST",
            "/select",
            {
                "configuration": "two",
                "budget": 3,
                "constraints": {
                    "floors": [["livesIn Tokyo", "true", 1]],
                    "ceilings": [["avgRating Mexican", "high", 0]],
                },
            },
        )
        assert status == 200
        report = body["constraints"]
        assert report["mode"] == "fair"
        assert report["satisfied"] is True
        (floor,) = report["floors"]
        assert floor["property"] == "livesIn Tokyo"
        assert floor["achieved"] >= floor["bound"] == 1
        (ceiling,) = report["ceilings"]
        assert ceiling["achieved"] == 0
        # The zero-ceiling group has one member (Alice) who must be out.
        assert "Alice" not in body["selected"]
        assert len(body["selected"]) == 3
        assert "explanation" in body

    def test_floor_changes_selection(self, client):
        _, plain = client(
            "POST", "/select", {"configuration": "two"}
        )
        status, body = client(
            "POST",
            "/select",
            {
                "configuration": "two",
                "constraints": {
                    "ceilings": [["avgRating CheapEats", "medium", 0]]
                },
            },
        )
        assert status == 200
        # Both plain picks rate CheapEats medium; capping that bucket
        # at zero forces a different pair.
        assert set(body["selected"]) != set(plain["selected"])
        assert body["constraints"]["satisfied"] is True


class TestClusteredRoute:
    CLUSTERS = {"method": "stratified", "k": 2, "seed": 0}

    def test_cluster_report(self, client):
        status, body = client(
            "POST",
            "/select",
            {
                "configuration": "two",
                "budget": 3,
                "constraints": {"clusters": self.CLUSTERS},
            },
        )
        assert status == 200
        report = body["constraints"]
        assert report["mode"] == "clustered"
        assert report["satisfied"] is True
        seats = sum(c["seats"] for c in report["clusters"])
        picked = [
            u for c in report["clusters"] for u in c["selected"]
        ] + report["repair"]
        assert seats <= 3
        assert sorted(picked) == sorted(body["selected"])

    def test_partition_cached_per_spec(self, service):
        call = make_client(service)
        request = {
            "configuration": "two",
            "budget": 3,
            "constraints": {"clusters": self.CLUSTERS},
        }
        call("POST", "/select", request)
        call("POST", "/select", request)
        _, metrics = call("GET", "/metrics")
        assert metrics["stages"]["partition"]["count"] == 1
        # A different cluster spec builds its own partition.
        other = dict(request)
        other["constraints"] = {
            "clusters": {"method": "stratified", "k": 3, "seed": 0}
        }
        call("POST", "/select", other)
        _, metrics = call("GET", "/metrics")
        assert metrics["stages"]["partition"]["count"] == 2


class TestRejections:
    def test_malformed_constraints_is_json_400(self, client):
        status, body = client(
            "POST",
            "/select",
            {
                "configuration": "two",
                "constraints": {
                    "floors": [["livesIn Tokyo", "true", -1]]
                },
            },
        )
        assert status == 400
        assert "floor" in body["error"]

    def test_unknown_constraint_field_is_json_400(self, client):
        status, body = client(
            "POST",
            "/select",
            {"configuration": "two", "constraints": {"quotas": []}},
        )
        assert status == 400
        assert "error" in body

    def test_unknown_group_is_json_400(self, client):
        status, body = client(
            "POST",
            "/select",
            {
                "configuration": "two",
                "constraints": {
                    "floors": [["shoeSize", "47", 1]]
                },
            },
        )
        assert status == 400
        assert "unknown groups" in body["error"]

    def test_infeasible_floor_is_json_400_and_counted(
        self, service, client
    ):
        status, body = client(
            "POST",
            "/select",
            {
                "configuration": "two",
                "constraints": {
                    "floors": [["livesIn Tokyo", "true", 3]]
                },
            },
        )
        assert status == 400
        assert "livesIn Tokyo" in body["error"]
        snapshot = service.metrics.snapshot()["constraints"]
        assert snapshot["infeasible"] == 1

    def test_constraints_with_feedback_is_json_400(self, client):
        status, body = client(
            "POST",
            "/select",
            {
                "configuration": "two",
                "constraints": {
                    "floors": [["livesIn Tokyo", "true", 1]]
                },
                "feedback": {
                    "must_have": [["avgRating Mexican", "high"]]
                },
            },
        )
        assert status == 400
        assert "feedback" in body["error"]

    def test_constraints_with_maintained_is_json_400(self, client):
        status, body = client(
            "POST",
            "/select",
            {
                "configuration": "two",
                "maintained": True,
                "constraints": {
                    "floors": [["livesIn Tokyo", "true", 1]]
                },
            },
        )
        assert status == 400
        assert "maintained" in body["error"]

    def test_users_in_no_group_are_counted_in_the_400(self, service, client):
        # Only Alice and David live in Tokyo: three users are in no group.
        service.configurations.put(
            DiversificationConfiguration(
                name="tokyo", property_prefixes=("livesIn Tokyo",), budget=2
            )
        )
        status, body = client(
            "POST",
            "/select",
            {
                "configuration": "tokyo",
                "constraints": {"ceilings": [["livesIn Tokyo", "true", 1]]},
            },
        )
        assert status == 400
        assert "3 user(s) are in no group" in body["error"]
        assert "weights" not in body["error"]
        feedback = {"priority": [["livesIn Tokyo", "true"]]}
        for extra in ({}, {"feedback": feedback}):
            status, _ = client(
                "POST", "/select", {"configuration": "tokyo", **extra}
            )
            assert status == 200

    def test_weights_past_int64_name_the_weights(self, service, client):
        service.configurations.put(
            DiversificationConfiguration(
                name="ebs", weight_scheme="EBS", budget=20
            )
        )
        status, body = client(
            "POST",
            "/select",
            {
                "configuration": "ebs",
                "constraints": {"ceilings": [["livesIn Tokyo", "true", 1]]},
            },
        )
        assert status == 400
        assert "weights do not fit the sparse index (int64)" in body["error"]
        assert "no group" not in body["error"]


class TestMetricsCounters:
    def test_mode_and_verdict_counters(self, service):
        call = make_client(service)
        call(
            "POST",
            "/select",
            {
                "configuration": "two",
                "budget": 3,
                "constraints": {
                    "floors": [["livesIn Tokyo", "true", 1]]
                },
            },
        )
        call(
            "POST",
            "/select",
            {
                "configuration": "two",
                "budget": 3,
                "constraints": {
                    "clusters": {
                        "method": "stratified",
                        "k": 2,
                        "seed": 0,
                    }
                },
            },
        )
        call(
            "POST",
            "/select",
            {
                "configuration": "two",
                "constraints": {
                    "floors": [["livesIn Tokyo", "true", 3]]
                },
            },
        )
        _, metrics = call("GET", "/metrics")
        counters = metrics["constraints"]
        assert counters["fair"] == 2
        assert counters["clustered"] == 1
        assert counters["satisfied"] == 2
        assert counters["infeasible"] == 1
        assert counters["violated"] == 0

"""End-to-end integration: the full Fig. 1 pipeline through every layer.

generate → derive (enrichment) → group (offline module) → build instance
→ select (greedy + customized) → explain → persist/restore → serve over
WSGI — one flow touching every subpackage, with cross-layer consistency
checks at each hand-off.
"""

import io
import json

import pytest

from repro.core import (
    CustomizationFeedback,
    GroupingConfig,
    build_instance,
    build_simple_groups,
    custom_select,
    explain_selection,
    greedy_select,
    subset_score,
)
from repro.datasets import (
    build_repository,
    generate,
    load_profiles,
    save_profiles,
    tripadvisor_config,
    tripadvisor_derive_config,
)
from repro.service import PodiumService, make_wsgi_app


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    dataset = generate(tripadvisor_config(n_users=120), seed=404)
    repository = build_repository(dataset, tripadvisor_derive_config())

    profiles_path = tmp / "profiles.json"
    save_profiles(repository, profiles_path)
    restored_repo = load_profiles(profiles_path)

    groups = build_simple_groups(restored_repo, GroupingConfig(min_support=2))
    instance = build_instance(restored_repo, budget=6, groups=groups)
    return dataset, restored_repo, groups, instance


class TestPipeline:
    def test_profiles_survive_disk_roundtrip(self, pipeline):
        _, repo, _, _ = pipeline
        assert len(repo) == 120
        assert repo.mean_profile_size() > 5

    def test_selection_and_explanations_consistent(self, pipeline):
        _, repo, groups, instance = pipeline
        result = greedy_select(repo, instance)
        assert len(result.selected) == 6

        explanation = explain_selection(result)
        # Every user explanation lists exactly the user's groups.
        for ue in explanation.user_explanations:
            assert {g.key for g in ue.groups} == groups.groups_of(ue.user_id)
        # Subset-group actual counts match set arithmetic.
        selected = set(result.selected)
        for sge in explanation.subset_group_explanations[:50]:
            assert sge.actual == len(
                groups.group(sge.key).members & selected
            )

    def test_customized_selection_respects_filters(self, pipeline):
        _, repo, groups, instance = pipeline
        # Must-have: the largest group; must-not: the second largest
        # that is disjoint from it (if any overlap, pick another).
        ordered = groups.top_k(10)
        must_have = ordered[0]
        must_not = next(
            (g for g in ordered[1:] if not (g.members & must_have.members)),
            None,
        )
        feedback = CustomizationFeedback(
            must_have=frozenset({must_have.key}),
            must_not=frozenset({must_not.key}) if must_not else frozenset(),
        )
        custom = custom_select(repo, instance, feedback)
        for user in custom.selected:
            assert user in must_have.members
            if must_not:
                assert user not in must_not.members

    def test_service_agrees_with_library(self, pipeline, tmp_path):
        _, repo, _, instance = pipeline
        service = PodiumService(repo)
        app = make_wsgi_app(service)

        raw = json.dumps({"configuration": "default", "budget": 6,
                          "explain": False}).encode()
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/select",
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(len(raw)),
            "wsgi.input": io.BytesIO(raw),
        }
        status = {}
        body = b"".join(
            app(environ, lambda s, h: status.update(code=s))
        )
        assert status["code"].startswith("200")
        response = json.loads(body)
        assert len(response["selected"]) == 6
        # The HTTP selection scores identically when replayed locally on
        # the service's own instance (grouping configs match).
        service_instance = service.instance_for("default", budget=6)
        assert response["score"] == pytest.approx(
            float(subset_score(service_instance, response["selected"]))
        )

    def test_opinion_metrics_runnable_on_pipeline_output(self, pipeline):
        dataset, repo, _, instance = pipeline
        from repro.metrics import evaluate_opinions

        result = greedy_select(repo, instance)
        destinations = dataset.destinations(5)[:3]
        report = evaluate_opinions(
            dataset, {d: list(result.selected) for d in destinations}
        )
        assert report.destinations == len(destinations)
        assert 0.0 <= report.topic_sentiment_coverage <= 1.0

"""A customized ``/select`` stays on the cached index unless it explains.

A feedback select without an explanation runs from the base index's
arrays alone: no rescaled dict instance (``customized_instance``), no
restricted dict instance (``restricted_to_groups``) and no derived CSR
(``InstanceIndex.from_csr``) is built per request.  An explained one
builds the rescaled instance exactly once, and its explanation equals
the one the eager reference path gives.
"""

import io
import json
from unittest import mock

import pytest

from repro.core import customization
from repro.core.explanations import explain_selection
from repro.core.index import InstanceIndex
from repro.core.instance import DiversificationInstance
from repro.datasets.synth import generate_profile_repository
from repro.service import (
    DiversificationConfiguration,
    PodiumService,
    make_wsgi_app,
)
from repro.service import app as app_module
from repro.service.viz import explanation_payload


@pytest.fixture(scope="module")
def served():
    repo = generate_profile_repository(
        n_users=80, n_properties=8, mean_profile_size=4.0, seed=3
    )
    service = PodiumService(repo)
    service.configurations.put(
        DiversificationConfiguration(name="c", weight_scheme="LBS")
    )
    service.warm_artifacts()
    app = make_wsgi_app(service)

    def call(document):
        raw = json.dumps(document).encode()
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/select",
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(len(raw)),
            "wsgi.input": io.BytesIO(raw),
        }
        status = []
        chunks = app(environ, lambda line, headers: status.append(line))
        return int(status[0].split()[0]), json.loads(b"".join(chunks))

    listing = service.group_listing("c")
    keys = [(g["property"], g["bucket"]) for g in listing]
    request = {
        "configuration": "c",
        "budget": 5,
        "feedback": {
            "priority": [list(keys[0])],
            "must_not": [list(keys[-1])],
        },
        "distribution_properties": [keys[0][0]],
    }
    assert call(request)[0] == 200  # warm the instance and its index
    return call, request


def _counting():
    return (
        mock.patch.object(
            customization,
            "customized_instance",
            wraps=customization.customized_instance,
        ),
        mock.patch.object(
            InstanceIndex, "from_csr", wraps=InstanceIndex.from_csr
        ),
        mock.patch.object(
            DiversificationInstance,
            "restricted_to_groups",
            autospec=True,
            side_effect=DiversificationInstance.restricted_to_groups,
        ),
    )


def test_unexplained_feedback_select_builds_nothing_per_request(served):
    call, request = served
    rescale, derive, restrict = _counting()
    with rescale as rescaled, derive as derived, restrict as restricted:
        status, body = call({**request, "explain": False})
    assert status == 200 and body["selected"]
    assert rescaled.call_count == 0
    assert derived.call_count == 0
    assert restricted.call_count == 0


def test_explained_feedback_select_rescales_once(served):
    call, request = served
    rescale, _, _ = _counting()
    spy = mock.patch.object(
        app_module, "custom_select", wraps=app_module.custom_select
    )
    with rescale as rescaled, spy as custom:
        status, body = call({**request, "explain": True})
        assert status == 200
        assert rescaled.call_count == 1
    repository, instance, feedback, budget = custom.call_args.args
    reference = customization.custom_select(
        repository, instance, feedback, budget, method="eager"
    )
    assert body["selected"] == list(reference.selected)
    expected = explanation_payload(
        explain_selection(
            reference.result,
            distribution_properties=tuple(request["distribution_properties"]),
        )
    )
    assert body["explanation"] == json.loads(json.dumps(expected))

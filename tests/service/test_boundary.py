"""One request boundary: a pool worker answers as a single process does.

Two twins are built from the same repository, each with its own durable
store: a single-process service behind :func:`make_wsgi_app`, and an
in-process pool — a :class:`WriteCoordinator` over the writer's service
plus a worker clone behind :func:`make_worker_app`.  One request
sequence goes to both, and every request must get the same status line
and the same JSON body: reads the worker answers itself after a sync,
writes and log reads it forwards, and every error path — malformed
bodies (a non-UTF-8 one included), ``/select`` fields of the wrong JSON
type, a negative ``Content-Length``, an unknown route, a rejected delta
and an unexpected failure inside the writer.
"""

import contextlib
import io
import json
from unittest import mock

import pytest

from repro.datasets.synth import generate_profile_repository
from repro.service import (
    DiversificationConfiguration,
    PodiumService,
    make_wsgi_app,
)
from repro.service.workers import (
    SharedPoolState,
    WorkerRuntime,
    WriteCoordinator,
    make_worker_app,
)
from repro.storage import DurableRepositoryStore

CONFIG = DiversificationConfiguration(name="c", weight_scheme="Iden")
LATE = {"name": "late", "weight_scheme": "Iden", "buckets_per_property": 2}


def _json(document):
    return json.dumps(document, ensure_ascii=False).encode()


#: ``(id, status, method, path, query, body)``; an ``int`` body is a
#: declared ``Content-Length`` sent with no body at all.
STEPS = (
    ("select", 200, "POST", "/select", "", _json({"configuration": "c"})),
    (
        "delta",
        200,
        "POST",
        "/profiles/delta",
        "",
        _json({"upserts": {"né0": {"prop00002": 0.9, "prop00005": 0.2}}}),
    ),
    (
        "select_after_delta",
        200,
        "POST",
        "/select",
        "",
        _json({"configuration": "c", "budget": 6}),
    ),
    ("configuration_put", 201, "POST", "/configurations", "", _json(LATE)),
    ("malformed_json", 400, "POST", "/profiles/delta", "", b'{"upserts": '),
    ("non_object_body", 400, "POST", "/select", "", b"[1, 2]"),
    (
        "feedback_string",
        400,
        "POST",
        "/select",
        "",
        _json({"configuration": "c", "feedback": "x"}),
    ),
    (
        "feedback_list",
        400,
        "POST",
        "/select",
        "",
        _json({"configuration": "c", "feedback": [1]}),
    ),
    (
        "maintained_string",
        400,
        "POST",
        "/select",
        "",
        _json({"configuration": "c", "maintained": "false"}),
    ),
    (
        "explain_string",
        400,
        "POST",
        "/select",
        "",
        _json({"configuration": "c", "explain": "no"}),
    ),
    (
        "distribution_properties_string",
        400,
        "POST",
        "/select",
        "",
        _json({"configuration": "c", "distribution_properties": "ab"}),
    ),
    (
        "budget_float",
        400,
        "POST",
        "/select",
        "",
        _json({"configuration": "c", "budget": 2.9}),
    ),
    (
        "budget_string",
        400,
        "POST",
        "/select",
        "",
        _json({"configuration": "c", "budget": "2"}),
    ),
    (
        "budget_infinity",
        400,
        "POST",
        "/select",
        "",
        _json({"configuration": "c", "budget": float("inf")}),
    ),
    (
        "budget_negative_infinity",
        400,
        "POST",
        "/select",
        "",
        _json({"configuration": "c", "budget": float("-inf")}),
    ),
    (
        "budget_past_float_range",
        400,
        "POST",
        "/select",
        "",
        b'{"configuration": "c", "budget": 1e400}',
    ),
    (
        "configuration_budget_float",
        400,
        "POST",
        "/configurations",
        "",
        _json({**LATE, "name": "f", "budget": 2.5}),
    ),
    (
        "configuration_buckets_infinity",
        400,
        "POST",
        "/configurations",
        "",
        _json({**LATE, "name": "f", "buckets_per_property": float("inf")}),
    ),
    (
        "configuration_min_support_string",
        400,
        "POST",
        "/configurations",
        "",
        _json({**LATE, "name": "f", "min_support": "1"}),
    ),
    (
        "configuration_prefixes_string",
        400,
        "POST",
        "/configurations",
        "",
        _json({**LATE, "name": "f", "property_prefixes": "pq"}),
    ),
    ("configurations_after_rejects", 200, "GET", "/configurations", "", b""),
    (
        "non_utf8_body",
        400,
        "POST",
        "/profiles/delta",
        "",
        b'{"upserts": {"caf\xe9": {"prop00002": 0.5}}}',
    ),
    ("negative_content_length", 400, "POST", "/profiles/delta", "", -1),
    ("unknown_route", 404, "GET", "/nowhere", "", b""),
    (
        "invalid_delta",
        400,
        "POST",
        "/profiles/delta",
        "",
        _json({"removals": ["ghost"]}),
    ),
    ("admin_wal", 200, "GET", "/admin/wal", "from_seq=0", b""),
    ("admin_state", 200, "GET", "/admin/state", "", b""),
    (
        "writer_error",
        500,
        "POST",
        "/configurations",
        "",
        _json({"name": "doomed", "weight_scheme": "Iden"}),
    ),
)


def _service(repo, store=None):
    service = PodiumService(repo, store=store)
    service.configurations.put(CONFIG)
    service.warm_artifacts()
    return service


def _call(app, method, path, query, body):
    length = body if isinstance(body, int) else len(body)
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(length),
        "wsgi.input": io.BytesIO(b"" if isinstance(body, int) else body),
    }
    status = []
    chunks = app(environ, lambda line, headers: status.append(line))
    return status[0], json.loads(b"".join(chunks))


@pytest.fixture(scope="module")
def answers(tmp_path_factory):
    """Every step's ``(single-process, pool)`` answer pair, by step id."""
    root = tmp_path_factory.mktemp("boundary")
    repo = generate_profile_repository(
        n_users=60, n_properties=6, mean_profile_size=4.0, seed=5
    )
    stores = [
        DurableRepositoryStore(root / name, fsync=False)
        for name in ("single", "writer")
    ]
    single = make_wsgi_app(_service(repo, store=stores[0]))
    writer = _service(repo, store=stores[1])
    shared = SharedPoolState(1)
    coordinator = WriteCoordinator(writer, shared, None, False)
    worker = _service(repo)  # the forked clone: no store
    runtime = WorkerRuntime(worker, shared, 0, coordinator.request)
    pool = make_worker_app(worker, runtime)
    pairs = {}
    try:
        for step, _, method, path, query, body in STEPS:
            failing = (
                mock.patch.object(
                    PodiumService,
                    "put_configuration",
                    side_effect=RuntimeError("boom"),
                )
                if step == "writer_error"
                else contextlib.nullcontext()
            )
            with failing:
                pairs[step] = tuple(
                    _call(app, method, path, query, body)
                    for app in (single, pool)
                )
    finally:
        for store in stores:
            store.close()
    return pairs


@pytest.mark.parametrize(
    "step,status", [s[:2] for s in STEPS], ids=[s[0] for s in STEPS]
)
def test_pool_worker_answers_like_single_process(answers, step, status):
    single, pool = answers[step]
    assert single[0].startswith(f"{status} ")
    assert pool == single


def test_writer_error_is_the_boundary_500(answers):
    assert answers["writer_error"][1][1] == {
        "error": "internal server error: RuntimeError"
    }


@pytest.mark.parametrize(
    "step,field",
    [
        ("feedback_string", "feedback"),
        ("feedback_list", "feedback"),
        ("maintained_string", "maintained"),
        ("explain_string", "explain"),
        ("distribution_properties_string", "distribution_properties"),
        ("budget_float", "budget"),
        ("budget_string", "budget"),
        ("budget_infinity", "budget"),
        ("budget_negative_infinity", "budget"),
        ("budget_past_float_range", "budget"),
    ],
)
def test_mistyped_select_field_is_a_400_naming_it(answers, step, field):
    error = answers[step][0][1]["error"]
    assert f"field {field!r} must be" in error


@pytest.mark.parametrize(
    "step,field",
    [
        ("configuration_budget_float", "budget"),
        ("configuration_buckets_infinity", "buckets_per_property"),
        ("configuration_min_support_string", "min_support"),
        ("configuration_prefixes_string", "property_prefixes"),
    ],
)
def test_mistyped_configuration_field_is_a_400_naming_it(
    answers, step, field
):
    error = answers[step][0][1]["error"]
    assert f"field {field!r} must be" in error


def test_rejected_configurations_are_not_stored(answers):
    single, pool = answers["configurations_after_rejects"]
    assert pool == single
    names = {c["name"] for c in single[1]}
    assert "late" in names and "f" not in names

"""Tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import parse_pss_kib, process_tree  # noqa: E402
from stats import covered_length, percentile, self_times  # noqa: E402
from workload import (  # noqa: E402
    BUDGETS,
    DeltaStream,
    make_corpus,
    read_shapes,
)


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(400, 60, seed=5)


# -- generator ---------------------------------------------------------------


def test_corpus_is_deterministic_and_split(corpus):
    again = make_corpus(400, 60, seed=5)
    assert again == corpus
    assert len(corpus.served) == 400 and len(corpus.held_out) == 60
    served = {uid for uid, _ in corpus.served}
    assert not served & {uid for uid, _ in corpus.held_out}
    assert make_corpus(400, 60, seed=6).served != corpus.served


def test_held_out_users_do_not_change_the_served_population(corpus):
    assert make_corpus(400, 0, seed=5).served == corpus.served


def test_delta_stream_is_deterministic(corpus):
    first = DeltaStream(corpus, seed=9)
    second = DeltaStream(corpus, seed=9)
    other = DeltaStream(corpus, seed=10)
    a = [first.next_delta() for _ in range(30)]
    assert a == [second.next_delta() for _ in range(30)]
    assert a != [other.next_delta() for _ in range(30)]


def test_deltas_are_valid_against_the_live_population(corpus):
    from repro.core.profiles import UserProfile, UserRepository
    from repro.core.updates import apply_delta_to_repository
    from repro.service.app import parse_profile_delta

    repository = UserRepository(
        UserProfile(uid, scores) for uid, scores in corpus.served
    )
    profiles = {uid: dict(scores) for uid, scores in corpus.served}
    held_out = {uid: scores for uid, scores in corpus.held_out}
    vocabulary = {p for _, s in corpus.served for p in s}
    stream = DeltaStream(corpus, seed=3)
    kinds = set()
    for _ in range(60):
        delta = stream.next_delta()
        touched = list(delta["upserts"]) + delta["removals"]
        assert 1 <= len(touched) <= 4
        assert len(set(touched)) == len(touched)
        for uid in delta["removals"]:
            assert uid in profiles
            kinds.add("remove")
            del profiles[uid]
        for uid, scores in delta["upserts"].items():
            assert set(scores) <= vocabulary
            if uid in profiles:
                old = profiles[uid]
                assert set(scores) == set(old)
                changed = sum(scores[p] != old[p] for p in old)
                assert 1 <= changed <= 3
                kinds.add("update")
            else:
                assert scores == held_out.pop(uid)
                kinds.add("insert")
            assert all(0.0 <= v <= 1.0 for v in scores.values())
            profiles[uid] = scores
        repository = apply_delta_to_repository(
            repository, parse_profile_delta(delta)
        )
        assert len(repository) == len(profiles) == stream.users
    assert kinds == {"update", "insert", "remove"}


def test_boolean_properties_stay_boolean(corpus):
    stream = DeltaStream(corpus, seed=4)
    for _ in range(40):
        for scores in stream.next_delta()["upserts"].values():
            for label in corpus.boolean_properties & set(scores):
                assert scores[label] in (0.0, 1.0)


def test_read_shapes_mix_and_feasibility(corpus):
    from repro.core.profiles import UserProfile, UserRepository
    from repro.service.app import PodiumService
    from repro.service.config import DiversificationConfiguration

    service = PodiumService(
        UserRepository(UserProfile(u, s) for u, s in corpus.served)
    )
    service.configurations.put(
        DiversificationConfiguration(name="cli", budget=8)
    )
    groups = service.group_listing("cli")
    shapes = read_shapes(groups, 400, 50, seed=2)
    assert shapes == read_shapes(groups, 400, 50, seed=2)
    kinds = [
        "constraints" if "constraints" in s
        else "feedback" if "feedback" in s else "plain"
        for s in shapes
    ]
    assert (kinds.count("plain"), kinds.count("feedback")) == (30, 10)
    assert kinds.count("constraints") == 10
    from repro.service.app import parse_constraints, parse_feedback

    for shape in shapes:
        assert shape["budget"] in BUDGETS
        answer = service.select(
            "cli",
            budget=shape["budget"],
            feedback=parse_feedback(shape.get("feedback")),
            distribution_properties=tuple(
                shape.get("distribution_properties", ())
            ),
            explain=shape["explain"],
            constraints=parse_constraints(shape.get("constraints")),
        )
        assert len(answer["selected"]) == shape["budget"]
        if "constraints" in shape:
            assert answer["constraints"]["satisfied"]


# -- arithmetic --------------------------------------------------------------


def _span(span_id, parent, start, end, pid=1):
    return {"id": span_id, "parent": parent, "start": start, "end": end,
            "pid": pid, "name": "x", "rid": None}


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert covered_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),    # overlaps its sibling: counted once
        _span(4, 1, 9.0, 12.0),   # clipped to the parent's end
        _span(5, 2, 1.5, 2.5),    # grandchild: only its parent loses it
        _span(1, None, 0.0, 4.0, pid=2),  # same id, other process
    ]
    own = self_times(spans)
    assert own[(1, 1)] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[(1, 2)] == pytest.approx(1.0)
    assert own[(1, 3)] == pytest.approx(3.0)
    assert own[(1, 5)] == pytest.approx(1.0)
    assert own[(2, 1)] == pytest.approx(4.0)


def test_percentile_matches_numpy():
    rng = random.Random(0)
    for n in (1, 2, 7, 100):
        values = [rng.random() for _ in range(n)]
        for q in (0, 10, 50, 90, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )
    with pytest.raises(ValueError):
        percentile([], 50)


def test_pss_parsing():
    text = (
        "55d0c0000000-7ffd1234f000 ---p 00000000 00:00 0  [rollup]\n"
        "Rss:               12345 kB\n"
        "Pss:                6789 kB\n"
        "Pss_Anon:           1000 kB\n"
    )
    assert parse_pss_kib(text) == 6789
    with pytest.raises(ValueError):
        parse_pss_kib("Rss: 1 kB\n")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc")
def test_process_tree_includes_the_root():
    assert process_tree(os.getpid())[0] == os.getpid()

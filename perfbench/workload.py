"""Seeded inputs of the serving benchmark.

Everything a run sends to the server is generated here from the run's
``--seed``: the profile corpus, the held-out users later inserted, the
profile deltas and the ``/select`` request shapes.  The server only ever
sees the generated HTTP bodies.

* :func:`make_corpus` draws one ``generate_profile_repository`` corpus
  and splits it into the served population and held-out users, so
  inserted users come from the same distribution and land in existing
  groups.
* :class:`DeltaStream` produces realistic ``/profiles/delta`` bodies
  against a live population it tracks: updates re-send a user's full
  profile with 1–3 scores changed, inserts add held-out users, removals
  take live users only.
* :func:`read_shapes` builds the ``read-mix`` request pool from the live
  ``GET /groups`` listing: plain selects with explanations, customization
  feedback and feasible fairness constraints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

N_PROPERTIES = 120
MEAN_PROFILE_SIZE = 25.0
CONFIGURATION = "cli"
BUDGETS = (8, 16, 32)
PLAIN_BUDGETS = (8, 16, 16, 16, 16, 32)

#: Per touched user: probability of each delta operation.
OP_WEIGHTS = (("update", 0.6), ("insert", 0.2), ("remove", 0.2))


@dataclass(frozen=True)
class Corpus:
    """A seeded corpus: the served population plus held-out users."""

    #: ``(user_id, {property: score})`` in generator order.
    served: tuple[tuple[str, dict[str, float]], ...]
    held_out: tuple[tuple[str, dict[str, float]], ...]
    #: Properties whose every score in the corpus is 0 or 1.
    boolean_properties: frozenset[str]

    def profile_document(self) -> dict[str, Any]:
        """The ``--profiles`` JSON document of the served population."""
        from repro.core.profiles import UserProfile, UserRepository
        from repro.datasets.io import profiles_to_dict

        return profiles_to_dict(
            UserRepository(
                UserProfile(user_id, scores) for user_id, scores in self.served
            )
        )


def make_corpus(n_users: int, held_out: int, seed: int) -> Corpus:
    """Generate ``n_users + held_out`` profiles in one generator call."""
    from repro.datasets.synth import generate_profile_repository

    repository = generate_profile_repository(
        n_users=n_users + held_out,
        n_properties=N_PROPERTIES,
        mean_profile_size=MEAN_PROFILE_SIZE,
        seed=seed,
    )
    profiles = [
        (profile.user_id, dict(profile.scores)) for profile in repository
    ]
    non_boolean: set[str] = set()
    labels: set[str] = set()
    for _, scores in profiles:
        for label, score in scores.items():
            labels.add(label)
            if score not in (0.0, 1.0):
                non_boolean.add(label)
    return Corpus(
        served=tuple(profiles[:n_users]),
        held_out=tuple(profiles[n_users:]),
        boolean_properties=frozenset(labels - non_boolean),
    )


class DeltaStream:
    """Generates valid profile deltas against a tracked live population.

    Deterministic for a seed: the same corpus and seed yield the same
    sequence of deltas.  Each delta touches 1–4 distinct users; every
    update and removal names a live user and every insert a held-out
    user that was never served, so no delta can be rejected.
    """

    def __init__(self, corpus: Corpus, seed: int) -> None:
        self._rng = random.Random(seed)
        self._boolean = corpus.boolean_properties
        self._profiles = {uid: dict(scores) for uid, scores in corpus.served}
        self._live = [uid for uid, _ in corpus.served]
        self._position = {uid: i for i, uid in enumerate(self._live)}
        self._held_out = list(corpus.held_out)

    @property
    def users(self) -> int:
        """Population size after every delta generated so far."""
        return len(self._live)

    def _add(self, user_id: str, scores: dict[str, float]) -> None:
        self._profiles[user_id] = scores
        self._position[user_id] = len(self._live)
        self._live.append(user_id)

    def _remove(self, user_id: str) -> None:
        # Swap-remove keeps random choice O(1) and deterministic.
        index = self._position.pop(user_id)
        last = self._live.pop()
        if last != user_id:
            self._live[index] = last
            self._position[last] = index
        del self._profiles[user_id]

    def _pick_live(self, exclude: set[str]) -> str:
        while True:
            user_id = self._live[self._rng.randrange(len(self._live))]
            if user_id not in exclude:
                return user_id

    def _changed(self, scores: dict[str, float]) -> dict[str, float]:
        updated = dict(scores)
        labels = sorted(updated)
        for label in self._rng.sample(
            labels, min(len(labels), self._rng.randint(1, 3))
        ):
            if label in self._boolean:
                updated[label] = 1.0 - updated[label]
            else:
                updated[label] = self._rng.betavariate(2.0, 2.0)
        return updated

    def next_delta(self) -> dict[str, Any]:
        """The next ``/profiles/delta`` body; updates the live state."""
        ops, weights = zip(*OP_WEIGHTS)
        upserts: dict[str, dict[str, float]] = {}
        removals: list[str] = []
        touched: set[str] = set()
        for _ in range(self._rng.randint(1, 4)):
            op = self._rng.choices(ops, weights)[0]
            if op == "insert" and self._held_out:
                user_id, scores = self._held_out.pop(0)
                upserts[user_id] = dict(scores)
            elif op == "remove" and len(self._live) > len(touched) + 1:
                user_id = self._pick_live(touched)
                removals.append(user_id)
            else:
                user_id = self._pick_live(touched)
                upserts[user_id] = self._changed(self._profiles[user_id])
            touched.add(user_id)
        for user_id, scores in upserts.items():
            if user_id in self._position:
                self._profiles[user_id] = scores
            else:
                self._add(user_id, scores)
        for user_id in removals:
            self._remove(user_id)
        return {"upserts": upserts, "removals": removals}


def _group_pairs(groups: list[dict[str, Any]]) -> list[tuple[str, str, int]]:
    return [(g["property"], g["bucket"], int(g["size"])) for g in groups]


def read_shapes(
    groups: list[dict[str, Any]], n_users: int, count: int, seed: int
) -> list[dict[str, Any]]:
    """The ``read-mix`` request pool, built from a ``GET /groups`` listing.

    60% plain selects with ``explain`` and two distribution properties,
    20% customization feedback (one priority and one must-not group),
    20% fairness constraints (one floor and one ceiling) sized so they
    are always feasible: the floor group holds at least 50 users and
    asks for at most a quarter of the budget, the ceiling group holds at
    most a third of the population.  Budgets cycle through
    :data:`PLAIN_BUDGETS` for plain selects and :data:`BUDGETS` for the
    others; the pool is returned shuffled.
    """
    rng = random.Random(seed)
    pairs = _group_pairs(groups)
    properties = sorted({prop for prop, _, _ in pairs})
    floors = [p for p in pairs if p[2] >= 50]
    small = [p for p in pairs if 0 < p[2] <= n_users // 3]
    plain, feedback = round(count * 0.6), round(count * 0.2)
    # Budgets cycle within each kind, so every seed has the same mix.
    # Plain selects are mostly budget 16: the median request then falls
    # inside one cost class instead of on the border between two.
    kinds = [
        (kind, cycle[i % len(cycle)])
        for kind, n, cycle in (
            ("plain", plain, PLAIN_BUDGETS),
            ("feedback", feedback, BUDGETS),
            ("constraints", count - plain - feedback, BUDGETS),
        )
        for i in range(n)
    ]
    shapes = []
    for kind, budget in kinds:
        shape: dict[str, Any] = {
            "configuration": CONFIGURATION,
            "budget": budget,
        }
        if kind == "plain":
            shape["explain"] = True
            shape["distribution_properties"] = rng.sample(properties, 2)
        elif kind == "feedback":
            priority = rng.choice(floors)
            must_not = rng.choice(
                [p for p in small if p[0] != priority[0]]
            )
            shape["explain"] = False
            shape["feedback"] = {
                "priority": [[priority[0], priority[1]]],
                "must_not": [[must_not[0], must_not[1]]],
            }
        else:
            floor = rng.choice(floors)
            ceiling = rng.choice([p for p in small if p[0] != floor[0]])
            shape["explain"] = False
            shape["constraints"] = {
                "floors": [
                    [floor[0], floor[1], rng.randint(1, budget // 4)]
                ],
                "ceilings": [
                    [ceiling[0], ceiling[1], rng.randint(1, budget // 2)]
                ],
            }
        shapes.append(shape)
    rng.shuffle(shapes)
    return shapes

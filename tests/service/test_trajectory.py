"""Plain selects served as prefixes of one greedy trajectory.

Under budget-independent schemes (Iden or LBS with Single coverage) the
service keeps one instance per configuration and answers every plain
select from a prefix of one saturated greedy run.  The property below
draws small corpora with tied scores across all six scheme pairs,
drains groups with a delta between calls, and takes budgets from 1 to
past both ``|G|`` and ``|U|``: every answer must equal a fresh
``select_from_index`` on an instance freshly built for that budget, and
only the flagged pairs may share an instance or build a trajectory.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import greedy_select, instance_index, select_from_index
from repro.core.profiles import UserProfile, UserRepository
from repro.core.updates import ProfileDelta, rebuild_instance
from repro.service import DiversificationConfiguration, PodiumService

#: Few distinct scores, so buckets, gains and hence picks tie often.
TIED_SCORES = (0.0, 0.25, 0.5, 1.0)
LABELS = ("p0", "p1", "p2")


@st.composite
def profiles(draw, prefix: str, min_size: int = 1):
    n = draw(st.integers(min_size, 10))
    out = []
    for u in range(n):
        chosen = draw(
            st.lists(st.sampled_from(LABELS), min_size=1, unique=True)
        )
        scores = {label: draw(st.sampled_from(TIED_SCORES)) for label in chosen}
        out.append(UserProfile(f"{prefix}{u:02d}", scores))
    return out


def _fresh(service: PodiumService, name: str, budget: int):
    """The budget's answer from an instance built for it alone."""
    config = service.configurations.get(name)
    weight, coverage = config.schemes()
    repository = service.repository
    instance = rebuild_instance(
        service.groups_for(name), repository, budget, weight, coverage
    )
    index = instance_index(instance)
    if index.vectorizable and index.n_users == len(repository):
        return select_from_index(index, budget, method="matrix")
    return greedy_select(repository, instance, budget, method="matrix")


@settings(max_examples=40, deadline=None)
@given(
    users=profiles("u"),
    arrivals=profiles("v", min_size=0),
    weight=st.sampled_from(("Iden", "LBS", "EBS")),
    coverage=st.sampled_from(("Single", "Prop")),
    default_budget=st.integers(1, 6),
    budgets=st.lists(st.integers(1, 24), min_size=1, max_size=6),
    drain=st.sampled_from(LABELS),
)
def test_service_answers_equal_fresh_runs(
    users, arrivals, weight, coverage, default_budget, budgets, drain
):
    service = PodiumService(UserRepository(users))
    config = DiversificationConfiguration(
        name="c",
        weight_scheme=weight,
        coverage_scheme=coverage,
        budget=default_budget,
        buckets_per_property=2,
    )
    service.configurations.put(config)
    flagged = weight in ("Iden", "LBS") and coverage == "Single"
    n_groups = len(service.groups_for("c"))
    sweep = [*budgets, n_groups, n_groups + 1, len(users), len(users) + 2]

    def check() -> None:
        for budget in sweep:
            got = service.select("c", budget, explain=False)
            fresh = _fresh(service, "c", budget)
            assert got["selected"] == list(fresh.selected), budget
            assert got["score"] == float(fresh.score), budget
        entry = service._cache["c"]
        if flagged:
            assert set(entry.instances) == {default_budget}
        else:
            assert set(entry.instances) == set(sweep)
            assert not entry.trajectories

    check()
    # Drain every user who holds ``drain`` (its groups empty out but
    # stay frozen) and add the arrivals, then serve the same budgets.
    removed = [p.user_id for p in users if drain in p.properties]
    if len(removed) < len(users) or arrivals:
        service.apply_profile_delta(
            ProfileDelta(upserts=tuple(arrivals), removals=frozenset(removed))
        )
        check()
    if not flagged:
        assert service.metrics.snapshot()["trajectory"]["builds"] == 0

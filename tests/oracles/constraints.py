"""Pure-Python references for the constrained-selection solvers.

:func:`fair_select_oracle` and :func:`clustered_select_oracle` redo the
fair and clustered solvers of :mod:`repro.constraints` on the dict-based
instance with set arithmetic and no array work; the parity sweeps in
``tests/constraints`` assert the CSR-native solvers reproduce them pick
for pick.
"""

from __future__ import annotations

from repro.baselines.stratified import proportional_apportionment
from repro.constraints import ConstraintSpec, keys_by_property
from repro.core.errors import InfeasibleConstraintError
from repro.core.groups import GroupKey
from repro.core.instance import DiversificationInstance
from repro.core.scoring import CoverageState
from repro.core.weights import Weight


def fair_select_oracle(
    instance: DiversificationInstance,
    spec: ConstraintSpec,
    budget: int,
    candidates: list[str] | None = None,
) -> tuple[list[str], list[Weight], Weight]:
    """Pure-Python fair greedy over the dict-based instance.

    The exact-parity twin of
    :func:`repro.constraints.fair_select_rows`: same feasibility
    rules evaluated per user with set arithmetic, same max-gain pick
    with the minimal-user-id tie-break, same diagnosed infeasibility.
    Deliberately does no array work — it is the oracle the parity sweep
    trusts, in the style of the eager/matrix backend pairing.
    """
    groups = instance.groups
    pool = sorted(
        candidates
        if candidates is not None
        else {u for g in groups for u in g.members}
    )
    floors = spec.floor_map
    ceilings = spec.ceiling_map
    members_of = {
        key: groups.group(key).members for key in {*floors, *ceilings}
    }
    pool_set = set(pool)
    per_property: dict[str, int] = {}
    for key, required in floors.items():
        available = len(members_of[key] & pool_set)
        if required > available:
            raise InfeasibleConstraintError(
                f"floor {required} for group {key} exceeds its "
                f"{available} candidate member(s)"
            )
        label = key.property_label
        per_property[label] = per_property.get(label, 0) + required
    for label, total in per_property.items():
        if total > budget:
            raise InfeasibleConstraintError(
                f"floors on property {label!r} sum to {total}, more than "
                f"the budget {budget} (its buckets are disjoint)"
            )
    floor_families = keys_by_property(sorted(floors, key=str))

    state = CoverageState(instance)
    marg: dict[str, Weight] = {u: state.marginal_gain(u) for u in pool}
    remaining = set(pool)
    counts: dict[GroupKey, int] = {key: 0 for key in {*floors, *ceilings}}
    selected: list[str] = []
    gains: list[Weight] = []

    def deficit(key: GroupKey) -> int:
        return max(0, floors[key] - counts[key])

    for _ in range(budget):
        prop_deficit = {
            label: sum(deficit(k) for k in keys)
            for label, keys in floor_families.items()
        }
        slots_after = budget - len(selected) - 1
        feasible: list[str] = []
        for user in remaining:
            blocked = any(
                counts[key] >= limit and user in members_of[key]
                for key, limit in ceilings.items()
            )
            if blocked:
                continue
            reserve_ok = True
            for label, keys in floor_families.items():
                if prop_deficit[label] <= slots_after:
                    continue
                reduction = sum(
                    1
                    for k in keys
                    if deficit(k) > 0 and user in members_of[k]
                )
                if prop_deficit[label] - reduction > slots_after:
                    reserve_ok = False
                    break
            if reserve_ok:
                feasible.append(user)
        if not feasible:
            unmet = [k for k in floors if deficit(k) > 0]
            if unmet:
                worst = max(unmet, key=lambda k: (deficit(k), str(k)))
                raise InfeasibleConstraintError(
                    f"no feasible candidate remains while floor for group "
                    f"{worst} is short by {deficit(worst)} member(s); "
                    f"relax the floors, raise conflicting ceilings or "
                    f"increase the budget"
                )
            break
        best = max(marg[u] for u in feasible)
        chosen = min(u for u in feasible if marg[u] == best)
        remaining.discard(chosen)
        gains.append(state.add(chosen))
        for key in counts:
            if chosen in members_of[key]:
                counts[key] += 1
        for key in state.last_exhausted():
            weight = instance.wei[key]
            for member in groups.group(key).members:
                if member in remaining:
                    marg[member] -= weight
        selected.append(chosen)

    unmet = [k for k in floors if deficit(k) > 0]
    if unmet:
        worst = max(unmet, key=lambda k: (deficit(k), str(k)))
        raise InfeasibleConstraintError(
            f"no feasible candidate remains while floor for group {worst} "
            f"is short by {deficit(worst)} member(s); relax the floors, "
            f"raise conflicting ceilings or increase the budget"
        )
    return selected, gains, state.score


def clustered_select_oracle(
    instance: DiversificationInstance,
    partition: list[tuple[str, list[str]]],
    budget: int,
) -> tuple[list[str], list[Weight], Weight]:
    """Pure-Python clustered greedy over the dict-based instance.

    The exact-parity twin of
    :func:`repro.constraints.clustered_select_rows` with
    ``method="matrix"``: the same largest-remainder apportionment, an
    eager per-cluster greedy with the trailing zero-gain trim, and a
    conditioned eager repair round — all on dict/set structures, no
    arrays.  ``partition`` carries user-id lists (the id-decoded output
    of :func:`repro.constraints.partition_rows`, or any partition under
    test).
    """
    seats = proportional_apportionment(
        [len(members) for _label, members in partition], budget
    )
    selected: list[str] = []
    gains: list[Weight] = []
    for (_label, members), share in zip(partition, seats):
        if share == 0:
            continue
        state = CoverageState(instance)
        pool = sorted(members)
        marg: dict[str, Weight] = {
            u: state.marginal_gain(u) for u in pool
        }
        remaining = set(pool)
        cluster_gains: list[Weight] = []
        cluster_picks: list[str] = []
        for _ in range(share):
            if not remaining:
                break
            best = max(marg[u] for u in remaining)
            chosen = min(u for u in remaining if marg[u] == best)
            remaining.discard(chosen)
            cluster_gains.append(state.add(chosen))
            for key in state.last_exhausted():
                weight = instance.wei[key]
                for member in instance.groups.group(key).members:
                    if member in remaining:
                        marg[member] -= weight
            cluster_picks.append(chosen)
        while cluster_gains and cluster_gains[-1] == 0:
            cluster_gains.pop()
            cluster_picks.pop()
        selected.extend(cluster_picks)
        gains.extend(cluster_gains)

    slack = budget - len(selected)
    if slack > 0:
        state = CoverageState(instance)
        for user in selected:
            state.add(user)
        taken = set(selected)
        leftover = sorted(
            u
            for _label, members in partition
            for u in members
            if u not in taken
        )
        for _ in range(slack):
            if not leftover:
                break
            best = max(state.marginal_gain(u) for u in leftover)
            chosen = min(
                u for u in leftover if state.marginal_gain(u) == best
            )
            leftover.remove(chosen)
            gains.append(state.add(chosen))
            selected.append(chosen)

    final = CoverageState(instance)
    for user in selected:
        final.add(user)
    return selected, gains, final.score

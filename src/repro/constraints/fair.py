"""Fair greedy: coverage maximization under floors and ceilings.

The solver runs the paper's eager greedy recurrence (Algorithm 1) with
a matroid-style feasibility check in front of every pick, in the spirit
of "Diverse Data Selection under Fairness Constraints" (Moumoulidou et
al.):

* **ceilings** — a candidate whose pick would push any constrained
  group past its ceiling is infeasible (``ceiling = 0`` groups are
  excluded outright, exactly customization's must-not rule).
* **floor reserve** — remaining budget is reserved for unmet floors.
  Floors are accounted per property: buckets of one property are
  disjoint (a user carries one bucket per property), so a property
  ``p`` with total unmet deficit ``need_p`` requires ``need_p``
  *distinct* future picks — but one pick can serve a bucket of *every*
  property simultaneously, so the reserve is enforced per property, not
  summed across properties.  A candidate ``u`` is feasible iff, for
  every property ``p``,
  ``need_p − reduction_p(u) ≤ budget − |S| − 1``
  where ``reduction_p(u)`` counts the unmet floor groups of ``p``
  containing ``u``.

The feasible-max-gain pick keeps the greedy exchange argument intact
within the feasible region; floors across *different* properties can in
adversarial overlap structures still dead-end, in which case the solver
raises :class:`InfeasibleConstraintError` naming the largest unmet
floor rather than returning a violating selection (heuristic
feasibility, diagnosed — never silent).  When every floor is met and no
candidate remains feasible (e.g. ceilings sum below the budget), the
solver stops early like an exhausted pool.

The solver is the shared greedy kernel
(:func:`repro.core.greedy._greedy_kernel`: int64 gain vector, masked
argmax with the first-max = minimal-user-id tie-break, exhausted-group
propagation) with the ceilings and the floor reserve as its gate
(:class:`_FairGate`), so the pure-Python oracle in
``tests/oracles/constraints.py`` matches it pick for pick.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core.errors import InfeasibleConstraintError
from ..core.greedy import _greedy_kernel
from ..core.index import InstanceIndex
from ..core.weights import Weight
from .spec import ConstraintSpec


class _FairArrays:
    """Dense-id view of a spec's floors/ceilings against one index."""

    __slots__ = (
        "floor_gids",
        "floor_req",
        "floor_prop",
        "n_props",
        "ceil_gids",
        "ceil_req",
        "ceil_limit",
    )

    def __init__(self, index: InstanceIndex, spec: ConstraintSpec) -> None:
        floors = spec.floors
        self.floor_gids = np.fromiter(
            (index.group_pos[k] for k, _c in floors),
            dtype=np.int64,
            count=len(floors),
        )
        self.floor_req = np.fromiter(
            (c for _k, c in floors), dtype=np.int64, count=len(floors)
        )
        properties = sorted({k.property_label for k, _c in floors})
        prop_pos = {p: i for i, p in enumerate(properties)}
        self.floor_prop = np.fromiter(
            (prop_pos[k.property_label] for k, _c in floors),
            dtype=np.int64,
            count=len(floors),
        )
        self.n_props = len(properties)
        ceilings = spec.ceilings
        self.ceil_gids = np.fromiter(
            (index.group_pos[k] for k, _c in ceilings),
            dtype=np.int64,
            count=len(ceilings),
        )
        self.ceil_req = np.fromiter(
            (c for _k, c in ceilings), dtype=np.int64, count=len(ceilings)
        )
        # Per-group ceiling lookup; unconstrained groups get a limit no
        # selection can reach.
        self.ceil_limit = np.full(index.n_groups, np.iinfo(np.int64).max)
        self.ceil_limit[self.ceil_gids] = self.ceil_req


def diagnose_floors(
    index: InstanceIndex,
    spec: ConstraintSpec,
    budget: int,
    rows: np.ndarray | None = None,
) -> None:
    """Raise a named :class:`InfeasibleConstraintError` for doomed floors.

    Upfront checks with actionable messages: a floor larger than the
    group's membership inside the candidate pool (covers empty groups),
    and one property's floors summing past the budget (its buckets are
    disjoint, so each unmet floor needs distinct picks).  Cross-property
    dead-ends that survive these checks are diagnosed at runtime by the
    solver itself.
    """
    pool_mask: np.ndarray | None = None
    if rows is not None:
        pool_mask = np.zeros(index.n_users, dtype=bool)
        pool_mask[rows] = True
    per_property: dict[str, int] = {}
    for key, required in spec.floors:
        gid = index.group_pos[key]
        members = index.members_of_rows(np.asarray([gid], dtype=np.int64))
        available = (
            len(members)
            if pool_mask is None
            else int(np.count_nonzero(pool_mask[members]))
        )
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


def _infeasible_deficit(
    index: InstanceIndex, fa: _FairArrays, floor_def: np.ndarray
) -> InfeasibleConstraintError:
    """Name the unmet floor with the largest remaining deficit."""
    worst = int(np.argmax(floor_def))
    key = index.group_keys[int(fa.floor_gids[worst])]
    return InfeasibleConstraintError(
        f"no feasible candidate remains while floor for group {key} is "
        f"short by {int(floor_def[worst])} member(s); relax the floors, "
        f"raise conflicting ceilings or increase the budget"
    )


class _FairGate:
    """Ceilings and the floor reserve, as a :func:`_greedy_kernel` gate.

    Built once per solve by the kernel (``gate(slot_of, n)``);
    ``slot_of`` maps dense rows to the solve's slot positions, with ``n``
    the sink for rows outside the pool.  ``open`` marks the slots no
    full ceiling blocks — a ceiling-0 group is full from the start,
    which makes it a plain exclusion (customization's must-not rule) —
    over ``n + 1`` cells, so blocking scatters every member, sink
    included; ``counts`` holds ``|S ∩ G|`` per group.
    """

    def __init__(
        self,
        index: InstanceIndex,
        fa: _FairArrays,
        budget: int,
        slot_of,
        n: int,
    ) -> None:
        self.index = index
        self.fa = fa
        self.budget = budget
        self.slot_of = slot_of
        self.counts = np.zeros(index.n_groups, dtype=np.int64)
        self.open = np.ones(n + 1, dtype=bool)
        self._block(fa.ceil_gids[fa.ceil_req == 0])

    def _block(self, full: np.ndarray) -> None:
        self.open[self.slot_of(self.index.members_of_rows(full))] = False

    def feasible(self, active: np.ndarray, picked: int) -> np.ndarray:
        """Open candidates that keep every property's floors reachable."""
        fa = self.fa
        n = active.size
        feasible = active & self.open[:n]
        if not fa.n_props:
            return feasible
        floor_def = np.maximum(fa.floor_req - self.counts[fa.floor_gids], 0)
        prop_def = np.bincount(
            fa.floor_prop, weights=floor_def, minlength=fa.n_props
        ).astype(np.int64)
        slots_after = self.budget - picked - 1
        for p in np.flatnonzero(prop_def > slots_after):
            unmet = fa.floor_gids[(fa.floor_prop == p) & (floor_def > 0)]
            reduction = np.bincount(
                self.slot_of(self.index.members_of_rows(unmet)),
                minlength=n + 1,
            )
            feasible &= reduction[:n] >= int(prop_def[p]) - slots_after
        return feasible

    def update(self, touched: np.ndarray) -> None:
        """Count a pick's groups; block members of newly full ceilings."""
        self.counts[touched] += 1
        full = touched[self.counts[touched] == self.fa.ceil_limit[touched]]
        if full.size:
            self._block(full)


def fair_select_rows(
    index: InstanceIndex,
    spec: ConstraintSpec,
    budget: int,
    rows: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    sample_size: int | None = None,
    sample_rng: np.random.Generator | None = None,
) -> tuple[list[int], list[Weight], int]:
    """Fair greedy over dense rows; returns ``(rows, gains, score)``.

    The shared greedy kernel with :class:`_FairGate` restricting each
    pick to feasible candidates: same recurrence, same tie-break.
    ``rows`` defaults to every row and must be strictly ascending.
    ``sample_size`` restricts each step to a uniform sample of the
    *feasible* candidates (stochastic greedy over the feasible region);
    a sample covering them all degenerates to the exact argmax, so
    ``sample_ratio=1.0`` reproduces the deterministic fair selections
    for any ``sample_rng``.
    """
    fa = _FairArrays(index, spec)
    diagnose_floors(index, spec, budget, rows)
    slots = (
        range(index.n_users)
        if rows is None
        else np.asarray(rows, dtype=np.int64)
    )
    picks, gains, score = _greedy_kernel(
        index, slots, budget, rng,
        sample_size=sample_size,
        sample_rng=sample_rng,
        gate=functools.partial(_FairGate, index, fa, budget),
    )
    picked = [int(slots[p]) for p in picks]
    hits = index.row_hits(picked)
    floor_def = np.maximum(fa.floor_req - hits[fa.floor_gids], 0)
    if int(floor_def.sum()) > 0:
        # The kernel stopped (no feasible candidate) or the budget ran
        # out with floors unmet — the latter only through a
        # reserve-accounting gap (overlapping floor groups inside one
        # property); diagnose rather than return a violating selection.
        raise _infeasible_deficit(index, fa, floor_def)
    return picked, gains, score

"""Group weight and coverage functions (paper Defs. 3.6 and 3.7).

Weights prioritize groups; coverage sizes say how many representatives a
group needs before it counts as covered.  Both are materialized as plain
dictionaries keyed by :class:`~repro.core.groups.GroupKey` when a
diversification instance is built, so the selection algorithms never call
back into a scheme object.

The three paper weight schemes:

* **Iden** — ``wei(G) = 1``: maximizes the *number* of covered groups.
* **LBS** — ``wei(G) = |G|``: group importance linear in size; roughly
  maximizes groups represented per selected user.
* **EBS** — ``wei(G) = (B + 1)^ord(G)`` with ``ord`` ranking groups from
  smallest to largest: covering a larger group always dominates covering
  any combination of smaller ones.  Weights are exact Python integers, so
  the enforcement holds without floating-point loss even for thousands of
  groups.

The two paper coverage schemes:

* **Single** — ``cov(G) = 1``.
* **Prop** — ``cov(G) = max(⌊B · |G| / |U|⌋, 1)``.

Iden, LBS and Single never read the budget, so an instance built under
them is the same for every ``B``; each scheme says so in its class-level
``budget_independent`` flag (EBS and Prop are the two that depend on it).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .errors import InvalidInstanceError
from .groups import GroupKey, GroupSet

Weight = int | float
WeightMap = dict[GroupKey, Weight]
CoverageMap = dict[GroupKey, int]


def _check_context(budget: int, population_size: int) -> None:
    if budget < 1:
        raise InvalidInstanceError(f"budget must be >= 1, got {budget}")
    if population_size < 1:
        raise InvalidInstanceError(
            f"population size must be >= 1, got {population_size}"
        )


class WeightScheme(ABC):
    """Strategy producing ``wei : G -> R+`` for a concrete group set."""

    #: Short name used in explanations, configs and experiment reports.
    name: str = ""
    #: Whether ``weights`` ignores the budget (a property of the scheme).
    budget_independent: bool = False

    @abstractmethod
    def weights(
        self, groups: GroupSet, budget: int, population_size: int
    ) -> WeightMap:
        """Return the weight of every group in ``groups``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class IdenWeights(WeightScheme):
    """Identical Group Importance: every group weighs 1."""

    name = "Iden"
    budget_independent = True

    def weights(
        self, groups: GroupSet, budget: int, population_size: int
    ) -> WeightMap:
        _check_context(budget, population_size)
        return {group.key: 1 for group in groups}


class LBSWeights(WeightScheme):
    """Group Importance Linearly By Size: ``wei(G) = |G|``."""

    name = "LBS"
    budget_independent = True

    def weights(
        self, groups: GroupSet, budget: int, population_size: int
    ) -> WeightMap:
        _check_context(budget, population_size)
        return {group.key: group.size for group in groups}


class EBSWeights(WeightScheme):
    """Group Importance Enforced By Size: ``wei(G) = (B + 1)^ord(G)``.

    ``ord`` orders groups from smallest to largest; ties (equal-size
    groups) are broken deterministically by group key, matching the
    paper's "broken arbitrarily" footnote while keeping runs reproducible.
    """

    name = "EBS"

    def weights(
        self, groups: GroupSet, budget: int, population_size: int
    ) -> WeightMap:
        _check_context(budget, population_size)
        ordered = sorted(groups, key=lambda g: (g.size, str(g.key)))
        base = budget + 1
        return {group.key: base**rank for rank, group in enumerate(ordered)}


class CoverageScheme(ABC):
    """Strategy producing ``cov : G -> N`` for a concrete group set."""

    name: str = ""
    #: Whether ``coverage`` ignores the budget (a property of the scheme).
    budget_independent: bool = False

    @abstractmethod
    def coverage(
        self, groups: GroupSet, budget: int, population_size: int
    ) -> CoverageMap:
        """Return the required coverage of every group in ``groups``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SingleCoverage(CoverageScheme):
    """Single Representative: one member suffices to cover any group."""

    name = "Single"
    budget_independent = True

    def coverage(
        self, groups: GroupSet, budget: int, population_size: int
    ) -> CoverageMap:
        _check_context(budget, population_size)
        return {group.key: 1 for group in groups}


class PropCoverage(CoverageScheme):
    """Proportional Representation: ``cov(G) = max(⌊B·|G|/|U|⌋, 1)``."""

    name = "Prop"

    def coverage(
        self, groups: GroupSet, budget: int, population_size: int
    ) -> CoverageMap:
        _check_context(budget, population_size)
        return {
            group.key: max(budget * group.size // population_size, 1)
            for group in groups
        }


#: Registries for config-file / CLI lookups by scheme name.
WEIGHT_SCHEMES: dict[str, type[WeightScheme]] = {
    cls.name: cls for cls in (IdenWeights, LBSWeights, EBSWeights)
}
COVERAGE_SCHEMES: dict[str, type[CoverageScheme]] = {
    cls.name: cls for cls in (SingleCoverage, PropCoverage)
}


def weight_scheme(name: str) -> WeightScheme:
    """Instantiate a weight scheme by its paper name (Iden/LBS/EBS)."""
    try:
        return WEIGHT_SCHEMES[name]()
    except KeyError:
        raise InvalidInstanceError(
            f"unknown weight scheme {name!r}; choose from {sorted(WEIGHT_SCHEMES)}"
        ) from None


def coverage_scheme(name: str) -> CoverageScheme:
    """Instantiate a coverage scheme by its paper name (Single/Prop)."""
    try:
        return COVERAGE_SCHEMES[name]()
    except KeyError:
        raise InvalidInstanceError(
            f"unknown coverage scheme {name!r}; "
            f"choose from {sorted(COVERAGE_SCHEMES)}"
        ) from None

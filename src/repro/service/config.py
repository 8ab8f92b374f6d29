"""Diversification configurations (paper §7).

"Podium also allows an administrator to feed in an *initial set of
diversification configurations* with associated textual descriptions" —
e.g. the "Summer Pavilion" configuration of Fig. 2, which only considers
properties related to one restaurant.  A configuration names a property
filter, the weight/coverage schemes, the bucketing strategy and a default
budget; the selection module resolves it into a concrete diversification
instance at request time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.errors import ServiceError
from ..core.groups import GroupingConfig
from ..core.weights import (
    COVERAGE_SCHEMES,
    WEIGHT_SCHEMES,
    coverage_scheme,
    weight_scheme,
)


def json_int(value: Any, name: str) -> int:
    """A JSON integer field; a bool, float or string is a 400 naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(
            f"field {name!r} must be a JSON integer, got {value!r}"
        )
    return value


def json_str_list(value: Any, name: str) -> tuple[str, ...]:
    """A JSON list-of-strings field; anything else is a 400 naming it."""
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ServiceError(
            f"field {name!r} must be a list of strings, got "
            f"{type(value).__name__}"
        )
    return tuple(value)


@dataclass(frozen=True)
class DiversificationConfiguration:
    """A named, administrator-provided selection preset."""

    name: str
    description: str = ""
    property_prefixes: tuple[str, ...] | None = None
    weight_scheme: str = "LBS"
    coverage_scheme: str = "Single"
    budget: int = 8
    buckets_per_property: int = 3
    bucketing_strategy: str = "jenks"
    min_support: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ServiceError("configuration name cannot be empty")
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise ServiceError(
                f"unknown weight scheme {self.weight_scheme!r}"
            )
        if self.coverage_scheme not in COVERAGE_SCHEMES:
            raise ServiceError(
                f"unknown coverage scheme {self.coverage_scheme!r}"
            )
        if self.budget < 1:
            raise ServiceError(f"budget must be >= 1, got {self.budget}")

    @property
    def budget_independent(self) -> bool:
        """Whether neither scheme reads the budget (Iden/LBS × Single)."""
        return (
            WEIGHT_SCHEMES[self.weight_scheme].budget_independent
            and COVERAGE_SCHEMES[self.coverage_scheme].budget_independent
        )

    def grouping_config(self) -> GroupingConfig:
        return GroupingConfig(
            buckets_per_property=self.buckets_per_property,
            strategy=self.bucketing_strategy,
            min_support=self.min_support,
        )

    def schemes(self):
        """Instantiate the (weight, coverage) scheme pair."""
        return (
            weight_scheme(self.weight_scheme),
            coverage_scheme(self.coverage_scheme),
        )

    def matches_property(self, label: str) -> bool:
        """Whether ``label`` passes this configuration's property filter."""
        if self.property_prefixes is None:
            return True
        return any(label.startswith(p) for p in self.property_prefixes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "property_prefixes": (
                list(self.property_prefixes)
                if self.property_prefixes is not None
                else None
            ),
            "weight_scheme": self.weight_scheme,
            "coverage_scheme": self.coverage_scheme,
            "budget": self.budget,
            "buckets_per_property": self.buckets_per_property,
            "bucketing_strategy": self.bucketing_strategy,
            "min_support": self.min_support,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DiversificationConfiguration":
        try:
            prefixes = data.get("property_prefixes")
            return cls(
                name=str(data["name"]),
                description=str(data.get("description", "")),
                property_prefixes=(
                    json_str_list(prefixes, "property_prefixes")
                    if prefixes is not None
                    else None
                ),
                weight_scheme=str(data.get("weight_scheme", "LBS")),
                coverage_scheme=str(data.get("coverage_scheme", "Single")),
                budget=json_int(data.get("budget", 8), "budget"),
                buckets_per_property=json_int(
                    data.get("buckets_per_property", 3), "buckets_per_property"
                ),
                bucketing_strategy=str(data.get("bucketing_strategy", "jenks")),
                min_support=json_int(
                    data.get("min_support", 1), "min_support"
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed configuration: {exc}") from exc


class ConfigurationStore:
    """In-memory registry of named configurations."""

    def __init__(
        self, configurations: tuple[DiversificationConfiguration, ...] = ()
    ) -> None:
        self._configs: dict[str, DiversificationConfiguration] = {}
        self._version = 0
        for config in configurations:
            self.put(config)

    @property
    def version(self) -> int:
        """Bumped on every :meth:`put`; cache layers key on it."""
        return self._version

    def put(self, config: DiversificationConfiguration) -> None:
        """Insert or replace a configuration under its name."""
        self._configs[config.name] = config
        self._version += 1

    def get(self, name: str) -> DiversificationConfiguration:
        try:
            return self._configs[name]
        except KeyError:
            raise ServiceError(f"unknown configuration {name!r}") from None

    def names(self) -> list[str]:
        return list(self._configs)

    def __len__(self) -> int:
        return len(self._configs)

    def __contains__(self, name: object) -> bool:
        return name in self._configs


def default_configuration(budget: int = 8) -> DiversificationConfiguration:
    """The paper's default experimental setup: LBS + Single, B = 8."""
    return DiversificationConfiguration(
        name="default",
        description="All properties, LBS weights, single coverage",
        budget=budget,
    )

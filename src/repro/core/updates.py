"""Incremental repository updates (paper §9).

The paper contrasts Podium with manually-curated surveys: "our solution
applies to a given user repository as-is and may be easily executed
multiple times, e.g., to incorporate data updates".  Re-running the full
grouping module on every profile change is wasteful, so this module
applies a *profile delta* to an existing group set in place of a rebuild:

* bucket boundaries are kept frozen (they move slowly on large
  populations — re-bucket periodically, not per update);
* changed users are re-assigned to the frozen buckets;
* weights and coverage are re-materialized from the updated group sizes.

:func:`apply_delta_to_repository` and :func:`reassign_groups` return
new objects; nothing is mutated, so an in-flight selection keeps a
consistent snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .errors import InvalidDeltaError, UnknownUserError
from .groups import Group, GroupSet
from .instance import DiversificationInstance
from .profiles import UserProfile, UserRepository
from .weights import CoverageScheme, LBSWeights, SingleCoverage, WeightScheme


@dataclass(frozen=True)
class ProfileDelta:
    """A batch of repository changes: upserts and removals.

    ``upserts`` replace a user's whole profile (or insert a new user);
    ``removals`` delete users.  A user id may appear in only one of the
    two collections.
    """

    upserts: tuple[UserProfile, ...] = ()
    removals: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        upsert_ids = {p.user_id for p in self.upserts}
        if len(upsert_ids) != len(self.upserts):
            counts: dict[str, int] = {}
            for profile in self.upserts:
                counts[profile.user_id] = counts.get(profile.user_id, 0) + 1
            dupes = sorted(u for u, c in counts.items() if c > 1)
            raise InvalidDeltaError(
                f"duplicate user ids in upserts: {dupes[:3]}"
            )
        clash = upsert_ids & self.removals
        if clash:
            raise InvalidDeltaError(
                f"user ids both upserted and removed: {sorted(clash)[:3]}"
            )

    @property
    def touched(self) -> frozenset[str]:
        """Every user id affected by this delta."""
        return frozenset(p.user_id for p in self.upserts) | self.removals


def profile_delta_to_dict(delta: ProfileDelta) -> dict[str, Any]:
    """Serialize a delta to the JSON interchange form.

    The same shape the service's ``/profiles/delta`` route accepts, so
    write-ahead-log records replay through one parser.
    """
    return {
        "upserts": {
            p.user_id: dict(p.scores) for p in delta.upserts
        },
        "removals": sorted(delta.removals),
    }


def profile_delta_from_dict(document: dict[str, Any]) -> ProfileDelta:
    """Rebuild a delta serialized by :func:`profile_delta_to_dict`."""
    upserts_raw = document.get("upserts") or {}
    if not isinstance(upserts_raw, dict):
        raise InvalidDeltaError(
            "delta field 'upserts' must map user ids to {property: score}"
        )
    removals_raw = document.get("removals") or []
    if not isinstance(removals_raw, (list, tuple)):
        raise InvalidDeltaError(
            "delta field 'removals' must be a list of user ids"
        )
    return ProfileDelta(
        upserts=tuple(
            UserProfile(str(user_id), scores)
            for user_id, scores in upserts_raw.items()
        ),
        removals=frozenset(str(u) for u in removals_raw),
    )


def apply_delta_to_repository(
    repository: UserRepository, delta: ProfileDelta
) -> UserRepository:
    """Return a new repository with the delta applied.

    Removals of unknown users raise; upserting an existing user replaces
    the profile wholesale (the derive pipeline recomputes aggregates).
    """
    for user_id in delta.removals:
        if user_id not in repository:
            raise UnknownUserError(f"cannot remove unknown user {user_id!r}")
    upserted = {p.user_id: p for p in delta.upserts}
    profiles = [
        upserted.pop(p.user_id, p)
        for p in repository
        if p.user_id not in delta.removals
    ]
    profiles.extend(upserted.values())
    return UserRepository(profiles)


def reassign_groups(
    groups: GroupSet,
    repository: UserRepository,
    delta: ProfileDelta,
) -> GroupSet:
    """Re-assign the delta's users to the existing (frozen) buckets.

    ``repository`` must already have the delta applied.  Group member
    sets shrink/grow; bucket boundaries, labels and keys are unchanged.
    Buckets that become empty are kept (weights of 0-size LBS groups are
    clamped by the instance builder below).
    """
    touched = delta.touched
    updated = GroupSet()
    for group in groups:
        members = set(group.members) - touched
        if group.bucket is not None:
            for user_id in touched - delta.removals:
                profile = repository.profile(user_id)
                label = group.key.property_label
                if label in profile and group.bucket.contains(
                    profile.score(label)
                ):
                    members.add(user_id)
        updated.add(
            Group(group.key, frozenset(members), group.bucket, group.label)
        )
    return updated


def rebuild_instance(
    groups: GroupSet,
    repository: UserRepository,
    budget: int,
    weight_scheme: WeightScheme | None = None,
    coverage_scheme: CoverageScheme | None = None,
) -> DiversificationInstance:
    """Re-materialize weights/coverage on updated groups.

    Empty groups get a floor weight of 1 so the instance stays valid;
    they can never be covered and never attract the greedy (no members),
    so the floor is behaviour-neutral.
    """
    weight_scheme = weight_scheme or LBSWeights()
    coverage_scheme = coverage_scheme or SingleCoverage()
    population = max(len(repository), 1)
    wei = weight_scheme.weights(groups, budget, population)
    wei = {key: (value if value > 0 else 1) for key, value in wei.items()}
    cov = coverage_scheme.coverage(groups, budget, population)
    return DiversificationInstance(
        groups=groups,
        wei=wei,
        cov=cov,
        budget=budget,
        population_size=population,
    )

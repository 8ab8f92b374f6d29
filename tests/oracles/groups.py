"""The group-set document snapshots stored before groupings.

``podium-groups-v1`` carried every group's member list beside its
bucket.  Readers still accept it; this writer produces it so tests can
pin that a data directory written in that format recovers the same
grouping and answers.
"""

from __future__ import annotations

from typing import Any


def member_list_document(groups) -> dict[str, Any]:
    """A group set as a ``podium-groups-v1`` document."""
    return {
        "format": "podium-groups-v1",
        "groups": [
            {
                "property": g.key.property_label,
                "bucket_label": g.key.bucket_label,
                "members": sorted(g.members),
                "bucket": {
                    "lo": g.bucket.lo,
                    "hi": g.bucket.hi,
                    "label": g.bucket.label,
                    "closed_hi": g.bucket.closed_hi,
                },
                "label": g.label,
            }
            for g in groups
        ],
    }

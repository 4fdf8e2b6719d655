"""Turn a TSPLIB point cloud into a pickup-and-delivery instance.

The construction is deterministic: rank the points by distance from the
centroid (ties broken by file index), make the closest point the depot, and
pair the remaining ranks from the two ends inward, so rank 2 pairs with rank
m, rank 3 with rank m-1, and so on.  With pickups-central the inner point of
each pair is the pickup; with deliveries-central the roles are reversed.  When
the non-depot count is odd the self-paired middle rank is dropped and recorded
in the instance metadata.  The ranking is one stable ``argsort`` of the
squared distances, and one index into the cloud's coordinate array places the
depot, the pickups and the deliveries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Instance, paired_loads
from .tsplib import MetricMode, PointCloud


MIN_CLOUD_POINTS = 3  # a depot and one pickup/delivery pair


class Direction(Enum):
    PICKUPS_CENTRAL = "pickups-central"
    DELIVERIES_CENTRAL = "deliveries-central"


@dataclass(frozen=True)
class GenerationSpec:
    """Knobs of the instance construction: precedence direction and capacity.

    Every item weighs 1, so the capacity is ``capacity_items``.
    """

    direction: Direction
    capacity_items: int

    def __post_init__(self):
        if self.capacity_items < 1:
            raise ValueError("capacity_items must be >= 1")


def centroid(cloud: PointCloud) -> tuple[float, float]:
    """Arithmetic mean of the point coordinates."""
    if len(cloud) == 0:
        raise ValueError("cannot take the centroid of an empty point cloud")
    cx, cy = cloud.coords.mean(axis=0)
    return float(cx), float(cy)


def _ranked_positions(cloud: PointCloud) -> np.ndarray:
    # squared distances keep tie detection exact for integer coordinates
    cx, cy = centroid(cloud)
    d2 = (cloud.coords[:, 0] - cx) ** 2 + (cloud.coords[:, 1] - cy) ** 2
    return np.argsort(d2, kind="stable")


def rank_by_centroid(cloud: PointCloud) -> list[int]:
    """File indices ordered by increasing distance from the centroid.

    Equidistant points keep their file order, so the ranking is reproducible.
    """
    return cloud.ids[_ranked_positions(cloud)].tolist()


def generate(
    cloud: PointCloud,
    spec: GenerationSpec,
    metric: MetricMode = MetricMode.EXACT,
) -> Instance:
    """Build the instance for one (direction, capacity) configuration."""
    if len(cloud) < MIN_CLOUD_POINTS:
        raise ValueError(f"need at least {MIN_CLOUD_POINTS} points for an instance, got {len(cloud)}")

    depot, *rest = _ranked_positions(cloud).tolist()
    dropped = ""
    if len(rest) % 2 == 1:
        dropped = str(cloud.ids[rest.pop(len(rest) // 2)])

    n = len(rest) // 2
    inner = rest[:n]              # ranks 2..n+1, closest to the centroid
    outer = rest[n:][::-1]        # ranks m, m-1, ..., paired end-to-end
    pickups, deliveries = (inner, outer) if spec.direction is Direction.PICKUPS_CENTRAL else (outer, inner)
    coords = cloud.coords[[depot, *pickups, *deliveries]]

    meta = {
        "source": cloud.name,
        "direction": spec.direction.value,
        "capacity_items": str(spec.capacity_items),
        "dropped_file_index": dropped,
    }
    name = f"{cloud.name}-{spec.direction.value}-Q{spec.capacity_items}"
    return Instance.from_coords(
        coords,
        paired_loads([1.0] * n),
        capacity=spec.capacity_items,
        metric=metric,
        name=name,
        meta=meta,
    )

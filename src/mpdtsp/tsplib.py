"""TSPLIB point-cloud files: parsing and distance conventions.

Only 2D coordinate instances (``EDGE_WEIGHT_TYPE: EUC_2D``) are supported.
Matrix-based instances (``EXPLICIT``), geographic coordinates (``GEO``) and
tour files are rejected with a :class:`TsplibParseError` naming the offending
keyword and line, as are a ``DIMENSION`` below 1 or given twice.  A parsed
cloud holds exactly ``DIMENSION`` points; :func:`tsplib_distance` is the one
source of arc costs, under either :class:`MetricMode` convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

Point = tuple[float, float]


class MetricMode(Enum):
    """How arc costs are derived from coordinates."""

    ROUNDED = "rounded"    # Euclidean distance rounded half-up to the nearest integer
    EXACT = "exact"        # true Euclidean distance


class TsplibParseError(ValueError):
    """Raised for malformed or unsupported TSPLIB input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class PointCloud:
    """A named list of (file_index, x, y) rows in file order."""

    name: str
    points: tuple[tuple[int, float, float], ...]

    def __len__(self) -> int:
        return len(self.points)

    def coords_array(self) -> np.ndarray:
        """(m, 2) float array of coordinates in file order."""
        return np.array([(x, y) for _, x, y in self.points], dtype=float)


def tsplib_distance(a: Point, points: np.ndarray, mode: MetricMode = MetricMode.EXACT) -> np.ndarray:
    """Distances from point ``a`` to each row of the (k, 2) array ``points``.

    Each is ``math.hypot`` of the two float coordinate differences.  ROUNDED
    follows the TSPLIB nearest-integer rule with halves rounded up.
    """
    dx = (a[0] - points[:, 0]).tolist()
    dy = (a[1] - points[:, 1]).tolist()
    d = np.fromiter(map(math.hypot, dx, dy), float, len(dx))
    if mode is MetricMode.ROUNDED:
        d += 0.5
        np.floor(d, out=d)
    return d


_SUPPORTED_EDGE_WEIGHT_TYPES = {"EUC_2D"}
_TERMINAL_KEYS = {"EOF"}
_UNSUPPORTED_SECTIONS = {
    "EDGE_WEIGHT_SECTION",
    "DISPLAY_DATA_SECTION",
    "TOUR_SECTION",
    "DEPOT_SECTION",
    "DEMAND_SECTION",
    "FIXED_EDGES_SECTION",
}


def _split_header(line: str) -> tuple[str, str]:
    if ":" in line:
        key, value = line.split(":", 1)
        return key.strip().upper(), value.strip()
    parts = line.split(None, 1)
    key = parts[0].strip().upper()
    value = parts[1].strip() if len(parts) > 1 else ""
    return key, value


def parse(text: str) -> PointCloud:
    """Parse TSPLIB text into a :class:`PointCloud`.

    Header keys may appear in any order and use ``KEY: value`` or ``KEY value``
    form; an ``EOF`` terminator and flexible whitespace are tolerated.  The
    file indices in NODE_COORD_SECTION are preserved verbatim; a ``nan`` or
    ``inf`` coordinate is rejected with the line it is on.
    """
    name = ""
    dimension: int | None = None
    edge_weight_type: str | None = None
    points: list[tuple[int, float, float]] = []
    seen_coord_section = False

    lines = text.splitlines()
    i = 0
    while i < len(lines):
        lineno = i + 1
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        key, value = _split_header(line)
        if key in _TERMINAL_KEYS:
            break
        if key in _UNSUPPORTED_SECTIONS:
            raise TsplibParseError(f"unsupported section {key}", lineno)
        if seen_coord_section and key.lstrip("+-").isdigit():
            raise TsplibParseError(
                f"NODE_COORD_SECTION has more rows than DIMENSION {dimension}", lineno
            )
        if key == "NAME":
            name = value
        elif key == "DIMENSION":
            if dimension is not None:
                raise TsplibParseError("repeated DIMENSION", lineno)
            try:
                dimension = int(value)
            except ValueError:
                raise TsplibParseError(f"DIMENSION is not an integer: {value!r}", lineno) from None
            if dimension < 1:
                raise TsplibParseError(f"DIMENSION must be at least 1, got {dimension}", lineno)
        elif key == "EDGE_WEIGHT_TYPE":
            edge_weight_type = value.upper()
            if edge_weight_type not in _SUPPORTED_EDGE_WEIGHT_TYPES:
                raise TsplibParseError(
                    f"unsupported EDGE_WEIGHT_TYPE {edge_weight_type}", lineno
                )
        elif key == "NODE_COORD_SECTION":
            if dimension is None:
                raise TsplibParseError("NODE_COORD_SECTION before DIMENSION", lineno)
            if edge_weight_type is None:
                raise TsplibParseError("NODE_COORD_SECTION before EDGE_WEIGHT_TYPE", lineno)
            seen_coord_section = True
            while i < len(lines) and len(points) < dimension:
                row_no = i + 1
                row = lines[i].strip()
                i += 1
                if not row:
                    continue
                if row.split(None, 1)[0].upper() in _TERMINAL_KEYS:
                    i -= 1
                    break
                fields = row.split()
                if len(fields) != 3:
                    raise TsplibParseError(
                        f"NODE_COORD_SECTION row needs 'id x y', got {row!r}", row_no
                    )
                try:
                    idx, x, y = int(fields[0]), float(fields[1]), float(fields[2])
                except ValueError:
                    raise TsplibParseError(
                        f"NODE_COORD_SECTION row is not numeric: {row!r}", row_no
                    ) from None
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise TsplibParseError(
                        f"NODE_COORD_SECTION row has a non-finite coordinate: {row!r}", row_no
                    )
                points.append((idx, x, y))
            if len(points) < dimension:
                raise TsplibParseError(
                    f"NODE_COORD_SECTION ended after {len(points)} of {dimension} rows",
                    i,
                )
        # other header keys (TYPE, COMMENT, ...) are ignored

    if dimension is None:
        raise TsplibParseError("missing DIMENSION keyword")
    if edge_weight_type is None:
        raise TsplibParseError("missing EDGE_WEIGHT_TYPE keyword")
    if not seen_coord_section:
        raise TsplibParseError("missing NODE_COORD_SECTION")
    return PointCloud(name=name, points=tuple(points))


def parse_file(path: str | Path) -> PointCloud:
    path = Path(path)
    cloud = parse(path.read_text())
    if not cloud.name:
        cloud = replace(cloud, name=path.stem)
    return cloud


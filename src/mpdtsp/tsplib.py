"""TSPLIB point-cloud files: parsing and distance conventions.

Only 2D coordinate instances (``EDGE_WEIGHT_TYPE: EUC_2D``) are supported.
Matrix-based instances (``EXPLICIT``), geographic coordinates (``GEO``) and
tour files are rejected with a :class:`TsplibParseError` naming the offending
keyword and line, as are a ``DIMENSION`` below 1 or given twice.  A parsed
:class:`PointCloud` holds exactly ``DIMENSION`` points as two arrays, the file
indices and the coordinates, both in file order; :func:`parse` reads the text
in one pass over its lines.  :func:`cost_matrix` is the one source of arc
costs, under either :class:`MetricMode` convention.
"""

from __future__ import annotations

import math
import weakref
from contextlib import nullcontext
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np


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


@dataclass(frozen=True, eq=False)
class PointCloud:
    """A named point cloud in file order: the file indices and the coordinates."""

    name: str
    ids: np.ndarray       # (m,) int file indices
    coords: np.ndarray    # (m, 2) float x, y

    def __len__(self) -> int:
        return len(self.ids)


#: cells one row block of :func:`cost_matrix` covers; its nine float64
#: scratch arrays of this length take 504 KiB
DISTANCE_BLOCK = 7168

_SCRATCH_ROWS = 9
_VELTKAMP = np.float64(2.0**27 + 1.0)
_ONE = np.float64(1.0)
# (_SCALE_BITS - (bits of m & _EXPONENT)) are the bits of 2**-e, where
# m = f * 2**e with 0.5 <= f < 1, for m = 0 or 2**-1022 <= m < 2**1022
_EXPONENT = np.int64(0x7FF << 52)
_SCALE_BITS = np.int64(2045 << 52)
# a coordinate of magnitude 0 or in [2**-969, 2**1020), whose frexp exponent
# is in [-968, 1020], is a multiple of 2**-1021 below 2**1020, so a
# difference of two such coordinates is 0 or in [2**-1021, 2**1021]: a cell
# the exponent-bit scale gets right
_TAME_EXPONENTS = (-968, 1020)


def _square(x: np.ndarray, p: np.ndarray, e: np.ndarray, t: np.ndarray, u: np.ndarray) -> None:
    """``p = x*x`` rounded and ``e = x*x - p`` exactly (Dekker 1971, Veltkamp split).

    ``e`` may be ``x``; ``t`` and ``u`` are scratch.
    """
    np.multiply(x, _VELTKAMP, t)
    np.subtract(t, x, u)
    np.subtract(t, u, t)    # hi: x's leading 26 bits
    np.subtract(x, t, u)    # lo = x - hi
    np.multiply(x, x, p)
    np.multiply(t, t, e)
    np.subtract(e, p, e)
    np.multiply(t, u, t)
    np.add(t, t, t)
    np.add(e, t, e)
    np.multiply(u, u, u)
    np.add(e, u, e)


def _hypot(work: np.ndarray, n: int) -> np.ndarray:
    """``math.hypot(dx, dy)`` of ``n`` cells, bit for bit, for cells with
    ``max(|dx|, |dy|)`` zero or in [2**-1022, 2**1022).

    ``work[:n]`` holds the dx and ``work[n:2n]`` the dy; ``work[:9n]`` is
    overwritten and the result is a view of it.  This is CPython's two-term
    ``vector_norm`` (Modules/mathmodule.c; Borges, arXiv:1904.09481) as
    whole-array steps: scale both terms by 2**-e so that the larger lies in
    [0.5, 1), add their exact squares to 1.0 with Fast2Sum, keeping the low
    parts in frac1 and frac2, take ``h = sqrt(csum - 1 + (frac1 + frac2))``,
    correct it once with ``csum - h*h`` in double length, and scale back.
    """
    xy = work[: 2 * n].reshape(2, n)
    scale = work[2 * n : 3 * n]
    p = work[3 * n : 5 * n].reshape(2, n)
    t = work[5 * n : 7 * n].reshape(2, n)
    u = work[7 * n : 9 * n].reshape(2, n)
    t_bits, scale_bits = t.view(np.int64), scale.view(np.int64)
    np.bitwise_and(xy.view(np.int64), _EXPONENT, t_bits)
    np.maximum(t_bits[0], t_bits[1], out=scale_bits)
    np.subtract(_SCALE_BITS, scale_bits, scale_bits)
    np.multiply(xy, scale, xy)
    _square(xy, p, xy, t, u)
    (frac1, h), (px, py), (t0, frac2), (csum, u1) = xy, p, t, u
    # csum = 1 + px + py by Fast2Sum; frac1 gets the squares' low parts and
    # frac2 the sums'
    np.add(px, _ONE, t0)
    np.subtract(t0, _ONE, frac2)
    np.subtract(px, frac2, frac2)
    np.add(t0, py, csum)
    np.subtract(csum, t0, u1)
    np.subtract(py, u1, u1)
    np.add(frac1, h, frac1)
    np.add(frac2, u1, frac2)
    np.subtract(csum, _ONE, h)
    np.add(frac1, frac2, u1)
    np.add(h, u1, h)
    np.sqrt(h, h)
    # add -h*h in double length; x = csum - 1 + (frac1 + frac2) is then the
    # residual, and h += x / (2h) the differential correction
    _square(h, px, py, t0, u1)
    np.subtract(csum, px, t0)
    np.subtract(t0, csum, u1)
    np.add(px, u1, u1)
    np.subtract(frac1, py, frac1)
    np.subtract(frac2, u1, frac2)
    np.subtract(t0, _ONE, t0)
    np.add(frac1, frac2, frac1)
    np.add(t0, frac1, t0)
    np.add(h, h, u1)
    # a zero cell has h = 0 and x = 0; everywhere else h >= 0.5
    np.maximum(u1, _ONE, out=u1)
    np.divide(t0, u1, t0)
    np.add(h, t0, h)
    np.divide(h, scale, h)
    return h


# per metric, (coordinate bytes, weak reference) of the last matrix built:
# one tuple, so that no reader pairs one build's key with another's matrix
_last = {mode: (b"", lambda: None) for mode in MetricMode}


def cost_matrix(coords: np.ndarray, mode: MetricMode) -> np.ndarray:
    """The (m, m) TSPLIB distances among the points of an (m, 2) coordinate array.

    A cell is ``math.hypot`` of its two float coordinate differences, bit
    for bit, so the EXACT golden tables stay put; a ROUNDED cell is the
    EXACT ``d`` rounded half up, ``floor(d + 0.5)``.  The matrix is
    read-only: while the last matrix built under a metric is alive, the same
    float64 coordinates, bit for bit, get that matrix back.  A ROUNDED
    matrix is derived from the EXACT one, got the same way, so a ROUNDED
    request runs :func:`_distances` only when neither matrix is alive.  They
    are held weakly, so no matrix outlives the instances that hold it.
    """
    key = np.asarray(coords, dtype=float).tobytes()
    last_key, last_ref = _last[mode]
    matrix = last_ref() if last_key == key else None
    if matrix is None:
        if mode is MetricMode.EXACT:
            matrix = _distances(coords)
        else:
            matrix = cost_matrix(coords, MetricMode.EXACT) + 0.5
            np.floor(matrix, out=matrix)
        matrix.flags.writeable = False
        _last[mode] = key, weakref.ref(matrix)
    return matrix


def _distances(coords: np.ndarray) -> np.ndarray:
    """The EXACT matrix of :func:`cost_matrix`, built afresh: :func:`_hypot`
    computes each cell, except where some coordinate is nonzero and below
    2**-969 or at least 2**1020 in magnitude.  Then the cells whose larger
    difference is subnormal, at least 2**1022 or inf go through
    ``math.hypot`` one by one.

    The upper triangle is filled in row blocks of at most
    :data:`DISTANCE_BLOCK` cells, or one row where a row is longer, each
    mirrored into the lower one: rows i0..i1-1 against columns i0..m-1, so a
    block also holds a small square of cells below the diagonal, which come
    out with the same bits as their mirrors.
    """
    m = coords.shape[0]
    x, y = np.ascontiguousarray(coords.T, dtype=float)
    exponents = np.frexp(coords)[1]   # 0 for 0.0
    exotic = bool(exponents.min() < _TAME_EXPONENTS[0] or exponents.max() > _TAME_EXPONENTS[1])
    # scratch for the largest block, which is less than DISTANCE_BLOCK when
    # the whole matrix is, and one row when a row is more
    work = np.empty(_SCRATCH_ROWS * min(m * m, max(DISTANCE_BLOCK, m)))
    cost = np.empty((m, m))
    i0 = 0
    while i0 < m:
        i1 = min(m, i0 + max(1, DISTANCE_BLOCK // (m - i0)))
        shape = (i1 - i0, m - i0)
        n = shape[0] * shape[1]
        dx, dy = work[:n], work[n : 2 * n]
        # a difference of finite coordinates can overflow to inf only when
        # some coordinate is exotic; the instance rejects it
        with np.errstate(over="ignore") if exotic else nullcontext():
            np.subtract(x[i0:i1, None], x[None, i0:], dx.reshape(shape))
            np.subtract(y[i0:i1, None], y[None, i0:], dy.reshape(shape))
        if not exotic:
            d = _hypot(work, n)
        else:
            larger = np.maximum(np.abs(dx), np.abs(dy))
            slow = np.flatnonzero((larger >= 2.0**1022) | ((larger < 2.0**-1022) & (larger > 0)))
            hypots = list(map(math.hypot, dx[slow].tolist(), dy[slow].tolist()))
            dx[slow] = dy[slow] = 0.0
            d = _hypot(work, n)
            d[slow] = hypots
        block = d.reshape(shape)
        cost[i0:i1, i0:] = block
        cost[i0:, i0:i1] = block.T
        i0 = i1
    return cost


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
    """``KEY: value`` or ``KEY value`` as (upper-case key, value)."""
    key, *value = line.split(":" if ":" in line else None, 1)
    return key.strip().upper(), value[0].strip() if value else ""


def _cut_short(rows: int, dimension: int, line: int) -> TsplibParseError:
    return TsplibParseError(f"NODE_COORD_SECTION ended after {rows} of {dimension} rows", line)


def parse(text: str) -> PointCloud:
    """Parse TSPLIB text into a :class:`PointCloud`.

    Header keys may appear in any order and use ``KEY: value`` or ``KEY value``
    form; an ``EOF`` terminator and flexible whitespace are tolerated.  The
    file indices in NODE_COORD_SECTION are preserved verbatim; a ``nan`` or
    ``inf`` coordinate is rejected with the line it is on.  The section holds
    the next ``DIMENSION`` nonblank rows; a row whose first field is ``EOF``
    cuts it short.
    """
    name = ""
    dimension: int | None = None
    edge_weight_type: str | None = None
    ids: list[int] = []
    xy: list[tuple[float, float]] = []
    in_section = False

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if in_section:
            fields = line.split()
            if fields[0].upper() in _TERMINAL_KEYS:    # the section ended on the line before
                raise _cut_short(len(ids), dimension, lineno - 1)
            if len(fields) != 3:
                raise TsplibParseError(f"NODE_COORD_SECTION row needs 'id x y', got {line!r}", lineno)
            try:
                idx, x, y = int(fields[0]), float(fields[1]), float(fields[2])
            except ValueError:
                raise TsplibParseError(f"NODE_COORD_SECTION row is not numeric: {line!r}", lineno) from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise TsplibParseError(
                    f"NODE_COORD_SECTION row has a non-finite coordinate: {line!r}", lineno
                )
            ids.append(idx)
            xy.append((x, y))
            in_section = len(ids) < dimension
            continue
        key, value = _split_header(line)
        if key in _TERMINAL_KEYS:
            break
        if key in _UNSUPPORTED_SECTIONS:
            raise TsplibParseError(f"unsupported section {key}", lineno)
        if ids and key.lstrip("+-").isdigit():    # a row after the full section
            raise TsplibParseError(f"NODE_COORD_SECTION has more rows than DIMENSION {dimension}", lineno)
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
                raise TsplibParseError(f"unsupported EDGE_WEIGHT_TYPE {edge_weight_type}", lineno)
        elif key == "NODE_COORD_SECTION":
            if dimension is None:
                raise TsplibParseError("NODE_COORD_SECTION before DIMENSION", lineno)
            if edge_weight_type is None:
                raise TsplibParseError("NODE_COORD_SECTION before EDGE_WEIGHT_TYPE", lineno)
            in_section = not ids    # a second section header takes no rows
        # other header keys (TYPE, COMMENT, ...) are ignored

    if in_section:
        raise _cut_short(len(ids), dimension, lineno)
    if dimension is None:
        raise TsplibParseError("missing DIMENSION keyword")
    if edge_weight_type is None:
        raise TsplibParseError("missing EDGE_WEIGHT_TYPE keyword")
    if not ids:
        raise TsplibParseError("missing NODE_COORD_SECTION")
    return PointCloud(name, np.array(ids), np.array(xy, dtype=float))


def parse_file(path: str | Path) -> PointCloud:
    """Parse a TSPLIB file, named by its stem when it has no NAME."""
    path = Path(path)
    cloud = parse(read_utf8(path))
    if not cloud.name:
        cloud = replace(cloud, name=path.stem)
    return cloud


def read_utf8(path: Path) -> str:
    """The text of any file the package reads, as UTF-8 in any locale."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TsplibParseError(f"cannot decode {path}: {exc}") from None

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reference_checkers import reference_cost_matrix
from mpdtsp import Instance, paired_loads
from mpdtsp import tsplib
from mpdtsp.tsplib import MetricMode, TsplibParseError, cost_matrix, parse

MINIMAL = """\
NAME: tiny
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 4
3 10 0
EOF
"""


def test_parse_minimal_file():
    cloud = parse(MINIMAL)
    assert cloud.name == "tiny"
    assert len(cloud) == 3
    assert cloud.ids.tolist() == [1, 2, 3]
    assert cloud.coords.tolist() == [[0.0, 0.0], [3.0, 4.0], [10.0, 0.0]]
    assert cloud.coords.dtype == float and cloud.coords.shape == (3, 2)


def test_parse_eil51(eil51_cloud):
    assert len(eil51_cloud) == 51
    assert (eil51_cloud.ids[0], *eil51_cloud.coords[0]) == (1, 37.0, 52.0)
    assert (eil51_cloud.ids[-1], *eil51_cloud.coords[-1]) == (51, 30.0, 40.0)


def test_key_order_and_whitespace_flexible():
    text = (
        "DIMENSION :  2\n"
        "EDGE_WEIGHT_TYPE\tEUC_2D\n"
        "NAME  loose\n\n"
        "NODE_COORD_SECTION\n"
        "  1   1.5   2.5\n"
        "  2   0     0\n"
    )
    cloud = parse(text)
    assert cloud.name == "loose"
    assert (cloud.ids[0], *cloud.coords[0]) == (1, 1.5, 2.5)


def test_eof_token_optional():
    assert len(parse(MINIMAL.replace("EOF\n", ""))) == 3


def test_dimension_mismatch_fewer_rows():
    broken = MINIMAL.replace("DIMENSION: 3", "DIMENSION: 5").replace("EOF\n", "")
    with pytest.raises(TsplibParseError, match="NODE_COORD_SECTION ended after 3 of 5"):
        parse(broken)


def test_dimension_mismatch_extra_rows():
    broken = MINIMAL.replace("DIMENSION: 3", "DIMENSION: 2")
    with pytest.raises(TsplibParseError, match="more rows than DIMENSION"):
        parse(broken)


@pytest.mark.parametrize("value", ["0", "-3"])
def test_dimension_below_one_rejected_with_line(value):
    with pytest.raises(TsplibParseError, match=f"line 3: DIMENSION must be at least 1, got {value}"):
        parse(MINIMAL.replace("DIMENSION: 3", f"DIMENSION: {value}"))


def test_repeated_dimension_rejected_with_line():
    with pytest.raises(TsplibParseError, match="line 4: repeated DIMENSION"):
        parse(MINIMAL.replace("DIMENSION: 3\n", "DIMENSION: 3\nDIMENSION: 3\n"))
    # also after the coordinates, which the new value would contradict
    with pytest.raises(TsplibParseError, match="line 9: repeated DIMENSION"):
        parse(MINIMAL.replace("EOF\n", "DIMENSION: 4\nEOF\n"))


def test_missing_coord_section():
    with pytest.raises(TsplibParseError, match="NODE_COORD_SECTION"):
        parse("NAME: x\nDIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nEOF\n")


@pytest.mark.parametrize("ewt", ["EXPLICIT", "GEO", "ATT", "CEIL_2D"])
def test_unsupported_edge_weight_types(ewt):
    with pytest.raises(TsplibParseError, match=f"EDGE_WEIGHT_TYPE {ewt}"):
        parse(MINIMAL.replace("EUC_2D", ewt))


def test_unsupported_sections_named_with_line():
    text = "DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nEDGE_WEIGHT_SECTION\n1 2\n"
    with pytest.raises(TsplibParseError, match="line 3: unsupported section EDGE_WEIGHT_SECTION"):
        parse(text)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_coordinate_rejected_with_line(bad):
    with pytest.raises(TsplibParseError, match="line 7: .*non-finite coordinate"):
        parse(MINIMAL.replace("2 3 4", f"2 3 {bad}"))
    with pytest.raises(TsplibParseError, match="line 8: .*non-finite coordinate"):
        parse(MINIMAL.replace("3 10 0", f"3 {bad} 0"))


def _short(dimension, tail):
    """MINIMAL declaring ``dimension`` rows, its ``EOF`` line replaced by ``tail``."""
    return MINIMAL.replace("DIMENSION: 3", f"DIMENSION: {dimension}").replace("EOF\n", tail)


#: (text, line, message) of every parser error, as ``parse`` reports them
PARSE_ERRORS = {
    "short-at-eof": (_short(5, "EOF\n"), 8, "NODE_COORD_SECTION ended after 3 of 5 rows"),
    "short-at-eof-after-blanks": (_short(5, "\n\neof 1\n"), 10,
                                  "NODE_COORD_SECTION ended after 3 of 5 rows"),
    "short-after-blanks": (_short(5, "\n\n"), 10, "NODE_COORD_SECTION ended after 3 of 5 rows"),
    "short-at-end-of-text": (_short(5, ""), 8, "NODE_COORD_SECTION ended after 3 of 5 rows"),
    "empty-section": (MINIMAL.split("1 0 0")[0], 5, "NODE_COORD_SECTION ended after 0 of 3 rows"),
    "four-fields": (MINIMAL.replace("2 3 4", "2 3 4 5"), 7,
                    "NODE_COORD_SECTION row needs 'id x y', got '2 3 4 5'"),
    "non-numeric": (MINIMAL.replace("2 3 4", "2 x 4"), 7,
                    "NODE_COORD_SECTION row is not numeric: '2 x 4'"),
    "header-in-section": (MINIMAL.replace("2 3 4", "NAME: x"), 7,
                          "NODE_COORD_SECTION row needs 'id x y', got 'NAME: x'"),
    "section-before-dimension": (
        MINIMAL.replace("DIMENSION: 3\n", "").replace("EOF", "DIMENSION: 3"), 4,
        "NODE_COORD_SECTION before DIMENSION",
    ),
    "section-before-edge-weight-type": (MINIMAL.replace("EDGE_WEIGHT_TYPE: EUC_2D\n", ""), 4,
                                       "NODE_COORD_SECTION before EDGE_WEIGHT_TYPE"),
    "dimension-not-integer": (MINIMAL.replace("DIMENSION: 3", "DIMENSION: 3.5"), 3,
                              "DIMENSION is not an integer: '3.5'"),
    "edge-weight-section": (MINIMAL.replace("NODE_COORD_SECTION", "EDGE_WEIGHT_SECTION"), 5,
                            "unsupported section EDGE_WEIGHT_SECTION"),
    "repeated-dimension": (MINIMAL.replace("EOF", "DIMENSION: 3"), 9, "repeated DIMENSION"),
    "second-section": (MINIMAL.replace("EOF", "NODE_COORD_SECTION\n4 1 1"), 10,
                       "NODE_COORD_SECTION has more rows than DIMENSION 3"),
    # inside the section only a first field of EOF ends it; EOF: is a row
    "eof-colon-in-short-section": (_short(5, "EOF:\n"), 9,
                                   "NODE_COORD_SECTION row needs 'id x y', got 'EOF:'"),
}


@pytest.mark.parametrize("case", list(PARSE_ERRORS))
def test_parse_error_message_and_line(case):
    text, line, message = PARSE_ERRORS[case]
    with pytest.raises(TsplibParseError) as info:
        parse(text)
    assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")


def test_nonconsecutive_indices_preserved():
    text = MINIMAL.replace("1 0 0", "7 0 0").replace("2 3 4", "9 3 4").replace("3 10 0", "4 10 0")
    assert parse(text).ids.tolist() == [7, 9, 4]


def distance(a, b, mode=MetricMode.EXACT):
    """The distance between two points, from their two-point cost matrix."""
    return cost_matrix(np.array([a, b], dtype=float), mode)[0, 1]


class TestDistance:
    def test_identity(self):
        for mode in (MetricMode.EXACT, MetricMode.ROUNDED):
            assert distance((0, 0), (0, 0), mode) == 0.0

    def test_pythagorean_triple(self):
        for mode in (MetricMode.EXACT, MetricMode.ROUNDED):
            assert distance((0, 0), (3, 4), mode) == 5.0

    def test_unit_diagonal(self):
        assert distance((0, 0), (1, 1)) == math.sqrt(2)
        assert distance((0, 0), (1, 1), MetricMode.ROUNDED) == 1.0

    def test_halves_round_up(self):
        assert distance((0, 0), (0.5, 0), MetricMode.ROUNDED) == 1.0
        assert distance((0, 0), (1.5, 0), MetricMode.ROUNDED) == 2.0

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.RandomState(42)
        for _ in range(200):
            a, b, c = [tuple(rng.uniform(-50, 50, 2)) for _ in range(3)]
            assert distance(a, b) == distance(b, a)
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12


#: where the parity cells' coordinates come from: an integer grid, the unit
#: square, reals of both signs over 24 orders of magnitude, and +-1e12
PARITY_SOURCES = {
    "integer-grid": lambda rng, m: rng.integers(0, 1000, (m, 2)).astype(float),
    "unit-square": lambda rng, m: rng.random((m, 2)),
    "wide-range": lambda rng, m: rng.uniform(-1, 1, (m, 2)) * 10.0 ** rng.integers(-12, 12, (m, 2)),
    "large": lambda rng, m: rng.uniform(-1e12, 1e12, (m, 2)),
}

_BELOW_2_1020 = math.nextafter(2.0**1020, 0.0)

#: point pairs at the edges of the kernel: zeros, subnormal and overflowing
#: differences, and the bounds of the coordinates it takes without fallback
EDGE_PAIRS = [
    ((0.0, 0.0), (0.0, 0.0)),
    ((3.5, -2.0), (3.5, -2.0)),                         # a repeated point
    ((0.0, -0.0), (-0.0, 0.0)),                         # signed zeros
    ((-0.0, -0.0), (0.0, 7.0)),
    ((5e-324, 5e-324), (0.0, 0.0)),                     # the smallest subnormal
    ((1e-310, 3e-310), (0.0, 0.0)),
    ((1e-310, 0.0), (3e-310, 1e-320)),
    ((2.0**-1023, 2.0**-1024), (0.0, 0.0)),
    ((2.0**-1022, 1e-308), (0.0, 0.0)),                 # the smallest normal larger difference
    ((1e-300, 1.0), (0.0, 0.0)),                        # one difference far below the other
    ((2.0**-969, 0.0), (math.nextafter(2.0**-969, 1.0), 0.0)),
    ((_BELOW_2_1020, 1.0), (-_BELOW_2_1020, 0.0)),      # the largest differences without fallback
    ((2.0**1021, 3.0), (0.0, 0.0)),
    ((2.0**1022, 3.0), (0.0, 0.0)),
    ((1.5e308, 1.5e308), (0.0, 0.0)),                   # hypot overflows to inf
    ((1e308, 0.0), (-1e308, 0.0)),                      # the difference itself overflows
]

#: every edge point, next to ordinary ones, and its pairwise reference matrix
EDGE_CLOUD = np.array([p for pair in EDGE_PAIRS for p in pair] + [(1.0, 2.0), (-3e5, 4e-3)])
EDGE_REFERENCE = reference_cost_matrix(EDGE_CLOUD, MetricMode.EXACT)


class TestDistanceParity:
    """Every distance is ``math.hypot`` of the coordinate differences, bit for bit."""

    @pytest.mark.parametrize("source", sorted(PARITY_SOURCES))
    def test_matrix_cells_match_math_hypot(self, kernel_runs, source):
        # 709 points: 250,986 distinct pairs a source, over a million in all
        coords = PARITY_SOURCES[source](np.random.default_rng(12), 709)
        inst = Instance.from_coords(coords, paired_loads([1.0] * 354), 1.0)
        assert kernel_runs == [709]
        assert inst.cost.tobytes() == reference_cost_matrix(coords, MetricMode.EXACT).tobytes()

    @pytest.mark.parametrize("mode", list(MetricMode))
    @pytest.mark.parametrize("a, b", EDGE_PAIRS)
    def test_edge_cells_match_math_hypot(self, kernel_runs, a, b, mode):
        expected = math.hypot(a[0] - b[0], a[1] - b[1])
        if mode is MetricMode.ROUNDED:
            expected = math.floor(expected + 0.5) if math.isfinite(expected) else expected
        assert distance(a, b, mode).hex() == float(expected).hex()
        assert distance(b, a, mode).hex() == float(expected).hex()
        assert kernel_runs == [2, 2]    # no matrix outlived its distance

    def test_cloud_of_edge_points_matches_reference(self):
        # every edge point in one block, next to ordinary ones
        assert cost_matrix(EDGE_CLOUD, MetricMode.EXACT).tobytes() == EDGE_REFERENCE.tobytes()

    @pytest.mark.parametrize("budget", [1, 16, 40])
    def test_edge_points_across_blocks_match_reference(self, monkeypatch, budget):
        # the scalar fallback cells spread over many row blocks, and over
        # one-row blocks where a row is longer than the budget; EXACT only,
        # since the reference cannot round an infinite distance
        monkeypatch.setattr(tsplib, "DISTANCE_BLOCK", budget)
        assert tsplib._distances(EDGE_CLOUD).tobytes() == EDGE_REFERENCE.tobytes()


@pytest.fixture
def hypot_runs(monkeypatch) -> list[int]:
    """The cell count of each run of the ``math.hypot`` kernel, ``tsplib._hypot``, from here on."""
    runs: list[int] = []
    kernel = tsplib._hypot

    def counted(work, n):
        runs.append(n)
        return kernel(work, n)

    monkeypatch.setattr(tsplib, "_hypot", counted)
    return runs


def integer_cloud(seed: int, bound: int, m: int = 240) -> np.ndarray:
    """``m`` integer points of magnitude below ``bound``, two opposite corners among them."""
    coords = np.random.default_rng(seed).integers(1 - bound, bound, (m, 2))
    coords[:2] = [[1 - bound, bound - 1], [bound - 1, 1 - bound]]
    return coords.astype(float)


class TestIntegerCloud:
    """A cloud of integers below 2**25 is built as ``sqrt(dx*dx + dy*dy)``,
    which is ``math.hypot`` bit for bit there."""

    def test_every_small_difference_matches_math_hypot(self, hypot_runs):
        # x-axis points 0..1024 against y-axis points -1..-1024: every
        # |dx|, |dy| <= 1024 (the sign squares away) in one 4.2 M-cell matrix
        ticks = np.arange(1025.0)
        cloud = np.concatenate([np.column_stack([ticks, 0 * ticks]), np.column_stack([0 * ticks, -ticks])[1:]])
        d = cost_matrix(cloud, MetricMode.EXACT)
        expected = np.array([[math.hypot(a, b) for b in range(1025)] for a in range(1025)])
        assert d[:1025, 0].tobytes() == expected[:, 0].tobytes()
        assert d[:1025, 1025:].tobytes() == expected[:, 1:].tobytes()
        assert hypot_runs == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_clouds_at_the_bound_match_math_hypot(self, hypot_runs, seed):
        # differences up to 2**26 - 2, whose squares sum to just under 2**53
        coords = integer_cloud(seed, 2**25)
        for mode in MetricMode:
            assert cost_matrix(coords, mode).tobytes() == reference_cost_matrix(coords, mode).tobytes()
        assert hypot_runs == []

    def test_a_half_coordinate_takes_the_kernel(self, hypot_runs):
        coords = integer_cloud(4, 1000, m=31)
        tsplib._distances(coords)
        assert hypot_runs == []
        coords[17, 1] += 0.5
        assert tsplib._distances(coords).tobytes() == reference_cost_matrix(coords, MetricMode.EXACT).tobytes()
        assert hypot_runs == [31 * 31]

    def test_a_cloud_past_the_bound_matches_math_hypot(self, hypot_runs):
        # differences up to 2**27 - 2: squares that round, where only the
        # kernel matches math.hypot
        coords = integer_cloud(5, 2**26)
        assert tsplib._distances(coords).tobytes() == reference_cost_matrix(coords, MetricMode.EXACT).tobytes()
        assert hypot_runs


#: from the oldest Python pyproject.toml admits to the newest checked; the
#: running one is checked in-process above
PYTHON_VERSIONS = ("3.10", "3.11", "3.12", "3.13")
RUNNING_VERSION = "{}.{}".format(*sys.version_info)

#: stdlib-only: math.hypot of every (row, column) coordinate difference of
#: each cloud, the clouds' point counts in argv and their coordinates on stdin
HYPOT_CHILD = """\
import math, sys
from array import array
xy, out, start = array("d", sys.stdin.buffer.read()), array("d"), 0
for m in map(int, sys.argv[1:]):
    x, y = xy[start : start + 2 * m : 2], xy[start + 1 : start + 2 * m : 2]
    out.extend(math.hypot(a - b, c - d) for a, c in zip(x, y) for b, d in zip(x, y))
    start += 2 * m
sys.stdout.buffer.write(out.tobytes())
"""


def installed_python(version: str) -> str | None:
    """An interpreter of this version from pyenv's versions directory, else from PATH."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    for home in sorted(versions.glob(f"{version}.*"), reverse=True):
        if (home / "bin" / "python3").is_file():
            return str(home / "bin" / "python3")
    found = shutil.which(f"python{version}")
    # a pyenv shim runs whichever version pyenv selects, or fails
    return None if found is None or Path(found).parent.name == "shims" else found


def hypot_parity_clouds() -> list[np.ndarray]:
    """25,600 cells of each kind: integer, unit-square, 25 clouds of 32
    points at scales 1e-300, 1e-275, ..., 1e300, so differences span them
    all, and integers of magnitude below 2**25, the exact-square bound."""
    rng = np.random.default_rng(26)
    wide = [rng.uniform(-1, 1, (32, 2)) * 10.0**e for e in np.linspace(-300, 300, 25).astype(int)]
    return [rng.integers(-1000, 1000, (160, 2)).astype(float), rng.random((160, 2)), *wide,
            rng.integers(1 - 2**25, 2**25, (160, 2)).astype(float)]


@pytest.mark.parametrize("version", [v for v in PYTHON_VERSIONS if v != RUNNING_VERSION])
def test_kernel_matches_other_interpreters_math_hypot(version):
    python = installed_python(version)
    if python is None:
        pytest.skip(f"no Python {version} found")
    clouds = hypot_parity_clouds()
    result = subprocess.run(
        [python, "-I", "-c", HYPOT_CHILD, *(str(len(c)) for c in clouds)],
        input=np.concatenate(clouds).tobytes(), capture_output=True, check=True)
    theirs = np.frombuffer(result.stdout, dtype=np.float64)
    ours = np.concatenate([cost_matrix(c, MetricMode.EXACT).ravel() for c in clouds])
    assert theirs.size == ours.size == 4 * 25_600
    mismatched = np.flatnonzero(theirs.view(np.uint64) != ours.view(np.uint64))
    assert mismatched.size == 0, f"{mismatched.size} cells differ, first at flat index {mismatched[:1]}"

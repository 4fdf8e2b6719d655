import math

import numpy as np
import pytest

from mpdtsp.tsplib import (
    MetricMode,
    TsplibParseError,
    parse,
    tsplib_distance,
)

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
    assert cloud.points == ((1, 0.0, 0.0), (2, 3.0, 4.0), (3, 10.0, 0.0))


def test_parse_eil51(eil51_cloud):
    assert len(eil51_cloud) == 51
    assert eil51_cloud.points[0] == (1, 37.0, 52.0)
    assert eil51_cloud.points[-1] == (51, 30.0, 40.0)


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
    assert cloud.points[0] == (1, 1.5, 2.5)


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


def test_nonconsecutive_indices_preserved():
    text = MINIMAL.replace("1 0 0", "7 0 0").replace("2 3 4", "9 3 4").replace("3 10 0", "4 10 0")
    assert [idx for idx, _, _ in parse(text).points] == [7, 9, 4]


def distance(a, b, mode=MetricMode.EXACT):
    """The row form of ``tsplib_distance`` on one pair."""
    return tsplib_distance(a, np.array([b], dtype=float), mode)[0]


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

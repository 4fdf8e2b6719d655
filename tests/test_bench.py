import csv
import re
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import CORPUS_DIR
from mpdtsp import tsplib
from mpdtsp.bench import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    emit_csv,
    emit_svg_histogram,
    ratio_bucket,
    run_corpus,
    summarize,
)
from mpdtsp.generate import MIN_CLOUD_POINTS, Direction


def row(instance="a", direction="pickups-central", q=2, heuristic="NNH",
        cost=10.0, wall=0.5, nodes=5, init=0, dead=0):
    # by keyword, so the CSV tests see the field order that emit_csv writes
    return ResultRow(instance=instance, direction=direction, capacity_items=q, heuristic=heuristic,
                     best_cost=cost, wall_time_s=wall, node_count=nodes, init_of_best=init,
                     dead_end_count=dead)


def paired_rows(spec):
    """spec: list of (instance, direction, q, nnh_cost, cih_cost[, nnh_t, cih_t, nodes])."""
    rows = []
    for entry in spec:
        name, direction, q, nnh_cost, cih_cost = entry[:5]
        nnh_t, cih_t, nodes = entry[5:] if len(entry) == 8 else (0.1, 0.5, 7)
        rows.append(row(name, direction, q, "NNH", nnh_cost, nnh_t, nodes))
        rows.append(row(name, direction, q, "CIH", cih_cost, cih_t, nodes))
    return rows


#: ``golden_summary.svg`` is the chart of these rows: both directions, Q=2 and 4,
#: 11 and 21 nodes, one NNH/CIH tie and fixed wall times.  Rewrite it only for a
#: deliberate chart change, with ``emit_svg_histogram(summarize(paired_rows(SUMMARY_SPEC)), path)``.
SUMMARY_SPEC = [
    ("a", "pickups-central", 2, 10.0, 11.0, 0.1, 0.2, 11),
    ("a", "pickups-central", 4, 10.0, 10.0, 0.1, 0.3, 11),
    ("a", "deliveries-central", 2, 10.0, 12.5, 0.1, 0.4, 11),
    ("a", "deliveries-central", 4, 10.0, 9.0, 0.2, 0.5, 11),
    ("b", "pickups-central", 2, 20.0, 21.0, 0.2, 0.6, 21),
    ("b", "deliveries-central", 4, 20.0, 23.0, 0.25, 1.0, 21),
]
GOLDEN_SUMMARY_SVG = Path(__file__).with_name("golden_summary.svg")


@pytest.fixture(scope="module")
def eil51_only(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    (corpus / "eil51.tsp").write_text((CORPUS_DIR / "eil51.tsp").read_text())
    return corpus


class TestRunCorpus:
    def test_eil51_sweep_yields_twenty_ordered_rows(self, eil51_only):
        rows = run_corpus(ExperimentConfig(corpus_dir=eil51_only))
        assert len(rows) == 20  # 1 file x 2 directions x 5 capacities x 2 heuristics
        assert [r.sort_key() for r in rows] == sorted(r.sort_key() for r in rows)
        assert all(r.node_count == 51 for r in rows)

    def test_rerun_identical_modulo_wall_time(self, eil51_only):
        config = ExperimentConfig(corpus_dir=eil51_only, capacities=(2, 10))
        strip = lambda rows: [replace(r, wall_time_s=0.0) for r in rows]  # noqa: E731
        assert strip(run_corpus(config)) == strip(run_corpus(config))

    def test_each_file_parsed_once(self, eil51_only, monkeypatch):
        calls = []
        parse_file = tsplib.parse_file

        def counting_parse_file(path):
            calls.append(path)
            return parse_file(path)

        monkeypatch.setattr(tsplib, "parse_file", counting_parse_file)
        config = ExperimentConfig(corpus_dir=eil51_only, capacities=(2, 10))
        assert len(run_corpus(config)) == 8
        assert len(calls) == 1

    def test_empty_corpus_is_an_error(self, tmp_path):
        expected = f"no instances: {re.escape(str(tmp_path))} holds 0 .tsp files$"
        with pytest.raises(ValueError, match=expected):
            run_corpus(ExperimentConfig(corpus_dir=tmp_path))

    def test_unparsable_file_skipped_with_warning(self, eil51_only, tmp_path, caplog):
        corpus = tmp_path / "mixed"
        corpus.mkdir()
        (corpus / "eil51.tsp").write_text((CORPUS_DIR / "eil51.tsp").read_text())
        (corpus / "bad.tsp").write_text("DIMENSION: 3\nEDGE_WEIGHT_TYPE: GEO\n")
        (corpus / "negative.tsp").write_text(
            "DIMENSION: -3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\nEOF\n"
        )
        (corpus / "two.tsp").write_text(
            "DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n"
        )
        config = ExperimentConfig(corpus_dir=corpus, capacities=(2,))
        with caplog.at_level("WARNING"):
            rows = run_corpus(config)
        assert len(rows) == 4
        for name in ("bad.tsp", "negative.tsp", "two.tsp"):
            assert any(name in message for message in caplog.messages)

    def test_repeated_name_skipped_with_warning(self, tmp_path, caplog):
        def cloud_text(points):
            coords = [f"{i + 1} {(7 * i) % points} {(3 * i * i) % points}" for i in range(points)]
            return "\n".join(["NAME: same", f"DIMENSION: {points}", "EDGE_WEIGHT_TYPE: EUC_2D",
                              "NODE_COORD_SECTION", *coords, "EOF", ""])

        (tmp_path / "a.tsp").write_text(cloud_text(11))
        (tmp_path / "b.tsp").write_text(cloud_text(13))
        config = ExperimentConfig(corpus_dir=tmp_path, capacities=(2,))
        with caplog.at_level("WARNING"):
            rows = run_corpus(config)
        assert len(rows) == 4
        assert all(r.node_count == 11 for r in rows)
        assert any("b.tsp" in message and "a.tsp" in message for message in caplog.messages)

    def test_max_nodes_filter(self, eil51_only):
        config = ExperimentConfig(corpus_dir=eil51_only, max_nodes=50)
        with pytest.raises(ValueError, match="no instances: .* holds 1 .tsp files; "
                                             "skipped eil51.tsp: 51 nodes exceeds max_nodes=50$"):
            run_corpus(config)

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="capacities"):
            ExperimentConfig(corpus_dir=tmp_path, capacities=())
        with pytest.raises(ValueError, match="capacities"):
            ExperimentConfig(corpus_dir=tmp_path, capacities=(2, 2))
        with pytest.raises(ValueError, match="directions"):
            ExperimentConfig(corpus_dir=tmp_path, directions=(Direction.PICKUPS_CENTRAL,) * 2)
        with pytest.raises(ValueError, match="directions"):
            ExperimentConfig(corpus_dir=tmp_path, directions=())
        for max_nodes in (-5, 0, MIN_CLOUD_POINTS - 1):
            with pytest.raises(ValueError, match=f"max_nodes must be at least {MIN_CLOUD_POINTS}"):
                ExperimentConfig(corpus_dir=tmp_path, max_nodes=max_nodes)
        assert ExperimentConfig(corpus_dir=tmp_path, max_nodes=MIN_CLOUD_POINTS).max_nodes == 3


class TestSummarize:
    def test_ties_count_as_nnh_wins(self):
        summary = summarize(paired_rows([("a", "pickups-central", 2, 10.0, 10.0)]))
        ds = summary.directions["pickups-central"]
        assert ds.nnh_wins == 1
        assert ds.win_fraction == 1.0

    def test_hand_built_win_fraction(self):
        # CIH/NNH ratios 0.9, 1.0 and 1.2: NNH wins two of three
        rows = paired_rows(
            [
                ("a", "pickups-central", 2, 10.0, 9.0),
                ("b", "pickups-central", 2, 10.0, 10.0),
                ("c", "pickups-central", 2, 10.0, 12.0),
            ]
        )
        summary = summarize(rows)
        assert summary.directions["pickups-central"].win_fraction == pytest.approx(2 / 3)
        assert summary.overall_win_fraction == pytest.approx(2 / 3)
        assert summary.max_cost_reduction == pytest.approx(2.0 / 12.0)

    def test_histogram_bucketing(self):
        rows = paired_rows(
            [
                ("a", "pickups-central", 2, 10.0, 10.0),
                ("b", "pickups-central", 2, 10.0, 10.0),
                ("c", "pickups-central", 2, 10.0, 11.0),
            ]
        )
        hist = dict(summarize(rows).directions["pickups-central"].ratio_histogram)
        assert hist == {1.0: 2, 1.1: 1}

    def test_ratio_bucket_edges(self):
        assert ratio_bucket(1.0) == 1.0
        assert ratio_bucket(1.019) == 1.0
        assert ratio_bucket(1.02) == 1.02
        assert ratio_bucket(0.999) == 0.98

    def test_quartiles_per_capacity_and_node_count(self):
        rows = paired_rows(
            [
                ("a", "pickups-central", 2, 10.0, 11.0, 0.1, 0.2, 11),
                ("b", "pickups-central", 2, 10.0, 13.0, 0.1, 0.4, 11),
                ("c", "pickups-central", 4, 10.0, 15.0, 0.1, 0.8, 21),
            ]
        )
        summary = summarize(rows)
        assert set(summary.ratio_by_capacity) == {2, 4}
        assert summary.ratio_by_capacity[2].median == pytest.approx(1.2)
        assert summary.ratio_by_capacity[4].median == pytest.approx(1.5)
        assert set(summary.time_ratio_by_node_count) == {11, 21}
        assert summary.time_ratio_by_node_count[11].median == pytest.approx(3.0)

    def test_unpaired_rows_rejected(self):
        with pytest.raises(ValueError, match="unpaired"):
            summarize([row(heuristic="NNH")])

    def test_repeated_rows_rejected(self):
        rows = paired_rows([("a", "pickups-central", 2, 10.0, 11.0)])
        with pytest.raises(ValueError, match="repeat"):
            summarize(rows + rows[:1])

    def test_permutation_invariant(self):
        rows = paired_rows(
            [
                ("a", "pickups-central", 2, 10.0, 11.0),
                ("b", "deliveries-central", 4, 9.0, 8.5),
                ("c", "pickups-central", 6, 7.0, 7.7),
            ]
        )
        assert summarize(rows) == summarize(list(reversed(rows)))

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="no result rows"):
            summarize([])


class TestEmitters:
    def test_csv_header_only_for_no_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_csv_fixed_order_and_content(self, tmp_path):
        rows = paired_rows(
            [
                ("b", "pickups-central", 2, 10.0, 11.0),
                ("a", "pickups-central", 2, 9.0, 9.5),
            ]
        )
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        assert lines[1:4] == ["a,pickups-central,2,CIH,9.5,0.5,7,0,0",
                              "a,pickups-central,2,NNH,9.0,0.1,7,0,0",
                              "b,pickups-central,2,CIH,11.0,0.5,7,0,0"]

    def test_csv_quotes_a_name_with_a_comma_or_quote(self, tmp_path):
        name = 'west,"east"'
        emit_csv(paired_rows([(name, "pickups-central", 2, 10.0, 11.0)]), tmp_path / "out.csv")
        with open(tmp_path / "out.csv", newline="") as f:
            header, *records = csv.reader(f)
        assert header == CSV_HEADER.split(",")
        assert [len(r) for r in records] == [9, 9]
        assert [r[0] for r in records] == [name, name]

    def test_csv_deterministic_bytes(self, tmp_path):
        rows = paired_rows([("a", "pickups-central", 2, 10.0, 11.0)])
        emit_csv(rows, tmp_path / "x.csv")
        emit_csv(rows, tmp_path / "y.csv")
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()

    def test_svg_is_wellformed_and_deterministic(self, tmp_path):
        rows = paired_rows(
            [
                ("a", "pickups-central", 2, 10.0, 11.0, 0.1, 0.2, 11),
                ("a", "deliveries-central", 2, 10.0, 12.0, 0.1, 0.3, 11),
                ("b", "pickups-central", 4, 10.0, 9.0, 0.2, 0.5, 21),
            ]
        )
        summary = summarize(rows)
        emit_svg_histogram(summary, tmp_path / "x.svg")
        emit_svg_histogram(summary, tmp_path / "y.svg")
        data = (tmp_path / "x.svg").read_bytes()
        assert data == (tmp_path / "y.svg").read_bytes()
        root = ET.fromstring(data.decode())
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("rect") for child in root.iter())

    def test_svg_matches_golden(self, tmp_path):
        emit_svg_histogram(summarize(paired_rows(SUMMARY_SPEC)), tmp_path / "summary.svg")
        assert (tmp_path / "summary.svg").read_bytes() == GOLDEN_SUMMARY_SVG.read_bytes()

    def test_csv_write_error_has_path_context(self, tmp_path):
        missing = tmp_path / "missing-dir"
        with pytest.raises(OSError, match=f"cannot write CSV to {re.escape(str(missing))}"):
            emit_csv([], missing / "out.csv")
        summary = summarize(paired_rows(SUMMARY_SPEC))
        with pytest.raises(OSError, match=f"cannot write SVG to {re.escape(str(missing))}"):
            emit_svg_histogram(summary, missing / "out.svg")

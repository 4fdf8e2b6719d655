import argparse
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CORPUS_DIR, TWO_PAIR_COORDS
from mpdtsp import (Direction, ExperimentConfig, Instance, MetricMode, ResultRow, bench,
                    paired_loads, write_instance)
import mpdtsp
from mpdtsp import cli
from mpdtsp.cli import _parser, main


@pytest.fixture
def one_pair_file(tmp_path):
    inst = Instance.from_coords([(0, 0), (1, 0), (0, 1)], paired_loads([1.0]), 1.0)
    path = tmp_path / "one.inst"
    write_instance(inst, path)
    return path


@pytest.fixture
def two_pair_file(tmp_path):
    inst = Instance.from_coords(TWO_PAIR_COORDS, paired_loads([1.0, 1.0]), 2.0)
    path = tmp_path / "two.inst"
    write_instance(inst, path)
    return path


#: the committed eil51 instance of demo 01: 25 pairs, ids 0..50, terminal alias 51
DEMO_25_PAIRS = CORPUS_DIR.parent / "demos" / "out" / "eil51-pickups-central-Q10.inst"

#: a TSPLIB header with two bytes that are not UTF-8
UNDECODABLE = b"NAME: bad\n\xff\xfe DIMENSION: 3\n"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInspect:
    def test_eil51_stats(self, capsys):
        code, out, _ = run(capsys, "inspect", CORPUS_DIR / "eil51.tsp")
        assert code == 0
        assert "points: 51" in out
        assert "derivable pairs: 25" in out

    @pytest.mark.parametrize("verb", ["inspect", "generate"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_coordinate_is_a_usage_error(self, capsys, tmp_path, verb, bad):
        path = tmp_path / "bad.tsp"
        path.write_text(
            "NAME: bad\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
            f"1 0 0\n2 {bad} 1\n3 2 2\nEOF\n"
        )
        argv = [verb, path]
        if verb == "generate":
            argv += ["--direction", "pickups-central", "--capacity", "1",
                     "--out", tmp_path / "bad.inst"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "line 6" in err and "non-finite" in err
        assert out == ""

    def test_undecodable_file_is_a_usage_error(self, capsys, tmp_path, one_pair_file):
        cloud, inst, tour = tmp_path / "zzz.tsp", tmp_path / "zzz.inst", tmp_path / "zzz.tour"
        cloud.write_bytes(UNDECODABLE)
        inst.write_bytes(one_pair_file.read_bytes().replace(b"1 PICKUP", b"1 \xffPICKUP"))
        tour.write_bytes(b"0\n\xff\n0\n")
        for argv, bad in ((["inspect", cloud], cloud), (["solve", inst], inst),
                          (["validate", one_pair_file, tour], tour)):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert f"cannot decode {bad}: " in err
            assert out == ""


class TestCLocale:
    """Every file is read and written as UTF-8, whatever the locale says."""

    #: a C locale with neither of Python's UTF-8 overrides: the locale encoding is ASCII
    ENV = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}

    def run_module(self, *argv) -> subprocess.CompletedProcess:
        env = {**os.environ, **self.ENV, "PYTHONPATH": str(Path(mpdtsp.__file__).parents[1])}
        env.pop("PYTHONIOENCODING", None)
        return subprocess.run([sys.executable, "-m", "mpdtsp", *map(str, argv)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def cloud(self, name: bytes) -> bytes:
        return (b"NAME: " + name + b"\nDIMENSION: 5\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
                b"1 0 0\n2 1 0\n3 2 0\n4 3 0\n5 4 1\nEOF\n")

    def test_generate_reads_and_writes_utf8(self, tmp_path):
        source, out_path = tmp_path / "cafe.tsp", tmp_path / "cafe.inst"
        source.write_bytes(self.cloud("café".encode()))
        done = self.run_module("generate", source, "--direction", "pickups-central",
                               "--capacity", "1", "--out", out_path)
        assert (done.returncode, done.stderr) == (0, b"")
        # the console cannot show the name, so it prints an escape instead
        assert done.stdout.startswith(b"caf\\xe9-pickups-central-Q1: 2 pairs")
        meta = (tmp_path / "cafe.inst.meta").read_bytes().decode("utf-8")
        assert "source=café\n" in meta

    def test_a_latin1_byte_is_a_usage_error_naming_the_file(self, tmp_path):
        source = tmp_path / "latin1.tsp"
        source.write_bytes(self.cloud("café".encode("latin-1")))
        done = self.run_module("inspect", source)
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.startswith(f"error: cannot decode {source}: 'utf-8' codec".encode())


class TestGenerate:
    def test_writes_instance_and_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "eil51.inst"
        code, out, _ = run(
            capsys, "generate", CORPUS_DIR / "eil51.tsp",
            "--direction", "deliveries-central", "--capacity", "10",
            "--out", out_path,
        )
        assert code == 0
        assert "25 pairs" in out
        assert out_path.exists()
        meta = (tmp_path / "eil51.inst.meta").read_text()
        assert "direction=deliveries-central" in meta
        assert "capacity_items=10" in meta
        assert "unit_load" not in meta

    def test_load_unit_is_not_an_option(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "generate", CORPUS_DIR / "eil51.tsp",
            "--direction", "pickups-central", "--capacity", "10", "--unit-load", "2.5",
            "--out", tmp_path / "x.inst",
        )
        assert code == 2

    def test_bad_direction_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "generate", CORPUS_DIR / "eil51.tsp",
            "--direction", "sideways", "--capacity", "10",
            "--out", tmp_path / "x.inst",
        )
        assert code == 2


class TestSolve:
    def test_both_heuristics_agree_on_forced_tour(self, capsys, one_pair_file):
        code, out, _ = run(capsys, "solve", one_pair_file, "--heuristic", "both",
                           "--init", "depot")
        assert code == 0
        assert "NNH tour: 0 1 2 0" in out
        assert "CIH tour: 0 1 2 0" in out

    def test_written_tour_round_trips_through_validate(self, capsys, two_pair_file, tmp_path):
        tour_path = tmp_path / "best.tour"
        table_path = tmp_path / "table.csv"
        code, out, _ = run(capsys, "solve", two_pair_file, "--table", table_path,
                           "--out", tour_path)
        assert code == 0
        code, out, _ = run(capsys, "validate", two_pair_file, tour_path)
        assert code == 0
        assert "feasible" in out
        table = table_path.read_text().splitlines()
        assert table[0] == "heuristic,init,cost,stall_step,nodes_left"
        assert len(table) == 1 + 2 * 5  # both heuristics, five starts each
        assert all(row.endswith(",,") for row in table[1:])  # no start stalled

    def test_dead_ends_show_their_stall_step(self, capsys, tmp_path):
        # from D1 the nearest-neighbor tour runs 3, 1, 0 and from D2 it runs
        # 4, 2, 0; then the item on board and the unmet precedence block the
        # two nodes left.  Cheapest insertion stalls there too, and its stall
        # step counts the same three distinct nodes placed.
        inst = Instance.from_coords(TWO_PAIR_COORDS, paired_loads([1.0, 1.0]), 1.0)
        path = tmp_path / "tight.inst"
        write_instance(inst, path)
        table_path = tmp_path / "table.csv"
        for heuristic in ("nnh", "cih"):
            code, out, _ = run(capsys, "solve", path, "--heuristic", heuristic, "--table", table_path)
            assert code == 0
            assert "2 dead ends" in out
            assert "     3  dead-end at step 3, 2 left" in out
            assert "     4  dead-end at step 3, 2 left" in out
            # the table file gives each dead end its stall step and nodes left
            name = heuristic.upper()
            assert table_path.read_text().splitlines()[-2:] == [f"{name},3,dead-end,3,2", f"{name},4,dead-end,3,2"]

    def test_single_node_init(self, capsys, two_pair_file):
        code, out, _ = run(capsys, "solve", two_pair_file, "--heuristic", "nnh",
                           "--init", "2")
        assert code == 0
        assert "start 2" in out

    def test_unreadable_init_names_the_flag(self, capsys):
        code, out, err = run(capsys, "solve", DEMO_25_PAIRS, "--init", "x")
        assert code == 2
        assert "argument --init: " in err and "'x'" in err
        assert out == ""

    @pytest.mark.parametrize("node", [99, -1])
    def test_init_out_of_range_is_usage_error(self, capsys, node):
        code, out, err = run(capsys, "solve", DEMO_25_PAIRS, "--init", node)
        assert code == 2
        assert f"node id {node} out of range" in err
        assert out == ""

    def test_terminal_alias_init_solves_from_the_depot(self, capsys):
        code, out, _ = run(capsys, "solve", DEMO_25_PAIRS, "--init", 51)
        assert code == 0
        assert out.count("(start 0, 1 starts ok, 0 dead ends)") == 2
        assert (code, out, "") == run(capsys, "solve", DEMO_25_PAIRS, "--init", "depot")

    def test_solve_and_validate_read_the_same_metric(self, capsys, tmp_path):
        # every verb reads the metric from the instance file, so both give one cost
        inst, tour_path = tmp_path / "eil51.inst", tmp_path / "r.tour"
        assert run(capsys, "generate", CORPUS_DIR / "eil51.tsp", "--direction", "pickups-central",
                   "--capacity", 2, "--metric", "rounded", "--out", inst)[0] == 0
        code, out, _ = run(capsys, "solve", inst, "--init", "depot", "--out", tour_path)
        assert code == 0
        best = min(float(line.split()[3]) for line in out.splitlines() if "best cost:" in line)
        assert best == int(best)  # rounded arcs
        code, out, _ = run(capsys, "validate", inst, tour_path)
        assert code == 0
        assert f"cost: {best!r}" in out

    def test_infeasible_instance_exits_one(self, capsys, tmp_path):
        inst = Instance.from_coords(
            TWO_PAIR_COORDS, paired_loads([1.0, 1.0]), 0.5
        )
        path = tmp_path / "bad.inst"
        write_instance(inst, path)
        code, _, err = run(capsys, "solve", path)
        assert code == 1
        assert "infeasible" in err

    def test_every_chosen_start_stalling_exits_one(self, capsys, tmp_path):
        inst = Instance.from_coords(TWO_PAIR_COORDS, paired_loads([1.0, 1.0]), 1.0)
        path = tmp_path / "tight.inst"
        write_instance(inst, path)
        code, out, err = run(capsys, "solve", path, "--init", 3)
        assert (code, out) == (1, "")
        assert err == "infeasible: no start produced a tour: start 3: dead end at step 3, 2 left\n"


class TestExact:
    def test_matches_brute_force_on_tight_fixture(self, capsys, tmp_path):
        inst = Instance.from_coords(TWO_PAIR_COORDS, paired_loads([1.0, 1.0]), 1.0)
        path = tmp_path / "tight.inst"
        write_instance(inst, path)
        code, out, _ = run(capsys, "exact", path)
        assert code == 0
        expected = 3.0 + math.sqrt(2.0) + math.sqrt(5.0)
        cost = float(out.splitlines()[0].split(":")[1])
        assert cost == pytest.approx(expected, abs=1e-9)

    def test_infeasible_exits_one(self, capsys, tmp_path):
        inst = Instance.from_coords(TWO_PAIR_COORDS, paired_loads([1.0, 1.0]), 0.5)
        path = tmp_path / "flagged.inst"
        write_instance(inst, path)
        code, out, _ = run(capsys, "exact", path)
        assert code == 1
        assert "infeasible" in out


class TestInternalError:
    """An exception no other exit code covers is a bug: exit 3, never 1 with a traceback."""

    def test_a_broken_invariant_exits_three(self, capsys, monkeypatch, one_pair_file):
        def broken(instance):
            raise RuntimeError("constructed tour violates the constraint system")
        monkeypatch.setattr(cli, "held_karp", broken)
        code, out, err = run(capsys, "exact", one_pair_file)
        assert (code, out) == (3, "")
        assert err == "internal error: RuntimeError: constructed tour violates the constraint system\n"

    def test_any_other_exception_exits_three(self, capsys, monkeypatch, one_pair_file):
        def broken(path):
            raise KeyError("PAIRS")
        monkeypatch.setattr(cli.files, "read_instance", broken)
        code, out, err = run(capsys, "exact", one_pair_file)
        assert (code, out) == (3, "")
        assert err == "internal error: KeyError: 'PAIRS'\n"


class TestNonFiniteInput:
    @pytest.mark.parametrize("verb", ["solve", "exact"])
    @pytest.mark.parametrize(
        "line,bad",
        [
            ("CAPACITY 2.0", "CAPACITY nan"),
            ("1 PICKUP 1 1.0 0.0 1.0", "1 PICKUP 1 nan 0.0 1.0"),
            ("1 PICKUP 1 1.0 0.0 1.0", "1 PICKUP 1 1.0 0.0 inf"),
            ("METRIC EXACT\n0 DEPOT 0 0.0 0.0", "METRIC ROUNDED\n0 DEPOT 0 inf 0.0"),
        ],
        ids=["nan-capacity", "nan-coordinate", "inf-load", "inf-coordinate-rounded"],
    )
    def test_is_a_usage_error(self, capsys, two_pair_file, verb, line, bad):
        text = two_pair_file.read_text()
        assert line in text
        two_pair_file.write_text(text.replace(line, bad))
        code, _, err = run(capsys, verb, two_pair_file)
        assert code == 2
        assert "finite" in err


class TestValidate:
    def test_infeasible_tour_exits_one(self, capsys, two_pair_file, tmp_path):
        tour_path = tmp_path / "bad.tour"
        tour_path.write_text("0\n3\n1\n2\n4\n0\n")
        code, out, _ = run(capsys, "validate", two_pair_file, tour_path)
        assert code == 1
        assert "precedence" in out


class TestCompare:
    def test_prints_gaps_and_cross_check(self, capsys, two_pair_file):
        code, out, _ = run(capsys, "compare", two_pair_file)
        assert code == 0
        assert "exact optimal cost (depot-rooted)" in out
        assert "NNH depot-start cost" in out
        assert "gap to optimum" in out
        assert "any-start best" in out
        assert "enumeration cross-check: ok" in out

    def test_depot_start_gaps_are_nonnegative(self, capsys, two_pair_file):
        _, out, _ = run(capsys, "compare", two_pair_file)
        for line in out.splitlines():
            if "gap to optimum" in line:
                assert not line.split("gap to optimum: ")[1].startswith("-")

    def test_reports_depot_start_gaps_on_a_25_node_subsample(self, capsys, tmp_path):
        # the first 25 points of eil51 give a 12-pair instance, within the default limit
        lines = (CORPUS_DIR / "eil51.tsp").read_text().splitlines()
        start = lines.index("NODE_COORD_SECTION") + 1
        header = [("DIMENSION: 25" if line.startswith("DIMENSION") else line)
                  for line in lines[:start]]
        cloud = tmp_path / "eil25.tsp"
        cloud.write_text("\n".join(header + lines[start:start + 25] + ["EOF"]) + "\n")
        inst = tmp_path / "eil25.inst"
        assert run(capsys, "generate", cloud, "--direction", Direction.PICKUPS_CENTRAL.value,
                   "--capacity", 2, "--out", inst)[0] == 0
        code, out, _ = run(capsys, "compare", inst)
        assert code == 0
        assert "skipped" not in out
        gaps = [line.split("gap to optimum: ")[1] for line in out.splitlines()
                if "gap to optimum" in line]
        assert len(gaps) == 2 and not any(gap.startswith("-") for gap in gaps)


class TestPairLimit:
    """The exact solver's 12-pair limit is fixed; no flag moves it."""

    def test_compare_skips_the_exact_solver(self, capsys):
        code, out, _ = run(capsys, "compare", DEMO_25_PAIRS)
        assert code == 0
        assert "exact: skipped (25 pairs exceeds limit 12)" in out
        assert "NNH best cost" in out and "CIH best cost" in out

    def test_exact_refuses_with_the_limit(self, capsys):
        code, out, err = run(capsys, "exact", DEMO_25_PAIRS)
        assert code == 2
        assert "limited to 12" in err
        assert "override" not in err  # the limit is fixed; nothing can raise it
        assert "optimal" not in out

    @pytest.mark.parametrize("verb", ["exact", "compare"])
    def test_pair_limit_flag_is_a_usage_error(self, capsys, two_pair_file, verb):
        code, out, _ = run(capsys, verb, two_pair_file, "--pair-limit", "20")
        assert code == 2
        assert out == ""


class TestBench:
    def test_flags_set_the_sweep_and_its_outputs(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "eil51.tsp").write_text((CORPUS_DIR / "eil51.tsp").read_text())
        csv_path = tmp_path / "rows.csv"
        svg_path = tmp_path / "summary.svg"
        code, out, _ = run(capsys, "bench", "--corpus", corpus, "--capacities", "2",
                           "--csv", csv_path, "--svg", svg_path)
        assert code == 0
        assert "rows: 4" in out
        assert csv_path.exists() and svg_path.exists()

    def test_undecodable_file_is_skipped(self, capsys, tmp_path, caplog):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("eil51.tsp", "uni031.tsp"):
            (corpus / name).write_text((CORPUS_DIR / name).read_text())
        (corpus / "zzz.tsp").write_bytes(UNDECODABLE)
        csv_path = tmp_path / "rows.csv"
        with caplog.at_level("WARNING"):
            code, out, _ = run(capsys, "bench", "--corpus", corpus, "--capacities", "2",
                               "--csv", csv_path)
        assert code == 0
        assert "rows: 8" in out
        assert any("skipping zzz.tsp: cannot decode" in message for message in caplog.messages)
        sources = {line.split(",")[0] for line in csv_path.read_text().splitlines()[1:]}
        assert sources == {"eil51", "uni031"}

    def test_missing_corpus_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bench")
        assert code == 2
        assert "corpus" in err

    @pytest.mark.parametrize("corpus", [Path("/nonexistent"), CORPUS_DIR / "eil51.tsp"],
                             ids=["missing", "a-file"])
    def test_corpus_that_is_no_directory_is_usage_error(self, capsys, corpus):
        code, out, err = run(capsys, "bench", "--corpus", corpus)
        assert code == 2
        assert f"corpus {corpus} is not a directory" in err
        assert out == ""

    def test_all_files_skipped_names_each_reason(self, capsys):
        # every bundled file parses; each is too large, which INFO logging hides
        code, out, err = run(capsys, "bench", "--corpus", CORPUS_DIR, "--max-nodes", 10)
        assert code == 2
        assert "no instances" in err and "holds 10 .tsp files" in err
        assert "eil51.tsp: 51 nodes exceeds max_nodes=10" in err
        assert out == ""

    def test_bad_config_metric_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(bench, "run_corpus", lambda config: pytest.fail("no sweep may run"))
        # "explicit" is no MetricMode: every instance derives its costs from coordinates
        for metric in ("fast", "explicit"):
            code, out, err = run(capsys, "bench", "--corpus", CORPUS_DIR, "--metric", metric)
            assert code == 2
            assert "argument --metric: " in err and f"'{metric}'" in err
            assert out == ""

    @pytest.mark.parametrize("flag, value", [("--capacities", "2,x"), ("--directions", "")])
    def test_bad_list_value_is_usage_error(self, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(bench, "run_corpus", lambda config: pytest.fail("no sweep may run"))
        code, out, err = run(capsys, "bench", "--corpus", CORPUS_DIR, flag, value)
        assert code == 2
        assert f"argument {flag}: " in err and repr(value) in err
        assert out == ""

    def test_max_nodes_below_three_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bench", "--corpus", CORPUS_DIR, "--max-nodes", -5)
        assert code == 2
        assert "max_nodes must be at least 3, got -5" in err
        assert out == ""

    @pytest.mark.parametrize("flag, value", [
        ("--capacities", "2,2"),
        ("--directions", "pickups-central,pickups-central"),
    ])
    def test_repeated_axis_value_is_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "bench", "--corpus", CORPUS_DIR, flag, value)
        assert code == 2
        assert flag.lstrip("-") in err
        assert "rows:" not in out

    def test_given_settings_reach_config_and_the_rest_default(self, capsys, monkeypatch):
        seen = []

        def fake_run_corpus(config):
            seen.append(config)
            return [ResultRow("a", "pickups-central", 2, h, 1.0, 0.1, 5, 0, 0) for h in ("NNH", "CIH")]

        monkeypatch.setattr(bench, "run_corpus", fake_run_corpus)
        assert run(capsys, "bench", "--corpus", "c", "--directions", "deliveries-central",
                   "--capacities", "2, 6", "--metric", "rounded", "--max-nodes", 61)[0] == 0
        assert run(capsys, "bench", "--corpus", "c")[0] == 0
        assert seen == [
            ExperimentConfig(Path("c"), (Direction.DELIVERIES_CENTRAL,), (2, 6),
                             MetricMode.ROUNDED, 61),
            ExperimentConfig(Path("c")),
        ]


class TestUsage:
    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys, one_pair_file):
        assert run(capsys, "solve", one_pair_file, "--wat")[0] == 2

    def test_second_sources_of_a_setting_are_gone(self, capsys, one_pair_file):
        # bench reads its settings from flags only, and every verb reads the
        # metric from the instance file
        assert run(capsys, "bench", "--corpus", CORPUS_DIR, "--config", "x")[0] == 2
        # every sweep runs from every start, so bench has no start setting
        assert run(capsys, "bench", "--corpus", CORPUS_DIR, "--init-policy", "depot")[0] == 2
        code, out, _ = run(capsys, "solve", one_pair_file, "--metric", "rounded")
        assert code == 2
        assert out == ""

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/path.inst")
        assert code == 2


class TestWriters:
    @pytest.mark.parametrize("kind", ["instance", "tour", "table"])
    def test_a_write_into_a_missing_directory_names_what_it_could_not_write(
        self, capsys, tmp_path, one_pair_file, kind
    ):
        path = tmp_path / "missing" / "x.out"
        argv = {
            "instance": ["generate", CORPUS_DIR / "eil51.tsp", "--direction", "pickups-central",
                         "--capacity", "2", "--out", path],
            "tour": ["solve", one_pair_file, "--out", path],
            "table": ["solve", one_pair_file, "--table", path],
        }[kind]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"error: cannot write {kind} to {path}: " in err

    def test_an_unwritable_sidecar_names_itself(self, capsys, tmp_path):
        out_path = tmp_path / "x.inst"
        (tmp_path / "x.inst.meta").mkdir()  # the instance is written, its sidecar cannot be
        code, _, err = run(capsys, "generate", CORPUS_DIR / "eil51.tsp", "--direction",
                           "pickups-central", "--capacity", "2", "--out", out_path)
        assert code == 2
        assert f"error: cannot write sidecar to {out_path}.meta: " in err


def options(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of ``parser`` and of its verbs."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for verb in action.choices.values():
                found |= options(verb)
    return found


def test_every_flag_the_readme_names_exists():
    readme = (CORPUS_DIR.parent / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    assert {"--init", "--corpus", "--max-nodes"} <= named  # the pattern finds flags at all
    # pip's flag, in the install notes, is the one flag of another program
    assert sorted(named - options(_parser()) - {"--no-build-isolation"}) == []

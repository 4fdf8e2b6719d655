"""The full comparison experiment over the bundled corpus.

Sweeps every corpus file across both precedence directions and five
capacities, prints the win fractions and ratio quartiles, and writes the raw
rows (CSV) plus the summary charts (SVG) into demos/out/, which git ignores:
both hold wall times.  The committed copy of the rows, wall times cut and
Q = 1 added, is tests/golden_bench_rows.csv, which `pytest` checks.

It runs in about ten seconds on a 2-core machine.  Pass a different corpus directory as
the first argument to sweep it.
"""

import sys
from pathlib import Path

from mpdtsp.bench import ExperimentConfig, emit_csv, emit_svg_histogram, run_corpus, summarize

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "demos" / "out"


def main() -> None:
    corpus = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "corpus"
    config = ExperimentConfig(corpus_dir=corpus)
    print(f"sweeping {corpus} ...")
    rows = run_corpus(config)
    summary = summarize(rows)

    print(f"\n{len(rows)} rows over {summary.overall_pairs} configurations")
    for direction, ds in sorted(summary.directions.items()):
        print(f"  {direction:20s} NNH wins {ds.nnh_wins:3d}/{ds.pair_count} "
              f"({ds.win_fraction:.1%})")
    print(f"  overall NNH win rate {summary.overall_win_fraction:.1%}; "
          f"max cost reduction over CIH {summary.max_cost_reduction:.1%}")

    print("\ncost ratio (CIH/NNH) quartiles by capacity:")
    for q, quart in summary.ratio_by_capacity.items():
        print(f"  Q={q:2d}: median {quart.median:.3f}  [{quart.q1:.3f}, {quart.q3:.3f}]")

    print("\ntime ratio (CIH/NNH) medians by instance size:")
    for nodes, quart in summary.time_ratio_by_node_count.items():
        print(f"  {nodes:3d} nodes: {quart.median:5.1f}x")

    OUT.mkdir(exist_ok=True)
    emit_csv(rows, OUT / "sweep.csv")
    emit_svg_histogram(summary, OUT / "sweep.svg")
    print(f"\nwrote {OUT / 'sweep.csv'} and {OUT / 'sweep.svg'}")


if __name__ == "__main__":
    main()

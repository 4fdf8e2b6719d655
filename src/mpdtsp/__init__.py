"""Solver toolkit for single-agent, capacitated one-to-one pickup-and-delivery tours.

The package parses TSPLIB point clouds, derives precedence- and
capacity-constrained instances from them, builds feasible tours with adapted
nearest-neighbor and cheapest-insertion heuristics, verifies tours against the
full constraint system, solves small instances exactly, and benchmarks the
heuristics over a corpus.
"""

from .bench import ExperimentConfig, ResultRow, emit_csv, emit_svg_histogram, run_corpus, summarize
from .cheapest_insertion import cih_best, cih_from
from .construction import MultiStartError
from .exact import brute_force, held_karp
from .files import (
    instance_from_text,
    instance_to_text,
    read_instance,
    read_tour_sequence,
    write_instance,
    write_sidecar,
    write_tour,
)
from .generate import Direction, GenerationSpec, generate
from .model import (
    InfeasibleInstanceError,
    Instance,
    Tour,
    ViolationKind,
    paired_loads,
    payload_profile,
    tour_cost,
    validate,
)
from .nearest_neighbor import nnh_best, nnh_from
from .tsplib import MetricMode

__version__ = "0.1.0"

__all__ = [
    "Direction",
    "ExperimentConfig",
    "GenerationSpec",
    "InfeasibleInstanceError",
    "Instance",
    "MetricMode",
    "MultiStartError",
    "ResultRow",
    "Tour",
    "ViolationKind",
    "brute_force",
    "cih_best",
    "cih_from",
    "emit_csv",
    "emit_svg_histogram",
    "generate",
    "held_karp",
    "instance_from_text",
    "instance_to_text",
    "nnh_best",
    "nnh_from",
    "paired_loads",
    "payload_profile",
    "read_instance",
    "read_tour_sequence",
    "run_corpus",
    "summarize",
    "tour_cost",
    "validate",
    "write_instance",
    "write_sidecar",
    "write_tour",
]

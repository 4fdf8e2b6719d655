"""The package root exports only names that exist, and the benchmark tracer sees the library's calls.

``perfbench/tracer.py`` wraps library functions by module and attribute name;
a target that a refactor renames or removes is only reported as a warning
there, and the per-layer metrics that need it silently go missing.  So does a
call the library makes through a name bound before the tracer installs, such
as a builder's step function kept in a tuple at import.  This loads the tracer
from its file, without putting ``perfbench/`` on the import path, checks each
of its targets against the package, and traces the builders once.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import mpdtsp
from conftest import CORPUS_DIR
from mpdtsp import Direction, GenerationSpec, generate, tsplib

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    missing = [name for name in mpdtsp.__all__ if not hasattr(mpdtsp, name)]
    assert missing == []
    assert len(set(mpdtsp.__all__)) == len(mpdtsp.__all__)


@pytest.mark.parametrize("module_name,attr", [t[:2] for t in load_tracer().TARGETS])
def test_trace_target_exists(module_name, attr):
    owner = importlib.import_module(f"mpdtsp.{module_name}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # the tracer looks the leaf up in the owner's own namespace
    assert vars(owner).get(leaf) is not None


def test_tracer_sees_the_builders_own_calls():
    cloud = tsplib.parse_file(CORPUS_DIR / "uni031.tsp")
    instance = generate(cloud, GenerationSpec(Direction.PICKUPS_CENTRAL, 1))
    originals = mpdtsp.cih_best, mpdtsp.nnh_best, mpdtsp.cih_from
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        tracer.active = True
        mpdtsp.cih_best(instance)
        mpdtsp.nnh_best(instance)
        mpdtsp.cih_from(instance, 0)
    finally:
        tracer.uninstall()
    assert (mpdtsp.cih_best, mpdtsp.nnh_best, mpdtsp.cih_from) == originals
    calls = tracer.stats().calls
    names = ("best_insertion", "apply_insertion", "run_multistart", "cih_best", "cih_from", "nnh_best")
    assert [name for name in names if not calls[name]] == []  # the names that recorded no span

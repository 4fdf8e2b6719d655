"""The package root exports only names that exist, and every benchmark trace target exists.

``perfbench/tracer.py`` wraps library functions by module and attribute name;
a target that a refactor renames or removes is only reported as a warning
there, and the per-layer metrics that need it silently go missing.  This
loads the tracer from its file, without putting ``perfbench/`` on the import
path, and checks each of its targets against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import mpdtsp

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

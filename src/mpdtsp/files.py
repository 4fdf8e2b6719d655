"""On-disk formats: canonical instance files, tour files and metadata sidecars.

Instance format (whitespace-delimited, LF endings, fixed field order)::

    PAIRS <n>
    CAPACITY <Q>
    METRIC <ROUNDED|EXACT>
    <id> <DEPOT|PICKUP|DELIVERY> <pair_index> <x> <y> <load>   # one line per node, id order

Tour files hold one node id per line, first and last identical.  Sidecars are
``key=value`` lines recording how a generated instance was derived.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from .model import Instance, Tour
from .tsplib import MetricMode


def _role_and_pair(node: int, n: int) -> tuple[str, int]:
    """The role token and pair index of ``node`` under the id convention of ``n`` pairs."""
    if node == 0:
        return "DEPOT", 0
    return ("PICKUP", node) if node <= n else ("DELIVERY", node - n)


def instance_to_text(instance: Instance) -> str:
    lines = [
        f"PAIRS {instance.n_pairs}",
        f"CAPACITY {instance.capacity!r}",
        f"METRIC {instance.metric.name}",
    ]
    rows = zip(instance.coords.tolist(), instance.loads.tolist())
    for node, ((x, y), load) in enumerate(rows):
        role, pair = _role_and_pair(node, instance.n_pairs)
        lines.append(f"{node} {role} {pair} {x!r} {y!r} {load!r}")
    return "\n".join(lines) + "\n"


def instance_from_text(text: str, name: str = "") -> Instance:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) < 4:
        raise ValueError("instance text is too short")

    def header(idx: int, key: str) -> str:
        fields = lines[idx].split()
        if len(fields) != 2 or fields[0] != key:
            raise ValueError(f"expected '{key} <value>' on line {idx + 1}, got {lines[idx]!r}")
        return fields[1]

    n = int(header(0, "PAIRS"))
    capacity = float(header(1, "CAPACITY"))
    token = header(2, "METRIC")
    if token not in MetricMode.__members__:
        raise ValueError(f"unknown METRIC {token!r} (expected ROUNDED or EXACT)")

    node_lines = lines[3:]
    expected = 2 * n + 1
    if len(node_lines) != expected:
        raise ValueError(f"expected {expected} node lines, got {len(node_lines)}")
    coords = np.empty((expected, 2), dtype=float)
    loads = np.empty(expected, dtype=float)
    for i, line in enumerate(node_lines):
        fields = line.split()
        if len(fields) != 6:
            raise ValueError(f"node line needs 6 fields, got {line!r}")
        node_id, role_token, pair_token = int(fields[0]), fields[1], int(fields[2])
        if node_id != i:
            raise ValueError(f"node lines must be in id order; expected id {i}, got {node_id}")
        expected_role, expected_pair = _role_and_pair(i, n)
        if role_token != expected_role:
            raise ValueError(f"node {i}: role {role_token!r} does not match id convention")
        if pair_token != expected_pair:
            raise ValueError(f"node {i}: pair index {pair_token} does not match id convention")
        coords[i] = (float(fields[3]), float(fields[4]))
        loads[i] = float(fields[5])
    return Instance.from_coords(coords, loads, capacity, MetricMode[token], name=name)


def write_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(instance_to_text(instance), newline="\n")


def read_instance(path: str | Path) -> Instance:
    path = Path(path)
    return instance_from_text(path.read_text(), name=path.stem)


def write_tour(tour: Tour, path: str | Path) -> None:
    Path(path).write_text("\n".join(str(v) for v in tour.sequence) + "\n", newline="\n")


def read_tour_sequence(path: str | Path) -> list[int]:
    """Raw visit sequence from a tour file; validation is the caller's job."""
    out = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            out.append(int(line))
        except ValueError:
            raise ValueError(f"{path}: line {lineno} is not a node id: {line!r}") from None
    return out


def write_sidecar(meta: Mapping[str, str], path: str | Path) -> None:
    body = "".join(f"{key}={meta[key]}\n" for key in meta)
    Path(path).write_text(body, newline="\n")

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
from .tsplib import MetricMode, read_utf8


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
    """Read the instance format; a malformed line is a ValueError naming its line and field."""
    lines = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), 1) if (line := raw.strip())]
    if len(lines) < 4:
        raise ValueError("instance text is too short")

    def number(lineno: int, field: str, token: str, kind: type):
        try:
            return kind(token)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"line {lineno}: {field} must be {noun}, got {token!r}") from None

    def header(idx: int, key: str, kind: type = str):
        lineno, line = lines[idx]
        fields = line.split()
        if len(fields) != 2 or fields[0] != key:
            raise ValueError(f"expected '{key} <value>' on line {lineno}, got {line!r}")
        return number(lineno, key, fields[1], kind)

    n = header(0, "PAIRS", int)
    if n < 0:
        raise ValueError(f"line {lines[0][0]}: PAIRS must not be negative, got {n}")
    capacity = header(1, "CAPACITY", float)
    token = header(2, "METRIC")
    if token not in MetricMode.__members__:
        raise ValueError(f"unknown METRIC {token!r} (expected ROUNDED or EXACT)")

    node_lines = lines[3:]
    expected = 2 * n + 1
    if len(node_lines) != expected:
        raise ValueError(f"expected {expected} node lines, got {len(node_lines)}")
    coords = np.empty((expected, 2), dtype=float)
    loads = np.empty(expected, dtype=float)
    for i, (lineno, line) in enumerate(node_lines):
        fields = line.split()
        if len(fields) != 6:
            raise ValueError(f"line {lineno}: a node line needs 6 fields, got {line!r}")
        node_id = number(lineno, "node id", fields[0], int)
        role_token, pair_token = fields[1], number(lineno, "pair index", fields[2], int)
        if node_id != i:
            raise ValueError(f"node lines must be in id order; expected id {i}, got {node_id}")
        expected_role, expected_pair = _role_and_pair(i, n)
        if role_token != expected_role:
            raise ValueError(f"node {i}: role {role_token!r} does not match id convention")
        if pair_token != expected_pair:
            raise ValueError(f"node {i}: pair index {pair_token} does not match id convention")
        coords[i] = (number(lineno, "x", fields[3], float), number(lineno, "y", fields[4], float))
        loads[i] = number(lineno, "load", fields[5], float)
    return Instance.from_coords(coords, loads, capacity, MetricMode[token], name=name)


def write_text(path: str | Path, kind: str, text: str) -> None:
    """Write ``text`` as UTF-8 with LF line endings; an OSError names the kind of file and its path."""
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write {kind} to {path}: {exc}") from exc


def write_instance(instance: Instance, path: str | Path) -> None:
    write_text(path, "instance", instance_to_text(instance))


def read_instance(path: str | Path) -> Instance:
    path = Path(path)
    return instance_from_text(read_utf8(path), name=path.stem)


def write_tour(tour: Tour, path: str | Path) -> None:
    write_text(path, "tour", "\n".join(str(v) for v in tour.sequence) + "\n")


def read_tour_sequence(path: str | Path) -> list[int]:
    """Raw visit sequence from a tour file; validation is the caller's job."""
    out = []
    for lineno, raw in enumerate(read_utf8(Path(path)).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            out.append(int(line))
        except ValueError:
            raise ValueError(f"{path}: line {lineno} is not a node id: {line!r}") from None
    return out


def write_sidecar(meta: Mapping[str, str], path: str | Path) -> None:
    write_text(path, "sidecar", "".join(f"{key}={meta[key]}\n" for key in meta))

"""Expected values for the benchmark's output checks, computed without tehnet.

Everything here follows from the definitions of the three network
families, never from tehnet's code: a node is (row, col, cube) with dense
index (row * m + col) * N + cube; the five elementary moves are a step
either way along the column ring or the row ring and a single-bit
complement of the cube label.  The workloads compare tehnet's outputs
with these values outside the timed intervals.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

# The paper's tables as committed with the test suite.  The benchmark
# reads them in place; it keeps no copy.
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

TABLE3_SPECS = ((4, 4, 8), (4, 4, 16), (4, 4, 32), (4, 4, 64))
TABLE3_F_MAX = 9


def log2(cube_nodes: int) -> int:
    if cube_nodes < 1 or cube_nodes & (cube_nodes - 1):
        raise ValueError(f"{cube_nodes} is not a power of two")
    return cube_nodes.bit_length() - 1


def ring_distance(a: int, b: int, size: int) -> int:
    delta = (a - b) % size
    return min(delta, size - delta)


def distance(dims: tuple[int, int, int], a, b) -> int:
    """Ring distance on rows and on columns plus the cube labels' Hamming
    distance."""
    l, m, _ = dims
    return (
        ring_distance(a[0], b[0], l)
        + ring_distance(a[1], b[1], m)
        + bin(a[2] ^ b[2]).count("1")
    )


def move_between(dims: tuple[int, int, int], a, b) -> str | None:
    """The elementary move that takes ``a`` to ``b``, or None if none does.

    Labels follow the route output: ``col_plus``, ``col_minus``,
    ``row_plus``, ``row_minus`` and ``cube_dim_<bit>``.  On rings of three
    or more nodes the forward and backward steps never coincide.
    """
    l, m, _ = dims
    (r0, c0, k0), (r1, c1, k1) = a, b
    if r0 == r1 and k0 == k1:
        if c1 == (c0 + 1) % m:
            return "col_plus"
        if c1 == (c0 - 1) % m:
            return "col_minus"
    if c0 == c1 and k0 == k1:
        if r1 == (r0 + 1) % l:
            return "row_plus"
        if r1 == (r0 - 1) % l:
            return "row_minus"
    if r0 == r1 and c0 == c1:
        diff = k0 ^ k1
        if diff and diff & (diff - 1) == 0:
            return f"cube_dim_{diff.bit_length() - 1}"
    return None


def edge_kind(dims: tuple[int, int, int], src: int, dst: int) -> str | None:
    """The export kind of the edge between two dense indices, or None when
    they are not one elementary move apart.

    A column step runs along a row ring (``torus_row``), a row step along
    a column ring (``torus_column``), and a cube move is
    ``hypercube_dim_<bit>``.
    """
    move = move_between(dims, address(dims, src), address(dims, dst))
    if move is None:
        return None
    if move.startswith("col"):
        return "torus_row"
    if move.startswith("row"):
        return "torus_column"
    return "hypercube_dim_" + move.removeprefix("cube_dim_")


def address(dims: tuple[int, int, int], index: int) -> tuple[int, int, int]:
    _, m, cube_nodes = dims
    torus_pos, cube = divmod(index, cube_nodes)
    return torus_pos // m, torus_pos % m, cube


def degree(family: str, dims: tuple[int, int, int]) -> int:
    n = log2(dims[2])
    return {"hypercube": n, "torus": 4, "teh": 4 + n}[family]


def link_count(family: str, dims: tuple[int, int, int]) -> int:
    """Links of the simple graph; every torus ring here has >= 3 nodes, where
    the simple graph and the closed form node_count * degree / 2 agree."""
    l, m, cube_nodes = dims
    return l * m * cube_nodes * degree(family, dims) // 2


def diameter(family: str, dims: tuple[int, int, int], convention: str = "exact") -> int:
    """floor(l/2) + floor(m/2) + n, or under the square convention the torus
    part's 2 * floor(isqrt(l*m) / 2) in place of the two ring terms."""
    l, m, cube_nodes = dims
    n = log2(cube_nodes)
    if family == "hypercube":
        return n
    if convention == "exact":
        return l // 2 + m // 2 + n
    return 2 * (math.isqrt(l * m) // 2) + n


def metrics_record(family: str, dims: tuple[int, int, int], convention: str) -> dict:
    """The fields of ``tehnet metrics`` for one network and convention."""
    l, m, cube_nodes = dims
    links = link_count(family, dims)
    diam = diameter(family, dims, convention)
    return {
        "family": family,
        "l": l,
        "m": m,
        "N": cube_nodes,
        "nodes": l * m * cube_nodes,
        "degree": degree(family, dims),
        "links": links,
        "diameter": diam,
        "cost": links * diam,
        "convention": "square" if convention == "paper" else convention,
    }


def reliability_percent(degree_: int, failures: int) -> float | None:
    """(d - f) / d as a percentage rounded half away from zero to one
    decimal; None where f > d."""
    if failures > degree_:
        return None
    tenths = math.floor(Fraction(1000 * (degree_ - failures), degree_) + Fraction(1, 2))
    return tenths / 10


def reliability_grid(specs, f_max: int) -> list[list[float | None]]:
    return [
        [reliability_percent(degree("teh", dims), f) for dims in specs]
        for f in range(1, f_max + 1)
    ]


def scale_steps(dims: tuple[int, int, int], mode: str, steps: int) -> list[tuple]:
    """(l, m, N, nodes, degree, reconfigured) per step of a teh scale-up.

    Torus growth doubles the smaller ring (columns on ties) and keeps the
    degree; cube growth doubles N and adds one link to every node.
    """
    l, m, cube_nodes = dims
    out = []
    for _ in range(steps):
        if mode == "torus":
            if l < m:
                l *= 2
            else:
                m *= 2
        else:
            cube_nodes *= 2
        out.append(
            (l, m, cube_nodes, l * m * cube_nodes, degree("teh", (l, m, cube_nodes)),
             mode != "torus")
        )
    return out


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


def golden_table_json(table_id: int) -> dict:
    """The JSON document of ``table --id`` as derived from the golden csv
    (values) and text (the N of the growing-cube column) files."""
    if table_id == 3:
        header, *lines = csv.reader(golden("table3.csv").splitlines())
        specs = header[1:]
        rows = []
        for failures, *cells in lines:
            rows.append(
                {"failures": int(failures),
                 "cells": [float(cell) if cell else None for cell in cells]}
            )
        return {"specs": specs, "rows": rows}
    lines = golden(f"table{table_id}.csv").splitlines()
    processors = [int(cell) for cell in lines[0].split(",")[1:]]
    networks = {}
    for line in lines[1:]:
        key, *cells = line.split(",")
        networks[key] = [int(cell) for cell in cells]
    text = golden(f"table{table_id}.txt")
    cube_nodes = [int(token[2:]) for token in text.split() if token.startswith("N=")]
    return {
        "processors": processors,
        "networks": networks,
        "teh_16_16_cube_nodes": cube_nodes,
        "flagged": [],
    }

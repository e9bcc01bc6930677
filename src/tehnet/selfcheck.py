"""Built-in verification: oracle agreement and golden-table checks.

Each check group cross-validates one closed form against an independent
route (explicit graph enumeration, BFS, or the frozen table files
shipped with the package).  Groups report pass/fail rather than raising,
so a failing build can still enumerate everything that is wrong.

Two groups prove a fact about every node, or every fault set, with less
work than enumerating them:

- ``vertex-transitivity`` maps the edges under the generators of the
  shift group Z_rows x Z_cols x Z_2^cube_dim (one row step, one column
  step, one flip per cube bit), not under all of its shifts.  The maps
  that preserve the edge set are closed under composition, so the whole
  group preserves it.
- ``monte-carlo`` searches once per spec, from the goal, over the graph
  without node 0's links.  A simple path leaves node 0 once and never
  returns, so node 0 reaches the goal under a cut exactly when a kept
  link ends at a node that search reached.
"""

from __future__ import annotations

import functools
import importlib.resources
from itertools import combinations, product
from typing import Callable, NamedTuple

from .metrics import (
    diameter_bfs,
    diameter_closed,
    link_count_closed,
    link_count_simple,
)
from .reliability import (
    antipodal_node,
    monte_carlo_connectivity,
    reliability_percent,
    reliability_table,
    unreliability_percent,
)
from .routing import distance_closed, route
from .tables import (
    TABLE3_F_MAX,
    TABLE3_SPECS,
    render_comparison_csv,
    render_reliability_csv,
    table1_rows,
    table2_rows,
)
from .topology import NetworkSpec, Topology, build_graph, decode_address, teh_spec

GOLDEN_FILES = {
    "table1": "table1_links.csv",
    "table2": "table2_cost.csv",
    "table3": "table3_reliability.csv",
}

_ORACLE_GRID = list(product((3, 4, 5), (3, 4, 5), (1, 2, 4, 8)))
_TRANSITIVITY_SPECS = ((3, 4, 4), (2, 2, 8))
_ROUTING_SPECS = ((3, 3, 4), (4, 4, 2), (2, 2, 8))
_Build = Callable[[NetworkSpec], Topology]


class CheckResult(NamedTuple):
    group: str
    passed: bool
    detail: str


def _shift_generators(spec: NetworkSpec) -> list[tuple[int, int, int]]:
    """One row step, one column step and one flip per cube bit, as
    (row shift, column shift, cube XOR mask).  Together they generate
    every shift in Z_rows x Z_cols x Z_2^cube_dim."""
    cube_flips = [(0, 0, 1 << dim) for dim in range(spec.cube_dim)]
    return [(1, 0, 0), (0, 1, 0), *cube_flips]


def _check_transitivity(build: _Build) -> str:
    # The shifts act transitively on the nodes, and a composition of maps
    # that preserve the edge set preserves it, so it suffices that each
    # generator maps the edge set onto itself.
    for dims in _TRANSITIVITY_SPECS:
        spec = teh_spec(*dims)
        rows, cols, cube_nodes = dims
        edges = set(build(spec).edges)
        for da, db, dc in _shift_generators(spec):
            # image[i] is the index that node i moves to under the shift.
            torus = [
                ((row + da) % rows * cols + (col + db) % cols) * cube_nodes
                for row in range(rows)
                for col in range(cols)
            ]
            image = [pos + (cube ^ dc) for pos in torus for cube in range(cube_nodes)]
            mapped = set()
            for src, dst, kind in edges:
                a, b = image[src], image[dst]
                mapped.add((a, b, kind) if a < b else (b, a, kind))
            if mapped != edges:
                return f"shift ({da},{db},{dc}) does not preserve {spec.label()}"
    return ""


def _oracle_specs(max_nodes: int) -> list[NetworkSpec]:
    specs = [teh_spec(*dims) for dims in _ORACLE_GRID]
    return [spec for spec in specs if spec.node_count <= max_nodes]


def _no_oracle_spec(max_nodes: int) -> str:
    """The failure detail of a group whose cap leaves it nothing to check."""
    smallest = min(teh_spec(*dims).node_count for dims in _ORACLE_GRID)
    return (
        f"max_nodes {max_nodes} admits no oracle spec; "
        f"the smallest has {smallest} nodes"
    )


def _check_links(build: _Build, max_nodes: int) -> str:
    specs = _oracle_specs(max_nodes)
    if not specs:
        return _no_oracle_spec(max_nodes)
    for spec in specs:
        built = len(build(spec).edges)
        closed = link_count_closed(spec)
        simple = link_count_simple(spec)
        if not built == closed == simple:
            return (
                f"{spec.label()}: built {built}, closed {closed}, simple {simple}"
            )
    return ""


def _check_diameter(build: _Build, max_nodes: int) -> str:
    specs = _oracle_specs(max_nodes)
    if not specs:
        return _no_oracle_spec(max_nodes)
    # Eccentricity from node 0 suffices: the transitivity group runs first.
    for spec in specs:
        measured = diameter_bfs(build(spec))
        expected = diameter_closed(spec)
        if measured != expected:
            return f"{spec.label()}: BFS {measured}, closed form {expected}"
    return ""


def _check_routing(build: _Build) -> str:
    for dims in _ROUTING_SPECS:
        spec = teh_spec(*dims)
        topology = build(spec)
        nodes = [decode_address(spec, index) for index in range(spec.node_count)]
        for source, src in enumerate(nodes):
            # One search per source gives the BFS distance to every dst.
            for dst, searched in zip(nodes, topology.distances(source)):
                closed = distance_closed(spec, src, dst)
                routed = route(spec, src, dst).length
                if not closed == searched == routed:
                    return (
                        f"{spec.label()} {src}->{dst}: closed {closed}, "
                        f"bfs {searched}, route {routed}"
                    )
    return ""


def _golden_text(name: str) -> str:
    resource = importlib.resources.files("tehnet").joinpath("data", GOLDEN_FILES[name])
    return resource.read_text()


def _check_tables() -> str:
    specs = list(TABLE3_SPECS)
    rendered = {
        "table1": render_comparison_csv(table1_rows()),
        "table2": render_comparison_csv(table2_rows()),
        "table3": render_reliability_csv(specs, reliability_table(specs, TABLE3_F_MAX)),
    }
    for name, text in rendered.items():
        if text != _golden_text(name):
            return f"{name} does not match its golden file"
    return ""


def _check_reliability() -> str:
    spec = teh_spec(4, 4, 8)
    degree = spec.nominal_degree
    for failures in range(degree + 1):
        kept = reliability_percent(spec, failures)
        lost = unreliability_percent(spec, failures)
        if round(10 * kept) + round(10 * lost) != 1000:
            return f"f={failures}: reliability {kept} + unreliability {lost} is not 100"
    percents = [reliability_percent(spec, f) for f in range(degree + 1)]
    if percents != sorted(percents, reverse=True) or percents[-1] != 0:
        return f"percentages not strictly decreasing to zero: {percents}"
    if unreliability_percent(spec, 0) != 0:
        return "unreliability at f=0 is not zero"
    return ""


def _check_monte_carlo(build: _Build) -> str:
    # The closed form must equal the connected share of every set of failed
    # links at node 0.  (2, 2, 4) has 2-node rings, (3, 3, 4) does not.
    for dims in ((2, 2, 4), (3, 3, 4)):
        spec = teh_spec(*dims)
        graph = build(spec)
        goal = antipodal_node(spec)
        # Edges store src < dst, so node 0 is the src of each of its links.
        incident = [dst for src, dst, _ in graph.edges if src == 0]
        rest = tuple(edge for edge in graph.edges if edge[0] != 0)
        # One search from the goal, without node 0's links, serves every
        # cut: node 0 (not the goal on these specs) reaches the goal when a
        # kept link ends at a node this search reached.
        reaches = graph._replace(edges=rest).distances(goal)
        onward = [reaches[dst] >= 0 for dst in incident]
        for failures in range(len(incident) + 1):
            # Each cut of ``failures`` links keeps one set of the others.
            kept_sets = list(combinations(onward, len(incident) - failures))
            connected = sum(any(kept) for kept in kept_sets)
            closed = monte_carlo_connectivity(spec, failures, 1, 0)
            if connected / len(kept_sets) != closed:
                return (
                    f"{spec.label()} f={failures}: {connected} of {len(kept_sets)} "
                    f"fault sets connected, closed form {closed}"
                )
    return ""


def self_check(max_nodes: int = 512) -> list[CheckResult]:
    """Run every check group and return one result per group.

    Args:
        max_nodes: Upper bound on node_count for the links and
            diameter oracle grids only.  The vertex-transitivity,
            routing and monte-carlo groups always build their fixed
            specs of 16 to 48 nodes.
    """
    # Groups share specs, so each graph is built once and dropped on return.
    build = functools.cache(build_graph)
    groups = [
        ("vertex-transitivity", lambda: _check_transitivity(build)),
        ("links-closed-form", lambda: _check_links(build, max_nodes)),
        ("diameter-closed-form", lambda: _check_diameter(build, max_nodes)),
        ("routing", lambda: _check_routing(build)),
        ("tables", lambda: _check_tables()),
        ("reliability-model", lambda: _check_reliability()),
        ("monte-carlo", lambda: _check_monte_carlo(build)),
    ]
    results = []
    for name, runner in groups:
        try:
            detail = runner()
        except Exception as exc:  # a crashed group is a failed group
            detail = f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(group=name, passed=not detail, detail=detail))
    return results

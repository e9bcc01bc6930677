"""Network families, node addressing, and explicit graph construction.

Three interconnection-network families share one (rows, cols, cube_nodes)
frame: the binary hypercube, the 2D wraparound torus, and the product
network that runs ``cube_nodes`` concurrent tori with hypercube links
joining nodes that occupy the same torus position.  Degenerate dimensions
are pinned to 1 so a single code path serves all three families.

A node address is the triple (row, col, cube) with
0 <= row < rows, 0 <= col < cols, 0 <= cube < cube_nodes; the dense node
index is ``(row * cols + col) * cube_nodes + cube``, which keeps each
hypercube group of ``cube_nodes`` nodes contiguous.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import (
    AddressOutOfRangeError,
    FamilyMismatchError,
    IndexOutOfRangeError,
    NonPositiveDimensionError,
    NotPowerOfTwoError,
    ResourceLimitError,
    SpecError,
    UnsupportedFormatError,
)

#: Default ceiling on node_count for explicit graph construction.
DEFAULT_NODE_CAP = 1 << 21

# Edge kind labels.  A torus-row edge joins column neighbours within one
# row ring; a torus-column edge joins row neighbours within one column
# ring; hypercube edges are tagged with the bit they complement.
TORUS_ROW = "torus_row"
TORUS_COLUMN = "torus_column"
_HYPERCUBE_PREFIX = "hypercube_dim_"


def hypercube_kind(dim: int) -> str:
    """Edge kind label for the hypercube link complementing bit ``dim``."""
    return f"{_HYPERCUBE_PREFIX}{dim}"


class Family(str, Enum):
    """The three supported network families."""

    HYPERCUBE = "hypercube"
    TORUS = "torus"
    TEH = "teh"


class NodeAddress(NamedTuple):
    """A node position: torus row, torus column, hypercube label."""

    row: int
    col: int
    cube: int

    def __str__(self) -> str:
        return f"{self.row},{self.col},{self.cube}"


class NetworkSpec(NamedTuple):
    """A validated network description.

    Attributes:
        family: Which network family this describes.
        rows: Torus row count (1 for a pure hypercube).
        cols: Torus column count (1 for a pure hypercube).
        cube_nodes: Nodes per hypercube group; an exact power of two
            (1 for a pure torus).
        cube_dim: log2(cube_nodes), the number of hypercube bit positions.
    """

    family: Family
    rows: int
    cols: int
    cube_nodes: int
    cube_dim: int

    @property
    def node_count(self) -> int:
        return self.rows * self.cols * self.cube_nodes

    @property
    def nominal_degree(self) -> int:
        """Closed-form node degree: 4 per torus part plus one per cube bit.

        Exact whenever rows and cols are both >= 3 (or absent); smaller
        rings collapse coincident links, lowering the real degree.
        """
        if self.family is Family.HYPERCUBE:
            return self.cube_dim
        if self.family is Family.TORUS:
            return 4
        return 4 + self.cube_dim

    def label(self) -> str:
        """Human-readable dimension triple, e.g. ``(4, 4, 8)``."""
        return f"({self.rows}, {self.cols}, {self.cube_nodes})"


def validate_spec(
    family: Family | str, rows: int = 1, cols: int = 1, cube_nodes: int = 1
) -> NetworkSpec:
    """Validate raw dimensions and return a normalized NetworkSpec.

    Args:
        family: Network family, as a :class:`Family` or its string value.
        rows: Torus rows; must be 1 for the hypercube family.
        cols: Torus columns; must be 1 for the hypercube family.
        cube_nodes: Hypercube group size; a power of two; must be 1 for
            the pure torus family.

    Raises:
        SpecError: If any dimension is not an integer.
        NonPositiveDimensionError: If any dimension is below 1.
        NotPowerOfTwoError: If cube_nodes is not a power of two.
        FamilyMismatchError: If a dimension is fixed by the family but
            not 1.
    """
    family = Family(family)
    if not (
        isinstance(rows, int) and isinstance(cols, int) and isinstance(cube_nodes, int)
    ):
        raise SpecError(
            f"dimensions must be integers, got rows={rows!r} cols={cols!r} "
            f"cube_nodes={cube_nodes!r}"
        )
    if rows < 1 or cols < 1 or cube_nodes < 1:
        raise NonPositiveDimensionError(
            f"dimensions must be >= 1, got rows={rows} cols={cols} "
            f"cube_nodes={cube_nodes}"
        )
    if cube_nodes & (cube_nodes - 1):
        raise NotPowerOfTwoError(f"cube_nodes must be a power of two, got {cube_nodes}")
    if family is Family.HYPERCUBE and (rows != 1 or cols != 1):
        raise FamilyMismatchError(
            f"hypercube family fixes rows=cols=1, got rows={rows} cols={cols}"
        )
    if family is Family.TORUS and cube_nodes != 1:
        raise FamilyMismatchError(
            f"torus family fixes cube_nodes=1, got cube_nodes={cube_nodes}"
        )
    return NetworkSpec(
        family=family,
        rows=rows,
        cols=cols,
        cube_nodes=cube_nodes,
        cube_dim=cube_nodes.bit_length() - 1,
    )


def hypercube_spec(cube_nodes: int) -> NetworkSpec:
    return validate_spec(Family.HYPERCUBE, 1, 1, cube_nodes)


def torus_spec(rows: int, cols: int) -> NetworkSpec:
    return validate_spec(Family.TORUS, rows, cols, 1)


def teh_spec(rows: int, cols: int, cube_nodes: int) -> NetworkSpec:
    return validate_spec(Family.TEH, rows, cols, cube_nodes)


def check_address(spec: NetworkSpec, addr: NodeAddress) -> None:
    """Raise AddressOutOfRangeError unless ``addr`` is valid for ``spec``."""
    if not (
        0 <= addr.row < spec.rows
        and 0 <= addr.col < spec.cols
        and 0 <= addr.cube < spec.cube_nodes
    ):
        raise AddressOutOfRangeError(
            f"address {addr} out of range for {spec.label()}"
        )


def encode_address(spec: NetworkSpec, addr: NodeAddress) -> int:
    """Map an address to its dense node index, row-major with the cube
    label innermost."""
    check_address(spec, addr)
    return (addr.row * spec.cols + addr.col) * spec.cube_nodes + addr.cube


def decode_address(spec: NetworkSpec, index: int) -> NodeAddress:
    """Inverse of :func:`encode_address`."""
    if not 0 <= index < spec.node_count:
        raise IndexOutOfRangeError(
            f"index {index} outside 0..{spec.node_count - 1}"
        )
    torus_pos, cube = divmod(index, spec.cube_nodes)
    row, col = divmod(torus_pos, spec.cols)
    return NodeAddress(row, col, cube)


class _TopologyFields(NamedTuple):
    spec: NetworkSpec
    edges: tuple[tuple[int, int, str], ...]


class Topology(_TopologyFields):
    """An explicit simple graph over the dense node index space.

    Edges are stored once, as (src, dst, kind) with src < dst, sorted
    lexicographically.  Instances are immutable and safe to share across
    threads.  :attr:`adjacency` is cached in the instance dict.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def node_count(self) -> int:
        return self.spec.node_count

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour lists, indexed by node."""
        # The edges ascend by (src, dst), so each list fills in ascending
        # order: the lower neighbours first, then the higher ones.
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for src, dst, _ in self.edges:
            adj[src].append(dst)
            adj[dst].append(src)
        return tuple(map(tuple, adj))

    def distances(self, source: int) -> list[int]:
        """Hop counts from ``source`` by breadth-first search over
        :attr:`adjacency`, -1 for nodes it does not reach."""
        adjacency = self.adjacency
        dist = [-1] * len(adjacency)
        dist[source] = 0
        frontier = [source]
        hops = 0
        while frontier:
            hops += 1
            next_frontier = []
            for node in frontier:
                for nbr in adjacency[node]:
                    if dist[nbr] < 0:
                        dist[nbr] = hops
                        next_frontier.append(nbr)
            frontier = next_frontier
        return dist


def _check_node_cap(spec: NetworkSpec, node_cap: int) -> None:
    """Raise ResourceLimitError if ``spec`` has more than ``node_cap`` nodes."""
    if spec.node_count > node_cap:
        raise ResourceLimitError(
            f"{spec.label()} has {spec.node_count} nodes, above the cap of "
            f"{node_cap}; raise the cap to build it anyway"
        )


def build_graph(spec: NetworkSpec, node_cap: int = DEFAULT_NODE_CAP) -> Topology:
    """Construct the explicit edge set for ``spec``.

    Each node is joined to its images under the five elementary moves: a
    column step (kind ``torus_row``) or row step (``torus_column``) either
    way, and a complement of cube bit d (``hypercube_dim_<d>``).  Edges
    are undirected and de-duplicated, so a ring of 1 or 2 adds fewer.

    Raises:
        ResourceLimitError: If node_count exceeds ``node_cap``.
    """
    _check_node_cap(spec, node_cap)
    rows, cols, cube_nodes = spec.rows, spec.cols, spec.cube_nodes
    # Each node in index order adds its steps to higher-index neighbours,
    # ascending.  A cube step (+2**d, bit d clear) is below cube_nodes and
    # a ring step is a multiple of it, so cube steps sort first.
    cube_steps = [
        [(1 << d, hypercube_kind(d)) for d in range(spec.cube_dim) if not c >> d & 1]
        for c in range(cube_nodes)
    ]
    edges: list[tuple[int, int, str]] = []
    for pos in range(rows * cols):
        row, col = divmod(pos, cols)
        # A ring of 2 names one neighbour twice; a ring of 1 names pos.
        ring = {
            row * cols + (col + 1) % cols: TORUS_ROW,
            row * cols + (col - 1) % cols: TORUS_ROW,
            (row + 1) % rows * cols + col: TORUS_COLUMN,
            (row - 1) % rows * cols + col: TORUS_COLUMN,
        }
        ring_steps = [
            ((nbr - pos) * cube_nodes, kind)
            for nbr, kind in sorted(ring.items())
            if nbr > pos
        ]
        edges += [
            (src, src + step, kind)
            for src, steps in enumerate(cube_steps, pos * cube_nodes)
            for step, kind in steps + ring_steps
        ]
    return Topology(spec=spec, edges=tuple(edges))


# Deterministic edge colors for DOT output: torus kinds, then cube bits.
_DOT_TORUS_COLORS = {TORUS_ROW: "#1f77b4", TORUS_COLUMN: "#2ca02c"}
_DOT_CUBE_PALETTE = (
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)


def export_topology(topology: Topology, format: str) -> bytes:
    """Serialize a topology as ``dot``, ``csv``, or ``json`` bytes.

    Output is deterministic and byte-stable: nodes ascend by index and
    edges are sorted lexicographically.  The CSV columns are
    ``src_index,dst_index,kind``; the JSON document carries the spec
    fields (family, l, m, n_cube_nodes, node_count) plus the edge list.

    Raises:
        UnsupportedFormatError: For an unknown format name.
    """
    if format not in ("csv", "json", "dot"):
        raise UnsupportedFormatError(f"unknown topology format {format!r}")
    spec, edges = topology.spec, topology.edges
    # Each node index is turned into text once; the lines only look it up.
    names = list(map(str, range(spec.node_count)))
    if format == "csv":
        lines = ["src_index,dst_index,kind\n"]
        lines += [f"{names[src]},{names[dst]},{kind}\n" for src, dst, kind in edges]
        return "".join(lines).encode()
    if format == "json":
        header = json.dumps(
            {
                "family": spec.family.value,
                "l": spec.rows,
                "m": spec.cols,
                "n_cube_nodes": spec.cube_nodes,
                "node_count": spec.node_count,
                "edges": [],
            },
            indent=2,
        )
        if not edges:
            return (header + "\n").encode()
        # The edges, written directly in json.dumps' indent=2 layout; kinds
        # are plain identifiers, which JSON quotes without escaping.  Each
        # item starts with its separator, and the first one drops the comma.
        head, tail = header.split('"edges": []')
        items = [
            f',\n    {{\n      "src": {names[src]},\n      "dst": {names[dst]},\n'
            f'      "kind": "{kind}"\n    }}'
            for src, dst, kind in edges
        ]
        items[0] = items[0][1:]
        return "".join([head, '"edges": [', *items, "\n  ]", tail, "\n"]).encode()
    # The format is dot.
    name = f"{spec.family.value}_{spec.rows}_{spec.cols}_{spec.cube_nodes}"
    lines = [f'graph "{name}" {{\n']
    positions = [
        f"{row},{col}," for row in range(spec.rows) for col in range(spec.cols)
    ]
    labels = [pos + cube for pos in positions for cube in names[: spec.cube_nodes]]
    lines += [f'  {index} [label="{label}"];\n' for index, label in zip(names, labels)]
    colors = _DOT_TORUS_COLORS | {
        hypercube_kind(d): _DOT_CUBE_PALETTE[d % len(_DOT_CUBE_PALETTE)]
        for d in range(spec.cube_dim)
    }
    lines += [
        f'  {names[src]} -- {names[dst]} [color="{colors[kind]}"];\n'
        for src, dst, kind in edges
    ]
    lines.append("}\n")
    return "".join(lines).encode()

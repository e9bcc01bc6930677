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

from enum import Enum
from functools import cached_property
from itertools import product
from typing import NamedTuple

from .errors import (
    AddressOutOfRangeError,
    CountOutOfRangeError,
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


def _member(enum: type[Enum], value: object, what: str) -> Enum:
    """``enum(value)``, or a :class:`SpecError` that names ``what``."""
    try:
        return value if type(value) is enum else enum(value)
    except ValueError:
        raise SpecError(f"unknown {what} {value!r}") from None


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
        SpecError: If ``family`` names no family, or any dimension is not
            an ``int`` (a ``bool`` is not).
        NonPositiveDimensionError: If any dimension is below 1.
        NotPowerOfTwoError: If cube_nodes is not a power of two.
        FamilyMismatchError: If a dimension is fixed by the family but
            not 1.
    """
    family = _member(Family, family, "family")
    if not (type(rows) is int and type(cols) is int and type(cube_nodes) is int):
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
    """Raise AddressOutOfRangeError unless ``addr`` is valid for ``spec``:
    each field an ``int`` (a ``bool`` is not) within its bound."""
    row, col, cube = addr.row, addr.col, addr.cube
    if not (
        type(row) is int and type(col) is int and type(cube) is int
        and 0 <= row < spec.rows
        and 0 <= col < spec.cols
        and 0 <= cube < spec.cube_nodes
    ):
        raise AddressOutOfRangeError(f"address {addr} out of range for {spec.label()}")


def encode_address(spec: NetworkSpec, addr: NodeAddress) -> int:
    """Map an address to its dense node index, row-major with the cube
    label innermost."""
    check_address(spec, addr)
    return (addr.row * spec.cols + addr.col) * spec.cube_nodes + addr.cube


def decode_address(spec: NetworkSpec, index: int) -> NodeAddress:
    """Inverse of :func:`encode_address`; an ``index`` that is not an
    ``int`` node index (a ``bool`` is not) raises IndexOutOfRangeError."""
    if type(index) is not int or not 0 <= index < spec.node_count:
        raise IndexOutOfRangeError(
            f"index {index!r} outside 0..{spec.node_count - 1}"
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
    threads.  :attr:`adjacency` and the exported node names are cached in
    the instance dict, not in the fields: a ``_replace`` copy makes its own.
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

    @cached_property
    def _names(self) -> list[str]:
        """Each node index as text, shared by every export of this topology."""
        return list(map(str, range(self.node_count)))

    def distances(self, source: int) -> list[int]:
        """Hop counts from ``source`` by breadth-first search over
        :attr:`adjacency`, -1 for nodes it does not reach.

        Raises:
            IndexOutOfRangeError: If ``source`` is not an ``int`` node index.
        """
        if type(source) is not int or not 0 <= source < self.node_count:
            raise IndexOutOfRangeError(
                f"source {source!r} outside 0..{self.node_count - 1}"
            )
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


def _check_int(
    name: str, value: object, low: int | None = None, error: type = CountOutOfRangeError
) -> None:
    # An int (a bool is not), of at least ``low`` if given (counts give one).
    if type(value) is not int or low is not None and value < low:
        bound = "an int" if low is None else f">= {low}"
        raise error(f"{name} must be {bound}, got {value!r}")


def _check_node_cap(spec: NetworkSpec, node_cap: int) -> None:
    """Raise ResourceLimitError if ``spec`` has more than ``node_cap`` nodes."""
    _check_int("node_cap", node_cap)
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

    A node's steps to higher-index neighbours depend only on its cube
    label and on whether its row and column are first or last on their
    rings, so each such class's step lists are made once.  Rows 0, 1 and
    ``rows - 1`` are emitted from them; each row between is row 1 shifted.

    Raises:
        CountOutOfRangeError: If ``node_cap`` is not an ``int``.
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

    def node_steps(row: int, col: int) -> list[list[tuple[int, str]]]:
        """The steps of each cube node at (row, col)."""
        pos = row * cols + col
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
        return [steps + ring_steps for steps in cube_steps]

    def row_edges(row: int) -> list[tuple[int, int, str]]:
        """Row ``row``'s edges; the columns between its ends share a class."""
        ends = {0: node_steps(row, 0), cols - 1: node_steps(row, cols - 1)}
        middle = node_steps(row, min(1, cols - 1))
        out: list[tuple[int, int, str]] = []
        for col in range(cols):
            steps_of = ends.get(col, middle)
            out += [
                (src, src + step, kind)
                for src, steps in enumerate(steps_of, (row * cols + col) * cube_nodes)
                for step, kind in steps
            ]
        return out

    edges = row_edges(0)
    if rows > 2:
        edges += (interior := row_edges(1))
        shift = cols * cube_nodes
        for offset in range(shift, (rows - 2) * shift, shift):
            edges += [(src + offset, dst + offset, kind) for src, dst, kind in interior]
    if rows > 1:
        edges += row_edges(rows - 1)
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
    names = topology._names
    if format == "csv":
        lines = ["src_index,dst_index,kind\n"]
        lines += [f"{names[src]},{names[dst]},{kind}\n" for src, dst, kind in edges]
        return "".join(lines).encode()
    if format == "json":
        # Written directly in json.dumps' indent=2 layout; the family and the
        # kinds are plain identifiers, which JSON quotes without escaping.
        # Each edge item starts with its separator, and the first one drops
        # the comma.
        head = (
            f'{{\n  "family": "{spec.family.value}",\n  "l": {spec.rows},\n'
            f'  "m": {spec.cols},\n  "n_cube_nodes": {spec.cube_nodes},\n'
            f'  "node_count": {spec.node_count},\n  "edges": ['
        )
        if not edges:
            return (head + "]\n}\n").encode()
        items = [
            f',\n    {{\n      "src": {names[src]},\n      "dst": {names[dst]},\n'
            f'      "kind": "{kind}"\n    }}'
            for src, dst, kind in edges
        ]
        items[0] = items[0][1:]
        return "".join([head, *items, "\n  ]\n}\n"]).encode()
    # The format is dot.
    name = f"{spec.family.value}_{spec.rows}_{spec.cols}_{spec.cube_nodes}"
    lines = [f'graph "{name}" {{\n']
    positions = [
        f"{row},{col}," for row in range(spec.rows) for col in range(spec.cols)
    ]
    cubes = names[: spec.cube_nodes]
    lines += [
        f'  {index} [label="{pos}{cube}"];\n'
        for index, (pos, cube) in zip(names, product(positions, cubes))
    ]
    colors = _DOT_TORUS_COLORS | {
        hypercube_kind(d): _DOT_CUBE_PALETTE[d % len(_DOT_CUBE_PALETTE)]
        for d in range(spec.cube_dim)
    }
    suffixes = {kind: f' [color="{color}"];\n' for kind, color in colors.items()}
    lines += [
        f"  {names[src]} -- {names[dst]}{suffixes[kind]}" for src, dst, kind in edges
    ]
    lines.append("}\n")
    return "".join(lines).encode()

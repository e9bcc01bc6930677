"""Shortest-path routing, as a sequence of elementary move labels.

Five elementary moves generate every edge: a torus step in either
direction along the column or row ring (``col_plus``, ``col_minus``,
``row_plus``, ``row_minus``), and a single-bit complement of the
hypercube label (``cube_dim_<d>``).  The point-to-point router composes
them in a fixed order (column steps, then row steps, then cube bits
ascending), which always yields a shortest path because the ring and
cube coordinates are independent.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .topology import NetworkSpec, NodeAddress, check_address


@functools.cache
def _cube_label(dim: int) -> str:
    return f"cube_dim_{dim}"


def distance_closed(spec: NetworkSpec, a: NodeAddress, b: NodeAddress) -> int:
    """Shortest-path length in closed form.

    Ring distance on rows plus ring distance on columns plus the Hamming
    distance of the cube labels.
    """
    a_row, a_col, a_cube = a.row, a.col, a.cube
    b_row, b_col, b_cube = b.row, b.col, b.cube
    rows, cols, cube_nodes = spec.rows, spec.cols, spec.cube_nodes
    if not (
        type(a_row) is int and type(a_col) is int and type(a_cube) is int
        and type(b_row) is int and type(b_col) is int and type(b_cube) is int
        and 0 <= a_row < rows and 0 <= a_col < cols and 0 <= a_cube < cube_nodes
        and 0 <= b_row < rows and 0 <= b_col < cols and 0 <= b_cube < cube_nodes
    ):
        # One of these raises, for a when both are bad.
        check_address(spec, a)
        check_address(spec, b)
    # A ring's distance is the shorter of the two ways round it.
    row_gap = (a_row - b_row) % rows
    if row_gap > rows - row_gap:
        row_gap = rows - row_gap
    col_gap = (a_col - b_col) % cols
    if col_gap > cols - col_gap:
        col_gap = cols - col_gap
    return row_gap + col_gap + (a_cube ^ b_cube).bit_count()


class Path(NamedTuple):
    """A hop-by-hop route: ``len(moves) == len(hops) - 1``.

    Each move is its label: ``col_plus``, ``col_minus``, ``row_plus``,
    ``row_minus``, or ``cube_dim_<d>`` for the complement of cube bit
    ``d``.
    """

    spec: NetworkSpec
    hops: tuple[NodeAddress, ...]
    moves: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.moves)


_hop = functools.partial(tuple.__new__, NodeAddress)


def route(spec: NetworkSpec, src: NodeAddress, dst: NodeAddress) -> Path:
    """Deterministic shortest path from ``src`` to ``dst``.

    Column steps first (shorter wrap direction), then row steps, then one
    cube move per differing bit in ascending bit order.  The result
    length always equals :func:`distance_closed`.
    """
    row, col, cube = src.row, src.col, src.cube
    dst_row, dst_col, dst_cube = dst.row, dst.col, dst.cube
    rows, cols, cube_nodes = spec.rows, spec.cols, spec.cube_nodes
    if not (
        type(row) is int and type(col) is int and type(cube) is int
        and type(dst_row) is int and type(dst_col) is int and type(dst_cube) is int
        and 0 <= row < rows and 0 <= col < cols and 0 <= cube < cube_nodes
        and 0 <= dst_row < rows and 0 <= dst_col < cols and 0 <= dst_cube < cube_nodes
    ):
        # One of these raises, for src when both are bad.
        check_address(spec, src)
        check_address(spec, dst)
    # Each hop is made from the running coordinates, already in range, so
    # the records are built by tuple.__new__ and skip the NamedTuple's
    # Python-level __new__.
    hops = [src]
    moves = []
    # Each ring goes the shorter way round; a tie (half the ring) goes
    # forward.
    if col != dst_col:
        count = (dst_col - col) % cols
        if count <= cols - count:
            step = 1
            moves += ["col_plus"] * count
        else:
            step, count = -1, cols - count
            moves += ["col_minus"] * count
        for _ in range(count):
            col = (col + step) % cols
            hops.append(_hop((row, col, cube)))
    if row != dst_row:
        count = (dst_row - row) % rows
        if count <= rows - count:
            step = 1
            moves += ["row_plus"] * count
        else:
            step, count = -1, rows - count
            moves += ["row_minus"] * count
        for _ in range(count):
            row = (row + step) % rows
            hops.append(_hop((row, col, cube)))
    # One flip per set bit of the difference, lowest first.
    diff = cube ^ dst_cube
    while diff:
        low = diff & -diff
        diff ^= low
        cube ^= low
        moves.append(_cube_label(low.bit_length() - 1))
        hops.append(_hop((row, col, cube)))
    return tuple.__new__(Path, (spec, tuple(hops), tuple(moves)))

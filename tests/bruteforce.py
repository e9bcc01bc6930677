"""Brute-force oracles, written independently of the package.

Everything here works on plain (row, col, cube) triples and dict-of-set
adjacency and imports nothing from ``tehnet``.  :func:`moves` is the one
definition of the five elementary moves; the neighbour lists, the
adjacency, the reference router and the searches are all derived from it,
so library results have something external to agree with.
"""

import functools
from collections import deque
from fractions import Fraction
from itertools import combinations


def moves(rows, cols, cube_nodes, node):
    """Every elementary move from ``node`` as (label, image, edge kind).

    The order is fixed: column step forward, column step backward, row
    step forward, row step backward, then one bit complement per cube bit,
    ascending.  Images wrap modulo the ring size, so on rings of 1 or 2
    they may repeat or equal ``node``.
    """
    i, j, k = node
    found = [
        ("col_plus", (i, (j + 1) % cols, k), "torus_row"),
        ("col_minus", (i, (j - 1) % cols, k), "torus_row"),
        ("row_plus", ((i + 1) % rows, j, k), "torus_column"),
        ("row_minus", ((i - 1) % rows, j, k), "torus_column"),
    ]
    found += [
        (f"cube_dim_{d}", (i, j, k ^ (1 << d)), f"hypercube_dim_{d}")
        for d in range(cube_nodes.bit_length() - 1)
    ]
    return found


def apply_move(rows, cols, cube_nodes, node, label):
    """The image of ``node`` under the move named ``label``."""
    return _images(rows, cols, cube_nodes, node)[label]


# The reference router takes one move per hop, and the all-pairs routing
# test asks for the same few thousand nodes' images again and again.
@functools.lru_cache(maxsize=1 << 14)
def _images(rows, cols, cube_nodes, node):
    return {name: image for name, image, _ in moves(rows, cols, cube_nodes, node)}


def neighbors(rows, cols, cube_nodes, node):
    """Distinct one-move neighbours of ``node`` as (image, edge kind), in
    move order; a repeated image keeps its first kind and ``node`` itself
    is dropped."""
    kinds = {}
    for _, image, kind in moves(rows, cols, cube_nodes, node):
        if image != node:
            kinds.setdefault(image, kind)
    return list(kinds.items())


def enumerate_nodes(rows, cols, cube_nodes):
    return [
        (i, j, k)
        for i in range(rows)
        for j in range(cols)
        for k in range(cube_nodes)
    ]


def adjacency_by_enumeration(rows, cols, cube_nodes):
    """Adjacency sets: each node's :func:`neighbors`."""
    return {
        node: {image for image, _ in neighbors(rows, cols, cube_nodes, node)}
        for node in enumerate_nodes(rows, cols, cube_nodes)
    }


def _ring_labels(src, dst, size, plus, minus):
    # Shorter wrap direction; ties (delta == size/2) go to the plus move.
    forward = (dst - src) % size
    if forward <= size - forward:
        return [plus] * forward
    return [minus] * (size - forward)


def route_by_moves(rows, cols, cube_nodes, src, dst):
    """The reference router: (hops, move labels) from ``src`` to ``dst``.

    The move labels come first (column steps, then row steps, then cube
    bits ascending), then each hop is one :func:`apply_move` from the last.
    """
    labels = _ring_labels(src[1], dst[1], cols, "col_plus", "col_minus")
    labels += _ring_labels(src[0], dst[0], rows, "row_plus", "row_minus")
    labels += [
        f"cube_dim_{d}"
        for d in range(cube_nodes.bit_length() - 1)
        if (src[2] ^ dst[2]) >> d & 1
    ]
    hops = [src]
    for label in labels:
        hops.append(apply_move(rows, cols, cube_nodes, hops[-1], label))
    return hops, labels


def edge_count(adjacency):
    return sum(len(nbrs) for nbrs in adjacency.values()) // 2


def bfs_dist(adjacency, src, dst):
    """Hop distance by plain BFS; None when unreachable."""
    if src == dst:
        return 0
    dist = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nbr in adjacency[node]:
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                if nbr == dst:
                    return dist[nbr]
                queue.append(nbr)
    return None


def single_source_dists(adjacency, src):
    dist = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nbr in adjacency[node]:
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                queue.append(nbr)
    return dist


def all_pairs_diameter(adjacency):
    return max(
        max(single_source_dists(adjacency, src).values()) for src in adjacency
    )


def incident_cut_share(adjacency, source, goal, failures):
    """The share of all sets of ``failures`` links at ``source`` whose
    removal leaves ``source`` connected to ``goal``, as a ``Fraction``,
    with one search per set."""
    cuts = list(combinations(sorted(adjacency[source]), failures))
    connected = 0
    for cut in cuts:
        faulted = dict(adjacency)
        faulted[source] = adjacency[source] - set(cut)
        for nbr in cut:
            faulted[nbr] = adjacency[nbr] - {source}
        connected += bfs_dist(faulted, source, goal) is not None
    return Fraction(connected, len(cuts))

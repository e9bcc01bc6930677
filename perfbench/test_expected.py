"""Cross-checks of the benchmark's expected values against networkx.

    python3 -m pytest perfbench/test_expected.py -q
"""

import itertools

import networkx as nx
import pytest

import expected as ex

SMALL = [(3, 3, 2), (3, 4, 2), (4, 3, 4), (5, 3, 2), (4, 4, 8), (3, 5, 4)]


def product_graph(dims):
    """teh(l, m, N) as C_l x C_m x Q_n, nodes relabelled to (row, col, cube)."""
    l, m, cube_nodes = dims
    n = ex.log2(cube_nodes)
    graph = nx.cartesian_product(nx.cycle_graph(l), nx.cycle_graph(m))
    cube = nx.hypercube_graph(n)
    graph = nx.cartesian_product(graph, cube)
    # networkx labels Q_1's nodes 0 and 1, larger cubes' nodes by bit tuples.
    def label(bits):
        return bits if isinstance(bits, int) else int("".join(map(str, bits)), 2)

    return nx.relabel_nodes(
        graph, {((r, c), bits): (r, c, label(bits)) for (r, c), bits in graph.nodes}
    )


@pytest.mark.parametrize("dims", SMALL)
def test_links_diameter_and_distance_match_networkx(dims):
    graph = product_graph(dims)
    assert graph.number_of_edges() == ex.link_count("teh", dims)
    assert nx.diameter(graph) == ex.diameter("teh", dims)
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    for a, b in itertools.product(graph.nodes, repeat=2):
        assert lengths[a][b] == ex.distance(dims, a, b)


@pytest.mark.parametrize("dims", SMALL)
def test_elementary_moves_are_exactly_the_edges(dims):
    graph = product_graph(dims)
    for a, b in itertools.product(graph.nodes, repeat=2):
        assert (ex.move_between(dims, a, b) is not None) == graph.has_edge(a, b)


def test_edge_kind_uses_dense_indices():
    dims = (3, 4, 2)
    assert ex.address(dims, (2 * 4 + 3) * 2 + 1) == (2, 3, 1)
    assert ex.edge_kind(dims, 0, 2) == "torus_row"  # (0,0,0)-(0,1,0)
    assert ex.edge_kind(dims, 0, 8) == "torus_column"  # (0,0,0)-(1,0,0)
    assert ex.edge_kind(dims, 0, 1) == "hypercube_dim_0"
    assert ex.edge_kind(dims, 0, 3) is None


def test_reliability_reproduces_the_paper_table():
    want = ex.golden_table_json(3)["rows"]
    grid = ex.reliability_grid(ex.TABLE3_SPECS, ex.TABLE3_F_MAX)
    assert [row["cells"] for row in want] == grid
    assert ex.reliability_percent(7, 1) == 85.7
    assert ex.reliability_percent(8, 3) == 62.5
    assert ex.reliability_percent(7, 8) is None


def test_scale_steps():
    assert ex.scale_steps((4, 4, 16), "torus", 3) == [
        (4, 8, 16, 512, 8, False), (8, 8, 16, 1024, 8, False), (8, 16, 16, 2048, 8, False)
    ]
    assert ex.scale_steps((4, 4, 16), "hypercube", 1) == [(4, 4, 32, 512, 9, True)]

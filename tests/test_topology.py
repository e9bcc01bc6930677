"""Specs, addressing, the neighbour oracle, graph construction, export."""

import json

import pytest
from hypothesis import given, strategies as st

from bruteforce import adjacency_by_enumeration, neighbors
from strategies import SMALL_SPEC_IDS, SMALL_SPECS, small_specs, spec_with_addresses
from tehnet import (
    AddressOutOfRangeError,
    Family,
    FamilyMismatchError,
    IndexOutOfRangeError,
    NodeAddress,
    NonPositiveDimensionError,
    NotPowerOfTwoError,
    ResourceLimitError,
    SpecError,
    Topology,
    UnsupportedFormatError,
    build_graph,
    decode_address,
    encode_address,
    export_topology,
    hypercube_spec,
    teh_spec,
    torus_spec,
    validate_spec,
)
from tehnet.topology import _DOT_CUBE_PALETTE, _DOT_TORUS_COLORS


class TestValidateSpec:
    def test_embedded_network(self):
        spec = teh_spec(2, 2, 8)
        assert spec.cube_dim == 3
        assert spec.node_count == 32

    def test_smallest_hypercube(self):
        spec = hypercube_spec(2)
        assert spec.cube_dim == 1
        assert spec.node_count == 2

    def test_cube_nodes_must_be_power_of_two(self):
        with pytest.raises(NotPowerOfTwoError):
            teh_spec(4, 4, 6)

    @pytest.mark.parametrize("dims", [(0, 4, 8), (4, 0, 8), (4, 4, 0), (-1, 1, 1)])
    def test_nonpositive_dimensions(self, dims):
        with pytest.raises(NonPositiveDimensionError):
            teh_spec(*dims)

    @pytest.mark.parametrize(
        "dims", [(4.5, 4, 8), (4.0, 4, 8), ("4", 4, 8), (4, None, 8), (4, 4, 8.0)]
    )
    def test_non_integer_dimensions(self, dims):
        # A typed error before any comparison or graph work.
        with pytest.raises(SpecError, match="dimensions must be integers"):
            validate_spec("teh", *dims)

    def test_family_constraints(self):
        with pytest.raises(FamilyMismatchError):
            validate_spec(Family.HYPERCUBE, 2, 1, 8)
        with pytest.raises(FamilyMismatchError):
            validate_spec(Family.TORUS, 4, 4, 2)

    def test_torus_is_cube_free(self):
        spec = torus_spec(5, 3)
        assert spec.cube_dim == 0
        assert spec.node_count == 15

    def test_family_accepts_string_values(self):
        assert validate_spec("teh", 2, 2, 8) == teh_spec(2, 2, 8)


class TestAddressing:
    def test_origin_is_zero(self):
        assert encode_address(teh_spec(2, 2, 8), NodeAddress(0, 0, 0)) == 0

    def test_last_address(self):
        spec = teh_spec(2, 2, 8)
        assert encode_address(spec, NodeAddress(1, 1, 7)) == 31
        assert decode_address(spec, 31) == NodeAddress(1, 1, 7)

    def test_layout_keeps_cube_groups_contiguous(self):
        assert encode_address(teh_spec(2, 2, 8), NodeAddress(0, 1, 3)) == 11

    def test_out_of_range_address(self):
        spec = teh_spec(2, 2, 8)
        for bad in [(2, 0, 0), (0, 2, 0), (0, 0, 8), (-1, 0, 0)]:
            with pytest.raises(AddressOutOfRangeError):
                encode_address(spec, NodeAddress(*bad))

    def test_out_of_range_index(self):
        with pytest.raises(IndexOutOfRangeError):
            decode_address(teh_spec(2, 2, 8), 32)
        with pytest.raises(IndexOutOfRangeError):
            decode_address(teh_spec(2, 2, 8), -1)

    @given(small_specs(), st.data())
    def test_encode_decode_round_trip(self, spec, data):
        index = data.draw(st.integers(min_value=0, max_value=spec.node_count - 1))
        assert encode_address(spec, decode_address(spec, index)) == index


class TestNeighbors:
    """The oracle's neighbour lists, which the built edges must equal."""

    def test_full_degree_node(self):
        got = neighbors(4, 4, 8, (0, 0, 0))
        assert [node for node, _ in got] == [
            (0, 1, 0),
            (0, 3, 0),
            (1, 0, 0),
            (3, 0, 0),
            (0, 0, 1),
            (0, 0, 2),
            (0, 0, 4),
        ]

    def test_coincident_wraparounds_are_deduplicated(self):
        # For a ring of 2 the forward and backward steps land on the same
        # node, so only 5 of the 7 nominal neighbours remain.
        got = neighbors(2, 2, 8, (0, 0, 0))
        assert [node for node, _ in got] == [
            (0, 1, 0),
            (1, 0, 0),
            (0, 0, 1),
            (0, 0, 2),
            (0, 0, 4),
        ]

    def test_single_edge_hypercube(self):
        assert neighbors(1, 1, 2, (0, 0, 0)) == [((0, 0, 1), "hypercube_dim_0")]

    def test_kinds(self):
        kinds = dict(neighbors(4, 4, 8, (0, 0, 0)))
        assert kinds[(0, 1, 0)] == "torus_row"
        assert kinds[(1, 0, 0)] == "torus_column"
        assert kinds[(0, 0, 4)] == "hypercube_dim_2"

    @given(spec_with_addresses(count=1))
    def test_symmetry_with_matching_kind(self, spec_and_addr):
        spec, (addr,) = spec_and_addr
        dims = spec.rows, spec.cols, spec.cube_nodes
        for nbr, kind in neighbors(*dims, tuple(addr)):
            assert dict(neighbors(*dims, nbr))[tuple(addr)] == kind


class TestBuildGraph:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (hypercube_spec(512), 2304),
            (torus_spec(32, 32), 2048),
            (teh_spec(3, 3, 2), 45),
        ],
    )
    def test_edge_counts(self, spec, expected):
        assert len(build_graph(spec).edges) == expected

    def test_simple_graph(self):
        topology = build_graph(teh_spec(2, 2, 4))
        pairs = [(a, b) for a, b, _ in topology.edges]
        assert len(pairs) == len(set(pairs))
        assert all(a < b for a, b in pairs)

    def test_constant_degree_away_from_small_rings(self):
        topology = build_graph(teh_spec(3, 5, 4))
        expected = 4 + 2
        assert all(len(nbrs) == expected for nbrs in topology.adjacency)

    def test_node_cap(self):
        with pytest.raises(ResourceLimitError):
            build_graph(hypercube_spec(1024), node_cap=512)

    def test_distances_mark_unreached_nodes(self):
        # A path 0-1-2 plus two nodes with no edges.
        topology = Topology(spec=torus_spec(1, 5), edges=((0, 1, "x"), (1, 2, "x")))
        assert topology.distances(0) == [0, 1, 2, -1, -1]
        assert topology.distances(3) == [-1, -1, -1, 0, -1]

    @given(small_specs(max_rows=4, max_cols=4, cube_sizes=(1, 2, 4, 8)), st.data())
    def test_vertex_transitivity(self, spec, data):
        """Shifting rows/cols and XOR-ing cube labels permutes the edges."""
        da = data.draw(st.integers(min_value=0, max_value=spec.rows - 1))
        db = data.draw(st.integers(min_value=0, max_value=spec.cols - 1))
        dc = data.draw(st.integers(min_value=0, max_value=spec.cube_nodes - 1))
        edges = set(build_graph(spec).edges)

        def shift(index):
            addr = decode_address(spec, index)
            return encode_address(
                spec,
                NodeAddress(
                    (addr.row + da) % spec.rows,
                    (addr.col + db) % spec.cols,
                    addr.cube ^ dc,
                ),
            )

        mapped = set()
        for a, b, kind in edges:
            x, y = sorted((shift(a), shift(b)))
            mapped.add((x, y, kind))
        assert mapped == edges


class TestExport:
    def test_csv_single_edge(self):
        topology = build_graph(hypercube_spec(2))
        assert (
            export_topology(topology, "csv")
            == b"src_index,dst_index,kind\n0,1,hypercube_dim_0\n"
        )

    def test_json_document(self):
        doc = json.loads(export_topology(build_graph(teh_spec(2, 2, 8)), "json"))
        assert doc["node_count"] == 32
        assert doc["family"] == "teh"
        assert doc["n_cube_nodes"] == 8
        assert len(doc["edges"]) == 80
        assert doc["edges"][0] == {"src": 0, "dst": 1, "kind": "hypercube_dim_0"}

    def test_csv_torus_row_count(self):
        data = export_topology(build_graph(torus_spec(3, 3)), "csv").decode()
        assert len(data.strip().splitlines()) == 1 + 18

    def test_dot_labels_and_colors(self):
        text = export_topology(build_graph(teh_spec(2, 2, 2)), "dot").decode()
        assert '0 [label="0,0,0"];' in text
        assert text.startswith('graph "teh_2_2_2" {')
        assert 'color="#' in text
        assert text.endswith("}\n")

    def test_deterministic_bytes(self):
        spec = teh_spec(3, 3, 4)
        for fmt in ("csv", "json", "dot"):
            assert export_topology(build_graph(spec), fmt) == export_topology(
                build_graph(spec), fmt
            )

    def test_unknown_format(self):
        with pytest.raises(UnsupportedFormatError):
            export_topology(build_graph(hypercube_spec(2)), "yaml")


def edges_by_neighbors(spec):
    """The union over all nodes of the oracle's neighbors(), undirected
    and sorted."""
    dims = spec.rows, spec.cols, spec.cube_nodes
    edges = set()
    for index in range(spec.node_count):
        for nbr, kind in neighbors(*dims, tuple(decode_address(spec, index))):
            other = encode_address(spec, NodeAddress(*nbr))
            edges.add((min(index, other), max(index, other), kind))
    return tuple(sorted(edges))


class TestBuildAndExportOracles:
    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=SMALL_SPEC_IDS)
    def test_edges_match_neighbor_union(self, spec):
        assert build_graph(spec).edges == edges_by_neighbors(spec)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=SMALL_SPEC_IDS)
    def test_json_matches_json_dumps(self, spec):
        topology = build_graph(spec)
        doc = {
            "family": spec.family.value,
            "l": spec.rows,
            "m": spec.cols,
            "n_cube_nodes": spec.cube_nodes,
            "node_count": spec.node_count,
            "edges": [
                {"src": src, "dst": dst, "kind": kind}
                for src, dst, kind in topology.edges
            ],
        }
        expected = (json.dumps(doc, indent=2) + "\n").encode()
        assert export_topology(topology, "json") == expected

    def test_json_without_edges(self):
        topology = build_graph(hypercube_spec(1))
        assert topology.edges == ()
        assert export_topology(topology, "json") == (
            b'{\n  "family": "hypercube",\n  "l": 1,\n  "m": 1,\n'
            b'  "n_cube_nodes": 1,\n  "node_count": 1,\n  "edges": []\n}\n'
        )

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=SMALL_SPEC_IDS)
    def test_dot_node_labels_match_decode(self, spec):
        lines = export_topology(build_graph(spec), "dot").decode().splitlines()
        assert lines[1 : 1 + spec.node_count] == [
            f'  {index} [label="{decode_address(spec, index)}"];'
            for index in range(spec.node_count)
        ]


def reference_csv(topology):
    lines = ["src_index,dst_index,kind"]
    lines += [f"{s},{d},{k}" for s, d, k in topology.edges]
    return ("\n".join(lines) + "\n").encode()


def _dot_color(kind):
    if kind in _DOT_TORUS_COLORS:
        return _DOT_TORUS_COLORS[kind]
    return _DOT_CUBE_PALETTE[int(kind.removeprefix("hypercube_dim_")) % 7]


def reference_dot(topology):
    spec = topology.spec
    name = f"{spec.family.value}_{spec.rows}_{spec.cols}_{spec.cube_nodes}"
    lines = [f'graph "{name}" {{']
    lines += [
        f'  {index} [label="{decode_address(spec, index)}"];'
        for index in range(spec.node_count)
    ]
    lines += [f'  {s} -- {d} [color="{_dot_color(k)}"];' for s, d, k in topology.edges]
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def reference_json(topology):
    spec = topology.spec
    doc = {
        "family": spec.family.value,
        "l": spec.rows,
        "m": spec.cols,
        "n_cube_nodes": spec.cube_nodes,
        "node_count": spec.node_count,
        "edges": [{"src": s, "dst": d, "kind": k} for s, d, k in topology.edges],
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


REFERENCE_RENDERERS = {
    "csv": reference_csv,
    "dot": reference_dot,
    "json": reference_json,
}


class TestExportAndAdjacencyReferences:
    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=SMALL_SPEC_IDS)
    def test_csv_matches_reference(self, spec):
        topology = build_graph(spec)
        assert export_topology(topology, "csv") == reference_csv(topology)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=SMALL_SPEC_IDS)
    def test_dot_matches_reference(self, spec):
        topology = build_graph(spec)
        assert export_topology(topology, "dot") == reference_dot(topology)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=SMALL_SPEC_IDS)
    def test_adjacency_matches_enumeration(self, spec):
        adjacency = build_graph(spec).adjacency
        oracle = adjacency_by_enumeration(spec.rows, spec.cols, spec.cube_nodes)
        assert len(adjacency) == spec.node_count
        for index, nbrs in enumerate(adjacency):
            assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
            assert {tuple(decode_address(spec, nbr)) for nbr in nbrs} == oracle[
                tuple(decode_address(spec, index))
            ]

    @pytest.mark.parametrize("fmt", sorted(REFERENCE_RENDERERS))
    @pytest.mark.parametrize("dims", [(16, 32, 8), (9, 11, 32)])
    def test_pool_sized_exports_match_reference(self, dims, fmt):
        topology = build_graph(teh_spec(*dims))
        assert export_topology(topology, fmt) == REFERENCE_RENDERERS[fmt](topology)

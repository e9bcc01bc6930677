"""Closed-form distance, the router, and the moves and BFS it must agree
with: the oracle's moves on triples and the built graph's searches."""

import io
import json

import pytest
from hypothesis import given, strategies as st

from bruteforce import adjacency_by_enumeration, apply_move, bfs_dist, route_by_moves
from strategies import (
    NON_INT_ADDRESSES,
    SMALL_SPEC_IDS,
    SMALL_SPECS,
    spec_with_addresses,
)
from tehnet import (
    AddressOutOfRangeError,
    IndexOutOfRangeError,
    NodeAddress,
    Path,
    Topology,
    build_graph,
    decode_address,
    diameter_closed,
    distance_closed,
    encode_address,
    hypercube_spec,
    route,
    teh_spec,
)
from tehnet.cli import run


def shape(spec):
    """(rows, cols, cube_nodes): the oracle functions' first arguments."""
    return spec.rows, spec.cols, spec.cube_nodes


class TestApplyMove:
    """The oracle's moves, which the router's labels are checked against."""

    def test_column_step_wraps(self):
        assert apply_move(2, 2, 8, (0, 0, 0), "col_plus") == (0, 1, 0)

    def test_row_step_backward_wraps(self):
        assert apply_move(4, 4, 8, (0, 0, 0), "row_minus") == (3, 0, 0)

    def test_cube_move_complements_one_bit(self):
        assert apply_move(2, 2, 8, (0, 0, 5), "cube_dim_2") == (0, 0, 1)

    @given(spec_with_addresses(count=1))
    def test_torus_round_trips(self, spec_and_addr):
        spec, (addr,) = spec_and_addr
        node = tuple(addr)
        there = apply_move(*shape(spec), node, "col_plus")
        assert apply_move(*shape(spec), there, "col_minus") == node
        there = apply_move(*shape(spec), node, "row_plus")
        assert apply_move(*shape(spec), there, "row_minus") == node

    @given(spec_with_addresses(count=1, cube_sizes=(2, 4, 8, 16)), st.data())
    def test_cube_move_is_an_involution(self, spec_and_addr, data):
        spec, (addr,) = spec_and_addr
        dim = data.draw(st.integers(min_value=0, max_value=spec.cube_dim - 1))
        label = f"cube_dim_{dim}"
        there = apply_move(*shape(spec), tuple(addr), label)
        assert apply_move(*shape(spec), there, label) == tuple(addr)


_REFERENCE_SPECS = [
    pytest.param(spec, id=spec_id)
    for spec, spec_id in zip(SMALL_SPECS, SMALL_SPEC_IDS)
    if spec.node_count <= 64
]


class TestDistanceClosed:
    def test_ring_plus_hamming(self):
        spec = teh_spec(2, 2, 8)
        assert distance_closed(spec, NodeAddress(0, 0, 0), NodeAddress(1, 1, 5)) == 4

    def test_wraparound_shortens_rings(self):
        spec = teh_spec(4, 4, 2)
        assert distance_closed(spec, NodeAddress(0, 0, 0), NodeAddress(2, 3, 1)) == 4

    @given(spec_with_addresses(count=1))
    def test_identity(self, spec_and_addr):
        spec, (addr,) = spec_and_addr
        assert distance_closed(spec, addr, addr) == 0

    @given(spec_with_addresses(count=2))
    def test_symmetry(self, spec_and_addrs):
        spec, (a, b) = spec_and_addrs
        assert distance_closed(spec, a, b) == distance_closed(spec, b, a)

    @given(spec_with_addresses(count=2))
    def test_positivity(self, spec_and_addrs):
        spec, (a, b) = spec_and_addrs
        dist = distance_closed(spec, a, b)
        assert dist >= 0
        assert (dist == 0) == (a == b)

    @given(spec_with_addresses(count=3))
    def test_triangle_inequality(self, spec_and_addrs):
        spec, (a, b, c) = spec_and_addrs
        assert distance_closed(spec, a, c) <= (
            distance_closed(spec, a, b) + distance_closed(spec, b, c)
        )

    @given(spec_with_addresses(count=2), st.data())
    def test_translation_and_xor_invariance(self, spec_and_addrs, data):
        spec, (a, b) = spec_and_addrs
        da = data.draw(st.integers(min_value=0, max_value=spec.rows - 1))
        db = data.draw(st.integers(min_value=0, max_value=spec.cols - 1))
        dc = data.draw(st.integers(min_value=0, max_value=spec.cube_nodes - 1))

        def shift(addr):
            return NodeAddress(
                (addr.row + da) % spec.rows,
                (addr.col + db) % spec.cols,
                addr.cube ^ dc,
            )

        assert distance_closed(spec, shift(a), shift(b)) == distance_closed(
            spec, a, b
        )

    @pytest.mark.parametrize("spec", _REFERENCE_SPECS)
    def test_matches_bfs_on_every_pair(self, spec):
        # Rings of 1 and 2 included: there both ways round have the same
        # length, or the ring has no other node.
        topology = build_graph(spec)
        nodes = [decode_address(spec, index) for index in range(spec.node_count)]
        for source, src in enumerate(nodes):
            closed = [distance_closed(spec, src, dst) for dst in nodes]
            assert closed == topology.distances(source)


_BAD_ADDRESSES = [
    # Each coordinate of teh(3, 4, 8) just below and at its bound, then
    # each field a float or a bool.
    (-1, 0, 0), (3, 0, 0), (0, -1, 0), (0, 4, 0), (0, 0, -1), (0, 0, 8),
    *NON_INT_ADDRESSES,
]


class TestAddressRange:
    """``route`` and ``distance_closed`` reject an address outside the spec
    with the message ``check_address`` gives, naming ``src`` first."""

    SPEC = teh_spec(3, 4, 8)
    GOOD = NodeAddress(2, 3, 7)

    @pytest.mark.parametrize("func", [route, distance_closed])
    @pytest.mark.parametrize("side", ["src", "dst"])
    @pytest.mark.parametrize("bad", _BAD_ADDRESSES, ids=map(str, _BAD_ADDRESSES))
    def test_each_bound_in_each_argument(self, func, side, bad):
        ends = {"src": self.GOOD, "dst": self.GOOD, side: NodeAddress(*bad)}
        row, col, cube = bad
        message = f"address {row},{col},{cube} out of range for (3, 4, 8)"
        with pytest.raises(AddressOutOfRangeError) as raised:
            func(self.SPEC, ends["src"], ends["dst"])
        assert str(raised.value) == message

    @pytest.mark.parametrize("func", [route, distance_closed])
    def test_both_out_of_range_names_src(self, func):
        src, dst = NodeAddress(0, 4, 0), NodeAddress(-1, 0, 9)
        with pytest.raises(AddressOutOfRangeError) as raised:
            func(self.SPEC, src, dst)
        assert str(raised.value) == "address 0,4,0 out of range for (3, 4, 8)"

    @pytest.mark.parametrize("func", [route, distance_closed])
    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_plain_tuple_is_not_an_address(self, func, side):
        ends = {"src": self.GOOD, "dst": self.GOOD, side: (0, 0, 0)}
        with pytest.raises(AttributeError):
            func(self.SPEC, ends["src"], ends["dst"])


class TestRoute:
    def test_trivial_path(self):
        path = route(teh_spec(2, 2, 8), NodeAddress(0, 0, 0), NodeAddress(0, 0, 0))
        assert path.hops == (NodeAddress(0, 0, 0),)
        assert path.moves == ()

    def test_fixed_move_order(self):
        # Columns first, then rows, then cube bits ascending.
        path = route(teh_spec(2, 2, 8), NodeAddress(0, 0, 0), NodeAddress(1, 1, 5))
        assert list(path.moves) == [
            "col_plus",
            "row_plus",
            "cube_dim_0",
            "cube_dim_2",
        ]

    def test_takes_shorter_wrap_direction(self):
        path = route(teh_spec(4, 4, 2), NodeAddress(0, 3, 0), NodeAddress(0, 0, 0))
        assert path.moves == ("col_plus",)

    def test_half_ring_tie_goes_forward(self):
        path = route(teh_spec(4, 4, 2), NodeAddress(0, 0, 0), NodeAddress(2, 0, 0))
        assert path.moves == ("row_plus", "row_plus")

    def test_deterministic(self):
        spec = teh_spec(3, 5, 8)
        src, dst = NodeAddress(0, 1, 3), NodeAddress(2, 4, 6)
        assert route(spec, src, dst) == route(spec, src, dst)

    @given(spec_with_addresses(count=2))
    def test_path_is_valid_and_shortest(self, spec_and_addrs):
        spec, (src, dst) = spec_and_addrs
        path = route(spec, src, dst)
        assert path.hops[0] == src
        assert path.hops[-1] == dst
        assert len(path.hops) == len(path.moves) + 1
        for hop, move, nxt in zip(path.hops, path.moves, path.hops[1:]):
            assert apply_move(*shape(spec), tuple(hop), move) == tuple(nxt)
        assert len(set(path.hops)) == len(path.hops)
        assert path.length == distance_closed(spec, src, dst)
        assert path.length <= diameter_closed(spec)

    @pytest.mark.parametrize("spec", _REFERENCE_SPECS)
    def test_matches_the_reference_router_on_every_pair(self, spec):
        nodes = [decode_address(spec, index) for index in range(spec.node_count)]
        for src in nodes:
            for dst in nodes:
                path = route(spec, src, dst)
                hops, labels = route_by_moves(*shape(spec), tuple(src), tuple(dst))
                assert [(h.row, h.col, h.cube) for h in path.hops] == hops
                assert list(path.moves) == labels
                # The router builds its records without their constructors;
                # they must still be exactly the keyword-built ones.
                assert type(path) is Path
                assert all(type(hop) is NodeAddress for hop in path.hops)
                assert path == Path(
                    spec=spec,
                    hops=tuple(NodeAddress(*hop) for hop in hops),
                    moves=tuple(labels),
                )

    def test_flips_only_the_differing_cube_bits(self):
        spec = hypercube_spec(1 << 20)
        dst = NodeAddress(0, 0, 1 | 1 << 5 | 1 << 19)
        path = route(spec, NodeAddress(0, 0, 0), dst)
        assert list(path.moves) == [
            "cube_dim_0",
            "cube_dim_5",
            "cube_dim_19",
        ]
        assert [hop.cube for hop in path.hops] == [0, 1, 1 | 1 << 5, dst.cube]

    def test_matches_the_reference_router_on_long_wrapping_walks(self):
        import random

        spec = teh_spec(64, 64, 64)
        rng = random.Random(14)
        for _ in range(500):
            src = decode_address(spec, rng.randrange(spec.node_count))
            dst = decode_address(spec, rng.randrange(spec.node_count))
            path = route(spec, src, dst)
            hops, labels = route_by_moves(*shape(spec), tuple(src), tuple(dst))
            assert [tuple(hop) for hop in path.hops] == hops
            assert list(path.moves) == labels

    def test_moves_are_their_labels(self):
        path = route(teh_spec(4, 4, 8), NodeAddress(0, 0, 0), NodeAddress(1, 1, 1))
        assert path.moves == ("col_plus", "row_plus", "cube_dim_0")

    def test_json_serialization(self):
        out = io.StringIO()
        argv = ["route", "--family", "teh", "--l", "2", "--m", "2", "--cube", "8",
                "--from", "0,0,0", "--to", "1,1,5", "--format", "json"]
        assert run(argv, out, io.StringIO()) == 0
        doc = json.loads(out.getvalue())
        assert doc["hops"][0] == "0,0,0"
        assert doc["moves"][-1] == "cube_dim_2"
        assert doc["length"] == 4


class TestBfsDistance:
    """Hop counts from ``Topology.distances`` on the built graph."""

    def test_agrees_with_closed_form(self):
        spec = teh_spec(2, 2, 8)
        goal = encode_address(spec, NodeAddress(1, 1, 5))
        assert build_graph(spec).distances(0)[goal] == 4

    @given(spec_with_addresses(count=1))
    def test_identity(self, spec_and_addr):
        spec, (addr,) = spec_and_addr
        index = encode_address(spec, addr)
        assert build_graph(spec).distances(index)[index] == 0

    def test_hypercube_distance_is_hamming(self):
        topology = build_graph(hypercube_spec(8))
        for a in range(8):
            assert topology.distances(a) == [(a ^ b).bit_count() for b in range(8)]

    def test_unreachable_on_edgeless_graph(self):
        # An unreached node reads -1.
        topology = Topology(spec=teh_spec(2, 2, 2), edges=())
        assert topology.distances(0) == [0, -1, -1, -1, -1, -1, -1, -1]

    @pytest.mark.parametrize("source", [-1, 8])
    def test_source_outside_the_index_space(self, source):
        # -1 is a valid list index, so only the range check rejects it.
        topology = build_graph(teh_spec(2, 2, 2))
        message = rf"^source {source} outside 0\.\.7$"
        with pytest.raises(IndexOutOfRangeError, match=message):
            topology.distances(source)

    @pytest.mark.parametrize("dims", [(3, 3, 4), (4, 4, 2), (2, 2, 8)])
    def test_all_routes_match_both_oracles(self, dims):
        """route length == closed form == library BFS == external BFS."""
        spec = teh_spec(*dims)
        topology = build_graph(spec)
        oracle = adjacency_by_enumeration(*dims)
        nodes = [decode_address(spec, index) for index in range(spec.node_count)]
        for source, src in enumerate(nodes):
            for dst, searched in zip(nodes, topology.distances(source)):
                expected = bfs_dist(oracle, tuple(src), tuple(dst))
                assert distance_closed(spec, src, dst) == expected
                assert searched == expected
                assert route(spec, src, dst).length == expected

    def test_sampled_pairs_on_a_larger_network(self):
        import random

        spec = teh_spec(8, 8, 16)
        topology = build_graph(spec)
        rng = random.Random(2024)
        for _ in range(1000):
            source = rng.randrange(spec.node_count)
            goal = rng.randrange(spec.node_count)
            src = decode_address(spec, source)
            dst = decode_address(spec, goal)
            expected = distance_closed(spec, src, dst)
            assert route(spec, src, dst).length == expected
            assert topology.distances(source)[goal] == expected

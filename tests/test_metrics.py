"""Closed-form metrics against graph oracles and the reference cells."""

import io
import json
import warnings

import pytest
from hypothesis import given, settings

from bruteforce import adjacency_by_enumeration, all_pairs_diameter, edge_count
from strategies import SMALL_SPEC_IDS, SMALL_SPECS, small_specs
from tehnet import (
    DiameterConvention,
    SpecError,
    build_graph,
    diameter_bfs,
    diameter_closed,
    hypercube_spec,
    link_count_closed,
    link_count_simple,
    metrics_report,
    square_torus_diameter,
    teh_spec,
    torus_spec,
)
from tehnet.cli import run
from tehnet.metrics import simple_degree


def metrics_output(fmt, *spec_args):
    out = io.StringIO()
    assert run(["metrics", *spec_args, "--format", fmt], out, io.StringIO()) == 0
    return out.getvalue()


class TestLinkCount:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (teh_spec(16, 16, 2), 1280),
            (teh_spec(4, 8, 16), 2048),
            (hypercube_spec(16384), 114688),
            (torus_spec(32, 32), 2048),
            (teh_spec(2, 2, 8), 112),
        ],
    )
    def test_closed_form_cells(self, spec, expected):
        assert link_count_closed(spec) == expected

    @given(small_specs())
    @settings(max_examples=60)
    def test_simple_count_matches_enumeration(self, spec):
        oracle = adjacency_by_enumeration(spec.rows, spec.cols, spec.cube_nodes)
        assert link_count_simple(spec) == edge_count(oracle)
        assert link_count_simple(spec) == len(build_graph(spec).edges)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=SMALL_SPEC_IDS)
    def test_simple_degree_is_every_nodes_degree(self, spec):
        degrees = set(map(len, build_graph(spec).adjacency))
        assert degrees == {simple_degree(spec)}

    def test_closed_equals_simple_for_big_rings(self):
        for dims in [(3, 3, 1), (3, 4, 2), (5, 5, 8), (4, 6, 4)]:
            spec = teh_spec(*dims)
            assert link_count_closed(spec) == link_count_simple(spec)

    @pytest.mark.parametrize("spec", SMALL_SPECS, ids=SMALL_SPEC_IDS)
    def test_simple_degree_names_the_closed_form_surplus(self, spec):
        """The closed count keeps two links per node on every ring; the
        links it has above the simple graph are the ones ``simple_degree``
        drops, and no call warns about them."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = metrics_report(spec)
            closed, simple = link_count_closed(spec), link_count_simple(spec)
        assert report.links == closed
        surplus = spec.node_count * (spec.nominal_degree - simple_degree(spec))
        assert 2 * (closed - simple) == surplus
        assert simple == len(build_graph(spec).edges)


#: Every teh spec with l, m <= 6 and N <= 8.
_TEH_GRID = [
    teh_spec(rows, cols, cube)
    for rows in range(1, 7)
    for cols in range(1, 7)
    for cube in (1, 2, 4, 8)
]
#: The BFS-diameter tests' specs.
_DIAMETER_SPECS = [*_TEH_GRID, hypercube_spec(16), torus_spec(3, 3)]


class TestDiameter:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (teh_spec(16, 16, 64), 22),
            (hypercube_spec(2), 1),
            (teh_spec(4, 4, 8), 7),
            (torus_spec(3, 3), 2),
            (teh_spec(2, 2, 8), 5),
            *((hypercube_spec(2**k), k) for k in range(15)),
            (torus_spec(1, 1), 0),
            (teh_spec(1, 1, 1), 0),
        ],
    )
    def test_closed_form(self, spec, expected):
        # Both conventions agree on a square torus part, and a hypercube's
        # is 1 x 1, so every spec here has one diameter.
        assert diameter_closed(spec) == expected
        for convention in DiameterConvention:
            assert metrics_report(spec, convention).diameter == expected

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (teh_spec(2, 2, 8), 5),
            (hypercube_spec(16), 4),
            (torus_spec(3, 3), 2),
            *(
                pytest.param(
                    spec,
                    diameter_closed(spec),
                    id=f"teh-{spec.rows}-{spec.cols}-{spec.cube_nodes}",
                )
                for spec in _TEH_GRID
                if spec != teh_spec(2, 2, 8)
            ),
        ],
    )
    def test_bfs_all_pairs(self, spec, expected):
        """Every node's eccentricity in the built graph is the diameter."""
        topology = build_graph(spec)
        for source in range(spec.node_count):
            assert max(topology.distances(source)) == expected, source

    def test_bfs_matches_closed_and_enumeration(self):
        """``diameter_bfs`` equals the closed form on every spec of
        ``_DIAMETER_SPECS``, and so does the enumerated adjacency's
        all-pairs diameter where both rings have at most 5 nodes."""
        for spec in _DIAMETER_SPECS:
            expected = diameter_closed(spec)
            assert diameter_bfs(build_graph(spec)) == expected, spec
            if spec.rows <= 5 and spec.cols <= 5:
                oracle = adjacency_by_enumeration(spec.rows, spec.cols, spec.cube_nodes)
                assert all_pairs_diameter(oracle) == expected, spec


class TestSquareTorusDiameter:
    @pytest.mark.parametrize("nodes,expected", [(512, 22), (1024, 32), (8192, 90)])
    def test_reference_values(self, nodes, expected):
        assert square_torus_diameter(nodes) == expected

    @pytest.mark.parametrize("side", range(3, 41))
    def test_exact_on_perfect_squares(self, side):
        assert square_torus_diameter(side * side) == 2 * (side // 2)
        assert square_torus_diameter(side * side) == diameter_closed(
            torus_spec(side, side)
        )


class TestCost:
    @pytest.mark.parametrize(
        "spec,convention,expected",
        [
            (teh_spec(16, 16, 16), DiameterConvention.EXACT, 327680),
            (hypercube_spec(512), DiameterConvention.EXACT, 20736),
            (teh_spec(16, 32, 16), DiameterConvention.SQUARE_APPROX, 851968),
        ],
    )
    def test_reference_values(self, spec, convention, expected):
        assert metrics_report(spec, convention).cost == expected

    @pytest.mark.parametrize("convention", list(DiameterConvention))
    @pytest.mark.parametrize(
        "spec", [teh_spec(4, 6, 8), torus_spec(16, 32), hypercube_spec(512)]
    )
    def test_string_convention_equals_its_enum(self, spec, convention):
        report = metrics_report(spec, convention.value)
        assert report.convention is convention
        assert report == metrics_report(spec, convention)

    def test_unknown_convention(self):
        # The typed error, not the enum's plain ValueError.
        match = "^unknown diameter convention 'foo'$"
        with pytest.raises(SpecError, match=match) as raised:
            metrics_report(teh_spec(4, 4, 8), "foo")
        assert raised.value.__suppress_context__

    def test_cost_is_links_times_diameter(self):
        for dims in [(3, 3, 4), (4, 4, 8), (16, 16, 4)]:
            report = metrics_report(teh_spec(*dims))
            assert report.cost == report.links * report.diameter

    def test_link_ordering_between_families(self):
        # At every reference scale the embedded network needs more links
        # than the torus and fewer than the hypercube.
        for exponent in range(9, 15):
            processors = 2 ** exponent
            torus_links = 2 * processors
            cube_links = processors * exponent // 2
            embedded_links = processors * (4 + exponent - 8) // 2
            assert torus_links <= embedded_links <= cube_links


class TestMetricsReport:
    def test_embedded_report(self):
        report = metrics_report(teh_spec(16, 16, 4))
        assert (report.links, report.diameter, report.cost) == (3072, 18, 55296)
        assert report.degree == 6

    def test_smallest_hypercube_report(self):
        report = metrics_report(hypercube_spec(2))
        assert (report.links, report.diameter, report.cost) == (1, 1, 1)

    def test_small_embedded_report(self):
        report = metrics_report(teh_spec(4, 4, 8))
        assert (report.links, report.diameter, report.cost) == (448, 7, 3136)

    def test_csv_line(self):
        header, line = metrics_output(
            "csv", "--family", "teh", "--l", "16", "--m", "16", "--cube", "4"
        ).splitlines()
        assert header.count(",") == line.count(",")
        assert line == "teh,16,16,4,1024,6,3072,18,55296,exact"

    @pytest.mark.parametrize("family", ["teh", "torus", "hypercube"])
    @pytest.mark.parametrize("command", ["metrics", "simulate", "route", "scale"])
    def test_json_dict_key_order(self, command, family):
        # Every command record opens with family, l, m and its cube key,
        # after scale's step and mode; a csv record's header is its keys.
        spec_args = {
            "teh": ("--l", "4", "--m", "4", "--cube", "8"),
            "torus": ("--l", "4", "--m", "4"),
            "hypercube": ("--cube", "8"),
        }[family]
        extra, lead, cube_key, rest = {
            "metrics": (
                (), (), "N",
                ["nodes", "degree", "links", "diameter", "cost", "convention"],
            ),
            "simulate": (
                ("--f", "1"), (), "N", ["failures", "trials", "seed", "estimate"]
            ),
            "route": (
                ("--from", "0,0,0", "--to", "1,1,0"), (), "n_cube_nodes",
                ["hops", "moves", "length"],
            ),
            "scale": (
                ("--mode", "hypercube", "--steps", "2"), ("step", "mode"), "N",
                ["nodes", "degree", "existing_nodes_reconfigured"],
            ),
        }[command]
        if family == "hypercube" and command == "route":
            extra = ("--from", "0,0,0", "--to", "0,0,5")

        def output(fmt):
            out = io.StringIO()
            argv = [command, "--family", family, *spec_args, *extra, "--format", fmt]
            assert run(argv, out, io.StringIO()) == 0
            return out.getvalue()

        doc = json.loads(output("json"))
        records = doc if command == "scale" else [doc]
        keys = [*lead, "family", "l", "m", cube_key, *rest]
        assert [list(record) for record in records] == [keys] * len(records)
        if command != "route":
            # A route's csv is one line per hop, not its record.
            assert output("csv").splitlines()[0].split(",") == keys

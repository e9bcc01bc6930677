"""Closed-form metrics against graph oracles and the reference cells."""

import io
import json
import warnings

import pytest
from hypothesis import given, settings

from bruteforce import adjacency_by_enumeration, all_pairs_diameter, edge_count
from strategies import SMALL_SPEC_IDS, SMALL_SPECS, small_specs
from tehnet import (
    ClosedFormApproximationWarning,
    DiameterConvention,
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

    def test_warns_when_rings_collapse(self):
        with pytest.warns(ClosedFormApproximationWarning):
            assert link_count_closed(teh_spec(2, 2, 8)) == 112
        assert link_count_simple(teh_spec(2, 2, 8)) == 80

    def test_no_warning_for_hypercube_or_wide_torus(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            link_count_closed(hypercube_spec(8))
            link_count_closed(torus_spec(3, 3))


def all_sources_diameter(topology):
    """The largest eccentricity, one search of the built graph per node."""
    sources = range(topology.node_count)
    return max(max(topology.distances(source)) for source in sources)


class TestDiameter:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (teh_spec(16, 16, 64), 22),
            (hypercube_spec(2), 1),
            (teh_spec(4, 4, 8), 7),
            (torus_spec(3, 3), 2),
            (teh_spec(2, 2, 8), 5),
        ],
    )
    def test_closed_form(self, spec, expected):
        assert diameter_closed(spec) == expected

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (teh_spec(2, 2, 8), 5),
            (hypercube_spec(16), 4),
            (torus_spec(3, 3), 2),
        ],
    )
    def test_bfs_all_pairs(self, spec, expected):
        assert all_sources_diameter(build_graph(spec)) == expected

    @given(small_specs(max_rows=5, max_cols=5, cube_sizes=(1, 2, 4, 8)))
    @settings(max_examples=40, deadline=None)
    def test_bfs_matches_closed_and_enumeration(self, spec):
        topology = build_graph(spec)
        expected = diameter_closed(spec)
        assert diameter_bfs(topology) == expected
        assert all_sources_diameter(topology) == expected
        oracle = adjacency_by_enumeration(spec.rows, spec.cols, spec.cube_nodes)
        assert all_pairs_diameter(oracle) == expected


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
        assert report.to_json_dict() == metrics_report(spec, convention).to_json_dict()

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

    def test_json_dict_key_order(self):
        spec_args = ("--family", "hypercube", "--cube", "4")
        header = metrics_output("csv", *spec_args).splitlines()[0]
        json_keys = list(json.loads(metrics_output("json", *spec_args)))
        assert json_keys == header.split(",")
        assert json_keys == list(metrics_report(hypercube_spec(4)).to_json_dict())

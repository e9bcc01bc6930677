"""Analytical reliability model, table rendering, and the fault model."""

import io
import math
import re
from fractions import Fraction

import pytest

import tehnet.cli
import tehnet.reliability
import tehnet.topology
from bruteforce import adjacency_by_enumeration, incident_cut_share
from strategies import SMALL_SPEC_IDS, SMALL_SPECS
from tehnet import (
    CountOutOfRangeError,
    SpecError,
    Topology,
    TooManyFaultsError,
    build_graph,
    decode_address,
    distance_closed,
    hypercube_spec,
    monte_carlo_connectivity,
    reliability_percent,
    reliability_table,
    teh_spec,
    torus_spec,
    unreliability_percent,
)
from tehnet.reliability import antipodal_node
from tehnet.tables import (
    TABLE3_SPECS,
    format_reliability_cell,
    reliability_output,
    render,
)

SCALED_SPECS = [teh_spec(4, 4, n) for n in (8, 16, 32, 64)]
ORACLE_SPECS = [
    pytest.param(spec, id=spec_id)
    for spec, spec_id in zip(SMALL_SPECS, SMALL_SPEC_IDS)
    if spec.node_count <= 64
]


def percent_by_fraction(fraction):
    """Reference: the exact fraction as a percentage, rounded half away
    from zero to one decimal in ``Fraction`` arithmetic, apart from the
    library's integer rounding."""
    return math.floor(fraction * 1000 + Fraction(1, 2)) / 10


def reliability_by_fraction(spec, failures):
    """Reference: the percentages built from ``Fraction(d - f, d)``."""
    degree = spec.nominal_degree
    if failures > degree:
        return None, None
    surviving = Fraction(degree - failures, degree)
    return percent_by_fraction(surviving), percent_by_fraction(1 - surviving)


PERCENT_ORACLE_SPECS = [
    pytest.param(
        spec, id=f"{spec.family.value}-{spec.rows}-{spec.cols}-{spec.cube_nodes}"
    )
    for spec in dict.fromkeys(
        [
            *(spec for spec in SMALL_SPECS if spec.nominal_degree),
            *TABLE3_SPECS,
            *(hypercube_spec(2**n) for n in range(1, 11)),
        ]
    )
]
ALL_MODEL_FUNCTIONS = (reliability_percent, unreliability_percent)


def antipodal_by_scan(spec):
    """Reference: scan every node for the first at the largest distance."""
    origin = decode_address(spec, 0)
    best_index, best_dist = 0, -1
    for index in range(spec.node_count):
        dist = distance_closed(spec, origin, decode_address(spec, index))
        if dist > best_dist:
            best_index, best_dist = index, dist
    return best_index


@pytest.fixture
def rounded(monkeypatch):
    """The exact fractions the model hands to its rounding step, in order."""
    seen = []
    original = tehnet.reliability._round1_half_away

    def spy(numerator, denominator):
        seen.append(Fraction(numerator, denominator))
        return original(numerator, denominator)

    monkeypatch.setattr(tehnet.reliability, "_round1_half_away", spy)
    return seen


class TestAnalyticalModel:
    @pytest.mark.parametrize(
        "cube_nodes,failures,expected",
        [
            (8, 3, 57.1),
            (64, 9, 10.0),
            (8, 1, 85.7),
            (32, 1, 88.9),
            (16, 4, 50.0),
            (8, 7, 0.0),
        ],
    )
    def test_percent_values(self, cube_nodes, failures, expected):
        assert reliability_percent(teh_spec(4, 4, cube_nodes), failures) == expected

    def test_no_failures_means_fully_reliable(self):
        for spec in SCALED_SPECS:
            assert reliability_percent(spec, 0) == 100.0
            assert unreliability_percent(spec, 0) == 0.0

    def test_absent_above_degree(self):
        assert reliability_percent(teh_spec(4, 4, 8), 8) is None
        assert unreliability_percent(teh_spec(4, 4, 8), 8) is None

    def test_negative_failures_rejected(self):
        with pytest.raises(ValueError):
            reliability_percent(teh_spec(4, 4, 8), -1)

    @pytest.mark.parametrize("model", ALL_MODEL_FUNCTIONS)
    def test_negative_failures_are_a_count_error(self, model):
        # A float or a bool is no count either, though 1.5 and True compare.
        for failures in (-1, 1.5, True):
            with pytest.raises(CountOutOfRangeError) as raised:
                model(teh_spec(4, 4, 8), failures)
            assert str(raised.value) == f"failure count must be >= 0, got {failures}"

    @pytest.mark.parametrize("model", ALL_MODEL_FUNCTIONS)
    @pytest.mark.parametrize("failures", [0, 1])
    def test_degree_zero_is_a_spec_error(self, model, failures):
        with pytest.raises(SpecError) as raised:
            model(hypercube_spec(1), failures)
        assert str(raised.value) == (
            "hypercube (1, 1, 1) has nominal degree 0, so (d - f) / d is undefined"
        )

    @pytest.mark.parametrize("model", ALL_MODEL_FUNCTIONS)
    def test_negative_failures_are_checked_before_the_degree(self, model):
        with pytest.raises(CountOutOfRangeError):
            model(hypercube_spec(1), -1)

    @pytest.mark.parametrize("spec", PERCENT_ORACLE_SPECS)
    def test_percentages_match_the_fraction_reference(self, spec):
        for failures in range(spec.nominal_degree + 2):
            expected = reliability_by_fraction(spec, failures)
            actual = (
                reliability_percent(spec, failures),
                unreliability_percent(spec, failures),
            )
            assert actual == expected, (spec, failures)

    @pytest.mark.parametrize("spec", PERCENT_ORACLE_SPECS)
    def test_fraction_is_a_fraction(self, spec, rounded):
        """reliability_percent rounds the exact fraction (d - f) / d."""
        degree = spec.nominal_degree
        for failures in range(degree + 1):
            rounded.clear()
            reliability_percent(spec, failures)
            assert rounded == [Fraction(degree - failures, degree)]
        rounded.clear()
        assert reliability_percent(spec, degree + 1) is None
        assert rounded == []

    def test_exact_complement_before_rounding(self, rounded):
        """unreliability_percent rounds 1 - (d - f) / d, not 100 minus the
        rounded reliability."""
        for param in PERCENT_ORACLE_SPECS:
            (spec,) = param.values
            degree = spec.nominal_degree
            for failures in range(degree + 1):
                rounded.clear()
                unreliability_percent(spec, failures)
                assert rounded == [1 - Fraction(degree - failures, degree)]

    def test_rounded_complement(self):
        assert unreliability_percent(teh_spec(4, 4, 8), 1) == 14.3
        assert unreliability_percent(teh_spec(4, 4, 64), 10) == 100.0

    def test_strictly_decreasing_in_failures(self):
        for spec in SCALED_SPECS:
            values = [
                reliability_percent(spec, f) for f in range(spec.nominal_degree + 1)
            ]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert values[-1] == 0.0

    def test_strictly_increasing_in_network_size(self):
        for failures in range(1, 8):
            values = [reliability_percent(spec, failures) for spec in SCALED_SPECS]
            assert all(a < b for a, b in zip(values, values[1:]))


class TestTableRendering:
    def test_grid_shape(self):
        rows = reliability_table(SCALED_SPECS, 9)
        assert len(rows) == 9
        assert all(len(row) == 4 for row in rows)
        assert rows[6] == tuple(reliability_percent(s, 7) for s in SCALED_SPECS)

    def test_single_cell(self):
        rows = reliability_table([teh_spec(4, 4, 16)], 1)
        assert rows == [(87.5,)]

    def test_absent_cell(self):
        rows = reliability_table([teh_spec(4, 4, 8)], 8)
        assert rows[-1] == (None,)

    def test_cell_typography(self):
        assert format_reliability_cell(None) == "—"
        assert format_reliability_cell(0.0) == "00"
        assert format_reliability_cell(75.0) == "75"
        assert format_reliability_cell(85.7) == "85.7"

    def test_text_table_markers(self):
        rows = reliability_table(SCALED_SPECS, 9)
        text = render("text", *reliability_output(SCALED_SPECS, rows))
        lines = text.splitlines()
        assert lines[0].split() == [
            "failures", "(4,", "4,", "8)", "(4,", "4,", "16)",
            "(4,", "4,", "32)", "(4,", "4,", "64)",
        ]
        assert lines[7].split() == ["7", "00", "12.5", "22.2", "30"]
        assert lines[9].split() == ["9", "—", "—", "00", "10"]

    def test_text_without_rows_is_the_header(self):
        text = render("text", *reliability_output(SCALED_SPECS, []))
        assert text == (
            "failures  (4, 4, 8)  (4, 4, 16)  (4, 4, 32)  (4, 4, 64)\n"
        )
        rows = reliability_table(SCALED_SPECS, 1)
        assert text.splitlines() == render(
            "text", *reliability_output(SCALED_SPECS, rows)
        ).splitlines()[:1]

    def test_csv_blank_for_absent(self):
        rows = reliability_table([teh_spec(4, 4, 8)], 8)
        csv_text = render("csv", *reliability_output([teh_spec(4, 4, 8)], rows))
        assert csv_text.splitlines()[0] == 'failures,"(4, 4, 8)"'
        assert csv_text.splitlines()[-1] == "8,"


class TestMonteCarlo:
    def test_connected_without_faults(self):
        for seed in (0, 1, 99):
            assert monte_carlo_connectivity(teh_spec(4, 4, 8), 0, 50, seed) == 1.0

    def test_isolated_at_full_degree(self):
        for seed in (0, 1, 99):
            assert monte_carlo_connectivity(teh_spec(4, 4, 8), 7, 50, seed) == 0.0
        # Node 0 is its own destination only on the one-node network.
        for k in range(15):
            spec = hypercube_spec(2**k)
            assert monte_carlo_connectivity(spec, k, 1, 0) == (0.0 if k else 1.0)
        for spec in (torus_spec(1, 1), teh_spec(1, 1, 1)):
            assert monte_carlo_connectivity(spec, 0, 1, 0) == 1.0

    def test_deterministic_for_a_seed(self):
        first = monte_carlo_connectivity(teh_spec(4, 4, 16), 4, 300, 7)
        second = monte_carlo_connectivity(teh_spec(4, 4, 16), 4, 300, 7)
        assert first == second

    def test_partial_failures_keep_the_pair_connected(self):
        # Only source-incident links fail, so any surviving link keeps the
        # pair connected: below the degree the estimate is exactly 1.0,
        # and growing the cube cannot decrease it.
        small = monte_carlo_connectivity(teh_spec(4, 4, 8), 4, 100, 7)
        large = monte_carlo_connectivity(teh_spec(4, 4, 16), 4, 100, 7)
        assert small == 1.0
        assert large >= small

    def test_antipodal_destination(self):
        spec = teh_spec(4, 4, 8)
        # (2, 2, 7) is the first address at the full diameter 2 + 2 + 3.
        assert antipodal_node(spec) == 87
        # A hypercube's is the all-ones label, node 0 only for one node.
        for k in range(15):
            assert antipodal_node(hypercube_spec(2**k)) == 2**k - 1

    @pytest.mark.parametrize(
        "spec", [*SMALL_SPECS, teh_spec(16, 16, 64)],
        ids=[*SMALL_SPEC_IDS, "teh-16-16-64"],
    )
    def test_antipodal_matches_scan(self, spec):
        assert antipodal_node(spec) == antipodal_by_scan(spec)
        assert (antipodal_node(spec) == 0) == (spec.node_count == 1)

    def test_too_many_incident_faults(self):
        with pytest.raises(TooManyFaultsError):
            monte_carlo_connectivity(teh_spec(4, 4, 8), 8, 10, 0)

    def test_trials_must_be_positive(self):
        for trials in (0, 1.5, True):
            with pytest.raises(CountOutOfRangeError) as raised:
                monte_carlo_connectivity(teh_spec(4, 4, 8), 1, trials, 0)
            assert str(raised.value) == f"trials must be >= 1, got {trials}"

    def test_seed_and_node_cap_must_be_ints(self):
        # Neither changes the value, yet each is type-tested before any work.
        spec = teh_spec(4, 4, 8)
        for seed in (1.5, True, "x", None):
            match = f"^seed must be an int, got {re.escape(repr(seed))}$"
            with pytest.raises(CountOutOfRangeError, match=match):
                monte_carlo_connectivity(spec, 1, 1, seed)
        match = "^node_cap must be an int, got None$"
        with pytest.raises(CountOutOfRangeError, match=match):
            monte_carlo_connectivity(spec, 1, 1, 0, node_cap=None)

    def test_failures_must_be_a_count(self):
        for failures in (-1, 0.5, True):
            with pytest.raises(CountOutOfRangeError) as raised:
                monte_carlo_connectivity(teh_spec(4, 4, 8), failures, 1, 0)
            assert str(raised.value) == f"failure count must be >= 0, got {failures}"

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_equals_every_fault_set(self, spec):
        adjacency = adjacency_by_enumeration(spec.rows, spec.cols, spec.cube_nodes)
        goal = tuple(decode_address(spec, antipodal_node(spec)))
        degree = len(adjacency[(0, 0, 0)])
        for failures in range(degree + 1):
            expected = incident_cut_share(adjacency, (0, 0, 0), goal, failures)
            assert monte_carlo_connectivity(spec, failures, 20, 1) == expected
        with pytest.raises(TooManyFaultsError, match=f"node 0 has {degree}$"):
            monte_carlo_connectivity(spec, degree + 1, 20, 1)

    def test_small_rings_use_the_real_degree(self):
        # Nominal degree 6, but each 2-node ring gives node 0 one link.
        spec = teh_spec(2, 2, 4)
        assert spec.nominal_degree == 6
        assert monte_carlo_connectivity(spec, 3, 10, 0) == 1.0
        assert monte_carlo_connectivity(spec, 4, 10, 0) == 0.0
        with pytest.raises(TooManyFaultsError, match="node 0 has 4$"):
            monte_carlo_connectivity(spec, 5, 10, 0)

    def test_builds_and_searches_no_graph(self, monkeypatch):
        calls = []

        def spy(original):
            def wrapper(*args, **kwargs):
                calls.append(original.__name__)
                return original(*args, **kwargs)

            return wrapper

        for module in (tehnet.topology, tehnet.reliability, tehnet.cli):
            monkeypatch.setattr(module, "build_graph", spy(build_graph), raising=False)
        monkeypatch.setattr(Topology, "distances", spy(Topology.distances))
        assert monte_carlo_connectivity(teh_spec(4, 4, 8), 7, 1000, 0) == 0.0
        argv = ["simulate", "--family", "teh", "--l", "4", "--m", "4", "--cube", "8",
                "--f", "3"]
        assert tehnet.cli.run(argv, io.StringIO(), io.StringIO()) == 0
        assert calls == []

"""Acceptance suite: one test per release criterion, zero tolerance.

Each test prints a single PASS line on success so a verbose run doubles
as a checklist.  Expected table cells are frozen here independently of
the golden files used elsewhere.
"""

from itertools import product

from tehnet import (
    ScalingMode,
    build_graph,
    decode_address,
    diameter_bfs,
    distance_closed,
    link_count_closed,
    monte_carlo_connectivity,
    reliability_percent,
    route,
    scaling_sequence,
    table1_cells,
    table2_cells,
    teh_spec,
)

# Frozen reference cells: processors 512..16384 left to right.
PROCESSORS = (512, 1024, 2048, 4096, 8192, 16384)
LINK_CELLS = {
    "hypercube": (2304, 5120, 11264, 24576, 53248, 114688),
    "torus": (1024, 2048, 4096, 8192, 16384, 32768),
    "teh_16_16_N": (1280, 3072, 7168, 16384, 36864, 81920),
    "teh_lm_16": (2048, 4096, 8192, 16384, 32768, 65536),
}
COST_CELLS = {
    "hypercube": (20736, 51200, 123904, 294912, 692224, 1605632),
    "torus": (22528, 65536, 180224, 524288, 1474560, 4194304),
    "teh_16_16_N": (21760, 55296, 136192, 327680, 774144, 1802240),
    "teh_lm_16": (20480, 49152, 131072, 327680, 851968, 2359296),
}
# Reliability grid for (4,4,8) (4,4,16) (4,4,32) (4,4,64); None = absent.
RELIABILITY_CELLS = {
    1: (85.7, 87.5, 88.9, 90.0),
    2: (71.4, 75.0, 77.8, 80.0),
    3: (57.1, 62.5, 66.7, 70.0),
    4: (42.9, 50.0, 55.6, 60.0),
    5: (28.6, 37.5, 44.4, 50.0),
    6: (14.3, 25.0, 33.3, 40.0),
    7: (0.0, 12.5, 22.2, 30.0),
    8: (None, 0.0, 11.1, 20.0),
    9: (None, None, 0.0, 10.0),
}
GRID_SPECS = [teh_spec(4, 4, n) for n in (8, 16, 32, 64)]


def test_table1_reproduction():
    """All 24 link-count cells match the reference values exactly."""
    table = table1_cells()
    assert list(map(len, table.values())) == [len(PROCESSORS)] * len(LINK_CELLS)
    checked = 0
    for column, processors in enumerate(PROCESSORS):
        for key, cells in LINK_CELLS.items():
            assert table[key][column] == cells[column], (key, processors)
            checked += 1
    assert checked == 24
    print("PASS table-1 links: 24/24 cells exact")


def test_table2_reproduction():
    """All 24 cost cells match exactly under the square convention."""
    table, flagged = table2_cells()
    assert list(map(len, table.values())) == [len(PROCESSORS)] * len(COST_CELLS)
    assert flagged == frozenset()
    checked = 0
    for column, processors in enumerate(PROCESSORS):
        for key, cells in COST_CELLS.items():
            assert table[key][column] == cells[column], (key, processors)
            checked += 1
    assert checked == 24
    print("PASS table-2 cost: 24/24 cells exact")


def test_table3_reproduction():
    """Every reliability grid position matches, including 00s and absences."""
    checked = 0
    for failures, expected in RELIABILITY_CELLS.items():
        for spec, cell in zip(GRID_SPECS, expected):
            assert reliability_percent(spec, failures) == cell, (failures, spec)
            checked += 1
    assert checked == 36
    print("PASS table-3 reliability: 36/36 grid positions exact")


def test_oracle_equivalence_links():
    """Constructed edge counts equal the closed form on the small grid."""
    checked = 0
    for rows, cols, cube in product((3, 4, 5), (3, 4, 5), (1, 2, 4, 8)):
        spec = teh_spec(rows, cols, cube)
        assert len(build_graph(spec).edges) == link_count_closed(spec), spec
        checked += 1
    assert checked == 36
    print(f"PASS links oracle: {checked} specs, built == closed form")


def test_oracle_equivalence_diameter():
    """All-pairs BFS diameter equals floor(l/2)+floor(m/2)+n on the grid."""
    checked = 0
    for rows, cols, cube in product((3, 4, 5, 6), (3, 4, 5, 6), (1, 2, 4, 8)):
        spec = teh_spec(rows, cols, cube)
        if spec.node_count > 4096:
            continue
        expected = rows // 2 + cols // 2 + spec.cube_dim
        topology = build_graph(spec)
        assert diameter_bfs(topology) == expected, spec
        for source in range(spec.node_count):
            assert max(topology.distances(source)) == expected, (spec, source)
        checked += 1
    assert checked == 64
    print(f"PASS diameter oracle: {checked} specs, BFS == closed form")


def test_routing_correctness():
    """route() is valid and shortest for every ordered pair on four specs."""
    pairs = 0
    for dims in ((3, 3, 4), (4, 4, 2), (2, 2, 8), (4, 4, 8)):
        spec = teh_spec(*dims)
        topology = build_graph(spec)
        nodes = [decode_address(spec, index) for index in range(spec.node_count)]
        for source, src in enumerate(nodes):
            # One search per source gives the BFS distance to every dst.
            for dst, searched in zip(nodes, topology.distances(source)):
                path = route(spec, src, dst)
                closed = distance_closed(spec, src, dst)
                assert path.hops[0] == src and path.hops[-1] == dst
                assert path.length == closed == searched, (spec, src, dst)
                pairs += 1
    print(f"PASS routing: {pairs} ordered pairs, route == closed == BFS")


def test_degree_and_scalability():
    """Torus growth keeps degree 8; cube growth walks degrees 7,8,9,10."""
    torus_specs = scaling_sequence(ScalingMode.EXPAND_TORUS, teh_spec(4, 4, 16), 4)
    assert teh_spec(4, 4, 16).nominal_degree == 8
    assert [spec.nominal_degree for spec in torus_specs] == [8, 8, 8, 8]

    base = teh_spec(4, 4, 8)
    cube_specs = scaling_sequence(ScalingMode.EXPAND_HYPERCUBE, base, 3)
    degrees = [base.nominal_degree] + [spec.nominal_degree for spec in cube_specs]
    assert degrees == [7, 8, 9, 10]
    print("PASS scalability: torus growth degree constant 8; cube growth 7,8,9,10")


def test_reliability_monotonicity():
    """Strictly increasing left-to-right, strictly decreasing top-down."""
    grid = {
        (failures, column): reliability_percent(spec, failures)
        for failures in range(1, 10)
        for column, spec in enumerate(GRID_SPECS)
    }
    for failures in range(1, 10):
        present = [
            grid[(failures, column)]
            for column in range(4)
            if grid[(failures, column)] is not None
        ]
        assert all(a < b for a, b in zip(present, present[1:])), failures
    for column in range(4):
        present = [
            grid[(failures, column)]
            for failures in range(1, 10)
            if grid[(failures, column)] is not None
        ]
        assert all(a > b for a, b in zip(present, present[1:])), column
    print("PASS reliability monotonicity: rows increase, columns decrease")


def test_monte_carlo_endpoints():
    """f=0 connects always, f=degree never; seed 42 is reproducible."""
    spec = teh_spec(4, 4, 8)
    for seed in (0, 7, 42):
        assert monte_carlo_connectivity(spec, 0, 1000, seed) == 1.0
        assert monte_carlo_connectivity(spec, 7, 1000, seed) == 0.0
    first = monte_carlo_connectivity(spec, 3, 1000, 42)
    second = monte_carlo_connectivity(spec, 3, 1000, 42)
    assert first == second
    print("PASS monte-carlo: endpoints forced, seed 42 reproducible")

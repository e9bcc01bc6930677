"""Comparison datasets, scaling sequences, and their renderings."""

import io
import json
import re
from enum import Enum, IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tehnet.reliability
from tehnet import (
    CountOutOfRangeError,
    DiameterConvention,
    ResourceLimitError,
    ScalingMode,
    SpecError,
    UnsupportedFormatError,
    build_graph,
    diameter_bfs,
    reliability_table,
    scaling_sequence,
    table1_cells,
    table2_cells,
    teh_spec,
    torus_spec,
)
from tehnet.reliability import F_MAX_LIMIT
from tehnet.tables import (
    NETWORK_KEYS,
    PROCESSOR_COUNTS,
    TABLE3_F_MAX,
    TABLE3_SPECS,
    _COLUMNS,
    _json,
    comparison_output,
    render,
    render_table,
)
from tehnet.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden"

# Reference link counts per network at 512..16384 processors.
LINK_CELLS = {
    "hypercube": (2304, 5120, 11264, 24576, 53248, 114688),
    "torus": (1024, 2048, 4096, 8192, 16384, 32768),
    "teh_16_16_N": (1280, 3072, 7168, 16384, 36864, 81920),
    "teh_lm_16": (2048, 4096, 8192, 16384, 32768, 65536),
}

# Reference topological costs under the square-torus convention.
COST_CELLS = {
    "hypercube": (20736, 51200, 123904, 294912, 692224, 1605632),
    "torus": (22528, 65536, 180224, 524288, 1474560, 4194304),
    "teh_16_16_N": (21760, 55296, 136192, 327680, 774144, 1802240),
    "teh_lm_16": (20480, 49152, 131072, 327680, 851968, 2359296),
}


class TestLinkTable:
    def test_every_cell(self):
        assert table1_cells() == {key: list(LINK_CELLS[key]) for key in NETWORK_KEYS}
        assert list(table1_cells()) == list(NETWORK_KEYS)

    def test_growing_cube_annotation(self):
        doc = json.loads(render("json", *comparison_output(table1_cells())))
        assert doc["processors"] == list(PROCESSOR_COUNTS)
        assert doc["teh_16_16_cube_nodes"] == [2, 4, 8, 16, 32, 64]
        assert doc["teh_16_16_cube_nodes"] == [p // 256 for p in PROCESSOR_COUNTS]


class TestCostTable:
    def test_every_cell_square_convention(self):
        cells, _ = table2_cells()
        assert cells == {key: list(COST_CELLS[key]) for key in NETWORK_KEYS}
        assert list(cells) == list(NETWORK_KEYS)

    def test_square_convention_has_no_flags(self):
        assert table2_cells()[1] == frozenset()

    def test_exact_convention_flags_rectangular_cells(self):
        _, flagged = table2_cells(DiameterConvention.EXACT)
        assert flagged == {
            ("torus", 512),
            ("torus", 2048),
            ("torus", 8192),
            ("teh_lm_16", 8192),
        }

    def test_exact_convention_unflagged_cells_match(self):
        cells, flagged = table2_cells(DiameterConvention.EXACT)
        for column, processors in enumerate(PROCESSOR_COUNTS):
            for key in NETWORK_KEYS:
                same = cells[key][column] == COST_CELLS[key][column]
                assert same == ((key, processors) not in flagged)

    @pytest.mark.parametrize("convention", list(DiameterConvention))
    def test_string_convention_equals_its_enum(self, convention):
        assert table2_cells(convention.value) == table2_cells(convention)

    def test_unknown_convention(self):
        match = "^unknown diameter convention 'foo'$"
        with pytest.raises(SpecError, match=match) as raised:
            table2_cells("foo")
        assert raised.value.__suppress_context__
        # Every table id checks it, not only the one it applies to.
        for table_id in (1, 2, 3):
            with pytest.raises(SpecError, match=match):
                render_table(table_id, "csv", "foo")

    def test_exact_convention_uses_rectangular_diameters(self):
        cells, _ = table2_cells(DiameterConvention.EXACT)
        # 512-processor torus as 16x32: 2*512 links times diameter 8+16.
        assert cells["torus"][0] == 1024 * 24


class TestCellsAgainstGraphs:
    @pytest.mark.parametrize("column", range(len(PROCESSOR_COUNTS)))
    def test_cells_match_the_built_graph(self, column):
        links = table1_cells()
        costs, _ = table2_cells(DiameterConvention.EXACT)
        processors, specs = _COLUMNS[column]
        assert processors == PROCESSOR_COUNTS[column]
        assert list(specs) == list(NETWORK_KEYS)
        assert specs["teh_16_16_N"].cube_nodes == processors // 256
        for key, spec in specs.items():
            graph = build_graph(spec)
            assert graph.node_count == processors
            edges = len(graph.edges)
            assert links[key][column] == edges
            assert costs[key][column] == edges * diameter_bfs(graph)


class TestReliabilityGrid:
    def test_reference_cells(self):
        rows = reliability_table(list(TABLE3_SPECS), TABLE3_F_MAX)
        assert len(rows) == TABLE3_F_MAX
        cells = {
            (failures, spec.label()): cell
            for failures, row in enumerate(rows, 1)
            for spec, cell in zip(TABLE3_SPECS, row)
        }
        assert cells[(6, "(4, 4, 32)")] == 33.3
        assert cells[(8, "(4, 4, 8)")] is None
        assert cells[(7, "(4, 4, 16)")] == 12.5

    def test_no_specs(self):
        with pytest.raises(SpecError, match="^at least one spec is required$"):
            reliability_table([], 3)

    def test_f_max_is_a_count(self, monkeypatch):
        assert reliability_table(list(TABLE3_SPECS), 0) == []
        assert len(reliability_table(list(TABLE3_SPECS), F_MAX_LIMIT)) == F_MAX_LIMIT
        for f_max in (-1, 2.0, True):
            match = rf"^f_max must be >= 0, got {re.escape(str(f_max))}$"
            with pytest.raises(CountOutOfRangeError, match=match):
                reliability_table(list(TABLE3_SPECS), f_max)
        # Above the limit it is refused before a single cell is computed.
        monkeypatch.setattr(tehnet.reliability, "reliability_percent", None)
        for f_max in (F_MAX_LIMIT + 1, 10**9):
            match = f"^f_max must be <= 1024, got {f_max}$"
            with pytest.raises(CountOutOfRangeError, match=match):
                reliability_table([teh_spec(4, 4, 8)], f_max)

    def test_zero_diagonal(self):
        degrees = [spec.nominal_degree for spec in TABLE3_SPECS]
        rows = reliability_table(list(TABLE3_SPECS), TABLE3_F_MAX)
        for failures, row in enumerate(rows, 1):
            for degree, cell in zip(degrees, row):
                if failures == degree:
                    assert cell == 0.0


class TestScalingSequence:
    def test_torus_expansion_keeps_degree(self):
        specs = scaling_sequence(ScalingMode.EXPAND_TORUS, teh_spec(4, 4, 16), 3)
        assert specs == [teh_spec(4, 8, 16), teh_spec(8, 8, 16), teh_spec(8, 16, 16)]
        assert all(spec.nominal_degree == 8 for spec in specs)

    def test_cube_expansion_raises_degree(self):
        specs = scaling_sequence(ScalingMode.EXPAND_HYPERCUBE, teh_spec(4, 4, 8), 2)
        assert specs == [teh_spec(4, 4, 16), teh_spec(4, 4, 32)]
        assert [spec.nominal_degree for spec in specs] == [8, 9]

    def test_doubles_the_smaller_torus_side(self):
        specs = scaling_sequence(ScalingMode.EXPAND_TORUS, teh_spec(2, 8, 4), 2)
        dims = [(spec.rows, spec.cols) for spec in specs]
        assert dims == [(4, 8), (8, 8)]

    def test_steps_must_be_positive(self):
        # True and 2.0 compare as numbers but are no count of steps.
        for steps in (0, 2.0, True):
            with pytest.raises(SpecError, match=f"^steps must be >= 1, got {steps}$"):
                scaling_sequence(ScalingMode.EXPAND_TORUS, teh_spec(4, 4, 16), steps)

    def test_unknown_mode(self):
        with pytest.raises(SpecError, match="^unknown scaling mode 'cube'$") as raised:
            scaling_sequence("cube", teh_spec(2, 2, 2), 1)
        assert raised.value.__suppress_context__

    def test_node_cap(self):
        with pytest.raises(ResourceLimitError):
            scaling_sequence(
                ScalingMode.EXPAND_HYPERCUBE, teh_spec(4, 4, 16), 10, node_cap=4096
            )
        # A cap is an int, though 256.0 compares equal to the 256-node step.
        for cap in (256.0, True, "x", None):
            match = f"^node_cap must be an int, got {re.escape(repr(cap))}$"
            with pytest.raises(CountOutOfRangeError, match=match):
                scaling_sequence("torus", teh_spec(4, 4, 8), 1, node_cap=cap)

    def test_torus_base_stays_torus(self):
        specs = scaling_sequence(ScalingMode.EXPAND_TORUS, torus_spec(4, 4), 1)
        assert specs == [torus_spec(4, 8)]

    @pytest.mark.parametrize("dims", [(3, 3, 2), (4, 6, 4), (5, 3, 16), (4, 4, 1)])
    def test_degree_progression_from_any_base(self, dims):
        base = teh_spec(*dims)
        torus_specs = scaling_sequence(ScalingMode.EXPAND_TORUS, base, 3)
        assert [s.nominal_degree for s in torus_specs] == [base.nominal_degree] * 3
        cube_specs = scaling_sequence(ScalingMode.EXPAND_HYPERCUBE, base, 3)
        assert [s.nominal_degree for s in cube_specs] == [
            base.nominal_degree + 1,
            base.nominal_degree + 2,
            base.nominal_degree + 3,
        ]

    def test_csv_rendering(self):
        # A hypercube base grown in its torus part becomes teh.
        for spec_args, steps in [
            (("teh", "--l", "4", "--m", "4", "--cube", "16"),
             ["1,torus,teh,4,8,16,512,8,false", "2,torus,teh,8,8,16,1024,8,false"]),
            (("hypercube", "--cube", "16"),
             ["1,torus,teh,1,2,16,32,8,false", "2,torus,teh,2,2,16,64,8,false"]),
        ]:
            out, err = io.StringIO(), io.StringIO()
            argv = ["scale", "--family", *spec_args, "--mode", "torus", "--steps", "2",
                    "--format", "csv"]
            assert (run(argv, out, err), err.getvalue()) == (0, ""), spec_args
            lines = out.getvalue().splitlines()
            assert lines[0].startswith("step,mode,family")
            assert lines[1:] == steps, spec_args


class TestRenderTable:
    def test_unknown_id(self):
        # Only an int key is a table id: True and 1.0 compare equal to 1.
        for table_id in (4, 0, True, 1.0, "1"):
            match = rf"^no table {re.escape(repr(table_id))}; the tables are \[1, 2, 3\]$"
            with pytest.raises(SpecError, match=match):
                render_table(table_id, "csv")


class TestRendering:
    def test_csv_matches_golden(self):
        assert render("csv", *comparison_output(table1_cells())) == (
            GOLDEN_DIR / "table1.csv"
        ).read_text()
        assert render("csv", *comparison_output(*table2_cells())) == (
            GOLDEN_DIR / "table2.csv"
        ).read_text()

    def test_text_matches_golden(self):
        assert render("text", *comparison_output(table1_cells())) == (
            GOLDEN_DIR / "table1.txt"
        ).read_text()
        assert render("text", *comparison_output(*table2_cells())) == (
            GOLDEN_DIR / "table2.txt"
        ).read_text()

    def test_exact_mode_text_footnote(self):
        output = comparison_output(*table2_cells(DiameterConvention.EXACT))
        text = render("text", *output)
        assert "24576*" in text
        assert text.rstrip().endswith("* differs from the square-convention value")

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_render_walks_only_the_asked_shape(self, fmt):
        expected = {
            "csv": "a,b\n1,true\n",
            "json": '{\n  "a": 1,\n  "b": true\n}\n',
            "text": "a: 1\nb: True\n",
        }

        def refuse(*_):
            raise AssertionError(f"render({fmt!r}) built a shape it was not asked for")

        asked = {
            "json": lambda: {"a": 1, "b": True},
            "csv": iter([("a", "b"), (1, True)]),
            "text": iter(["a: 1", "b: True"]),
        }
        unasked = {"json": refuse, "csv": map(refuse, [0]), "text": map(refuse, [0])}
        doc, rows, lines = (
            (asked if name == fmt else unasked)[name] for name in asked
        )
        assert render(fmt, doc, rows, lines) == expected[fmt]

    @pytest.mark.parametrize("fmt", ["xml", "JSON", ""])
    def test_unknown_format(self, fmt):
        def refuse(*_):
            raise AssertionError("render built a shape for an unknown format")

        message = f"^unknown output format {fmt!r}$"
        with pytest.raises(UnsupportedFormatError, match=message):
            render(fmt, refuse, map(refuse, [0]), map(refuse, [0]))
        with pytest.raises(UnsupportedFormatError):
            render_table(1, fmt)

    def test_json_rendering_is_deterministic(self):
        assert render("json", *comparison_output(*table2_cells())) == render(
            "json", *comparison_output(*table2_cells())
        )


# Every value json writes: scalars (big ints, non-finite floats, non-ASCII
# and control characters included) nested in lists, tuples and str-keyed
# dicts, empty ones included.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


class Colour(str, Enum):
    RED = "réd"


class Level(IntEnum):
    HIGH = 7


class TestJsonWriter:
    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, doc):
        assert _json(doc, "\n") == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "doc",
        [Colour.RED, Level.HIGH, {"colour": [Colour.RED], "level": (Level.HIGH,)}],
    )
    def test_enum_members_write_their_value(self, doc):
        assert _json(doc, "\n") == json.dumps(doc, indent=2)

    def test_set_raises(self):
        message = "^Object of type set is not JSON serializable$"
        with pytest.raises(TypeError, match=message):
            _json({"a": [{1, 2}]}, "\n")

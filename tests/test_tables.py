"""Comparison datasets, scaling sequences, and their renderings."""

import io
from pathlib import Path

import pytest

from tehnet import (
    DiameterConvention,
    ResourceLimitError,
    ScalingMode,
    reliability_table,
    scaling_sequence,
    table1_rows,
    table2_rows,
    teh_spec,
    torus_spec,
)
from tehnet.tables import (
    NETWORK_KEYS,
    PROCESSOR_COUNTS,
    TABLE3_F_MAX,
    TABLE3_SPECS,
    render_comparison_csv,
    render_comparison_json,
    render_comparison_text,
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
        rows = table1_rows()
        assert [row.processors for row in rows] == list(PROCESSOR_COUNTS)
        for column, row in enumerate(rows):
            for key in NETWORK_KEYS:
                assert row.values[key] == LINK_CELLS[key][column]

    def test_growing_cube_annotation(self):
        assert [row.teh_16_16_cube_nodes for row in table1_rows()] == [
            2, 4, 8, 16, 32, 64,
        ]


class TestCostTable:
    def test_every_cell_square_convention(self):
        for column, row in enumerate(table2_rows()):
            for key in NETWORK_KEYS:
                assert row.values[key] == COST_CELLS[key][column]

    def test_square_convention_has_no_flags(self):
        assert all(row.flagged == frozenset() for row in table2_rows())

    def test_exact_convention_flags_rectangular_cells(self):
        rows = table2_rows(DiameterConvention.EXACT)
        flagged = {
            (key, row.processors) for row in rows for key in row.flagged
        }
        assert flagged == {
            ("torus", 512),
            ("torus", 2048),
            ("torus", 8192),
            ("teh_lm_16", 8192),
        }

    def test_exact_convention_unflagged_cells_match(self):
        for column, row in enumerate(table2_rows(DiameterConvention.EXACT)):
            for key in NETWORK_KEYS:
                if key not in row.flagged:
                    assert row.values[key] == COST_CELLS[key][column]

    @pytest.mark.parametrize("convention", list(DiameterConvention))
    def test_string_convention_equals_its_enum(self, convention):
        assert table2_rows(convention.value) == table2_rows(convention)

    def test_exact_convention_uses_rectangular_diameters(self):
        rows = table2_rows(DiameterConvention.EXACT)
        # 512-processor torus as 16x32: 2*512 links times diameter 8+16.
        assert rows[0].values["torus"] == 1024 * 24


class TestReliabilityGrid:
    def test_reference_cells(self):
        rows = reliability_table(list(TABLE3_SPECS), TABLE3_F_MAX)
        cells = {
            (row.failures, spec.label()): cell
            for row in rows
            for spec, cell in zip(TABLE3_SPECS, row.cells)
        }
        assert cells[(6, "(4, 4, 32)")] == 33.3
        assert cells[(8, "(4, 4, 8)")] is None
        assert cells[(7, "(4, 4, 16)")] == 12.5

    def test_zero_diagonal(self):
        degrees = [spec.nominal_degree for spec in TABLE3_SPECS]
        for row in reliability_table(list(TABLE3_SPECS), TABLE3_F_MAX):
            for degree, cell in zip(degrees, row.cells):
                if row.failures == degree:
                    assert cell == 0.0


class TestScalingSequence:
    def test_torus_expansion_keeps_degree(self):
        steps = scaling_sequence(ScalingMode.EXPAND_TORUS, teh_spec(4, 4, 16), 3)
        dims = [(s.spec.rows, s.spec.cols, s.spec.cube_nodes) for s in steps]
        assert dims == [(4, 8, 16), (8, 8, 16), (8, 16, 16)]
        assert all(step.degree == 8 for step in steps)
        assert not any(step.existing_nodes_reconfigured for step in steps)

    def test_cube_expansion_raises_degree(self):
        steps = scaling_sequence(ScalingMode.EXPAND_HYPERCUBE, teh_spec(4, 4, 8), 2)
        dims = [(s.spec.rows, s.spec.cols, s.spec.cube_nodes) for s in steps]
        assert dims == [(4, 4, 16), (4, 4, 32)]
        assert [step.degree for step in steps] == [8, 9]
        assert all(step.existing_nodes_reconfigured for step in steps)

    def test_doubles_the_smaller_torus_side(self):
        steps = scaling_sequence(ScalingMode.EXPAND_TORUS, teh_spec(2, 8, 4), 2)
        dims = [(s.spec.rows, s.spec.cols) for s in steps]
        assert dims == [(4, 8), (8, 8)]

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            scaling_sequence(ScalingMode.EXPAND_TORUS, teh_spec(4, 4, 16), 0)

    def test_node_cap(self):
        with pytest.raises(ResourceLimitError):
            scaling_sequence(
                ScalingMode.EXPAND_HYPERCUBE, teh_spec(4, 4, 16), 10, node_cap=4096
            )

    def test_torus_base_stays_torus(self):
        steps = scaling_sequence(ScalingMode.EXPAND_TORUS, torus_spec(4, 4), 1)
        assert steps[0].spec.family.value == "torus"

    @pytest.mark.parametrize("dims", [(3, 3, 2), (4, 6, 4), (5, 3, 16), (4, 4, 1)])
    def test_degree_progression_from_any_base(self, dims):
        base = teh_spec(*dims)
        torus_steps = scaling_sequence(ScalingMode.EXPAND_TORUS, base, 3)
        assert [s.degree for s in torus_steps] == [base.nominal_degree] * 3
        cube_steps = scaling_sequence(ScalingMode.EXPAND_HYPERCUBE, base, 3)
        assert [s.degree for s in cube_steps] == [
            base.nominal_degree + 1,
            base.nominal_degree + 2,
            base.nominal_degree + 3,
        ]

    def test_csv_rendering(self):
        out = io.StringIO()
        argv = ["scale", "--family", "teh", "--l", "4", "--m", "4", "--cube", "16",
                "--mode", "torus", "--steps", "2", "--format", "csv"]
        assert run(argv, out, io.StringIO()) == 0
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("step,mode,family")
        assert lines[1] == "1,torus,teh,4,8,16,512,8,false"


class TestRendering:
    def test_csv_matches_golden(self):
        assert render_comparison_csv(table1_rows()) == (
            GOLDEN_DIR / "table1.csv"
        ).read_text()
        assert render_comparison_csv(table2_rows()) == (
            GOLDEN_DIR / "table2.csv"
        ).read_text()

    def test_text_matches_golden(self):
        assert render_comparison_text(table1_rows()) == (
            GOLDEN_DIR / "table1.txt"
        ).read_text()
        assert render_comparison_text(table2_rows()) == (
            GOLDEN_DIR / "table2.txt"
        ).read_text()

    def test_exact_mode_text_footnote(self):
        text = render_comparison_text(table2_rows(DiameterConvention.EXACT))
        assert "24576*" in text
        assert text.rstrip().endswith("* differs from the square-convention value")

    def test_json_rendering_is_deterministic(self):
        assert render_comparison_json(table2_rows()) == render_comparison_json(
            table2_rows()
        )

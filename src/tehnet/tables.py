"""Comparison datasets, their renderers, and scaling sequences.

Three reference datasets compare the families at processor counts 512
through 16384: total links (table 1), topological cost (table 2), and
the reliability grid for the (4, 4, N) scale-up series (table 3).  Two
embedded configurations appear alongside the basic networks: a fixed
16 x 16 torus with a growing hypercube, and a growing torus with a fixed
16-node hypercube.

The cost table quotes torus parts by node count only, so a square-ish
diameter convention is needed.  The torus row follows
:func:`tehnet.metrics.square_torus_diameter` (isqrt rounded down to
even); the grown-torus embedded row rounds the square root to the
*nearest* even integer instead.  Each rule matches all six of its row's
reference cells; neither reproduces the other row's non-square cells.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from typing import NamedTuple

from .errors import ResourceLimitError, SpecError
from .metrics import DiameterConvention, square_torus_diameter
from .reliability import ReliabilityRow
from .topology import (
    DEFAULT_NODE_CAP,
    Family,
    NetworkSpec,
    teh_spec,
    validate_spec,
)

PROCESSOR_COUNTS = (512, 1024, 2048, 4096, 8192, 16384)

#: Column keys of the comparison tables, in row order.
NETWORK_KEYS = ("hypercube", "torus", "teh_16_16_N", "teh_lm_16")

_DISPLAY_LABELS = {
    "hypercube": "hypercube",
    "torus": "torus",
    "teh_16_16_N": "teh(16,16,N)",
    "teh_lm_16": "teh(l,m,16)",
}

#: Specs of the reliability grid columns (table 3).
TABLE3_SPECS = (
    teh_spec(4, 4, 8),
    teh_spec(4, 4, 16),
    teh_spec(4, 4, 32),
    teh_spec(4, 4, 64),
)
TABLE3_F_MAX = 9


class ComparisonRow(NamedTuple):
    """One processor-count column of the comparison tables.

    ``values`` maps each of :data:`NETWORK_KEYS` to its cell.  ``flagged``
    names the networks whose exact-convention value differs from the
    square-convention one (only populated for cost rows under the exact
    convention).
    """

    processors: int
    values: dict[str, int]
    teh_16_16_cube_nodes: int
    flagged: frozenset[str] = frozenset()

    def __hash__(self) -> int:
        return hash((self.processors, self.teh_16_16_cube_nodes, self.flagged))


def _nearest_even_root(node_count: int) -> int:
    # Nearest even integer to sqrt(node_count), by exact integer
    # comparison against the odd midpoint.
    low = 2 * (math.isqrt(node_count) // 2)
    return low if node_count < (low + 1) ** 2 else low + 2


def _pow2_split(node_count: int) -> tuple[int, int]:
    # Near-square power-of-two factorization, smaller side first.
    exponent = node_count.bit_length() - 1
    return 1 << (exponent // 2), 1 << (exponent - exponent // 2)


def _hypercube_links(processors: int) -> int:
    return processors * (processors.bit_length() - 1) // 2


def table1_rows() -> list[ComparisonRow]:
    """Total-links comparison: six processor counts, four networks."""
    rows = []
    for processors in PROCESSOR_COUNTS:
        cube_nodes = processors // 256
        rows.append(
            ComparisonRow(
                processors=processors,
                values={
                    "hypercube": _hypercube_links(processors),
                    "torus": 2 * processors,
                    "teh_16_16_N": processors * (4 + cube_nodes.bit_length() - 1) // 2,
                    "teh_lm_16": 4 * processors,
                },
                teh_16_16_cube_nodes=cube_nodes,
            )
        )
    return rows


def table2_rows(
    convention: DiameterConvention = DiameterConvention.SQUARE_APPROX,
) -> list[ComparisonRow]:
    """Topological-cost comparison under the selected diameter convention.

    The square convention reproduces the reference cells; the exact
    convention substitutes near-square power-of-two torus factorizations
    and flags every cell that changes.
    """
    convention = DiameterConvention(convention)
    rows = []
    for links_row in table1_rows():
        processors = links_row.processors
        links = links_row.values
        cube_dim = processors.bit_length() - 1
        embed_dim = links_row.teh_16_16_cube_nodes.bit_length() - 1
        torus_part = processors // 16

        square = {
            "hypercube": links["hypercube"] * cube_dim,
            "torus": links["torus"] * square_torus_diameter(processors),
            "teh_16_16_N": links["teh_16_16_N"] * (16 + embed_dim),
            "teh_lm_16": links["teh_lm_16"] * (_nearest_even_root(torus_part) + 4),
        }
        if convention is DiameterConvention.SQUARE_APPROX:
            values, flagged = square, frozenset()
        else:
            t_rows, t_cols = _pow2_split(processors)
            e_rows, e_cols = _pow2_split(torus_part)
            values = {
                "hypercube": square["hypercube"],
                "torus": links["torus"] * (t_rows // 2 + t_cols // 2),
                "teh_16_16_N": square["teh_16_16_N"],
                "teh_lm_16": links["teh_lm_16"] * (e_rows // 2 + e_cols // 2 + 4),
            }
            flagged = frozenset(
                key for key in NETWORK_KEYS if values[key] != square[key]
            )
        rows.append(
            ComparisonRow(
                processors=processors,
                values=values,
                teh_16_16_cube_nodes=links_row.teh_16_16_cube_nodes,
                flagged=flagged,
            )
        )
    return rows


class ScalingMode(str, Enum):
    EXPAND_TORUS = "torus"
    EXPAND_HYPERCUBE = "hypercube"


class ScalingStep(NamedTuple):
    mode: ScalingMode
    spec: NetworkSpec
    degree: int
    existing_nodes_reconfigured: bool


def scaling_sequence(
    mode: ScalingMode,
    base_spec: NetworkSpec,
    steps: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[ScalingStep]:
    """Grow a network step by step in one of the two scale-up modes.

    Torus expansion doubles the torus node count each step, doubling the
    smaller of rows/cols (cols on ties) to stay near-square; existing
    nodes keep their degree.  Hypercube expansion doubles the cube group
    instead, which rewires every existing node with one extra link and
    raises the degree by one per step.

    Raises:
        SpecError: If ``steps`` < 1.
        ResourceLimitError: If a step would exceed ``node_cap``.
    """
    mode = ScalingMode(mode)
    if steps < 1:
        raise SpecError(f"steps must be >= 1, got {steps}")
    out: list[ScalingStep] = []
    rows, cols, cube_nodes = base_spec.rows, base_spec.cols, base_spec.cube_nodes
    family = base_spec.family
    for _ in range(steps):
        if mode is ScalingMode.EXPAND_TORUS:
            if rows < cols:
                rows *= 2
            else:
                cols *= 2
            if family is Family.HYPERCUBE:
                family = Family.TEH
            reconfigured = False
        else:
            cube_nodes *= 2
            if family is Family.TORUS:
                family = Family.TEH
            reconfigured = True
        if rows * cols * cube_nodes > node_cap:
            raise ResourceLimitError(
                f"scaling step to ({rows}, {cols}, {cube_nodes}) exceeds the "
                f"node cap of {node_cap}"
            )
        spec = validate_spec(family, rows, cols, cube_nodes)
        out.append(
            ScalingStep(
                mode=mode,
                spec=spec,
                degree=spec.nominal_degree,
                existing_nodes_reconfigured=reconfigured,
            )
        )
    return out


def _aligned(table: list[list[str]], left: int) -> list[str]:
    """Cells two spaces apart, each column as wide as its widest cell; the
    first ``left`` columns are left-justified, the rest right-justified."""
    widths = [max(map(len, column)) for column in zip(*table)]
    return [
        "  ".join(
            cell.ljust(width) if col < left else cell.rjust(width)
            for col, (cell, width) in enumerate(zip(line, widths))
        )
        for line in table
    ]


def _number(value: float) -> str:
    return str(int(value)) if value == int(value) else f"{value:.1f}"


def render_comparison_csv(rows: list[ComparisonRow]) -> str:
    """Wide CSV: one row per network, one column per processor count."""
    header = ",".join(["network"] + [str(row.processors) for row in rows])
    lines = [header]
    for key in NETWORK_KEYS:
        lines.append(",".join([key] + [str(row.values[key]) for row in rows]))
    return "\n".join(lines) + "\n"


def render_comparison_json(rows: list[ComparisonRow]) -> str:
    doc = {
        "processors": [row.processors for row in rows],
        "networks": {key: [row.values[key] for row in rows] for key in NETWORK_KEYS},
        "teh_16_16_cube_nodes": [row.teh_16_16_cube_nodes for row in rows],
        "flagged": sorted(
            [key, row.processors] for row in rows for key in row.flagged
        ),
    }
    return json.dumps(doc, indent=2) + "\n"


def render_reliability_json(
    specs: list[NetworkSpec], rows: list[ReliabilityRow], head: dict | None = None
) -> str:
    """The grid as ``{"specs", "rows"}`` after the keys of ``head``."""
    doc = {
        **(head or {}),
        "specs": [spec.label() for spec in specs],
        "rows": [{"failures": row.failures, "cells": list(row.cells)} for row in rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def render_comparison_text(rows: list[ComparisonRow]) -> str:
    """Aligned text table; the growing-cube column annotates its N and
    flagged cells carry a ``*`` with a footnote."""

    def cell(row: ComparisonRow, key: str) -> str:
        text = str(row.values[key])
        if key == "teh_16_16_N":
            text += f" N={row.teh_16_16_cube_nodes}"
        if key in row.flagged:
            text += "*"
        return text

    table = [["network"] + [str(row.processors) for row in rows]]
    table += [
        [_DISPLAY_LABELS[key]] + [cell(row, key) for row in rows]
        for key in NETWORK_KEYS
    ]
    lines = _aligned(table, left=1)
    if any(row.flagged for row in rows):
        lines.append("* differs from the square-convention value")
    return "\n".join(lines) + "\n"


def format_reliability_cell(value: float | None) -> str:
    """Table-mode cell text: ``—`` for absent, ``00`` for exact zero,
    whole numbers without a decimal point, otherwise one decimal."""
    if value is None:
        return "—"
    return "00" if value == 0 else _number(value)


def render_reliability_csv(specs: list[NetworkSpec], rows: list[ReliabilityRow]) -> str:
    """CSV with a ``failures`` column plus one quoted column per spec; an
    absent cell is empty."""
    header = ",".join(["failures"] + [f'"{spec.label()}"' for spec in specs])
    lines = [header]
    for row in rows:
        cells = ["" if cell is None else _number(cell) for cell in row.cells]
        lines.append(",".join([str(row.failures)] + cells))
    return "\n".join(lines) + "\n"


def render_reliability_text(specs: list[NetworkSpec], rows: list[ReliabilityRow]) -> str:
    """Aligned text table with the ``00`` and ``—`` typography."""
    table = [["failures"] + [spec.label() for spec in specs]]
    table += [
        [str(row.failures)] + [format_reliability_cell(cell) for cell in row.cells]
        for row in rows
    ]
    return "\n".join(_aligned(table, left=0)) + "\n"

"""Comparison datasets, scaling sequences, and the one output renderer.

Three reference datasets compare the families at processor counts 512
through 16384: total links (table 1), topological cost (table 2), and
the reliability grid for the (4, 4, N) scale-up series (table 3).

Every command's csv, json and text go through :func:`render`, which walks
only the shape its format asks for, writes json with :func:`_json` (the bytes
of ``json.dumps(doc, indent=2)``) and raises :class:`UnsupportedFormatError`
for any other format; :func:`comparison_output` (tables 1-2)
and :func:`reliability_output` (any reliability grid) build the shapes;
:func:`render_table` is the one path from a table id to its bytes.

A column of tables 1 and 2 holds four networks of P processors: the
hypercube, the torus as a near-square power-of-two split (16 x 32 at 512),
teh(16, 16, P/256) with its growing hypercube, and teh(l, m, 16) with its
growing torus, l x m being the same split of P/16.  A table-1 cell is
:func:`tehnet.metrics.link_count_closed` of its network, a table-2 cell
``metrics_report(spec, convention).cost``, with one override.  The square
convention follows the reference, which quotes torus parts by node count
only (isqrt rounded down to even); its grown-torus row rounds the square
root to the *nearest* even integer instead.  Each rule matches all six of
its row's reference cells; neither reproduces the other row's non-square
cells.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import ResourceLimitError, SpecError, UnsupportedFormatError
from .metrics import DiameterConvention, link_count_closed, metrics_report
from .reliability import ReliabilityRow, reliability_table
from .topology import (
    DEFAULT_NODE_CAP,
    Family,
    NetworkSpec,
    _member,
    hypercube_spec,
    teh_spec,
    torus_spec,
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
TABLE3_SPECS = tuple(teh_spec(4, 4, cube_nodes) for cube_nodes in (8, 16, 32, 64))
TABLE3_F_MAX = 9

#: Each table id to the stem of its data files, named here only.
TABLE_FILES = {1: "table1_links", 2: "table2_cost", 3: "table3_reliability"}


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


#: Each processor count with the network behind each of its cells.
_COLUMNS = tuple(
    (
        processors,
        {
            "hypercube": hypercube_spec(processors),
            "torus": torus_spec(*_pow2_split(processors)),
            "teh_16_16_N": teh_spec(16, 16, processors // 256),
            "teh_lm_16": teh_spec(*_pow2_split(processors // 16), 16),
        },
    )
    for processors in PROCESSOR_COUNTS
)


def _square_cost(key: str, spec: NetworkSpec) -> int:
    if key == "teh_lm_16":
        # The one reference rule metrics lacks: the torus part's root
        # rounded to the nearest even integer, not down to even.
        root = _nearest_even_root(spec.rows * spec.cols)
        return link_count_closed(spec) * (root + spec.cube_dim)
    return metrics_report(spec, DiameterConvention.SQUARE_APPROX).cost


def table1_rows() -> list[ComparisonRow]:
    """Total-links comparison: six processor counts, four networks."""
    return [
        ComparisonRow(
            processors=processors,
            values={key: link_count_closed(spec) for key, spec in specs.items()},
            teh_16_16_cube_nodes=specs["teh_16_16_N"].cube_nodes,
        )
        for processors, specs in _COLUMNS
    ]


def table2_rows(
    convention: DiameterConvention = DiameterConvention.SQUARE_APPROX,
) -> list[ComparisonRow]:
    """Topological-cost comparison under the selected diameter convention.

    The square convention reproduces the reference cells; the exact
    convention takes each network's exact diameter and flags every cell
    that changes.  An unknown ``convention`` raises :class:`SpecError`.
    """
    convention = _member(DiameterConvention, convention, "diameter convention")
    rows = []
    for processors, specs in _COLUMNS:
        square = {key: _square_cost(key, spec) for key, spec in specs.items()}
        values = square
        if convention is DiameterConvention.EXACT:
            values = {
                key: metrics_report(spec, convention).cost
                for key, spec in specs.items()
            }
        rows.append(
            ComparisonRow(
                processors=processors,
                values=values,
                teh_16_16_cube_nodes=specs["teh_16_16_N"].cube_nodes,
                flagged=frozenset(k for k in NETWORK_KEYS if values[k] != square[k]),
            )
        )
    return rows


class ScalingMode(str, Enum):
    EXPAND_TORUS = "torus"
    EXPAND_HYPERCUBE = "hypercube"


def scaling_sequence(
    mode: ScalingMode,
    base_spec: NetworkSpec,
    steps: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[NetworkSpec]:
    """The specs of a network grown step by step in one of the two
    scale-up modes.

    Torus expansion doubles the torus node count each step, doubling the
    smaller of rows/cols (cols on ties) to stay near-square; existing
    nodes keep their degree.  Hypercube expansion doubles the cube group
    instead, which rewires every existing node with one extra link and
    raises the degree by one per step.

    Raises:
        SpecError: If ``mode`` names no mode, or ``steps`` < 1.
        ResourceLimitError: If a step would exceed ``node_cap``.
    """
    mode = _member(ScalingMode, mode, "scaling mode")
    if steps < 1:
        raise SpecError(f"steps must be >= 1, got {steps}")
    out: list[NetworkSpec] = []
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
        else:
            cube_nodes *= 2
            if family is Family.TORUS:
                family = Family.TEH
        if rows * cols * cube_nodes > node_cap:
            raise ResourceLimitError(
                f"scaling step to ({rows}, {cols}, {cube_nodes}) exceeds the "
                f"node cap of {node_cap}"
            )
        out.append(validate_spec(family, rows, cols, cube_nodes))
    return out


def _json(value: object, indent: str) -> str:
    """Exactly ``json.dumps(value, indent=2)``, ``indent`` being the newline and
    indentation of ``value``'s line; types are tested and rejected as json does."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value).replace("inf", "Infinity").replace("nan", "NaN")
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if isinstance(value, dict):
        items = [f"{_json_str(k)}: {_json(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render(
    fmt: str, doc: Callable[[], object], rows: Iterable, lines: Iterable[str]
) -> str:
    """``doc()`` by :func:`_json` (the bytes of ``json.dumps(doc(), indent=2)``),
    ``rows`` (header first) as csv with bools lower-cased, or ``lines`` as text, plus
    a newline.  Only the ``fmt`` shape is built; others raise UnsupportedFormatError."""
    if fmt == "json":
        return _json(doc(), "\n") + "\n"
    if fmt == "csv":
        lines = (
            ",".join([str(c).lower() if type(c) is bool else str(c) for c in row])
            for row in rows
        )
    elif fmt != "text":
        raise UnsupportedFormatError(f"unknown output format {fmt!r}")
    return "\n".join(lines) + "\n"


def _aligned(table: Iterable[list[str]], left: int) -> Iterator[str]:
    """Lines of cells two spaces apart, each column as wide as its widest
    cell; the first ``left`` columns are left-justified, the rest
    right-justified.  ``table`` is read when the first line is asked for."""
    table = list(table)
    widths = [max(map(len, column)) for column in zip(*table)]
    for line in table:
        yield "  ".join(
            cell.ljust(width) if col < left else cell.rjust(width)
            for col, (cell, width) in enumerate(zip(line, widths))
        )


def _number(value: float) -> str:
    return str(int(value)) if value == int(value) else f"{value:.1f}"


def comparison_output(
    rows: list[ComparisonRow],
) -> tuple[Callable[[], dict], Iterator[list], Iterator[str]]:
    """Table 1 or 2 as the ``(doc, rows, lines)`` of :func:`render`.

    Csv and text put one network per line and one processor count per
    column.  Text annotates the growing-cube column with its N and marks
    each flagged cell with a ``*`` and a footnote.
    """

    def doc() -> dict:
        return {
            "processors": [row.processors for row in rows],
            "networks": {k: [row.values[k] for row in rows] for k in NETWORK_KEYS},
            "teh_16_16_cube_nodes": [row.teh_16_16_cube_nodes for row in rows],
            "flagged": sorted([k, row.processors] for row in rows for k in row.flagged),
        }

    csv_rows = chain(
        [["network"] + [row.processors for row in rows]],
        ([key] + [row.values[key] for row in rows] for key in NETWORK_KEYS),
    )
    return doc, csv_rows, _comparison_lines(rows)


def _comparison_lines(rows: list[ComparisonRow]) -> Iterator[str]:
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
    yield from _aligned(table, left=1)
    if any(row.flagged for row in rows):
        yield "* differs from the square-convention value"


def format_reliability_cell(value: float | None) -> str:
    """Table-mode cell text: ``—`` for absent, ``00`` for exact zero,
    whole numbers without a decimal point, otherwise one decimal."""
    if value is None:
        return "—"
    return "00" if value == 0 else _number(value)


def reliability_output(
    specs: list[NetworkSpec], rows: list[ReliabilityRow], head: dict | None = None
) -> tuple[Callable[[], dict], Iterator[list], Iterator[str]]:
    """A reliability grid as the ``(doc, rows, lines)`` of :func:`render`.

    Json holds the keys of ``head``, then ``specs`` and ``rows``.  Csv has
    a ``failures`` column plus one quoted column per spec, where an absent
    cell is empty.  Text is aligned, with the ``00`` and ``—`` typography.
    """
    labels = [spec.label() for spec in specs]

    def doc() -> dict:
        cells = [{"failures": row.failures, "cells": list(row.cells)} for row in rows]
        return {**(head or {}), "specs": labels, "rows": cells}

    csv_rows = chain(
        [["failures", *(f'"{label}"' for label in labels)]],
        (
            [row.failures]
            + ["" if cell is None else _number(cell) for cell in row.cells]
            for row in rows
        ),
    )
    text = (
        [str(row.failures), *map(format_reliability_cell, row.cells)] for row in rows
    )
    return doc, csv_rows, _aligned(chain([["failures", *labels]], text), left=0)


def render_table(
    table_id: int,
    fmt: str,
    convention: DiameterConvention = DiameterConvention.SQUARE_APPROX,
) -> str:
    """Table ``table_id`` as the ``fmt`` output of :func:`render`, where
    ``convention`` applies to table 2 only.  An id that is not a key of
    :data:`TABLE_FILES` (an ``int``, not a ``bool``) raises :class:`SpecError`."""
    if type(table_id) is not int or table_id not in TABLE_FILES:
        raise SpecError(f"no table {table_id!r}; the tables are {sorted(TABLE_FILES)}")
    if table_id == 1:
        output = comparison_output(table1_rows())
    elif table_id == 2:
        output = comparison_output(table2_rows(convention))
    else:
        specs = list(TABLE3_SPECS)
        output = reliability_output(specs, reliability_table(specs, TABLE3_F_MAX))
    return render(fmt, *output)

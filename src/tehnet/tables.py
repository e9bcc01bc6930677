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
growing torus, l x m being the same split of P/16.  Such a table is its
cells, ``{network key: [one cell per processor count]}``, read by one rule
over those columns: a table-1 cell is
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
from typing import Callable, Iterable, Iterator

from .errors import ResourceLimitError, SpecError, UnsupportedFormatError
from .metrics import DiameterConvention, link_count_closed, metrics_report
from .reliability import reliability_table
from .topology import (
    DEFAULT_NODE_CAP,
    Family,
    NetworkSpec,
    _check_int,
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


def _cells(rule: Callable[[str, NetworkSpec], int]) -> dict[str, list[int]]:
    # Each network key to ``rule(key, spec)`` of its network in each column.
    return {
        key: [rule(key, specs[key]) for _, specs in _COLUMNS] for key in NETWORK_KEYS
    }


def table1_cells() -> dict[str, list[int]]:
    """Total links: each network key to its cell at each of PROCESSOR_COUNTS."""
    return _cells(lambda key, spec: link_count_closed(spec))


def table2_cells(
    convention: DiameterConvention = DiameterConvention.SQUARE_APPROX,
) -> tuple[dict[str, list[int]], frozenset[tuple[str, int]]]:
    """Topological cost under the selected diameter convention, as the cells
    of :func:`table1_cells` plus the ``(key, processors)`` cells flagged.

    The square convention reproduces the reference cells; the exact
    convention takes each network's exact diameter and flags every cell
    that changes.  An unknown ``convention`` raises :class:`SpecError`.
    """
    convention = _member(DiameterConvention, convention, "diameter convention")
    square = _cells(_square_cost)
    if convention is DiameterConvention.SQUARE_APPROX:
        return square, frozenset()
    exact = _cells(lambda key, spec: metrics_report(spec, convention).cost)
    flagged = frozenset(
        (key, p)
        for key in NETWORK_KEYS
        for p, cell, reference in zip(PROCESSOR_COUNTS, exact[key], square[key])
        if cell != reference
    )
    return exact, flagged


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
        SpecError: If ``mode`` names no mode, or ``steps`` is not an
            ``int`` (a ``bool`` is not) of at least 1.
        CountOutOfRangeError: If ``node_cap`` is not an ``int``.
        ResourceLimitError: If a step would exceed ``node_cap``.
    """
    mode = _member(ScalingMode, mode, "scaling mode")
    _check_int("steps", steps, 1, SpecError)
    _check_int("node_cap", node_cap)
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
    cells: dict[str, list[int]], flagged: frozenset[tuple[str, int]] = frozenset()
) -> tuple[Callable[[], dict], Iterator[list], Iterator[str]]:
    """Table 1 or 2 as the ``(doc, rows, lines)`` of :func:`render`, from
    the cells of :func:`table1_cells` or :func:`table2_cells`.

    Csv and text put one network per line and one processor count per
    column.  Text annotates the growing-cube column with its N and marks
    each flagged cell with a ``*`` and a footnote.
    """
    cube_nodes = [specs["teh_16_16_N"].cube_nodes for _, specs in _COLUMNS]

    def doc() -> dict:
        return {
            "processors": list(PROCESSOR_COUNTS),
            "networks": cells,
            "teh_16_16_cube_nodes": cube_nodes,
            "flagged": sorted(map(list, flagged)),
        }

    def line(key: str) -> list[str]:
        texts = [_DISPLAY_LABELS[key]]
        for p, n, cell in zip(PROCESSOR_COUNTS, cube_nodes, cells[key]):
            note = f" N={n}" if key == "teh_16_16_N" else ""
            star = "*" if (key, p) in flagged else ""
            texts.append(f"{cell}{note}{star}")
        return texts

    csv_rows = chain(
        [["network", *PROCESSOR_COUNTS]], ([key, *cells[key]] for key in NETWORK_KEYS)
    )
    table = chain([["network", *map(str, PROCESSOR_COUNTS)]], map(line, NETWORK_KEYS))
    footnote = ["* differs from the square-convention value"] if flagged else []
    return doc, csv_rows, chain(_aligned(table, left=1), footnote)


def format_reliability_cell(value: float | None) -> str:
    """Table-mode cell text: ``—`` for absent, ``00`` for exact zero,
    whole numbers without a decimal point, otherwise one decimal."""
    if value is None:
        return "—"
    return "00" if value == 0 else _number(value)


def reliability_output(
    specs: list[NetworkSpec], rows: list[tuple], head: dict | None = None
) -> tuple[Callable[[], dict], Iterator[list], Iterator[str]]:
    """A reliability grid as the ``(doc, rows, lines)`` of :func:`render`,
    row ``f - 1`` of ``rows`` holding the cells of f failures.

    Json holds the keys of ``head``, then ``specs`` and ``rows``.  Csv has
    a ``failures`` column plus one quoted column per spec, where an absent
    cell is empty.  Text is aligned, with the ``00`` and ``—`` typography.
    """
    labels = [spec.label() for spec in specs]

    def doc() -> dict:
        cells = [{"failures": f, "cells": list(row)} for f, row in enumerate(rows, 1)]
        return {**(head or {}), "specs": labels, "rows": cells}

    csv_rows = chain(
        [["failures", *(f'"{label}"' for label in labels)]],
        (
            [f, *("" if cell is None else _number(cell) for cell in row)]
            for f, row in enumerate(rows, 1)
        ),
    )
    text = (
        [str(f), *map(format_reliability_cell, row)] for f, row in enumerate(rows, 1)
    )
    return doc, csv_rows, _aligned(chain([["failures", *labels]], text), left=0)


def render_table(
    table_id: int,
    fmt: str,
    convention: DiameterConvention = DiameterConvention.SQUARE_APPROX,
) -> str:
    """Table ``table_id`` as the ``fmt`` output of :func:`render`; ``convention``
    applies to table 2 only.  An unknown ``convention``, or an id that is not
    an ``int`` key of :data:`TABLE_FILES` (a ``bool`` is not), raises SpecError."""
    if type(table_id) is not int or table_id not in TABLE_FILES:
        raise SpecError(f"no table {table_id!r}; the tables are {sorted(TABLE_FILES)}")
    convention = _member(DiameterConvention, convention, "diameter convention")
    if table_id == 1:
        output = comparison_output(table1_cells())
    elif table_id == 2:
        output = comparison_output(*table2_cells(convention))
    else:
        specs = list(TABLE3_SPECS)
        output = reliability_output(specs, reliability_table(specs, TABLE3_F_MAX))
    return render(fmt, *output)

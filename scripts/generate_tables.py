#!/usr/bin/env python3
"""Regenerate every comparison dataset into an output directory.

Writes the three tables (CSV, JSON, aligned text), the exact-convention
cost variant with its deviation flags, and the long-form figure datasets.
All outputs are byte-stable, so re-running onto a clean checkout is a
no-op diff.
"""

import argparse
from pathlib import Path

from tehnet import DiameterConvention, reliability_table
from tehnet.tables import (
    NETWORK_KEYS,
    TABLE3_F_MAX,
    TABLE3_SPECS,
    render_comparison_csv,
    render_comparison_json,
    render_comparison_text,
    render_reliability_csv,
    render_reliability_json,
    render_reliability_text,
    table1_rows,
    table2_rows,
)


def figure_csv(rows) -> str:
    """Long-form (network, processors, value) lines for external plotting."""
    lines = ["network,processors,value"]
    lines.extend(
        f"{key},{row.processors},{row.values[key]}"
        for key in NETWORK_KEYS
        for row in rows
    )
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", type=Path)
    args = parser.parse_args()
    out: Path = args.out_dir
    out.mkdir(parents=True, exist_ok=True)

    specs = list(TABLE3_SPECS)
    rows3 = reliability_table(specs, TABLE3_F_MAX)
    exact = table2_rows(DiameterConvention.EXACT)
    outputs = {
        "table1_links.csv": render_comparison_csv(table1_rows()),
        "table1_links.json": render_comparison_json(table1_rows()),
        "table1_links.txt": render_comparison_text(table1_rows()),
        "table2_cost.csv": render_comparison_csv(table2_rows()),
        "table2_cost.json": render_comparison_json(table2_rows()),
        "table2_cost.txt": render_comparison_text(table2_rows()),
        "table2_cost_exact.csv": render_comparison_csv(exact),
        "table2_cost_exact.txt": render_comparison_text(exact),
        "table3_reliability.csv": render_reliability_csv(specs, rows3),
        "table3_reliability.json": render_reliability_json(specs, rows3),
        "table3_reliability.txt": render_reliability_text(specs, rows3),
        "figure_links_vs_p.csv": figure_csv(table1_rows()),
        "figure_cost_vs_p.csv": figure_csv(table2_rows()),
    }
    for name, text in outputs.items():
        (out / name).write_text(text)
        print(f"wrote {out / name}")


if __name__ == "__main__":
    main()

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
    comparison_output,
    reliability_output,
    render,
    table1_rows,
    table2_rows,
)


def figure_csv(rows) -> str:
    """Long-form (network, processors, value) lines for external plotting."""
    table = [("network", "processors", "value")]
    table += [
        (key, row.processors, row.values[key]) for key in NETWORK_KEYS for row in rows
    ]
    return render("csv", None, table, ())


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
        "table1_links.csv": render("csv", *comparison_output(table1_rows())),
        "table1_links.json": render("json", *comparison_output(table1_rows())),
        "table1_links.txt": render("text", *comparison_output(table1_rows())),
        "table2_cost.csv": render("csv", *comparison_output(table2_rows())),
        "table2_cost.json": render("json", *comparison_output(table2_rows())),
        "table2_cost.txt": render("text", *comparison_output(table2_rows())),
        "table2_cost_exact.csv": render("csv", *comparison_output(exact)),
        "table2_cost_exact.txt": render("text", *comparison_output(exact)),
        "table3_reliability.csv": render("csv", *reliability_output(specs, rows3)),
        "table3_reliability.json": render("json", *reliability_output(specs, rows3)),
        "table3_reliability.txt": render("text", *reliability_output(specs, rows3)),
        "figure_links_vs_p.csv": figure_csv(table1_rows()),
        "figure_cost_vs_p.csv": figure_csv(table2_rows()),
    }
    for name, text in outputs.items():
        (out / name).write_text(text)
        print(f"wrote {out / name}")


if __name__ == "__main__":
    main()

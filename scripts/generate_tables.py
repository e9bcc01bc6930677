#!/usr/bin/env python3
"""Regenerate every comparison dataset into an output directory.

Writes the three tables (CSV, JSON, aligned text), the exact-convention
cost variant with its deviation flags, and the long-form figure datasets.
All outputs are byte-stable, so re-running onto a clean checkout is a
no-op diff.
"""

import argparse
from pathlib import Path

from tehnet import DiameterConvention
from tehnet.tables import (
    NETWORK_KEYS,
    PROCESSOR_COUNTS,
    TABLE_FILES,
    render,
    render_table,
    table1_cells,
    table2_cells,
)

#: Each output format to the suffix of its file.
SUFFIXES = {"csv": "csv", "json": "json", "text": "txt"}


def figure_csv(cells) -> str:
    """Long-form (network, processors, value) lines for external plotting."""
    table = [("network", "processors", "value")]
    table += [
        (key, processors, value)
        for key in NETWORK_KEYS
        for processors, value in zip(PROCESSOR_COUNTS, cells[key])
    ]
    return render("csv", None, table, ())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", type=Path)
    args = parser.parse_args()
    out: Path = args.out_dir
    # An existing file, or a path under one, ends in one usage error.
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        parser.error(str(err))

    outputs = {
        f"{stem}.{suffix}": render_table(table_id, fmt)
        for table_id, stem in TABLE_FILES.items()
        for fmt, suffix in SUFFIXES.items()
    }
    for fmt in ("csv", "text"):
        name = f"{TABLE_FILES[2]}_exact.{SUFFIXES[fmt]}"
        outputs[name] = render_table(2, fmt, DiameterConvention.EXACT)
    outputs["figure_links_vs_p.csv"] = figure_csv(table1_cells())
    outputs["figure_cost_vs_p.csv"] = figure_csv(table2_cells()[0])
    for name, text in outputs.items():
        (out / name).write_text(text)
        print(f"wrote {out / name}")


if __name__ == "__main__":
    main()

"""Smoke tests: the scripts in scripts/ run and reproduce the shipped tables."""

import io
import subprocess
import sys
from pathlib import Path

from tehnet.cli import run

ROOT = Path(__file__).parents[1]
DATA_DIR = ROOT / "src" / "tehnet" / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


def run_script(name, *args):
    # The environment is passed on unchanged, so the script imports the
    # tehnet the tests import: src/ under PYTHONPATH=src, else the installed one.
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


#: Each file generate_tables.py writes but table3_reliability.json, and the
#: shipped file or golden it must equal byte for byte.
_GENERATED = {
    **{f"{name}.csv": DATA_DIR / f"{name}.csv"
       for name in ("table1_links", "table2_cost", "table3_reliability")},
    "table1_links.txt": GOLDEN_DIR / "table1.txt",
    "table1_links.json": GOLDEN_DIR / "cli" / "table1.json",
    "table2_cost.txt": GOLDEN_DIR / "table2.txt",
    "table2_cost.json": GOLDEN_DIR / "cli" / "table2.json",
    "table2_cost_exact.txt": GOLDEN_DIR / "cli" / "table2_exact.txt",
    "table2_cost_exact.csv": GOLDEN_DIR / "cli" / "table2_exact.csv",
    "table3_reliability.txt": GOLDEN_DIR / "table3.txt",
    "figure_links_vs_p.csv": GOLDEN_DIR / "figure_links_vs_p.csv",
    "figure_cost_vs_p.csv": GOLDEN_DIR / "figure_cost_vs_p.csv",
}


def test_generate_tables_reproduces_shipped_tables(tmp_path):
    result = run_script("generate_tables.py", "--out-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted([*_GENERATED, "table3_reliability.json"])
    for name, expected in _GENERATED.items():
        assert (tmp_path / name).read_bytes() == expected.read_bytes(), name
    table3_json = io.StringIO()
    assert run(["table", "--id", "3", "--format", "json"], table3_json) == 0
    assert (tmp_path / "table3_reliability.json").read_text() == table3_json.getvalue()


def test_generate_tables_rejects_an_out_dir_it_cannot_make(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out_dir in (taken, taken / "sub"):
        result = run_script("generate_tables.py", "--out-dir", str(out_dir))
        assert (result.returncode, result.stdout) == (2, ""), out_dir
        usage, error = result.stderr.splitlines()[-2:]
        assert usage.startswith("usage: generate_tables.py"), out_dir
        assert error.startswith("generate_tables.py: error: "), out_dir
        assert str(out_dir) in error, out_dir
    assert taken.read_text() == ""


def test_scaling_report_prints_both_modes():
    result = run_script("scaling_report.py", "--steps", "1")
    assert result.returncode == 0, result.stderr
    assert "mode: torus expansion" in result.stdout
    assert "mode: hypercube expansion" in result.stdout
    assert result.stdout.count("  step 1: ") == 2


def test_scaling_report_rejects_bad_input_before_printing():
    for argv, message in [
        (("--base", "4,4,3"), "cube_nodes must be a power of two, got 3"),
        (("--steps", "0"), "steps must be >= 1, got 0"),
    ]:
        result = run_script("scaling_report.py", *argv)
        assert (result.returncode, result.stdout) == (2, ""), argv
        assert result.stderr.splitlines()[1:] == [
            f"scaling_report.py: error: {message}"
        ], argv

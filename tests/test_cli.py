"""Exit codes, output determinism, and golden CLI output."""

import hashlib
import io
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings

from bruteforce import adjacency_by_enumeration, incident_cut_share
from strategies import cli_argvs
from tehnet import (
    CountOutOfRangeError,
    build_graph,
    cli,
    decode_address,
    selfcheck,
    teh_spec,
)
from tehnet.reliability import antipodal_node
from tehnet.cli import _build_parser, _parse_table, run

GOLDEN_DIR = Path(__file__).parent / "golden"
CLI_GOLDEN_DIR = GOLDEN_DIR / "cli"

_TEH_4_4_16 = ("--family", "teh", "--l", "4", "--m", "4", "--cube", "16")
_CLI_GOLDEN_CASES = {
    "metrics_teh_4_6_8": (
        "metrics", "--family", "teh", "--l", "4", "--m", "6", "--cube", "8",
    ),
    "route_teh_5_6_16": (
        "route", "--family", "teh", "--l", "5", "--m", "6", "--cube", "16",
        "--from", "0,0,0", "--to", "3,4,13",
    ),
    "simulate_teh_4_4_8": (
        "simulate", "--family", "teh", "--l", "4", "--m", "4", "--cube", "8",
        "--f", "3", "--trials", "50", "--seed", "42",
    ),
    "scale_torus": ("scale", *_TEH_4_4_16, "--mode", "torus", "--steps", "4"),
    "scale_hypercube": ("scale", *_TEH_4_4_16, "--mode", "hypercube", "--steps", "4"),
    "reliability_default": ("reliability",),
    "reliability_custom": (
        "reliability", "--spec", "3,3,2", "--spec", "4,4,8", "--f-max", "12",
    ),
}
_EXTENSIONS = {"csv": "csv", "json": "json", "text": "txt"}
#: (golden file name, argv) pairs pinning stdout of every command and format
#: that the table goldens do not cover.
CLI_GOLDEN = [
    (f"{name}.{_EXTENSIONS[fmt]}", (*argv, "--format", fmt))
    for name, argv in _CLI_GOLDEN_CASES.items()
    for fmt in _EXTENSIONS
]
CLI_GOLDEN.append(
    (
        "metrics_teh_2_2_8.txt",
        ("metrics", "--family", "teh", "--l", "2", "--m", "2", "--cube", "8",
         "--format", "text"),
    )
)
CLI_GOLDEN += [
    (f"table{table_id}.json", ("table", "--id", str(table_id), "--format", "json"))
    for table_id in (1, 2, 3)
]
CLI_GOLDEN += [
    (f"table2_exact.{_EXTENSIONS[fmt]}",
     ("table", "--id", "2", "--convention", "exact", "--format", fmt))
    for fmt in _EXTENSIONS
]
CLI_GOLDEN.append(("self_check.txt", ("self-check",)))
CLI_GOLDEN += [
    (f"export_teh_3_3_4.{fmt}",
     ("export", "--family", "teh", "--l", "3", "--m", "3", "--cube", "4",
      "--format", fmt))
    for fmt in ("csv", "dot", "json")
]


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


_TEH_4_4_8 = ("--family", "teh", "--l", "4", "--m", "4", "--cube", "8")
_VALID_ARGV = {
    "metrics": ("metrics", *_TEH_4_4_8),
    "route": ("route", *_TEH_4_4_8, "--from", "0,0,0", "--to", "1,1,1"),
    "table": ("table", "--id", "2"),
    "table --id 1": ("table", "--id", "1"),
    "table --id 3": ("table", "--id", "3"),
    "reliability": ("reliability",),
    "simulate": ("simulate", *_TEH_4_4_8, "--f", "1", "--trials", "5"),
    "scale": ("scale", *_TEH_4_4_8, "--mode", "torus", "--steps", "2"),
    "self-check": ("self-check", "--max-nodes", "128"),
}


class TestExitCodes:
    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("route", "--convention", "square"),
            ("reliability", "--convention", "square"),
            ("simulate", "--convention", "square"),
            ("scale", "--convention", "square"),
            ("metrics", "--max-nodes", "1"),
            ("table", "--max-nodes", "1"),
            ("reliability", "--max-nodes", "1"),
            ("table --id 1", "--convention", "exact"),
            ("table --id 3", "--convention", "square"),
            ("self-check", "--data-dir", "x"),
        ],
    )
    def test_option_the_command_does_not_read(self, command, flag, value):
        argv = _VALID_ARGV[command]
        assert invoke(*argv)[0] == 0
        code, out, err = invoke(*argv, flag, value)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and flag in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command",
        ["", "metrics", "route", "table", "reliability", "simulate", "export",
         "scale", "self-check"],
    )
    def test_help_is_written_to_out(self, command):
        code, out, err = invoke(*command.split(), "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: tehnet {command}".rstrip() + " [-h]")

    def test_success(self):
        code, out, err = invoke("table", "--id", "1", "--format", "csv")
        assert code == 0
        assert err == ""

    def test_usage_error_missing_dimension(self):
        for spec_args, message in [
            (("teh", "--l", "4", "--m", "4"), "teh requires --l, --m, and --cube"),
            (("hypercube",), "hypercube requires --cube"),
            (("torus", "--l", "4"), "torus requires --l and --m"),
            (("torus", "--m", "4"), "torus requires --l and --m"),
        ]:
            code, out, err = invoke("metrics", "--family", *spec_args)
            assert (code, out, err) == (1, "", f"usage error: {message}\n"), spec_args

    def test_usage_error_hypercube_with_torus_dims(self):
        code, _, err = invoke(
            "metrics", "--family", "hypercube", "--l", "4", "--cube", "8"
        )
        assert code == 1

    @pytest.mark.parametrize("spec", ["4,4", "a,b,c"])
    def test_usage_error_bad_spec(self, spec):
        code, out, err = invoke("reliability", "--spec", spec)
        assert (code, out) == (1, "")
        assert err == f"usage error: --spec must be l,m,N, got {spec!r}\n"

    def test_usage_error_bad_address(self):
        code, _, err = invoke(
            "route", "--family", "hypercube", "--cube", "8",
            "--from", "0,0", "--to", "0,0,1",
        )
        assert code == 1

    def test_domain_error(self):
        code, out, err = invoke(
            "metrics", "--family", "teh", "--l", "4", "--m", "4", "--cube", "6"
        )
        assert code == 2
        assert out == ""
        assert "power of two" in err

    def test_resource_limit(self):
        code, out, err = invoke(
            "export", "--family", "hypercube", "--cube", "4096", "--max-nodes", "512"
        )
        assert code == 3
        assert out == ""


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--id", "1", "--format", "json"),
            ("table", "--id", "3", "--format", "text"),
            ("metrics", "--family", "teh", "--l", "16", "--m", "16", "--cube", "4",
             "--format", "json"),
            ("route", "--family", "teh", "--l", "2", "--m", "2", "--cube", "8",
             "--from", "0,0,0", "--to", "1,1,5", "--format", "csv"),
            ("simulate", "--family", "teh", "--l", "4", "--m", "4", "--cube", "8",
             "--f", "3", "--trials", "50", "--seed", "42", "--format", "json"),
            ("export", "--family", "teh", "--l", "3", "--m", "3", "--cube", "4",
             "--format", "dot"),
            ("scale", "--family", "teh", "--l", "4", "--m", "4", "--cube", "16",
             "--mode", "torus", "--steps", "4", "--format", "csv"),
        ],
    )
    def test_identical_bytes_across_runs(self, argv):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second
        assert first[0] == 0


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "table_id,golden",
        [("1", "table1.txt"), ("2", "table2.txt"), ("3", "table3.txt")],
    )
    def test_table_text(self, table_id, golden):
        code, out, _ = invoke("table", "--id", table_id, "--format", "text")
        assert code == 0
        assert out == (GOLDEN_DIR / golden).read_text()

    @pytest.mark.parametrize(
        "table_id,golden",
        [("1", "table1.csv"), ("2", "table2.csv"), ("3", "table3.csv")],
    )
    def test_table_csv(self, table_id, golden):
        code, out, _ = invoke("table", "--id", table_id, "--format", "csv")
        assert code == 0
        assert out == (GOLDEN_DIR / golden).read_text()

    @pytest.mark.parametrize(
        "golden,argv", CLI_GOLDEN, ids=[golden for golden, _ in CLI_GOLDEN]
    )
    def test_command_output(self, golden, argv):
        code, out, err = invoke(*argv)
        assert (code, err) == (0, "")
        assert out == (CLI_GOLDEN_DIR / golden).read_text()

    def test_byte_sweep(self, monkeypatch):
        """sweep.json maps each argv, space-joined, to the sha256 of the json
        list ``[exit code, stdout, stderr]`` it produced when captured."""
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal
        sweep = json.loads((CLI_GOLDEN_DIR / "sweep.json").read_text())
        for argv, expected in sweep.items():
            result = json.dumps(list(invoke(*argv.split()))).encode()
            assert hashlib.sha256(result).hexdigest() == expected, argv

    @pytest.mark.parametrize("columns", ["40", "80", "200", None])
    def test_help_ignores_the_terminal_width(self, monkeypatch, columns):
        """Each parser's help is the bytes sweep.json pinned at 80 columns."""
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        sweep = json.loads((CLI_GOLDEN_DIR / "sweep.json").read_text())
        helps = [argv for argv in sweep if argv.endswith("--help")]
        # The top-level parser, eight commands, and the self_check alias.
        assert len(helps) == 10
        for argv in helps:
            result = json.dumps(list(invoke(*argv.split()))).encode()
            assert hashlib.sha256(result).hexdigest() == sweep[argv], argv

    def test_convention_alias(self):
        square = invoke("table", "--id", "2", "--format", "csv",
                        "--convention", "square")
        alias = invoke("table", "--id", "2", "--format", "csv",
                       "--convention", "paper")
        assert square == alias


class TestCommands:
    def test_metrics_csv_cells(self):
        code, out, _ = invoke(
            "metrics", "--family", "teh", "--l", "16", "--m", "16", "--cube", "4",
            "--format", "csv",
        )
        assert code == 0
        header, row = out.splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["links"] == "3072"
        assert record["cost"] == "55296"

    def test_route_json(self):
        code, out, _ = invoke(
            "route", "--family", "teh", "--l", "2", "--m", "2", "--cube", "8",
            "--from", "0,0,0", "--to", "1,1,5", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["moves"] == ["col_plus", "row_plus", "cube_dim_0", "cube_dim_2"]
        assert doc["length"] == 4

    def test_route_text_shows_binary_labels(self):
        _, out, _ = invoke(
            "route", "--family", "teh", "--l", "2", "--m", "2", "--cube", "8",
            "--from", "0,0,0", "--to", "1,1,5",
        )
        assert "[k=101]" in out

    def test_reliability_custom_grid(self):
        code, out, _ = invoke(
            "reliability", "--spec", "4,4,8", "--f-max", "8", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[-1] == "8,"

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_reliability_default_grid_is_table_3(self, fmt):
        assert invoke("reliability", "--format", fmt) == invoke(
            "table", "--id", "3", "--format", fmt
        )

    def test_reliability_default_json_is_table_3_after_f_max(self):
        _, grid, _ = invoke("reliability", "--format", "json")
        _, table, _ = invoke("table", "--id", "3", "--format", "json")
        assert grid == table.replace("{\n", '{\n  "f_max": 9,\n', 1)

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_reliability_repeated_spec_keeps_both_columns(self, fmt):
        grid = ("reliability", "--spec", "4,4,8", "--f-max", "8", "--format", fmt)
        code, twice, _ = invoke(*grid, "--spec", "4,4,8")
        _, once, _ = invoke(*grid)
        assert code == 0
        if fmt == "json":
            doc = json.loads(twice)
            assert doc["specs"] == ["(4, 4, 8)"] * 2
            assert [row["cells"] for row in doc["rows"]] == [
                row["cells"] * 2 for row in json.loads(once)["rows"]
            ]
        elif fmt == "csv":
            assert twice.splitlines() == [
                line + line[line.index(","):] for line in once.splitlines()
            ]
        else:
            width = len("(4, 4, 8)")
            assert twice.splitlines() == [
                f"{line}  {line[-width:]}" for line in once.splitlines()
            ]

    def test_export_json_node_count(self):
        code, out, _ = invoke(
            "export", "--family", "teh", "--l", "2", "--m", "2", "--cube", "8",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["node_count"] == 32

    def test_scale_steps_validation(self):
        code, _, err = invoke(
            "scale", "--family", "teh", "--l", "4", "--m", "4", "--cube", "8",
            "--mode", "torus", "--steps", "0",
        )
        assert code == 1

    def test_simulate_text(self):
        code, out, _ = invoke(
            "simulate", "--family", "teh", "--l", "4", "--m", "4", "--cube", "8",
            "--f", "0", "--trials", "10", "--seed", "5",
        )
        assert code == 0
        assert "estimate: 1.0" in out


class TestInputBounds:
    @pytest.mark.parametrize(
        "bad,message",
        [(("--f", "1", "--trials", "0"), "trials"), (("--f", "-1"), "failure")],
    )
    def test_simulate_counts_are_domain_errors(self, bad, message):
        code, out, err = invoke(
            "simulate", "--family", "teh", "--l", "4", "--m", "4", "--cube", "8", *bad
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1

    def test_simulate_honours_max_nodes(self):
        code, out, err = invoke(
            "simulate", "--max-nodes", "100", "--family", "teh",
            "--l", "16", "--m", "16", "--cube", "16", "--f", "1",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("resource limit:")
        assert err.count("\n") == 1

    def test_route_honours_max_nodes(self):
        code, out, err = invoke(
            "route", "--family", "torus", "--l", "8", "--m", "6",
            "--from", "0,0,0", "--to", "4,3,0", "--max-nodes", "10",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("resource limit:") and "48 nodes" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_reliability_f_max_below_one(self, fmt):
        code, out, err = invoke("reliability", "--f-max", "0", "--format", fmt)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:") and "--f-max must be >= 1" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_reliability_f_max_above_limit(self, fmt):
        code, out, err = invoke("reliability", "--f-max", "1025", "--format", fmt)
        assert code == 1
        assert out == ""
        assert err == "usage error: --f-max must be <= 1024, got 1025\n"
        code, out, _ = invoke("reliability", "--f-max", "1024", "--format", fmt)
        assert code == 0


def share_per_cut(spec, failures, *_):
    """``monte_carlo_connectivity`` from the brute-force cut oracle."""
    adjacency = adjacency_by_enumeration(spec.rows, spec.cols, spec.cube_nodes)
    goal = tuple(decode_address(spec, antipodal_node(spec)))
    return float(incident_cut_share(adjacency, (0, 0, 0), goal, failures))


class TestSelfCheck:
    @pytest.mark.parametrize("cap", [1.5, True, "512", None])
    def test_max_nodes_must_be_an_int(self, cap, monkeypatch):
        # Raised before any group builds a graph, not reported as two
        # failed oracle-grid groups.
        built = []
        monkeypatch.setattr(selfcheck, "build_graph", built.append)
        match = f"^max_nodes must be an int, got {re.escape(repr(cap))}$"
        with pytest.raises(CountOutOfRangeError, match=match):
            selfcheck.self_check(max_nodes=cap)
        assert built == []

    def test_passes_on_a_fresh_build(self):
        code, out, _ = invoke("self-check", "--max-nodes", "256")
        assert code == 0
        assert "7/7 groups passed" in out
        assert "FAIL" not in out

    def test_underscore_alias(self):
        code, out, _ = invoke("self_check", "--max-nodes", "128")
        assert code == 0

    def test_fails_on_corrupted_golden_data(self, monkeypatch):
        golden_text = selfcheck._golden_text

        def corrupted(table_id):
            text = golden_text(table_id)
            return text.replace("20736", "20737") if table_id == 2 else text

        monkeypatch.setattr(selfcheck, "_golden_text", corrupted)
        code, out, _ = invoke("self-check", "--max-nodes", "128")
        assert code == 1
        assert "FAIL  tables: table2 does not match its golden file" in out
        assert out.count("PASS") == 6

        # A group that raises is reported as failed with the exception.
        def missing(table_id):
            raise FileNotFoundError(f"no data file for table{table_id}")

        monkeypatch.setattr(selfcheck, "_golden_text", missing)
        code, out, _ = invoke("self-check", "--max-nodes", "128")
        assert code == 1
        assert "FAIL  tables: FileNotFoundError: no data file for table1\n" in out
        assert out.count("PASS") == 6

    def test_monte_carlo_group_fails_on_a_wrong_closed_form(self, monkeypatch):
        monkeypatch.setattr(selfcheck, "monte_carlo_connectivity", lambda *a: 1.0)
        code, out, _ = invoke("self-check", "--max-nodes", "128")
        assert code == 1
        assert "FAIL  monte-carlo: (2, 2, 4) f=4: 0 of 1 fault sets" in out
        assert out.count("PASS") == 6

    def test_routing_group_fails_on_a_wrong_closed_form(self, monkeypatch):
        monkeypatch.setattr(selfcheck, "distance_closed", lambda *a: 0)
        code, out, _ = invoke("self-check", "--max-nodes", "128")
        assert code == 1
        assert "FAIL  routing:" in out
        assert out.count("PASS") == 6

    def test_routing_group_fails_on_a_wrong_router(self, monkeypatch):
        route = selfcheck.route

        def one_move_short(spec, src, dst):
            path = route(spec, src, dst)
            if (spec.label(), src, dst) == ("(3, 3, 4)", (1, 2, 3), (2, 0, 1)):
                return path._replace(hops=path.hops[:-1], moves=path.moves[:-1])
            return path

        monkeypatch.setattr(selfcheck, "route", one_move_short)
        code, out, _ = invoke("self-check", "--max-nodes", "128")
        assert code == 1
        expected = "FAIL  routing: (3, 3, 4) 1,2,3->2,0,1: closed 3, bfs 3, route 2"
        assert f"{expected}\n" in out
        assert out.count("PASS") == 6

    def test_links_group_fails_on_a_wrong_closed_form(self, monkeypatch):
        # The graphs are built once per self-check and shared between groups;
        # each group must still fail on its own closed form.
        simple = selfcheck.link_count_simple
        monkeypatch.setattr(selfcheck, "link_count_simple", lambda s: simple(s) + 1)
        code, out, _ = invoke("self-check", "--max-nodes", "128")
        assert code == 1
        expected = "FAIL  links-closed-form: (3, 3, 1): built 18, closed 18, simple 19"
        assert expected in out
        assert out.count("PASS") == 6

    def test_diameter_group_fails_on_a_wrong_closed_form(self, monkeypatch):
        closed = selfcheck.diameter_closed
        monkeypatch.setattr(selfcheck, "diameter_closed", lambda s: closed(s) + 1)
        code, out, _ = invoke("self-check", "--max-nodes", "128")
        assert code == 1
        assert "FAIL  diameter-closed-form: (3, 3, 1): BFS 2, closed form 3" in out
        assert out.count("PASS") == 6

    @pytest.mark.parametrize("cap", ["8", "0", "-5"])
    def test_fails_when_the_cap_admits_no_oracle_spec(self, cap):
        # The smallest oracle spec, (3, 3, 1), has 9 nodes: a lower cap
        # leaves both graph-size groups nothing to check.
        code, out, err = invoke("self-check", "--max-nodes", cap)
        assert (code, err) == (1, "")
        detail = f"max_nodes {cap} admits no oracle spec; the smallest has 9 nodes"
        assert f"FAIL  links-closed-form: {detail}\n" in out
        assert f"FAIL  diameter-closed-form: {detail}\n" in out
        assert out.count("PASS") == 5
        assert out.endswith("5/7 groups passed\n")

    def test_smallest_oracle_spec_is_checked_at_its_node_count(self):
        code, out, _ = invoke("self-check", "--max-nodes", "9")
        assert code == 0
        assert "7/7 groups passed" in out

    def test_max_nodes_caps_only_the_oracle_grids(self, monkeypatch):
        # At 9 only (3, 3, 1) is left of the grids; the other groups still
        # build their fixed specs, each once.
        built = []

        def recording(spec):
            built.append((spec.rows, spec.cols, spec.cube_nodes))
            return build_graph(spec)

        monkeypatch.setattr(selfcheck, "build_graph", recording)
        code, out, _ = invoke("self-check", "--max-nodes", "9")
        assert (code, out.count("PASS")) == (0, 7)
        assert built == [
            (3, 4, 4), (2, 2, 8), (3, 3, 1), (3, 3, 4), (4, 4, 2), (2, 2, 4)
        ]

    @pytest.mark.parametrize("dims", selfcheck._TRANSITIVITY_SPECS)
    def test_shift_generators_span_the_group(self, dims):
        # Checking the generators proves transitivity only if every shift
        # is a composition of them.
        rows, cols, cube_nodes = dims
        generators = selfcheck._shift_generators(teh_spec(*dims))
        reached = {(0, 0, 0)}
        frontier = [(0, 0, 0)]
        while frontier:
            shifts = [
                ((a + da) % rows, (b + db) % cols, c ^ dc)
                for a, b, c in frontier
                for da, db, dc in generators
            ]
            frontier = [shift for shift in shifts if shift not in reached]
            reached.update(frontier)
        assert len(reached) == rows * cols * cube_nodes

    def test_transitivity_group_fails_on_a_relabelled_edge(self, monkeypatch):
        def relabelled(spec):
            graph = build_graph(spec)
            *edges, (src, dst, kind) = graph.edges
            assert src != 0
            kind = "torus_column" if kind == "torus_row" else "torus_row"
            return graph._replace(edges=(*edges, (src, dst, kind)))

        monkeypatch.setattr(selfcheck, "build_graph", relabelled)
        code, out, _ = invoke("self-check", "--max-nodes", "128")
        assert code == 1
        failure = next(line for line in out.splitlines() if "FAIL" in line)
        assert failure.startswith("FAIL  vertex-transitivity: shift (")
        assert failure.endswith(" does not preserve (3, 4, 4)")
        assert out.count("PASS") == 6

    def test_monte_carlo_count_matches_a_search_per_cut(self, monkeypatch):
        monkeypatch.setattr(selfcheck, "monte_carlo_connectivity", share_per_cut)
        code, out, _ = invoke("self-check", "--max-nodes", "128")
        assert (code, out.count("PASS")) == (0, 7)

        def one_share_off(spec, failures, *_):
            share = share_per_cut(spec, failures)
            off = (spec.label(), failures) == ("(2, 2, 4)", 2)
            return share / 2 if off else share

        monkeypatch.setattr(selfcheck, "monte_carlo_connectivity", one_share_off)
        code, out, _ = invoke("self-check", "--max-nodes", "128")
        assert code == 1
        expected = "FAIL  monte-carlo: (2, 2, 4) f=2: 6 of 6 fault sets connected"
        assert f"{expected}, closed form 0.5" in out
        assert out.count("PASS") == 6

    def test_reliability_group_fails_on_a_wrong_complement(self, monkeypatch):
        kept, lost = selfcheck.reliability_percent, selfcheck.unreliability_percent
        monkeypatch.setattr(selfcheck, "unreliability_percent", kept)
        code, out, _ = invoke("self-check", "--max-nodes", "128")
        assert code == 1
        assert "FAIL  reliability-model" in out
        assert out.count("PASS") == 6
        # Swapped, each still complements the other, but reliability rises with f.
        monkeypatch.setattr(selfcheck, "reliability_percent", lost)
        monkeypatch.setattr(selfcheck, "unreliability_percent", kept)
        code, out, _ = invoke("self-check", "--max-nodes", "128")
        assert code == 1
        expected = (
            "FAIL  reliability-model: percentages not strictly decreasing to zero: "
            "[0.0, 14.3, 28.6, 42.9, 57.1, 71.4, 85.7, 100.0]\n"
        )
        assert expected in out
        assert out.count("PASS") == 6


#: (exit, stdout, stderr) of argv at the edges of dispatch, captured when
#: every argv still went through the top-level parser: none, help before a
#: command, options before a command, a word that is not one, ``--``,
#: abbreviated and ``=`` options, trailing extras, and addresses out of range.
DISPATCH_CASES = json.loads((CLI_GOLDEN_DIR / "dispatch.json").read_text())


class TestDispatch:
    @pytest.mark.parametrize(
        "case", DISPATCH_CASES, ids=[" ".join(c["argv"]) for c in DISPATCH_CASES]
    )
    def test_pinned_bytes(self, case):
        assert invoke(*case["argv"]) == (case["exit"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["table", "--id", "1", "--format", "csv"],
             (0, (GOLDEN_DIR / "table1.csv").read_text(), "")),
            ([], (1, "", "usage error: the following arguments are required: "
                  "command\n")),
        ],
    )
    def test_none_reads_sys_argv(self, monkeypatch, argv, expected):
        monkeypatch.setattr(sys, "argv", ["tehnet", *argv])
        out, err = io.StringIO(), io.StringIO()
        code = run(None, out, err)
        assert (code, out.getvalue(), err.getvalue()) == expected

    @pytest.mark.parametrize(
        "argv", [("table", "--id", "1", "--format", "csv"), ("--help",), ()]
    )
    @pytest.mark.parametrize("container", [tuple, iter])
    def test_any_iterable_argv_answers_as_a_list(self, argv, container):
        out, err = io.StringIO(), io.StringIO()
        code = run(container(argv), out, err)
        assert (code, out.getvalue(), err.getvalue()) == invoke(*argv)


class TestParserReuse:
    SEQUENCE = [
        ("reliability", "--spec", "9,9,8", "--f-max", "x"),
        ("metrics", "--help"),
        ("reliability", "--spec", "3,3,2", "--spec", "4,4,8"),
        ("reliability", "--format", "csv"),
        _VALID_ARGV["route"],
        _VALID_ARGV["route"],
    ]

    def test_each_call_answers_as_on_a_fresh_parser(self):
        _build_parser.cache_clear()
        in_sequence = [invoke(*argv) for argv in self.SEQUENCE]
        assert _build_parser.cache_info().misses == 1
        alone = []
        for argv in self.SEQUENCE:
            _build_parser.cache_clear()
            alone.append(invoke(*argv))
        assert in_sequence == alone
        assert in_sequence[0][0] == 1 and in_sequence[1][0] == 0
        default_grid = (CLI_GOLDEN_DIR / "reliability_default.csv").read_text()
        assert in_sequence[3] == (0, default_grid, "")

    def test_import_builds_no_parser(self):
        """Neither the import nor a canonical argv builds an argparse parser;
        the first help or usage error builds the tree once, and later ones
        reuse it."""
        script = (
            "import argparse, io, json, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import tehnet.cli\n"
            "counts = [len(built)]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    tehnet.cli.run(argv, io.StringIO(), io.StringIO())\n"
            "    counts.append(len(built))\n"
            "print(*counts)\n"
        )
        argvs = [
            ["table", "--id", "1"],
            _VALID_ARGV["route"],
            ["metrics", "--help"],
            ["table", "--id", "4"],
            ["--help"],
            ["table", "--id", "1"],
        ]
        result = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        at_import, *after_each = map(int, result.stdout.split())
        assert at_import == 0
        assert after_each[:2] == [0, 0]
        tree = after_each[2]
        assert tree > 0
        assert after_each[2:] == [tree] * 4


def argparse_vars(argv):
    """vars() of the namespace the top-level argparse parser gives ``argv``,
    or None when it prints help or raises a usage error."""
    try:
        return vars(_build_parser().parse_args(argv))
    except (cli._UsageError, cli._Exit):
        return None


def assert_parses_as_argparse(argv):
    table = _parse_table(argv)
    assert table is None or vars(table) == argparse_vars(argv), argv
    return table


class TestTableParser:
    """The table parser returns None or argparse's namespace, ``command``
    included, for every argv."""

    SWEEP = json.loads((CLI_GOLDEN_DIR / "sweep.json").read_text())

    def test_golden_argv(self):
        argvs = [argv.split() for argv in self.SWEEP]
        argvs += [case["argv"] for case in DISPATCH_CASES]
        assert len(argvs) == 128 + 17
        parsed = [argv for argv in argvs if assert_parses_as_argparse(argv)]
        # All but --help, usage errors of argparse and other spellings: the
        # sweep's "--f -1" and every dispatch argv but its "--from 4,0,0".
        assert len(parsed) == 108 + 1

    @given(cli_argvs())
    @settings(max_examples=400, deadline=None)
    def test_drawn_argv(self, argv):
        assert_parses_as_argparse(argv)

    def test_canonical_sweep_argv_needs_no_argparse(self, monkeypatch):
        """Every sweep argv that argparse parses and whose values do not
        start with "-" gives its pinned bytes with argparse out of reach, so
        a table that declines them fails here."""
        canonical = [
            argv
            for argv in self.SWEEP
            if argparse_vars(argv.split())
            and not any(value.startswith("-") for value in argv.split()[2::2])
        ]
        assert len(canonical) == 108

        def refuse():
            raise AssertionError("argparse parsed a canonical argv")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        for argv in canonical:
            result = json.dumps(list(invoke(*argv.split()))).encode()
            assert hashlib.sha256(result).hexdigest() == self.SWEEP[argv], argv

    @pytest.mark.parametrize(
        "argv",
        [
            *(_VALID_ARGV[name] for name in ("metrics", "route", "table",
                                             "simulate", "scale")),
            ("reliability", "--f-max", "3", "--format", "csv"),
            ("export", *_TEH_4_4_8, "--format", "dot"),
            ("self-check", "--max-nodes", "128"),
            ("self_check", "--max-nodes", "128"),
            # Exits 1 with the FAIL report (TestSelfCheck pins it).
            ("self_check", "--max-nodes", "8"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_both_routes_reach_one_handler(self, argv):
        """A canonical argv and its ``--flag=value`` spelling, which only
        argparse accepts, give the same (exit, stdout, stderr)."""
        spelled = [argv[0]] + [
            f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])
        ]
        assert _parse_table(list(argv)) is not None
        assert _parse_table(spelled) is None
        assert invoke(*spelled) == invoke(*argv)


class TestMetricsWarnings:
    def test_small_ring_prints_its_note_and_lets_no_warning_escape(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = invoke(
                "metrics", "--family", "teh", "--l", "2", "--m", "2", "--cube", "8",
                "--format", "text",
            )
        assert (code, err, caught) == (0, "", [])
        assert out == (CLI_GOLDEN_DIR / "metrics_teh_2_2_8.txt").read_text()
        assert "note: links counts coincident ring links twice" in out


class TestEntryPoint:
    def test_module_invocation(self):
        # Bytes through a real stdout; table 3's text prints an em dash.
        for argv, golden in [
            (("table", "--id", "1", "--format", "csv"), "table1.csv"),
            (("table", "--id", "3", "--format", "text"), "table3.txt"),
        ]:
            result = subprocess.run(
                [sys.executable, "-m", "tehnet", *argv],
                capture_output=True,
                timeout=60,
            )
            assert (result.returncode, result.stderr) == (0, b""), argv
            assert result.stdout == (GOLDEN_DIR / golden).read_bytes(), argv

    def test_help_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "tehnet", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("usage: tehnet [-h]")
        assert "Monte-Carlo" not in result.stdout

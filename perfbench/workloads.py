"""The benchmark's workloads: their inputs, the op each one times, and its checks.

A workload hands out batches of inputs made from the run's seed.  Each
input is one op; ``op`` is the only part that is timed.  Afterwards
``failure`` says whether an op failed and ``check`` compares the output of
one that did not with values from ``expected``.  The ops of one workload
are of one kind and of similar cost, so no reported percentile falls
between two cost modes; cli-session is the exception by design, see
``CliSession``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random

import expected as ex

# The percentile each workload reports as latency_tail_ms: the highest of
# p90, p95, p99 and p99.9 with at least ten samples beyond it in a 55 s run.
TAIL_PERCENTILE = {
    "graph-analysis": 90.0,
    "cli-session": 99.0,
}


def _size(dims: tuple[int, int, int]) -> int:
    """Nodes + edges: the size a graph search walks.  Building and exporting
    cost about the same per unit of it."""
    return dims[0] * dims[1] * dims[2] + ex.link_count("teh", dims)


def _size_pool(target: int, spread: float, cube_sizes) -> list[tuple[int, int, int]]:
    """Every teh (l, m, N) with l, m >= 3 whose size lies within ``spread``
    of ``target``."""
    low, high = target * (1 - spread), target * (1 + spread)
    out = []
    for cube_nodes in cube_sizes:
        for l in itertools.takewhile(lambda l: _size((l, 3, cube_nodes)) <= high,
                                     itertools.count(3)):
            for m in itertools.takewhile(lambda m: _size((l, m, cube_nodes)) <= high,
                                         itertools.count(3)):
                if _size((l, m, cube_nodes)) >= low:
                    out.append((l, m, cube_nodes))
    return out


def _distinct_sequence(pool, rng: random.Random, strata: int = 8):
    """The pool in a seeded order that never repeats a network.

    The pool is sorted by size and cut into ``strata`` bands; the sequence
    takes one network from each band in turn, so every run, whatever its
    seed and length, sees about the same mix of sizes.
    """
    pool = sorted(pool, key=lambda dims: (_size(dims), dims))
    bands = [pool[len(pool) * i // strata:len(pool) * (i + 1) // strata] for i in range(strata)]
    for band in bands:
        rng.shuffle(band)
    for i in range(max(len(b) for b in bands)):
        for band in bands:
            if i < len(band):
                yield band[i]


def _cli(tehnet, argv):
    out, err = io.StringIO(), io.StringIO()
    code = tehnet.cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class Workload:
    """``module`` is what a user imports to make these calls."""

    module = "tehnet"
    batch_size = 1

    def __init__(self, tehnet, rng: random.Random):
        self.tehnet, self.rng = tehnet, rng

    def failure(self, item, output) -> str:
        """Why the op on ``item`` that returned ``output`` failed, or "" if
        it did not.  An op that raises has failed too; measure.py counts
        that."""
        return ""


class GraphAnalysis(Workload):
    """validate_spec -> build_graph -> adjacency -> diameter_bfs -> export
    in csv, dot and json, on distinct networks of a few thousand nodes."""

    def __init__(self, tehnet, rng: random.Random):
        super().__init__(tehnet, rng)
        # About 4096 nodes at N = 8: 2855 networks, so that a program
        # several times faster than today's still runs out of neither time
        # nor networks.  N = 2 is left out because its long thin tori would
        # dominate the pool.
        self.networks = _distinct_sequence(
            _size_pool(18432, 0.15, (4, 8, 16, 32, 64, 128)), rng
        )

    def batch(self):
        return list(itertools.islice(self.networks, self.batch_size))

    def op(self, dims):
        topology, metrics = self.tehnet.topology, self.tehnet.metrics
        spec = topology.validate_spec("teh", *dims)
        graph = topology.build_graph(spec)
        graph.adjacency
        diameter = metrics.diameter_bfs(graph)
        exports = [topology.export_topology(graph, fmt) for fmt in ("csv", "dot", "json")]
        return diameter, *exports

    def check(self, dims, output) -> str:
        diameter, csv_bytes, dot, json_bytes = output
        nodes = dims[0] * dims[1] * dims[2]
        links = ex.link_count("teh", dims)
        if diameter != ex.diameter("teh", dims):
            return f"{dims}: BFS diameter {diameter}, expected {ex.diameter('teh', dims)}"
        rows = csv_bytes.decode().splitlines()
        if rows[0] != "src_index,dst_index,kind" or len(rows) != links + 1:
            return f"{dims}: csv has {len(rows) - 1} edges, expected {links}"
        edges = []
        for row in rows[1:]:
            src, dst, kind = row.split(",")
            src, dst = int(src), int(dst)
            if not src < dst or ex.edge_kind(dims, src, dst) != kind:
                return f"{dims}: csv edge {row} is not an elementary move"
            edges.append((src, dst, kind))
        if len(set(edges)) != links:
            return f"{dims}: csv repeats an edge"
        if dot.count(b"\n") != nodes + links + 2 or dot.count(b" -- ") != links:
            return f"{dims}: dot does not hold {nodes} nodes and {links} edges"
        parsed = json.loads(json_bytes)
        if parsed["node_count"] != nodes or len(parsed["edges"]) != links:
            return f"{dims}: json node_count {parsed['node_count']}, expected {nodes}"
        for edge, want in zip(parsed["edges"], edges):
            if (edge["src"], edge["dst"], edge["kind"]) != want:
                return f"{dims}: json edge {edge} differs from csv {want}"
        return ""


def _parse_kv_text(text: str) -> dict:
    return dict(line.split(": ", 1) for line in text.splitlines())


def _metrics_check(family, dims, convention, fmt, text) -> str:
    want = ex.metrics_record(family, dims, convention)
    if fmt == "json":
        got = json.loads(text)
    elif fmt == "csv":
        header, line = text.splitlines()
        got = dict(zip(header.split(","), line.split(",")))
    else:
        got = _parse_kv_text(text)
    if {k: str(v) for k, v in got.items()} != {k: str(v) for k, v in want.items()}:
        return f"metrics {family} {dims} {convention} {fmt}: {got}, expected {want}"
    return ""


def _route_check(dims, src, dst, fmt, text) -> str:
    if fmt == "json":
        doc = json.loads(text)
        hops = [tuple(int(x) for x in hop.split(",")) for hop in doc["hops"]]
        moves = doc["moves"]
        if doc["length"] != len(moves):
            return f"route json length {doc['length']} with {len(moves)} moves"
    elif fmt == "csv":
        rows = [row.split(",") for row in text.splitlines()[1:]]
        hops = [tuple(int(x) for x in row[2:]) for row in rows]
        moves = [row[1] for row in rows[1:]]
    else:
        lines = text.splitlines()
        hops = [tuple(int(x) for x in lines[1].split()[1].split(","))]
        moves = []
        for line in lines[2:]:
            _, move, _, hop, _ = line.split()
            moves.append(move)
            hops.append(tuple(int(x) for x in hop.split(",")))
    if hops[0] != src or hops[-1] != dst:
        return f"route {dims} {fmt}: runs {hops[0]}->{hops[-1]}, asked {src}->{dst}"
    if len(moves) != ex.distance(dims, src, dst) or len(hops) != len(moves) + 1:
        return f"route {dims} {fmt}: {len(moves)} moves, distance {ex.distance(dims, src, dst)}"
    for a, b, move in zip(hops, hops[1:], moves):
        if ex.move_between(dims, a, b) != move:
            return f"route {dims} {fmt}: hop {a}->{b} is not {move}"
    return ""


def _table_check(table_id, fmt, text) -> str:
    if fmt == "json":
        ok = json.loads(text) == ex.golden_table_json(table_id)
    else:
        ok = text == ex.golden(f"table{table_id}.{'txt' if fmt == 'text' else 'csv'}")
    return "" if ok else f"table --id {table_id} --format {fmt} differs from the paper's table"


def _cell(text: str) -> float | None:
    if text in ("", "—"):
        return None
    return 0.0 if text == "00" else float(text)


def _reliability_check(fmt, text) -> str:
    specs = ex.TABLE3_SPECS
    want = ex.reliability_grid(specs, ex.TABLE3_F_MAX)
    labels = [f"({l}, {m}, {n})" for l, m, n in specs]
    if fmt == "json":
        doc = json.loads(text)
        got = [row["cells"] for row in doc["rows"]]
        ok = doc["specs"] == labels and doc["f_max"] == ex.TABLE3_F_MAX
        ok = ok and [row["failures"] for row in doc["rows"]] == list(range(1, 10))
    else:
        lines = text.splitlines()
        if fmt == "csv":
            rows = list(csv.reader(lines))
            ok = rows[0][1:] == labels
        else:
            rows = [line.split() for line in lines]
            ok = " ".join(rows[0][1:]) == " ".join(labels)
        ok = ok and [row[0] for row in rows[1:]] == [str(f) for f in range(1, 10)]
        got = [[_cell(cell) for cell in row[1:]] for row in rows[1:]]
    if not ok or got != want:
        return f"reliability --format {fmt}: {got}, expected {want}"
    return ""


def _scale_check(dims, mode, steps, fmt, text) -> str:
    want = ex.scale_steps(dims, mode, steps)
    if fmt == "json":
        got = [
            (s["l"], s["m"], s["N"], s["nodes"], s["degree"], s["existing_nodes_reconfigured"])
            for s in json.loads(text)
        ]
    elif fmt == "csv":
        got = []
        for row in text.splitlines()[1:]:
            _, _, _, l, m, n, nodes, degree, reconf = row.split(",")
            got.append((int(l), int(m), int(n), int(nodes), int(degree), reconf == "true"))
    else:
        got = []
        for line in text.splitlines():
            head, tail = line.split(") ")
            l, m, n = (int(x) for x in head.split("(")[1].split(", "))
            fields = dict(part.split("=") for part in tail.split())
            got.append((l, m, n, int(fields["nodes"]), int(fields["degree"]),
                        fields["reconfigures_existing"] == "yes"))
    return "" if got == want else f"scale {mode} {fmt}: {got}, expected {want}"


def _export_check(dims, text) -> str:
    doc = json.loads(text)
    links = ex.link_count("teh", dims)
    if doc["node_count"] != dims[0] * dims[1] * dims[2] or len(doc["edges"]) != links:
        return f"export {dims}: {doc['node_count']} nodes, {len(doc['edges'])} edges"
    for edge in doc["edges"]:
        if ex.edge_kind(dims, edge["src"], edge["dst"]) != edge["kind"]:
            return f"export {dims}: edge {edge} is not an elementary move"
    return ""


def _self_check_check(text) -> str:
    lines = text.splitlines()
    groups = len(lines) - 1
    if groups < 1 or any(not line.startswith("PASS  ") for line in lines[:-1]):
        return f"self-check: {text!r}"
    if lines[-1] != f"{groups}/{groups} groups passed":
        return f"self-check: {lines[-1]!r}"
    return ""


FORMATS = ("csv", "json", "text")
FAMILIES = {"hypercube": (1, 1, 64), "torus": (8, 6, 1), "teh": (4, 6, 8)}


def _spec_args(family, dims):
    l, m, n = dims
    if family == "hypercube":
        return ["--family", family, "--cube", str(n)]
    if family == "torus":
        return ["--family", family, "--l", str(l), "--m", str(m)]
    return ["--family", family, "--l", str(l), "--m", str(m), "--cube", str(n)]


class CliSession(Workload):
    """One tehnet.cli.run(argv) per op, from a fixed script of 52 commands.

    The script covers metrics for every family, format and convention,
    route for every family and format, the three tables in every format,
    reliability in every format, scale in both modes, one export of a
    128-node network and one self-check.  Self-check costs a hundred light
    commands, so it sits alone above every other op: it is 1/52 of the
    ops, and p99 falls in the middle of its mode while p50 falls among the
    light commands.  A pass of the script is one batch; only the route
    endpoints change from pass to pass.
    """

    module = "tehnet.cli"
    batch_size = 52

    def batch(self):
        script = []
        for family, dims in FAMILIES.items():
            for fmt in FORMATS:
                for convention in ("exact", "square", "paper"):
                    argv = ["metrics", *_spec_args(family, dims), "--format", fmt,
                            "--convention", convention]
                    script.append((argv, (_metrics_check, family, dims, convention, fmt)))
        for family, dims in FAMILIES.items():
            for fmt in FORMATS:
                src, dst = (
                    tuple(self.rng.randrange(size) for size in dims) for _ in range(2)
                )
                argv = ["route", *_spec_args(family, dims), "--format", fmt,
                        "--from", ",".join(map(str, src)), "--to", ",".join(map(str, dst))]
                script.append((argv, (_route_check, dims, src, dst, fmt)))
        for table_id in (1, 2, 3):
            for fmt in FORMATS:
                argv = ["table", "--id", str(table_id), "--format", fmt]
                script.append((argv, (_table_check, table_id, fmt)))
        for fmt in FORMATS:
            script.append((["reliability", "--format", fmt], (_reliability_check, fmt)))
        for mode, fmt in (("torus", "csv"), ("hypercube", "text")):
            dims = (4, 4, 16)
            argv = ["scale", *_spec_args("teh", dims), "--mode", mode, "--steps", "4",
                    "--format", fmt]
            script.append((argv, (_scale_check, dims, mode, 4, fmt)))
        dims = (4, 4, 8)
        script.append(
            (["export", *_spec_args("teh", dims), "--format", "json"], (_export_check, dims))
        )
        script.append((["self-check"], (_self_check_check,)))
        assert len(script) == self.batch_size
        return script

    def op(self, item):
        return _cli(self.tehnet, item[0])

    def failure(self, item, output) -> str:
        code, _, err = output
        return f"{' '.join(item[0])}: exit {code}: {err.strip()}" if code else ""

    def check(self, item, output) -> str:
        check, *args = item[1]
        return check(*args, output[1])


WORKLOADS = {
    "graph-analysis": GraphAnalysis,
    "cli-session": CliSession,
}

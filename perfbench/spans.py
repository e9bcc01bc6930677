"""Spans around tehnet's public functions, for the traced run only.

``install`` rebinds each public function in each tehnet module's namespace
(``tehnet.reliability.build_graph``, ``tehnet.selfcheck.route``, ...) to a
wrapper that records a span: its name, start, end and the span that caused
it.  Per-node and per-hop helpers are left alone, because a wrapper costs
about as much as they do and would swamp the timings.  Spans stay in memory
until the run ends; ``per_layer`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import defaultdict

LAYERS = ("topology", "routing", "metrics", "reliability", "tables", "selfcheck", "cli")

# Called once per node, hop or table cell.
_HELPERS = {
    "check_address",
    "decode_address",
    "encode_address",
    "neighbors",
    "hypercube_kind",
    "apply_move",
    "cube_move",
    "distance_closed",
    "reliability_fraction",
    "reliability_percent",
    "unreliability_percent",
    "format_reliability_cell",
    "main",
}

# The span the benchmark opens around each op.
ROOT = "bench.op"


def _count(name: str, args, kwargs, result) -> int:
    """The work a call did, read from what it returned or was asked: edges
    built, hops routed, bytes exported or trials run."""
    if name == "topology.build_graph":
        return len(result.edges)
    if name == "routing.route":
        return result.length
    if name.startswith("topology.export_"):
        return len(result)
    if name == "reliability.monte_carlo_connectivity":
        return args[2] if len(args) > 2 else kwargs["trials"]
    return 0


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.built_nodes = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, 0])
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int, count: int = 0) -> None:
        span = self.spans[span_id]
        span[2] = time.perf_counter_ns()
        span[4] = count
        self._stack.pop()

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_name = name
            if name == "topology.export_topology":
                fmt = args[1] if len(args) > 1 else kwargs["format"]
                span_name = f"topology.export_{fmt}"
            span_id = self.open(span_name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.close(span_id)
                raise
            self.close(span_id, _count(span_name, args, kwargs, result))
            if name == "topology.build_graph":
                self.built_nodes += result.node_count
            return result

        return traced

    def install(self, package) -> None:
        """Rebind every public function of the layer modules, wherever a
        tehnet namespace holds it, and wrap ``Topology.adjacency``."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and attr not in _HELPERS
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self.wrap(f"{short}.{attr}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        topology_cls = package.topology.Topology
        original = topology_cls.__dict__["adjacency"]
        replacement = functools.cached_property(
            self.wrap("topology.adjacency", original.func)
        )
        replacement.__set_name__(topology_cls, "adjacency")
        topology_cls.adjacency = replacement

    def write(self, path) -> None:
        """One JSON document: the field names, the span names, then one
        [name index, start_ns, end_ns, parent, count] row per span."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            fh.write('{"fields":["name","start_ns","end_ns","parent","count"],')
            fh.write(f'"names":{json.dumps(names)},"spans":[')
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(f'{"," if i else ""}[{index[name]},{start},{end},{parent},{count}]')
            fh.write("]}\n")

    def per_layer(self) -> dict[str, float]:
        """Aggregate the spans into the metrics BENCHMARK.json lists.

        ``*.self_s`` is a function's self time per op of the workload: its
        spans' durations less the time their child spans cover, summed and
        divided by the number of ops.  Counts are totals over the run.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        for (name, start, end, _, count), child in zip(self.spans, child_ns):
            self_s[name] += (end - start - child) / 1e9
            total_s[name] += (end - start) / 1e9
            calls[name] += 1
            counts[name] += count
        ops = calls[ROOT]

        def per(total: float, n: int, scale: float = 1.0) -> float:
            return total / n * scale if n else 0.0

        def self_per_op(*names: str) -> float:
            return per(sum(self_s[name] for name in names), ops)

        build, route, trial = (
            "topology.build_graph", "routing.route", "reliability.monte_carlo_connectivity"
        )
        exports = [f"topology.export_{fmt}" for fmt in ("csv", "dot", "json")]
        return {
            f"{build}.calls": calls[build],
            f"{build}.self_s": self_per_op(build),
            f"{build}.us_per_node": per(self_s[build], self.built_nodes, 1e6),
            f"{build}.edges": counts[build],
            "topology.adjacency.self_s": self_per_op("topology.adjacency"),
            **{f"{name}.self_s": self_per_op(name) for name in exports},
            "topology.export_topology.mib": sum(counts[name] for name in exports) / 2**20,
            f"{route}.calls": calls[route],
            f"{route}.self_s": self_per_op(route),
            f"{route}.us_per_call": per(self_s[route], calls[route], 1e6),
            f"{route}.hops": counts[route],
            "routing.bfs_distance.self_s": self_per_op("routing.bfs_distance"),
            "metrics.diameter_bfs.self_s": self_per_op("metrics.diameter_bfs"),
            "metrics.metrics_report.self_s": self_per_op("metrics.metrics_report"),
            "tables.self_s": self_per_op(*(n for n in self_s if n.startswith("tables."))),
            f"{trial}.self_s": self_per_op(trial),
            "reliability.antipodal_node.self_s": self_per_op("reliability.antipodal_node"),
            "reliability.trials": counts[trial],
            "reliability.trials_per_s": per(counts[trial], total_s[trial]),
            "selfcheck.self_check.self_s": self_per_op("selfcheck.self_check"),
            "cli.run.calls": calls["cli.run"],
            "cli.run.self_s": self_per_op("cli.run"),
        }

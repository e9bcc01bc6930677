"""Command-line front end with deterministic, scriptable output.

Every command writes its whole result to stdout in one piece (never a
partial document on error) and two runs with identical arguments produce
byte-identical output.  Exit codes: 0 success, 1 usage error or failed
self-check, 2 domain error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path
from typing import IO, Sequence

from .errors import ClosedFormApproximationWarning, ResourceLimitError, TehnetError
from .metrics import DiameterConvention, link_count_simple, metrics_report
from .reliability import ReliabilityRow, monte_carlo_connectivity, reliability_table
from .routing import Path as RoutePath
from .routing import route
from .selfcheck import self_check
from .tables import (
    ScalingMode,
    render_comparison_csv,
    render_comparison_json,
    render_comparison_text,
    render_reliability_csv,
    render_reliability_json,
    render_reliability_text,
    scaling_sequence,
    table1_rows,
    table2_rows,
    table3_grid,
)
from .topology import (
    DEFAULT_NODE_CAP,
    Family,
    NetworkSpec,
    NodeAddress,
    build_graph,
    export_topology,
    validate_spec,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3

#: Largest ``reliability --f-max``, far above any degree a network here has.
F_MAX_LIMIT = 1024

_CONVENTIONS = {
    "exact": DiameterConvention.EXACT,
    "square": DiameterConvention.SQUARE_APPROX,
    "paper": DiameterConvention.SQUARE_APPROX,
}


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    """Carries the help text of ``--help`` back to :func:`run`."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def print_help(self, file: IO[str] | None = None) -> None:
        # --help calls this, then exits; run writes the text to out instead.
        raise _HelpRequested(self.format_help())

    def _get_formatter(self) -> argparse.HelpFormatter:
        # Help wraps as on an 80-column terminal, whatever the real one is.
        return self.formatter_class(prog=self.prog, width=78)


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family", choices=[f.value for f in Family], required=True
    )
    parser.add_argument("--l", type=int, dest="rows", help="torus rows")
    parser.add_argument("--m", type=int, dest="cols", help="torus columns")
    parser.add_argument(
        "--cube", type=int, dest="cube_nodes", help="hypercube node count"
    )


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["csv", "json", "text"], default="text")


def _add_convention(parser: argparse.ArgumentParser, default: str | None) -> None:
    parser.add_argument("--convention", choices=sorted(_CONVENTIONS), default=default)


def _add_max_nodes(
    parser: argparse.ArgumentParser, default: int = DEFAULT_NODE_CAP
) -> None:
    parser.add_argument("--max-nodes", type=int, default=default, dest="max_nodes")


def _spec_from_args(args: argparse.Namespace) -> NetworkSpec:
    family = Family(args.family)
    if family is Family.HYPERCUBE:
        if args.cube_nodes is None:
            raise _UsageError("hypercube requires --cube")
        if args.rows is not None or args.cols is not None:
            raise _UsageError("hypercube takes --cube only, not --l/--m")
        return validate_spec(family, 1, 1, args.cube_nodes)
    if family is Family.TORUS:
        if args.rows is None or args.cols is None:
            raise _UsageError("torus requires --l and --m")
        if args.cube_nodes is not None:
            raise _UsageError("torus takes --l/--m only, not --cube")
        return validate_spec(family, args.rows, args.cols, 1)
    if args.rows is None or args.cols is None or args.cube_nodes is None:
        raise _UsageError("teh requires --l, --m, and --cube")
    return validate_spec(family, args.rows, args.cols, args.cube_nodes)


def _parse_triple(text: str, expected: str) -> tuple[int, ...]:
    """Three comma-separated integers, or a usage error that says ``expected``."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        values = ()
    if len(values) != 3:
        raise _UsageError(f"{expected}, got {text!r}")
    return values


def _json(doc: object) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv_cell(value: object) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _csv(records: list[dict]) -> str:
    """A header line from the first record's keys, then one line per record."""
    lines = [",".join(records[0])]
    lines += [",".join(map(_csv_cell, record.values())) for record in records]
    return "\n".join(lines) + "\n"


def _render(record: dict, fmt: str, notes: Sequence[str] = ()) -> str:
    """One record as csv, json, or ``key: value`` lines followed by ``notes``."""
    if fmt == "csv":
        return _csv([record])
    if fmt == "json":
        return _json(record)
    lines = [f"{key}: {value}" for key, value in record.items()]
    return "\n".join([*lines, *notes]) + "\n"


def _render_reliability(
    specs: list[NetworkSpec], rows: list[ReliabilityRow], fmt: str, head: dict
) -> str:
    """A reliability grid; ``head`` holds the json keys written before it."""
    if fmt == "csv":
        return render_reliability_csv(specs, rows)
    if fmt == "json":
        return render_reliability_json(specs, rows, head)
    return render_reliability_text(specs, rows)


def _cube_bits(spec: NetworkSpec, cube: int) -> str:
    width = max(spec.cube_dim, 1)
    return format(cube, f"0{width}b")


def _cmd_metrics(args: argparse.Namespace) -> str:
    spec = _spec_from_args(args)
    convention = _CONVENTIONS[args.convention]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClosedFormApproximationWarning)
        report = metrics_report(spec, convention)
    notes = []
    if spec.has_torus_part and (spec.rows < 3 or spec.cols < 3):
        notes.append(
            f"note: links counts coincident ring links twice; the simple "
            f"graph has {link_count_simple(spec)}"
        )
    return _render(report.to_json_dict(), args.format, notes)


def _route_text(path: RoutePath) -> str:
    spec = path.spec
    lines = [
        f"route {spec.label()}: {path.hops[0]} -> {path.hops[-1]} "
        f"length {path.length}"
    ]
    lines.append(f"start {path.hops[0]} [k={_cube_bits(spec, path.hops[0].cube)}]")
    for step, (move, hop) in enumerate(zip(path.moves, path.hops[1:]), start=1):
        lines.append(
            f"{step}. {move.label} -> {hop} [k={_cube_bits(spec, hop.cube)}]"
        )
    return "\n".join(lines) + "\n"


def _cmd_route(args: argparse.Namespace) -> str:
    spec = _spec_from_args(args)
    expected = "must be three comma-separated integers"
    src = NodeAddress(*_parse_triple(args.src, f"--from {expected}"))
    dst = NodeAddress(*_parse_triple(args.dst, f"--to {expected}"))
    if spec.node_count > args.max_nodes:
        raise ResourceLimitError(
            f"{spec.label()} has {spec.node_count} nodes, above the cap of "
            f"{args.max_nodes}; raise --max-nodes to route on it anyway"
        )
    path = route(spec, src, dst)
    if args.format == "json":
        return _json(path.to_json_dict())
    if args.format == "csv":
        moves = ["", *(move.label for move in path.moves)]
        return _csv(
            [
                {"step": step, "move": move, "i": hop.row, "j": hop.col, "k": hop.cube}
                for step, (move, hop) in enumerate(zip(moves, path.hops))
            ]
        )
    return _route_text(path)


_COMPARISON_RENDERERS = {
    "csv": render_comparison_csv,
    "json": render_comparison_json,
    "text": render_comparison_text,
}


def _cmd_table(args: argparse.Namespace) -> str:
    if args.convention is not None and args.id != 2:
        raise _UsageError(f"table --id {args.id} does not take --convention")
    if args.id == 3:
        grid = table3_grid()
        return _render_reliability(list(grid.specs), list(grid.rows), args.format, {})
    # Square is the default because the reference tables quote it.
    convention = _CONVENTIONS[args.convention or "square"]
    rows = table1_rows() if args.id == 1 else table2_rows(convention)
    return _COMPARISON_RENDERERS[args.format](rows)


def _cmd_reliability(args: argparse.Namespace) -> str:
    if args.f_max < 1:
        raise _UsageError(f"--f-max must be >= 1, got {args.f_max}")
    if args.f_max > F_MAX_LIMIT:
        raise _UsageError(f"--f-max must be <= {F_MAX_LIMIT}, got {args.f_max}")
    specs = [
        validate_spec(Family.TEH, *_parse_triple(text, "--spec must be l,m,N"))
        for text in args.specs or ("4,4,8", "4,4,16", "4,4,32", "4,4,64")
    ]
    rows = reliability_table(specs, args.f_max)
    return _render_reliability(specs, rows, args.format, {"f_max": args.f_max})


def _cmd_simulate(args: argparse.Namespace) -> str:
    spec = _spec_from_args(args)
    estimate = monte_carlo_connectivity(
        spec, args.failures, args.trials, args.seed, node_cap=args.max_nodes
    )
    record = {
        "family": spec.family.value,
        "l": spec.rows,
        "m": spec.cols,
        "N": spec.cube_nodes,
        "failures": args.failures,
        "trials": args.trials,
        "seed": args.seed,
        "estimate": estimate,
    }
    return _render(record, args.format)


def _cmd_export(args: argparse.Namespace) -> str:
    spec = _spec_from_args(args)
    topology = build_graph(spec, node_cap=args.max_nodes)
    return export_topology(topology, args.export_format).decode()


def _cmd_scale(args: argparse.Namespace) -> str:
    if args.steps < 1:
        raise _UsageError("--steps must be >= 1")
    spec = _spec_from_args(args)
    steps = scaling_sequence(
        ScalingMode(args.mode), spec, args.steps, node_cap=args.max_nodes
    )
    records = [
        {
            "step": number,
            "mode": step.mode.value,
            "family": step.spec.family.value,
            "l": step.spec.rows,
            "m": step.spec.cols,
            "N": step.spec.cube_nodes,
            "nodes": step.spec.node_count,
            "degree": step.degree,
            "existing_nodes_reconfigured": step.existing_nodes_reconfigured,
        }
        for number, step in enumerate(steps, start=1)
    ]
    if args.format == "json":
        return _json(records)
    if args.format == "csv":
        return _csv(records)
    lines = [
        f"{number}. {step.spec.label()} nodes={step.spec.node_count} "
        f"degree={step.degree} "
        f"reconfigures_existing={'yes' if step.existing_nodes_reconfigured else 'no'}"
        for number, step in enumerate(steps, start=1)
    ]
    return "\n".join(lines) + "\n"


def _cmd_self_check(args: argparse.Namespace) -> tuple[str, int]:
    data_dir = Path(args.data_dir) if args.data_dir else None
    results = self_check(max_nodes=args.max_nodes, data_dir=data_dir)
    lines = []
    for result in results:
        if result.passed:
            lines.append(f"PASS  {result.group}")
        else:
            lines.append(f"FAIL  {result.group}: {result.detail}")
    failed = sum(not result.passed for result in results)
    lines.append(f"{len(results) - failed}/{len(results)} groups passed")
    return "\n".join(lines) + "\n", EXIT_OK if failed == 0 else EXIT_USAGE


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parsers of this process, built on the first :func:`run`: the
    top-level parser, and the map from each command word (aliases
    included) to that command's parser.

    :func:`run` parses an argv that starts with a command word by that
    command's parser alone.  Every other argv (empty, ``--help``, an
    unknown word, an option before the command) goes to the top-level
    parser, which therefore only prints its help or raises a usage error.

    Reuse is safe: each ``parse_args`` fills a fresh namespace, and
    ``--spec`` appends to a new list because its default is ``None``.
    """
    parser = _Parser(prog="tehnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_metrics = sub.add_parser("metrics", help="closed-form network metrics")
    _add_spec_arguments(p_metrics)
    _add_format(p_metrics)
    _add_convention(p_metrics, "exact")

    p_route = sub.add_parser("route", help="deterministic shortest path")
    _add_spec_arguments(p_route)
    _add_format(p_route)
    _add_max_nodes(p_route)
    p_route.add_argument("--from", dest="src", required=True, help="source i,j,k")
    p_route.add_argument("--to", dest="dst", required=True, help="destination i,j,k")

    p_table = sub.add_parser("table", help="comparison tables 1-3")
    p_table.add_argument("--id", type=int, choices=[1, 2, 3], required=True)
    _add_format(p_table)
    _add_convention(p_table, None)

    p_rel = sub.add_parser("reliability", help="reliability grid")
    p_rel.add_argument("--f-max", type=int, dest="f_max", default=9)
    p_rel.add_argument(
        "--spec",
        action="append",
        dest="specs",
        metavar="L,M,N",
        help="repeatable; defaults to the (4,4,8..64) series",
    )
    _add_format(p_rel)

    p_sim = sub.add_parser("simulate", help="exact incident-link fault connectivity")
    _add_spec_arguments(p_sim)
    _add_format(p_sim)
    _add_max_nodes(p_sim)
    p_sim.add_argument("--f", type=int, dest="failures", required=True)
    p_sim.add_argument("--trials", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)

    p_export = sub.add_parser("export", help="write the explicit topology")
    _add_spec_arguments(p_export)
    p_export.add_argument(
        "--format",
        choices=["dot", "csv", "json"],
        default="csv",
        dest="export_format",
    )
    _add_max_nodes(p_export)

    p_scale = sub.add_parser("scale", help="scale-up sequences")
    _add_spec_arguments(p_scale)
    _add_format(p_scale)
    _add_max_nodes(p_scale)
    p_scale.add_argument("--mode", choices=["torus", "hypercube"], required=True)
    p_scale.add_argument("--steps", type=int, required=True)

    p_check = sub.add_parser(
        "self-check", aliases=["self_check"], help="run the built-in oracle suite"
    )
    _add_max_nodes(p_check, 512)
    p_check.add_argument("--data-dir", dest="data_dir", help=argparse.SUPPRESS)

    return parser, sub.choices


_HANDLERS = {
    "metrics": _cmd_metrics,
    "route": _cmd_route,
    "table": _cmd_table,
    "reliability": _cmd_reliability,
    "simulate": _cmd_simulate,
    "export": _cmd_export,
    "scale": _cmd_scale,
}


def run(
    argv: Sequence[str] | None = None,
    out: IO[str] | None = None,
    err: IO[str] | None = None,
) -> int:
    """Parse ``argv`` (``sys.argv[1:]`` when None), run one command, and
    return the exit code.

    When the first word names a command, the rest goes straight to that
    command's parser, which the top-level parser would hand it to after
    a scan of its own; any other ``argv`` goes to the top-level parser.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:])
            args.command = argv[0]
        if args.command in ("self-check", "self_check"):
            text, code = _cmd_self_check(args)
            out.write(text)
            return code
        text = _HANDLERS[args.command](args)
    except _HelpRequested as exc:
        out.write(str(exc))
        return EXIT_OK
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ResourceLimitError as exc:
        err.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except TehnetError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    out.write(text)
    return EXIT_OK


def main() -> None:
    sys.exit(run())

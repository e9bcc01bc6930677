"""Command-line front end with deterministic, scriptable output.

Every command writes its whole result to stdout in one piece (never a
partial document on error) and two runs with identical arguments produce
byte-identical output.  Exit codes: 0 success, 1 usage error or failed
self-check, 2 domain error, 3 resource limit.
"""
# The docstring is ``tehnet --help``'s text; this module builds every command record.

from __future__ import annotations

import functools
import sys
from itertools import chain
from types import SimpleNamespace
from typing import IO, Callable, Iterator, NamedTuple, Sequence

from .errors import ResourceLimitError, TehnetError
from .metrics import (
    DiameterConvention,
    link_count_simple,
    metrics_report,
    simple_degree,
)
from .reliability import F_MAX_LIMIT, monte_carlo_connectivity, reliability_table
from .routing import Path, route
from .selfcheck import self_check
from .tables import (
    TABLE3_F_MAX,
    TABLE3_SPECS,
    TABLE_FILES,
    ScalingMode,
    reliability_output,
    render,
    render_table,
    scaling_sequence,
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

_CONVENTIONS = {
    "exact": DiameterConvention.EXACT,
    "square": DiameterConvention.SQUARE_APPROX,
    "paper": DiameterConvention.SQUARE_APPROX,
}


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """``_Exit(text, code)`` ends :func:`run` with ``text`` on stdout and
    exit code ``code``; ``--help`` and a failed self-check raise it."""


def _spec_from_args(args: SimpleNamespace) -> NetworkSpec:
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


def _spec_fields(spec: NetworkSpec, cube_key: str = "N") -> dict:
    """family, l, m and the cube node count under ``cube_key``."""
    return {"family": spec.family.value, "l": spec.rows, "m": spec.cols,
            cube_key: spec.cube_nodes}


def _record(record: dict, fmt: str, notes: Sequence[str] = ()) -> str:
    """One record as csv, json, or ``key: value`` lines followed by ``notes``."""
    lines = chain((f"{key}: {value}" for key, value in record.items()), notes)
    return render(fmt, lambda: record, (record, record.values()), lines)


def _cube_bits(spec: NetworkSpec, cube: int) -> str:
    width = max(spec.cube_dim, 1)
    return format(cube, f"0{width}b")


def _cmd_metrics(args: SimpleNamespace) -> str:
    spec = _spec_from_args(args)
    report = metrics_report(spec, _CONVENTIONS[args.convention])
    notes = []
    if simple_degree(spec) != spec.nominal_degree:
        notes.append(
            f"note: links counts coincident ring links twice; the simple "
            f"graph has {link_count_simple(spec)}"
        )
    record = {
        **_spec_fields(spec), "nodes": report.node_count, "degree": report.degree,
        "links": report.links, "diameter": report.diameter, "cost": report.cost,
        "convention": report.convention.value,
    }
    return _record(record, args.format, notes)


def _route_rows(path: Path) -> Iterator[tuple]:
    yield ("step", "move", "i", "j", "k")
    moves = ["", *path.moves]
    for step, (move, hop) in enumerate(zip(moves, path.hops)):
        yield (step, move, hop.row, hop.col, hop.cube)


def _route_lines(path: Path) -> Iterator[str]:
    spec, start = path.spec, path.hops[0]
    yield f"route {spec.label()}: {start} -> {path.hops[-1]} length {path.length}"
    yield f"start {start} [k={_cube_bits(spec, start.cube)}]"
    for step, (move, hop) in enumerate(zip(path.moves, path.hops[1:]), start=1):
        yield f"{step}. {move} -> {hop} [k={_cube_bits(spec, hop.cube)}]"


def _cmd_route(args: SimpleNamespace) -> str:
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

    def doc() -> dict:
        hops = [str(hop) for hop in path.hops]
        return {**_spec_fields(spec, "n_cube_nodes"), "hops": hops,
                "moves": list(path.moves), "length": path.length}

    return render(args.format, doc, _route_rows(path), _route_lines(path))


def _cmd_table(args: SimpleNamespace) -> str:
    if args.convention is not None and args.id != 2:
        raise _UsageError(f"table --id {args.id} does not take --convention")
    # Square is the default because the reference tables quote it.
    return render_table(args.id, args.format, _CONVENTIONS[args.convention or "square"])


def _cmd_reliability(args: SimpleNamespace) -> str:
    if args.f_max < 1:
        raise _UsageError(f"--f-max must be >= 1, got {args.f_max}")
    if args.f_max > F_MAX_LIMIT:
        raise _UsageError(f"--f-max must be <= {F_MAX_LIMIT}, got {args.f_max}")
    specs = [
        validate_spec(Family.TEH, *_parse_triple(text, "--spec must be l,m,N"))
        for text in args.specs or ()
    ] or list(TABLE3_SPECS)
    rows = reliability_table(specs, args.f_max)
    return render(args.format, *reliability_output(specs, rows, {"f_max": args.f_max}))


def _cmd_simulate(args: SimpleNamespace) -> str:
    spec = _spec_from_args(args)
    estimate = monte_carlo_connectivity(
        spec, args.failures, args.trials, args.seed, node_cap=args.max_nodes
    )
    record = {
        **_spec_fields(spec),
        "failures": args.failures,
        "trials": args.trials,
        "seed": args.seed,
        "estimate": estimate,
    }
    return _record(record, args.format)


def _cmd_export(args: SimpleNamespace) -> str:
    spec = _spec_from_args(args)
    topology = build_graph(spec, node_cap=args.max_nodes)
    return export_topology(topology, args.export_format).decode()


def _cmd_scale(args: SimpleNamespace) -> str:
    if args.steps < 1:
        raise _UsageError("--steps must be >= 1")
    mode = ScalingMode(args.mode)
    rewires = mode is ScalingMode.EXPAND_HYPERCUBE
    specs = scaling_sequence(
        mode, _spec_from_args(args), args.steps, node_cap=args.max_nodes
    )
    records = [
        {
            "step": number,
            "mode": mode.value,
            **_spec_fields(spec),
            "nodes": spec.node_count,
            "degree": spec.nominal_degree,
            "existing_nodes_reconfigured": rewires,
        }
        for number, spec in enumerate(specs, start=1)
    ]
    lines = (
        f"{number}. {spec.label()} nodes={spec.node_count} "
        f"degree={spec.nominal_degree} "
        f"reconfigures_existing={'yes' if rewires else 'no'}"
        for number, spec in enumerate(specs, start=1)
    )
    rows = [records[0], *map(dict.values, records)]
    return render(args.format, lambda: records, rows, lines)


def _cmd_self_check(args: SimpleNamespace) -> str:
    results = self_check(max_nodes=args.max_nodes)
    lines = [
        f"PASS  {result.group}" if result.passed
        else f"FAIL  {result.group}: {result.detail}"
        for result in results
    ]
    failed = sum(not result.passed for result in results)
    lines.append(f"{len(results) - failed}/{len(results)} groups passed")
    text = render("text", None, None, lines)
    if failed:
        raise _Exit(text, EXIT_USAGE)
    return text


class _Option(NamedTuple):
    """One ``--flag value`` option of a command, as argparse is told it."""

    flag: str
    dest: str
    type: Callable[[str], object] | None = None
    choices: tuple | None = None
    default: object = None
    required: bool = False
    help: str | None = None
    metavar: str | None = None
    append: bool = False


_SPEC_OPTIONS = (
    _Option(
        "--family", "family", choices=tuple(f.value for f in Family), required=True
    ),
    _Option("--l", "rows", int, help="torus rows"),
    _Option("--m", "cols", int, help="torus columns"),
    _Option("--cube", "cube_nodes", int, help="hypercube node count"),
)
_FORMAT = _Option("--format", "format", choices=("csv", "json", "text"), default="text")
_MAX_NODES = _Option("--max-nodes", "max_nodes", int, default=DEFAULT_NODE_CAP)
_CONVENTION = _Option("--convention", "convention", choices=tuple(sorted(_CONVENTIONS)))


#: Each command's help line, its aliases, its options in ``--help`` order,
#: and its handler, which returns the command's stdout.
_COMMAND_TABLE: dict[
    str, tuple[str, tuple[str, ...], tuple[_Option, ...], Callable[..., str]]
] = {
    "metrics": (
        "closed-form network metrics", (),
        (*_SPEC_OPTIONS, _FORMAT, _CONVENTION._replace(default="exact")),
        _cmd_metrics,
    ),
    "route": (
        "deterministic shortest path", (),
        (
            *_SPEC_OPTIONS, _FORMAT, _MAX_NODES,
            _Option("--from", "src", required=True, help="source i,j,k"),
            _Option("--to", "dst", required=True, help="destination i,j,k"),
        ),
        _cmd_route,
    ),
    "table": (
        "comparison tables 1-3", (),
        (
            _Option("--id", "id", int, choices=tuple(TABLE_FILES), required=True),
            _FORMAT,
            _CONVENTION,
        ),
        _cmd_table,
    ),
    "reliability": (
        "reliability grid", (),
        (
            _Option("--f-max", "f_max", int, default=TABLE3_F_MAX),
            _Option("--spec", "specs", metavar="L,M,N", append=True,
                    help="repeatable; defaults to the (4,4,8..64) series"),
            _FORMAT,
        ),
        _cmd_reliability,
    ),
    "simulate": (
        "exact incident-link fault connectivity", (),
        (
            *_SPEC_OPTIONS, _FORMAT, _MAX_NODES,
            _Option("--f", "failures", int, required=True),
            _Option("--trials", "trials", int, default=1000),
            _Option("--seed", "seed", int, default=0),
        ),
        _cmd_simulate,
    ),
    "export": (
        "write the explicit topology", (),
        (
            *_SPEC_OPTIONS,
            _Option("--format", "export_format", choices=("dot", "csv", "json"),
                    default="csv"),
            _MAX_NODES,
        ),
        _cmd_export,
    ),
    "scale": (
        "scale-up sequences", (),
        (
            *_SPEC_OPTIONS, _FORMAT, _MAX_NODES,
            _Option("--mode", "mode", choices=("torus", "hypercube"), required=True),
            _Option("--steps", "steps", int, required=True),
        ),
        _cmd_scale,
    ),
    "self-check": (
        "run the built-in oracle suite", ("self_check",),
        (_MAX_NODES._replace(default=512),),
        _cmd_self_check,
    ),
}

#: Each command word, aliases included, to its handler, its options by
#: flag, its defaults by dest, and the flags it requires.
_TABLE_PARSE = {
    word: (
        handler,
        {option.flag: option for option in options},
        {option.dest: option.default for option in options},
        {option.flag for option in options if option.required},
    )
    for name, (_, aliases, options, handler) in _COMMAND_TABLE.items()
    for word in (name, *aliases)
}


def _parse_table(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give ``argv`` when ``argv`` is a command
    word and then exact ``--option value`` pairs of that command, each value
    not starting with ``-``, converting and in its choices, with every
    required option given; None for any other ``argv``.

    This is the route of every canonical argv, read from the command's
    :data:`_COMMAND_TABLE` entry alone.  What it declines (help, usage
    errors, abbreviated or ``--opt=value`` spellings, ``--``) goes whole to
    the argparse parser of :func:`_build_parser`, built from the same
    entries, which parses it, prints the help or words the error.
    """
    table = _TABLE_PARSE.get(argv[0]) if argv else None
    if table is None or not len(argv) % 2:
        return None
    _, options, defaults, required = table
    values = defaults.copy()
    given = set()
    for index in range(1, len(argv), 2):
        option = options.get(argv[index])
        value = argv[index + 1]
        if option is None or value[:1] == "-":
            return None
        if option.type is not None:
            try:
                value = option.type(value)
            except (TypeError, ValueError):
                return None
        if option.choices is not None and value not in option.choices:
            return None
        if option.append:
            value = [*(values[option.dest] or ()), value]
        values[option.dest] = value
        given.add(option.flag)
    if not required <= given:
        return None
    return SimpleNamespace(**values, command=argv[0])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of this process, built from every
    :data:`_COMMAND_TABLE` entry the first time :func:`run` meets an argv
    that :func:`_parse_table` declines.

    Reuse is safe: each ``parse_args`` fills a fresh namespace, and
    ``--spec`` appends to a new list because its default is ``None``.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # type: ignore[override]
            raise _UsageError(message)

        def print_help(self, file: IO[str] | None = None) -> None:
            # --help calls this, then exits; run writes the text to out instead.
            raise _Exit(self.format_help(), EXIT_OK)

        def _get_formatter(self) -> argparse.HelpFormatter:
            # Help wraps as on an 80-column terminal, whatever the real one is.
            return self.formatter_class(prog=self.prog, width=78)

    parser = _Parser(prog="tehnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, aliases, options, _) in _COMMAND_TABLE.items():
        command = sub.add_parser(name, aliases=aliases, help=help_line)
        for option in options:
            command.add_argument(
                option.flag,
                action="append" if option.append else "store",
                dest=option.dest,
                type=option.type,
                choices=option.choices,
                default=option.default,
                required=option.required,
                help=option.help,
                metavar=option.metavar,
            )
    return parser


def run(
    argv: Sequence[str] | None = None,
    out: IO[str] | None = None,
    err: IO[str] | None = None,
) -> int:
    """Parse ``argv`` (``sys.argv[1:]`` when None), run one command, and
    return the exit code.

    A command is one :data:`_COMMAND_TABLE` entry: help line, aliases,
    options and handler.  :func:`_parse_table` parses a canonical ``argv``
    from it; any other ``argv`` goes to argparse.  Either way the
    command's handler then returns its stdout, or raises :class:`_Exit`
    with it when a self-check group fails.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_table(argv)
        if args is None:
            args = _build_parser().parse_args(argv, SimpleNamespace())
        text = _TABLE_PARSE[args.command][0](args)
    except _Exit as exc:
        text, code = exc.args
        out.write(text)
        return code
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

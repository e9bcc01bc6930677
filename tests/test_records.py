"""The record classes: repr, equality, hash, immutability, and what
importing the package loads."""

import hashlib
import json
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tehnet
from tehnet import (
    CheckResult,
    ComparisonRow,
    FaultScenario,
    Family,
    NodeAddress,
    Topology,
    build_graph,
    hypercube_spec,
    metrics_report,
    reliability_table,
    route,
    scaling_sequence,
    table1_rows,
    teh_spec,
)

_SPEC_4_4_8 = (
    "NetworkSpec(family=<Family.TEH: 'teh'>, rows=4, cols=4, cube_nodes=8, cube_dim=3)"
)

#: name -> (a function making the record, its repr).  Each repr was captured
#: from the frozen-dataclass versions of the classes, so it pins their text.
RECORDS = {
    "NetworkSpec": (lambda: teh_spec(4, 4, 8), _SPEC_4_4_8),
    "Topology": (
        lambda: build_graph(hypercube_spec(2)),
        "Topology(spec=NetworkSpec(family=<Family.HYPERCUBE: 'hypercube'>, rows=1, "
        "cols=1, cube_nodes=2, cube_dim=1), edges=((0, 1, 'hypercube_dim_0'),))",
    ),
    "MetricsReport": (
        lambda: metrics_report(teh_spec(4, 4, 8)),
        f"MetricsReport(spec={_SPEC_4_4_8}, node_count=128, degree=7, links=448, "
        "diameter=7, cost=3136, convention=<DiameterConvention.EXACT: 'exact'>)",
    ),
    "Path": (
        lambda: route(teh_spec(4, 4, 8), NodeAddress(0, 0, 0), NodeAddress(1, 1, 1)),
        f"Path(spec={_SPEC_4_4_8}, hops=(NodeAddress(row=0, col=0, cube=0), "
        "NodeAddress(row=0, col=1, cube=0), NodeAddress(row=1, col=1, cube=0), "
        "NodeAddress(row=1, col=1, cube=1)), moves=(Move(kind='col_plus', dim=-1), "
        "Move(kind='row_plus', dim=-1), Move(kind='cube', dim=0)))",
    ),
    "ReliabilityRow": (
        lambda: reliability_table([teh_spec(4, 4, 8), teh_spec(4, 4, 16)], 8)[7],
        "ReliabilityRow(failures=8, cells=(None, 0.0))",
    ),
    "FaultScenario": (
        lambda: FaultScenario(
            teh_spec(2, 2, 2), frozenset({(0, 1)}), frozenset({3}), 5
        ),
        "FaultScenario(spec=NetworkSpec(family=<Family.TEH: 'teh'>, rows=2, cols=2, "
        "cube_nodes=2, cube_dim=1), failed_links=frozenset({(0, 1)}), "
        "failed_nodes=frozenset({3}), seed=5)",
    ),
    "CheckResult": (
        lambda: CheckResult(group="tables", passed=False, detail="x"),
        "CheckResult(group='tables', passed=False, detail='x')",
    ),
    "ComparisonRow": (
        lambda: table1_rows()[0],
        "ComparisonRow(processors=512, values={'hypercube': 2304, 'torus': 1024, "
        "'teh_16_16_N': 1280, 'teh_lm_16': 2048}, teh_16_16_cube_nodes=2, "
        "flagged=frozenset())",
    ),
    "ComparisonRow flagged": (
        lambda: ComparisonRow(512, {"torus": 1}, 2, frozenset({"torus"})),
        "ComparisonRow(processors=512, values={'torus': 1}, teh_16_16_cube_nodes=2, "
        "flagged=frozenset({'torus'}))",
    ),
    "ScalingStep": (
        lambda: scaling_sequence("torus", teh_spec(4, 4, 8), 1)[0],
        "ScalingStep(mode=<ScalingMode.EXPAND_TORUS: 'torus'>, "
        "spec=NetworkSpec(family=<Family.TEH: 'teh'>, rows=4, cols=8, cube_nodes=8, "
        "cube_dim=3), degree=7, existing_nodes_reconfigured=False)",
    ),
}


@pytest.mark.parametrize("name", list(RECORDS))
class TestRecordContract:
    def test_repr(self, name):
        make, expected = RECORDS[name]
        assert repr(make()) == expected

    def test_equal_records_hash_equal(self, name):
        make, _ = RECORDS[name]
        first, second = make(), make()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)

    def test_fields_cannot_be_assigned(self, name):
        make, _ = RECORDS[name]
        record = make()
        field = type(record)._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_topology_cached_adjacency_cannot_be_assigned():
    topology = build_graph(teh_spec(2, 2, 2))
    adjacency = topology.adjacency
    with pytest.raises(AttributeError):
        topology.adjacency = ()
    assert topology.adjacency is adjacency


def test_comparison_row_hash_leaves_out_values():
    row = ComparisonRow(512, {"torus": 1}, 2)
    other = ComparisonRow(512, {"torus": 2}, 2)
    assert row != other
    assert hash(row) == hash(other)
    assert row.flagged == frozenset()


def test_records_are_tuples():
    spec = teh_spec(4, 4, 8)
    family, rows, cols, cube_nodes, cube_dim = spec
    assert (family, rows, cols, cube_nodes, cube_dim) == (Family.TEH, 4, 4, 8, 3)
    assert spec[1] == spec.rows
    assert spec == (Family.TEH, 4, 4, 8, 3)


def test_replaced_topology_gets_its_own_adjacency():
    graph = build_graph(teh_spec(2, 2, 4))
    original = graph.adjacency
    kept = graph.edges[1:]
    copy = graph._replace(edges=kept)
    assert isinstance(copy, Topology)
    expected = [[] for _ in range(graph.node_count)]
    for src, dst, _ in kept:
        expected[src].append(dst)
        expected[dst].append(src)
    assert copy.adjacency == tuple(tuple(sorted(nbrs)) for nbrs in expected)
    assert copy.adjacency != original
    assert graph.adjacency is original
    assert graph.adjacency == build_graph(teh_spec(2, 2, 4)).adjacency


_SRC = Path(__file__).parents[1] / "src"
_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
__import__(sys.argv[2])
print(json.dumps(sorted(sys.modules)))
"""
#: Heavy standard modules no import of the package may load.
_NOT_LOADED = {
    "dataclasses", "inspect", "hashlib", "fractions", "decimal", "numbers",
    "argparse", "gettext",
}
_LIBRARY = {
    f"tehnet.{module.name}"
    for module in pkgutil.iter_modules(tehnet.__path__)
    if module.name not in ("cli", "__main__")
}


@pytest.mark.parametrize(
    "module,expected",
    [("tehnet", _LIBRARY), ("tehnet.cli", _LIBRARY | {"tehnet.cli"})],
)
def test_import_loads_every_module_and_no_heavy_one(module, expected):
    # The package's own modules load eagerly, so no command pays for an
    # import on its first call; no timing is asserted here.
    result = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, str(_SRC), module],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert not loaded & _NOT_LOADED
    assert {name for name in loaded if name.startswith("tehnet.")} == expected


_COMMAND_PROBE = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
import tehnet.cli
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    code = tehnet.cli.run(argv.split(), out=out, err=err)
    results.append([code, out.getvalue(), err.getvalue()])
watched = {"fractions", "argparse", "gettext"}
print(json.dumps([results, sorted(watched & set(sys.modules))]))
"""
#: One command of each kind, the reliability grid in every format.
_COMMANDS = [
    "metrics --family teh --l 4 --m 4 --cube 8 --format json",
    "route --family teh --l 4 --m 4 --cube 8 --from 0,0,0 --to 2,2,7 --format text",
    "table --id 1 --format text",
    "table --id 2 --format csv",
    "table --id 3 --format text",
    "reliability --spec 4,4,8 --spec 4,4,16 --f-max 9 --format csv",
    "reliability --format json",
    "simulate --family teh --l 4 --m 4 --cube 8 --f 3 --trials 10",
    "scale --family teh --l 4 --m 4 --cube 16 --mode torus --steps 2",
    "export --family teh --l 2 --m 2 --cube 8 --format dot",
    "self-check",
]


def _probe(commands):
    """[exit code, stdout, stderr] of each command, run in one fresh
    process, and which of fractions, argparse and gettext it loaded."""
    result = subprocess.run(
        [sys.executable, "-I", "-c", _COMMAND_PROBE, str(_SRC), json.dumps(commands)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_commands_do_not_load_fractions():
    # The percentages are integer arithmetic, so no command pays for
    # importing fractions and decimal; a canonical argv is parsed without
    # argparse, and so without gettext.  No timing is asserted here.
    results, loaded = _probe(_COMMANDS)
    assert [code for code, _, _ in results] == [0] * len(_COMMANDS)
    assert loaded == []


def test_help_loads_argparse_and_prints_its_pinned_bytes():
    results, loaded = _probe(["--help"])
    sweep_file = Path(__file__).parent / "golden" / "cli" / "sweep.json"
    sweep = json.loads(sweep_file.read_text())
    digest = hashlib.sha256(json.dumps(results[0]).encode()).hexdigest()
    assert digest == sweep["--help"]
    assert loaded == ["argparse", "gettext"]


#: The public names of ``tehnet`` 0.3.0, sorted; its submodules are left out.
PUBLIC_NAMES = [
    "AddressOutOfRangeError",
    "COL_MINUS",
    "COL_PLUS",
    "CheckResult",
    "ClosedFormApproximationWarning",
    "ComparisonRow",
    "CountOutOfRangeError",
    "DEFAULT_NODE_CAP",
    "DiameterConvention",
    "Family",
    "FamilyMismatchError",
    "FaultScenario",
    "IndexOutOfRangeError",
    "MetricsReport",
    "Move",
    "NetworkSpec",
    "NodeAddress",
    "NonPositiveDimensionError",
    "NotPowerOfTwoError",
    "Path",
    "ROW_MINUS",
    "ROW_PLUS",
    "ReliabilityRow",
    "ResourceLimitError",
    "ScalingMode",
    "ScalingStep",
    "SpecError",
    "TehnetError",
    "TooManyFaultsError",
    "Topology",
    "UnsupportedFormatError",
    "build_graph",
    "cube_move",
    "decode_address",
    "diameter_bfs",
    "diameter_closed",
    "distance_closed",
    "encode_address",
    "export_topology",
    "hypercube_spec",
    "inject_faults",
    "link_count_closed",
    "link_count_simple",
    "metrics_report",
    "monte_carlo_connectivity",
    "reliability_percent",
    "reliability_table",
    "route",
    "scaling_sequence",
    "self_check",
    "square_torus_diameter",
    "table1_rows",
    "table2_rows",
    "teh_spec",
    "torus_spec",
    "unreliability_percent",
    "validate_spec",
]


def test_public_surface_and_version():
    names = sorted(
        name
        for name in dir(tehnet)
        if not name.startswith("_")
        and not isinstance(getattr(tehnet, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((_SRC.parent / "pyproject.toml").read_text())
    assert tehnet.__version__ == pyproject["project"]["version"]

"""Shared hypothesis strategies and spec lists for small networks."""

from hypothesis import strategies as st

from tehnet import NodeAddress, hypercube_spec, teh_spec, torus_spec

CUBE_SIZES = (1, 2, 4, 8, 16)

#: Every valid spec of every family with l, m in 1..6 and N in 1..16.
SMALL_SPECS = [hypercube_spec(n) for n in CUBE_SIZES]
SMALL_SPECS += [torus_spec(l, m) for l in range(1, 7) for m in range(1, 7)]
SMALL_SPECS += [
    teh_spec(l, m, n) for l in range(1, 7) for m in range(1, 7) for n in CUBE_SIZES
]
SMALL_SPEC_IDS = [
    f"{spec.family.value}-{spec.rows}-{spec.cols}-{spec.cube_nodes}"
    for spec in SMALL_SPECS
]

#: Addresses in range for any teh(l, m, N) with l, m >= 2 and N >= 4, each
#: with one field a float or a bool, which no address field may be.
NON_INT_ADDRESSES = [
    (0.5, 0, 0), (True, 0, 0), (0, 1.0, 0), (0, False, 0), (0, 0, 2.0), (0, 0, True),
]


@st.composite
def small_specs(draw, max_rows=6, max_cols=6, cube_sizes=CUBE_SIZES):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    cube_nodes = draw(st.sampled_from(cube_sizes))
    return teh_spec(rows, cols, cube_nodes)


@st.composite
def spec_with_addresses(draw, count=1, **spec_kwargs):
    spec = draw(small_specs(**spec_kwargs))
    addresses = tuple(
        NodeAddress(
            draw(st.integers(min_value=0, max_value=spec.rows - 1)),
            draw(st.integers(min_value=0, max_value=spec.cols - 1)),
            draw(st.integers(min_value=0, max_value=spec.cube_nodes - 1)),
        )
        for _ in range(count)
    )
    return spec, addresses


_INTS = ("0", "1", "2", "3", "4", "8", "16", "512")
_FORMATS = ("csv", "json", "text")
_SPEC_OPTIONS = {
    "--family": ("teh", "torus", "hypercube"),
    "--l": _INTS,
    "--m": _INTS,
    "--cube": _INTS,
}
#: Each command word's long options, written out here apart from the CLI's
#: own table, with values that parse.
CLI_OPTIONS = {
    "metrics": {
        **_SPEC_OPTIONS, "--format": _FORMATS,
        "--convention": ("exact", "square", "paper"),
    },
    "route": {
        **_SPEC_OPTIONS, "--format": _FORMATS, "--max-nodes": _INTS,
        "--from": ("0,0,0", "1,1,1", "a,b"), "--to": ("0,0,1", "2,3,1"),
    },
    "table": {
        "--id": ("1", "2", "3"), "--format": _FORMATS,
        "--convention": ("exact", "square", "paper"),
    },
    "reliability": {
        "--f-max": ("1", "3", "9"), "--spec": ("4,4,8", "3,3,2", "1,1,1"),
        "--format": _FORMATS,
    },
    "simulate": {
        **_SPEC_OPTIONS, "--format": _FORMATS, "--max-nodes": _INTS,
        "--f": ("0", "1", "3"), "--trials": ("1", "5"), "--seed": ("0", "42"),
    },
    "export": {
        **_SPEC_OPTIONS, "--format": ("dot", "csv", "json"), "--max-nodes": _INTS,
    },
    "scale": {
        **_SPEC_OPTIONS, "--format": _FORMATS, "--max-nodes": _INTS,
        "--mode": ("torus", "hypercube"), "--steps": ("1", "4"),
    },
    "self-check": {"--max-nodes": _INTS},
}
CLI_OPTIONS["self_check"] = CLI_OPTIONS["self-check"]
_ALL_FLAGS = sorted({flag for options in CLI_OPTIONS.values() for flag in options})
#: Values that do not parse, or parse only by argparse's rules.
_ODD_VALUES = ("-1", "-x", "", " 5 ", "٣", "1_0", "xml", "bogus", "4.0")
#: Words that are not an exact ``--option value`` pair.
_ODD_WORDS = (
    "--fam", "--form", "--family=teh", "--id=2", "--format=csv", "-h", "--help",
    "--", "--bogus", "x", "metrics",
)


@st.composite
def cli_argvs(draw):
    """A command word and ``--option value`` pairs: most of its own options
    with values that parse, then a few other commands' options, odd values
    and a repeated option, in any order, with stray words put in."""
    word = draw(st.sampled_from(sorted(CLI_OPTIONS)))
    own = CLI_OPTIONS[word]
    pairs = [
        [flag, draw(st.sampled_from(values))]
        for flag, values in own.items()
        if draw(st.integers(min_value=0, max_value=3))
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        flag = draw(st.sampled_from(sorted(own) * 3 + _ALL_FLAGS))
        values = own.get(flag, ("1",)) * 2 + _ODD_VALUES
        pairs.append([flag, draw(st.sampled_from(values))])
    if pairs and draw(st.booleans()):
        flag = draw(st.sampled_from(pairs))[0]
        pairs.append([flag, draw(st.sampled_from(own.get(flag, ("1",))))])
    argv = [word, *(part for pair in draw(st.permutations(pairs)) for part in pair)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        position = draw(st.integers(min_value=1, max_value=len(argv)))
        argv.insert(position, draw(st.sampled_from(_ODD_WORDS)))
    return argv

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

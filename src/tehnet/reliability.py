"""Analytical reliability model and the incident-link fault model.

The analytical model treats a node of degree d with f failed incident
links as (d - f) / d reliable; percentages are rounded half-away-from-
zero to one decimal.  For f above the degree no value exists
(:mod:`tehnet.tables` renders it as an em dash, and exact zero as ``00``).

The fault model fails f of the links incident to node 0 and asks whether
node 0 still reaches the antipodal destination.  Its answer is exact, with
no sampling.  Every ring of 3 or more nodes and every hypercube of
dimension 2 or more is 2-connected, and so is a Cartesian product of two
or more connected graphs with 2 or more nodes each (factors of one node
drop out).  So every network here is K1, K2 or 2-connected, and removing
node 0 leaves the rest connected: node 0 reaches the destination while it
keeps a link, and not once all its links have failed.
"""

from __future__ import annotations

from .errors import CountOutOfRangeError, SpecError, TooManyFaultsError
from .metrics import simple_degree
from .topology import (
    DEFAULT_NODE_CAP,
    NetworkSpec,
    NodeAddress,
    _check_int,
    _check_node_cap,
    encode_address,
)

#: Largest ``f_max``, far above any degree a network here has.
F_MAX_LIMIT = 1024


def _round1_half_away(numerator: int, denominator: int) -> float:
    # Round numerator/denominator * 100 to one decimal, halves away from
    # zero, using integer arithmetic only (values here are never negative).
    tenths = (2000 * numerator + denominator) // (2 * denominator)
    return tenths / 10


def _surviving_degree(spec: NetworkSpec, failures: int) -> int | None:
    # The degree d of (d - f) / d, or None for f > d.
    _check_int("failure count", failures, 0)
    degree = spec.nominal_degree
    if degree == 0:
        raise SpecError(
            f"{spec.family.value} {spec.label()} has nominal degree 0, "
            "so (d - f) / d is undefined"
        )
    return degree if failures <= degree else None


def reliability_percent(spec: NetworkSpec, failures: int) -> float | None:
    """Reliability percentage, one decimal, or None for f above the degree.

    Examples: degree 7 with one failure gives 85.7; with seven failures
    gives 0.0; with eight there is no value.

    Raises:
        CountOutOfRangeError: If ``failures`` is not an ``int`` (a
            ``bool`` is not) of at least 0.
        SpecError: If the spec's nominal degree is 0.
    """
    degree = _surviving_degree(spec, failures)
    if degree is None:
        return None
    return _round1_half_away(degree - failures, degree)


def unreliability_percent(spec: NetworkSpec, failures: int) -> float | None:
    """100 minus the exact reliability, f / d, then rounded to one decimal."""
    degree = _surviving_degree(spec, failures)
    if degree is None:
        return None
    return _round1_half_away(failures, degree)


def reliability_table(specs: list[NetworkSpec], f_max: int) -> list[tuple]:
    """Reliability percentages, one cell per spec, with row ``f - 1`` for f
    failures, f = 1..f_max.  An ``f_max`` that is not an ``int`` from 0 to
    :data:`F_MAX_LIMIT` raises :class:`CountOutOfRangeError`, an empty ``specs``
    :class:`SpecError`, before any row is built."""
    _check_int("f_max", f_max, 0)
    if f_max > F_MAX_LIMIT:
        raise CountOutOfRangeError(f"f_max must be <= {F_MAX_LIMIT}, got {f_max}")
    if not specs:
        raise SpecError("at least one spec is required")
    return [
        tuple(reliability_percent(spec, f) for spec in specs)
        for f in range(1, f_max + 1)
    ]


def antipodal_node(spec: NetworkSpec) -> int:
    """The lowest-index node at maximum closed-form distance from node 0.

    Each ring is farthest at half its size (the lower of two on odd
    rings) and the cube at the all-ones label; indices are row-major.
    """
    return encode_address(
        spec, NodeAddress(spec.rows // 2, spec.cols // 2, spec.cube_nodes - 1)
    )


def monte_carlo_connectivity(
    spec: NetworkSpec,
    failures: int,
    trials: int,
    seed: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> float:
    """Source-destination connectivity under incident-link faults, exactly.

    The model fails ``failures`` of node 0's links and asks whether node 0
    still reaches the fixed antipodal destination (the lowest-index node
    at maximum distance from it).  No network here is cut by removing
    node 0 (the module docstring gives the 2-connectivity argument), so
    the value is 1.0 while node 0 keeps a link, and 0.0 once all of them
    have failed, except on the one-node network, where node 0 is its own
    destination.  ``trials`` is still checked; neither it nor ``seed``
    changes the value.  The degree is node 0's in the simple graph, below
    ``spec.nominal_degree`` when a ring has fewer than 3 nodes.

    Raises:
        CountOutOfRangeError: If ``trials``, ``failures``, ``seed`` or
            ``node_cap`` is not an ``int``, or trials < 1 or failures < 0.
        ResourceLimitError: If node_count exceeds ``node_cap``.
        TooManyFaultsError: If ``failures`` exceeds the source degree.
    """
    _check_int("trials", trials, 1)
    _check_int("failure count", failures, 0)
    _check_int("seed", seed)
    _check_node_cap(spec, node_cap)
    degree = simple_degree(spec)
    if failures > degree:
        raise TooManyFaultsError(
            f"asked for {failures} failed incident links, node 0 has {degree}"
        )
    return 1.0 if failures < degree or spec.node_count == 1 else 0.0

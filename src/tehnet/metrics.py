"""Closed-form performance metrics and one breadth-first-search diameter.

Covers node degree, total link count, diameter, and topological cost
(links times diameter).  The only search here is :func:`diameter_bfs`,
node 0's eccentricity in the built graph, which self-check compares
with :func:`diameter_closed`.  The brute-force oracles for the other
closed forms live with the tests.

Two diameter conventions exist for networks with a torus part:

* ``exact`` uses the per-dimension ring diameters floor(rows/2) +
  floor(cols/2).
* ``square`` treats the torus part as a near-square array of its node
  count P and uses 2 * floor(isqrt(P) / 2), the convention behind the
  square-torus columns of the reference comparison tables.  For square
  tori with even sides the two agree.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .topology import NetworkSpec, Topology, _member


class DiameterConvention(str, Enum):
    EXACT = "exact"
    SQUARE_APPROX = "square"


class MetricsReport(NamedTuple):
    """A consistent bundle of the closed-form metrics for one network."""

    spec: NetworkSpec
    node_count: int
    degree: int
    links: int
    diameter: int
    cost: int
    convention: DiameterConvention


def simple_degree(spec: NetworkSpec) -> int:
    """Degree of every node in the simple graph: a ring of s nodes gives
    min(s - 1, 2) distinct neighbours, the cube one per bit.  Below
    ``spec.nominal_degree`` exactly when a ring has fewer than 3 nodes."""
    return min(spec.rows - 1, 2) + min(spec.cols - 1, 2) + spec.cube_dim


def link_count_closed(spec: NetworkSpec) -> int:
    """The paper's nominal link count, node_count * nominal_degree / 2.

    It counts two links per node on each ring, so it is above
    :func:`link_count_simple` exactly when a ring has fewer than 3 nodes,
    that is when :func:`simple_degree` is below ``spec.nominal_degree``.
    """
    return spec.node_count * spec.nominal_degree // 2


def link_count_simple(spec: NetworkSpec) -> int:
    """Edge count of the de-duplicated simple graph, in closed form.

    Matches ``len(build_graph(spec).edges)`` for every spec; equals
    :func:`link_count_closed` whenever rows, cols >= 3 or absent.
    """
    return spec.node_count * simple_degree(spec) // 2


def diameter_closed(spec: NetworkSpec) -> int:
    """Exact diameter: floor(rows/2) + floor(cols/2) + cube_dim.

    Valid for every dimension >= 1, including the degenerate families.
    """
    return spec.rows // 2 + spec.cols // 2 + spec.cube_dim


def square_torus_diameter(node_count: int) -> int:
    """Diameter convention for a torus quoted only by its node count P.

    Returns 2 * floor(isqrt(P) / 2), i.e. the exact diameter of an s x s
    torus with s = isqrt(P) rounded down to even.  Computed with exact
    integer arithmetic.
    """
    return 2 * (math.isqrt(node_count) // 2)


def _convention_diameter(spec: NetworkSpec, convention: DiameterConvention) -> int:
    if convention is DiameterConvention.EXACT:
        return diameter_closed(spec)
    return square_torus_diameter(spec.rows * spec.cols) + spec.cube_dim


def diameter_bfs(topology: Topology) -> int:
    """Diameter by breadth-first search over the explicit edge set.

    Returns the eccentricity of node 0, which equals the diameter because
    these graphs are vertex-transitive (self-check's vertex-transitivity
    group and the test suite check this independently).
    """
    return max(topology.distances(0))


def metrics_report(
    spec: NetworkSpec, convention: DiameterConvention = DiameterConvention.EXACT
) -> MetricsReport:
    """Bundle degree, links, diameter, and cost; cost = links * diameter.
    An unknown ``convention`` raises :class:`SpecError`."""
    convention = _member(DiameterConvention, convention, "diameter convention")
    links = link_count_closed(spec)
    diameter = _convention_diameter(spec, convention)
    return MetricsReport(
        spec=spec,
        node_count=spec.node_count,
        degree=spec.nominal_degree,
        links=links,
        diameter=diameter,
        cost=links * diameter,
        convention=convention,
    )

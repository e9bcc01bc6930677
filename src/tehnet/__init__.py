"""Interconnection-network toolkit for hypercube, 2D torus, and
torus-embedded hypercube families: graph construction, shortest-path
routing, cost metrics, reliability analysis, and comparison datasets."""

from .errors import (
    AddressOutOfRangeError,
    CountOutOfRangeError,
    FamilyMismatchError,
    IndexOutOfRangeError,
    NonPositiveDimensionError,
    NotPowerOfTwoError,
    ResourceLimitError,
    SpecError,
    TehnetError,
    TooManyFaultsError,
    UnsupportedFormatError,
)
from .metrics import (
    DiameterConvention,
    MetricsReport,
    diameter_bfs,
    diameter_closed,
    link_count_closed,
    link_count_simple,
    metrics_report,
    square_torus_diameter,
)
from .reliability import (
    monte_carlo_connectivity,
    reliability_percent,
    reliability_table,
    unreliability_percent,
)
from .routing import (
    Path,
    distance_closed,
    route,
)
from .selfcheck import CheckResult, self_check
from .tables import (
    ScalingMode,
    scaling_sequence,
    table1_cells,
    table2_cells,
)
from .topology import (
    DEFAULT_NODE_CAP,
    Family,
    NetworkSpec,
    NodeAddress,
    Topology,
    build_graph,
    decode_address,
    encode_address,
    export_topology,
    hypercube_spec,
    teh_spec,
    torus_spec,
    validate_spec,
)

__version__ = "0.9.0"

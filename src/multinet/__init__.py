"""Hashing-based multipartite quantum repeater schemes.

Adjacency-level graph-state algebra, Z-error statistics of Pauli noise,
finite-size entanglement-purification fidelity bounds, and comparisons of
multipartite / bipartite / hybrid repeater architectures under storage
constraints.
"""

from .graphstate import (
    ColoringError,
    Graph,
    GraphError,
    MultinetError,
    build_graph,
    color_graph,
    connect_project,
    local_complement,
    merge_vertices,
)
from .hashing import (
    HashingRun,
    InfeasibleTargetError,
    bipartite_bound,
    entropy,
    multipartite_bound,
)
from .noise import (
    BitMarginal,
    ChannelError,
    FlipSource,
    PauliChannel,
    bit_marginals,
    channel_to_flip_source,
    edge_channel_to_flip_source,
    output_noise_factor,
)
from .schemes import (
    Architecture,
    SchemeResult,
    StorageModel,
    cluster_architecture_run,
    from_bell_run,
    ghz_scheme_fidelity,
    storage_per_node,
    triangular_repeater,
    validate_cover,
)

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "BitMarginal",
    "ChannelError",
    "ColoringError",
    "FlipSource",
    "Graph",
    "GraphError",
    "HashingRun",
    "InfeasibleTargetError",
    "MultinetError",
    "PauliChannel",
    "SchemeResult",
    "StorageModel",
    "bipartite_bound",
    "bit_marginals",
    "build_graph",
    "channel_to_flip_source",
    "cluster_architecture_run",
    "color_graph",
    "connect_project",
    "edge_channel_to_flip_source",
    "entropy",
    "from_bell_run",
    "ghz_scheme_fidelity",
    "local_complement",
    "merge_vertices",
    "multipartite_bound",
    "output_noise_factor",
    "storage_per_node",
    "triangular_repeater",
    "validate_cover",
]

"""Repeater scenarios: GHZ schemes A/B/C, the triangular network, cluster
building-block architectures under local or global storage, and the
from-Bell-pairs variant.

Conventions shared by all scenarios:

- Input-side resource-state noise is folded into the channel
  (``q_eff = q * p``); output-side resource noise multiplies the bound by
  ``(1+3p)/4`` per output qubit, only where output qubits exist.
- Scheme B performs the merge in a separate noisy step, which costs one
  extra output-noise layer on the two merge-touched qubits; with perfect
  resource states (p = 1) schemes B and C coincide.
- Infeasible sweep points are reported as results with fidelity 0 and the
  ``infeasible`` flag set, never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from . import blocks
from .graphstate import Graph, MultinetError, build_graph, color_graph
from .hashing import (
    InfeasibleTargetError,
    MarginalClass,
    bipartite_bound,
    largest_m,
    multipartite_bound_classes,
    optimize_delta_split_classes,
    vertex_classes,
)
from .noise import (
    PauliChannel,
    bit_marginals,
    channel_to_flip_source,
    output_noise_factor,
    pair_pattern_distribution,
    uniform_depolarizing_marginal,
    uniform_edge_channel_marginal,
)

GHZ_SCHEMES = ("A", "B", "C")

# Qubits a station must hold per copy in the 3-GHZ scenario: the multipartite
# scheme stores one qubit everywhere, the pair-based schemes store two at the
# middle station that holds one half of each Bell ensemble.
GHZ_PER_COPY = {"A": 1, "B": 2, "C": 2}

# Defaults for the triangular network, where several elementary states meet
# at each station.  Not pinned by the storage analysis, hence configurable.
TRIANGULAR_PER_COPY = {"A": 3, "B": 4, "C": 4}


class SchemeError(MultinetError):
    """Unknown scheme / family or inconsistent scenario parameters."""


@dataclass(frozen=True)
class StorageModel:
    """Memory constraint: per-node capacity, or a global freely assignable pool."""

    mode: str
    capacity: int

    def __post_init__(self):
        if self.mode not in ("per-node", "global"):
            raise SchemeError(f"storage mode must be 'per-node' or 'global', got {self.mode!r}")
        if self.capacity < 1:
            raise SchemeError(f"storage capacity must be >= 1, got {self.capacity}")


@dataclass(frozen=True)
class Architecture:
    """A cluster-state construction from one block family."""

    family: str
    dims: tuple[int, ...] = ()
    block_size: int = 1

    def __post_init__(self):
        if self.family not in blocks.FAMILIES:
            raise SchemeError(f"unknown architecture family {self.family!r}")
        if self.dims and len(self.dims) not in (2, 3):
            raise SchemeError(f"architecture dims must be 2D or 3D, got {self.dims}")
        if self.block_size < 1:
            raise SchemeError(f"block size must be >= 1, got {self.block_size}")

    @property
    def dimensionality(self) -> int:
        return len(self.dims) if self.dims else 2


@dataclass
class SchemeResult:
    """Outcome of one scenario evaluation."""

    scheme: str
    fidelity: float
    m: int
    n_used: int
    storage: dict = field(default_factory=dict)
    infeasible: bool = False

    @classmethod
    def infeasible_point(cls, scheme: str, n_used: int = 0, storage: dict | None = None) -> "SchemeResult":
        return cls(scheme=scheme, fidelity=0.0, m=0, n_used=n_used, storage=storage or {}, infeasible=True)


def _evaluate(
    label: str,
    n: int,
    storage: dict,
    bound: Callable[[int], float],
    m: int | None = None,
    threshold: float | None = None,
    search: Callable[[int], float] | None = None,
) -> SchemeResult:
    """One scenario point from ``n`` input copies.

    With ``m`` given, the bound ``bound(m)``; otherwise the largest m whose
    bound clears ``threshold`` (see :func:`largest_m`), searched over
    ``search`` when given (the multipartite scenarios optimize the slack
    split there) and over ``bound`` otherwise.  No room for ``max(1, m)``
    copies, or a fixed target the entropies cannot meet, is an infeasible
    result.
    """
    if n < 1 or (m is not None and n < m):
        return SchemeResult.infeasible_point(label, n_used=n, storage=storage)
    if m is None:
        best, fid = largest_m(search or bound, n, threshold)
        return SchemeResult(label, fid, best, n, storage)
    try:
        return SchemeResult(label, bound(m), m, n, storage)
    except InfeasibleTargetError:
        return SchemeResult.infeasible_point(label, n_used=n, storage=storage)


# -- storage accounting --------------------------------------------------------


def storage_per_node(arch: Architecture) -> tuple[dict, int]:
    """Per-node-class qubits per copy and the bottleneck (maximum) cost."""
    costs = blocks.site_costs(arch.family, arch.dimensionality, arch.block_size)
    return ({f"{cost}-qubit sites": cost for cost, _ in costs}, costs[-1][0])


def allocate_global_storage(arch: Architecture, total_capacity: int) -> tuple[dict, int]:
    """Best common copy count when storage may be distributed freely.

    Every node gets exactly what its class needs per copy, so the copy count
    is total capacity divided by the summed per-copy cost of the lattice.
    """
    per_copy = blocks.per_copy_total(arch.family, arch.dims, arch.block_size)
    if total_capacity < per_copy:
        raise SchemeError(
            f"total capacity {total_capacity} is below the {per_copy} qubits one copy needs"
        )
    n = total_capacity // per_copy
    costs = blocks.site_costs(arch.family, arch.dimensionality, arch.block_size)
    return {f"{cost}-qubit sites": cost * n for cost, _ in costs}, n


# -- GHZ schemes ----------------------------------------------------------------


def _ghz_channels(channel: str, q: float, p: float, q_params: dict | None):
    """Per-qubit channel lists for the star (index 0 = center) and for one
    Bell pair (index 0 = kept half, 1 = traveling half)."""
    params = q_params or {}
    resource = [] if p >= 1.0 else [PauliChannel.depolarizing(p)]
    if channel == "ldn":
        star = {v: [PauliChannel.depolarizing(q)] + resource for v in range(3)}
        pair = (
            [PauliChannel.depolarizing(q)] + resource,
            [PauliChannel.depolarizing(q)] + resource,
        )
    elif channel == "z":
        ch = PauliChannel.phase_flip(1.0 - q)
        star = {0: list(resource), 1: [ch] + resource, 2: [ch] + resource}
        pair = (list(resource), [ch] + resource)
    elif channel == "biased":
        ch = PauliChannel.biased(p_x=params.get("px", 1e-5), p_z=params.get("pz", 0.02))
        star = {0: list(resource), 1: [ch] + resource, 2: [ch] + resource}
        pair = (list(resource), [ch] + resource)
    else:
        raise SchemeError(f"unsupported channel {channel!r} for the GHZ scenario")
    return star, pair


def _star_classes(g: Graph, star_channels: dict[int, list[PauliChannel]]) -> list[MarginalClass]:
    """Flip marginals of the 3-star ``g`` under independent per-qubit channels."""
    sources = [
        channel_to_flip_source(g, v, ch)
        for v, chans in star_channels.items()
        for ch in chans
    ]
    return vertex_classes(g, color_graph(g), bit_marginals(g, sources))[0]


def _ghz_bound(scheme: str, n: int, m: int, star, pair, p: float, optimize_split: bool) -> float:
    """3-GHZ bound of one scheme at (n, m), output noise included.

    Scheme A hashes the star states directly; B and C hash two Bell
    ensembles and merge them, B with one more noise layer on the two
    merge-touched qubits.
    """
    g = build_graph("ghz-star", s=3)
    if scheme == "A":
        classes = _star_classes(g, star)
        if optimize_split:
            _, fid = optimize_delta_split_classes(classes, n, m)
        else:
            fid, _ = multipartite_bound_classes(classes, n, m)
        return fid * output_noise_factor(g, [0, 1, 2], p)
    dist = pair_pattern_distribution(list(pair[0]), list(pair[1]))
    fid = bipartite_bound(dist, n, m).fidelity ** 2 * output_noise_factor(g, [0, 1, 2], p)
    if scheme == "B":
        fid *= output_noise_factor(g, [1, 2], p)
    return fid


def ghz_scheme_fidelity(
    scheme: str,
    capacity: int,
    q: float,
    p: float = 1.0,
    m: int = 1,
    channel: str = "ldn",
    channel_params: dict | None = None,
    optimize_split: bool = False,
) -> SchemeResult:
    """Reachable-fidelity bound for distributing a 3-qubit GHZ state.

    Scheme A purifies the 3-party states directly with the multipartite
    protocol (one stored qubit per station per copy).  Schemes B and C
    purify two Bell ensembles (two stored qubits at the middle station) and
    merge; C does hashing plus merge in a single measurement-based step,
    B pays an extra noise layer on the two merge-touched qubits.
    """
    if scheme not in GHZ_SCHEMES:
        raise SchemeError(f"scheme must be one of {GHZ_SCHEMES}, got {scheme!r}")
    per_copy = GHZ_PER_COPY[scheme]
    n = capacity // per_copy

    def bound(m: int) -> float:
        return _ghz_bound(scheme, n, m, *_ghz_channels(channel, q, p, channel_params), p, optimize_split)

    return _evaluate(scheme, n, {"bottleneck": per_copy}, bound, m=m)


def triangular_repeater(
    levels: int,
    capacity: int,
    q: float,
    p: float = 1.0,
    scheme: str = "A",
    per_copy: int | None = None,
) -> SchemeResult:
    """Long-distance GHZ bound on the triangular network.

    The per-copy elementary fidelity is evaluated exactly as in the 3-GHZ
    scenario (with the triangular per-station storage defaults) and raised
    to the number of elementary states consumed after ``levels`` doublings
    of the distance: 3^k for the multipartite scheme, 2^(k+1) for the
    pair-based ones.
    """
    if levels < 0:
        raise SchemeError(f"levels must be >= 0, got {levels}")
    if scheme not in GHZ_SCHEMES:
        raise SchemeError(f"scheme must be one of {GHZ_SCHEMES}, got {scheme!r}")
    cost = per_copy if per_copy is not None else TRIANGULAR_PER_COPY[scheme]
    if cost < 1:
        raise SchemeError(f"per_copy must be >= 1, got {cost}")
    n = capacity // cost
    exponent = 3**levels if scheme == "A" else 2 ** (levels + 1)

    def bound(m: int) -> float:
        return _ghz_bound(scheme, n, m, *_ghz_channels("ldn", q, p, None), p, False) ** exponent

    return _evaluate(scheme, n, {"bottleneck": cost}, bound, m=1)


# -- cluster architectures -------------------------------------------------------


def _cluster_classes(family: str, dim: int, b: int, q: float, count_blocks: int) -> list[MarginalClass]:
    classes = []
    for degree, color, per_block in blocks.degree_color_classes(family, dim, b):
        _, lam1 = uniform_depolarizing_marginal(q, degree)
        classes.append(MarginalClass(lambda1=lam1, color=color, count=per_block * count_blocks))
    return classes


def _bipartite_lattice_fidelity(q_pair_dist, n: int, m: int, edge_count: int) -> float:
    loss = 1.0 - bipartite_bound(q_pair_dist, n, m).fidelity
    if loss >= 1.0:
        return 0.0
    return math.exp(edge_count * math.log1p(-loss))


def cluster_architecture_run(
    arch: Architecture,
    storage: StorageModel,
    q: float,
    m: int | None = None,
    threshold: float | None = None,
) -> SchemeResult:
    """Bound for building a periodic cluster state from one block family.

    Every block ensemble is purified with the multipartite protocol (the
    bipartite family with the pairwise protocol); the global bound is the
    product over all blocks of the lattice.  Marginals follow in closed form
    from block-graph degrees under uniform depolarizing noise q, so nothing
    lattice-sized is ever materialized.

    Exactly one of ``m`` (fixed output count) or ``threshold`` (return the
    largest m keeping the bound above it) must be given.
    """
    if (m is None) == (threshold is None):
        raise SchemeError("give exactly one of m= or threshold=")
    if not arch.dims:
        raise SchemeError("cluster architectures need lattice dims")
    b = arch.block_size
    family = arch.family
    label = family if family == "bipartite" else f"{family}-b{b}"
    count = blocks.blocks_count(family, arch.dims, b)

    if storage.mode == "per-node":
        _, bottleneck = storage_per_node(arch)
        n = storage.capacity // bottleneck
        storage_info = {"mode": "per-node", "bottleneck": bottleneck}
    else:
        try:
            _, n = allocate_global_storage(arch, storage.capacity)
        except SchemeError:
            return SchemeResult.infeasible_point(label)
        storage_info = {
            "mode": "global",
            "per_copy_total": blocks.per_copy_total(family, arch.dims, b),
        }

    if family == "bipartite":
        dist = pair_pattern_distribution([PauliChannel.depolarizing(q)], [PauliChannel.depolarizing(q)])
        return _evaluate(
            label, n, storage_info, lambda m: _bipartite_lattice_fidelity(dist, n, m, count), m, threshold
        )
    classes = _cluster_classes(family, arch.dimensionality, b, q, count)
    return _evaluate(
        label, n, storage_info, lambda m: multipartite_bound_classes(classes, n, m)[0], m, threshold,
        search=lambda m: optimize_delta_split_classes(classes, n, m)[1],
    )


def from_bell_run(
    dims: tuple[int, ...],
    q: float,
    capacity: int,
    m: int | None = None,
    threshold: float | None = None,
) -> tuple[SchemeResult, SchemeResult]:
    """Compare connecting-then-purifying against purifying-then-connecting.

    Bell pairs are distributed with one half through a depolarizing channel
    of strength q.  The multipartite branch connects them into the cluster
    immediately (one stored qubit per site per copy) and inherits the
    correlated two-site Z channel on every lattice edge; the bipartite branch
    purifies each pair ensemble first (2*dim stored qubits per site) and
    connects noiselessly at the end.
    """
    if (m is None) == (threshold is None):
        raise SchemeError("give exactly one of m= or threshold=")
    dim = len(dims)
    edge_count = blocks.blocks_count("bipartite", dims)
    sites = edge_count // dim

    _, lam1 = uniform_edge_channel_marginal(q, 2 * dim)
    half = sites // 2
    classes = [
        MarginalClass(lambda1=lam1, color=0, count=half),
        MarginalClass(lambda1=lam1, color=1, count=sites - half),
    ]
    multi = _evaluate(
        "multipartite", capacity, {"bottleneck": 1},
        lambda m: multipartite_bound_classes(classes, capacity, m)[0], m, threshold,
        search=lambda m: optimize_delta_split_classes(classes, capacity, m)[1],
    )

    n_bip = capacity // (2 * dim)
    dist = pair_pattern_distribution([], [PauliChannel.depolarizing(q)])
    bip = _evaluate(
        "bipartite", n_bip, {"bottleneck": 2 * dim},
        lambda m: _bipartite_lattice_fidelity(dist, n_bip, m, edge_count), m, threshold,
    )
    return multi, bip


# -- cover validation -------------------------------------------------------------


def validate_cover(
    cover: list[tuple[Graph, dict[int, tuple]]],
    target: Graph,
) -> tuple[bool, list[tuple]]:
    """Merge placed blocks and check the result against the target lattice.

    ``cover`` holds (block graph, placement) pairs, the placement mapping
    block vertex ids to target coordinates (as found in ``target.coords``).
    Wherever two or more placed qubits coincide they are merged pairwise in
    ascending block order; the trace of performed merges is returned together
    with the verdict.

    A merge adds one vertex's adjacency row to the survivor's over GF(2)
    (:func:`~multinet.graphstate.merge_vertices`), so merging every site
    leaves an edge between two sites exactly when an odd number of placed
    edges join them, and none inside a site.  The verdict therefore needs
    only the parity of each site pair, not a replay of the merges.
    """
    if target.coords is None:
        raise SchemeError("target graph carries no coordinates")
    ids: dict[tuple, list[int]] = {}
    odd: set[tuple] = set()
    next_id = 0
    for block_idx, (block, placement) in enumerate(cover):
        for v in block.vertices():
            if v not in placement:
                raise SchemeError(f"block {block_idx} vertex {v} has no placement")
            ids.setdefault(placement[v], []).append(next_id)
            next_id += 1
        for a, b in block.edges():
            pair = tuple(sorted((placement[a], placement[b])))
            if pair[0] != pair[1]:
                odd ^= {pair}
    wanted = {
        tuple(sorted((target.coords[a], target.coords[b]))) for a, b in target.edges()
    }
    ok = odd == wanted and ids.keys() == {target.coords[v] for v in target.vertices()}
    trace = [(coord, ids[coord][0], other) for coord in sorted(ids) for other in ids[coord][1:]]
    return ok, trace


def family_cover(family: str, dims: tuple[int, ...], b: int = 1) -> list[tuple[Graph, dict[int, tuple]]]:
    """Materialize a family's cover as (graph, placement) pairs for validation."""
    return [(g, g.coords) for g in map(blocks.edge_graph, blocks.cover_blocks(family, dims, b))]

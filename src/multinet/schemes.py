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
- Every scenario point checks its own inputs and noise parameters, builds
  its ensemble and reads the copy count n that storage allows before
  :func:`_point`, which checks the target before it reads n.  So no storage
  outcome, room or none, hides a bad input.
- What a sweep does not vary is computed once per process, in two caches of
  at most 64 entries keyed by checked values only (``typed=True``, so 1.0
  and True never share an entry): a GHZ scheme kind's ensemble per (kind,
  channel, q, p, px, pz) (:func:`_ghz_ensemble`), and the block and copy
  counts per (architecture, storage) (:func:`_copies`).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import Callable, NamedTuple

from . import blocks
from .graphstate import (Graph, MultinetError, build_graph, check_dims, check_instance, check_integer, check_real,
                         color_graph)
from .hashing import (
    InfeasibleTargetError,
    MarginalClass,
    bipartite_bound,
    largest_m,
    max_output_copies_classes,
    multipartite_bound_classes,
    optimize_delta_split_classes,
    vertex_classes,
)
from .noise import (
    ChannelError,
    PauliChannel,
    bit_marginals,
    channel_to_flip_source,
    output_noise_factor,
    pair_pattern_distribution,
    uniform_depolarizing_marginal,
    uniform_edge_channel_marginal,
)

# Qubits a station must hold per copy in the 3-GHZ scenario, keyed by scheme
# id: the multipartite schemes store one qubit everywhere (A with the equal
# slack split, A-opt with the optimized one), the pair-based schemes store two
# at the middle station that holds one half of each Bell ensemble.
GHZ_PER_COPY = {"A": 1, "A-opt": 1, "B": 2, "C": 2}

# Qubits a station must hold per copy on the triangular network, where several
# elementary states meet at each station.
TRIANGULAR_PER_COPY = {"A": 3, "B": 4, "C": 4}

# The most distance doublings whose 3^levels elementary states is a finite float.
MAX_LEVELS = 646

STORAGE_MODES = ("per-node", "global")


class SchemeError(MultinetError):
    """Unknown scheme / family or inconsistent scenario parameters."""


class StorageModel(NamedTuple("StorageModel", [("mode", str), ("capacity", int)])):
    """Memory constraint: per-node capacity, or a global freely assignable pool."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks its fields too: they key a cache

    def __new__(cls, mode: str, capacity: int):
        if mode not in STORAGE_MODES:
            raise SchemeError(f"storage mode must be one of {STORAGE_MODES}, got {mode!r}")
        return super().__new__(cls, mode, check_integer(capacity, "storage capacity", SchemeError, 1))


class Architecture(NamedTuple("Architecture", [("family", str), ("dims", tuple[int, ...]), ("block_size", int)])):
    """A cluster-state construction from one block family."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks its fields too: they key a cache

    def __new__(cls, family: str, dims: tuple[int, ...], block_size: int = 1):
        if family not in blocks.FAMILIES:
            raise SchemeError(f"unknown architecture family {family!r}")
        dims = check_dims(dims, "architecture", SchemeError)
        return super().__new__(cls, family, dims, check_integer(block_size, "block size", SchemeError, 1))

    @property
    def dimensionality(self) -> int:
        return len(self.dims)


class SchemeResult(NamedTuple):
    """Outcome of one scenario evaluation."""

    scheme: str
    fidelity: float
    m: int
    n_used: int
    infeasible: bool = False

    @classmethod
    def infeasible_point(cls, scheme: str, n_used: int = 0) -> "SchemeResult":
        return cls(scheme=scheme, fidelity=0.0, m=0, n_used=n_used, infeasible=True)


def _point(
    label: str,
    n: int,
    bound: Callable[[int], float] | list[MarginalClass],
    m: int | None = None,
    threshold: float | None = None,
) -> SchemeResult:
    """The point from ``n`` input copies: the bound at ``m``, or the largest m
    whose bound clears ``threshold`` and the bound there (give exactly one).

    ``bound`` is a function of m that does not increase with it, or classes
    standing for their class bound: at the equal slack split for a fixed m, at
    the optimized split in the search (:func:`max_output_copies_classes`).
    The target is checked before ``n`` is read.  No room for m copies (for one,
    in the search) or a target the entropies cannot meet is an infeasible result.
    """
    if (m is None) == (threshold is None):
        raise SchemeError("give exactly one of m= or threshold=")
    if threshold is not None:  # the search checks it before it reads n
        if isinstance(bound, list):
            best, fid = max_output_copies_classes(bound, n, threshold)
        else:
            best, fid = largest_m(bound, n, threshold)
        return SchemeResult(label, fid, best, n) if n >= 1 else SchemeResult.infeasible_point(label, n_used=n)
    if n < (m := check_integer(m, "m", SchemeError, 1)):
        return SchemeResult.infeasible_point(label, n_used=n)
    try:
        fid = multipartite_bound_classes(bound, n, m)[0] if isinstance(bound, list) else bound(m)
    except InfeasibleTargetError:
        return SchemeResult.infeasible_point(label, n_used=n)
    return SchemeResult(label, fid, m, n)


# -- storage accounting --------------------------------------------------------


def storage_per_node(arch: Architecture) -> int:
    """The bottleneck: the most qubits any site must hold per copy."""
    family, dims, b = check_instance(arch, Architecture, "architecture", SchemeError)
    return blocks.site_costs(family, len(dims), b)[-1][0]


def allocate_global_storage(arch: Architecture, total_capacity: int) -> int:
    """Best common copy count when storage may be distributed freely, read off :func:`_copies`.

    Every node gets exactly what its class needs per copy, so the copy count
    is total capacity divided by the summed per-copy cost of the lattice.
    """
    arch = check_instance(arch, Architecture, "architecture", SchemeError)
    capacity = check_integer(total_capacity, "total capacity", SchemeError)
    if capacity < 1 or not (n := _copies(arch, StorageModel("global", capacity))[1]):
        per_copy = blocks.per_copy_total(*arch)
        raise SchemeError(f"total capacity {capacity} is below the {per_copy} qubits one copy needs")
    return n


@functools.lru_cache(maxsize=64, typed=True)
def _copies(arch: Architecture, storage: StorageModel) -> tuple[int, int]:
    """The blocks of ``arch``'s lattice and the copy count n that ``storage`` allows it, 0 without room for one."""
    per_copy = storage_per_node(arch) if storage.mode == "per-node" else blocks.per_copy_total(*arch)
    return blocks.blocks_count(*arch), storage.capacity // per_copy


# -- GHZ schemes ----------------------------------------------------------------


def _ghz_noise(channel: str, q, p, params: dict | None) -> tuple[str, float, float, float, float]:
    """(channel, q, p, px, pz) checked, as :func:`_ghz_ensemble` reads them; px and pz only for ``biased``."""
    q, p = check_real(q, "channel parameter q", ChannelError), check_real(p, "resource parameter p", ChannelError)
    if channel in ("ldn", "z"):
        return channel, q, p, 0.0, 0.0
    if channel != "biased" or not isinstance(params, dict) or not params.keys() >= {"px", "pz"}:
        raise SchemeError(f"unsupported channel {channel!r} for the GHZ scenario (biased needs px and pz)")
    px, pz = check_real(params["px"], "X weight", ChannelError), check_real(params["pz"], "Z weight", ChannelError)
    return channel, q, p, px, pz


@functools.lru_cache(maxsize=64, typed=True)
def _ghz_ensemble(pairs: bool, channel: str, q: float, p: float, px: float, pz: float) -> tuple:
    """A GHZ scheme kind's ensemble and output-noise factors: the star's classes and the factor on its 3 qubits
    (A, A-opt), or with ``pairs`` a Bell pair's pattern distribution, that factor and the merge layer's (B, C)."""
    resource = [] if p >= 1.0 else [PauliChannel.depolarizing(p)]  # p = 1 adds no channel
    if channel == "ldn":
        noisy = [PauliChannel.depolarizing(q)] + resource
    else:
        noisy = [PauliChannel.phase_flip(1.0 - q) if channel == "z" else PauliChannel.biased(px, pz)] + resource
    kept = noisy if channel == "ldn" else resource  # at the star's center and the Bell pair's kept half
    g = build_graph("ghz-star", s=3)
    factor = output_noise_factor(g, [0, 1, 2], p)
    if pairs:
        return pair_pattern_distribution(kept, noisy), factor, output_noise_factor(g, [1, 2], p)
    sources = [channel_to_flip_source(g, v, ch) for v, chans in enumerate((kept, noisy, noisy)) for ch in chans]
    return tuple(vertex_classes(g, color_graph(g), bit_marginals(g, sources))[0]), factor


def _ghz_bound(scheme: str, ensemble: tuple, n: int, m: int) -> float:
    """3-GHZ bound of one scheme at (n, m) on its :func:`_ghz_ensemble`, output noise included.

    Schemes A and A-opt hash the star states directly, A-opt at the
    optimized slack split; B and C hash two Bell ensembles and merge them,
    B with one more noise layer on the two merge-touched qubits.
    """
    if scheme.startswith("A"):
        classes, noise = ensemble
        if scheme == "A-opt":
            _, fid = optimize_delta_split_classes(classes, n, m)
        else:
            fid, _ = multipartite_bound_classes(classes, n, m)
        return fid * noise
    dist, noise, merge_noise = ensemble
    fid = bipartite_bound(dist, n, m).fidelity ** 2 * noise
    if scheme == "B":
        fid *= merge_noise
    return fid


def ghz_scheme_fidelity(
    scheme: str,
    capacity: int,
    q: float,
    p: float = 1.0,
    m: int = 1,
    *,
    channel: str,
    channel_params: dict | None = None,
) -> SchemeResult:
    """Reachable-fidelity bound for distributing a 3-qubit GHZ state.

    Scheme A purifies the 3-party states directly with the multipartite
    protocol (one stored qubit per station per copy), A-opt likewise at the
    optimized slack split.  Schemes B and C purify two Bell ensembles (two
    stored qubits at the middle station) and merge; C does hashing plus
    merge in a single measurement-based step, B pays an extra noise layer
    on the two merge-touched qubits.  ``channel`` is ``ldn``, ``z`` or
    ``biased``, whose weights are ``channel_params["px"]`` and ``["pz"]``.
    """
    if scheme not in GHZ_PER_COPY:
        raise SchemeError(f"scheme must be one of {tuple(GHZ_PER_COPY)}, got {scheme!r}")
    capacity = check_integer(capacity, "storage capacity", SchemeError, 1)
    ensemble = _ghz_ensemble(not scheme.startswith("A"), *_ghz_noise(channel, q, p, channel_params))
    n = capacity // GHZ_PER_COPY[scheme]
    return _point(scheme, n, lambda m: _ghz_bound(scheme, ensemble, n, m), m=m)


def triangular_repeater(
    levels: int,
    capacity: int,
    q: float,
    p: float = 1.0,
    scheme: str = "A",
) -> SchemeResult:
    """Long-distance GHZ bound on the triangular network.

    The per-copy elementary fidelity is evaluated exactly as in the 3-GHZ
    scenario (with the triangular per-station storage costs) and raised
    to the number of elementary states consumed after ``levels`` doublings
    of the distance: 3^k for the multipartite scheme, 2^(k+1) for the
    pair-based ones.
    """
    if check_integer(levels, "levels", SchemeError, 0) > MAX_LEVELS:
        raise SchemeError(f"levels must be in [0, {MAX_LEVELS}], got {levels}")
    if scheme not in TRIANGULAR_PER_COPY:
        raise SchemeError(f"scheme must be one of {tuple(TRIANGULAR_PER_COPY)}, got {scheme!r}")
    capacity = check_integer(capacity, "storage capacity", SchemeError, 1)
    ensemble = _ghz_ensemble(scheme != "A", *_ghz_noise("ldn", q, p, None))
    n = capacity // TRIANGULAR_PER_COPY[scheme]
    exponent = 3**levels if scheme == "A" else 2 ** (levels + 1)
    return _point(scheme, n, lambda m: _ghz_bound(scheme, ensemble, n, m) ** exponent, m=1)


# -- cluster architectures -------------------------------------------------------


def _cluster_classes(family: str, dim: int, b: int, q: float, count_blocks: int) -> list[MarginalClass]:
    classes = []
    for degree, color, per_block in blocks.degree_color_classes(family, dim, b):
        _, lam1 = uniform_depolarizing_marginal(q, degree)
        classes.append(MarginalClass(lambda1=lam1, color=color, count=per_block * count_blocks))
    return classes


def _edge_product(dist: tuple[float, ...], edges: int, n: int) -> Callable[[int], float]:
    """The pair bound of ``dist`` at (n, m) over ``edges`` edges, as a function of m."""

    def bound(m: int) -> float:
        loss = 1.0 - bipartite_bound(dist, n, m).fidelity
        return 0.0 if loss >= 1.0 else math.exp(edges * math.log1p(-loss))

    return bound


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
    family, _, b = check_instance(arch, Architecture, "architecture", SchemeError)
    label = family if family == "bipartite" else f"{family}-b{b}"
    count, n = _copies(arch, check_instance(storage, StorageModel, "storage", SchemeError))
    if family == "bipartite":
        ldn = [PauliChannel.depolarizing(q)]
        bound = _edge_product(pair_pattern_distribution(ldn, ldn), count, n)
    else:
        bound = _cluster_classes(family, arch.dimensionality, b, q, count)
    return _point(label, n, bound, m, threshold)


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
    purifies each pair ensemble first (the bipartite architecture's
    :func:`storage_per_node`, 2*dim stored qubits per site) and connects
    noiselessly at the end.  Exactly one of ``m`` or ``threshold`` must be
    given, as in :func:`cluster_architecture_run`.
    """
    storage = StorageModel("per-node", capacity)  # checks the capacity before the lattice
    edge_count, n_bip = _copies(Architecture("bipartite", check_dims(dims, "lattice", blocks.BlockError)), storage)
    dim = len(dims)
    sites = edge_count // dim

    _, lam1 = uniform_edge_channel_marginal(q, 2 * dim)
    half = sites // 2
    classes = [
        MarginalClass(lambda1=lam1, color=0, count=half),
        MarginalClass(lambda1=lam1, color=1, count=sites - half),
    ]
    dist = pair_pattern_distribution([], [PauliChannel.depolarizing(q)])
    return (
        _point("multipartite", storage.capacity, classes, m, threshold),
        _point("bipartite", n_bip, _edge_product(dist, edge_count, n_bip), m, threshold),
    )


# -- cover validation -------------------------------------------------------------


def validate_cover(cover: list[tuple[blocks.Shape, list[tuple]]], target: Graph) -> tuple[bool, list[tuple]]:
    """Merge placed blocks and check the result against the target lattice.

    ``cover`` holds (shape, sites) pairs as :func:`family_cover` gives them: a :class:`blocks.Shape`, its
    edges distinct index pairs into its sites, and the target coordinates (as in ``target.coords``) of those
    sites in the shape's order.  Returned with the verdict is the trace of merges: qubits numbered block by
    block in each shape's site order (a cell shape's own, as :func:`blocks.lift` keeps it), each merged into
    the first one placed on its site, sorted by site coordinate, then qubit.

    A merge adds one vertex's adjacency row to the survivor's over GF(2) (:func:`~multinet.graphstate.merge_vertices`),
    so merging every site leaves an edge between two sites exactly when an odd number of placed edges join them,
    and none inside a site.  So the verdict needs only each site pair's parity, kept on codes (p << shift) + q of
    site numbers p < q, counted only if one repeats.  A target site's number is its vertex id, so the wanted codes
    are the target's edges; an off-target site's lies above every id.  Target ids span under 2**shift, so codes are
    one-to-one on target pairs, and small ints; one with an off-target end may equal another, but that site fails
    the verdict anyway, and the trace reads no code.  No graph is built for the blocks; each distinct shape is
    checked once, unless :func:`blocks.unit_cell` certified it (found by identity in ``blocks.CERTIFIED``).
    Raises :class:`SchemeError` unless the target is a :class:`Graph` with distinct coordinates on every vertex,
    and each block a (shape, sites) pair of a :class:`blocks.Shape`, its pairs a simple graph on its sites, and
    as many sites.
    """
    if not isinstance(target, Graph) or target.coords is None:
        raise SchemeError(f"target {target!r} is not a Graph or carries no coordinates")
    coords, vertices = target.coords, target.vertices()
    number = dict(zip(map(coords.get, vertices), vertices))
    if None in number:
        raise SchemeError(f"target vertex {number[None]} has no coordinates")
    if len(number) < len(vertices):
        v = next(v for v in vertices if number[coords[v]] != v)
        raise SchemeError(f"target vertices {v} and {number[coords[v]]} share the coordinate {coords[v]}")
    top = vertices[-1] if vertices else -1
    shift = max(1, (top - vertices[0]).bit_length()) if vertices else 1
    placed: list[int] = []  # the site of each qubit id
    codes: list[int] = []  # one per placed edge between two sites
    append = codes.append
    checked: set[int] = set()  # ids of the shapes checked; the cover holds them, so no id is reused
    block_idx = 0
    try:
        for block_idx, (shape, sites) in enumerate(cover):
            if id(shape) not in checked and id(shape) not in blocks.CERTIFIED:
                _check_shape(shape, block_idx)
                checked.add(id(shape))
            if len(sites) != len(shape.sites):
                raise SchemeError(f"block {block_idx} places {len(sites)} sites, its shape has {len(shape.sites)}")
            at = list(map(number.get, sites))
            if None in at:  # a site off the target
                at = [number.setdefault(site, top + 1 + len(number) - len(vertices)) for site in sites]
            placed += at
            for i, j in shape.pairs:  # a plain loop: under 3.11 it beats a comprehension per block
                p, q = at[i], at[j]
                if p != q:
                    append((p << shift) + q if p < q else (q << shift) + p)
    except SchemeError:
        raise
    except (TypeError, ValueError) as exc:  # no sequence of blocks, a block no pair, sites no sequence of sites
        raise SchemeError(f"cover block {block_idx} is not a (shape, sites) pair of a Shape and its sites: {exc}"
                          ) from None
    odd = set(codes)
    if len(odd) < len(codes):  # some pair placed twice: keep those placed an odd number of times
        odd = {code for code, count in Counter(codes).items() if count % 2}
    first: dict[int, int] = {}  # the first qubit placed on each site
    firsts = list(map(first.setdefault, placed, range(len(placed))))
    where = coords if len(number) == len(vertices) else dict(zip(number.values(), number))  # number -> site
    trace = [(where[placed[f]], f, q) for q, f in enumerate(firsts) if f != q]
    trace.sort(key=itemgetter(0))  # stable, so each site's qubits stay ascending
    return odd == target.edge_codes(shift) and len(first) == len(number) == len(vertices), trace


def _check_shape(shape: blocks.Shape, block_idx: int) -> None:
    """Raise :class:`SchemeError` unless ``shape`` is a :class:`blocks.Shape` whose pairs are a simple graph on
    its sites: each a tuple of two int indices into them, never one site twice, no two pairs on the same two
    sites.  Checked by passes over the whole tuple, as one shape may hold thousands of pairs."""
    n = len(check_instance(shape, blocks.Shape, f"block {block_idx} shape", SchemeError).sites)
    pairs = shape.pairs
    try:  # a pair and its reverse are two tuples unless it joins a site to itself, and a pair given
        # twice, either way round, adds none, so a simple graph gives twice as many tuples as pairs
        ends = list(chain.from_iterable(pairs))
        simple = (set(map(len, pairs)) <= {2} and set(map(type, ends)) <= {int}
                  and (not ends or 0 <= min(ends) and max(ends) < n)
                  and len(set(pairs).union(map(itemgetter(1, 0), pairs))) == 2 * len(pairs))
    except TypeError:  # pairs or a pair not a sequence, or a pair not hashable
        simple = False
    if not simple:
        raise SchemeError(f"block {block_idx} pairs are not a simple graph on its {n} sites")


def family_cover(family: str, dims: tuple[int, ...], b: int = 1) -> list[tuple[blocks.Shape, list[tuple]]]:
    """A family's cover as :func:`validate_cover` reads it: each block of :func:`blocks.lift` as (shape, sites),
    the blocks of one cell shape sharing the cell's own :class:`blocks.Shape` (or its fold), each with its sites."""
    shapes, placed = blocks.lift(family, dims, b)
    return [(shapes[k], sites) for k, sites in placed]

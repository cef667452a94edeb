"""Pauli noise channels and their graph-state-basis Z-error statistics.

A Pauli channel acting on one qubit of a graph state only shuffles the
graph-basis labels: Z flips the qubit's own bit, X flips the bits of all its
neighbors, Y flips both.  Each physical noise source therefore becomes a
``FlipSource``, a set of per-vertex flip probabilities, and the per-vertex
marginals that the hashing bounds consume follow from XOR-combining
independent sources.

Representation note: states are described only by their independent flip
sources, never by the full 2^N diagonal distribution, and the two-qubit edge
channel is likewise reduced to its per-vertex marginals.  This drops
cross-bit correlations on purpose; no quantity computed downstream depends
on them (the hashing bounds consume per-bit marginals only).  The tests'
oracle keeps the full joint distribution for small instances.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphstate import Graph, MultinetError, check_instance, check_integer, check_real

_PROB_SUM_TOL = 1e-12
_DRIFT_TOL = 1e-9


class ChannelError(MultinetError):
    """Raised for malformed channel parameters."""


class PauliChannel(NamedTuple("PauliChannel", [("p_i", float), ("p_x", float), ("p_y", float), ("p_z", float)])):
    """Single-qubit Pauli channel with outcome probabilities (I, X, Y, Z)."""

    __slots__ = ()

    def __new__(cls, p_i: float, p_x: float, p_y: float, p_z: float):
        probs = [check_real(p, "channel probability", ChannelError, -_PROB_SUM_TOL, 1 + _PROB_SUM_TOL)
                 for p in (p_i, p_x, p_y, p_z)]
        if abs(sum(probs) - 1.0) > _PROB_SUM_TOL:
            raise ChannelError(f"channel probabilities sum to {sum(probs)}, not 1")
        return super().__new__(cls, *probs)

    @classmethod
    def depolarizing(cls, q: float) -> "PauliChannel":
        """Local depolarizing noise with strength parameter q (q=1 noiseless)."""
        q = check_real(q, "depolarizing parameter", ChannelError)
        e = (1.0 - q) / 4.0
        return cls(q + e, e, e, e)

    @classmethod
    def phase_flip(cls, p_z: float) -> "PauliChannel":
        """Pure Z noise applying a phase flip with probability p_z."""
        p_z = check_real(p_z, "phase flip probability", ChannelError)
        return cls(1.0 - p_z, 0.0, 0.0, p_z)

    @classmethod
    def biased(cls, p_x: float, p_z: float) -> "PauliChannel":
        """Asymmetric channel with independent X and Z weights and no Y."""
        p_x, p_z = check_real(p_x, "X weight", ChannelError), check_real(p_z, "Z weight", ChannelError)
        return cls(1.0 - p_x - p_z, p_x, 0.0, p_z)


class EdgeZChannel(NamedTuple("EdgeZChannel", [("q", float)])):
    """Correlated two-qubit channel mixing Z_a, Z_b and Z_a Z_b, each (1-q)/3."""

    __slots__ = ()

    def __new__(cls, q: float):
        return super().__new__(cls, check_real(q, "edge channel parameter", ChannelError))


class FlipSource(NamedTuple("FlipSource", [("flip_prob", dict[int, float])])):
    """One independent noise source as per-vertex bit-flip probabilities."""

    __slots__ = ()

    def __new__(cls, flip_prob: dict[int, float]):
        return super().__new__(cls, {v: check_real(p, f"flip probability at vertex {v}", ChannelError)
                                     for v, p in flip_prob.items()})


class BitMarginal(NamedTuple("BitMarginal", [("vertex", int), ("lambda0", float), ("lambda1", float)])):
    """Per-vertex pair (P(bit=0), P(bit=1)); all the hashing bound ever needs."""

    __slots__ = ()

    def __new__(cls, vertex: int, lambda0: float, lambda1: float):
        vertex = check_integer(vertex, "vertex id", ChannelError)
        lambda0, lambda1 = check_real(lambda0, "lambda0", ChannelError), check_real(lambda1, "lambda1", ChannelError)
        if not abs(lambda0 + lambda1 - 1.0) <= _PROB_SUM_TOL:
            raise ChannelError(f"marginal at vertex {vertex} sums to {lambda0 + lambda1}, not 1")
        return super().__new__(cls, vertex, lambda0, lambda1)

    @property
    def distribution(self) -> tuple[float, float]:
        return (self.lambda0, self.lambda1)


def channel_to_flip_source(g: Graph, v: int, ch: PauliChannel) -> FlipSource:
    """Translate a Pauli channel on vertex ``v`` into a flip source.

    The vertex's own bit flips with probability p_z + p_y, each neighbor's
    bit with probability p_x + p_y.
    """
    v = check_instance(g, Graph, "graph", ChannelError)._require(v)
    probs = {v: ch.p_z + ch.p_y}
    for u in g.neighbors(v):
        probs[u] = ch.p_x + ch.p_y
    return FlipSource(flip_prob=probs)


def edge_channel_to_flip_source(edge: tuple[int, int], q: float) -> FlipSource:
    """Marginal flip source of the two-qubit edge channel.

    Each endpoint's bit flips in two of the three equally weighted Z terms,
    so marginally with probability 2(1-q)/3.  The Z_a Z_b correlation is
    dropped (see the module note).
    """
    a, b = (check_integer(v, "vertex id", ChannelError) for v in edge)
    if a == b:
        raise ChannelError("edge channel needs two distinct vertices")
    p = 2.0 * (1.0 - EdgeZChannel(q).q) / 3.0
    return FlipSource(flip_prob={a: p, b: p})


def _clamp(p: float) -> float:
    if not -_DRIFT_TOL <= p <= 1.0 + _DRIFT_TOL:
        raise ChannelError(f"probability drifted to {p}")
    return min(1.0, max(0.0, p))


def flip_probability(sources: list[FlipSource], vertex: int) -> float:
    """Probability that ``vertex``'s bit is flipped by the XOR of all sources.

    Exact: the number of flips is odd with probability
    (1 - prod_s (1 - 2 p_s)) / 2 over the sources touching the vertex.
    """
    prod = 1.0
    for s in sources:
        p = s.flip_prob.get(vertex)
        if p is not None:
            prod *= 1.0 - 2.0 * p
    return _clamp((1.0 - prod) / 2.0)


def bit_marginals(g: Graph, sources: list[FlipSource]) -> list[BitMarginal]:
    """Per-vertex flip marginals of independent sources, for all vertices of g."""
    check_instance(g, Graph, "graph", ChannelError)
    try:
        for s in sources:
            for v in check_instance(s, FlipSource, "noise source", ChannelError).flip_prob:
                g._require(v)
    except TypeError:  # no sequence
        raise ChannelError(f"sources must be a sequence of FlipSource, got {sources!r}") from None
    out = []
    for v in g.vertices():
        p1 = flip_probability(sources, v)
        out.append(BitMarginal(vertex=v, lambda0=1.0 - p1, lambda1=p1))
    return out


def uniform_depolarizing_marginal(q: float, degree: int) -> tuple[float, float]:
    """Closed-form marginal of a vertex of given degree under uniform LDN q.

    The vertex's bit is hit by its own channel and one channel per neighbor,
    each contributing factor q to the XOR product: lambda1 = (1 - q^(d+1))/2.
    """
    q = check_real(q, "depolarizing parameter", ChannelError)
    p1 = (1.0 - q ** (check_integer(degree, "degree", ChannelError, 0) + 1)) / 2.0
    return (1.0 - p1, p1)


def uniform_edge_channel_marginal(q: float, degree: int) -> tuple[float, float]:
    """Closed-form marginal of a degree-d vertex with the edge channel on every edge."""
    q = check_real(q, "edge channel parameter", ChannelError)
    p1 = (1.0 - (1.0 - 4.0 * (1.0 - q) / 3.0) ** check_integer(degree, "degree", ChannelError, 0)) / 2.0
    return (1.0 - p1, p1)


def pair_pattern_distribution(
    channels_a: list[PauliChannel], channels_b: list[PauliChannel]
) -> tuple[float, float, float, float]:
    """Exact 4-outcome Z-pattern distribution of a noisy two-qubit graph state.

    The pair a-b is the graph-state form of a Bell pair; patterns are indexed
    (mu_a, mu_b) as 2*mu_a + mu_b.  Unlike the marginal view this keeps the
    a-b correlation, which the bipartite hashing bound needs.
    """
    probs = [1.0, 0.0, 0.0, 0.0]
    try:  # X_a flips mu_b, Z_a flips mu_a, Y_a flips both; X_b and Z_b the other way round
        for channels, x, z in ((channels_a, 0b01, 0b10), (channels_b, 0b10, 0b01)):
            for ch in channels:
                new = [0.0, 0.0, 0.0, 0.0]
                for p, mask in ((ch.p_i, 0b00), (ch.p_x, x), (ch.p_y, 0b11), (ch.p_z, z)):
                    if p:
                        for mu in range(4):
                            new[mu ^ mask] += p * probs[mu]
                probs = new
    except (TypeError, AttributeError):  # no sequence, or an entry no PauliChannel
        raise ChannelError(f"channels must be sequences of PauliChannel, got {channels_a!r}, {channels_b!r}") from None
    total = sum(probs)
    if not abs(total - 1.0) <= _DRIFT_TOL:
        raise ChannelError(f"pattern probabilities sum to {total}, not 1")
    return tuple(_clamp(p) for p in probs)  # type: ignore[return-value]


def output_noise_factor(g: Graph, qubits: list[int], p: float) -> float:
    """Certified lower-bound fidelity multiplier for LDN(p) on output qubits.

    Each depolarizing source realizes the trivial total pattern at least
    with its all-identity weight, so the exact fidelity is bounded below by
    prod (1+3p)/4 over the listed qubits.  The argument needs every listed
    qubit to have at least one neighbor; isolated vertices are rejected.
    """
    p = check_real(p, "output noise parameter", ChannelError)
    check_instance(g, Graph, "graph", ChannelError)
    try:
        for v in qubits:
            if g.degree(v) == 0:
                raise ChannelError(f"output vertex {v} is isolated; the pattern-orthogonality bound does not apply")
        return ((1.0 + 3.0 * p) / 4.0) ** len(qubits)
    except TypeError:  # no sequence
        raise ChannelError(f"qubits must be a sequence of vertex ids, got {qubits!r}") from None

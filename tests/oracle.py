"""Brute-force ground truth for small instances.

Everything in here trades performance for exactness and is meant for tests
only: exact Z-pattern distributions of noisy graph states, exact statevector
verification of the adjacency-level transformation rules, and exact
fidelities under output noise.  Hard size caps keep the cost bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from multinet.graphstate import Graph, GraphError, MultinetError, check_real, local_complement
from multinet.noise import PauliChannel

MAX_DISTRIBUTION_QUBITS = 16
MAX_STATEVECTOR_QUBITS = 10


class OracleSizeError(MultinetError):
    """Instance exceeds the brute-force size caps."""


# -- exact Z-pattern distributions --------------------------------------------


@dataclass
class DiagonalDistribution:
    """Probability of every Z-pattern of a state diagonal in the graph basis.

    ``order`` maps each vertex id to its bit position; pattern index ``mu``
    has bit ``order[v]`` set when vertex v carries a Z flip.
    """

    graph: Graph
    order: dict[int, int]
    probs: np.ndarray

    def marginal(self, v: int) -> tuple[float, float]:
        """Return (P(bit v = 0), P(bit v = 1))."""
        bit = self.order[v]
        idx = np.arange(self.probs.size)
        p1 = float(self.probs[(idx >> bit) & 1 == 1].sum())
        return (1.0 - p1, p1)

    def zero_pattern_probability(self) -> float:
        """P(no flip anywhere): the exact fidelity left by the noise."""
        return float(self.probs[0])


def _pauli_outcomes(g: Graph, v: int, ch: PauliChannel, order: dict[int, int]):
    """Z-pattern masks induced by each Pauli on vertex v of graph state g.

    Z flips v's own bit, X flips every neighbor's bit, Y flips both.
    """
    own = 1 << order[v]
    nbrs = 0
    for u in g.neighbors(v):
        nbrs |= 1 << order[u]
    return [
        (ch.p_i, 0),
        (ch.p_x, nbrs),
        (ch.p_y, own ^ nbrs),
        (ch.p_z, own),
    ]


def _edge_outcomes(a: int, b: int, q: float, order: dict[int, int]):
    """Z-pattern masks of the edge channel on a-b: Z_a, Z_b and Z_a Z_b, each (1-q)/3."""
    q = check_real(q, "edge channel parameter", GraphError)
    w = (1.0 - q) / 3.0
    ma, mb = 1 << order[a], 1 << order[b]
    return [(q, 0), (w, ma), (w, mb), (w, ma | mb)]


def exact_distribution(
    g: Graph,
    vertex_channels: dict[int, PauliChannel] | None = None,
    edge_channels: dict[tuple[int, int], float] | None = None,
) -> DiagonalDistribution:
    """Exact graph-basis distribution of independent noise sources on ``g``.

    Each source (a Pauli channel on a vertex, or a two-sided Z channel of
    parameter q on an edge) contributes an independent distribution over Z-pattern masks; the
    joint pattern is their XOR, so the total distribution is the XOR
    convolution of all sources, taken over the full 2^N pattern space.
    """
    n = g.vertex_count
    if n > MAX_DISTRIBUTION_QUBITS:
        raise OracleSizeError(f"{n} qubits exceeds the {MAX_DISTRIBUTION_QUBITS}-qubit cap")
    order = {v: i for i, v in enumerate(g.vertices())}
    probs = np.zeros(2**n)
    probs[0] = 1.0
    idx = np.arange(2**n)
    sources = []
    for v, ch in (vertex_channels or {}).items():
        g._require(v)
        sources.append(_pauli_outcomes(g, v, ch, order))
    for (a, b), q in (edge_channels or {}).items():
        g._require(a)
        g._require(b)
        if a == b:
            raise GraphError("edge channel needs two distinct vertices")
        sources.append(_edge_outcomes(a, b, q, order))
    for outcomes in sources:
        new = np.zeros_like(probs)
        for p, mask in outcomes:
            if p:
                new += p * probs[idx ^ mask]
        probs = new
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise AssertionError(f"distribution drifted from 1 by {total - 1.0}")
    return DiagonalDistribution(graph=g, order=order, probs=probs)


# -- statevector machinery -----------------------------------------------------


def graph_state_vector(g: Graph, order: dict[int, int]) -> np.ndarray:
    """Amplitudes of |G>: uniform magnitudes with a sign per edge both-ends-set."""
    n = g.vertex_count
    idx = np.arange(2**n)
    amp = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    for a, b in g.edges():
        both = ((idx >> order[a]) & 1) & ((idx >> order[b]) & 1)
        amp = amp * np.where(both, -1.0, 1.0)
    return amp


def _apply_1q(psi: np.ndarray, u: np.ndarray, bit: int) -> np.ndarray:
    n = psi.size.bit_length() - 1
    t = psi.reshape((2,) * n)
    axis = n - 1 - bit
    t = np.tensordot(u, t, axes=([1], [axis]))
    t = np.moveaxis(t, 0, axis)
    return t.reshape(-1)


def _apply_cnot(psi: np.ndarray, control_bit: int, target_bit: int) -> np.ndarray:
    idx = np.arange(psi.size)
    ctrl = (idx >> control_bit) & 1
    out = np.empty_like(psi)
    out[idx ^ (ctrl << target_bit)] = psi
    return out


def _measure(psi: np.ndarray, bit: int, basis: str) -> list[np.ndarray]:
    """Project qubit ``bit`` in the Z or Y basis and drop it.

    Returns the normalized post-measurement states of all outcome branches
    with nonzero probability.
    """
    n = psi.size.bit_length() - 1
    t = np.moveaxis(psi.reshape((2,) * n), n - 1 - bit, 0)
    zero, one = t[0].reshape(-1), t[1].reshape(-1)
    if basis == "z":
        branches = [zero, one]
    elif basis == "y":
        branches = [(zero - 1j * one) / np.sqrt(2), (zero + 1j * one) / np.sqrt(2)]
    else:
        raise GraphError(f"unsupported measurement basis {basis!r}")
    out = []
    for branch in branches:
        norm = np.linalg.norm(branch)
        if norm > 1e-12:
            out.append(branch / norm)
    return out


_SQRT_MINUS_IX = (np.eye(2) - 1j * np.array([[0, 1], [1, 0]])) / np.sqrt(2)
_SQRT_IZ = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])


def _local_complement_unitary(psi: np.ndarray, g: Graph, v: int, order: dict[int, int]) -> np.ndarray:
    psi = _apply_1q(psi, _SQRT_MINUS_IX, order[v])
    for u in g.neighbors(v):
        psi = _apply_1q(psi, _SQRT_IZ, order[u])
    return psi


def _single_qubit_cliffords() -> list[np.ndarray]:
    """The 24 single-qubit Cliffords (mod phase), Paulis first.

    Putting the Pauli corrections at the front makes the search finish fast
    in the common case where a branch differs from the target only by Z-type
    byproducts.
    """
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.diag([1, 1j])
    seen: dict[tuple, np.ndarray] = {}

    def canon(u: np.ndarray) -> tuple:
        flat = u.reshape(-1)
        pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
        u = u / (pivot / abs(pivot))
        return tuple(np.round(u.reshape(-1), 9))

    frontier = [np.eye(2, dtype=complex)]
    while frontier:
        nxt = []
        for u in frontier:
            key = canon(u)
            if key in seen:
                continue
            seen[key] = u
            nxt += [h @ u, s @ u]
        frontier = nxt
    cliffords = list(seen.values())
    paulis = [
        np.eye(2, dtype=complex),
        np.diag([1.0, -1.0]).astype(complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
    ]
    ordered = list(paulis)
    for u in cliffords:
        if not any(np.allclose(u / _phase(u), p / _phase(p)) for p in ordered):
            ordered.append(u)
    assert len(ordered) == 24
    return ordered


def _phase(u: np.ndarray) -> complex:
    flat = u.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
    return pivot / abs(pivot)


_CLIFFORDS_1Q = np.stack(_single_qubit_cliffords())


def _stabilizer_check(size: int, x_bit: int, z_mask: int) -> tuple[np.ndarray, np.ndarray]:
    """The index permutation and sign vector of X_(x_bit) Z_(z_mask) on ``size`` amplitudes:
    <psi| X Z |psi> (up to the convention X Z = +XZ) is sum(conj(psi) * signs * psi[flipped])."""
    idx = np.arange(size)
    return idx ^ (1 << x_bit), np.where(_parity(idx & z_mask), -1.0, 1.0)


def _parity(x: np.ndarray) -> np.ndarray:
    out = x.copy()
    shift = 1
    while shift < 64:
        out ^= out >> shift
        shift *= 2
    return out & 1


def _search_order(g: Graph, order: dict[int, int]) -> tuple[list[int], dict[int, list]]:
    """Qubit assignment order that completes stabilizer supports early."""
    supports = {}
    for v in g.vertices():
        supports[v] = {order[v]} | {order[u] for u in g.neighbors(v)}
    assigned: list[int] = []
    remaining = set(order.values())
    ready_at: dict[int, list] = {}
    while remaining:
        best = None
        for bit in sorted(remaining):
            done = set(assigned) | {bit}
            completed = sum(1 for s in supports.values() if s <= done and not s <= set(assigned))
            smallest_open = min(
                (len(s - done) for s in supports.values() if not s <= done),
                default=0,
            )
            score = (-completed, smallest_open, bit)
            if best is None or score < best[0]:
                best = (score, bit)
        bit = best[1]
        assigned.append(bit)
        remaining.discard(bit)
        ready_at.setdefault(len(assigned) - 1, [])
        for v, s in supports.items():
            if s <= set(assigned) and not s <= set(assigned[:-1]):
                zmask = 0
                for u in g.neighbors(v):
                    zmask |= 1 << order[u]
                ready_at[len(assigned) - 1].append((order[v], zmask))
    return assigned, ready_at


def _lc_equivalent(psi: np.ndarray, g_target: Graph, order: dict[int, int]) -> bool:
    """True iff some product of single-qubit Cliffords maps psi onto |g_target>.

    Depth-first search over per-qubit Clifford choices; a stabilizer
    constraint is tested as soon as all qubits in its support are assigned,
    which prunes hard on sparse graphs.  All 24 choices for a qubit are
    applied and tested at once, and each constraint's sign vector is built
    once per search; the passing choices are then tried in Clifford order.
    """
    n = g_target.vertex_count
    if n == 0:
        return psi.size == 1
    qubit_order, ready_at = _search_order(g_target, order)
    checks = {depth: [_stabilizer_check(psi.size, x_bit, z_mask) for x_bit, z_mask in ready]
              for depth, ready in ready_at.items()}

    def dfs(depth: int, state: np.ndarray) -> bool:
        if depth == n:
            return True
        bit = qubit_order[depth]
        # amplitude index = (high bits, this bit, low bits): apply every Clifford to the middle axis
        tensor = state.reshape(-1, 2, 1 << bit)
        states = np.einsum("cij,ajb->caib", _CLIFFORDS_1Q, tensor).reshape(len(_CLIFFORDS_1Q), -1)
        ok = np.ones(len(states), dtype=bool)
        for flipped, signs in checks[depth]:
            expectation = np.einsum("ck,ck->c", states.conj(), signs * states[:, flipped])
            ok &= ~(np.abs(expectation - 1.0) > 1e-8)
        return any(dfs(depth + 1, nxt) for nxt in states[ok])

    return dfs(0, psi)


def statevector_check(g_before: Graph, transform: tuple, g_after: Graph) -> bool:
    """Verify an adjacency-level rule by direct simulation.

    ``transform`` is one of ``("merge", a, b)``, ``("connect", a, b)`` or
    ``("local_complement", v)``.  The explicit unitary plus projective
    measurements are applied to |g_before>, and every outcome branch must be
    local-Clifford equivalent to |g_after>.
    """
    n = g_before.vertex_count
    if n > MAX_STATEVECTOR_QUBITS:
        raise OracleSizeError(f"{n} qubits exceeds the {MAX_STATEVECTOR_QUBITS}-qubit cap")
    order = {v: i for i, v in enumerate(g_before.vertices())}
    psi = graph_state_vector(g_before, order)

    kind = transform[0]
    if kind == "merge":
        _, a, b = transform
        psi = _apply_cnot(psi, order[a], order[b])
        branches = _measure(psi, order[b], "z")
        removed = [b]
    elif kind == "connect":
        _, a, b = transform
        psi = _local_complement_unitary(psi, g_before, a, order)
        g_mid = local_complement(g_before, a)
        psi = _local_complement_unitary(psi, g_mid, b, order)
        psi = _apply_cnot(psi, order[a], order[b])
        branches = []
        for br in _measure(psi, order[b], "z"):
            shifted = {v: (i if i < order[b] else i - 1) for v, i in order.items() if v != b}
            branches += [(br2, dict(shifted)) for br2 in _measure(br, shifted[a], "y")]
        removed = [a, b]
        final_branches = []
        for br, shifted in branches:
            final_order = {
                v: (i if i < shifted[a] else i - 1) for v, i in shifted.items() if v != a
            }
            final_branches.append((br, final_order))
    elif kind == "local_complement":
        _, v = transform
        psi = _local_complement_unitary(psi, g_before, v, order)
        branches = [psi]
        removed = []
    else:
        raise GraphError(f"unknown transform {kind!r}")

    if kind != "connect":
        final_order = {v: i for v, i in order.items() if v not in removed}
        for r in sorted((order[r] for r in removed), reverse=True):
            final_order = {v: (i if i < r else i - 1) for v, i in final_order.items()}
        final_branches = [(br, dict(final_order)) for br in branches]

    expected = set(g_after.vertices())
    for br, final_order in final_branches:
        if set(final_order) != expected:
            raise GraphError("result graph vertices do not match surviving qubits")
        if not _lc_equivalent(br, g_after, final_order):
            return False
    return True

"""Finite-size fidelity bounds for bipartite and multipartite hashing.

The protocol identifies, per purified string, the likely-subspace member the
input ensemble collapsed to.  Two failure modes shrink the success
probability at finite ensemble size n: the sample entropy can stray more
than a slack ``delta`` from the true entropy (bounded by a Bennett-type
concentration inequality), and the parity measurements can fail to single
out the string (bounded by 2^(-n*delta)).  Together:

    f = 1 - 2*exp(-n * (V/a^2) * h(a*delta/V)) - 2^(-n*delta)

with a = max_i |-log2(p_i) - S|, V = sum_i p_i log2(p_i)^2 - S^2 taken over
the nonzero outcomes, and h(u) = (1+u)*ln(1+u) by default (the
"simplified" mode; the "standard" mode keeps the usual -u term of the
Bennett rate function, for sensitivity checks).

For a two-colorable graph state one subprotocol per color runs on a shared
copy budget: requesting m outputs from n inputs leaves a total slack
Delta = (1 - sum_c S_c - m/n)/2 to distribute over the colors, and inside a
color every vertex with entropy below the color maximum automatically gets
the surplus (delta_k = delta_c + (S_c - S_k)/2).  The global bound is the
product of the per-vertex success probabilities, and vertices sharing a
marginal and a color give equal factors.  The vertex-level API therefore
checks and groups its input in one place, :func:`vertex_classes`, and reads
each vertex's slack and success off its :class:`MarginalClass`.

The class-level bound is evaluated by one engine.  Each
:class:`MarginalClass` computes its S, a and V once, on first use, which is
also when its distribution is validated.  For one (classes, n, m),
:class:`_SplitBound` does the color grouping, the target check, Delta and
the per-class constants once; the bound at a given split then costs only the
Bennett arithmetic, through the same kernel as :func:`bennett_loss`.  The
slack-split optimizer evaluates every candidate through it.

Threshold targets have one search, :func:`largest_m`: a bisection for the
largest m whose bound (any function of m that does not increase with it)
clears the threshold.  It returns the bound it computed at its result, and
serves the class-level bound here as well as the bipartite lattice product
in the scenarios.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .graphstate import Graph, MultinetError
from .noise import BitMarginal

SPLIT_GRID_STEPS = 200
SPLIT_REFINE_FACTOR = 20


class InfeasibleTargetError(MultinetError):
    """The (n, m) target cannot be met: some slack parameter is not positive."""


class DistributionError(MultinetError):
    """Malformed outcome distribution."""


def _check_h_mode(h_mode: str) -> None:
    if h_mode not in ("simplified", "standard"):
        raise MultinetError(f"unknown h_mode {h_mode!r}")


def _validated(probs: Sequence[float]) -> list[float]:
    probs = [float(p) for p in probs]
    if any(p < -1e-12 or p > 1 + 1e-12 for p in probs):
        raise DistributionError(f"probabilities out of [0,1]: {probs}")
    if abs(sum(probs) - 1.0) > 1e-12:
        raise DistributionError(f"probabilities sum to {sum(probs)}, not 1")
    return [min(1.0, max(0.0, p)) for p in probs]


def entropy(probs: Sequence[float]) -> float:
    """Shannon entropy in bits, with 0*log(0) taken as 0."""
    probs = _validated(probs)
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def _spread_and_variance(probs: Sequence[float]) -> tuple[float, float, float]:
    """Entropy S, spread a = max |-log2 p - S| and variance V of -log2 p.

    Zero-probability outcomes are excluded so the logarithms stay finite.
    """
    s = entropy(probs)
    nonzero = [p for p in probs if p > 0.0]
    a = max(abs(-math.log2(p) - s) for p in nonzero)
    v = sum(p * math.log2(p) ** 2 for p in nonzero) - s * s
    return s, a, max(0.0, v)


def bennett_loss(probs: Sequence[float], n: int, delta: float, h_mode: str = "simplified") -> float:
    """Total failure weight 2*exp(-n (V/a^2) h(a delta/V)) + 2^(-n delta).

    Returned unclamped so callers can form high-precision products of many
    near-one success factors.  Degenerate deterministic distributions
    (S = 0, so a = V = 0) have no concentration failure mode and contribute
    only the identification term.
    """
    if n < 1:
        raise InfeasibleTargetError(f"need at least one input copy, got n={n}")
    if delta <= 0.0:
        raise InfeasibleTargetError(f"slack must be positive, got delta={delta}")
    _check_h_mode(h_mode)
    s, a, v = _spread_and_variance(probs)
    return _loss(s, a, v, n, delta, h_mode)


def _loss(s: float, a: float, v: float, n: int, delta: float, h_mode: str) -> float:
    """The failure weight of :func:`bennett_loss` from a distribution's S, a, V.

    ``n >= 1``, ``delta > 0`` and a known ``h_mode`` are the caller's to check.
    """
    if s == 0.0 or a == 0.0 or v == 0.0:
        concentration = 0.0
    else:
        u = a * delta / v
        h = (1.0 + u) * math.log1p(u)
        if h_mode == "standard":
            h -= u
        concentration = 2.0 * math.exp(-n * (v / (a * a)) * h)
    identification = 2.0 ** (-n * delta)
    return concentration + identification


def bennett_success(probs: Sequence[float], n: int, delta: float, h_mode: str = "simplified") -> float:
    """Lower bound on the success probability of identifying one string.

    Clamped into [0, 1]; strictly increasing in n and in delta wherever the
    bound is informative.
    """
    return max(0.0, 1.0 - bennett_loss(probs, n, delta, h_mode=h_mode))


@dataclass
class HashingRun:
    """One evaluation of the finite-size machinery."""

    n: int
    m: int
    delta_by_color: dict[int, float]
    delta_by_vertex: dict[int, float]
    fidelity_by_vertex: dict[int, float]
    fidelity: float


def _check_target(n: int, m: int) -> None:
    if not 1 <= m <= n:
        raise InfeasibleTargetError(f"need 1 <= m <= n, got n={n} m={m}")


def bipartite_bound(probs: Sequence[float], n: int, m: int) -> HashingRun:
    """Finite-size bound for hashing an ensemble of Bell-diagonal pairs.

    The slack is derived from the target: delta = (1 - S - m/n)/2.  Raises
    :class:`InfeasibleTargetError` when the entropy already exceeds the
    requested yield.
    """
    _check_target(n, m)
    s, a, v = _spread_and_variance(probs)
    delta = 0.5 * (1.0 - s - m / n)
    if delta <= 0.0:
        raise InfeasibleTargetError(
            f"target m/n={m}/{n} unreachable: entropy {s:.6f} leaves slack {delta:.6f}"
        )
    f = max(0.0, 1.0 - _loss(s, a, v, n, delta, "simplified"))
    return HashingRun(
        n=n,
        m=m,
        delta_by_color={0: delta},
        delta_by_vertex={0: delta},
        fidelity_by_vertex={0: f},
        fidelity=f,
    )


# -- multipartite machinery ----------------------------------------------------


@dataclass(frozen=True)
class MarginalClass:
    """A group of vertices sharing one binary marginal and one color.

    The entropy and the Bennett constants are computed on first use and
    kept.  Validation happens then too, and a malformed class raises
    :class:`DistributionError` wherever it is used, as nothing is kept.
    """

    lambda1: float
    color: int
    count: int

    @property
    def distribution(self) -> tuple[float, float]:
        return (1.0 - self.lambda1, self.lambda1)

    @functools.cached_property
    def entropy(self) -> float:
        return self._constants[0]

    @functools.cached_property
    def _constants(self) -> tuple[float, float, float]:
        """(S, a, V) as :func:`bennett_loss` computes them."""
        return _spread_and_variance(self.distribution)


def _group_classes(classes: Iterable[MarginalClass]):
    """Split into active colors (positive entropy) and the rest.

    A color whose every marginal is exactly deterministic needs no
    subprotocol at all: its strings are known without any measurement, it
    consumes none of the copy budget, and its vertices succeed with
    certainty.
    """
    by_color: dict[int, list[MarginalClass]] = {}
    for c in classes:
        if c.count < 0:
            raise DistributionError("class count must be nonnegative")
        if c.count:
            by_color.setdefault(c.color, []).append(c)
    s_color = {col: max(c.entropy for c in cls) for col, cls in by_color.items()}
    active = {col for col, s in s_color.items() if s > 0.0}
    return by_color, s_color, active


class _SplitBound:
    """The class-level bound for one (classes, n, m), as a function of the split.

    Construction groups the classes (validating them), checks 1 <= m <= n
    and computes the budget Delta, raising :class:`InfeasibleTargetError`
    when it is not positive.  It keeps one row (color index, count,
    (S_c - S_k)/2, (S, a, V)) per class of positive entropy, in sorted color
    order, so that evaluating a split repeats none of that work.
    """

    def __init__(self, classes: Iterable[MarginalClass], n: int, m: int, h_mode: str):
        _check_h_mode(h_mode)
        by_color, s_color, self.active = _group_classes(classes)
        _check_target(n, m)
        self.colors = sorted(self.active)
        self.n = n
        self.h_mode = h_mode
        self.budget = 0.0
        self.rows = []
        if not self.active:
            return
        total_entropy = sum(s_color[c] for c in self.active)
        self.budget = 0.5 * (1.0 - total_entropy - m / n)
        if self.budget <= 0.0:
            raise InfeasibleTargetError(
                f"target m/n={m}/{n} unreachable: color entropies sum to {total_entropy:.6f}"
            )
        self.rows = [
            (i, cls.count, 0.5 * (s_color[color] - cls.entropy), cls._constants)
            for i, color in enumerate(self.colors)
            for cls in by_color[color]
            if cls.entropy != 0.0
        ]

    def fidelity(self, slacks: Sequence[float]) -> float:
        """The bound when ``colors[i]`` gets the (positive) slack ``slacks[i]``."""
        n, h_mode = self.n, self.h_mode
        log_f = 0.0
        for i, count, gap, (s, a, v) in self.rows:
            loss = _loss(s, a, v, n, slacks[i] + gap, h_mode)
            if loss >= 1.0:
                return 0.0
            log_f += count * math.log1p(-loss)
        return math.exp(log_f)

    def at(self, fracs: Sequence[float]) -> float | None:
        """The bound at slack fractions ``fracs`` (in ``colors`` order).

        None unless the fractions sum to 1 (within 1e-9) and give every
        color a positive slack.
        """
        if abs(sum(fracs) - 1.0) > 1e-9:
            return None
        slacks = [self.budget * frac for frac in fracs]
        if any(d <= 0.0 for d in slacks):
            return None
        return self.fidelity(slacks)


def multipartite_bound_classes(
    classes: Sequence[MarginalClass],
    n: int,
    m: int,
    delta_split: dict[int, float] | None = None,
    h_mode: str = "simplified",
) -> tuple[float, dict[int, float]]:
    """Global fidelity bound from per-class marginals.

    ``delta_split`` maps each active color to its fraction of the total
    slack (fractions must sum to 1); by default the slack is split equally.
    Returns (F, delta-by-color).  Classes with identical marginals are the
    natural unit here, so lattice-scale products cost one Bennett evaluation
    per class rather than per vertex.
    """
    _check_target(n, m)  # before the classes are validated, unlike the optimizer
    bound = _SplitBound(classes, n, m, h_mode)
    active = bound.active
    if not active:
        return 1.0, {}
    if delta_split is None:
        delta_split = {c: 1.0 / len(active) for c in active}
    if set(delta_split) != active:
        raise InfeasibleTargetError(
            f"split given for colors {sorted(delta_split)}, active colors are {sorted(active)}"
        )
    if abs(sum(delta_split.values()) - 1.0) > 1e-9:
        raise InfeasibleTargetError("split fractions must sum to 1")
    delta_color = {c: bound.budget * delta_split[c] for c in active}
    if any(d <= 0.0 for d in delta_color.values()):
        raise InfeasibleTargetError("every active color needs a positive slack share")
    return bound.fidelity([delta_color[c] for c in bound.colors]), delta_color


def vertex_classes(
    g: Graph, coloring: dict[int, int], marginals: Sequence[BitMarginal]
) -> tuple[list[MarginalClass], dict[int, tuple[float, int]]]:
    """Group the vertices of ``g`` into classes of equal (lambda1, color).

    Returns the classes, sorted by (lambda1, color), and each vertex's
    (lambda1, color) key, in the order of ``marginals``.  Raises
    :class:`InfeasibleTargetError` unless ``coloring`` colors every vertex
    of ``g`` properly, and :class:`DistributionError` unless ``marginals``
    holds exactly one marginal per vertex of ``g``.
    """
    uncolored = [v for v in g.vertices() if v not in coloring]
    if uncolored:
        raise InfeasibleTargetError(f"coloring misses vertices {uncolored}")
    for a, b in g.edges():
        if coloring[a] == coloring[b]:
            raise InfeasibleTargetError(f"improper coloring: edge ({a},{b}) inside one color")
    key_by_vertex: dict[int, tuple[float, int]] = {}
    for marg in marginals:
        if not g.has_vertex(marg.vertex):
            raise DistributionError(f"marginal given for vertex {marg.vertex}, which is not in the graph")
        if marg.vertex in key_by_vertex:
            raise DistributionError(f"more than one marginal given for vertex {marg.vertex}")
        key_by_vertex[marg.vertex] = (marg.lambda1, coloring[marg.vertex])
    missing = [v for v in g.vertices() if v not in key_by_vertex]
    if missing:
        raise DistributionError(f"marginals missing for vertices {missing}")
    counts = sorted(collections.Counter(key_by_vertex.values()).items())
    return [MarginalClass(lambda1=lam, color=col, count=cnt) for (lam, col), cnt in counts], key_by_vertex


def _vertex_run(classes, key_by_vertex, n: int, m: int, delta_split, h_mode: str) -> HashingRun:
    """The class bound, with each class's slack and success read onto its vertices.

    A class of an inactive color, or of zero entropy, needs no identification:
    its vertices get slack 0 and success 1.
    """
    fidelity, delta_color = multipartite_bound_classes(classes, n, m, delta_split=delta_split, h_mode=h_mode)
    s_color = _group_classes(classes)[1]
    by_class: dict[tuple[float, int], tuple[float, float]] = {}
    for cls in classes:
        if cls.color not in delta_color or cls.entropy == 0.0:
            by_class[cls.lambda1, cls.color] = (0.0, 1.0)
            continue
        d_k = delta_color[cls.color] + 0.5 * (s_color[cls.color] - cls.entropy)
        by_class[cls.lambda1, cls.color] = (d_k, max(0.0, 1.0 - _loss(*cls._constants, n, d_k, h_mode)))
    return HashingRun(
        n=n,
        m=m,
        delta_by_color=delta_color,
        delta_by_vertex={v: by_class[key][0] for v, key in key_by_vertex.items()},
        fidelity_by_vertex={v: by_class[key][1] for v, key in key_by_vertex.items()},
        fidelity=fidelity,
    )


def multipartite_bound(
    g: Graph,
    coloring: dict[int, int],
    marginals: Sequence[BitMarginal],
    n: int,
    m: int,
    delta_split: dict[int, float] | None = None,
    h_mode: str = "simplified",
) -> HashingRun:
    """Finite-size bound for multipartite hashing of a colored graph state.

    ``marginals`` must hold one marginal per vertex of ``g`` (see
    :func:`vertex_classes`).  The per-vertex slack and success probability
    are reported alongside the global product bound.
    """
    classes, key_by_vertex = vertex_classes(g, coloring, marginals)
    return _vertex_run(classes, key_by_vertex, n, m, delta_split, h_mode)


def _simplex_grid(k: int, steps: int):
    """All integer compositions of ``steps`` into ``k`` positive parts, as fractions."""
    for cuts in itertools.combinations(range(1, steps), k - 1):
        edges = (0,) + cuts + (steps,)
        yield tuple((hi - lo) / steps for lo, hi in zip(edges, edges[1:]))


def optimize_delta_split_classes(
    classes: Sequence[MarginalClass],
    n: int,
    m: int,
    h_mode: str = "simplified",
) -> tuple[dict[int, float], float]:
    """Grid-search the slack split across colors, maximizing the bound.

    Scans the split simplex in steps of 1/200, then refines once around the
    best cell at 1/20 of the step.  The equal split is always evaluated
    first and ties break toward it, so the result never falls below the
    equal-split baseline.  The classes are grouped and checked once, and
    every candidate is evaluated through one :class:`_SplitBound`.  Every
    candidate fraction is positive by construction; a candidate whose
    fractions do not sum to 1 or leave a color without slack is skipped.
    """
    bound = _SplitBound(classes, n, m, h_mode)
    colors = bound.colors
    if not colors:
        return {}, 1.0
    best = (1.0 / len(colors),) * len(colors)
    best_f = bound.at(best)
    if len(colors) > 1:

        def scan(candidates):
            nonlocal best_f, best
            for fracs in candidates:
                f = bound.at(fracs)
                if f is not None and f > best_f:
                    best_f, best = f, fracs

        scan(_simplex_grid(len(colors), SPLIT_GRID_STEPS))
        if len(colors) == 2:
            lo = best[0] - 1.0 / SPLIT_GRID_STEPS
            fine = SPLIT_GRID_STEPS * SPLIT_REFINE_FACTOR
            xs = [lo + i / fine for i in range(2 * SPLIT_REFINE_FACTOR + 1)]
            scan([(x, 1.0 - x) for x in xs if 0.0 < x < 1.0])
    return dict(zip(colors, best)), best_f


def optimize_delta_split(
    g: Graph,
    coloring: dict[int, int],
    marginals: Sequence[BitMarginal],
    n: int,
    m: int,
    h_mode: str = "simplified",
) -> tuple[dict[int, float], HashingRun]:
    """Best slack split plus the corresponding full run for a colored graph."""
    classes, key_by_vertex = vertex_classes(g, coloring, marginals)
    split, _ = optimize_delta_split_classes(classes, n, m, h_mode=h_mode)
    return split, _vertex_run(classes, key_by_vertex, n, m, split or None, h_mode)


def largest_m(value: Callable[[int], float], n: int, threshold: float) -> tuple[int, float]:
    """Largest m in [1, n] with ``value(m) >= threshold``, and the value there.

    A bisection that assumes ``value`` is nonincreasing in m; an m whose
    target is infeasible counts as falling short.  (0, 0.0) if even m = 1
    falls short.  The value returned is the one the search computed, so a
    caller never evaluates the bound at the result a second time.
    """
    if not 0.0 < threshold < 1.0:
        raise MultinetError(f"threshold must be in (0,1), got {threshold}")

    def value_or_short(m: int) -> float:
        try:
            return value(m)
        except InfeasibleTargetError:
            return -1.0

    f_lo = value_or_short(1)
    if f_lo < threshold:
        return 0, 0.0
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        f_mid = value_or_short(mid)
        if f_mid >= threshold:
            lo, f_lo = mid, f_mid
        else:
            hi = mid - 1
    return lo, f_lo


def max_output_copies_classes(classes: Sequence[MarginalClass], n: int, threshold: float) -> int:
    """Largest m whose optimized bound is >= threshold, by :func:`largest_m` (0 if none)."""
    return largest_m(lambda m: optimize_delta_split_classes(classes, n, m)[1], n, threshold)[0]


def max_output_copies(
    g: Graph,
    coloring: dict[int, int],
    marginals: Sequence[BitMarginal],
    n: int,
    threshold: float,
) -> int:
    """Largest m the colored graph ensemble supports at the given fidelity."""
    return max_output_copies_classes(vertex_classes(g, coloring, marginals)[0], n, threshold)

"""Finite-size fidelity bounds for bipartite and multipartite hashing.

The protocol identifies, per purified string, the likely-subspace member the
input ensemble collapsed to.  Two failure modes shrink the success
probability at finite ensemble size n: the sample entropy can stray more
than a slack ``delta`` from the true entropy (bounded by a Bennett-type
concentration inequality), and the parity measurements can fail to single
out the string (bounded by 2^(-n*delta)).  Together:

    f = 1 - 2*exp(-n * (V/a^2) * h(a*delta/V)) - 2^(-n*delta)

with a = max_i |-log2(p_i) - S|, V = sum_i p_i log2(p_i)^2 - S^2 taken over
the nonzero outcomes, and h(u) = (1+u)*ln(1+u).

For a two-colorable graph state one subprotocol per color runs on a shared
copy budget: requesting m outputs from n inputs leaves a total slack
Delta = (1 - sum_c S_c - m/n)/2 to distribute over the colors, and inside a
color every vertex with entropy below the color maximum automatically gets
the surplus (delta_k = delta_c + (S_c - S_k)/2).  The global bound is the
product of the per-vertex success probabilities, and vertices sharing a
marginal and a color give equal factors.  The vertex-level API therefore
checks and groups its input in one place, :func:`vertex_classes`, and reads
each vertex's slack and success off its :class:`MarginalClass`.

The class-level bound is evaluated by one engine.  A distribution's S, a and
V are computed (and it is validated) on first use, in one bounded cache
(:func:`_spread_and_variance`) that classes and pairs share.  For one
(classes, n), :class:`_SplitBound` reads them once per class and keeps one
row (count, gap, a, V, k) per class, k = -n*V/a^2; per m it does only the
target check and Delta, and a split costs one :func:`_loss` (the kernel of
:func:`bennett_loss`) and one log1p per row, summed one color at a time.

The slack-split optimizer rests on a lemma: for any c = n*V/a^2, each loss
L = 2*exp(-c*h(u)) + 2^(-n*delta), u = a*delta/V, is convex in delta wherever
L < 1.  The second term is convex, and the first wherever c*h'^2 >= h'', that
is c*(1+u)*(1+t)^2 >= 1 with t = ln(1+u).  L < 1 needs c*h(u) > ln 2, and
then c*(1+u)*(1+t)^2 > ln2*(1+t)^2/t >= 1, as ln2*t^2 + (2*ln2 - 1)*t + ln2
has discriminant 1 - 4*ln2 < 0.  So log F, a sum of count*log(1 - L), is
concave along the two-color candidate line (each slack is affine on it)
wherever it is finite, which is an interval: a color's rows are finite once
its share is large enough.  The optimizer therefore searches for the
optimum, and its result is exactly that of evaluating every candidate.

Threshold targets have one search, :func:`largest_m`, for the largest m
whose bound clears the threshold t.  It serves both the optimized
class-level bound (:func:`max_output_copies_classes`) and the bipartite
lattice product in the scenarios.  A step of the search over the optimized
bound needs only to know whether the optimizer's F is >= t.  It passes when
the equal split, the optimizer's first candidate, clears t (the optimizer's
F is the largest F it computes, and the chord reads the equal split's, a
lower bound); the search reruns the optimization only at an answer settled so.
Otherwise it fails after the grid walk if the certificate below holds.

Certificate.  Let phi(x) be the exact log F at the slacks (B*x, B*(1 - x))
of budget B, with the computed constants; phi is concave where finite.  A
candidate's computed log F is within :func:`_log_band` of phi at its first
share x (no claim once a loss is within 2^-20 of 1): its slacks are those up
to a few roundings, and its second share is 1 - x to 2^-48 relative.  Every
refinement point lies within one grid step of the grid's best g, to 2^-48
relative in each share, so concavity through g and the neighbour on the
other side bounds phi there by U = cap + max(0, cap - floor): cap is the
computed log F at g plus its band, floor the lesser of the neighbours' minus
theirs.  If a candidate's computed F is >= t, its largest loss w has 1 - w
>= t*(1 - 2^-40) (each term is at most log1p(-w)), so for t >= 2^-10 its
band is at most 2^-20*|log t| + 2^-50 and phi there is at least log t -
2^-20*|log t| - 2^-49.  So U < log t - 2^-19*|log t| - 2^-40 rules out every
refinement point: the roundings of cap and floor are far inside the bands,
and those of U inside the remaining 2^-20*|log t| + 2^-41.  The certificate
declines, and the refinement runs, when t < 2^-10 (``_CERTIFICATE_FLOOR``),
when g ends the grid, when a band is infinite (a loss within 2^-20 of 1, or
reaching 1, as when F is 0 on the whole grid: U is then inf or NaN), or when
U comes near log t.
"""

from __future__ import annotations

import collections
import functools
import math
from typing import Callable, Iterable, NamedTuple, Sequence

from .graphstate import Graph, MultinetError, check_instance, check_integer, check_real
from .noise import BitMarginal

SPLIT_GRID_STEPS = 200
SPLIT_REFINE_FACTOR = 20
# the least threshold the certificate that a step falls short is used for
_CERTIFICATE_FLOOR = 2.0**-10
# the two-color split candidates in steps of 1/200, first share ascending; the second
# share is (200 - c)/200, which 1 - c/200 misses in the last bit at 80 of the points
SPLIT_GRID = tuple(
    (c / SPLIT_GRID_STEPS, (SPLIT_GRID_STEPS - c) / SPLIT_GRID_STEPS) for c in range(1, SPLIT_GRID_STEPS)
)


class InfeasibleTargetError(MultinetError):
    """The (n, m) target cannot be met: some slack parameter is not positive."""


class DistributionError(MultinetError):
    """Malformed outcome distribution."""


def _validated(probs: tuple) -> list[float]:
    """``probs``, numbers (:func:`check_real`) within 1e-12 of [0, 1] and of summing to 1, clamped into [0, 1]."""
    probs = [check_real(p, "probability", DistributionError, -1e-12, 1 + 1e-12) for p in probs]
    if abs(sum(probs) - 1.0) > 1e-12:
        raise DistributionError(f"probabilities sum to {sum(probs)}, not 1")
    return [min(1.0, max(0.0, p)) for p in probs]


def entropy(probs: Sequence[float]) -> float:
    """Shannon entropy in bits, with 0*log(0) taken as 0."""
    return _statistics(probs)[0]


def _statistics(probs: Sequence[float]) -> tuple[float, float, float]:
    """:func:`_spread_and_variance` of ``probs``.  A non-sequence, or a bool entry, which would read its
    number's cache entry, raises :class:`DistributionError`."""
    try:
        key = tuple(probs)
        return _spread_and_variance(key) if bool not in map(type, key) else _validated(key)
    except TypeError:  # not a sequence, or an unhashable entry
        raise DistributionError(f"probabilities must be a sequence of numbers, got {probs!r}") from None


@functools.lru_cache(maxsize=1024)
def _spread_and_variance(probs: tuple[float, ...]) -> tuple[float, float, float]:
    """Entropy S, spread a = max |-log2 p - S| and variance V of -log2 p.

    Zero-probability outcomes are excluded so the logarithms stay finite.
    Cached by the distribution; a miss validates it, and as the cache keeps
    no exception, a malformed distribution raises on every call.
    """
    s = -sum(p * math.log2(p) for p in _validated(probs) if p > 0.0)
    nonzero = [p for p in probs if p > 0.0]
    a = max(abs(-math.log2(p) - s) for p in nonzero)
    v = sum(p * math.log2(p) ** 2 for p in nonzero) - s * s
    return s, a, max(0.0, v)


def bennett_loss(probs: Sequence[float], n: int, delta: float) -> float:
    """Total failure weight 2*exp(-n (V/a^2) h(a delta/V)) + 2^(-n delta).

    Returned unclamped so callers can form high-precision products of many
    near-one success factors.  Degenerate deterministic distributions
    (S = 0, so a = V = 0) have no concentration failure mode and contribute
    only the identification term.
    """
    if (n := check_integer(n, "n", MultinetError)) < 1:
        raise InfeasibleTargetError(f"need at least one input copy, got n={n}")
    delta = check_real(delta, "slack delta", InfeasibleTargetError, 0.0, math.inf, closed=False)
    s, a, v = _statistics(probs)
    return _loss(a, v, _constant(s, a, v, n), n, delta)


def _constant(s: float, a: float, v: float, n: int) -> float | None:
    """The Bennett constant k = -n*(V/a^2) of a distribution's S, a, V at n; None where S, a or V is 0."""
    return None if s == 0.0 or a == 0.0 or v == 0.0 else -n * (v / (a * a))


def _loss(a: float, v: float, k: float | None, n: int, delta: float) -> float:
    """The failure weight of :func:`bennett_loss` from a distribution's a, V and :func:`_constant` k.

    ``n >= 1`` and ``delta > 0`` are the caller's to check.
    """
    if k is None:
        concentration = 0.0
    else:
        u = a * delta / v
        concentration = 2.0 * math.exp(k * ((1.0 + u) * math.log1p(u)))
    return concentration + 2.0 ** (-n * delta)


def bennett_success(probs: Sequence[float], n: int, delta: float) -> float:
    """Lower bound on the success probability of identifying one string.

    Clamped into [0, 1]; strictly increasing in n and in delta wherever the
    bound is informative.
    """
    return max(0.0, 1.0 - bennett_loss(probs, n, delta))


class HashingRun(NamedTuple):
    """One evaluation of the finite-size machinery."""

    n: int
    m: int
    delta_by_color: dict[int, float]
    delta_by_vertex: dict[int, float]
    fidelity_by_vertex: dict[int, float]
    fidelity: float


def _check_target(n: int, m: int) -> tuple[int, int]:
    """(n, m) as ints; raises :class:`InfeasibleTargetError` unless 1 <= m <= n, after plain :class:`MultinetError`,
    which no search reads as falling short, unless they are integers."""
    if type(n) is not int or type(m) is not int:  # a bool is an int, but not of type int
        n, m = check_integer(n, "n", MultinetError), check_integer(m, "m", MultinetError)
    if not 1 <= m <= n:
        raise InfeasibleTargetError(f"need 1 <= m <= n, got n={n} m={m}")
    return n, m


def bipartite_bound(probs: Sequence[float], n: int, m: int) -> HashingRun:
    """Finite-size bound for hashing an ensemble of Bell-diagonal pairs.

    The slack is derived from the target: delta = (1 - S - m/n)/2.  Raises
    :class:`InfeasibleTargetError` when the entropy already exceeds the
    requested yield.
    """
    n, m = _check_target(n, m)
    s, a, v = _statistics(probs)
    delta = 0.5 * (1.0 - s - m / n)
    if delta <= 0.0:
        raise InfeasibleTargetError(
            f"target m/n={m}/{n} unreachable: entropy {s:.6f} leaves slack {delta:.6f}"
        )
    f = max(0.0, 1.0 - _loss(a, v, _constant(s, a, v, n), n, delta))
    return HashingRun(n, m, {0: delta}, {0: delta}, {0: f}, f)


# -- multipartite machinery ----------------------------------------------------


class MarginalClass(NamedTuple):
    """A group of vertices sharing one binary marginal and one color.

    A malformed class raises :class:`DistributionError` wherever it is used.
    """

    lambda1: float
    color: int
    count: int

    @property
    def distribution(self) -> tuple[float, float]:
        lam = check_real(self.lambda1, "class lambda1", DistributionError)
        return (1.0 - lam, lam)

    @property
    def entropy(self) -> float:
        return _spread_and_variance(self.distribution)[0]


class _SplitBound:
    """The class-level bound for one (classes, n), as a function of m and the split.

    One pass checks each class and reads its (S, a, V) once.  Kept: each color's largest entropy S_c
    (``s_color``); the active colors, S_c > 0, sorted (``colors``); per active color, one row (count,
    gap, a, V, k) per class of positive entropy, gap = (S_c - S_k)/2 and k = :func:`_constant` at n.
    A color of deterministic marginals only is known unmeasured: it uses no budget and always succeeds.
    """

    def __init__(self, classes: Iterable[MarginalClass], n: int):
        stats: dict[int, list] = {}  # color -> (count, S, a, V) per class
        try:
            for c in classes:
                count, lam, color = c.count, c.lambda1, c.color
                if type(count) is not int or count < 0:
                    count = check_integer(count, "class count", DistributionError, 0)
                if type(lam) is not float:  # a bool would read its number's cache entry, a str raise TypeError
                    lam = check_real(lam, "class lambda1", DistributionError)
                if type(color) is not int:  # True or 1.0 would join color 1, and 0 and "a" not sort
                    color = check_integer(color, "class color", DistributionError)
                if count:
                    stats.setdefault(color, []).append((count, *_spread_and_variance((1.0 - lam, lam))))
        except (TypeError, AttributeError):  # no sequence, or an entry no MarginalClass
            raise DistributionError(f"classes must be a sequence of MarginalClass, got {classes!r}") from None
        self.n = n
        self.s_color = {color: max(row[1] for row in rows) for color, rows in stats.items()}
        self.colors = sorted(color for color, s in self.s_color.items() if s > 0.0)
        self.entropy = sum(self.s_color[color] for color in self.colors)
        self.rows = [
            [(count, 0.5 * (self.s_color[color] - s), a, v, _constant(s, a, v, n))
             for count, s, a, v in stats[color] if s != 0.0]
            for color in self.colors
        ]

    def budget(self, m: int) -> float:
        """The total slack Delta at m, after checking 1 <= m <= n.

        Raises :class:`InfeasibleTargetError` when it is not positive and
        some color is active; without one, nothing uses it.
        """
        _check_target(self.n, m)
        budget = 0.5 * (1.0 - self.entropy - m / self.n)
        if self.colors and budget <= 0.0:
            raise InfeasibleTargetError(
                f"target m/n={m}/{self.n} unreachable: color entropies sum to {self.entropy:.6f}"
            )
        return budget

    def fold(self, i: int, slack: float, log_f: float = 0.0, worst: float = 0.0) -> tuple[float, float]:
        """``log_f`` plus color i's terms count*log1p(-loss) at ``slack``, -inf once a loss
        reaches 1, and the largest of ``worst`` and those losses."""
        n = self.n
        for count, gap, a, v, k in self.rows[i]:
            loss = _loss(a, v, k, n, slack + gap)
            if loss >= 1.0:
                return -math.inf, loss
            log_f += count * math.log1p(-loss)
            if loss > worst:
                worst = loss
        return log_f, worst

    def fidelity(self, slacks: Sequence[float]) -> float:
        """The bound when ``colors[i]`` gets the (positive) slack ``slacks[i]``."""
        log_f = 0.0
        for i in range(len(self.rows)):
            if log_f > -math.inf:
                log_f = self.fold(i, slacks[i], log_f)[0]
        return math.exp(log_f)


def multipartite_bound_classes(
    classes: Sequence[MarginalClass],
    n: int,
    m: int,
    delta_split: dict[int, float] | None = None,
) -> tuple[float, dict[int, float]]:
    """Global fidelity bound from per-class marginals.

    ``delta_split`` maps each active color to its fraction of the total
    slack (fractions must sum to 1); by default the slack is split equally.
    Returns (F, delta-by-color).  Classes with identical marginals are the
    natural unit here, so lattice-scale products cost one Bennett evaluation
    per class rather than per vertex.
    """
    n, m = _check_target(n, m)  # before the classes are validated, unlike the optimizer
    return _at_split(_SplitBound(classes, n), m, delta_split)


def _at_split(bound: _SplitBound, m: int, delta_split: dict[int, float] | None) -> tuple[float, dict[int, float]]:
    """:func:`multipartite_bound_classes` on the classes of ``bound``."""
    budget = bound.budget(m)
    colors = bound.colors
    if not colors:
        return 1.0, {}
    if delta_split is None:  # the share is positive, as a positive budget is no subnormal
        share = budget * (1.0 / len(colors))
        return bound.fidelity([share] * len(colors)), dict.fromkeys(colors, share)
    try:
        if set(delta_split) != set(colors):
            raise InfeasibleTargetError(f"split given for colors {sorted(delta_split)}, active colors are {colors}")
        if not abs(sum(delta_split.values()) - 1.0) <= 1e-9:  # NaN fails too
            raise InfeasibleTargetError("split fractions must sum to 1")
        delta_color = {c: budget * delta_split[c] for c in colors}
        if not all(d > 0.0 for d in delta_color.values()):
            raise InfeasibleTargetError("every active color needs a positive slack share")
    except (TypeError, AttributeError):  # no mapping, or fractions no numbers
        raise InfeasibleTargetError(f"split must map each active color to a fraction, got {delta_split!r}") from None
    return bound.fidelity(list(delta_color.values())), delta_color


def vertex_classes(
    g: Graph, coloring: dict[int, int], marginals: Sequence[BitMarginal]
) -> tuple[list[MarginalClass], dict[int, tuple[float, int]]]:
    """Group the vertices of ``g`` into classes of equal (lambda1, color).

    Returns the classes, sorted by (lambda1, color), and each vertex's
    (lambda1, color) key, in the order of ``marginals``.  Raises
    :class:`InfeasibleTargetError` unless ``coloring`` colors every vertex
    of ``g`` properly, and :class:`DistributionError` unless ``marginals``
    holds exactly one marginal per vertex of ``g`` (or ``coloring`` is no mapping).
    """
    key_by_vertex: dict[int, tuple[float, int]] = {}
    try:
        uncolored = [v for v in check_instance(g, Graph, "graph", MultinetError).vertices() if v not in coloring]
        if uncolored:
            raise InfeasibleTargetError(f"coloring misses vertices {uncolored}")
        for a, b in g.edges():
            if coloring[a] == coloring[b]:
                raise InfeasibleTargetError(f"improper coloring: edge ({a},{b}) inside one color")
        for marg in marginals:
            if not g.has_vertex(marg.vertex):
                raise DistributionError(f"marginal given for vertex {marg.vertex}, which is not in the graph")
            if marg.vertex in key_by_vertex:
                raise DistributionError(f"more than one marginal given for vertex {marg.vertex}")
            key_by_vertex[marg.vertex] = (marg.lambda1, coloring[marg.vertex])
    except (TypeError, AttributeError):  # a coloring no container, marginals no sequence of BitMarginal
        raise DistributionError(f"coloring {coloring!r} must map vertices to colors, marginals {marginals!r} "
                                "be a sequence of BitMarginal") from None
    missing = [v for v in g.vertices() if v not in key_by_vertex]
    if missing:
        raise DistributionError(f"marginals missing for vertices {missing}")
    counts = sorted(collections.Counter(key_by_vertex.values()).items())
    return [MarginalClass(lambda1=lam, color=col, count=cnt) for (lam, col), cnt in counts], key_by_vertex


def multipartite_bound(
    g: Graph,
    coloring: dict[int, int],
    marginals: Sequence[BitMarginal],
    n: int,
    m: int,
    delta_split: dict[int, float] | None = None,
) -> HashingRun:
    """Finite-size bound for multipartite hashing of a colored graph state.

    ``marginals`` must hold one marginal per vertex of ``g`` (see
    :func:`vertex_classes`).  The per-vertex slack and success probability
    are reported alongside the global product bound.  A class of an
    inactive color, or of zero entropy, needs no identification: its
    vertices get slack 0 and success 1.
    """
    classes, key_by_vertex = vertex_classes(g, coloring, marginals)
    n, m = _check_target(n, m)
    bound = _SplitBound(classes, n)
    fidelity, delta_color = _at_split(bound, m, delta_split)
    by_class: dict[tuple[float, int], tuple[float, float]] = {}
    for cls in classes:
        if cls.color not in delta_color or cls.entropy == 0.0:
            by_class[cls.lambda1, cls.color] = (0.0, 1.0)
            continue
        d_k = delta_color[cls.color] + 0.5 * (bound.s_color[cls.color] - cls.entropy)
        by_class[cls.lambda1, cls.color] = (d_k, bennett_success(cls.distribution, n, d_k))
    delta_by_vertex = {v: by_class[key][0] for v, key in key_by_vertex.items()}
    fidelity_by_vertex = {v: by_class[key][1] for v, key in key_by_vertex.items()}
    return HashingRun(n, m, delta_color, delta_by_vertex, fidelity_by_vertex, fidelity)


def _log_band(log_f: float, worst: float) -> float:
    """A bound on the rounding error of a computed log F whose largest loss is ``worst``.

    A loss is off by far less than a relative 2^-30 (exp amplifies a few
    roundings by its argument, at most about 745), log1p(-loss) scales that
    by at most 1/(1 - loss), and no term of log F is positive.  The absolute
    part covers terms that underflow; near a loss of 1 no bound is claimed.
    """
    return -log_f * 2.0**-30 / (1.0 - worst) + 2.0**-1000 if worst < 1.0 - 2.0**-20 else math.inf


def _short_near(seen: _Probes, g: int, threshold: float) -> bool:
    """Whether the certificate (module docstring) shows, from the grid walk's memo ``seen`` and its
    best's index ``g``, that no candidate within one grid step of g can reach ``threshold``."""
    if not threshold >= _CERTIFICATE_FLOOR or g - 1 not in seen or g + 1 not in seen:
        return False
    log_t = math.log(threshold)
    cap = seen[g][1] + _log_band(*seen[g][1:])
    floor = min(near[1] - _log_band(*near[1:]) for near in (seen[g - 1], seen[g + 1]))
    return cap + max(0.0, cap - floor) < log_t - 2.0**-19 * abs(log_t) - 2.0**-40  # NaN: no


class _Probes(dict):
    """The walk's memo of two-color ``cands`` at ``budget``: ``probes[j]`` is candidate j's (way, log F, largest
    loss), evaluated on first use; the way to the finite candidates is 1 while the first color's rows are
    infinite, -1 while only the second's are, and 0 at j."""

    __slots__ = ("bound", "budget", "cands")

    def __init__(self, bound: _SplitBound, budget: float, cands):
        self.bound, self.budget, self.cands = bound, budget, cands

    def __missing__(self, j: int) -> tuple[int, float, float]:
        bound, budget, (x0, x1) = self.bound, self.budget, self.cands[j]
        log_f, worst = bound.fold(0, budget * x0)
        way = 1
        if log_f > -math.inf:
            log_f, worst = bound.fold(1, budget * x1, log_f, worst)
            way = 0 if log_f > -math.inf else -1
        self[j] = way, log_f, worst
        return way, log_f, worst


def _peak(probes: _Probes, start: int, best, best_f):
    """:func:`optimize_delta_split_classes`' walk from ``start``: the best split, its F and its index."""
    end = len(probes.cands)
    top = start
    if (way := probes[top][0]) and probes[end - 1 if way > 0 else 0][0] == way:
        return best, best_f, start  # infinite rows even at that color's largest slack
    while way := probes[top][0]:
        top += way
        if probes[top][0] == -way:
            return best, best_f, start  # F = 0 throughout
    peak_log = probes[top][1]
    ends = []
    for step in (1, -1):
        j = top
        while 0 <= j + step < end:
            j += step
            _, log_f, worst = probes[j]
            if log_f == -math.inf:
                break  # and so is every candidate past j
            peak_log = max(peak_log, log_f)
            cap = log_f + _log_band(log_f, worst)
            f_cap = math.exp(cap) if cap < peak_log else 1.0  # F past j is at most f_cap
            if f_cap <= best_f or (f_cap <= math.exp(peak_log) if step > 0 else f_cap < math.exp(peak_log)):
                break
        ends.append(j)
    at = start
    for j in range(ends[1], ends[0] + 1):
        if math.exp(probes[j][1]) > best_f:
            best, best_f, at = probes.cands[j], math.exp(probes[j][1]), j
    return best, best_f, at


def optimize_delta_split_classes(
    classes: Sequence[MarginalClass], n: int, m: int
) -> tuple[dict[int, float], float]:
    """Search the two-color slack split on a grid, maximizing the bound.

    The candidates are the splits in steps of 1/200 (:data:`SPLIT_GRID`)
    and then the 41 points 1/4000 apart around the best one.  The equal
    split comes first, and a candidate replaces the best only if its bound
    is strictly higher.  The result is exactly that of evaluating every
    candidate in order, ties and subnormal bounds included.  With one
    active color the split is trivial; more than two active colors raise
    :class:`MultinetError`.

    log F is concave where finite (see the module docstring):

    1. The equal split, evaluated first through the grid walk's memo
       (:class:`_Probes`), is not evaluated again by the walk.
    2. Each list is walked from the incoming best's candidate: the equal
       split on the grid, the center of the refinement.  A candidate's
       terms are summed one color at a time, so where log F is -inf it
       shows whose rows are infinite.  The first color's rows are finite
       from some candidate on and the second's up to some candidate, so F
       is 0 throughout if the far end of the side they name names it too,
       or if the way turns as the walk steps that way until log F is finite.
    3. A walk outward from that finite candidate stops on each side at
       a candidate j that settles the rest.  log F at j plus its rounding
       band (:func:`_log_band`) caps the exact log F there; if the cap is
       below the best log F found, concavity keeps every candidate past j
       below it, and otherwise F <= 1 does.  j settles its side once
       exp(cap) cannot beat the incoming best, or falls below the best F
       found, or, to the right, ties it, as a later tie never wins.
    4. The strict-improvement rule is replayed over the walked candidates.
    """
    bound = _SplitBound(classes, n)
    split, f = _optimum(bound, m)
    return dict(zip(bound.colors, split)), f


def _optimum(bound: _SplitBound, m: int, threshold: float | None = None) -> tuple[tuple[float, ...], float]:
    """The optimizer's (split in ``colors`` order, F) at m, or, with ``threshold``, a search step.

    A step is settled early where it can be (module docstring): it returns the equal split and its F
    if that F clears ``threshold``, the grid's best and its F if the certificate shows that no
    refinement point can reach ``threshold``, and otherwise the optimizer's result.
    """
    budget = bound.budget(m)
    colors = bound.colors
    if len(colors) > 2:
        raise MultinetError(f"the split search needs at most two active colors, got {len(colors)}")
    if len(colors) < 2:
        return (1.0,) * len(colors), bound.fidelity([budget] * len(colors))
    mid = SPLIT_GRID_STEPS // 2 - 1  # the equal split, (0.5, 0.5)
    grid = _Probes(bound, budget, SPLIT_GRID)
    best, best_f = SPLIT_GRID[mid], math.exp(grid[mid][1])
    if threshold is not None and best_f >= threshold:
        return best, best_f
    best, best_f, g = _peak(grid, mid, best, best_f)
    if threshold is not None and best_f < threshold and _short_near(grid, g, threshold):
        return best, best_f
    lo = best[0] - 1.0 / SPLIT_GRID_STEPS
    fine = SPLIT_GRID_STEPS * SPLIT_REFINE_FACTOR
    xs = [lo + i / fine for i in range(2 * SPLIT_REFINE_FACTOR + 1)]
    center = SPLIT_REFINE_FACTOR - sum(x <= 0.0 for x in xs)
    return _peak(_Probes(bound, budget, [(x, 1.0 - x) for x in xs if 0.0 < x < 1.0]), center, best, best_f)[:2]


def largest_m(value: Callable[[int], float], n: int, threshold: float) -> tuple[int, float]:
    """Largest m in [1, n] with ``value(m) >= threshold``, and the value there.

    Assumes ``value(m) >= threshold`` never turns from false to true as m
    grows; an infeasible target counts as falling short.  (0, 0.0) if even
    m = 1 falls short, or unprobed if n < 1.  Every probe lies in bisection's bracket (lo passes,
    hi + 1 fails), so no m is probed twice and the answer is bisection's.
    A probe is m + 1 after a chord probe passed at m, else a chord probe:
    where the chord on y = log(-log value) between the bracket's ends meets
    the threshold.  It is the bisection point instead where the chord is
    undefined (0, 1 or infeasible at an end, or flat) or the bracket has
    lost less than a bit per two probes, one spare: so at most
    2*(bit_length(n - 1) + 1) probes.
    """
    threshold = check_real(threshold, "threshold", MultinetError, closed=False)
    if (n := check_integer(n, "n", MultinetError)) < 1:
        return 0, 0.0

    def value_or_short(m: int) -> float:
        try:
            return value(m)
        except InfeasibleTargetError:
            return -1.0

    f_lo = value_or_short(1)
    if f_lo < threshold:
        return 0, 0.0
    lo, hi, f_up = 1, n, -1.0  # lo passes with f_lo, hi + 1 fails with f_up (-1.0 until probed)
    credit, confirm = 1, False  # credit: twice the bits the bracket has lost, less the probes, plus one
    while lo < hi:
        mid, chord = (lo + hi + 1) // 2, False
        if credit > 0 and confirm:
            mid = lo + 1
        elif credit > 0 and 0.0 < f_up and f_lo < 1.0:
            y_lo, y_t, y_up = (math.log(-math.log(f)) for f in (f_lo, threshold, f_up))
            if y_lo <= y_t < y_up:
                mid, chord = min(max(lo + 1, lo + int((hi + 1 - lo) * (y_t - y_lo) / (y_up - y_lo))), hi), True
        bits = (hi - lo).bit_length()
        f_mid = value_or_short(mid)
        confirm = chord and f_mid >= threshold
        if f_mid >= threshold:
            lo, f_lo = mid, f_mid
        else:
            hi, f_up = mid - 1, f_mid
        credit += 2 * (bits - (hi - lo).bit_length()) - 1
    return lo, f_lo


def max_output_copies_classes(classes: Sequence[MarginalClass], n: int, threshold: float) -> tuple[int, float]:
    """Largest m in [1, n] whose optimized bound is >= ``threshold``, and that bound; (0, 0.0) if none.

    One :func:`largest_m` over settled steps (:func:`_optimum`), on one :class:`_SplitBound`; the
    answer's step gives F unless the equal split settled it, when m is optimized again.
    """
    bound = _SplitBound(classes, n)
    steps = {}  # m -> the step's (split, F), evaluated on a miss only
    m = largest_m(lambda m: (steps.get(m) or steps.setdefault(m, _optimum(bound, m, threshold)))[1], n, threshold)[0]
    split, f = steps.get(m, ((), 0.0))
    return (m, f) if split != (0.5, 0.5) else (m, _optimum(bound, m)[1])

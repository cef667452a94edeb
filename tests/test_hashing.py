"""Finite-size hashing bounds."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinet.graphstate import Graph, MultinetError, build_graph, color_graph
from multinet.hashing import (
    DistributionError,
    HashingRun,
    InfeasibleTargetError,
    MarginalClass,
    bennett_loss,
    bennett_success,
    bipartite_bound,
    entropy,
    max_output_copies,
    max_output_copies_classes,
    multipartite_bound,
    multipartite_bound_classes,
    optimize_delta_split,
    optimize_delta_split_classes,
)
from multinet.noise import BitMarginal

# frozen with an independent 40-digit evaluation of the same formulas
ENTROPY_0198 = 0.140316123604030
BENNETT_98_02 = 0.999961680553406


def binary_marginals(g, lam_by_vertex):
    return [
        BitMarginal(vertex=v, lambda0=1 - lam_by_vertex[v], lambda1=lam_by_vertex[v])
        for v in g.vertices()
    ]


class TestEntropy:
    def test_deterministic(self):
        assert entropy((1.0, 0.0)) == 0.0

    def test_uniform(self):
        assert entropy((0.5, 0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_binary_value(self):
        assert entropy((0.9802, 0.0198)) == pytest.approx(ENTROPY_0198, abs=1e-12)

    def test_four_outcomes(self):
        assert entropy((0.25,) * 4) == pytest.approx(2.0, abs=1e-15)


class TestBennett:
    def test_degenerate_distribution(self):
        assert bennett_success((1.0, 0.0), 100, 0.495) == pytest.approx(
            1 - 2**-49.5, abs=1e-15
        )

    def test_frozen_value(self):
        assert bennett_success((0.98, 0.02), 1000, 0.05) == pytest.approx(
            BENNETT_98_02, abs=1e-12
        )

    def test_limit_in_n(self):
        values = [bennett_success((0.9, 0.1), n, 0.1) for n in (10, 100, 1000, 10000, 100000)]
        assert values == sorted(values)
        assert values[-1] > 1 - 1e-9

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(InfeasibleTargetError):
            bennett_success((0.9, 0.1), 100, 0.0)

    def test_unknown_h_mode_rejected(self):
        # checked up front, so also where no concentration term is evaluated
        deterministic = [MarginalClass(lambda1=0.0, color=0, count=1)]
        calls = [
            lambda: bennett_success((1.0, 0.0), 100, 0.1, h_mode="bogus"),
            lambda: bennett_success((0.9, 0.1), 100, 0.1, h_mode="bogus"),
            lambda: multipartite_bound_classes(deterministic, 100, 1, h_mode="bogus"),
            lambda: optimize_delta_split_classes(deterministic, 100, 1, h_mode="bogus"),
        ]
        for call in calls:
            with pytest.raises(MultinetError, match="unknown h_mode 'bogus'") as info:
                call()
            assert isinstance(info.value, ValueError)

    def test_standard_h_mode_is_more_conservative(self):
        # dropping the -u term makes h larger, so the simplified bound is higher
        simplified = bennett_success((0.9, 0.1), 200, 0.1, h_mode="simplified")
        standard = bennett_success((0.9, 0.1), 200, 0.1, h_mode="standard")
        assert standard <= simplified

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.005, max_value=0.45),
        st.integers(min_value=10, max_value=5000),
        st.floats(min_value=0.01, max_value=0.4),
    )
    def test_in_unit_interval_and_monotone(self, lam, n, delta):
        d = (1 - lam, lam)
        f = bennett_success(d, n, delta)
        assert 0.0 <= f <= 1.0
        assert bennett_success(d, n + 50, delta) >= f - 1e-15
        assert bennett_success(d, n, delta * 1.1) >= f - 1e-15


class TestBipartite:
    def test_perfect_input(self):
        run = bipartite_bound((1.0, 0.0, 0.0, 0.0), 100, 1)
        assert run.fidelity == pytest.approx(1 - 2**-49.5, abs=1e-15)

    def test_more_copies_help(self):
        q = 0.98
        diag = ((1 + 3 * q**2) / 4,) + ((1 - q**2) / 4,) * 3
        assert bipartite_bound(diag, 800, 1).fidelity >= bipartite_bound(diag, 400, 1).fidelity

    def test_entropy_above_yield_is_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            bipartite_bound((0.25,) * 4, 100, 1)  # S = 2 > 1 - m/n

    def test_asymptotic_yield_boundary(self):
        # m/n at or past 1 - S leaves no slack at any finite n
        diag = (0.9, 0.1, 0.0, 0.0)
        s = entropy(diag)
        n = 1000
        m = math.ceil(n * (1 - s))
        with pytest.raises(InfeasibleTargetError):
            bipartite_bound(diag, n, m)
        assert bipartite_bound(diag, n, m - 50).fidelity > 0.0


class TestMultipartite:
    def star(self, q=0.98):
        g = build_graph("ghz-star", s=3)
        lam = {0: (1 - q**3) / 2, 1: (1 - q**2) / 2, 2: (1 - q**2) / 2}
        return g, color_graph(g), binary_marginals(g, lam)

    def test_monotone_in_n(self):
        g, coloring, margs = self.star()
        f600 = multipartite_bound(g, coloring, margs, 600, 1).fidelity
        f300 = multipartite_bound(g, coloring, margs, 300, 1).fidelity
        assert f600 > f300

    def test_fidelity_is_product_of_vertex_terms(self):
        g, coloring, margs = self.star()
        run = multipartite_bound(g, coloring, margs, 400, 1)
        assert run.fidelity == pytest.approx(
            math.prod(run.fidelity_by_vertex.values()), abs=1e-12
        )

    def test_decreases_with_m(self):
        g, coloring, margs = self.star()
        fids = [multipartite_bound(g, coloring, margs, 600, m).fidelity for m in (1, 50, 150)]
        assert fids == sorted(fids, reverse=True)

    def test_perfect_marginals_give_unit_bound(self):
        g = build_graph("ghz-star", s=3)
        margs = binary_marginals(g, {v: 0.0 for v in g.vertices()})
        run = multipartite_bound(g, color_graph(g), margs, 100, 10)
        assert run.fidelity == pytest.approx(1.0)

    def test_asymptotic_yield_boundary_infeasible(self):
        g, coloring, margs = self.star()
        s_a = entropy(margs[0].distribution)
        s_b = entropy(margs[1].distribution)
        n = 2000
        m = round(n * (1 - s_a - s_b))
        with pytest.raises(InfeasibleTargetError):
            multipartite_bound(g, coloring, margs, n, m)

    def test_single_vertex_equals_bennett(self):
        g = build_graph("ghz-star", s=1)
        lam = 0.03
        margs = binary_marginals(g, {0: lam})
        n, m = 500, 1
        run = multipartite_bound(g, {0: 0}, margs, n, m)
        delta = 0.5 * (1 - entropy((1 - lam, lam)) - m / n)
        assert run.fidelity == pytest.approx(
            bennett_success((1 - lam, lam), n, delta), abs=1e-15
        )

    def test_improper_coloring_rejected(self):
        g, _, margs = self.star()
        with pytest.raises(InfeasibleTargetError):
            multipartite_bound(g, {0: 0, 1: 0, 2: 1}, margs, 400, 1)

    def test_vertex_slack_grows_below_color_maximum(self):
        g = build_graph("ghz-star", s=4)
        lam = {0: 0.03, 1: 0.02, 2: 0.02, 3: 0.005}
        run = multipartite_bound(g, color_graph(g), binary_marginals(g, lam), 800, 1)
        leaf_color_max = run.delta_by_color[1]
        assert run.delta_by_vertex[1] == pytest.approx(leaf_color_max)
        assert run.delta_by_vertex[3] > run.delta_by_vertex[1]

    def test_degenerate_color_consumes_no_budget(self):
        # noise on one color only: the other needs no subprotocol at all
        g, coloring, _ = self.star()
        margs = binary_marginals(g, {0: 0.0, 1: 0.02, 2: 0.02})
        run = multipartite_bound(g, coloring, margs, 200, 1)
        assert set(run.delta_by_color) == {1}
        assert run.fidelity_by_vertex[0] == 1.0
        # the whole slack goes to the noisy color
        s_b = entropy((0.98, 0.02))
        assert run.delta_by_color[1] == pytest.approx(0.5 * (1 - s_b - 1 / 200))


class TestOptimizeSplit:
    def test_never_below_equal_split(self):
        classes = [
            MarginalClass(lambda1=2e-5, color=0, count=1),
            MarginalClass(lambda1=0.02, color=1, count=2),
        ]
        for n in (200, 400, 800):
            equal, _ = multipartite_bound_classes(classes, n, 1)
            split, best = optimize_delta_split_classes(classes, n, 1)
            assert best >= equal
            assert abs(sum(split.values()) - 1.0) < 1e-9

    def test_biased_case_gains(self):
        classes = [
            MarginalClass(lambda1=1.9998e-5, color=0, count=1),
            MarginalClass(lambda1=0.02, color=1, count=2),
        ]
        equal, _ = multipartite_bound_classes(classes, 200, 1)
        _, best = optimize_delta_split_classes(classes, 200, 1)
        assert best > equal + 1e-7

    def test_color_symmetric_case_stays_equal(self):
        lam = 0.0148515
        classes = [MarginalClass(lam, 0, 2), MarginalClass(lam, 1, 2)]
        for n in (200, 600, 2000):
            equal, _ = multipartite_bound_classes(classes, n, 1)
            split, best = optimize_delta_split_classes(classes, n, 1)
            assert best - equal < 1e-6
            assert split == {0: 0.5, 1: 0.5}

    def test_single_color_split_trivial(self):
        g = build_graph("ghz-star", s=1)
        margs = binary_marginals(g, {0: 0.02})
        split, run = optimize_delta_split(g, {0: 0}, margs, 300, 1)
        assert split == {0: 1.0}
        assert run.fidelity == multipartite_bound(g, {0: 0}, margs, 300, 1).fidelity


class TestMaxOutputCopies:
    def star_inputs(self, lam):
        g = build_graph("ghz-star", s=3)
        return g, color_graph(g), binary_marginals(g, {v: lam for v in g.vertices()})

    def test_near_perfect_inputs(self):
        g, coloring, margs = self.star_inputs(0.0)
        m = max_output_copies(g, coloring, margs, 100, 0.9)
        assert m >= 90  # only the delta > 0 requirement holds it below n

    def test_hopeless_inputs(self):
        g, coloring, margs = self.star_inputs(0.35)  # color entropies sum past 1
        assert max_output_copies(g, coloring, margs, 400, 0.9) == 0

    def test_nonincreasing_in_threshold(self):
        g, coloring, margs = self.star_inputs(0.02)
        n = 400
        ms = [max_output_copies(g, coloring, margs, n, thr) for thr in (0.5, 0.9, 0.99)]
        assert ms == sorted(ms, reverse=True)

    def test_result_is_tight(self):
        g, coloring, margs = self.star_inputs(0.02)
        n, thr = 400, 0.9
        m = max_output_copies(g, coloring, margs, n, thr)
        assert optimize_delta_split(g, coloring, margs, n, m)[1].fidelity >= thr
        if m < n:
            try:
                _, run = optimize_delta_split(g, coloring, margs, n, m + 1)
                above = run.fidelity
            except InfeasibleTargetError:
                above = -1.0
            assert above < thr


def reference_class_bound(classes, n, m, delta_split=None):
    """The class-level bound written out from its definition, class by class.

    Every class's entropy and Bennett loss are computed afresh from its
    distribution, with the sums taken in the same order as the library's.
    """
    if not 1 <= m <= n:
        raise InfeasibleTargetError("m out of range")
    by_color = {}
    for cls in classes:
        if cls.count:
            by_color.setdefault(cls.color, []).append(cls)
    s_color = {col: max(entropy(c.distribution) for c in group) for col, group in by_color.items()}
    active = {col for col, s in s_color.items() if s > 0.0}
    if not active:
        return 1.0
    budget = 0.5 * (1.0 - sum(s_color[c] for c in active) - m / n)
    if budget <= 0.0:
        raise InfeasibleTargetError("no budget")
    if delta_split is None:
        delta_split = {c: 1.0 / len(active) for c in active}
    if set(delta_split) != active or abs(sum(delta_split.values()) - 1.0) > 1e-9:
        raise InfeasibleTargetError("bad split")
    delta_color = {c: budget * delta_split[c] for c in active}
    if any(d <= 0.0 for d in delta_color.values()):
        raise InfeasibleTargetError("no slack")
    log_f = 0.0
    for color in sorted(active):
        for cls in by_color[color]:
            s_k = entropy(cls.distribution)
            if s_k == 0.0:
                continue
            delta_k = delta_color[color] + 0.5 * (s_color[color] - s_k)
            loss = bennett_loss(cls.distribution, n, delta_k)
            if loss >= 1.0:
                return 0.0
            log_f += cls.count * math.log1p(-loss)
    return math.exp(log_f)


def outcome(fn):
    try:
        return fn()
    except InfeasibleTargetError:
        return "infeasible"


# mostly mild noise, for which the bound is informative, and the edge cases:
# deterministic marginals, any marginal, and the uniform one (a = V = 0)
LAMBDAS = st.one_of(
    *[st.floats(min_value=1e-9, max_value=0.05)] * 6,
    st.just(0.0),
    st.floats(min_value=0.0, max_value=0.5),
    st.just(0.5),
)


# mildly noisy marginals, for which the search's result usually lies inside (0, n)
SEARCH_LAMBDAS = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.04))


@st.composite
def class_sets(draw, colors=(0, 1, 2), lambdas=LAMBDAS, min_count=0):
    specs = draw(
        st.lists(
            st.tuples(lambdas, st.sampled_from(colors), st.integers(min_value=min_count, max_value=40)),
            min_size=1,
            max_size=4,
        )
    )
    return [MarginalClass(lambda1=lam, color=col, count=cnt) for lam, col, cnt in specs]


class TestEngineMatchesDefinition:
    @settings(max_examples=200, deadline=None)
    @given(class_sets(), st.integers(min_value=20, max_value=20000), st.data())
    def test_bound_equals_reference(self, classes, n, data):
        # mostly small yields, where the bound is informative
        small = st.integers(min_value=1, max_value=n // 20 + 1)
        m = data.draw(small | small | small | st.sampled_from([0, n, n + 1]), label="m")
        colors = sorted({c.color for c in classes})
        weights = data.draw(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=len(colors), max_size=len(colors)),
            label="weights",
        )
        total = sum(weights)
        split = None
        if total > 0.0 and data.draw(st.booleans(), label="explicit split"):
            split = {c: w / total for c, w in zip(colors, weights) if w > 0.0}
        reference = outcome(lambda: reference_class_bound(classes, n, m, split))
        engine = outcome(lambda: multipartite_bound_classes(classes, n, m, delta_split=split)[0])
        assert engine == reference

    @settings(max_examples=60, deadline=None)
    @given(class_sets(colors=(0, 1)), st.integers(min_value=1, max_value=5000), st.data())
    def test_optimized_value_equals_reference_at_its_split(self, classes, n, data):
        m = data.draw(st.integers(min_value=1, max_value=n), label="m")
        found = outcome(lambda: optimize_delta_split_classes(classes, n, m))
        if found == "infeasible":
            assert outcome(lambda: reference_class_bound(classes, n, m)) == "infeasible"
            return
        split, value = found
        assert value == reference_class_bound(classes, n, m, split or None)
        assert value >= reference_class_bound(classes, n, m)


class TestThresholdSearchMonotone:
    @settings(max_examples=40, deadline=None)
    @given(
        class_sets(colors=(0, 1), lambdas=SEARCH_LAMBDAS, min_count=1),
        st.integers(min_value=50, max_value=3000),
        st.floats(min_value=0.05, max_value=0.99),
        st.data(),
    )
    def test_no_larger_m_passes(self, classes, n, threshold, data):
        best = max_output_copies_classes(classes, n, threshold)
        assert 0 <= best <= n
        if best:
            assert optimize_delta_split_classes(classes, n, best)[1] >= threshold
        if best == n:
            return
        larger = {best + 1} | set(
            data.draw(st.lists(st.integers(min_value=best + 1, max_value=n), max_size=3), label="larger m")
        )
        for m in sorted(larger):
            value = outcome(lambda: optimize_delta_split_classes(classes, n, m)[1])
            assert value == "infeasible" or value < threshold, m


def reference_vertex_bound(g, coloring, marginals, n, m, delta_split=None, h_mode="simplified"):
    """The vertex-level bound computed vertex by vertex.

    The global bound comes from the classes of equal (lambda1, color); each
    vertex's slack comes from the largest entropy among the marginals of its
    color, and its success from :func:`bennett_success` on its own marginal.
    """
    counts = {}
    for marg in marginals:
        key = (marg.lambda1, coloring[marg.vertex])
        counts[key] = counts.get(key, 0) + 1
    classes = [MarginalClass(lambda1=lam, color=col, count=cnt) for (lam, col), cnt in sorted(counts.items())]
    fidelity, delta_color = multipartite_bound_classes(classes, n, m, delta_split=delta_split, h_mode=h_mode)
    s_color = {}
    for marg in marginals:
        c = coloring[marg.vertex]
        s_color[c] = max(s_color.get(c, 0.0), entropy(marg.distribution))
    delta_by_vertex = {}
    fidelity_by_vertex = {}
    for marg in marginals:
        c = coloring[marg.vertex]
        s_k = entropy(marg.distribution)
        if c not in delta_color or s_k == 0.0:
            delta_by_vertex[marg.vertex] = 0.0
            fidelity_by_vertex[marg.vertex] = 1.0
            continue
        d_k = delta_color[c] + 0.5 * (s_color[c] - s_k)
        delta_by_vertex[marg.vertex] = d_k
        fidelity_by_vertex[marg.vertex] = bennett_success(marg.distribution, n, d_k, h_mode=h_mode)
    return HashingRun(n, m, delta_color, delta_by_vertex, fidelity_by_vertex, fidelity)


@st.composite
def colored_graphs(draw, colors=(0, 1, 2)):
    """A random properly colored graph and one marginal per vertex, in random order.

    The marginals come from a pool of at most three values, so classes repeat,
    mostly mild ones, so that the target is mostly feasible.
    """
    size = draw(st.integers(min_value=1, max_value=8))
    coloring = {v: draw(st.sampled_from(colors)) for v in range(size)}
    pairs = [(a, b) for a, b in itertools.combinations(range(size), 2) if coloring[a] != coloring[b]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    pool = draw(st.lists(SEARCH_LAMBDAS | SEARCH_LAMBDAS | LAMBDAS, min_size=1, max_size=3))
    # every pool value in use, on randomly chosen vertices
    rank = draw(st.permutations(range(size)))
    lams = [pool[rank[v] % len(pool)] for v in range(size)]
    order = draw(st.permutations(range(size)))
    marginals = [BitMarginal(vertex=v, lambda0=1 - lams[v], lambda1=lams[v]) for v in order]
    return Graph(range(size), edges), coloring, marginals


class TestVertexAdapter:
    @settings(max_examples=200, deadline=None)
    @given(
        colored_graphs(),
        st.integers(min_value=20, max_value=20000),
        st.sampled_from(["simplified", "standard"]),
        st.data(),
    )
    def test_matches_per_vertex_reference(self, inputs, n, h_mode, data):
        g, coloring, marginals = inputs
        small = st.integers(min_value=1, max_value=n // 20 + 1)
        m = data.draw(small | small | small | st.sampled_from([0, n, n + 1]), label="m")
        split = None
        active = sorted({coloring[marg.vertex] for marg in marginals if entropy(marg.distribution) > 0.0})
        if active and data.draw(st.booleans(), label="explicit split"):
            weights = data.draw(
                st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=len(active), max_size=len(active)),
                label="weights",
            )
            split = {c: w / sum(weights) for c, w in zip(active, weights)}
        reference = outcome(lambda: reference_vertex_bound(g, coloring, marginals, n, m, split, h_mode))
        run = outcome(lambda: multipartite_bound(g, coloring, marginals, n, m, delta_split=split, h_mode=h_mode))
        assert run == reference

    @settings(max_examples=40, deadline=None)
    @given(colored_graphs(colors=(0, 1)), st.integers(min_value=1, max_value=5000), st.data())
    def test_optimized_run_is_the_bound_at_its_split(self, inputs, n, data):
        g, coloring, marginals = inputs
        m = data.draw(st.integers(min_value=1, max_value=n), label="m")
        found = outcome(lambda: optimize_delta_split(g, coloring, marginals, n, m))
        if found == "infeasible":
            assert outcome(lambda: multipartite_bound(g, coloring, marginals, n, m)) == "infeasible"
            return
        split, run = found
        assert run == multipartite_bound(g, coloring, marginals, n, m, delta_split=split or None)


def star_with_marginals(lam=0.02):
    g = build_graph("ghz-star", s=3)
    return g, color_graph(g), binary_marginals(g, {v: lam for v in g.vertices()})


VERTEX_ENTRY_POINTS = {
    "multipartite_bound": lambda g, coloring, margs: multipartite_bound(g, coloring, margs, 400, 1),
    "optimize_delta_split": lambda g, coloring, margs: optimize_delta_split(g, coloring, margs, 400, 1),
    "max_output_copies": lambda g, coloring, margs: max_output_copies(g, coloring, margs, 400, 0.9),
}


@pytest.mark.parametrize("entry", VERTEX_ENTRY_POINTS.values(), ids=list(VERTEX_ENTRY_POINTS))
class TestVertexInputChecks:
    def test_partial_coloring(self, entry):
        g, _, margs = star_with_marginals()
        with pytest.raises(InfeasibleTargetError, match="coloring misses vertices"):
            entry(g, {0: 0, 1: 1}, margs)

    def test_off_graph_marginal(self, entry):
        g, coloring, margs = star_with_marginals()
        with pytest.raises(DistributionError, match="not in the graph"):
            entry(g, coloring, margs + [BitMarginal(vertex=7, lambda0=0.98, lambda1=0.02)])

    def test_repeated_marginal(self, entry):
        g, coloring, margs = star_with_marginals()
        with pytest.raises(DistributionError, match="more than one marginal"):
            entry(g, coloring, margs + [margs[1]])

    def test_missing_marginal(self, entry):
        g, coloring, margs = star_with_marginals()
        with pytest.raises(DistributionError, match="marginals missing"):
            entry(g, coloring, margs[:2])


def test_threshold_search_needs_every_marginal():
    # without vertex 2's marginal the search once ran on a two-vertex star and
    # answered 217 copies where the full star supports 212
    g, coloring, margs = star_with_marginals(0.02)
    assert max_output_copies(g, coloring, margs, 400, 0.9) == 212
    with pytest.raises(DistributionError):
        max_output_copies(g, coloring, margs[:2], 400, 0.9)

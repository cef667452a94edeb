"""Finite-size hashing bounds."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multinet import hashing, schemes
from multinet.cli import load_config_source, parse_config, run_experiment
from multinet.graphstate import Graph, MultinetError, build_graph, color_graph
from multinet.hashing import (
    DistributionError,
    HashingRun,
    InfeasibleTargetError,
    MarginalClass,
    _SplitBound,
    bennett_loss,
    bennett_success,
    bipartite_bound,
    entropy,
    largest_m,
    max_output_copies_classes,
    multipartite_bound,
    multipartite_bound_classes,
    optimize_delta_split_classes,
)
from multinet.noise import BitMarginal
from multinet.schemes import Architecture, StorageModel, cluster_architecture_run, from_bell_run

from extras import max_output_copies, optimize_delta_split

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


NON_FINITE = [math.nan, math.inf, -math.inf]

DISTRIBUTION_ENTRY_POINTS = {
    "entropy": lambda x: entropy((x, 1.0)),
    "bennett_loss": lambda x: bennett_loss((x, 1.0), 100, 0.1),
    "bipartite_bound": lambda x: bipartite_bound((x, 1.0, 0.0, 0.0), 100, 1),
    "multipartite_bound_classes": lambda x: multipartite_bound_classes([MarginalClass(x, 0, 1)], 100, 1),
    "optimize_delta_split_classes": lambda x: optimize_delta_split_classes(
        [MarginalClass(0.01, 0, 1), MarginalClass(x, 1, 1)], 100, 1
    ),
    "max_output_copies_classes": lambda x: max_output_copies_classes([MarginalClass(x, 0, 1)], 100, 0.9),
}


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("entry", DISTRIBUTION_ENTRY_POINTS.values(), ids=list(DISTRIBUTION_ENTRY_POINTS))
def test_non_finite_probability_rejected(entry, value):
    # NaN fails every comparison, so a range check written as "p < lo or
    # p > hi" would let it through
    with pytest.raises(DistributionError):
        entry(value)


@pytest.mark.parametrize(
    "lambda1, probs",
    [(1.5, (0.25, 0.25, 0.25, 0.5)), (-0.5, (-0.25, 0.75, 0.25, 0.25)), (math.nan, (math.nan, 0.5, 0.25, 0.25))],
    ids=["1.5", "-0.5", "nan"],
)
def test_malformed_class_raises_on_every_use(lambda1, probs):
    # the constants' cache keeps no exception, so a second use raises again,
    # for a class and for a pair distribution (a sum past 1, a negative entry, NaN)
    bad = MarginalClass(lambda1, 0, 1)
    for _ in range(2):
        with pytest.raises(DistributionError):
            bad.entropy
        with pytest.raises(DistributionError):
            multipartite_bound_classes([bad], 100, 1)
        with pytest.raises(DistributionError):
            bennett_loss(probs, 100, 0.1)
        with pytest.raises(DistributionError):
            bipartite_bound(probs, 100, 1)


@pytest.mark.parametrize("count", [2.5, 2.0, True, "2", -1], ids=["half", "float", "bool", "string", "negative"])
def test_class_count_must_be_a_nonnegative_integer(count):
    # a count of 2.5 counted as two and a half vertices, and True as one
    # (classes of counts 2.5 and True gave F = 0.99999999998 at n = 800, m = 100)
    classes = [MarginalClass(0.03, 0, count), MarginalClass(0.03, 1, 1)]
    for call in (
        lambda: multipartite_bound_classes(classes, 800, 100),
        lambda: optimize_delta_split_classes(classes, 800, 100),
        lambda: max_output_copies_classes(classes, 800, 0.9),
    ):
        with pytest.raises(DistributionError, match="class count must be an integer >= 0, got"):
            call()


@pytest.mark.parametrize("color", [True, 1.0, 1.5, "a", None, [0]], ids=repr)
def test_class_color_must_be_an_integer(color):
    # True and 1.0 joined color 1, and colors 0 and "a" ended in a TypeError from sorting them
    classes = [MarginalClass(0.03, 0, 1), MarginalClass(0.02, color, 10)]
    for call in (
        lambda: multipartite_bound_classes(classes, 800, 100),
        lambda: optimize_delta_split_classes(classes, 800, 100),
        lambda: max_output_copies_classes(classes, 800, 0.9),
    ):
        with pytest.raises(DistributionError, match="class color must be an integer, got"):
            call()


@pytest.mark.parametrize("lambda1", ["2", None, [1], True], ids=repr)
def test_class_lambda1_must_be_a_number(lambda1):
    # "2", None and [1] raised a TypeError from 1.0 - lambda1, and True read the cache entry of 1
    bad = MarginalClass(lambda1, 0, 1)
    for read in (lambda: bad.distribution, lambda: bad.entropy):
        with pytest.raises(DistributionError, match="class lambda1 must be in"):
            read()


def test_list_and_tuple_share_one_cache_entry():
    hashing._spread_and_variance.cache_clear()
    probs = [0.91, 0.04, 0.03, 0.02]
    assert bennett_loss(probs, 100, 0.1) == bennett_loss(tuple(probs), 100, 0.1)
    assert hashing._spread_and_variance.cache_info().misses == 1


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

    def test_subnormal_lambda_leaves_the_identification_loss(self):
        # u = a*delta/V overflows to inf, so the concentration term is 0
        assert bennett_loss((1 - 1e-315, 1e-315), 100, 0.1) == 2**-10

    def test_subnormal_lambda_class_bounds_are_finite(self):
        single = [MarginalClass(lambda1=4e-320, color=0, count=1)]
        pair = single + [MarginalClass(lambda1=4e-320, color=1, count=1)]
        assert 0.0 < multipartite_bound_classes(single, 100, 1)[0] < 1.0
        assert 0.0 < optimize_delta_split_classes(pair, 100, 1)[1] < 1.0

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

    @pytest.mark.parametrize(
        "split", [{0: math.nan, 1: 0.5}, {0: 0.5, 1: math.nan}, {0: math.nan, 1: math.nan}], ids=repr
    )
    def test_nan_split_fraction_rejected(self, split):
        # NaN fails every comparison, so a check written as "sum off by more
        # than 1e-9" or "share <= 0" let it through, as F = nan
        g, coloring, margs = self.star()
        classes = hashing.vertex_classes(g, coloring, margs)[0]
        with pytest.raises(InfeasibleTargetError):
            multipartite_bound_classes(classes, 400, 1, delta_split=split)
        with pytest.raises(InfeasibleTargetError):
            multipartite_bound(g, coloring, margs, 400, 1, delta_split=split)

    def test_classes_grouped_once(self, monkeypatch):
        # the per-vertex slacks read each color's entropy off the split bound
        g, coloring, margs = self.star()
        assert groupings(monkeypatch, lambda: multipartite_bound(g, coloring, margs, 400, 1))[0] == 1

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


# the marginals at the edges of a row: subnormal (a huge spread, V near the subnormals), uniform (a = V = 0),
# deterministic (no row) either way
ROW_EDGE_LAMBDAS = [5e-324, 1e-315, 2.0**-1022, 0.5, 0.0, 1.0]


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

    @settings(max_examples=200, deadline=None)
    @given(
        class_sets(colors=(0, 1), lambdas=LAMBDAS | st.sampled_from(ROW_EDGE_LAMBDAS)),
        st.integers(min_value=1, max_value=10**9),
        st.floats(min_value=1e-12, max_value=1.0),
    )
    @example([MarginalClass(1e-315, 0, 3), MarginalClass(0.02, 0, 2)], 100, 0.1)
    @example([MarginalClass(5e-324, 0, 1), MarginalClass(0.5, 1, 4), MarginalClass(0.0, 1, 2)], 800, 0.05)
    @example([MarginalClass(1.0, 0, 5), MarginalClass(0.5, 0, 1), MarginalClass(0.01, 1, 7)], 10**6, 1e-6)
    def test_fold_losses_equal_bennett_loss(self, classes, n, slack):
        # each row's loss at a color slack is bennett_loss at that slack plus the class's gap, bit for bit,
        # and fold sums count*log1p(-loss) over them in class order, stopping at a loss of 1
        bound = _SplitBound(classes, n)
        for i, color in enumerate(bound.colors):
            group = [c for c in classes if c.color == color and c.count]
            s_color = max(c.entropy for c in group)
            log_f, worst = 0.0, 0.0
            for c in group:
                if c.entropy == 0.0:
                    continue
                loss = bennett_loss(c.distribution, n, slack + 0.5 * (s_color - c.entropy))
                if loss >= 1.0:
                    log_f, worst = -math.inf, loss
                    break
                log_f += c.count * math.log1p(-loss)
                worst = max(worst, loss)
            assert repr(bound.fold(i, slack)) == repr((log_f, worst))

    def test_split_bound_looks_up_each_class_once(self, monkeypatch):
        # one (S, a, V) lookup per counted class, repeated lambdas and zero-entropy classes included, and
        # none more at the equal split; zero-count classes are checked but never looked up
        classes = [MarginalClass(0.02, 0, 3), MarginalClass(0.02, 1, 2), MarginalClass(0.0, 1, 4),
                   MarginalClass(0.01, 0, 1), MarginalClass(0.04, 1, 0), MarginalClass(0.03, 1, 5)]
        calls = []
        lookup = hashing._spread_and_variance

        def counted(probs):
            calls.append(probs)
            return lookup(probs)

        monkeypatch.setattr(hashing, "_spread_and_variance", counted)
        _SplitBound(classes, 800)
        assert len(calls) == 5
        calls.clear()
        multipartite_bound_classes(classes, 800, 100)
        assert len(calls) == 5

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
        best, f = max_output_copies_classes(classes, n, threshold)
        assert 0 <= best <= n
        if best:
            assert f == optimize_delta_split_classes(classes, n, best)[1] >= threshold
        if best == n:
            return
        larger = {best + 1} | set(
            data.draw(st.lists(st.integers(min_value=best + 1, max_value=n), max_size=3), label="larger m")
        )
        for m in sorted(larger):
            value = outcome(lambda: optimize_delta_split_classes(classes, n, m)[1])
            assert value == "infeasible" or value < threshold, m


def plain_bisection(value, n, threshold):
    """The bisection that :func:`largest_m` was before it stepped by chords: the reference for its answers."""

    def value_or_short(m):
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


# how -log F moves per m along a segment: kept (a plateau; F stays exactly 1
# from the start), scaled up fast or barely, or sent to infinity (F = 0)
DECAYS = {
    "plateau": lambda load, rate: load,
    "steep": lambda load, rate: load * (1.0 + 100.0 * rate) + 10.0 * rate,
    "decay": lambda load, rate: load * (1.0 + 0.1 * rate) + 0.01 * rate,
    "flat": lambda load, rate: load + 1e-9 * rate,
    "zero": lambda load, rate: math.inf,
}


@st.composite
def monotone_searches(draw):
    """(values, threshold): a nonincreasing F at m = 1..n, None past an infeasible tail, or lower bounds
    of it that keep the decision (drawn in [t, F] where F >= t, in [0, F] below), which can rise with m."""
    segments = draw(st.lists(
        st.tuples(st.sampled_from(sorted(DECAYS)), st.integers(min_value=0, max_value=400),
                  st.floats(min_value=0.0, max_value=1.0)),
        min_size=1, max_size=6,
    ), label="segments")
    load, f = 0.0, []
    for kind, length, rate in segments:
        for _ in range(length):
            load = DECAYS[kind](load, rate)
            f.append(math.exp(-load))
    f = f or [1.0]
    feasible = draw(st.integers(min_value=0, max_value=len(f)) | st.just(len(f)), label="feasible m")
    inside = [v for v in f if 0.0 < v < 1.0]
    threshold = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
                     | (st.sampled_from(inside) if inside else st.nothing()), label="threshold")
    if draw(st.booleans(), label="lower bounds"):
        rng = draw(st.randoms(use_true_random=True))  # seeded by the draw, cheap per number
        f = [threshold + (v - threshold) * rng.random() if v >= threshold else v * rng.random() for v in f]
    return [v if m <= feasible else None for m, v in enumerate(f, 1)], threshold


class TestLargestM:
    @staticmethod
    def search(values, threshold, search=largest_m):
        """``search`` over ``values`` (None: infeasible) and the m it probed, in order."""
        probed = []

        def value(m):
            probed.append(m)
            if values[m - 1] is None:
                raise InfeasibleTargetError(f"m = {m} is infeasible")
            return values[m - 1]

        return search(value, len(values), threshold), probed

    @settings(max_examples=300, deadline=None)
    @given(monotone_searches())
    @example(([0.99, 0.98, 0.904, 0.984, 0.5], 0.9))  # passing values that rise, as equal-split F can
    @example(([1.0] * 50 + [0.0] * 50, 0.5))
    @example(([1.0] * 30 + [None] * 70, 0.999))
    @example(([0.09992497928518063] * 3 + [0.09992497928518061] * 5, 0.09992497928518063))  # y alike at both ends
    def test_matches_a_linear_scan(self, search):
        values, threshold = search
        n = len(values)
        (m, f), probed = self.search(values, threshold)
        passing = [k for k, v in enumerate(values, 1) if v is not None and v >= threshold]
        assert (m, f) == ((passing[-1], values[passing[-1] - 1]) if passing else (0, 0.0))
        assert (m, f) == self.search(values, threshold, plain_bisection)[0]
        assert len(probed) == len(set(probed))
        assert len(probed) <= 2 * (n.bit_length() + 1)  # n.bit_length() is ceil(log2(n + 1))

    @pytest.mark.parametrize("threshold", [0.1, 0.5, 0.9])
    def test_fewer_steps_than_bisection_on_a_smooth_bound(self, threshold):
        # -log F growing like exp(m/50): the chord meets the answer in a few
        # steps where bisection takes log2(n)
        values = [math.exp(-1e-6 * math.exp(m / 50)) for m in range(1, 1001)]
        found, probed = self.search(values, threshold)
        reference, bisected = self.search(values, threshold, plain_bisection)
        assert found == reference and len(probed) < len(bisected)

    @pytest.mark.parametrize("n", [0, -5])
    def test_no_copies_is_settled_without_a_probe(self, n):
        # no m in [1, n]: the search probed m = 1 anyway and returned (1, 1.0) at n = 0
        def value(m):
            raise AssertionError(f"value probed at m = {m}")

        assert largest_m(value, n, 0.5) == (0, 0.0)


def reference_vertex_bound(g, coloring, marginals, n, m, delta_split=None):
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
    fidelity, delta_color = multipartite_bound_classes(classes, n, m, delta_split=delta_split)
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
        fidelity_by_vertex[marg.vertex] = bennett_success(marg.distribution, n, d_k)
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
        st.data(),
    )
    def test_matches_per_vertex_reference(self, inputs, n, data):
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
        reference = outcome(lambda: reference_vertex_bound(g, coloring, marginals, n, m, split))
        run = outcome(lambda: multipartite_bound(g, coloring, marginals, n, m, delta_split=split))
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


def full_scan_split(classes, n, m):
    """The slack-split optimizer as a plain scan that evaluates every candidate.

    The equal split first, then every point of the 1/200 grid in
    lexicographic order of its cuts and, with two colors, the 41 points
    1/4000 apart around the best one; a candidate replaces the best only if
    its bound is strictly higher.
    """
    bound = _SplitBound(classes, n)
    budget = bound.budget(m)
    colors = bound.colors
    if not colors:
        return {}, 1.0

    def at(fracs):
        if abs(sum(fracs) - 1.0) > 1e-9:
            return None
        slacks = [budget * frac for frac in fracs]
        if any(d <= 0.0 for d in slacks):
            return None
        return bound.fidelity(slacks)

    best = (1.0 / len(colors),) * len(colors)
    best_f = at(best)

    def scan(candidates):
        nonlocal best, best_f
        for fracs in candidates:
            f = at(fracs)
            if f is not None and f > best_f:
                best_f, best = f, fracs

    if len(colors) > 1:
        grid = []
        for cuts in itertools.combinations(range(1, 200), len(colors) - 1):
            edges = (0,) + cuts + (200,)
            grid.append(tuple((hi - lo) / 200 for lo, hi in zip(edges, edges[1:])))
        scan(grid)
        if len(colors) == 2:
            lo = best[0] - 1.0 / 200
            xs = [lo + i / 4000 for i in range(41)]
            scan([(x, 1.0 - x) for x in xs if 0.0 < x < 1.0])
    return dict(zip(colors, best)), best_f


@st.composite
def split_problems(draw, colors):
    """Classes, n and m for the split optimizer, biased to its hard cases.

    Every color mostly noisy, colors that mirror each other (ties between
    splits), counts up to 4e6 (F near 0), n up to 1e13 (F near 1), and m at
    the edge of feasibility, where the slack and so u are small.
    """
    noisy = st.floats(min_value=1e-9, max_value=0.05)
    lambdas = st.one_of(noisy, noisy, noisy, noisy, LAMBDAS)
    specs = [(draw(noisy), color, draw(st.integers(min_value=1, max_value=40))) for color in colors]
    specs += draw(
        st.lists(
            st.tuples(lambdas, st.sampled_from(colors), st.integers(min_value=0, max_value=40)),
            max_size=3,
        )
    )
    if draw(st.integers(min_value=0, max_value=3), label="mirrored") == 0:
        specs = [(lam, color, count) for lam, _, count in specs[:2] for color in colors]
    scale = 10 ** draw(st.sampled_from([0, 0, 0, 0, 0, 1, 3, 5]), label="count scale")
    classes = [MarginalClass(lambda1=lam, color=color, count=count * scale) for lam, color, count in specs]
    typical = st.integers(min_value=200, max_value=20000)
    tiny, huge = st.integers(min_value=10, max_value=200), st.integers(min_value=10, max_value=10**13)
    n = draw(st.one_of(typical, typical, typical, tiny, huge), label="n")
    s_color = {}
    for cls in classes:
        if cls.count:
            s_color[cls.color] = max(s_color.get(cls.color, 0.0), entropy(cls.distribution))
    edge = math.floor(n * (1.0 - sum(s_color.values())))
    small = st.integers(min_value=1, max_value=n // 20 + 1)
    near_edge = st.integers(min_value=max(1, edge - 3), max_value=max(1, edge + 1))
    anywhere, invalid = st.integers(min_value=1, max_value=n), st.sampled_from([0, n + 1])
    m = draw(st.one_of(small, small, small, small, near_edge, near_edge, anywhere, invalid), label="m")
    return classes, n, m


# fig10m and fig12m points whose best bound is subnormal; at the second and
# third the equal split gives F = 0, and the best split is off the 1/200 grid
SUBNORMAL_OPTIMA = [
    ([MarginalClass(0.07532672000000007, 0, 262144), MarginalClass(0.07532672000000007, 1, 262144)], 900, 113),
    (
        [
            MarginalClass(0.05917612023950003, 0, 262144),
            MarginalClass(0.05917612023950003, 1, 196608),
            MarginalClass(0.09891497839607899, 1, 32768),
        ],
        960,
        121,
    ),
    (
        [
            MarginalClass(0.04815605468750006, 0, 229376),
            MarginalClass(0.04815605468750006, 1, 196608),
            MarginalClass(0.08120420325012212, 0, 16384),
            MarginalClass(0.08120420325012212, 1, 32768),
        ],
        993,
        125,
    ),
]

# F is finite only on grid points 104-118 and 84-87, away from the equal split
# (index 99): the walk steps from it, one point at a time, the way its rows name
NARROW_OPTIMA = [
    ([MarginalClass(0.0006287708947664953, 0, 1), MarginalClass(0.004538660510236856, 1, 1)], 13600, 12900),
    ([MarginalClass(0.009348019427979037, 0, 1), MarginalClass(0.00012879928608706772, 1, 100)], 3361, 3075),
]


# no grid point has a finite F: the first color's rows are infinite up to index
# 108 and the second's from 109 on, so the walk from the equal split turns
EMPTY_INTERVAL = ([MarginalClass(1e-06, 0, 1), MarginalClass(0.05, 1, 1)], 200, 133)

# the best grid point is the first (the last, with the colors swapped), and F
# is 0.0 at the equal split: the walk crosses half the grid to reach it, and
# the refinement around it drops its point at x = 0
EDGE_OPTIMA = [
    ([MarginalClass(0.3, 0, 1), MarginalClass(1e-12, 1, 10**12)], 10**13, 1187091005840),
    ([MarginalClass(1e-12, 0, 10**12), MarginalClass(0.3, 1, 1)], 10**13, 1187091005840),
]


def evaluations(monkeypatch, fn):
    """The number of splits ``fn()`` evaluates, and its result.

    Every split looked at, even one left at an infinite first color, starts
    with the first color's terms.
    """
    calls = 0
    fold = _SplitBound.fold

    def counted(self, i, *args):
        nonlocal calls
        calls += i == 0
        return fold(self, i, *args)

    with monkeypatch.context() as patch:
        patch.setattr(_SplitBound, "fold", counted)
        result = fn()
    return calls, result


def search_steps(monkeypatch, fn):
    """The number of values every :func:`largest_m` in ``fn()`` reads (one per step), and its result."""
    calls = 0

    def counted(value, n, threshold):
        def step(m):
            nonlocal calls
            calls += 1
            return value(m)

        return largest_m(step, n, threshold)

    with monkeypatch.context() as patch:
        patch.setattr(hashing, "largest_m", counted)
        patch.setattr(schemes, "largest_m", counted)
        result = fn()
    return calls, result


def run_threshold_presets():
    for name in ("fig9m", "fig10m", "fig11m", "fig12m", "fig13m"):
        run_experiment(parse_config(*load_config_source(name)))


def groupings(monkeypatch, fn):
    """The number of times ``fn()`` groups classes (``_SplitBound`` constructions), and its result."""
    calls = 0
    build = _SplitBound.__init__

    def counted(self, classes, n):
        nonlocal calls
        calls += 1
        build(self, classes, n)

    with monkeypatch.context() as patch:
        patch.setattr(_SplitBound, "__init__", counted)
        result = fn()
    return calls, result


def constants_runs(monkeypatch, fn):
    """The distributions whose (S, a, V) ``fn()`` computes, once per computation, and its result.

    Every computation of the constants starts with ``_validated``.
    """
    runs = []
    compute = hashing._validated

    def counted(probs):
        runs.append(tuple(probs))
        return compute(probs)

    with monkeypatch.context() as patch:
        patch.setattr(hashing, "_validated", counted)
        result = fn()
    return runs, result


def fig11m_search():
    """The scenario's search for fig11m's 64x64 shifted-grid b=2 point at q = 0.98
    (n = 800, answer m = 198 at threshold 0.9)."""
    arch = Architecture("shifted-grid", (64, 64), 2)
    return cluster_architecture_run(arch, StorageModel("global", 4915200), 0.98, threshold=0.9)


class TestPrunedSplitScan:
    @settings(max_examples=300, deadline=None)
    @given(split_problems(colors=(0, 1)))
    @example(SUBNORMAL_OPTIMA[0])
    @example(SUBNORMAL_OPTIMA[1])
    @example(SUBNORMAL_OPTIMA[2])
    @example(NARROW_OPTIMA[0])
    @example(NARROW_OPTIMA[1])
    @example(EMPTY_INTERVAL)
    @example(EDGE_OPTIMA[0])
    @example(EDGE_OPTIMA[1])
    def test_two_colors_match_full_scan(self, problem):
        classes, n, m = problem
        found = outcome(lambda: optimize_delta_split_classes(classes, n, m))
        assert found == outcome(lambda: full_scan_split(classes, n, m))

    @settings(max_examples=300, deadline=None)
    @given(
        class_sets(lambdas=SEARCH_LAMBDAS),
        st.integers(min_value=20, max_value=10**9),
        st.lists(st.floats(min_value=1e-12, max_value=0.5), min_size=3, max_size=3),
        st.data(),
    )
    def test_bound_never_falls_as_a_slack_grows(self, classes, n, slacks, data):
        # the bound is monotone in every slack once rounded, even between
        # adjacent floats
        bound = _SplitBound(classes, n)
        color = data.draw(st.integers(min_value=0, max_value=2), label="color")
        grown = list(slacks)
        adjacent = st.just(math.nextafter(slacks[color], math.inf))
        larger = st.floats(min_value=slacks[color], max_value=1.0)
        grown[color] = data.draw(adjacent | larger, label="grown slack")
        assert bound.fidelity(grown) >= bound.fidelity(slacks)

    @settings(max_examples=150, deadline=None)
    @given(split_problems(colors=(0, 1)), st.integers(min_value=1, max_value=199))
    @example(SUBNORMAL_OPTIMA[1], 126)
    def test_log_bound_concave_within_band(self, problem, k):
        # what the two-color search stands on: along the 1/200 grid and the
        # 1/4000 refinement around any grid point, log F is finite on one
        # interval, where no second difference exceeds its points' bands
        classes, n, m = problem
        bound = _SplitBound(classes, n)
        try:
            budget = bound.budget(m)
        except InfeasibleTargetError:
            return
        if len(bound.colors) != 2:
            return
        refinement = [(x, 1.0 - x) for x in ((k - 1) / 200 + i / 4000 for i in range(41)) if 0.0 < x < 1.0]
        for cands in (hashing.SPLIT_GRID, refinement):
            logs = [bound.fold(1, budget * x1, *bound.fold(0, budget * x0)) for x0, x1 in cands]
            finite = [j for j, (log_f, _) in enumerate(logs) if log_f > -math.inf]
            assert finite == list(range(min(finite, default=0), max(finite, default=-1) + 1))
            points = [(logs[j][0], hashing._log_band(*logs[j])) for j in finite]
            for (a, band_a), (b, band_b), (c, band_c) in zip(points, points[1:], points[2:]):
                assert a - 2 * b + c <= band_a + 2 * band_b + band_c

    @staticmethod
    def bound_evaluations(monkeypatch, classes, n, m):
        return evaluations(monkeypatch, lambda: optimize_delta_split_classes(classes, n, m))[0]

    def test_whole_threshold_search(self, monkeypatch):
        # four steps (m = 1 and the answer settled at the equal split, the
        # bisection point m = 401 infeasible, the chord's m = 201 settled by
        # the certificate and m = 199 unsettled) and one full optimization at
        # the answer take 17; bisection's eleven steps took 23, and 200 when
        # each ran the full optimization
        calls, res = evaluations(monkeypatch, fig11m_search)
        assert (res.m, res.n_used) == (198, 800)
        assert calls <= 20

    def test_threshold_presets_evaluation_count(self, monkeypatch):
        # the bound evaluations over the full grids of fig9m-fig13m, 11 708 when
        # the bound was set (16 695 when the search bisected, 22 005 before
        # failing steps were settled at the grid's best); the count is
        # deterministic, so a rise is a slower search
        assert evaluations(monkeypatch, run_threshold_presets)[0] <= 11708

    def test_threshold_presets_search_step_count(self, monkeypatch):
        # the steps of every search, of class and of pair bounds, over the full
        # grids of fig9m-fig13m: 3 990 when the bound was set, 6 888 when the
        # search bisected; deterministic too
        assert search_steps(monkeypatch, run_threshold_presets)[0] <= 3990

    def test_threshold_search_groups_its_classes_once(self, monkeypatch):
        # one split bound serves the four steps and the run at the answer
        calls, res = groupings(monkeypatch, fig11m_search)
        assert (res.m, calls) == (198, 1)

    def test_threshold_point_computes_each_distribution_once(self, monkeypatch):
        # fig13m's point at q = 0.98: the class bound's search and the pair
        # bound's read one cache of (S, a, V)
        hashing._spread_and_variance.cache_clear()
        runs, (multi, bip) = constants_runs(monkeypatch, lambda: from_bell_run((64, 64), 0.98, 800, threshold=0.9))
        assert multi.m > 0 and bip.m > 0
        assert len(runs) == len(set(runs)) == 2

    def test_two_colors_prune(self, monkeypatch):
        # fig11m's 64x64 shifted-grid b=2 point at q = 0.98: n = 800, and
        # m = 198 is the largest m at threshold 0.9; a full scan takes 241,
        # the search 20 (the equal split and about ten per candidate list)
        classes = [
            MarginalClass(0.029404, 0, 2048),
            MarginalClass(0.029404, 1, 2048),
            MarginalClass(0.0480396016, 0, 1024),
            MarginalClass(0.0480396016, 1, 1024),
        ]
        assert self.bound_evaluations(monkeypatch, classes, 800, 198) <= 30

    def test_three_colors_refused(self, monkeypatch):
        # hashing purifies two-colorable graph states only; the call raises
        # before it evaluates any split
        def no_evaluation(*args):
            raise AssertionError("a split was evaluated")

        monkeypatch.setattr(_SplitBound, "fold", no_evaluation)
        classes = [MarginalClass(0.01, 0, 3), MarginalClass(0.02, 1, 2), MarginalClass(0.001, 2, 5)]
        with pytest.raises(MultinetError, match="at most two active colors"):
            optimize_delta_split_classes(classes, 400, 1)

    def test_zero_entropy_third_color_is_inactive(self):
        # a color whose marginals are all deterministic needs no subprotocol,
        # so it neither counts as a color nor changes the split
        two = [MarginalClass(1.9998e-5, 0, 1), MarginalClass(0.02, 1, 2)]
        split, f = optimize_delta_split_classes(two + [MarginalClass(0.0, 2, 5)], 200, 1)
        assert (split, f) == optimize_delta_split_classes(two, 200, 1)
        assert split[0] != 0.5


# fig11m's 64x64 shifted-grid b=2 classes at q = 0.98, n = 800: at threshold
# 0.9 the equal split settles a pass at m = 198; at m = 199 neither it nor
# the certificate settles the step (F = 0.8995); at m = 250 the certificate
# does, after the grid walk (F = 0.0157)
FIG11M_CLASSES = [
    MarginalClass(0.029404, 0, 2048),
    MarginalClass(0.029404, 1, 2048),
    MarginalClass(0.0480396016, 0, 1024),
    MarginalClass(0.0480396016, 1, 1024),
]
SETTLED_AT_EQUAL_SPLIT = ((FIG11M_CLASSES, 800, 198), 0.9)
SETTLED_BY_CERTIFICATE = ((FIG11M_CLASSES, 800, 250), 0.9)
UNSETTLED = ((FIG11M_CLASSES, 800, 199), 0.9)
# the equal split falls short of t (F = 0.99176) and the optimum clears it
# (F = 0.99298 at 0.542); the grid point 0.55 clears it first (F = 0.99294)
OFF_EQUAL_SPLIT = (([MarginalClass(0.01, 0, 1), MarginalClass(0.03, 1, 1)], 1000, 600), 0.9925)
# the refinement beats the grid (F = 0.0037856 at the grid's best, 0.0037873
# refined) and t lies between, so the certificate must decline: the step passes
BETWEEN_GRID_AND_REFINED = (NARROW_OPTIMA[0], 0.003786)
# a neighbour of the grid's best (F = 1.0e-158) has a loss above 1, so
# concavity bounds nothing on its side: the certificate declines, and the
# refinement runs (and finds F = 2.2e-150)
INFINITE_NEIGHBOUR = (NARROW_OPTIMA[1], 0.5)
# the largest m at threshold 0.9, whose step passes at the equal split
# (F = 0.90285) though the optimum is higher (F = 0.90521)
ANSWER_AT_EQUAL_SPLIT = (([MarginalClass(0.01, 0, 10), MarginalClass(0.02, 1, 10)], 500, 276), 0.9)


def thresholds_at(f, extra):
    """The optimizer's F, its two float neighbours and one more threshold, those in (0, 1)."""
    return [t for t in (f, math.nextafter(f, 0.0), math.nextafter(f, 1.0), extra) if 0.0 < t < 1.0]


THRESHOLDS = st.floats(min_value=2.0**-11, max_value=1.0, exclude_max=True)


def step(problem, t=None):
    """The threshold search's step at (classes, n, m) against t; the optimizer's result without t."""
    classes, n, m = problem
    return hashing._optimum(_SplitBound(classes, n), m, t)


def grid_walk(problem):
    """A step's walk over the grid from the equal split: its memo and the index of its best."""
    classes, n, m = problem
    bound = _SplitBound(classes, n)
    seen = hashing._Probes(bound, bound.budget(m), hashing.SPLIT_GRID)
    mid = hashing.SPLIT_GRID_STEPS // 2 - 1
    return seen, hashing._peak(seen, mid, (0.5, 0.5), math.exp(seen[mid][1]))[2]


def walks(monkeypatch, fn):
    """The number of candidate lists ``fn()`` walks (the grid, then the refinement), and its result."""
    calls = 0
    peak = hashing._peak

    def counted(*args):
        nonlocal calls
        calls += 1
        return peak(*args)

    with monkeypatch.context() as patch:
        patch.setattr(hashing, "_peak", counted)
        result = fn()
    return calls, result


class TestThresholdSteps:
    @settings(max_examples=300, deadline=None)
    @given(split_problems(colors=(0, 1)), THRESHOLDS)
    @example(*SETTLED_AT_EQUAL_SPLIT)
    @example(*SETTLED_BY_CERTIFICATE)
    @example(*UNSETTLED)
    @example(*OFF_EQUAL_SPLIT)
    @example(*BETWEEN_GRID_AND_REFINED)
    @example(*INFINITE_NEIGHBOUR)
    @example(SUBNORMAL_OPTIMA[1], 0.5)
    @example(NARROW_OPTIMA[0], 0.5)
    def test_step_decides_as_the_full_optimizer(self, problem, extra):
        # a step is on the same side of t as the full result, at t = F
        # itself and at the floats next to it, and returns a split it
        # evaluated with that split's bound
        classes, n, m = problem
        full = outcome(lambda: step(problem))
        if full == "infeasible":
            with pytest.raises(InfeasibleTargetError):
                step(problem, extra)
            return
        colors = _SplitBound(classes, n).colors
        for t in thresholds_at(full[1], extra):
            split, f = step(problem, t)
            assert (f >= t) == (full[1] >= t)
            assert f == multipartite_bound_classes(classes, n, m, delta_split=dict(zip(colors, split)) or None)[0]

    @settings(max_examples=300, deadline=None)
    @given(split_problems(colors=(0, 1)), THRESHOLDS)
    @example(*OFF_EQUAL_SPLIT)
    @example(*BETWEEN_GRID_AND_REFINED)
    def test_passing_step_off_the_equal_split_is_the_result(self, problem, extra):
        # a step passes early only at the equal split (the certificate
        # settles only failing steps), so one that passes anywhere else ran
        # the whole search: it returns the optimizer's split and F, not the
        # first candidate to clear t
        classes, n, m = problem
        full = outcome(lambda: step(problem))
        if full == "infeasible":
            return
        equal_f = multipartite_bound_classes(classes, n, m)[0]
        for t in [equal_f + (full[1] - equal_f) / 2] + thresholds_at(full[1], extra):
            split, f = step(problem, t)
            if f >= t and len(set(split)) > 1:
                assert (split, f) == full

    @settings(max_examples=60, deadline=None)
    @given(split_problems(colors=(0, 1)), THRESHOLDS)
    @example(*SETTLED_AT_EQUAL_SPLIT)
    @example(*UNSETTLED)
    @example(*ANSWER_AT_EQUAL_SPLIT)
    def test_search_matches_plain_bisection(self, problem, extra):
        # neither settling the steps early nor stepping by chords changes the
        # m found or its F
        classes, n, m = problem
        full = outcome(lambda: optimize_delta_split_classes(classes, n, m))
        f = 0.5 if full == "infeasible" else full[1]
        for t in thresholds_at(f, extra):
            found = max_output_copies_classes(classes, n, t)
            assert found == plain_bisection(lambda m: optimize_delta_split_classes(classes, n, m)[1], n, t)

    def test_repeated_probe_runs_one_step(self, monkeypatch):
        # the search's memo: a value asked for twice runs its step once
        search = hashing.largest_m

        def twice(value, n, threshold):  # a search that reads each value twice
            return search(lambda m: (value(m), value(m))[1], n, threshold)

        steps = []
        optimum = hashing._optimum
        monkeypatch.setattr(hashing, "largest_m", twice)
        monkeypatch.setattr(hashing, "_optimum", lambda bound, m, *t: steps.append((m, t)) or optimum(bound, m, *t))
        assert max_output_copies_classes(FIG11M_CLASSES, 800, 0.9)[0] == 198
        stepped = [m for m, t in steps if t]
        assert len(stepped) == len(set(stepped)) == 5

    @pytest.mark.parametrize(
        "case, settled_by",
        [
            (SETTLED_AT_EQUAL_SPLIT, "equal-split"),
            (SETTLED_BY_CERTIFICATE, "certificate"),
            (UNSETTLED, None),
            (BETWEEN_GRID_AND_REFINED, None),
            (INFINITE_NEIGHBOUR, None),
        ],
    )
    def test_examples_settle_as_named(self, monkeypatch, case, settled_by):
        # the equal split is one evaluation and walks nothing; the certificate
        # settles a step after the grid walk, before the refinement's; an
        # unsettled step walks both lists and evaluates exactly what the whole
        # optimization does, as the grid walk reuses the equal split
        problem, t = case
        full, (_, full_f) = evaluations(monkeypatch, lambda: step(problem))
        lists, (calls, (_, f)) = walks(monkeypatch, lambda: evaluations(monkeypatch, lambda: step(problem, t)))
        assert (f >= t) == (full_f >= t)
        if settled_by == "equal-split":
            assert (lists, calls) == (0, 1) and f >= t
        elif settled_by == "certificate":
            assert lists == 1 and calls < full and f < t
        else:
            assert (lists, calls) == (2, full)

    def test_certificate_needs_the_floor(self):
        # below 2^-10 the refinement runs rather than trust the margin:
        # fig11m's grid at m = 300 (F = 3.1e-56) is settled at the floor only
        seen, g = grid_walk((FIG11M_CLASSES, 800, 300))
        assert hashing._short_near(seen, g, hashing._CERTIFICATE_FLOOR)
        assert not hashing._short_near(seen, g, math.nextafter(hashing._CERTIFICATE_FLOOR, 0.0))

    @pytest.mark.parametrize(
        "problem", [EDGE_OPTIMA[0], EDGE_OPTIMA[1], NARROW_OPTIMA[1]], ids=["first", "last", "infinite"]
    )
    def test_certificate_needs_two_finite_neighbours(self, problem):
        # at either end of the grid, or beside a loss above 1, concavity
        # bounds nothing on one side of the grid's best, so the certificate
        # declines even where the other side alone would rule out t = 0.5
        seen, g = grid_walk(problem)
        assert math.exp(seen[g][1]) < 0.5
        assert not hashing._short_near(seen, g, 0.5)

    def test_refinement_stays_within_one_grid_step(self):
        # the certificate's premise: around every grid point but the ends,
        # each refinement point lies between its two grid neighbours, and
        # both shares of every candidate are x and 1 - x, to 2^-48 relative
        grid = hashing.SPLIT_GRID
        for x, y in grid:
            assert abs(Fraction(y) - (1 - Fraction(x))) <= 2.0**-48 * (1 - Fraction(x))
        for g in range(1, len(grid) - 1):
            lo = grid[g][0] - 1.0 / hashing.SPLIT_GRID_STEPS
            for x in (lo + i / 4000 for i in range(41)):
                left, right = Fraction(grid[g - 1][0]), Fraction(grid[g + 1][0])
                nearest = min(max(Fraction(x), left), right)
                assert abs(Fraction(1.0 - x) - (1 - Fraction(x))) <= 2.0**-48 * (1 - Fraction(x))
                assert abs(Fraction(x) - nearest) <= 2.0**-48 * min(nearest, 1 - nearest)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: bipartite_bound((0.97, 0.01, 0.01, 0.01), 800, 2.5),
            lambda: max_output_copies_classes(FIG11M_CLASSES, 800.5, 0.9),
            lambda: max_output_copies_classes(FIG11M_CLASSES, True, 0.9),
            lambda: optimize_delta_split_classes(FIG11M_CLASSES, 800, 10.5),
            lambda: multipartite_bound_classes(FIG11M_CLASSES, 800, False),
            lambda: multipartite_bound(*TestMultipartite().star(), 400.0, 1),
            lambda: bennett_loss((0.9, 0.1), 100.5, 0.1),
            lambda: largest_m(lambda m: 1.0, 10.5, 0.9),
        ],
        ids=["bipartite-m", "search-n", "search-bool-n", "optimizer-m", "classes-bool-m", "vertices-n",
             "bennett-n", "bisection-n"],
    )
    def test_non_integral_counts_rejected(self, monkeypatch, call):
        # a float m ran as a real number (bipartite_bound gave a run with
        # m = 2.5, the search an m of 349.0 for n = 800.5) and True counted as
        # n = 1; the error is not InfeasibleTargetError, which a search reads
        # as a step falling short, and comes before any split is evaluated
        def no_evaluation(*args):
            raise AssertionError("a split was evaluated")

        monkeypatch.setattr(_SplitBound, "fold", no_evaluation)
        with pytest.raises(MultinetError, match="must be an integer, got") as raised:
            call()
        assert not isinstance(raised.value, InfeasibleTargetError)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, math.nan])
    def test_bad_threshold_raises_before_any_evaluation(self, monkeypatch, threshold):
        def no_evaluation(*args):
            raise AssertionError("a split was evaluated")

        monkeypatch.setattr(_SplitBound, "fold", no_evaluation)
        with pytest.raises(MultinetError, match="threshold must be in"):
            max_output_copies_classes(FIG11M_CLASSES, 800, threshold)

    @pytest.mark.parametrize("case", [SETTLED_AT_EQUAL_SPLIT, ANSWER_AT_EQUAL_SPLIT], ids=["fig11m", "asymmetric"])
    def test_search_reports_the_optimizers_f_at_its_m(self, case):
        # the step at the answer passes at the equal split; the F reported
        # is the whole optimization's there, not the step's
        (classes, n, m), t = case
        assert max_output_copies_classes(classes, n, t) == (m, optimize_delta_split_classes(classes, n, m)[1])

"""Brute-force oracle self-checks and its agreement with the fast paths."""

import itertools

import numpy as np
import pytest

from multinet.graphstate import (
    Graph,
    GraphError,
    MultinetError,
    build_graph,
    connect_project,
    local_complement,
    merge_vertices,
)
from multinet.noise import (
    EdgeZChannel,
    PauliChannel,
    bit_marginals,
    channel_to_flip_source,
    edge_channel_to_flip_source,
)

from conftest import random_graph
from oracle import (
    OracleSizeError,
    exact_distribution,
    graph_state_vector,
    statevector_check,
)


class TestExactDistribution:
    def test_no_noise_is_point_mass(self):
        g = build_graph("line", n=4)
        dist = exact_distribution(g)
        assert dist.probs[0] == 1.0
        assert dist.probs[1:].sum() == 0.0

    def test_single_edge_channel(self):
        g = Graph(range(2), [(0, 1)])
        dist = exact_distribution(g, edge_channels={(0, 1): EdgeZChannel(0.98)})
        assert dist.probs == pytest.approx([0.98] + [0.02 / 3] * 3, abs=1e-15)

    def test_ghz_marginals_match_closed_form(self):
        g = build_graph("ghz-star", s=3)
        q = 0.98
        dist = exact_distribution(g, {v: PauliChannel.depolarizing(q) for v in g.vertices()})
        assert dist.marginal(0)[1] == pytest.approx((1 - q**3) / 2, abs=1e-12)
        assert dist.marginal(1)[1] == pytest.approx((1 - q**2) / 2, abs=1e-12)

    def test_relabeling_invariance(self, rng):
        g = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
        perm = {0: 2, 1: 0, 2: 3, 3: 1}
        h = Graph(range(4), [(perm[a], perm[b]) for a, b in g.edges()])
        chans = {v: PauliChannel.depolarizing(0.9 + 0.02 * v) for v in g.vertices()}
        chans_p = {perm[v]: ch for v, ch in chans.items()}
        d1 = exact_distribution(g, chans)
        d2 = exact_distribution(h, chans_p)
        for v in g.vertices():
            assert d1.marginal(v)[1] == pytest.approx(d2.marginal(perm[v])[1], abs=1e-14)

    def test_size_cap(self):
        g = Graph(range(17), [])
        with pytest.raises(OracleSizeError):
            exact_distribution(g)

    def test_agrees_with_marginal_path(self, rng):
        for _ in range(25):
            n = rng.randint(2, 8)
            g = random_graph(rng, n)
            vchan, echan, sources = {}, {}, []
            for v in g.vertices():
                if rng.random() < 0.6:
                    ch = PauliChannel.depolarizing(rng.uniform(0.8, 1.0))
                    vchan[v] = ch
                    sources.append(channel_to_flip_source(g, v, ch))
            for e in g.edges():
                if rng.random() < 0.4:
                    qe = rng.uniform(0.85, 1.0)
                    echan[e] = EdgeZChannel(qe)
                    sources.append(edge_channel_to_flip_source(e, qe))
            dist = exact_distribution(g, vchan, echan)
            for marg in bit_marginals(g, sources):
                assert dist.marginal(marg.vertex)[1] == pytest.approx(
                    marg.lambda1, abs=1e-12
                )


class TestStatevector:
    def test_graph_state_norm_and_signs(self):
        g = build_graph("line", n=3)
        psi = graph_state_vector(g, {v: i for i, v in enumerate(g.vertices())})
        assert np.linalg.norm(psi) == pytest.approx(1.0)
        # sign of basis state with both ends of one edge set
        assert psi[0b011].real < 0

    def test_merge_swapping_identity(self):
        g = build_graph("line", n=3)
        assert statevector_check(g, ("merge", 0, 1), merge_vertices(g, 0, 1))

    def test_connect_two_stars(self):
        g = Graph(range(6), [(0, 1), (0, 2), (3, 4), (3, 5)])
        assert statevector_check(g, ("connect", 2, 4), connect_project(g, 2, 4))

    def test_unknown_transform_is_a_graph_error(self):
        g = build_graph("line", n=3)
        with pytest.raises(GraphError, match="unknown transform 'bogus'") as info:
            statevector_check(g, ("bogus", 0, 1), g)
        assert isinstance(info.value, MultinetError) and isinstance(info.value, ValueError)

    def test_merge_star_fusion(self):
        # merging the two centers grows the star: 3+3 qubits -> 5-leafed star
        g = Graph(range(6), [(0, 1), (0, 2), (3, 4), (3, 5)])
        merged = merge_vertices(g, 0, 3)
        assert merged.edges() == [(0, 1), (0, 2), (0, 4), (0, 5)]
        assert statevector_check(g, ("merge", 0, 3), merged)

    def test_merge_pair_into_star_center(self):
        # a Bell pair merged into a star center extends the star by one leaf
        g = Graph(range(5), [(0, 1), (2, 3), (2, 4)])
        merged = merge_vertices(g, 1, 2)
        assert merged.edges() == [(0, 1), (1, 3), (1, 4)]
        assert statevector_check(g, ("merge", 1, 2), merged)

    def test_merge_leaf_into_center_is_not_a_star(self):
        # identifying a leaf with another center yields a double star, which
        # the oracle confirms but which is not equivalent to any single star
        g = Graph(range(6), [(0, 1), (0, 2), (3, 4), (3, 5)])
        merged = merge_vertices(g, 2, 3)
        assert merged.edges() == [(0, 1), (0, 2), (2, 4), (2, 5)]
        assert statevector_check(g, ("merge", 2, 3), merged)
        star = Graph([0, 1, 2, 4, 5], [(0, 1), (0, 2), (0, 4), (0, 5)])
        assert not statevector_check(g, ("merge", 2, 3), star)

    def test_local_complement_unitary(self):
        g = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert statevector_check(g, ("local_complement", 1), local_complement(g, 1))

    def test_wrong_result_rejected(self):
        g = build_graph("line", n=3)
        wrong = Graph([0, 2], [])
        assert not statevector_check(g, ("merge", 0, 1), wrong)

    def test_size_cap(self):
        g = Graph(range(11), [(i, i + 1) for i in range(10)])
        with pytest.raises(OracleSizeError):
            statevector_check(g, ("merge", 0, 1), merge_vertices(g, 0, 1))

    def test_generator_outputs_follow_the_rules(self):
        small = [
            build_graph("ghz-star", s=4),
            build_graph("line", n=5),
            build_graph("lattice2d", w=2, h=3),
            build_graph("lattice2d", w=2, h=2, periodic=False),
        ]
        for g in small:
            vs = g.vertices()
            assert statevector_check(
                g, ("local_complement", vs[0]), local_complement(g, vs[0])
            )
            assert statevector_check(
                g, ("merge", vs[0], vs[-1]), merge_vertices(g, vs[0], vs[-1])
            )
            non_adjacent = [
                (a, b)
                for a, b in itertools.combinations(vs, 2)
                if not g.has_edge(a, b)
            ]
            if non_adjacent:
                a, b = non_adjacent[0]
                assert statevector_check(
                    g, ("connect", a, b), connect_project(g, a, b)
                )

    def test_random_instances(self, rng):
        for trial in range(12):
            n = rng.randint(3, 7)
            g = random_graph(rng, n)
            if trial % 2 == 0:
                a, b = rng.sample(range(n), 2)
                assert statevector_check(g, ("merge", a, b), merge_vertices(g, a, b))
            else:
                pairs = [
                    (a, b)
                    for a, b in itertools.combinations(range(n), 2)
                    if not g.has_edge(a, b)
                ]
                if not pairs:
                    continue
                a, b = rng.choice(pairs)
                assert statevector_check(
                    g, ("connect", a, b), connect_project(g, a, b)
                )


class TestOutputNoiseBound:
    def test_bound_below_exact_fidelity(self, rng):
        from multinet.noise import output_noise_factor

        for _ in range(15):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, edge_prob=0.6)
            qubits = [v for v in g.vertices() if g.degree(v) > 0]
            if not qubits:
                continue
            sel = rng.sample(qubits, rng.randint(1, len(qubits)))
            p = rng.uniform(0.8, 1.0)
            dist = exact_distribution(g, {v: PauliChannel.depolarizing(p) for v in sel})
            assert dist.zero_pattern_probability() >= output_noise_factor(g, sel, p) - 1e-12

"""Adjacency-level graph operations."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinet.blocks import BlockError
from multinet.cli import ConfigError
from multinet.graphstate import (
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
from multinet.hashing import DistributionError, InfeasibleTargetError
from multinet.noise import ChannelError
from multinet.schemes import SchemeError

from extras import from_text, to_text
from oracle import OracleSizeError



def graphs(max_vertices=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_vertices))
        pairs = list(itertools.combinations(range(n), 2))
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph(range(n), [e for e, keep in zip(pairs, mask) if keep])

    return build()


class TestInvariants:
    def test_rejects_self_edge(self):
        with pytest.raises(GraphError, match="self-edge at vertex 0"):
            Graph([0, 1], [(0, 0)])

    def test_rejects_unknown_vertex(self):
        with pytest.raises(GraphError, match=r"edge \(0,2\) references unknown vertex 2"):
            Graph([0, 1], [(0, 2)])
        with pytest.raises(GraphError, match=r"edge \(3,2\) references unknown vertex 3"):
            Graph([0, 1], [(3, 2)])

    @pytest.mark.parametrize("vertices,edges", [
        ([1.2, 1.7], []),
        ([0, 1], [(0, 1.9)]),
        (["a"], []),
        ([0, 1], [(0, "1.0")]),
        ([math.inf], []),
        ([math.nan], []),
        ([None], []),
        ([0, True], []),
        ([0.0, 1], []),
        ([0, 1], [("1", 0)]),
    ], ids=["float-ids", "float-edge-end", "letter", "decimal-string", "inf", "nan", "none", "bool",
            "integral-float", "numeral-string"])
    def test_rejects_non_integral_vertex_ids(self, vertices, edges):
        # int() would truncate 1.2 and 1.7 into one vertex and 1.9 into vertex 1;
        # ids follow the library's one integer rule, so 0.0 and "1" are no ids either
        with pytest.raises(GraphError, match="vertex id must be an integer, got"):
            Graph(vertices, edges)

    def test_integral_ids_keep_their_value(self):
        # anything with __index__ is read as its int
        g = Graph([np.int64(0), 1, np.uint8(2), True + 2], [(0, np.int32(1)), (np.int64(1), 2), (2, 3)])
        assert g.vertices() == [0, 1, 2, 3]
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert all(type(v) is int for v in g.vertices()) and all(type(v) is int for e in g.edges() for v in e)

    def test_adjacency_is_symmetric(self):
        g = Graph(range(3), [(0, 1), (1, 2)])
        for a, b in g.edges():
            assert g.has_edge(b, a)


class TestGenerators:
    def test_ghz_star_degrees(self):
        g = build_graph("ghz-star", s=3)
        assert g.degree(0) == 2
        assert g.degree(1) == g.degree(2) == 1

    def test_small_open_lattice(self):
        g = build_graph("lattice2d", w=2, h=2, periodic=False)
        assert g.vertex_count == 4
        assert len(g.edges()) == 4

    def test_periodic_lattice_is_regular(self):
        g = build_graph("lattice2d", w=64, h=64, periodic=True)
        assert g.vertex_count == 4096
        assert len(g.edges()) == 8192
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_periodic_3d(self):
        g = build_graph("lattice3d", w=4, h=4, d=4, periodic=True)
        assert len(g.edges()) == 3 * 64
        assert all(g.degree(v) == 6 for v in g.vertices())

    @pytest.mark.parametrize("periodic", [False, True], ids=["open", "periodic"])
    @pytest.mark.parametrize("rank", [2, 3])
    def test_lattice_matches_coordinate_construction(self, rank, periodic):
        # every extent 1-5: neighbors differ by +-1 (mod d when periodic)
        # along one axis, with no self-loop and no repeated edge
        for dims in itertools.product(range(1, 6), repeat=rank):
            sites = sorted(itertools.product(*(range(d) for d in dims)))
            number = {s: i for i, s in enumerate(sites)}
            edges = set()
            for s, axis, step in itertools.product(sites, range(rank), (1, -1)):
                t = list(s)
                t[axis] += step
                if periodic:
                    t[axis] %= dims[axis]
                if 0 <= t[axis] < dims[axis] and tuple(t) != s:
                    edges.add(frozenset((number[s], number[tuple(t)])))
            kind = {2: "lattice2d", 3: "lattice3d"}[rank]
            g = build_graph(kind, periodic=periodic, **dict(zip("whd", dims)))
            assert g == Graph(range(len(sites)), [tuple(e) for e in edges]), dims
            assert list(g.coords.items()) == list(enumerate(sites)), dims

    @pytest.mark.parametrize("kind,params", [
        ("lattice2d", {"w": 4.7, "h": 4, "periodic": True}),
        ("lattice2d", {"w": 4, "h": "x"}),
        ("lattice3d", {"w": 4, "h": 4, "d": 4.5}),
        ("ghz-star", {"s": 3.9}),
        ("line", {"n": 2.5}),
        ("line", {"n": math.inf}),
        ("line", {"n": True}),
        ("ghz-star", {"s": True}),
        ("lattice2d", {"w": 4.0, "h": 4, "periodic": True}),
        ("ghz-star", {"s": 3.0}),
        ("line", {"n": "3"}),
    ], ids=["2d-width", "2d-letter", "3d-depth", "star", "line", "line-inf", "line-bool", "star-bool",
            "2d-integral-float", "star-integral-float", "line-numeral"])
    def test_non_integral_size_rejected(self, kind, params):
        # int() would build a 4x4 torus for w = 4.7 and a 3-star for s = 3.9,
        # and True, which equals 1, a one-vertex line or star; sizes follow the
        # library's one integer rule, so 4.0 and "3" are no sizes either
        with pytest.raises(GraphError, match="must be an integer >= 1, got"):
            build_graph(kind, **params)

    @pytest.mark.parametrize("periodic", ["false", 0, 1, None])
    def test_non_bool_periodic_rejected(self, periodic):
        # bool("false") is True: the flag built a 4x4 torus (32 edges against 24)
        with pytest.raises(GraphError, match="periodic must be True or False"):
            build_graph("lattice2d", w=4, h=4, periodic=periodic)

    def test_zero_dimension_rejected(self):
        with pytest.raises(GraphError):
            build_graph("lattice2d", w=0, h=3)

    def test_unknown_generator(self):
        with pytest.raises(GraphError):
            build_graph("moebius")


class TestLocalComplement:
    def test_line_becomes_triangle(self):
        g = build_graph("line", n=3)
        assert local_complement(g, 1).edges() == [(0, 1), (0, 2), (1, 2)]

    def test_triangle_loses_far_edge(self):
        tri = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
        assert local_complement(tri, 0).edges() == [(0, 1), (0, 2)]

    @settings(max_examples=50, deadline=None)
    @given(graphs(), st.data())
    def test_involution(self, g, data):
        v = data.draw(st.integers(min_value=0, max_value=g.vertex_count - 1))
        assert local_complement(local_complement(g, v), v) == Graph(
            g.vertices(), g.edges()
        )

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            local_complement(build_graph("line", n=2), 5)


class TestMerge:
    def test_bell_chain_swaps(self):
        g = build_graph("line", n=3)
        assert merge_vertices(g, 0, 1).edges() == [(0, 2)]

    def test_star_fusion_at_centers(self):
        two = Graph(range(6), [(0, 1), (0, 2), (3, 4), (3, 5)])
        merged = merge_vertices(two, 0, 3)
        assert merged.edges() == [(0, 1), (0, 2), (0, 4), (0, 5)]

    def test_merge_self_rejected(self):
        with pytest.raises(GraphError):
            merge_vertices(build_graph("line", n=2), 0, 0)

    def test_ids_are_stable(self):
        g = build_graph("line", n=4)
        out = merge_vertices(g, 1, 2)
        assert out.vertices() == [0, 1, 3]

    def test_long_bell_chain_collapses_to_endpoint_edge(self):
        # chaining merges over a path of Bell pairs = entanglement swapping
        for length in range(2, 33):
            g = build_graph("line", n=length + 1)
            for mid in range(1, length):
                g = merge_vertices(g, 0, mid)
            assert g.edges() == [(0, length)]

    @settings(max_examples=50, deadline=None)
    @given(graphs(), st.data())
    def test_output_is_simple_graph(self, g, data):
        if g.vertex_count < 2:
            return
        a, b = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=g.vertex_count - 1),
                min_size=2,
                max_size=2,
                unique=True,
            )
        )
        out = merge_vertices(g, a, b)
        assert not out.has_vertex(b)
        for u, v in out.edges():
            assert u != v and out.has_edge(v, u)


class TestConnect:
    def test_two_bell_pairs(self):
        g = Graph(range(4), [(0, 1), (2, 3)])
        assert connect_project(g, 1, 2).edges() == [(0, 3)]

    def test_two_ghz_stars_give_double_size(self):
        g = Graph(range(6), [(0, 1), (0, 2), (3, 4), (3, 5)])
        out = connect_project(g, 2, 4)
        assert out.vertices() == [0, 1, 3, 5]
        assert len(out.edges()) == 3  # a connected 4-vertex tree

    def test_adjacent_pair_rejected(self):
        with pytest.raises(GraphError):
            connect_project(build_graph("line", n=2), 0, 1)

    @settings(max_examples=50, deadline=None)
    @given(graphs(), st.data())
    def test_output_is_simple_graph(self, g, data):
        non_adjacent = [
            (a, b)
            for a, b in itertools.combinations(g.vertices(), 2)
            if not g.has_edge(a, b)
        ]
        if not non_adjacent:
            return
        a, b = data.draw(st.sampled_from(non_adjacent))
        out = connect_project(g, a, b)
        assert not out.has_vertex(a) and not out.has_vertex(b)
        for u, v in out.edges():
            assert u != v and out.has_edge(v, u)


class TestColoring:
    def test_star_two_colors(self):
        g = build_graph("ghz-star", s=3)
        assert color_graph(g) == {0: 0, 1: 1, 2: 1}

    def test_large_torus_checkerboard(self):
        g = build_graph("lattice2d", w=64, h=64, periodic=True)
        coloring = color_graph(g)
        assert set(coloring.values()) == {0, 1}
        for a, b in g.edges():
            assert coloring[a] != coloring[b]

    def test_triangle_not_two_colorable(self):
        tri = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ColoringError):
            color_graph(tri)

    def test_deterministic(self):
        # a 6-cycle, an isolated vertex and an edge: each component's
        # smallest vertex gets color 0, whatever order the edges came in
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (7, 8)]
        g = Graph(range(9), edges)
        expected = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 0, 8: 1}
        assert color_graph(g) == expected
        assert color_graph(Graph(reversed(range(9)), [(b, a) for a, b in reversed(edges)])) == expected


class TestEdgeCodes:
    @staticmethod
    def fresh(g, shift):
        return {(a << shift) + b for a, b in g.edges()}

    def test_codes_are_frozen_and_kept(self):
        g = build_graph("lattice2d", w=4, h=4, periodic=True)
        codes = g.edge_codes(8)
        assert isinstance(codes, frozenset) and codes == self.fresh(g, 8)
        assert g.edge_codes(8) is codes

    def test_two_shifts_on_one_graph(self):
        g = build_graph("lattice3d", w=4, h=4, d=4, periodic=True)
        for shift in (8, 32, 8, 32):
            assert g.edge_codes(shift) == self.fresh(g, shift), shift
        assert g.edge_codes(8) != g.edge_codes(32)

    def test_rules_on_a_memoised_graph_report_their_own_codes(self):
        g = build_graph("lattice2d", w=4, h=4, periodic=True)
        before = g.edge_codes(8)
        copied = g.copy()
        results = {
            "copy": copied,
            "merge": merge_vertices(g, 0, 1),
            "local-complement": local_complement(g, 0),
            "connect": connect_project(g, 0, 5),
        }
        for name, h in results.items():
            assert h.edge_codes(8) == self.fresh(h, 8), name
        assert results["merge"].edge_codes(8) != before and results["connect"].edge_codes(8) != before
        # the copy's own memo, once built, does not follow its source's later rules either
        assert merge_vertices(copied, 2, 3).edge_codes(8) == self.fresh(merge_vertices(g, 2, 3), 8)
        assert g.edge_codes(8) is before == self.fresh(g, 8)

    @settings(max_examples=100, deadline=None)
    @given(graphs(), st.data())
    def test_any_rule_after_a_memo(self, g, data):
        shift = data.draw(st.sampled_from((4, 8, 32)))
        before = g.edge_codes(shift)
        vertices = g.vertices()
        rule = data.draw(st.sampled_from(["copy", "merge", "local-complement", "connect"]))
        if rule == "copy":
            h = g.copy()
        elif rule == "local-complement":
            h = local_complement(g, data.draw(st.sampled_from(vertices)))
        else:
            pairs = [(a, b) for a, b in itertools.combinations(vertices, 2)
                     if rule == "merge" or not g.has_edge(a, b)]
            if not pairs:
                return
            a, b = data.draw(st.sampled_from(pairs))
            h = (merge_vertices if rule == "merge" else connect_project)(g, a, b)
        assert h.edge_codes(shift) == self.fresh(h, shift)
        assert g.edge_codes(shift) == before == self.fresh(g, shift)


class TestSerialization:
    def test_round_trip(self):
        g = build_graph("ghz-star", s=4)
        back = from_text(to_text(g))
        assert back == g

    def test_parse_error_reports_line(self):
        with pytest.raises(GraphError, match="line 2"):
            from_text("graph 2\nexyz\n")

    def test_missing_header(self):
        with pytest.raises(GraphError, match="header"):
            from_text("e 0 1\n")

    def test_tombstoned_graph_serializes_densely(self):
        g = merge_vertices(build_graph("line", n=3), 0, 1)
        assert to_text(g) == "graph 2\ne 0 1\n"


@pytest.mark.parametrize("error", [
    GraphError, ColoringError, BlockError, ChannelError, InfeasibleTargetError,
    DistributionError, SchemeError, ConfigError, OracleSizeError,
])
def test_library_errors_share_one_root(error):
    assert issubclass(error, MultinetError) and issubclass(error, ValueError)

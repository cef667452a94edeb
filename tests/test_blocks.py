"""Block families: canonical shapes, covers, storage accounting."""

import itertools
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multinet import blocks
from multinet.blocks import (
    FAMILIES,
    BlockError,
    Shape,
    block_edges,
    blocks_count,
    degree_color_classes,
    lift,
    per_copy_total,
    site_costs,
    unit_cell,
)
from multinet.cli import load_config_source, parse_config, preset_names
from multinet.schemes import family_cover

from cover_reference import (
    block_graph,
    cell_groups,
    cover_blocks,
    endpoint_lift,
    lattice_edges,
    norm_edge,
    per_site_cost_histogram,
    site_coords,
)

SIZES = (1, 2, 3, 4, 6, 8)


def bottleneck(family, dim, b=1):
    return max(cost for cost, _ in site_costs(family, dim, b))


def two_periods(family, dim, b):
    """A torus at least two unit-cell periods wide along every axis."""
    dims = tuple(2 * p for p in unit_cell(family, dim, b).period)
    return (max(dims),) * dim if (family, dim) == ("shifted-grid", 3) else dims


def preset_lattices():
    """Every (family, dims, b) a packaged preset evaluates, read from its config."""
    cases = set()
    for name in preset_names():
        cfg = parse_config(*load_config_source(name))
        if cfg.scenario == "from-bell":
            cases.add(("bipartite", cfg.dims, 1))
        if cfg.scenario == "cluster":
            swept = cfg.sweep_param == "block_size"
            sizes = [int(round(v)) for v in cfg.sweep_values] if swept else cfg.block_sizes
            for family in cfg.families:
                for b in [1] if family == "bipartite" else sizes:
                    cases.add((family, cfg.dims, b))
    return sorted(cases)


@st.composite
def admissible_lattices(draw):
    """A family, a block size 1-4 and a torus the family covers: 2D extents
    4-16, 3D extents 4-12, each a multiple of the unit cell's period."""
    family = draw(st.sampled_from(FAMILIES))
    dim = draw(st.sampled_from((2, 3)))
    b = draw(st.integers(1, 4))
    period = unit_cell(family, dim, b).period
    extents = [[d for d in range(4, 17 if dim == 2 else 13) if d % p == 0] for p in period]
    if (family, dim) == ("shifted-grid", 3):
        return family, (draw(st.sampled_from(extents[0])),) * 3, b
    return family, tuple(draw(st.sampled_from(e)) for e in extents), b


class TestCanonicalBlocks:
    def test_shifted_grid_2d_unit_is_plaquette(self):
        g = block_graph("shifted-grid", 2, 1)
        assert g.vertex_count == 4
        assert all(g.degree(v) == 2 for v in g.vertices())

    def test_shifted_grid_2d_size_counts(self):
        # b x b fused diamonds: 4b boundary corners of degree 2,
        # 2b(b-1) fused interior corners of degree 4
        for b in (1, 2, 4):
            degs = {}
            for d, _, n in degree_color_classes("shifted-grid", 2, b):
                degs[d] = degs.get(d, 0) + n
            assert degs.get(2, 0) == 4 * b
            assert degs.get(4, 0) == 2 * b * (b - 1)

    def test_windmill_2d_unit_is_pinwheel(self):
        degs = {}
        for d, _, n in degree_color_classes("windmill", 2, 1):
            degs[d] = degs.get(d, 0) + n
        assert degs == {1: 4, 3: 4}

    def test_windmill_2d_fused(self):
        for b in (2, 4):
            degs = {}
            for d, _, n in degree_color_classes("windmill", 2, b):
                degs[d] = degs.get(d, 0) + n
            assert degs == {1: 4 * b, 3: 4 * b, 4: 4 * b * (b - 1)}

    def test_shifted_grid_3d_chain(self):
        for b in (1, 2, 4):
            degs = {}
            for d, _, n in degree_color_classes("shifted-grid", 3, b):
                degs[d] = degs.get(d, 0) + n
            assert degs.get(3, 0) == 8 * b - 2 * (b - 1)
            assert degs.get(6, 0) == b - 1
            assert sum(degs.values()) == 7 * b + 1  # sites per block

    def test_windmill_3d_unit(self):
        degs = {}
        for d, _, n in degree_color_classes("windmill", 3, 1):
            degs[d] = degs.get(d, 0) + n
        # 12 blade tips, 6 one-blade corners, 2 three-blade corners
        assert degs == {1: 12, 4: 6, 6: 2}
        assert sum(degs.values()) == 20

    def test_classes_are_two_colored(self):
        for family in ("windmill", "shifted-grid"):
            for dim in (2, 3):
                colors = {c for _, c, _ in degree_color_classes(family, dim, 2)}
                assert colors <= {0, 1}

    def test_bad_family(self):
        with pytest.raises(BlockError):
            block_edges("spiral", 2, 1)
        with pytest.raises(BlockError, match="mesh"):
            blocks_count("mesh", (8, 8), 1)

    def test_block_graph_generator_kinds(self):
        pin = block_graph("windmill", 2, 1)
        assert pin.vertex_count == 8 and len(pin.edges()) == 8
        assert pin.coords is not None
        chain = block_graph("shifted-grid", 3, 2)
        assert chain.vertex_count == 15 and len(chain.edges()) == 24


class TestCovers:
    @pytest.mark.parametrize("family,dims,b", [
        ("windmill", (8, 8), 1),
        ("windmill", (8, 8), 2),
        ("windmill", (8, 8), 4),
        ("shifted-grid", (8, 8), 1),
        ("shifted-grid", (8, 8), 2),
        ("shifted-grid", (8, 8), 4),
        ("shifted-grid", (4, 4, 4), 1),
        ("shifted-grid", (4, 4, 4), 2),
        ("shifted-grid", (4, 4, 4), 4),
        ("windmill", (4, 4, 4), 1),
        ("windmill", (4, 4, 4), 2),
        ("windmill", (8, 8, 8), 4),
        ("bipartite", (4, 4), 1),
        # lifted covers two periods wide
        *[
            (family, two_periods(family, dim, b), b)
            for family in ("windmill", "shifted-grid")
            for dim in (2, 3)
            for b in (1, 2, 3)
        ],
        ("bipartite", two_periods("bipartite", 3, 1), 1),
        ("shifted-grid", (12, 12, 12), 4),
        ("bipartite", (4, 8), 1),
        ("bipartite", (6, 4, 8), 1),
    ])
    def test_partition(self, family, dims, b):
        groups = cover_blocks(family, dims, b)
        seen = set()
        for group in groups:
            for e in group:
                assert e not in seen
                seen.add(e)
        assert seen == lattice_edges(dims)
        assert len(groups) == blocks_count(family, dims, b)

    @settings(max_examples=60, deadline=None)
    @given(admissible_lattices())
    # tori narrower than a block, where a placed block folds onto itself
    @example(("windmill", (4, 4), 2))
    @example(("windmill", (4, 4, 4), 2))
    @example(("shifted-grid", (4, 4, 4), 4))
    def test_site_lift_matches_endpoint_lift(self, case):
        family, dims, b = case
        groups = cover_blocks(family, dims, b)
        assert len(groups) == blocks_count(family, dims, b)
        # same groups in the same order, each edge in the same order and orientation
        assert groups == endpoint_lift(family, dims, b)
        assert all(a < c for group in groups for a, c in group)
        # each placed block: its group's distinct sites, one vertex id per shape site, and its edges
        coords = site_coords(dims)
        for group, (shape, ids) in zip(groups, family_cover(family, dims, b), strict=True):
            assert len(ids) == shape.vertex_count == len(shape.sites) and {type(v) for v in ids} == {int}
            sites = [coords[v] for v in ids]
            assert sorted(sites) == sorted({s for e in group for s in e})
            assert all(a != c for a, c in shape.pairs) and len({frozenset(p) for p in shape.pairs}) == len(group)
            assert sorted(norm_edge(sites[a], sites[c]) for a, c in shape.pairs) == sorted(group)

    @settings(max_examples=40, deadline=None)
    @given(admissible_lattices())
    @example(("windmill", (8, 8), 1))
    @example(("shifted-grid", (8, 8), 1))
    @example(("shifted-grid", (6, 6, 6), 3))
    @example(("windmill", (4, 4), 2))
    def test_one_shape_per_cell_shape(self, case):
        family, dims, b = case
        cover = family_cover(family, dims, b)
        assert len(cover) == blocks_count(family, dims, b)
        assert len({id(shape) for shape, _ in cover}) == len(unit_cell(family, len(dims), b).shapes)
        assert all(isinstance(shape, Shape) for shape, _ in cover)
        # every block has a site list of its own
        assert len({id(sites) for _, sites in cover}) == len(cover)

    def test_oversized_block_rejected_before_its_cell(self):
        # the cells would have ~b^dim edges (10^12 at b = 10^6); the period check comes first
        start = time.perf_counter()
        for family, dims, b in itertools.product(FAMILIES[1:], ((8, 8), (8, 8, 8), (64, 64)), (64, 10**6)):
            with pytest.raises(BlockError, match="period"):
                blocks_count(family, dims, b)
        assert time.perf_counter() - start < 0.1
        assert blocks_count("shifted-grid", (8, 8, 8), 8) == 16  # b equal to the extent still tiles

    @pytest.mark.parametrize("call", [
        lambda: blocks_count("windmill", (8.0, 8), 1),
        lambda: lift("windmill", (8, 8), 2.0),
        lambda: family_cover("windmill", (8.0, 8.0), 1),
        lambda: blocks_count("windmill", (8, 8), 1.5),
        lambda: per_copy_total("shifted-grid", (8, 8, 8.0), 2),
        lambda: block_edges("windmill", 2, 1.0),
        lambda: unit_cell("shifted-grid", 3, 2.5),
        lambda: degree_color_classes("windmill", 2, "2"),
        lambda: blocks_count("windmill", (8, 8), True),
        lambda: block_edges("windmill", 2, True),
        lambda: block_edges("windmill", 2.0, 1),
        lambda: unit_cell("windmill", True, 1),
        lambda: site_costs("windmill", "2", 1),
        lambda: degree_color_classes("windmill", 2.0, 1),
    ], ids=["count-extent", "lift-size", "cover-extents", "count-size", "total-extent", "block-size",
            "cell-size", "classes-size", "count-bool-size", "bool-block-size", "block-dim", "cell-bool-dim",
            "costs-string-dim", "classes-dim"])
    def test_non_integer_sizes_and_extents_rejected(self, call):
        # 8.0 made blocks_count return 16.0 and lift raise TypeError; b = 1.5 gave a period (3.0, 3.0);
        # b = True, an int subclass, made blocks_count return 16; dim = 2.0 passed `dim in (2, 3)` and
        # raised TypeError
        with pytest.raises(BlockError, match="integer"):
            call()

    @pytest.mark.parametrize("dim, b", [(2, True), (2, 1.0), (2.0, 1)], ids=["bool", "float", "float-dim"])
    @pytest.mark.parametrize("cached", [unit_cell, site_costs, degree_color_classes], ids=lambda f: f.__name__)
    def test_size_equal_to_one_rejected_in_either_order(self, cached, dim, b):
        # True and 1.0 equal 1 and hash alike, as 2.0 and 2 do: once (2, 1) was
        # cached, a cache keyed by value alone returned its entry for them,
        # though they raised before (dim = 2.0 with a TypeError, not a BlockError)
        cached.cache_clear()
        with pytest.raises(BlockError, match="integer"):
            cached("shifted-grid", dim, b)
        cached("shifted-grid", 2, 1)
        with pytest.raises(BlockError, match="integer"):
            cached("shifted-grid", dim, b)

    def test_incompatible_dims(self):
        with pytest.raises(BlockError):
            cover_blocks("windmill", (6, 6), 2)
        with pytest.raises(BlockError):
            cover_blocks("shifted-grid", (4, 6, 8), 1)

    def test_count_raises_exactly_when_cover_raises(self):
        # a count exists exactly where a cover does
        tori = [*itertools.product(range(2, 17), repeat=2), *itertools.product(range(2, 13), repeat=3)]
        kinds = [("bipartite", 1)] + [(f, b) for f in ("windmill", "shifted-grid") for b in range(1, 9)]
        for dims, (family, b) in itertools.product(tori, kinds):
            try:
                lift(family, dims, b)
            except BlockError:
                with pytest.raises(BlockError):
                    blocks_count(family, dims, b)
            else:
                blocks_count(family, dims, b)
        for family in ("windmill", "shifted-grid"):
            with pytest.raises(BlockError):
                blocks_count(family, (2, 2), 1)

    def test_unit_cells(self):
        assert unit_cell("windmill", 3, 2).period == (4, 4, 4)
        assert len(unit_cell("windmill", 3, 2).shapes) == 1
        assert unit_cell("shifted-grid", 2, 3).period == (6, 6)
        assert len(unit_cell("shifted-grid", 2, 3).shapes) == 2
        for b, period, anchors in [(3, (6, 2, 2), 2), (4, (4, 2, 2), 1)]:
            cell = unit_cell("shifted-grid", 3, b)
            assert cell.period == period and len(cell.shapes) == anchors
        # the first block is anchored at the origin, edges as in the canonical block: its site codes,
        # row-major over the box [-b, 3b)^dim, decoded digit by digit, each edge's lower end first
        for family, dim, b in itertools.product(("windmill", "shifted-grid"), (2, 3), range(1, 5)):
            w = 4 * b
            site = lambda code: tuple(code // w**k % w - b for k in reversed(range(dim)))
            edges = tuple((site(a), site(c)) for a, c in blocks._block(family, dim, b))
            assert all(a < c for a, c in edges)
            assert cell_groups(unit_cell(family, dim, b))[0] == edges == tuple(block_edges(family, dim, b))

    @pytest.mark.parametrize("change", ["drop", "duplicate", "replace", "reversed", "self"])
    @pytest.mark.parametrize("family,dim,b", [("windmill", 2, 2), ("shifted-grid", 2, 3), ("windmill", 3, 1),
                                               ("shifted-grid", 3, 2)])
    def test_inexact_cell_is_rejected(self, monkeypatch, change, family, dim, b):
        # one edge dropped leaves a key unhit, one duplicated hits a key twice, and one
        # replaced by a copy of another does both while the number of keys stays right;
        # one turned around, or one from a site to itself, is keyed by no pair (i, j) with
        # i < j, so it leaves a key unhit though the number of edges stays right
        edges = blocks._block(family, dim, b)
        (a, c), rest = edges[0], edges[1:]
        changed = {"drop": rest, "duplicate": edges + edges[:1], "replace": edges[:1] + edges[:-1],
                   "reversed": [(c, a)] + rest, "self": [(a, a)] + rest}[change]
        monkeypatch.setattr(blocks, "_block", lambda *args: changed)
        with pytest.raises(BlockError, match="do not tile"):
            unit_cell.__wrapped__(family, dim, b)
        monkeypatch.setattr(blocks, "_block", lambda *args: edges)
        assert unit_cell.__wrapped__(family, dim, b) == unit_cell(family, dim, b)

    @pytest.mark.parametrize("family,dims,b", preset_lattices())
    def test_preset_lattices(self, family, dims, b):
        cell = unit_cell(family, len(dims), b)
        count = blocks_count(family, dims, b)
        cells = math.prod(dims) // math.prod(cell.period)
        per_cell = sum(cost * sites for cost, sites in site_costs(family, len(dims), b))
        per_block = sum(sites for _, _, sites in degree_color_classes(family, len(dims), b))
        assert count * per_block == per_copy_total(family, dims, b)
        assert per_copy_total(family, dims, b) == per_cell * cells

    def test_presets_cover_64_cubed(self):
        lattices = preset_lattices()
        assert ("windmill", (64, 64, 64), 1) in lattices
        assert ("shifted-grid", (64, 64, 64), 4) in lattices
        assert ("bipartite", (64, 64), 1) in lattices


class TestStorage:
    def test_bottlenecks(self):
        assert bottleneck("bipartite", 2) == 4
        assert bottleneck("windmill", 2) == 2
        assert bottleneck("shifted-grid", 2) == 2
        assert bottleneck("bipartite", 3) == 6
        assert bottleneck("windmill", 3) == 3
        assert bottleneck("shifted-grid", 3) == 2

    def test_bottleneck_stable_across_sizes(self):
        for family, dim, expect in [
            ("windmill", 2, 2),
            ("shifted-grid", 2, 2),
            ("windmill", 3, 3),
            ("shifted-grid", 3, 2),
        ]:
            for b in (2, 4):
                assert bottleneck(family, dim, b) == expect

    def test_costs_count_sites_per_unit_cell(self):
        assert site_costs("windmill", 2, 1) == ((2, 4),)
        # infinite-lattice shares: chains of four cubes leave 3 of 16 sites at one qubit
        assert site_costs("shifted-grid", 3, 4) == ((1, 3), (2, 13))

    @pytest.mark.parametrize("family", ["bipartite", "windmill", "shifted-grid"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_costs_match_explicit_cover(self, family, dim):
        for b in [1] if family == "bipartite" else SIZES:
            dims = two_periods(family, dim, b)
            cells = math.prod(dims) // math.prod(unit_cell(family, dim, b).period)
            hist = per_site_cost_histogram(family, dims, b)
            assert hist == {cost: sites * cells for cost, sites in site_costs(family, dim, b)}

    def test_windmill_3d_histogram(self):
        hist = per_site_cost_histogram("windmill", (8, 8, 8), 1)
        sites = 512
        assert hist == {1: sites // 4, 3: 3 * sites // 4}

    def test_larger_blocks_have_interior_sites(self):
        hist1 = per_site_cost_histogram("shifted-grid", (8, 8), 1)
        hist2 = per_site_cost_histogram("shifted-grid", (8, 8), 2)
        assert 1 not in hist1
        assert hist2[1] > 0

    def test_per_copy_total_closed_forms(self):
        n = 64 * 64
        assert per_copy_total("bipartite", (64, 64)) == 4 * n
        for b in (1, 2, 4):
            assert per_copy_total("shifted-grid", (64, 64), b) == n + n // b
            assert per_copy_total("windmill", (64, 64), b) == n + n // b
        n3 = 64**3
        assert per_copy_total("bipartite", (64, 64, 64)) == 6 * n3
        assert per_copy_total("shifted-grid", (64, 64, 64), 1) == 2 * n3

    def test_per_copy_total_checks_the_lattice(self):
        # one block per edge, two stored qubits per block
        for dims in [(4, 4), (8, 8), (4, 4, 4)]:
            assert per_copy_total("bipartite", dims) == 2 * len(dims) * math.prod(dims)
        for dims in [(2, 6), (3, 3), (4, 5), (4, 4, 3)]:
            with pytest.raises(BlockError):
                per_copy_total("bipartite", dims)

    def test_histogram_totals_match_per_copy(self):
        for family, dims, b in [
            ("windmill", (8, 8), 2),
            ("shifted-grid", (8, 8), 2),
            ("windmill", (4, 4, 4), 1),
            ("shifted-grid", (4, 4, 4), 2),
        ]:
            hist = per_site_cost_histogram(family, dims, b)
            total = sum(cost * count for cost, count in hist.items())
            assert total == per_copy_total(family, dims, b)

"""Block families: canonical shapes, covers, storage accounting."""

import pytest

from multinet.blocks import (
    BlockError,
    block_edges,
    block_graph,
    blocks_count,
    cover_blocks,
    degree_color_classes,
    lattice_edges,
    per_copy_total,
    per_site_cost_histogram,
    site_costs,
    sites_per_block,
)


def bottleneck(family, dim, b=1):
    return max(cost for cost, _ in site_costs(family, dim, b))


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
            assert sites_per_block("shifted-grid", 3, b) == 7 * b + 1

    def test_windmill_3d_unit(self):
        degs = {}
        for d, _, n in degree_color_classes("windmill", 3, 1):
            degs[d] = degs.get(d, 0) + n
        # 12 blade tips, 6 one-blade corners, 2 three-blade corners
        assert degs == {1: 12, 4: 6, 6: 2}
        assert sites_per_block("windmill", 3, 1) == 20

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
        from multinet.graphstate import build_graph

        pin = build_graph("windmill", dimensionality=2, block_size=1)
        assert pin.vertex_count == 8 and pin.edge_count() == 8
        assert pin.coords is not None
        chain = build_graph("shifted-grid", dimensionality=3, block_size=2)
        assert chain.vertex_count == 15 and chain.edge_count() == 24


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

    def test_incompatible_dims(self):
        with pytest.raises(BlockError):
            cover_blocks("windmill", (6, 6), 2)
        with pytest.raises(BlockError):
            cover_blocks("shifted-grid", (4, 6, 8), 1)


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

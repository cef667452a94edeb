"""Scenario-level behavior: GHZ schemes, triangular network, clusters, covers."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinet.blocks import FAMILIES, BlockError
from multinet.graphstate import Graph, MultinetError, build_graph, merge_vertices
from multinet.schemes import (
    Architecture,
    SchemeError,
    StorageModel,
    allocate_global_storage,
    cluster_architecture_run,
    family_cover,
    from_bell_run,
    ghz_scheme_fidelity,
    storage_per_node,
    triangular_repeater,
    validate_cover,
)

CAPS = list(range(200, 2001, 200))


def target_lattice(dims):
    if len(dims) == 2:
        return build_graph("lattice2d", w=dims[0], h=dims[1], periodic=True)
    return build_graph("lattice3d", w=dims[0], h=dims[1], d=dims[2], periodic=True)


class TestGhzSchemes:
    def test_b_equals_c_with_perfect_resources(self):
        for cap in CAPS:
            b = ghz_scheme_fidelity("B", cap, 0.98, 1.0)
            c = ghz_scheme_fidelity("C", cap, 0.98, 1.0)
            assert b.fidelity == c.fidelity

    def test_b_below_c_with_noisy_resources(self):
        for cap in (200, 800, 1600):
            b = ghz_scheme_fidelity("B", cap, 0.99, 0.98)
            c = ghz_scheme_fidelity("C", cap, 0.99, 0.98)
            assert b.fidelity <= c.fidelity
            assert b.fidelity == pytest.approx(c.fidelity * 0.985**2, rel=1e-12)

    def test_storage_accounting(self):
        a = ghz_scheme_fidelity("A", 501, 0.98)
        c = ghz_scheme_fidelity("C", 501, 0.98)
        assert a.n_used == 501
        assert c.n_used == 250

    def test_fidelities_in_unit_interval(self):
        for scheme in "ABC":
            for q, p in [(0.98, 1.0), (0.99, 0.98), (0.9, 0.95)]:
                res = ghz_scheme_fidelity(scheme, 400, q, p)
                assert 0.0 <= res.fidelity <= 1.0

    def test_very_noisy_input_infeasible(self):
        res = ghz_scheme_fidelity("A", 400, 0.3, 1.0)
        assert res.infeasible and res.fidelity == 0.0

    def test_unknown_scheme(self):
        with pytest.raises(SchemeError):
            ghz_scheme_fidelity("D", 400, 0.98)

    def test_output_copies_parameter(self):
        one = ghz_scheme_fidelity("A", 800, 0.98, m=1)
        many = ghz_scheme_fidelity("A", 800, 0.98, m=100)
        assert many.fidelity < one.fidelity


class TestTriangular:
    def test_level_zero_exponents(self):
        a = triangular_repeater(0, 1600, 0.99, 0.98, "A")
        c = triangular_repeater(0, 1600, 0.99, 0.98, "C")
        # same protocols at the same copy count, exponents 3^0 = 1 vs 2^1 = 2
        elem_a = ghz_scheme_fidelity("A", 533, 0.99, 0.98)
        elem_c = ghz_scheme_fidelity("C", 800, 0.99, 0.98)  # n = 400 pairs
        assert a.n_used == 533 and c.n_used == 400
        assert a.fidelity == pytest.approx(elem_a.fidelity, rel=1e-12)
        assert c.fidelity == pytest.approx(elem_c.fidelity**2, rel=1e-12)

    def test_perfect_channel(self):
        for k in range(9):
            assert triangular_repeater(k, 1600, 1.0, 1.0, "A").fidelity == 1.0
            assert triangular_repeater(k, 1600, 1.0, 1.0, "C").fidelity == 1.0

    def test_advantage_fades_with_distance(self):
        diffs = [
            triangular_repeater(k, 1600, 0.99, 0.98, "A").fidelity
            - triangular_repeater(k, 1600, 0.99, 0.98, "C").fidelity
            for k in range(9)
        ]
        signs = [1 if d > 0 else -1 for d in diffs]
        assert signs[0] == 1
        assert signs[-1] == -1
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes == 1

    @pytest.mark.parametrize("per_copy", [0, -1])
    def test_per_copy_below_one_rejected(self, per_copy):
        with pytest.raises(SchemeError):
            triangular_repeater(0, 1200, 0.99, scheme="A", per_copy=per_copy)

    def test_per_copy_override(self):
        default = triangular_repeater(0, 1600, 0.99, 0.98, "A")
        wide = triangular_repeater(0, 1600, 0.99, 0.98, "A", per_copy=1)
        assert wide.n_used == 1600 and default.n_used == 533
        assert wide.fidelity >= default.fidelity


class TestStorageAccounting:
    def test_per_node_bottlenecks(self):
        expectations = [
            ("bipartite", (8, 8), 4),
            ("windmill", (8, 8), 2),
            ("shifted-grid", (8, 8), 2),
            ("bipartite", (8, 8, 8), 6),
            ("windmill", (8, 8, 8), 3),
            ("shifted-grid", (8, 8, 8), 2),
        ]
        for family, dims, expect in expectations:
            _, bottleneck = storage_per_node(Architecture(family, dims, 1))
            assert bottleneck == expect, family

    def test_global_allocation_example(self):
        _, n = allocate_global_storage(Architecture("bipartite", (64, 64)), 1200 * 64 * 64)
        assert n == 300

    def test_global_copies_grow_with_block_size(self):
        ns = [
            allocate_global_storage(Architecture("shifted-grid", (64, 64), b), 1200 * 64 * 64)[1]
            for b in (1, 2, 4, 8)
        ]
        assert ns == sorted(ns)
        assert ns[0] == 600

    def test_exact_single_copy(self):
        arch = Architecture("shifted-grid", (8, 8), 1)
        from multinet.blocks import per_copy_total

        need = per_copy_total("shifted-grid", (8, 8), 1)
        _, n = allocate_global_storage(arch, need)
        assert n == 1
        with pytest.raises(SchemeError):
            allocate_global_storage(arch, need - 1)

    def test_global_beats_per_node_for_fused_blocks(self):
        # boundary concentration: freely placed storage supports more copies
        sites = 64 * 64
        for b in (2, 4):
            arch = Architecture("shifted-grid", (64, 64), b)
            _, bottleneck = storage_per_node(arch)
            per_node_n = 1200 // bottleneck
            _, global_n = allocate_global_storage(arch, 1200 * sites)
            assert global_n >= per_node_n


class TestClusterRuns:
    def test_shifted_grid_beats_bipartite_near_one(self):
        store = StorageModel("per-node", 1200)
        sg = cluster_architecture_run(Architecture("shifted-grid", (64, 64)), store, 0.999, m=100)
        bip = cluster_architecture_run(Architecture("bipartite", (64, 64)), store, 0.999, m=100)
        assert sg.fidelity > bip.fidelity

    def test_bipartite_wins_at_strong_noise(self):
        store = StorageModel("per-node", 1200)
        sg = cluster_architecture_run(Architecture("shifted-grid", (64, 64)), store, 0.95, m=100)
        bip = cluster_architecture_run(Architecture("bipartite", (64, 64)), store, 0.95, m=100)
        assert bip.fidelity > sg.fidelity

    def test_copy_counts_from_capacity(self):
        store = StorageModel("per-node", 1200)
        sg = cluster_architecture_run(Architecture("shifted-grid", (64, 64)), store, 0.99, m=100)
        bip = cluster_architecture_run(Architecture("bipartite", (64, 64)), store, 0.99, m=100)
        assert sg.n_used == 600 and bip.n_used == 300

    def test_larger_global_blocks_improve(self):
        store = StorageModel("global", 1200 * 64 * 64)
        fids = [
            cluster_architecture_run(
                Architecture("shifted-grid", (64, 64), b), store, 0.99, m=100
            ).fidelity
            for b in (1, 2, 4)
        ]
        assert fids == sorted(fids)

    def test_threshold_out_of_range_is_a_library_error(self):
        arch = Architecture("bipartite", (8, 8))
        with pytest.raises(MultinetError, match="threshold must be in") as info:
            cluster_architecture_run(arch, StorageModel("per-node", 400), 0.99, threshold=1.5)
        assert isinstance(info.value, ValueError)

    def test_threshold_mode(self):
        store = StorageModel("per-node", 1200)
        res = cluster_architecture_run(
            Architecture("shifted-grid", (64, 64)), store, 0.99, threshold=0.9
        )
        assert res.m > 100
        at_m = cluster_architecture_run(
            Architecture("shifted-grid", (64, 64)), store, 0.99, m=res.m
        )
        assert at_m.fidelity >= 0.9

    def test_requires_exactly_one_target(self):
        store = StorageModel("per-node", 1200)
        with pytest.raises(SchemeError):
            cluster_architecture_run(Architecture("bipartite", (64, 64)), store, 0.99)
        with pytest.raises(SchemeError):
            cluster_architecture_run(
                Architecture("bipartite", (64, 64)), store, 0.99, m=10, threshold=0.5
            )


class TestFromBell:
    def test_multipartite_advantage_region(self):
        multi, bip = from_bell_run((64, 64), 0.995, 800, m=50)
        assert multi.fidelity > bip.fidelity
        assert multi.n_used == 800 and bip.n_used == 200

    def test_bipartite_wins_at_strong_noise(self):
        multi, bip = from_bell_run((64, 64), 0.95, 800, m=50)
        assert bip.fidelity >= multi.fidelity

    def test_noiseless_channel(self):
        multi, bip = from_bell_run((64, 64), 1.0, 800, m=50)
        assert multi.fidelity == 1.0
        assert multi.fidelity >= bip.fidelity

    @pytest.mark.parametrize("dims", [(3, 3), (4, 5), (4, 4, 3), (1, 2)])
    def test_odd_or_tiny_lattice_rejected(self, dims):
        # no two-colouring of the periodic lattice, hence no two classes
        with pytest.raises(BlockError):
            from_bell_run(dims, 0.99, 100, m=1)

    def test_max_copies_monotone_in_q(self):
        ms = [from_bell_run((64, 64), q, 800, threshold=0.9)[0].m for q in (0.97, 0.98, 0.99, 1.0)]
        assert ms == sorted(ms)


# Scenario evaluations that go through the bipartite lattice product or the
# from-Bell branches, as functions of the m= / threshold= keyword.
BIPARTITE_SEARCHES = {
    "cluster-bipartite": lambda **target: cluster_architecture_run(
        Architecture("bipartite", (64, 64)), StorageModel("per-node", 1200), 0.99, **target
    ),
    "from-bell-multipartite": lambda **target: from_bell_run((64, 64), 0.995, 800, **target)[0],
    "from-bell-bipartite": lambda **target: from_bell_run((64, 64), 0.995, 800, **target)[1],
}


@pytest.mark.parametrize("threshold", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("scenario", sorted(BIPARTITE_SEARCHES))
def test_threshold_search_returns_last_passing_m(scenario, threshold):
    run = BIPARTITE_SEARCHES[scenario]
    res = run(threshold=threshold)
    assert res.m >= 1 and not res.infeasible
    assert res.fidelity == run(m=res.m).fidelity
    assert res.fidelity >= threshold
    if res.m < res.n_used:
        above = run(m=res.m + 1)
        assert above.infeasible or above.fidelity < threshold


def replay_cover(cover, target):
    """Reference verdict: merge a union graph of every placed qubit, site by site."""
    edges, position = [], {}
    for block, placement in cover:
        ids = {v: len(position) + i for i, v in enumerate(block.vertices())}
        position.update((ids[v], placement[v]) for v in block.vertices())
        edges += [(ids[a], ids[b]) for a, b in block.edges()]
    g = Graph(range(len(position)), edges)
    trace = []
    for coord in sorted(set(position.values())):
        group = sorted(v for v, c in position.items() if c == coord)
        for other in group[1:]:
            g = merge_vertices(g, group[0], other)
            trace.append((coord, group[0], other))
    achieved = {tuple(sorted((position[a], position[b]))) for a, b in g.edges()}
    wanted = {tuple(sorted((target.coords[a], target.coords[b]))) for a, b in target.edges()}
    sites = {position[v] for v in g.vertices()}
    return achieved == wanted and sites == set(target.coords.values()), trace


@st.composite
def random_covers(draw):
    """Random blocks on a small torus, over an exact cover (one block maybe
    shifted) half of the time.  Extra blocks are random, placed twice (their
    edges cancel), confined to one site (in-site edges only) or a lone
    qubit placed off the lattice."""
    cover = []
    if draw(st.booleans()):
        dims = draw(st.sampled_from([(2, 2), (2, 4), (4, 2), (4, 4)]))
        cover = family_cover(draw(st.sampled_from(FAMILIES if dims == (4, 4) else ["bipartite"])), dims)
        if draw(st.booleans()):
            k = draw(st.integers(0, len(cover) - 1))
            shift = draw(st.integers(1, dims[0] - 1))
            block, placement = cover[k]
            cover[k] = (block, {v: ((c[0] + shift) % dims[0], c[1]) for v, c in placement.items()})
    else:
        dims = (draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    target = target_lattice(dims)
    sites = sorted(target.coords.values())
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["twice", "one-site", "random", "off-lattice"]))
        if kind == "off-lattice":
            cover.append((Graph([0]), {0: dims}))
            continue
        n = draw(st.integers(2, 5))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        if kind == "one-site":
            placement = dict.fromkeys(range(n), draw(st.sampled_from(sites)))
        else:
            placement = {v: draw(st.sampled_from(sites)) for v in range(n)}
        cover += [(Graph(range(n), edges), placement)] * (2 if kind == "twice" else 1)
    return cover, target

class TestCoverValidation:
    @pytest.mark.parametrize("family,dims,b", [
        ("bipartite", (4, 4), 1),
        ("windmill", (8, 8), 1),
        ("shifted-grid", (8, 8), 1),
        ("shifted-grid", (8, 8), 2),
        ("windmill", (4, 4, 4), 1),
        ("shifted-grid", (4, 4, 4), 2),
    ])
    def test_families_merge_to_lattice(self, family, dims, b):
        ok, trace = validate_cover(family_cover(family, dims, b), target_lattice(dims))
        assert ok

    def test_misplaced_block_detected(self):
        cover = family_cover("windmill", (8, 8), 1)
        g0, placement = cover[0]
        shifted = {v: ((c[0] + 1) % 8, c[1]) for v, c in placement.items()}
        cover[0] = (g0, shifted)
        ok, _ = validate_cover(cover, target_lattice((8, 8)))
        assert not ok

    def test_merge_trace_reports_collisions(self):
        cover = family_cover("shifted-grid", (4, 4, 4), 1)
        ok, trace = validate_cover(cover, target_lattice((4, 4, 4)))
        assert ok
        assert len(trace) == 64  # every site fuses two cube corners

    # the exact covers the 2D presets evaluate (fig9, fig11, fig13)
    @pytest.mark.parametrize("family,b", [
        ("bipartite", 1),
        ("windmill", 1),
        ("shifted-grid", 1),
        ("shifted-grid", 2),
        ("shifted-grid", 4),
    ])
    def test_preset_covers_merge_to_lattice(self, family, b):
        cover = family_cover(family, (64, 64), b)
        ok, trace = validate_cover(cover, target_lattice((64, 64)))
        assert ok
        assert len(trace) == sum(g.vertex_count for g, _ in cover) - 64 * 64

    @settings(max_examples=200, deadline=None)
    @given(random_covers())
    def test_matches_merge_replay(self, case):
        cover, target = case
        assert validate_cover(cover, target) == replay_cover(cover, target)


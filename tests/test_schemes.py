"""Scenario-level behavior: GHZ schemes, triangular network, clusters, covers."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinet import blocks, graphstate, schemes
from multinet.blocks import FAMILIES, BlockError, Shape, per_copy_total, unit_cell
from multinet.cli import load_config_source, parse_config, run_experiment
from multinet.graphstate import Graph, MultinetError, build_graph, merge_vertices
from multinet.schemes import (
    Architecture,
    MAX_LEVELS,
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

from cover_reference import merge_trace

CAPS = list(range(200, 2001, 200))

# every cover the benchmark validates, with its pinned merge count
PINNED_COVERS = [
    (tuple(map(int, lattice.split("x"))), family, int(b), merges)
    for lattice, families in json.loads(
        (Path(__file__).parent.parent / "perfbench" / "reference" / "covers.json").read_text()
    ).items()
    for family, sizes in families.items()
    for b, merges in sizes.items()
]


def code_builds(monkeypatch, fn):
    """The size and the largest code of every edge-code set ``fn()`` builds, once per build, and its result.

    ``Graph.edge_codes`` is the only caller of ``frozenset`` in ``graphstate``.
    """
    builds, largest = [], []

    def counted(codes):
        built = frozenset(codes)
        builds.append(len(built))
        largest.append(max(built, default=None))
        return built

    with monkeypatch.context() as patch:
        patch.setattr(graphstate, "frozenset", counted, raising=False)
        result = fn()
    return builds, largest, result


def target_lattice(dims):
    if len(dims) == 2:
        return build_graph("lattice2d", w=dims[0], h=dims[1], periodic=True)
    return build_graph("lattice3d", w=dims[0], h=dims[1], d=dims[2], periodic=True)


class TestGhzSchemes:
    def test_b_equals_c_with_perfect_resources(self):
        for cap in CAPS:
            b = ghz_scheme_fidelity("B", cap, 0.98, 1.0, channel="ldn")
            c = ghz_scheme_fidelity("C", cap, 0.98, 1.0, channel="ldn")
            assert b.fidelity == c.fidelity

    def test_b_below_c_with_noisy_resources(self):
        for cap in (200, 800, 1600):
            b = ghz_scheme_fidelity("B", cap, 0.99, 0.98, channel="ldn")
            c = ghz_scheme_fidelity("C", cap, 0.99, 0.98, channel="ldn")
            assert b.fidelity <= c.fidelity
            assert b.fidelity == pytest.approx(c.fidelity * 0.985**2, rel=1e-12)

    def test_storage_accounting(self):
        a = ghz_scheme_fidelity("A", 501, 0.98, channel="ldn")
        c = ghz_scheme_fidelity("C", 501, 0.98, channel="ldn")
        assert a.n_used == 501
        assert c.n_used == 250

    def test_fidelities_in_unit_interval(self):
        for scheme in "ABC":
            for q, p in [(0.98, 1.0), (0.99, 0.98), (0.9, 0.95)]:
                res = ghz_scheme_fidelity(scheme, 400, q, p, channel="ldn")
                assert 0.0 <= res.fidelity <= 1.0

    def test_very_noisy_input_infeasible(self):
        res = ghz_scheme_fidelity("A", 400, 0.3, 1.0, channel="ldn")
        assert res.infeasible and res.fidelity == 0.0

    def test_unknown_scheme(self):
        with pytest.raises(SchemeError):
            ghz_scheme_fidelity("D", 400, 0.98, channel="ldn")

    def test_optimized_split_is_a_scheme_of_its_own(self):
        biased = {"channel": "biased", "channel_params": {"px": 1e-5, "pz": 0.02}}
        equal = ghz_scheme_fidelity("A", 200, 1.0, **biased)
        optimized = ghz_scheme_fidelity("A-opt", 200, 1.0, **biased)
        assert (equal.scheme, optimized.scheme) == ("A", "A-opt")
        assert optimized.n_used == equal.n_used and optimized.fidelity > equal.fidelity
        with pytest.raises(SchemeError):
            triangular_repeater(0, 1600, 0.99, 0.98, "A-opt")

    def test_biased_channel_needs_its_weights(self):
        with pytest.raises(SchemeError, match="biased"):
            ghz_scheme_fidelity("A", 1000, 0.98, channel="biased", channel_params={"px": 1e-5})

    def test_output_copies_parameter(self):
        one = ghz_scheme_fidelity("A", 800, 0.98, m=1, channel="ldn")
        many = ghz_scheme_fidelity("A", 800, 0.98, m=100, channel="ldn")
        assert many.fidelity < one.fidelity


class TestTriangular:
    def test_level_zero_exponents(self):
        a = triangular_repeater(0, 1600, 0.99, 0.98, "A")
        c = triangular_repeater(0, 1600, 0.99, 0.98, "C")
        # same protocols at the same copy count, exponents 3^0 = 1 vs 2^1 = 2
        elem_a = ghz_scheme_fidelity("A", 533, 0.99, 0.98, channel="ldn")
        elem_c = ghz_scheme_fidelity("C", 800, 0.99, 0.98, channel="ldn")  # n = 400 pairs
        assert a.n_used == 533 and c.n_used == 400
        assert a.fidelity == pytest.approx(elem_a.fidelity, rel=1e-12)
        assert c.fidelity == pytest.approx(elem_c.fidelity**2, rel=1e-12)

    def test_levels_bounded_where_the_exponent_stays_finite(self):
        assert float(3**MAX_LEVELS) < float("inf")
        with pytest.raises(OverflowError):
            float(3 ** (MAX_LEVELS + 1))
        for scheme in ("A", "C"):
            assert 0.0 <= triangular_repeater(MAX_LEVELS, 1600, 0.99, 0.98, scheme).fidelity <= 1.0
            with pytest.raises(SchemeError, match="levels"):
                triangular_repeater(MAX_LEVELS + 1, 1600, 0.99, 0.98, scheme)

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
            assert storage_per_node(Architecture(family, dims, 1)) == expect, family

    def test_global_allocation_example(self):
        assert allocate_global_storage(Architecture("bipartite", (64, 64)), 1200 * 64 * 64) == 300

    def test_global_copies_grow_with_block_size(self):
        ns = [
            allocate_global_storage(Architecture("shifted-grid", (64, 64), b), 1200 * 64 * 64)
            for b in (1, 2, 4, 8)
        ]
        assert ns == sorted(ns)
        assert ns[0] == 600

    def test_exact_single_copy(self):
        arch = Architecture("shifted-grid", (8, 8), 1)
        from multinet.blocks import per_copy_total

        need = per_copy_total("shifted-grid", (8, 8), 1)
        assert allocate_global_storage(arch, need) == 1
        with pytest.raises(SchemeError):
            allocate_global_storage(arch, need - 1)

    def test_global_allocation_reads_the_scenarios_copy_count(self, monkeypatch, clear_caches):
        # one storage accounting: the public allocation and a global-storage scenario share one division,
        # so the lattice's per-copy total is read once for both, and no room still names what one copy needs
        calls = []
        total = blocks.per_copy_total
        monkeypatch.setattr(blocks, "per_copy_total", lambda *arch: calls.append(arch) or total(*arch))
        arch, capacity = Architecture("shifted-grid", (64, 64), 2), 1200 * 64 * 64
        n = allocate_global_storage(arch, capacity)
        assert cluster_architecture_run(arch, StorageModel("global", capacity), 0.99, m=1).n_used == n
        assert len(calls) == 1
        for short in (total(*arch) - 1, 0, -5):
            with pytest.raises(SchemeError, match=f"^total capacity {short} is below the {total(*arch)} qubits"):
                allocate_global_storage(arch, short)

    def test_global_beats_per_node_for_fused_blocks(self):
        # boundary concentration: freely placed storage supports more copies
        sites = 64 * 64
        for b in (2, 4):
            arch = Architecture("shifted-grid", (64, 64), b)
            per_node_n = 1200 // storage_per_node(arch)
            global_n = allocate_global_storage(arch, 1200 * sites)
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

    @pytest.mark.parametrize("target", [{}, {"m": 10, "threshold": 0.5}], ids=["neither", "both"])
    def test_requires_exactly_one_target(self, target):
        with pytest.raises(SchemeError, match="^give exactly one of m= or threshold=$"):
            from_bell_run((64, 64), 0.99, 800, **target)

    def test_3d_bipartite_storage(self):
        # the bipartite cell holds 6 qubits per site in 3D, 4 in 2D
        multi, bip = from_bell_run((8, 8, 8), 0.99, 600, m=1)
        assert (multi.n_used, bip.n_used) == (600, 100)
        assert from_bell_run((8, 8), 0.99, 600, m=1)[1].n_used == 150

    def test_max_copies_monotone_in_q(self):
        ms = [from_bell_run((64, 64), q, 800, threshold=0.9)[0].m for q in (0.97, 0.98, 0.99, 1.0)]
        assert ms == sorted(ms)


CAPACITY_ENTRY_POINTS = {
    "StorageModel": lambda c: StorageModel("global", c),
    "ghz_scheme_fidelity": lambda c: ghz_scheme_fidelity("A", c, 0.99, channel="ldn"),
    "triangular_repeater": lambda c: triangular_repeater(1, c, 0.99),
    "from_bell_run": lambda c: from_bell_run((8, 8), 0.99, c, threshold=0.9),
}


@pytest.mark.parametrize("capacity", [math.nan, math.inf, 400.5, 0, True], ids=repr)
@pytest.mark.parametrize("entry", CAPACITY_ENTRY_POINTS.values(), ids=list(CAPACITY_ENTRY_POINTS))
def test_capacity_must_be_a_positive_integer(entry, capacity):
    # a float capacity would flow into the copy counts: n_used = nan in an
    # infeasible row, a multipartite branch at F = 1 with n_used = inf, or m = 33.0;
    # True, an int subclass, was kept as the capacity
    with pytest.raises(SchemeError, match="capacity must be an integer"):
        entry(capacity)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: StorageModel("local", 100), r"storage mode must be one of \('per-node', 'global'\), got 'local'"),
        (lambda: Architecture("hexagon", (8, 8)), "unknown architecture family 'hexagon'"),
        (lambda: Architecture("windmill", (8,)), r"architecture dims must be 2D or 3D, got \(8,\)"),
        (lambda: Architecture("windmill", (8, 8), 0), "block size must be an integer >= 1, got 0"),
        (lambda: Architecture("windmill", (8, 8), 1.5), "block size must be an integer >= 1, got 1.5"),
        (lambda: Architecture("windmill", (8, 8), 2.0), "block size must be an integer >= 1, got 2.0"),
        (lambda: Architecture("windmill", (8, 8), True), "block size must be an integer >= 1, got True"),
        # _replace builds through _make, which checks too, so an unchecked instance cannot key a cache
        (lambda: Architecture("windmill", (8, 8))._replace(block_size=True),
         "block size must be an integer >= 1, got True"),
        (lambda: StorageModel("global", 40)._replace(capacity=40.0), "storage capacity must be an integer >= 1"),
    ],
    ids=["storage-mode", "family", "dims", "block-size", "float-block-size", "integral-float-block-size",
         "bool-block-size", "replaced-block-size", "replaced-capacity"],
)
def test_value_checks_name_the_offender(build, message):
    with pytest.raises(SchemeError, match=message):
        build()


@pytest.mark.parametrize("preset, cache, rows, misses", [
    ("fig3", "_ghz_ensemble", 19 * 2, 2),  # 19 capacities of schemes A and C: one ensemble per scheme kind
    ("fig8", "_ghz_ensemble", 9 * 2, 2),  # 9 levels of schemes A and C: one per scheme
    ("fig11", "_copies", 51 * 4, 4),  # 51 values of q on four architectures: one copy count per architecture
])
def test_sweep_invariants_are_computed_once(preset, cache, rows, misses, clear_caches):
    assert len(run_experiment(parse_config(*load_config_source(preset)))) == rows
    info = getattr(schemes, cache).cache_info()
    assert (info.misses, info.hits) == (misses, rows - misses)


# The fault matrix: every scenario entry point as a function of whether one
# copy fits and of the inputs under test, with the inputs it takes.  Without
# room, the scheme stores two or more qubits per copy at capacity 1, or the
# global pool is below one copy; from-Bell's multipartite branch always has
# room, so there its bipartite branch has none.
def _cluster_entry(family, mode):
    arch = Architecture(family, (8, 8))
    per_copy = storage_per_node(arch) if mode == "per-node" else per_copy_total(family, (8, 8), 1)

    def run(room, q=0.99, m=1, threshold=None):
        store = StorageModel(mode, 10 * per_copy if room else per_copy - 1)
        return [cluster_architecture_run(arch, store, q, m, threshold)]

    return run, {"q", "m", "threshold"}


FAULT_ENTRIES = {
    "ghz": (
        lambda room, q=0.99, p=1.0, m=1, scheme="B", channel="ldn", params=None: [
            ghz_scheme_fidelity(scheme, 400 if room else 1, q, p, m, channel=channel, channel_params=params)
        ],
        {"q", "p", "m", "scheme", "channel", "params"},
    ),
    "triangular": (
        lambda room, q=0.99, p=1.0, scheme="B": [triangular_repeater(1, 400 if room else 1, q, p, scheme)],
        {"q", "p", "scheme"},
    ),
    **{
        f"cluster-{mode}-{family}": _cluster_entry(family, mode)
        for mode in ("per-node", "global")
        for family in ("windmill", "bipartite")
    },
    "from-bell": (
        lambda room, q=0.99, m=1, threshold=None: list(from_bell_run((8, 8), q, 400 if room else 1, m, threshold)),
        {"q", "m", "threshold"},
    ),
}
BAD_INPUTS = {
    "q=1.5": {"q": 1.5},
    "q=-0.1": {"q": -0.1},
    "p=1.5": {"p": 1.5},
    "biased-0.7-0.7": {"channel": "biased", "params": {"px": 0.7, "pz": 0.7}},
    "biased-params-list": {"channel": "biased", "params": [0.01, 0.01]},
    "biased-px-list": {"channel": "biased", "params": {"px": [0.01], "pz": 0.01}},
    "m=0": {"m": 0},
    "m=1.5": {"m": 1.5},
    "m=None": {"m": None},
    **{f"threshold={t}": {"m": None, "threshold": t} for t in (0, 1, 1.5)},
    "scheme=D": {"scheme": "D"},
    "channel=edge": {"channel": "edge"},
}


@pytest.mark.parametrize("room", [True, False], ids=["room", "no-room"])
@pytest.mark.parametrize("name", sorted(FAULT_ENTRIES))
def test_fault_matrix_entries_reach_both_storage_outcomes(name, room):
    last = FAULT_ENTRIES[name][0](room)[-1]
    assert (last.infeasible, last.n_used == 0) == (not room, not room)


@pytest.mark.parametrize("room", [True, False], ids=["room", "no-room"])
@pytest.mark.parametrize(
    "name, bad",
    [
        pytest.param(name, bad, id=f"{name}-{label}")
        for name, (_, takes) in sorted(FAULT_ENTRIES.items())
        for label, bad in BAD_INPUTS.items()
        if bad.keys() <= takes
    ],
)
def test_fault_matrix_bad_input_raises_whatever_the_storage(name, bad, room):
    # a typed library error, never a row and never a bare TypeError
    with pytest.raises(MultinetError):
        FAULT_ENTRIES[name][0](room, **bad)


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
    """Reference verdict: merge a union graph of every placed qubit, site by site.

    Qubit ids run block by block in each shape's site order; a shape's pairs,
    in any order and orientation, are its edges."""
    edges, position = [], []
    for shape, sites in cover:
        edges += [(len(position) + i, len(position) + j) for i, j in shape.pairs]
        position += sites
    g = Graph(range(len(position)), edges)
    trace = []
    for coord in sorted(set(position)):
        group = [v for v, c in enumerate(position) if c == coord]
        for other in group[1:]:
            g = merge_vertices(g, group[0], other)
            trace.append((coord, group[0], other))
    achieved = {tuple(sorted((position[a], position[b]))) for a, b in g.edges()}
    wanted = {tuple(sorted((target.coords[a], target.coords[b]))) for a, b in target.edges()}
    sites = {position[v] for v in g.vertices()}
    return achieved == wanted and sites == set(target.coords.values()), trace


def line_shape(n, pairs):
    """A shape of ``n`` sites in a row with the given index pairs as its edges."""
    return Shape(tuple((0, v) for v in range(n)), tuple(pairs))


@st.composite
def random_covers(draw):
    """Random blocks on a small torus, over an exact cover (one block maybe
    shifted) half of the time.  Extra blocks are random, with their pairs in
    random order and orientation, placed twice (their edges cancel), confined
    to one site (in-site edges only), a lone qubit placed off the lattice, or an
    edge from a lattice site to a site off it, whose code may equal a lattice edge's."""
    cover = []
    if draw(st.booleans()):
        dims = draw(st.sampled_from([(4, 4), (4, 8), (8, 4)]))
        cover = family_cover(draw(st.sampled_from(FAMILIES)), dims)
        if draw(st.booleans()):
            k = draw(st.integers(0, len(cover) - 1))
            shift = draw(st.integers(1, dims[0] - 1))
            shape, placed = cover[k]
            cover[k] = (shape, [((c[0] + shift) % dims[0], c[1]) for c in placed])
    else:
        dims = (draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    target = target_lattice(dims)
    sites = sorted(target.coords.values())
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["twice", "one-site", "random", "off-lattice", "off-lattice edge"]))
        if kind == "off-lattice":
            cover.append((line_shape(1, ()), [dims]))
            continue
        if kind == "off-lattice edge":
            pair = draw(st.sampled_from([(0, 1), (1, 0)]))
            off = (dims[0], draw(st.integers(0, 2 * dims[1])))
            cover.append((line_shape(2, [pair]), [draw(st.sampled_from(sites)), off]))
            continue
        n = draw(st.integers(2, 5))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        edges = [(j, i) if flip else (i, j) for (i, j), flip in zip(edges, flips)]
        if kind == "one-site":
            placed = [draw(st.sampled_from(sites))] * n
        else:
            placed = [draw(st.sampled_from(sites)) for _ in range(n)]
        cover += [(line_shape(n, edges), placed)] * (2 if kind == "twice" else 1)
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
        shape, sites = cover[0]
        cover[0] = (shape, [((c[0] + 1) % 8, c[1]) for c in sites])
        ok, _ = validate_cover(cover, target_lattice((8, 8)))
        assert not ok

    def test_shared_shape_placed_and_misplaced(self):
        # every windmill block shares one shape: block 0 placed right, block 1 shifted
        dims = (8, 8)
        cover = family_cover("windmill", dims, 1)
        shape, sites = cover[1]
        assert shape is cover[0][0]
        cover[1] = (shape, [(c[0], (c[1] + 1) % 8) for c in sites])
        target = target_lattice(dims)
        ok, trace = validate_cover(cover, target)
        assert not ok
        assert (ok, trace) == replay_cover(cover, target)
        # a site list one short only in the second use of the shared shape
        cover = family_cover("windmill", dims, 1)
        n = shape.vertex_count
        cover[1] = (shape, cover[1][1][1:])
        with pytest.raises(SchemeError, match=f"block 1 places {n - 1} sites, its shape has {n}"):
            validate_cover(cover, target)

    def test_changing_one_placement_changes_only_that_block(self):
        dims = (8, 8)
        cover, fresh = family_cover("shifted-grid", dims, 1), family_cover("shifted-grid", dims, 1)
        sites = cover[5][1]
        sites[:] = [((c[0] + 1) % 8, c[1]) for c in sites]
        assert sites != fresh[5][1]
        assert [p for _, p in cover[:5] + cover[6:]] == [p for _, p in fresh[:5] + fresh[6:]]
        assert all(g == h for (g, _), (h, _) in zip(cover, fresh, strict=True))
        target = target_lattice(dims)
        ok, trace = validate_cover(cover, target)
        assert not ok
        assert (ok, trace) == replay_cover(cover, target)

    def test_cover_of_fresh_shapes_matches_shared(self):
        # a lazily built cover of one copy per block, shape and sites alike
        dims = (4, 4, 4)
        cover, target = family_cover("shifted-grid", dims, 2), target_lattice(dims)
        copies = ((Shape(tuple(list(shape.sites)), tuple(list(shape.pairs))), list(sites)) for shape, sites in cover)
        result = validate_cover(copies, target)
        assert result == validate_cover(cover, target) == replay_cover(cover, target)
        assert result[0]

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
        assert len(trace) == sum(shape.vertex_count for shape, _ in cover) - 64 * 64

    @pytest.mark.parametrize("dims,family,b,merges", PINNED_COVERS,
                             ids=[f"{'x'.join(map(str, d))}-{f}-{b}" for d, f, b, _ in PINNED_COVERS])
    def test_pinned_covers(self, dims, family, b, merges):
        cover = family_cover(family, dims, b)
        ok, trace = validate_cover(cover, target_lattice(dims))
        assert ok and len(trace) == merges
        assert trace == merge_trace(cover)

    def test_no_graph_is_built_on_the_cover_path(self, monkeypatch):
        # family_cover and validate_cover over the 53 pinned covers build no Graph, new or copied
        targets = {dims: target_lattice(dims) for dims, *_ in PINNED_COVERS}
        built = []
        init, copy = Graph.__init__, Graph.copy

        def counted_init(self, *args, **kwargs):
            built.append("init")
            init(self, *args, **kwargs)

        def counted_copy(self):
            built.append("copy")
            return copy(self)

        monkeypatch.setattr(Graph, "__init__", counted_init)
        monkeypatch.setattr(Graph, "copy", counted_copy)
        verdicts = [validate_cover(family_cover(f, dims, b), targets[dims])[0] for dims, f, b, _ in PINNED_COVERS]
        assert verdicts == [True] * len(PINNED_COVERS) == [True] * 53
        assert built == []
        merge_vertices(target_lattice((4, 4)), 0, 1)  # the counters see both ways a Graph is built
        assert built == ["init", "copy"]

    def test_cell_shapes_are_placed_as_they_are(self, monkeypatch):
        # a cover's blocks share their unit cell's certified shapes, unchecked; only a shape the torus
        # folds (a block wider than the torus, its coinciding sites merged) is new, and checked once
        checked = []
        check = schemes._check_shape
        monkeypatch.setattr(schemes, "_check_shape", lambda shape, i: checked.append(shape) or check(shape, i))
        folded = []
        for dims, family, b, _ in PINNED_COVERS:
            cover, cell = family_cover(family, dims, b), unit_cell(family, len(dims), b).shapes
            folds = [len({tuple(map(int.__mod__, s, dims)) for s in shape.sites}) < len(shape.sites) for shape in cell]
            new = list({id(shape): shape for shape, _ in cover if not any(shape is s for s in cell)}.values())
            assert len(new) == sum(folds)
            assert all(shape.vertex_count < s.vertex_count for shape, s in zip(new, itertools.compress(cell, folds)))
            assert all(id(s) in blocks.CERTIFIED for s in cell)
            assert validate_cover(cover, target_lattice(dims))[0]
            folded += new
        assert len(folded) == 7
        assert [id(shape) for shape in checked] == [id(shape) for shape in folded]

    def test_shape_check_is_skipped_by_identity_only(self, monkeypatch):
        # a copy equal to a certified shape is not that shape: it is checked, and a malformed one raises
        checked = []
        check = schemes._check_shape
        monkeypatch.setattr(schemes, "_check_shape", lambda shape, i: checked.append(shape) or check(shape, i))
        dims = (8, 8)
        cover, target = family_cover("windmill", dims, 1), target_lattice(dims)
        shape = cover[0][0]
        copy = Shape(*shape)
        assert copy == shape and copy is not shape and id(shape) in blocks.CERTIFIED
        assert validate_cover([(copy, sites) for _, sites in cover], target) == validate_cover(cover, target)
        assert checked == [copy] and checked[0] is copy
        for pairs in (shape.pairs + ((0, 0),), shape.pairs[:1] + shape.pairs, (shape.pairs[0][::-1],) + shape.pairs):
            with pytest.raises(SchemeError, match="block 0 pairs are not a simple graph"):
                validate_cover([(Shape(shape.sites, pairs), sites) for _, sites in cover], target)

    def test_target_codes_are_built_once(self, monkeypatch):
        # a benchmark pass validates every block size against each lattice: one target,
        # many covers, and the target's wanted codes are built on its first check only
        dims = (16, 16)
        target = target_lattice(dims)
        sizes = [(f, b) for f in ("windmill", "shifted-grid") for b in (1, 2, 4, 8)]
        builds, _, verdicts = code_builds(
            monkeypatch, lambda: [validate_cover(family_cover(f, dims, b), target)[0] for f, b in sizes])
        assert verdicts == [True] * len(sizes)
        assert builds == [2 * 16 * 16]
        # another target builds its own, once
        other = target_lattice(dims)
        builds, _, _ = code_builds(
            monkeypatch, lambda: [validate_cover(family_cover(f, dims, b), other) for f, b in sizes])
        assert builds == [2 * 16 * 16]

    def test_wanted_codes_are_one_digit_ints(self, monkeypatch):
        # the codes are as wide as the target's id span, not a fixed 32 bits: below 2**30 they are
        # one-digit ints, whose shifts, sums and hashes take CPython's fast paths
        targets = {dims: target_lattice(dims) for dims, *_ in PINNED_COVERS}
        builds, largest, verdicts = code_builds(
            monkeypatch, lambda: [validate_cover(family_cover(f, dims, b), targets[dims])[0]
                                  for dims, f, b, _ in PINNED_COVERS])
        assert verdicts == [True] * 53
        assert builds == [t.edge_count() for t in targets.values()]  # each target's codes built once
        assert all(0 < top < 2**30 for top in largest)
        # the 64x64 torus of the 2D presets: 4096 ids, so 12-bit shifts and codes below 2**24
        builds, largest, _ = code_builds(
            monkeypatch, lambda: validate_cover(family_cover("windmill", (64, 64)), target_lattice((64, 64))))
        assert builds == [2 * 64 * 64] and largest[0] < 2**24

    def test_cells_and_traces_agree_across_processes(self):
        # blocks._block leaves its edges in set order: the cells' index pairs and the
        # traces must still come out the same in every interpreter, whatever its hash seed
        script = (
            "import hashlib, itertools\n"
            "from multinet.blocks import unit_cell\n"
            "from multinet.graphstate import build_graph\n"
            "from multinet.schemes import family_cover, validate_cover\n"
            "cells = [unit_cell(f, d, b) for f, d, b in itertools.product(('windmill', 'shifted-grid'), (2, 3), (1, 2, 3, 4))]\n"
            "targets = {(16, 16): build_graph('lattice2d', w=16, h=16, periodic=True),\n"
            "           (8, 8, 8): build_graph('lattice3d', w=8, h=8, d=8, periodic=True)}\n"
            "traces = [validate_cover(family_cover(f, dims, b), t)\n"
            "          for f in ('windmill', 'shifted-grid') for dims, t in targets.items() for b in (1, 2)]\n"
            "print(hashlib.sha256(repr((cells, traces)).encode()).hexdigest())\n"
        )
        src = str(Path(graphstate.__file__).parent.parent)
        digests = {
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1", "4242")
        }
        assert len(digests) == 1 and len(digests.pop()) == 65

    def test_pinned_covers_are_all_there(self):
        assert len(PINNED_COVERS) == 53
        assert {f for _, f, _, _ in PINNED_COVERS} == {"windmill", "shifted-grid"}

    def test_rejects_mismatched_sites_and_coordinates(self):
        cover = family_cover("windmill", (8, 8), 1)
        shape, sites = cover[3]
        n = shape.vertex_count
        for wrong in (sites[:2] + sites[3:], sites + sites[:1], []):
            cover[3] = (shape, wrong)
            with pytest.raises(SchemeError, match=f"^block 3 places {len(wrong)} sites, its shape has {n}$"):
                validate_cover(cover, target_lattice((8, 8)))
        cover[3] = (shape, sites)
        assert validate_cover(cover, target_lattice((8, 8)))[0]
        # a shape is read as a simple graph on its sites: a pair out of range, a self-pair or one
        # pair given twice is refused, never read from the end, dropped, or cancelled by parity;
        # the extra block's sites (0, 0) and (0, 2) are no lattice edge, so read as a simple graph
        # (the duplicate merged) it makes the cover wrong, and by parity alone it would vanish
        for pairs in ([(0, 3)], [(-1, 0)], [(0, 1), (1, 1)], [(0, 2), (2, 0)], [(0, 1), (2, 1), (1, 2)],
                      [(0, True)], [(0, 1.0)], [(0, 1, 2)], [(0,)], [[0, 1]], [0]):
            extra = (line_shape(3, pairs), [(0, 0), (0, 1), (0, 2)])
            with pytest.raises(SchemeError, match=rf"^block {len(cover)} pairs are not a simple graph on its 3 sites$"):
                validate_cover(cover + [extra], target_lattice((8, 8)))
        assert not validate_cover(cover + [(line_shape(3, [(2, 0)]), [(0, 0), (0, 1), (0, 2)])],
                                  target_lattice((8, 8)))[0]
        with pytest.raises(SchemeError, match="block 0 pairs are not a simple graph on its 2 sites"):
            validate_cover([(Shape(((0, 0), (0, 1)), None), [(0, 0), (0, 1)])], target_lattice((8, 8)))
        with pytest.raises(SchemeError, match="block 0 shape must be a Shape"):
            validate_cover([(Graph(range(2), [(0, 1)]), [(0, 0), (0, 1)])], target_lattice((8, 8)))
        with pytest.raises(SchemeError, match="no coordinates"):
            validate_cover(family_cover("windmill", (8, 8), 1), Graph(range(4), [(0, 1)]))
        # targets 0 and 1 share (0, 0), so one edge (0, 0)-(1, 0) would stand in for (0, 2) and (1, 2)
        edge = [(line_shape(2, [(0, 1)]), [(0, 0), (1, 0)])]
        shared = Graph(range(3), [(0, 2), (1, 2)], coords={0: (0, 0), 1: (0, 0), 2: (1, 0)})
        with pytest.raises(SchemeError, match=r"target vertices 0 and 1 share the coordinate \(0, 0\)"):
            validate_cover(edge, shared)
        missing = Graph(range(3), [(0, 2), (1, 2)], coords={0: (0, 0), 1: (0, 1)})
        with pytest.raises(SchemeError, match="target vertex 2 has no coordinates"):
            validate_cover(edge, missing)

    @pytest.mark.parametrize("relabel", [lambda v: 2 * v + 5, lambda v: v - 40], ids=["2v+5", "v-40"])
    @pytest.mark.parametrize("case", ["exact", "shifted", "off-lattice"])
    def test_relabelled_target_matches_plain(self, case, relabel):
        # sites are numbered by target id; with ids 2v + 5 the second off-lattice site would share
        # number 65 with a target site if numbered from len(number); ids v - 40 give negative codes
        dims = (8, 8)
        plain = target_lattice(dims)
        label = {v: relabel(v) for v in plain.vertices()}
        target = Graph(label.values(), [(label[a], label[b]) for a, b in plain.edges()],
                       coords={label[v]: c for v, c in plain.coords.items()})
        cover = family_cover("windmill", dims, 1)
        if case == "shifted":
            shape, sites = cover[3]
            cover[3] = (shape, [((c[0] + 1) % 8, c[1]) for c in sites])
        elif case == "off-lattice":
            cover.append((line_shape(3, [(0, 1), (1, 2)]), [(8, 0), (8, 1), (0, 0)]))
        result = validate_cover(cover, target)
        assert result == validate_cover(cover, plain) == replay_cover(cover, plain)
        assert result[0] == (case == "exact")

    def test_off_target_code_may_equal_a_target_code(self):
        # the codes are one-to-one on target pairs only: five lone off-target sites take numbers 16-20
        # on the 4x4 torus (shift 4), and an edge from (0, 0), id 0, to a sixth, number 21, has code
        # 21, which is also the code of the target edge (1, 5); that edge is then placed twice and its
        # parity cancels, but the off-target sites fail the verdict, as the replay says
        dims = (4, 4)
        target = target_lattice(dims)
        assert target.coords[0] == (0, 0) and target.has_edge(1, 5) and len(target.vertices()) == 16
        cover = family_cover("shifted-grid", dims, 1)
        assert validate_cover(cover, target)[0]
        cover += [(line_shape(1, ()), [(9, y)]) for y in range(5)]
        cover.append((line_shape(2, [(0, 1)]), [(0, 0), (9, 5)]))
        ok, trace = validate_cover(cover, target)
        assert not ok
        assert (ok, trace) == replay_cover(cover, target)

    @pytest.mark.parametrize("cover, ok", [
        ([], False),
        ([(line_shape(1, ()), [(0, 0)])], True),
        ([(line_shape(2, [(0, 1)]), [(0, 0), (0, 0)])], True),  # an edge inside the one site vanishes
        ([(line_shape(1, ()), [(0, 0)])] * 3, True),
        ([(line_shape(2, [(1, 0)]), [(0, 0), (1, 0)])], False),
        ([(line_shape(1, ()), [(0, 0)]), (line_shape(1, ()), [(1, 0)])], False),
    ], ids=["empty", "one-qubit", "in-site-edge", "three-qubits", "edge-off", "qubit-off"])
    def test_one_vertex_target(self, cover, ok):
        # one id, so the shift is 1, its least, and every code has an off-target end
        target = Graph([7], [], coords={7: (0, 0)})
        assert validate_cover(cover, target) == replay_cover(cover, target)
        assert validate_cover(cover, target)[0] == ok

    def test_pairs_in_any_order_and_orientation_match_merge_replay(self):
        # one block given with its sites shuffled, its pairs in reverse order and every
        # other pair turned around: the verdict stands, and its qubits take the new order
        dims = (8, 8)
        target = target_lattice(dims)
        cover = family_cover("windmill", dims, 1)
        shape, sites = cover[0]
        n = shape.vertex_count
        to = list(range(n))
        random.Random(7).shuffle(to)  # site i moves to position to[i]
        moved = [None] * n
        for i, site in enumerate(sites):
            moved[to[i]] = site
        pairs = tuple((to[i], to[j]) if k % 2 else (to[j], to[i]) for k, (i, j) in enumerate(reversed(shape.pairs)))
        assert {a < c for a, c in pairs} == {True, False}
        assert sorted(map(sorted, pairs)) != sorted(map(sorted, shape.pairs))
        cover[0] = (Shape(tuple(moved), pairs), moved)
        ok, trace = validate_cover(cover, target)
        assert ok
        assert (ok, trace) == replay_cover(cover, target)
        assert trace != validate_cover(family_cover("windmill", dims, 1), target)[1]

    @settings(max_examples=200, deadline=None)
    @given(random_covers())
    def test_matches_merge_replay(self, case):
        cover, target = case
        assert validate_cover(cover, target) == replay_cover(cover, target)


"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite asserts every stated tolerance, ordering and runtime cap.
"""

import itertools
import math
import random
import time
from pathlib import Path

import pytest

from multinet.blocks import site_costs
from multinet.cli import main as cli_main
from multinet.graphstate import (
    build_graph,
    color_graph,
    connect_project,
    merge_vertices,
)
from multinet.hashing import (
    InfeasibleTargetError,
    _spread_and_variance,
    bennett_success,
    entropy,
    multipartite_bound,
)
from multinet.noise import (
    BitMarginal,
    EdgeZChannel,
    PauliChannel,
    bit_marginals,
    channel_to_flip_source,
    edge_channel_to_flip_source,
)
from multinet.schemes import (
    Architecture,
    StorageModel,
    cluster_architecture_run,
    family_cover,
    from_bell_run,
    ghz_scheme_fidelity,
    triangular_repeater,
    validate_cover,
)

from conftest import random_graph
from oracle import exact_distribution, statevector_check

GOLDEN = Path(__file__).parent / "golden"

CAPACITY_SWEEP = list(range(200, 2001, 100))
Q_SWEEP = [0.95 + i * 0.001 for i in range(51)]


def report(num, text):
    print(f"[criterion {num:2d}] PASS: {text}")


def test_criterion_01_oracle_marginal_equivalence():
    rng = random.Random(101)
    start = time.time()
    for _ in range(200):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        vertex_channels, edge_channels, sources = {}, {}, []
        for v in g.vertices():
            roll = rng.random()
            if roll < 0.35:
                ch = PauliChannel.depolarizing(rng.uniform(0.75, 1.0))
            elif roll < 0.55:
                ch = PauliChannel.biased(
                    p_x=rng.uniform(0, 0.05), p_z=rng.uniform(0, 0.08)
                )
            elif roll < 0.65:
                ch = PauliChannel.phase_flip(rng.uniform(0, 0.1))
            else:
                continue
            vertex_channels[v] = ch
            sources.append(channel_to_flip_source(g, v, ch))
        for e in g.edges():
            if rng.random() < 0.35:
                qe = rng.uniform(0.8, 1.0)
                edge_channels[e] = EdgeZChannel(qe)
                sources.append(edge_channel_to_flip_source(e, qe))
        dist = exact_distribution(g, vertex_channels, edge_channels)
        for marg in bit_marginals(g, sources):
            assert abs(dist.marginal(marg.vertex)[1] - marg.lambda1) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(1, f"200 random graphs, marginals agree with oracle to 1e-12 ({elapsed:.1f}s)")


def test_criterion_02_oracle_transform_equivalence():
    rng = random.Random(202)
    start = time.time()
    checked = 0
    while checked < 50:
        n = rng.randint(3, 7)
        g = random_graph(rng, n)
        if checked % 2 == 0:
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
            assert statevector_check(g, ("connect", a, b), connect_project(g, a, b))
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(2, f"50 random merge/connect instances match the statevector oracle ({elapsed:.1f}s)")


def test_criterion_03_ghz_closed_forms():
    for q in (0.9, 0.95, 0.98, 0.99):
        for size in (3, 4, 5):
            g = build_graph("ghz-star", s=size)
            sources = [
                channel_to_flip_source(g, v, PauliChannel.depolarizing(q))
                for v in g.vertices()
            ]
            for marg in bit_marginals(g, sources):
                expected = (1 - q ** (g.degree(marg.vertex) + 1)) / 2
                assert abs(marg.lambda1 - expected) < 1e-12
    report(3, "GHZ-star marginals equal (1-q^(d+1))/2 to 1e-12 for q in {0.9,0.95,0.98,0.99}")


def test_criterion_04_fig3_bipartite_wins_under_ldn():
    for cap in CAPACITY_SWEEP:
        fa = ghz_scheme_fidelity("A", cap, 0.98, 1.0, channel="ldn").fidelity
        fc = ghz_scheme_fidelity("C", cap, 0.98, 1.0, channel="ldn").fidelity
        assert fc >= fa
    report(4, "q=0.98, p=1: pair-based bound >= multipartite bound at all capacities")


def test_criterion_05_fig4_ordering_with_noisy_resources():
    strict_ca = strict_ab = False
    for cap in CAPACITY_SWEEP:
        fa = ghz_scheme_fidelity("A", cap, 0.99, 0.98, channel="ldn").fidelity
        fb = ghz_scheme_fidelity("B", cap, 0.99, 0.98, channel="ldn").fidelity
        fc = ghz_scheme_fidelity("C", cap, 0.99, 0.98, channel="ldn").fidelity
        assert fc >= fa >= fb
        strict_ca |= fc > fa
        strict_ab |= fa > fb
    assert strict_ca and strict_ab
    report(5, "q=0.99, p=0.98: F_C >= F_A >= F_B everywhere, strictly somewhere")


def test_criterion_06_fig5_z_noise_favors_multipartite():
    for cap in CAPACITY_SWEEP:
        fa = ghz_scheme_fidelity("A", cap, 0.98, 1.0, channel="z").fidelity
        fc = ghz_scheme_fidelity("C", cap, 0.98, 1.0, channel="z").fidelity
        assert fa >= fc
    report(6, "Z-only leaf noise q=0.98: multipartite >= bipartite at all capacities")


def test_criterion_07_fig6_split_optimization():
    params = {"px": 1e-5, "pz": 0.02}
    strictly_better = False
    for cap in CAPACITY_SWEEP:
        equal = ghz_scheme_fidelity(
            "A", cap, 0.98, 1.0, channel="biased", channel_params=params
        ).fidelity
        optimized = ghz_scheme_fidelity(
            "A-opt", cap, 0.98, 1.0, channel="biased", channel_params=params
        ).fidelity
        assert optimized >= equal
        strictly_better |= optimized > equal
    assert strictly_better
    # symmetric depolarizing noise, i.e. both subprotocols see the same
    # statistics: optimization cannot gain anything measurable
    from multinet.hashing import (
        MarginalClass,
        multipartite_bound_classes,
        optimize_delta_split_classes,
    )
    from multinet.noise import uniform_depolarizing_marginal

    for cap in CAPACITY_SWEEP:
        lam = uniform_depolarizing_marginal(0.98, 2)[1]
        classes = [MarginalClass(lam, 0, 2), MarginalClass(lam, 1, 2)]
        equal, _ = multipartite_bound_classes(classes, cap, 1)
        _, best = optimize_delta_split_classes(classes, cap, 1)
        assert best - equal < 1e-6
    report(7, "biased channel: optimized split wins; symmetric LDN gain < 1e-6")


def test_criterion_08_fig8_advantage_fades_with_distance():
    diffs = [
        triangular_repeater(k, 1600, 0.99, 0.98, "A").fidelity
        - triangular_repeater(k, 1600, 0.99, 0.98, "C").fidelity
        for k in range(9)
    ]
    signs = [1 if d > 0 else -1 for d in diffs]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert signs[0] == 1 and signs[-1] == -1 and changes == 1
    report(8, f"triangular network: F_A - F_bip changes sign exactly once (at k={signs.index(-1)})")


def test_criterion_09_fig9_fig10_cluster_regions():
    start = time.time()
    store2 = StorageModel("per-node", 1200)
    adv2 = []
    for q in Q_SWEEP:
        sg = cluster_architecture_run(Architecture("shifted-grid", (64, 64)), store2, q, m=100)
        bip = cluster_architecture_run(Architecture("bipartite", (64, 64)), store2, q, m=100)
        adv2.append(sg.fidelity > bip.fidelity)
    elapsed2 = time.time() - start
    region = [i for i, flag in enumerate(adv2) if flag]
    assert region, "no multipartite advantage region in 2D"
    assert region == list(range(region[0], region[-1] + 1)), "region not contiguous"
    assert Q_SWEEP[region[-1]] >= 0.99, "region not near q = 1"
    assert elapsed2 < 60.0

    start = time.time()
    store3 = StorageModel("per-node", 1800)
    region3 = []
    for i, q in enumerate(Q_SWEEP):
        sg = cluster_architecture_run(Architecture("shifted-grid", (64, 64, 64)), store3, q, m=100)
        wm = cluster_architecture_run(Architecture("windmill", (64, 64, 64)), store3, q, m=100)
        bip = cluster_architecture_run(Architecture("bipartite", (64, 64, 64)), store3, q, m=100)
        assert sg.fidelity >= wm.fidelity
        if sg.fidelity > bip.fidelity:
            region3.append(i)
    elapsed3 = time.time() - start
    assert region3 and Q_SWEEP[region3[-1]] >= 0.99
    assert region3 == list(range(region3[0], region3[-1] + 1)), "3D region not contiguous"
    assert elapsed3 < 60.0
    report(9, f"cluster sweeps: 2D advantage region q in [{Q_SWEEP[region[0]]:.3f}, "
              f"{Q_SWEEP[region[-1]]:.3f}]; 3D shifted-grid >= windmill "
              f"({elapsed2:.1f}s / {elapsed3:.1f}s)")


def test_criterion_10_fig13_from_bell():
    region = []
    for q in Q_SWEEP:
        multi, bip = from_bell_run((64, 64), q, 800, m=50)
        if multi.fidelity > bip.fidelity:
            region.append(q)
    assert region and max(region) >= 0.99
    for results in (0, 1):
        ms = [
            from_bell_run((64, 64), q, 800, threshold=0.9)[results].m
            for q in (0.96, 0.97, 0.98, 0.99, 1.0)
        ]
        assert ms == sorted(ms), "m* not nonincreasing in noise"
    report(10, f"from-Bell: advantage region q in [{min(region):.3f}, {max(region):.3f}], "
               "m*(0.9) monotone in q")


def test_criterion_11_storage_accounting():
    expected = {
        ("bipartite", 2): 4,
        ("windmill", 2): 2,
        ("shifted-grid", 2): 2,
        ("bipartite", 3): 6,
        ("windmill", 3): 3,
        ("shifted-grid", 3): 2,
    }
    for (family, dim), cost in expected.items():
        assert max(c for c, _ in site_costs(family, dim, 1)) == cost
    report(11, "per-node storage costs match {4,2,2} in 2D and {6,3,2} in 3D exactly")


def test_criterion_12_cover_validation():
    def lattice(dims):
        if len(dims) == 2:
            return build_graph("lattice2d", w=dims[0], h=dims[1], periodic=True)
        return build_graph("lattice3d", w=dims[0], h=dims[1], d=dims[2], periodic=True)

    cases = []
    for b in (1, 2, 4):
        cases.append(("windmill", (8, 8), b))
        cases.append(("shifted-grid", (8, 8), b))
        cases.append(("shifted-grid", (4, 4, 4), b))
    cases += [("windmill", (4, 4, 4), 1), ("windmill", (4, 4, 4), 2)]
    # a size-4 windmill block spans 8 sites per axis, so its smallest torus is 8^3
    cases.append(("windmill", (8, 8, 8), 4))
    for family, dims, b in cases:
        ok, _ = validate_cover(family_cover(family, dims, b), lattice(dims))
        assert ok, (family, dims, b)
    report(12, f"{len(cases)} family/size covers merge exactly to their target lattices")


def test_criterion_13_bound_sanity():
    dist = (0.95, 0.05)
    values = [bennett_success(dist, n, 0.08) for n in (10, 50, 200, 1000, 5000, 50000)]
    assert all(0.0 <= f <= 1.0 for f in values)
    assert values == sorted(values)
    assert values[-1] > 1 - 1e-12
    deltas = [bennett_success(dist, 500, d) for d in (0.02, 0.05, 0.1, 0.2, 0.3)]
    assert deltas == sorted(deltas)
    # feasibility boundary sits exactly at the asymptotic yield 1 - S_A - S_B
    g = build_graph("ghz-star", s=3)
    coloring = color_graph(g)
    lam = {0: 0.029404, 1: 0.0198, 2: 0.0198}
    margs = [BitMarginal(v, 1 - lam[v], lam[v]) for v in g.vertices()]
    s_sum = entropy(margs[0].distribution) + entropy(margs[1].distribution)
    n = 5000
    m_boundary = math.ceil(n * (1 - s_sum))  # m/n at or past the yield limit
    with pytest.raises(InfeasibleTargetError):
        multipartite_bound(g, coloring, margs, n, m_boundary)
    # one step inside the boundary the slack is positive again (the bound
    # itself may still clamp to zero there)
    assert multipartite_bound(g, coloring, margs, n, m_boundary - 10).fidelity >= 0.0
    assert multipartite_bound(g, coloring, margs, n, int(0.8 * m_boundary)).fidelity > 0.9
    report(13, "bounds clamped, monotone in n and delta, asymptotic yield boundary exact")


def test_criterion_14_deterministic_csv(tmp_path):
    # the first runs fill the storage and constants caches, the second runs read them
    site_costs.cache_clear()
    _spread_and_variance.cache_clear()
    for preset in ("fig3", "fig10", "fig13"):
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{preset}-{run}.csv"
            assert cli_main(["run", preset, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == (GOLDEN / f"{preset}.csv").read_bytes()
    report(14, "preset CSVs byte-identical across repeated runs and to the golden files")

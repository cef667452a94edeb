"""Noise channels and graph-basis flip statistics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinet.graphstate import Graph, build_graph
from multinet.noise import (
    ChannelError,
    EdgeZChannel,
    BitMarginal,
    FlipSource,
    PauliChannel,
    bit_marginals,
    channel_to_flip_source,
    edge_channel_to_flip_source,
    output_noise_factor,
    pair_pattern_distribution,
    uniform_depolarizing_marginal,
    uniform_edge_channel_marginal,
)

from extras import compose_depolarizing


class TestChannels:
    def test_depolarizing_weights(self):
        ch = PauliChannel.depolarizing(0.98)
        assert ch.p_i == pytest.approx((1 + 3 * 0.98) / 4)
        assert ch.p_x == ch.p_y == ch.p_z == pytest.approx(0.005)

    def test_invalid_sum_rejected(self):
        with pytest.raises(ChannelError, match="channel probabilities sum to 2.0, not 1"):
            PauliChannel(0.5, 0.5, 0.5, 0.5)

    def test_edge_channel_range(self):
        with pytest.raises(ChannelError, match=r"edge channel parameter must be in \[0,1\], got 1.5"):
            EdgeZChannel(1.5)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PauliChannel(1.5, -0.5, 0.0, 0.0), r"channel probability must be in \[-1e-12,1\], got 1.5"),
            (lambda: FlipSource({3: 1.5}), r"flip probability at vertex 3 must be in \[0,1\], got 1.5"),
            (lambda: BitMarginal(4, 0.5, 0.25), "marginal at vertex 4 sums to 0.75, not 1"),
            (lambda: uniform_depolarizing_marginal(1.5, 4), r"depolarizing parameter must be in \[0,1\], got 1.5"),
            (lambda: uniform_depolarizing_marginal(-0.1, 3), r"depolarizing parameter must be in \[0,1\], got -0.1"),
            (lambda: uniform_edge_channel_marginal(1.5, 4), r"edge channel parameter must be in \[0,1\], got 1.5"),
            (lambda: uniform_edge_channel_marginal(-0.1, 4), r"edge channel parameter must be in \[0,1\], got -0.1"),
        ],
        ids=["pauli-range", "flip-source", "marginal", "ldn-marginal-high", "ldn-marginal-low",
             "edge-marginal-high", "edge-marginal-low"],
    )
    def test_checks_name_the_offender(self, build, message):
        with pytest.raises(ChannelError, match=message):
            build()


class TestFlipSources:
    def test_ldn_on_star_leaf(self):
        g = build_graph("ghz-star", s=3)
        src = channel_to_flip_source(g, 1, PauliChannel.depolarizing(0.98))
        assert src.flip_prob == pytest.approx({1: 0.01, 0: 0.01})

    def test_pure_z_only_hits_own_bit(self):
        g = build_graph("ghz-star", s=3)
        src = channel_to_flip_source(g, 1, PauliChannel.phase_flip(0.02))
        assert src.flip_prob == pytest.approx({1: 0.02, 0: 0.0})

    def test_biased_channel(self):
        g = build_graph("ghz-star", s=3)
        src = channel_to_flip_source(g, 1, PauliChannel.biased(p_x=1e-5, p_z=0.02))
        assert src.flip_prob[1] == pytest.approx(0.02)
        assert src.flip_prob[0] == pytest.approx(1e-5)

    def test_edge_channel_marginal(self):
        src = edge_channel_to_flip_source((0, 1), 0.98)
        assert src.flip_prob[0] == pytest.approx(2 * 0.02 / 3)
        assert src.flip_prob[1] == pytest.approx(2 * 0.02 / 3)
        assert edge_channel_to_flip_source((0, 1), 1.0).flip_prob[0] == 0.0
        assert edge_channel_to_flip_source((0, 1), 0.25).flip_prob[0] == pytest.approx(0.5)


class TestMarginals:
    def test_ghz_star_closed_form(self):
        g = build_graph("ghz-star", s=3)
        q = 0.98
        sources = [
            channel_to_flip_source(g, v, PauliChannel.depolarizing(q)) for v in g.vertices()
        ]
        margs = {m.vertex: m.lambda1 for m in bit_marginals(g, sources)}
        assert margs[0] == pytest.approx((1 - q**3) / 2, abs=1e-15)
        assert margs[1] == margs[2] == pytest.approx((1 - q**2) / 2, abs=1e-15)

    def test_torus_edge_channel_closed_form(self):
        g = build_graph("lattice2d", w=8, h=8, periodic=True)
        q = 0.98
        sources = [edge_channel_to_flip_source(e, q) for e in g.edges()]
        lam = uniform_edge_channel_marginal(q, 4)[1]
        assert lam == pytest.approx(0.05123767, abs=1e-8)
        for m in bit_marginals(g, sources):
            assert m.lambda1 == pytest.approx(lam, abs=1e-12)

    def test_no_sources(self):
        g = build_graph("line", n=4)
        assert all(m.lambda1 == 0.0 for m in bit_marginals(g, []))

    def test_source_order_irrelevant(self, rng):
        g = build_graph("lattice2d", w=3, h=3)
        sources = [
            channel_to_flip_source(g, v, PauliChannel.depolarizing(rng.uniform(0.8, 1)))
            for v in g.vertices()
        ]
        forward = bit_marginals(g, sources)
        backward = bit_marginals(g, list(reversed(sources)))
        for a, b in zip(forward, backward):
            assert a.lambda1 == pytest.approx(b.lambda1, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.25, max_value=0.999), st.floats(min_value=1e-4, max_value=1e-3))
    def test_ldn_marginal_monotone_in_q(self, q, dq):
        # on [1/4, 1] every XOR factor grows with q, so the flip odds shrink
        hi = min(1.0, q + dq)
        for degree in (1, 2, 4, 6):
            assert (
                uniform_depolarizing_marginal(hi, degree)[1]
                <= uniform_depolarizing_marginal(q, degree)[1] + 1e-15
            )


class TestPairDistribution:
    def test_ldn_both_halves_matches_squared_parameter(self):
        q = 0.98
        dist = pair_pattern_distribution(
            [PauliChannel.depolarizing(q)], [PauliChannel.depolarizing(q)]
        )
        expected = ((1 + 3 * q**2) / 4, (1 - q**2) / 4, (1 - q**2) / 4, (1 - q**2) / 4)
        assert dist == pytest.approx(expected, abs=1e-15)

    def test_z_noise_on_one_half(self):
        dist = pair_pattern_distribution([], [PauliChannel.phase_flip(0.02)])
        assert dist == pytest.approx((0.98, 0.02, 0.0, 0.0), abs=1e-15)

    def test_identity(self):
        assert pair_pattern_distribution([], []) == (1.0, 0.0, 0.0, 0.0)


class TestCompose:
    def test_identity_and_product(self):
        assert compose_depolarizing(1.0, 0.97) == pytest.approx(0.97)
        assert compose_depolarizing(0.99, 0.98) == pytest.approx(0.9702)

    def test_against_density_operator(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1.0, -1.0]).astype(complex)

        def apply(rho, q):
            return q * rho + (1 - q) / 4 * (rho + x @ rho @ x + y @ rho @ y + z @ rho @ z)

        a = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
        lhs = apply(apply(a, 0.99), 0.96)
        rhs = apply(a, compose_depolarizing(0.99, 0.96))
        assert np.allclose(lhs, rhs, atol=1e-14)


class TestOutputNoiseFactor:
    def test_perfect_resource(self):
        g = build_graph("ghz-star", s=3)
        assert output_noise_factor(g, [0, 1, 2], 1.0) == 1.0

    def test_single_qubit_value(self):
        g = build_graph("ghz-star", s=3)
        assert output_noise_factor(g, [1], 0.98) == pytest.approx(0.985)

    def test_three_qubits(self):
        g = build_graph("ghz-star", s=3)
        assert output_noise_factor(g, [0, 1, 2], 0.98) == pytest.approx(0.985**3)

    def test_isolated_vertex_rejected(self):
        g = Graph(range(2), [])
        with pytest.raises(ChannelError):
            output_noise_factor(g, [0], 0.9)


class TestInvariants:
    """The probability invariants raise ChannelError, also under ``python -O``."""

    BAD = [
        "BitMarginal(0, 0.5, 0.9)",
        "BitMarginal(0, float('nan'), 0.5)",
        "uniform_depolarizing_marginal(1.5, 1)",
        "uniform_depolarizing_marginal(float('nan'), 2)",
    ]

    @pytest.mark.parametrize("code", BAD)
    def test_raises_channel_error(self, code):
        with pytest.raises(ChannelError):
            eval(code)

    def test_good_marginal_accepted(self):
        assert BitMarginal(0, 0.5, 0.5).distribution == (0.5, 0.5)

    @pytest.mark.parametrize("code", BAD)
    def test_raises_under_optimize_flag(self, code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = (
            "from multinet.noise import BitMarginal, ChannelError, uniform_depolarizing_marginal\n"
            "try:\n"
            f"    {code}\n"
            "except ChannelError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('no ChannelError raised')\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

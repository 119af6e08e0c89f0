"""Tests for the capacitive network representation and nodal solver."""

import dataclasses

import numpy as np
import pytest

from conftest import make_random_network, reference_channel_ratio
from hbc_channel import (
    CapNetwork,
    SingularNetworkError,
    build_channel_network,
    full_transfer,
    ChannelScenario,
    solve_transfer,
    well_posedness_check,
)

DEFAULT_CAPS = dict(
    c_x_tx=0.5e-12, c_x_rx=0.5e-12, c_gb_rx=3e-12, c_l=10e-12, c_b=150.838e-12
)


def divider_network(c_source_side=1e-12, c_to_ref=9e-12):
    """Two-capacitor divider: source across (1, 0), output across C2 (2-0)."""
    return CapNetwork(
        node_count=3,
        reference_node=0,
        branches=((1, 2, c_source_side), (2, 0, c_to_ref)),
        source=(1, 0, 1.0),
        output=(2, 0),
    )


class TestCapNetworkValidation:
    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ValueError, match="capacitance must be positive"):
            CapNetwork(3, 0, ((1, 2, 0.0),), (1, 0, 1.0), (2, 0))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="itself"):
            CapNetwork(3, 0, ((1, 1, 1e-12),), (1, 0, 1.0), (2, 0))

    def test_rejects_out_of_range_node(self):
        with pytest.raises(ValueError, match="out of range"):
            CapNetwork(3, 0, ((1, 5, 1e-12),), (1, 0, 1.0), (2, 0))

    def test_rejects_degenerate_source_pair(self):
        with pytest.raises(ValueError, match="source nodes"):
            CapNetwork(3, 0, ((1, 2, 1e-12),), (1, 1, 1.0), (2, 0))

    def test_rejects_degenerate_output_pair(self):
        with pytest.raises(ValueError, match="output nodes"):
            CapNetwork(3, 0, ((1, 2, 1e-12),), (1, 0, 1.0), (2, 2))

    def test_dump_format(self):
        net = divider_network()
        lines = net.dump().splitlines()
        assert lines[0] == "1 2 1e-12"
        assert lines[1] == "2 0 9e-12"
        assert lines[2] == "SRC 1 0 1"
        assert lines[3] == "OUT 2 0"


class TestBuildChannelNetwork:
    def test_full_structure(self):
        net = build_channel_network(**DEFAULT_CAPS, c_c=60e-15)
        assert net.node_count == 4
        assert len(net.branches) == 6
        assert net.reference_node == 0
        assert net.source[:2] == (1, 2)
        assert net.output == (1, 3)

    def test_zero_coupling_omits_branch(self):
        net = build_channel_network(**DEFAULT_CAPS, c_c=0.0)
        assert len(net.branches) == 5
        assert all({i, j} != {2, 3} for i, j, _ in net.branches)

    def test_default_scenario_ratio(self):
        """Hand nodal elimination of the 2-unknown system gives 1.2198e-4."""
        net = build_channel_network(**DEFAULT_CAPS, c_c=0.0)
        ratio = solve_transfer(net).ratio
        assert ratio == pytest.approx(1.2198e-4, rel=5e-4)
        assert ratio == pytest.approx(
            reference_channel_ratio(0.5e-12, 0.5e-12, 3e-12, 10e-12, 150.838e-12, 0.0),
            rel=1e-12,
        )

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError, match="c_c"):
            build_channel_network(**DEFAULT_CAPS, c_c=-1e-15)

    def test_rejects_nonpositive_required_capacitance(self):
        bad = dict(DEFAULT_CAPS)
        bad["c_l"] = 0.0
        with pytest.raises(ValueError, match="c_l"):
            build_channel_network(**bad, c_c=0.0)


class TestWellPosedness:
    def test_divider_is_ok(self):
        assert well_posedness_check(divider_network()) == ()

    def test_isolated_extra_node_flagged(self):
        net = CapNetwork(
            node_count=4,
            reference_node=0,
            branches=((1, 2, 1e-12), (2, 0, 9e-12)),
            source=(1, 0, 1.0),
            output=(2, 0),
        )
        assert well_posedness_check(net) == (3,)

    def test_channel_without_coupling_is_ok(self):
        net = build_channel_network(**DEFAULT_CAPS, c_c=0.0)
        assert well_posedness_check(net) == ()

    def test_solve_raises_naming_floating_node(self):
        net = CapNetwork(
            node_count=4,
            reference_node=0,
            branches=((1, 2, 1e-12), (2, 0, 9e-12)),
            source=(1, 0, 1.0),
            output=(2, 0),
        )
        with pytest.raises(SingularNetworkError, match=r"\[3\]") as excinfo:
            solve_transfer(net)
        assert excinfo.value.floating_nodes == (3,)


class TestSolveTransfer:
    def test_capacitive_divider(self):
        ratio = solve_transfer(divider_network()).ratio
        assert type(ratio) is float
        assert ratio == pytest.approx(0.1, rel=1e-12)

    def test_scale_invariance_times_ten(self):
        net = divider_network()
        scaled = CapNetwork(
            net.node_count, net.reference_node,
            tuple((i, j, 10 * c) for i, j, c in net.branches),
            net.source, net.output,
        )
        r1 = solve_transfer(net).ratio
        r2 = solve_transfer(scaled).ratio
        assert abs(r1 - r2) / abs(r1) < 1e-12

    def test_charge_conservation_at_passive_nodes(self):
        """Sum of branch charge flow vanishes at non-source, non-reference nodes."""
        net = build_channel_network(**DEFAULT_CAPS, c_c=60e-15)
        potentials = solve_transfer(net).node_potentials
        residual = 0.0
        node = 3  # receiver ground: no source attached
        for i, j, c in net.branches:
            if i == node:
                residual += c * (potentials[i] - potentials[j])
            elif j == node:
                residual += c * (potentials[j] - potentials[i])
        assert abs(residual) < 1e-25

    def test_amplitude_scales_out(self):
        net = build_channel_network(**DEFAULT_CAPS, c_c=0.0)
        r1 = solve_transfer(net).ratio
        r2 = solve_transfer(dataclasses.replace(net, source=net.source[:2] + (3.7,))).ratio
        assert abs(r1 - r2) / abs(r1) < 1e-12


class TestSolverInvariantsRandomNetworks:
    """Scale invariance and real ratios on random nets."""

    def test_invariances_hold_on_100_random_networks(self):
        rng = np.random.default_rng(20260811)
        for _ in range(100):
            net = make_random_network(rng)
            r1 = solve_transfer(net).ratio
            lam = float(10 ** rng.uniform(-2, 2))
            scaled = CapNetwork(
                net.node_count, net.reference_node,
                tuple((i, j, c * lam) for i, j, c in net.branches),
                net.source, net.output,
            )
            r3 = solve_transfer(scaled).ratio
            assert abs(r1 - r3) / abs(r1) < 1e-12, "scale invariance violated"
            assert type(r1) is float, "ratio not real"


class TestOracleAgainstIndependentElimination:
    """Solver vs the hand-derived supernode solution of the channel circuit."""

    def test_agreement_over_regime_box(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            cxt, cxr = (float(v) for v in rng.uniform(0.1e-12, 1e-12, 2))
            cgb = float(rng.uniform(2e-12, 6e-12))
            cl = float(rng.uniform(5e-12, 20e-12))
            cb = float(rng.uniform(100e-12, 200e-12))
            cc = float(rng.uniform(0.0, 100e-15))
            net = build_channel_network(cxt, cxr, cgb, cl, cb, cc)
            solved = solve_transfer(net).ratio
            expected = reference_channel_ratio(cxt, cxr, cgb, cl, cb, cc)
            assert solved == pytest.approx(expected, rel=1e-10)


class TestClosedFormVsNodalStructure:
    """The closed form and the nodal solve share their numerator exactly.

    Writing the nodal transfer as (cc*S + N0) / (cc*S + D0) with
    S = c_b + c_x_rx + c_x_tx and N0 = c_x_rx*c_x_tx, the denominator offset
    D0 follows from one solve at cc = 0; the solver must then reproduce the
    whole cc dependence, which pins its numerator polynomial to the closed
    form's.
    """

    def test_numerator_structure_matches_closed_form(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            cxt, cxr = (float(v) for v in rng.uniform(0.1e-12, 1e-12, 2))
            cgb = float(rng.uniform(2e-12, 6e-12))
            cl = float(rng.uniform(5e-12, 20e-12))
            cb = float(rng.uniform(100e-12, 200e-12))
            s = cb + cxr + cxt
            n0 = cxr * cxt
            r0 = solve_transfer(build_channel_network(cxt, cxr, cgb, cl, cb, 0.0)).ratio
            d0 = n0 / r0
            for cc in (float(rng.uniform(1e-15, 100e-15)), 100e-15):
                predicted = (cc * s + n0) / (cc * s + d0)
                solved = solve_transfer(build_channel_network(cxt, cxr, cgb, cl, cb, cc)).ratio
                assert abs(solved - predicted) / predicted < 1e-9

    def test_closed_form_denominator_swap_is_the_only_difference(self):
        """Nodal and closed form differ by c_b*(c_x_tx - c_x_rx) in the
        denominator; correcting for it reproduces the solver exactly."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            cxt, cxr = (float(v) for v in rng.uniform(0.1e-12, 1e-12, 2))
            cgb = float(rng.uniform(2e-12, 6e-12))
            cl = float(rng.uniform(5e-12, 20e-12))
            cb = float(rng.uniform(100e-12, 200e-12))
            cc = float(rng.uniform(0.0, 100e-15))
            scenario = ChannelScenario(
                c_x_tx=cxt, c_x_rx=cxr, c_gb_rx=cgb, c_l=cl, c_b=cb, c_c=cc
            )
            closed = full_transfer(scenario)
            shared = cc * (cb + cxr + cxt)
            closed_den = (
                shared + (cb + cxr) * (cl + cgb + cxt) + cxt * (cl + cgb)
            )
            corrected = (shared + cxr * cxt) / (closed_den - cb * cxt + cb * cxr)
            solved = solve_transfer(build_channel_network(cxt, cxr, cgb, cl, cb, cc)).ratio
            assert solved == pytest.approx(corrected, rel=1e-9)
            assert closed == pytest.approx(
                (shared + cxr * cxt) / closed_den, rel=1e-12
            )

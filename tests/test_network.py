"""Tests for the capacitive network representation and nodal solver."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_random_network, reference_channel_ratio
from hbc_channel import (
    CapNetwork,
    DegenerateScenarioError,
    SingularNetworkError,
    build_channel_network,
    full_transfer,
    ChannelScenario,
    solve_transfer,
    well_posedness_check,
)
from hbc_channel import network
from hbc_channel.transfer import oracle_ratio

DEFAULT_CAPS = dict(
    c_x_tx=0.5e-12, c_x_rx=0.5e-12, c_gb_rx=3e-12, c_l=10e-12, c_b=150.838e-12
)


def divider_network(c_source_side=1e-12, c_to_ref=9e-12):
    """Two-capacitor divider: source across (1, 0), output across C2 (2-0)."""
    return CapNetwork(
        node_count=3,
        branches=((1, 2, c_source_side), (2, 0, c_to_ref)),
        source=(1, 0),
        output=(2, 0),
    )


class TestCapNetworkValidation:
    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ValueError, match="capacitance must be positive"):
            CapNetwork(3, ((1, 2, 0.0),), (1, 0), (2, 0))

    @pytest.mark.parametrize("c", [1e-12, 1, np.float64(1e-12)], ids=repr)
    def test_accepts_positive_finite_scalar(self, c):
        CapNetwork(3, ((1, 2, c),), (1, 0), (2, 0))

    @pytest.mark.parametrize(
        "c", [kind(v) for kind in (float, np.float64) for v in (0, -1, "nan", "inf")], ids=repr
    )
    def test_rejects_scalar_outside_positive_finite(self, c):
        with pytest.raises(ValueError, match="capacitance must be positive"):
            CapNetwork(3, ((1, 2, c),), (1, 0), (2, 0))

    def test_accepts_empty_batch_column(self):
        CapNetwork(3, ((1, 2, np.empty(0)),), (1, 0), (2, 0))

    @pytest.mark.parametrize("bad", [-1e-12, np.nan])
    def test_rejects_batch_column_with_bad_row(self, bad):
        """A column may hold zeros (absent branches), so its rule is nonnegative."""
        message = r"^branch \(1, 2\) capacitance must be nonnegative, got some row$"
        with pytest.raises(ValueError, match=message):
            CapNetwork(3, ((1, 2, np.array([1e-12, bad, 0.0])),), (1, 0), (2, 0))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="itself"):
            CapNetwork(3, ((1, 1, 1e-12),), (1, 0), (2, 0))

    def test_rejects_out_of_range_node(self):
        with pytest.raises(ValueError, match="out of range"):
            CapNetwork(3, ((1, 5, 1e-12),), (1, 0), (2, 0))

    def test_rejects_degenerate_source_pair(self):
        with pytest.raises(ValueError, match="source nodes"):
            CapNetwork(3, ((1, 2, 1e-12),), (1, 1), (2, 0))

    def test_rejects_degenerate_output_pair(self):
        with pytest.raises(ValueError, match="output nodes"):
            CapNetwork(3, ((1, 2, 1e-12),), (1, 0), (2, 2))

    def test_dump_format(self):
        net = divider_network()
        lines = net.dump().splitlines()
        assert lines[0] == "1 2 1e-12"
        assert lines[1] == "2 0 9e-12"
        assert lines[2] == "SRC 1 0 1"
        assert lines[3] == "OUT 2 0"


class TestBuildChannelNetwork:
    def test_full_structure(self):
        net = build_channel_network(ChannelScenario(**DEFAULT_CAPS, c_c=60e-15))
        assert net.node_count == 4
        assert len(net.branches) == 6
        assert net.source == (1, 2)
        assert net.output == (1, 3)

    def test_zero_coupling_omits_branch(self):
        net = build_channel_network(ChannelScenario(**DEFAULT_CAPS, c_c=0.0))
        assert len(net.branches) == 5
        assert all({i, j} != {2, 3} for i, j, _ in net.branches)

    def test_default_scenario_ratio(self):
        """Hand nodal elimination of the 2-unknown system gives 1.2198e-4."""
        net = build_channel_network(ChannelScenario(**DEFAULT_CAPS, c_c=0.0))
        ratio = solve_transfer(net).ratio
        assert ratio == pytest.approx(1.2198e-4, rel=5e-4)
        assert ratio == pytest.approx(
            reference_channel_ratio(0.5e-12, 0.5e-12, 3e-12, 10e-12, 150.838e-12, 0.0),
            rel=1e-12,
        )


class TestWellPosedness:
    def test_divider_is_ok(self):
        assert well_posedness_check(divider_network()) == ()

    def test_isolated_extra_node_flagged(self):
        net = CapNetwork(
            node_count=4,
            branches=((1, 2, 1e-12), (2, 0, 9e-12)),
            source=(1, 0),
            output=(2, 0),
        )
        assert well_posedness_check(net) == (3,)

    def test_channel_without_coupling_is_ok(self):
        net = build_channel_network(ChannelScenario(**DEFAULT_CAPS, c_c=0.0))
        assert well_posedness_check(net) == ()

    def test_solve_raises_naming_floating_node(self):
        net = CapNetwork(
            node_count=4,
            branches=((1, 2, 1e-12), (2, 0, 9e-12)),
            source=(1, 0),
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
            net.node_count,
            tuple((i, j, 10 * c) for i, j, c in net.branches),
            net.source, net.output,
        )
        r1 = solve_transfer(net).ratio
        r2 = solve_transfer(scaled).ratio
        assert abs(r1 - r2) / abs(r1) < 1e-12

    def test_charge_conservation_at_passive_nodes(self):
        """Sum of branch charge flow vanishes at non-source, non-reference nodes."""
        net = build_channel_network(ChannelScenario(**DEFAULT_CAPS, c_c=60e-15))
        potentials = solve_transfer(net).node_potentials
        residual = 0.0
        node = 3  # receiver ground: no source attached
        for i, j, c in net.branches:
            if i == node:
                residual += c * (potentials[i] - potentials[j])
            elif j == node:
                residual += c * (potentials[j] - potentials[i])
        assert abs(residual) < 1e-25


class TestSolverInvariantsRandomNetworks:
    """Scale invariance and real ratios on random nets."""

    def test_invariances_hold_on_100_random_networks(self):
        rng = np.random.default_rng(20260811)
        for _ in range(100):
            net = make_random_network(rng)
            r1 = solve_transfer(net).ratio
            lam = float(10 ** rng.uniform(-2, 2))
            scaled = CapNetwork(
                net.node_count,
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
            net = build_channel_network(ChannelScenario(cxt, cxr, cgb, cl, cb, cc))
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
            caps = (cxt, cxr, cgb, cl, cb)
            r0 = solve_transfer(build_channel_network(ChannelScenario(*caps, 0.0))).ratio
            d0 = n0 / r0
            for cc in (float(rng.uniform(1e-15, 100e-15)), 100e-15):
                predicted = (cc * s + n0) / (cc * s + d0)
                solved = solve_transfer(build_channel_network(ChannelScenario(*caps, cc))).ratio
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
            solved = solve_transfer(build_channel_network(scenario)).ratio
            assert solved == pytest.approx(corrected, rel=1e-9)
            assert closed == pytest.approx(
                (shared + cxr * cxt) / closed_den, rel=1e-12
            )


class TestScalarSolveMatchesBatch:
    """The one-scenario solve gives the doubles of a one-row batch, as floats."""

    def test_random_scenarios_match_the_one_row_batch_bitwise(self):
        rng = np.random.default_rng(20261019)
        for draw in range(500):
            caps = [float(10 ** rng.uniform(-15, -9)) for _ in range(6)]
            if draw % 3 == 0:
                caps[5] = 0.0  # no coupling branch in the scalar network
            s = ChannelScenario(*caps)
            column = ChannelScenario(*(np.array([c]) for c in caps))
            assert oracle_ratio(s) == oracle_ratio(column).tolist()[0]
            solved = solve_transfer(build_channel_network(s))
            batch = solve_transfer(build_channel_network(column))
            assert type(solved.ratio) is float
            assert type(solved.node_potentials) is tuple
            assert all(type(v) is float for v in solved.node_potentials)
            assert list(solved.node_potentials) == batch.node_potentials[0].tolist()


# Every value a checked scenario accepts: subnormals up to the largest float.
POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
COUPLING = st.one_of(st.just(0.0), POSITIVE)


class TestChannelNetworkIsWellPosed:
    """A checked scenario gives C_B, C_x-Tx and C_x-Rx positive, so each node
    of its network has a branch to earth and none can float, whatever the
    magnitudes and with or without the C_c branch."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(caps=st.tuples(*[POSITIVE] * 5, COUPLING))
    @example(caps=(5e-324,) * 5 + (0.0,))
    @example(caps=(1.7976931348623157e308,) * 5 + (5e-324,))
    def test_scalar_scenario(self, caps):
        net = build_channel_network(ChannelScenario(*caps))
        assert len(net.branches) == (6 if caps[5] > 0 else 5)
        assert well_posedness_check(net) == ()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(st.tuples(*[POSITIVE] * 5, COUPLING), min_size=1, max_size=8))
    @example(rows=[(1e-12,) * 5 + (0.0,), (1e-12,) * 5 + (1e-13,)])
    def test_scenario_of_columns(self, rows):
        """A c_c column always gives the C_c branch, zero rows included."""
        net = build_channel_network(ChannelScenario(*map(np.array, zip(*rows))))
        assert len(net.branches) == 6
        assert well_posedness_check(net) == ()


def ratio_bits(ratio):
    """The IEEE bits of a float ratio, or a list of them for a column."""
    return np.asarray(ratio, dtype=float).view(np.int64).tolist()


def network_outcome(s):
    """What ``oracle_ratio(s)`` must give, from the general solver: the ratio's
    type and bits, or the error type and message."""
    try:
        ratio = solve_transfer(build_channel_network(s)).ratio
    except SingularNetworkError as exc:
        return SingularNetworkError, str(exc)
    if not np.all(ratio > 0):
        shown = "some row" if isinstance(ratio, np.ndarray) else ratio
        return DegenerateScenarioError, f"oracle: nodal ratio {shown} is not positive"
    return type(ratio), ratio_bits(ratio)


def oracle_outcome(s):
    try:
        ratio = oracle_ratio(s)
    except (SingularNetworkError, DegenerateScenarioError) as exc:
        return type(exc), str(exc)
    return type(ratio), ratio_bits(ratio)


ROW = st.tuples(*[POSITIVE] * 5, COUPLING)


class TestOracleMatchesGeneralSolverBitwise:
    """``oracle_ratio`` assembles the channel's system straight from the
    scenario; ``solve_transfer(build_channel_network(s))`` stamps the same
    system branch by branch.  They agree on every checked scenario: the same
    ratio bits, or the same error."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(caps=ROW)
    @example(caps=(5e-324,) * 5 + (0.0,))
    @example(caps=(1.7976931348623157e308,) * 5 + (5e-324,))
    @example(caps=(1e-200, 1e-200, 3e-12, 1e-11, 1e-10, 0.0))  # the ratio underflows
    def test_scalar_scenario(self, caps):
        s = ChannelScenario(*caps)
        assert oracle_outcome(s) == network_outcome(s)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(ROW, min_size=1, max_size=8))
    @example(rows=[(1e-12,) * 5 + (0.0,), (1e-12,) * 5 + (1e-13,)])
    def test_scenario_of_columns(self, rows):
        s = ChannelScenario(*map(np.array, zip(*rows)))
        assert oracle_outcome(s) == network_outcome(s)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(caps=ROW, swept=st.integers(0, 5), data=st.data())
    def test_one_column_among_floats(self, caps, swept, data):
        """As a sweep gives: the swept quantity is a column, the rest floats."""
        values = st.lists(COUPLING if swept == 5 else POSITIVE, min_size=1, max_size=8)
        caps = list(caps)
        caps[swept] = np.array(data.draw(values))
        s = ChannelScenario(*caps)
        assert oracle_outcome(s) == network_outcome(s)


def test_oracle_builds_no_network_and_walks_no_graph(monkeypatch):
    """The oracle never builds a ``CapNetwork`` nor runs the floating-node
    walk: with both made to raise, it still evaluates, to the same bits."""
    scenarios = [
        ChannelScenario(**DEFAULT_CAPS, c_c=60e-15),
        ChannelScenario(**DEFAULT_CAPS, c_c=0.0),
        ChannelScenario(**{k: np.full(3, v) for k, v in DEFAULT_CAPS.items()},
                        c_c=np.array([0.0, 1e-15, 60e-15])),
    ]
    expected = [ratio_bits(oracle_ratio(s)) for s in scenarios]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not build or walk a network")

    monkeypatch.setattr(network, "CapNetwork", forbidden)
    monkeypatch.setattr(network, "well_posedness_check", forbidden)
    with pytest.raises(AssertionError):
        build_channel_network(scenarios[0])
    assert [ratio_bits(oracle_ratio(s)) for s in scenarios] == expected


def floating_reference(net):
    """Nodes that no path of branches and the source joins to node 0, by the
    transitive closure of the adjacency matrix."""
    n = net.node_count
    joined = np.eye(n, dtype=bool)
    for i, j in [(i, j) for i, j, _ in net.branches] + [net.source]:
        joined[i, j] = joined[j, i] = True
    for _ in range(n):
        joined = (joined.astype(int) @ joined.astype(int)) > 0
    return tuple(int(k) for k in np.flatnonzero(~joined[0]))


class TestFloatingNodesOnRandomNetworks:
    def test_floating_nodes_are_named_and_raised(self):
        rng = np.random.default_rng(17)
        floating_seen = 0
        for _ in range(300):
            n = int(rng.integers(3, 8))
            branches = []
            for _ in range(int(rng.integers(1, 2 * n))):
                i, j = (int(v) for v in rng.choice(n, 2, replace=False))
                branches.append((i, j, float(10 ** rng.uniform(-14, -10))))
            source = tuple(int(v) for v in rng.choice(n, 2, replace=False))
            net = CapNetwork(n, tuple(branches), source, (source[0], (source[0] + 1) % n))
            expected = floating_reference(net)
            assert well_posedness_check(net) == expected
            if expected:
                floating_seen += 1
                with pytest.raises(SingularNetworkError) as excinfo:
                    solve_transfer(net)
                assert excinfo.value.floating_nodes == expected
        assert floating_seen > 50

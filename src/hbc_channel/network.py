"""Lumped capacitive network and its nodal solution.

The channel circuit is represented as a general labelled-node network of
capacitive branches with one ideal voltage source and one output port.  The
solver performs standard modified nodal analysis (dense LU with partial
pivoting via numpy).  A capacitance-only network has a real transfer ratio
that does not depend on frequency, so the solve is real and takes no
frequency.  It is the general solver that the numerical oracle of every
closed form, :func:`hbc_channel.transfer.oracle_ratio`, is checked against
bit for bit; the oracle assembles the channel's system straight from a
scenario and shares this module's LU solve.

Branch capacitances may be numpy columns of one length: the network is then a
batch of networks of one topology, one per row, solved in one stacked call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .columns import NONNEGATIVE, POSITIVE, holds, require

if TYPE_CHECKING:
    from .transfer import ChannelScenario


class SingularNetworkError(RuntimeError):
    """Network has no unique solution (typically a floating node)."""

    def __init__(self, message: str, floating_nodes: tuple[int, ...] = ()):
        super().__init__(message)
        self.floating_nodes = floating_nodes


@dataclass(frozen=True)
class CapNetwork:
    """Capacitive network with a unit source branch and an output port.

    Node 0 is earth ground, the reference at potential 0.

    Attributes:
        node_count: Number of nodes, ids 0..node_count-1.
        branches: (node_i, node_j, capacitance_farads) tuples; parallel
            branches between the same pair are allowed.  In a batch a
            capacitance column may be zero on rows where the branch is absent.
        source: (node_plus, node_minus) ideal 1 V source.
        output: (node_plus, node_minus) port whose voltage defines the ratio.
    """

    node_count: int
    branches: tuple[tuple[int, int, float], ...]
    source: tuple[int, int]
    output: tuple[int, int]

    def __post_init__(self) -> None:
        n = self.node_count
        if n < 2:
            raise ValueError(f"network needs at least 2 nodes, got {n}")
        for i, j, c in self.branches:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"branch ({i}, {j}) references a node out of range")
            if i == j:
                raise ValueError(f"branch ({i}, {j}) connects a node to itself")
            # A batch branch may be absent (zero) on some rows.
            limits = NONNEGATIVE if isinstance(c, np.ndarray) else POSITIVE
            # The test alone first: building each branch's f-string name slows every solve.
            if not holds(limits[1](c)):
                require(limits, f"branch ({i}, {j}) capacitance", c)
        sp, sm = self.source
        if not (0 <= sp < n and 0 <= sm < n) or sp == sm:
            raise ValueError(f"source nodes ({sp}, {sm}) must be a distinct in-range pair")
        op, om = self.output
        if not (0 <= op < n and 0 <= om < n) or op == om:
            raise ValueError(f"output nodes ({op}, {om}) must be a distinct in-range pair")

    def dump(self) -> str:
        """Debug branch list: one `node_i node_j C_farads` line per branch,
        plus SRC/OUT lines."""
        lines = [f"{i} {j} {c:.12g}" for i, j, c in self.branches]
        lines.append(f"SRC {self.source[0]} {self.source[1]} 1")
        lines.append(f"OUT {self.output[0]} {self.output[1]}")
        return "\n".join(lines)


@dataclass(frozen=True)
class TransferSolution:
    """Solved transfer: output/source voltage ratio plus all node potentials.

    For a batch, ``ratio`` is a column and ``node_potentials`` an array with
    one row per network.
    """

    ratio: float
    node_potentials: tuple[float, ...] = field(repr=False)


# Node ids of the standard channel circuit: earth ground is the reference,
# the body carries the source potential, and each device contributes its
# floating ground plate as a node.
NODE_EARTH = 0
NODE_BODY = 1
NODE_TX_GROUND = 2
NODE_RX_GROUND = 3


def build_channel_network(s: ChannelScenario) -> CapNetwork:
    """Assemble the 4-node body-channel circuit of a checked scenario.

    Nodes: earth E (reference), body B, Tx ground TG, Rx ground RG.
    Branches: C_B (B-E), C_x-Tx (TG-E), C_x-Rx (RG-E), C_L (B-RG),
    C_GB-Rx (B-RG) and, when positive, C_c (TG-RG).  The unit source sits
    across (B, TG) and the output is read across (B, RG), i.e. over the load.

    The body to Tx-ground capacitance is deliberately absent: it would sit
    directly across the ideal source and cannot affect the transfer.

    The scenario has checked every capacitance.  A scenario of columns gives
    a batch; a ``c_c`` column always gives the C_c branch, whose zero rows add
    exact zeros to their matrices.
    """
    branches = [
        (NODE_BODY, NODE_EARTH, s.c_b),
        (NODE_TX_GROUND, NODE_EARTH, s.c_x_tx),
        (NODE_RX_GROUND, NODE_EARTH, s.c_x_rx),
        (NODE_BODY, NODE_RX_GROUND, s.c_l),
        (NODE_BODY, NODE_RX_GROUND, s.c_gb_rx),
    ]
    if isinstance(s.c_c, np.ndarray) or s.c_c > 0:
        branches.append((NODE_TX_GROUND, NODE_RX_GROUND, s.c_c))
    return CapNetwork(
        node_count=4,
        branches=tuple(branches),
        source=(NODE_BODY, NODE_TX_GROUND),
        output=(NODE_BODY, NODE_RX_GROUND),
    )


def well_posedness_check(net: CapNetwork) -> tuple[int, ...]:
    """Diagnose floating nodes.

    A node is floating when it cannot reach earth (node 0) through the
    union of capacitive branches and the source branch.  Returns the sorted
    tuple of floating node ids; an empty tuple means the network is well
    posed.
    """
    edges = [(i, j) for i, j, _ in net.branches]
    edges.append(net.source)
    reached = {0}
    size = 0
    # Passes over the edges until one reaches no new node, or every node is reached.
    while size < len(reached) < net.node_count:
        size = len(reached)
        for i, j in edges:
            if (i in reached) != (j in reached):
                reached.add(i)
                reached.add(j)
    return tuple(n for n in range(net.node_count) if n not in reached)


def solve_transfer(net: CapNetwork) -> TransferSolution:
    """Solve the network by modified nodal analysis.

    Unknown k-1 is the potential of node k (node 0 is earth, at potential
    0) and the last unknown is the source branch current; charge
    conservation holds at every non-source node.

    Every branch admittance of a purely capacitive network is j*w*C, so the
    j*w factor cancels out of the node potentials: the solve is real and
    takes no frequency.  The system is assembled with capacitances
    normalised by the largest branch value (the source current unknown
    absorbs the j*w*C_ref scale), which keeps the matrix well conditioned;
    dense LU with partial pivoting does the elimination.  A batch stacks one
    such system per row, assembled in the same branch order, and solves them
    in one call.

    Returns:
        TransferSolution with ratio = V_out+ - V_out- for the 1 V source.

    Raises:
        SingularNetworkError: If a node is floating (named in the message)
            or the nodal system is otherwise singular.
    """
    floating = well_posedness_check(net)
    if floating:
        raise SingularNetworkError(
            f"floating node(s) {list(floating)} have no path to the reference node",
            floating_nodes=floating,
        )

    m = net.node_count - 1  # the source current is unknown m
    batch, zero, scaled = _scaled_by_largest([c for _, _, c in net.branches])
    # Entries are stamped as floats (columns in a batch) and become one array
    # at the end; a stamp makes a new value, so the shared zero stays zero.
    a = [[zero] * (m + 1) for _ in range(m + 1)]
    for (i, j, _), b in zip(net.branches, scaled):
        p, q = i - 1, j - 1
        if i:
            a[p][p] = a[p][p] + b
        if j:
            a[q][q] = a[q][q] + b
        if i and j:
            a[p][q] = a[p][q] - b
            a[q][p] = a[q][p] - b

    sp, sm = net.source
    for node, sign in ((sp, 1.0), (sm, -1.0)):
        if node:
            a[node - 1][m] = a[m][node - 1] = zero + sign
    potentials = [0.0, *_solve_nodal(a, batch)[:m]]
    op, om = net.output
    rows = np.stack(np.broadcast_arrays(*potentials), axis=-1) if batch else tuple(potentials)
    return TransferSolution(ratio=potentials[op] - potentials[om], node_potentials=rows)


def _scaled_by_largest(caps: list) -> tuple[tuple[int, ...], float | np.ndarray, list]:
    """The batch shape of capacitances ``caps`` (``()`` for floats), a zero
    entry of that shape, and each capacitance divided by the largest."""
    batch = next((c.shape for c in caps if isinstance(c, np.ndarray)), ())
    c_ref = functools.reduce(np.maximum, caps) if batch else max(caps)
    return batch, (np.zeros(batch) if batch else 0.0), [c / c_ref for c in caps]


def _solve_nodal(a: list, batch: tuple[int, ...]) -> list[float] | np.ndarray:
    """The unknowns of the nodal system ``a`` (floats, or columns of shape
    ``batch``), the unit source's current last: floats, or one column each.

    Raises:
        SingularNetworkError: If the system is singular or an unknown is not finite.
    """
    a = np.array(a)
    # One right-hand column per system: a stack of (n, 1) matrices is read
    # the same way by every numpy version.
    rhs = np.zeros((len(a), 1) + batch)
    rhs[-1, 0] = 1.0
    if batch:  # matrix axes last for the stacked solve
        a, rhs = (np.moveaxis(x, (0, 1), (-2, -1)) for x in (a, rhs))

    try:
        # Unknowns first again: one entry, or one column, per unknown.
        solution = np.linalg.solve(a, rhs)[..., 0].T
    except np.linalg.LinAlgError as exc:
        raise SingularNetworkError(f"nodal system is singular: {exc}") from exc
    if batch:
        if not holds(np.isfinite(solution).all(axis=0)):
            raise SingularNetworkError("nodal system is numerically singular")
        return solution
    # One system: the same doubles as Python floats, without numpy scalars.
    values = solution.tolist()
    if not all(map(math.isfinite, values)):
        raise SingularNetworkError("nodal system is numerically singular")
    return values

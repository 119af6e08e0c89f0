"""Lumped capacitive network and its nodal solution.

The channel circuit is represented as a general labelled-node network of
capacitive branches with one ideal voltage source and one output port.  The
solver performs standard modified nodal analysis (dense LU with partial
pivoting via numpy).  A capacitance-only network has a real transfer ratio
that does not depend on frequency, so the solve is real and takes no
frequency; it is an independent numerical oracle for every closed-form
expression in :mod:`hbc_channel.transfer`.

Branch capacitances may be numpy columns of one length: the network is then a
batch of networks of one topology, one per row, solved in one stacked call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .columns import holds


class SingularNetworkError(RuntimeError):
    """Network has no unique solution (typically a floating node)."""

    def __init__(self, message: str, floating_nodes: tuple[int, ...] = ()):
        super().__init__(message)
        self.floating_nodes = floating_nodes


@dataclass(frozen=True)
class CapNetwork:
    """Capacitive network with an ideal source branch and an output port.

    Attributes:
        node_count: Number of nodes, ids 0..node_count-1.
        reference_node: Earth-ground node id (potential 0).
        branches: (node_i, node_j, capacitance_farads) tuples; parallel
            branches between the same pair are allowed.  In a batch a
            capacitance column may be zero on rows where the branch is absent.
        source: (node_plus, node_minus, amplitude_volts) ideal source.
        output: (node_plus, node_minus) port whose voltage defines the ratio.
    """

    node_count: int
    reference_node: int
    branches: tuple[tuple[int, int, float], ...]
    source: tuple[int, int, float]
    output: tuple[int, int]

    def __post_init__(self) -> None:
        n = self.node_count
        if n < 2:
            raise ValueError(f"network needs at least 2 nodes, got {n}")
        if not 0 <= self.reference_node < n:
            raise ValueError(f"reference node {self.reference_node} out of range")
        for i, j, c in self.branches:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"branch ({i}, {j}) references a node out of range")
            if i == j:
                raise ValueError(f"branch ({i}, {j}) connects a node to itself")
            if isinstance(c, np.ndarray):  # a batch branch may be absent (zero) on some rows
                valid = holds((c >= 0) & (c < math.inf))
            else:
                valid = c > 0 and math.isfinite(c)
            if not valid:
                raise ValueError(f"branch ({i}, {j}) capacitance must be positive, got {c}")
        sp, sm, amp = self.source
        if not (0 <= sp < n and 0 <= sm < n) or sp == sm:
            raise ValueError(f"source nodes ({sp}, {sm}) must be a distinct in-range pair")
        if not (amp != 0 and math.isfinite(amp)):
            raise ValueError(f"source amplitude must be nonzero, got {amp}")
        op, om = self.output
        if not (0 <= op < n and 0 <= om < n) or op == om:
            raise ValueError(f"output nodes ({op}, {om}) must be a distinct in-range pair")

    def dump(self) -> str:
        """Debug branch list: one `node_i node_j C_farads` line per branch,
        plus SRC/OUT lines."""
        lines = [f"{i} {j} {c:.12g}" for i, j, c in self.branches]
        sp, sm, amp = self.source
        lines.append(f"SRC {sp} {sm} {amp:.12g}")
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


def build_channel_network(
    c_x_tx: float,
    c_x_rx: float,
    c_gb_rx: float,
    c_l: float,
    c_b: float,
    c_c: float,
) -> CapNetwork:
    """Assemble the 4-node body-channel circuit.

    Nodes: earth E (reference), body B, Tx ground TG, Rx ground RG.
    Branches: C_B (B-E), C_x-Tx (TG-E), C_x-Rx (RG-E), C_L (B-RG),
    C_GB-Rx (B-RG) and, when positive, C_c (TG-RG).  The unit source sits
    across (B, TG) and the output is read across (B, RG), i.e. over the load.

    The body to Tx-ground capacitance is deliberately absent: it would sit
    directly across the ideal source and cannot affect the transfer.

    Columns give a batch, which always carries the C_c branch: its zero rows
    add exact zeros to their matrices.

    Args:
        c_x_tx: Tx return-path capacitance, F (> 0).
        c_x_rx: Rx return-path capacitance, F (> 0).
        c_gb_rx: Rx ground-to-body capacitance, F (> 0).
        c_l: Load capacitance, F (> 0).
        c_b: Body-to-earth capacitance, F (> 0).
        c_c: Inter-device coupling capacitance, F (>= 0; 0 omits the branch).
    """
    for name, value in (
        ("c_x_tx", c_x_tx), ("c_x_rx", c_x_rx), ("c_gb_rx", c_gb_rx),
        ("c_l", c_l), ("c_b", c_b),
    ):
        if not holds((value > 0) & (value < math.inf)):
            raise ValueError(f"{name} must be positive, got {value}")
    if not holds((c_c >= 0) & (c_c < math.inf)):
        raise ValueError(f"c_c must be nonnegative, got {c_c}")

    branches = [
        (NODE_BODY, NODE_EARTH, c_b),
        (NODE_TX_GROUND, NODE_EARTH, c_x_tx),
        (NODE_RX_GROUND, NODE_EARTH, c_x_rx),
        (NODE_BODY, NODE_RX_GROUND, c_l),
        (NODE_BODY, NODE_RX_GROUND, c_gb_rx),
    ]
    if isinstance(c_c, np.ndarray) or c_c > 0:
        branches.append((NODE_TX_GROUND, NODE_RX_GROUND, c_c))
    return CapNetwork(
        node_count=4,
        reference_node=NODE_EARTH,
        branches=tuple(branches),
        source=(NODE_BODY, NODE_TX_GROUND, 1.0),
        output=(NODE_BODY, NODE_RX_GROUND),
    )


def well_posedness_check(net: CapNetwork) -> tuple[int, ...]:
    """Diagnose floating nodes.

    A node is floating when it cannot reach the reference node through the
    union of capacitive branches and the source branch.  Returns the sorted
    tuple of floating node ids; an empty tuple means the network is well
    posed.
    """
    adjacency: dict[int, set[int]] = {n: set() for n in range(net.node_count)}
    for i, j, _ in net.branches:
        adjacency[i].add(j)
        adjacency[j].add(i)
    sp, sm, _ = net.source
    adjacency[sp].add(sm)
    adjacency[sm].add(sp)

    seen = {net.reference_node}
    stack = [net.reference_node]
    while stack:
        node = stack.pop()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return tuple(sorted(set(range(net.node_count)) - seen))


def solve_transfer(net: CapNetwork) -> TransferSolution:
    """Solve the network by modified nodal analysis.

    Unknowns are the non-reference node potentials plus the source branch
    current, and charge conservation holds at every non-source node.

    Every branch admittance of a purely capacitive network is j*w*C, so the
    j*w factor cancels out of the node potentials: the solve is real and
    takes no frequency.  The system is assembled with capacitances
    normalised by the largest branch value (the source current unknown
    absorbs the j*w*C_ref scale), which keeps the matrix well conditioned;
    dense LU with partial pivoting does the elimination.  A batch stacks one
    such system per row, assembled in the same branch order, and solves them
    in one call.

    Returns:
        TransferSolution with ratio = (V_out+ - V_out-) / source amplitude.

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

    # Unknown ordering: non-reference nodes in id order, then source current.
    unknown_index = {
        node: k for k, node in enumerate(n for n in range(net.node_count) if n != net.reference_node)
    }
    m = len(unknown_index)
    caps = [c for _, _, c in net.branches]
    batch = next((c.shape for c in caps if isinstance(c, np.ndarray)), ())
    c_ref = functools.reduce(np.maximum, caps) if batch else max(caps)
    # Entries are stamped as floats (columns in a batch) and become one array
    # at the end; a stamp makes a new value, so the shared zero stays zero.
    zero = np.zeros(batch) if batch else 0.0
    a = [[zero] * (m + 1) for _ in range(m + 1)]
    for i, j, c in net.branches:
        b = c / c_ref
        p, q = unknown_index.get(i), unknown_index.get(j)
        if p is not None:
            a[p][p] = a[p][p] + b
        if q is not None:
            a[q][q] = a[q][q] + b
        if p is not None and q is not None:
            a[p][q] = a[p][q] - b
            a[q][p] = a[q][p] - b

    sp, sm, amplitude = net.source
    for node, sign in ((sp, 1.0), (sm, -1.0)):
        if node != net.reference_node:
            a[unknown_index[node]][m] = a[m][unknown_index[node]] = zero + sign
    a = np.array(a)
    # One right-hand column per system: a stack of (m+1, 1) matrices is read
    # the same way by every numpy version.
    rhs = np.zeros((m + 1, 1) + batch)
    rhs[m, 0] = amplitude
    if batch:  # matrix axes last for the stacked solve
        a, rhs = (np.moveaxis(x, (0, 1), (-2, -1)) for x in (a, rhs))

    try:
        # Unknowns first again: one entry, or one column, per unknown.
        solution = np.linalg.solve(a, rhs)[..., 0].T
    except np.linalg.LinAlgError as exc:
        raise SingularNetworkError(f"nodal system is singular: {exc}") from exc
    if not holds(np.isfinite(solution).all(axis=0)):
        raise SingularNetworkError("nodal system is numerically singular")

    potentials = [0.0] * net.node_count
    for node, k in unknown_index.items():
        potentials[node] = solution[k]

    op, om = net.output
    ratio = (potentials[op] - potentials[om]) / amplitude
    if batch:
        rows = np.stack(np.broadcast_arrays(*potentials), axis=-1)
        return TransferSolution(ratio=ratio, node_potentials=rows)
    return TransferSolution(ratio=float(ratio), node_potentials=tuple(map(float, potentials)))

"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np
import pytest

from hbc_channel import CapNetwork, ChannelScenario, solve_transfer

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"

# Child interpreters (`python -m hbc_channel`) import the package from this
# checkout too, as this process does through `pythonpath` in pyproject.toml.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture
def config_dir() -> Path:
    return CONFIG_DIR


@pytest.fixture
def default_scenario() -> ChannelScenario:
    """The model's reference operating point (no inter-device coupling)."""
    return ChannelScenario(
        c_x_tx=0.5e-12, c_x_rx=0.5e-12, c_gb_rx=3e-12,
        c_l=10e-12, c_b=150.838e-12, c_c=0.0,
    )


def reference_channel_ratio(cxt, cxr, cgb, cl, cb, cc):
    """Independent nodal solution of the 4-node channel circuit.

    Derived by hand with a supernode across the ideal source and Cramer's
    rule on the remaining 2x2 system; used as the oracle for the solver's
    output on the channel topology.
    """
    g = cl + cgb
    a1 = cb + g + cxt + cc
    b1 = g + cc
    a2 = cxr + g + cc
    det = a1 * a2 - b1 * b1
    v_body = ((cxt + cc) * a2 - b1 * cc) / det
    v_rx_ground = (b1 * (cxt + cc) - a1 * cc) / det
    return v_body - v_rx_ground


def make_random_network(rng: np.random.Generator, min_ratio: float = 1e-3):
    """Random well-posed capacitive network with a non-degenerate output.

    Capacitances are log-uniform over the model's physical range (10 fF to
    200 pF).  Every node gets degree >= 2 so no output port sits across a
    zero-current leaf branch, and draws whose output ratio is smaller than
    ``min_ratio`` (catastrophic cancellation territory) are rejected.
    """
    log_span = (math.log10(1e-14), math.log10(2e-10))
    while True:
        n = int(rng.integers(3, 9))
        branches = [
            (i, int(rng.integers(0, i)), float(10 ** rng.uniform(*log_span)))
            for i in range(1, n)
        ]
        degree = [0] * n
        for i, j, _ in branches:
            degree[i] += 1
            degree[j] += 1
        for node in range(n):
            if degree[node] < 2:
                other = int(rng.choice([m for m in range(n) if m != node]))
                branches.append((node, other, float(10 ** rng.uniform(*log_span))))
                degree[node] += 1
                degree[other] += 1
        source_pair = rng.choice(n, 2, replace=False)
        output_pair = rng.choice(n, 2, replace=False)
        net = CapNetwork(
            node_count=n,
            branches=tuple(branches),
            source=(int(source_pair[0]), int(source_pair[1])),
            output=(int(output_pair[0]), int(output_pair[1])),
        )
        ratio = solve_transfer(net).ratio
        if abs(ratio) >= min_ratio:
            return net

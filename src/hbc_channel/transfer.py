"""Closed-form voltage transfer functions of the capacitive body channel.

Implements every algebraic form of the channel model:

* ``body_potential_ratio`` - body potential divider C_return/C_B,
* ``rx_transfer_distant`` - receiver-side product form, valid when the
  receiver return path is small against load + ground-to-body capacitance,
* ``full_transfer`` - the complete transfer including inter-device coupling,
* ``simplified_transfer`` - the large-C_B / large-C_L reduction of it,
* ``geometric_transfer`` - the same expressions substituted with the
  geometric capacitance laws of :mod:`hbc_channel.geometry`,

plus dB conversion and :func:`compare_closed_forms`, which evaluates all
applicable forms against the nodal oracle and fills regime flags.

A :class:`ChannelScenario` may hold numpy columns (one row per sweep step);
``full_transfer``, ``regime_flags``, ``ratio_to_db`` and ``relative_error``
then give one value per row (see :mod:`hbc_channel.columns`).

Note on the full form: its denominator and the nodal solution of the
reconstructed circuit differ by one cross term that swaps the Tx and Rx
return-path capacitances; the two coincide exactly when ``c_x_tx == c_x_rx``
and stay within a few percent when the two devices are similar.  The closed
form is kept verbatim and the disagreement is surfaced through the report's
relative errors instead of being silently corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .columns import NONNEGATIVE, POSITIVE, fails, holds, require, shown
from .constants import (
    COUPLED_COUPLING_F,
    DEFAULT_FREQUENCY_HZ,
    DEGENERATE_DENOMINATOR,
    DISTANT_COUPLING_F,
)
from .geometry import (
    SEPARATION, DeviceGeometry, ground_to_body_capacitance, plate_to_plate_capacitance,
    return_path_capacitance,
)
from .network import _scaled_by_largest, _solve_nodal

# The range of a body potential ratio V_body/V_in that a return path gives.
_BODY_RATIO = "in (0, 1)", lambda v: (v > 0.0) & (v < 1.0)


class DegenerateScenarioError(ArithmeticError):
    """A transfer denominator collapsed below the meaningful range."""


def _checked_ratio(numerator: float, denominator: float, context: str) -> float:
    if fails(denominator < DEGENERATE_DENOMINATOR):
        raise DegenerateScenarioError(
            f"{context}: denominator {shown(denominator, '.3e')} below "
            f"{DEGENERATE_DENOMINATOR:.0e}"
        )
    # Positive inputs give a positive ratio unless the numerator underflowed.
    ratio = numerator / denominator
    if not holds(ratio > 0):
        raise DegenerateScenarioError(f"{context}: ratio {shown(ratio, '')} is not positive")
    return ratio


@dataclass(frozen=True)
class GeometricProvenance:
    """Geometric inputs a scenario's capacitances were derived from.

    Any subset may be present; fields left ``None`` were supplied directly as
    capacitances.  ``d`` (m) and ``k`` (F/m) are present only when the
    near-field law ``k*pi*a^2/d`` gave the scenario's coupling capacitance.
    """

    tx_geom: DeviceGeometry | None = None
    rx_geom: DeviceGeometry | None = None
    x_tx: float | None = None
    x_rx: float | None = None
    c_f: float | None = None
    d: float | None = None
    k: float | None = None


@dataclass(frozen=True)
class ChannelScenario:
    """Complete parameter set of the channel transfer model, all in farads."""

    c_x_tx: float
    c_x_rx: float
    c_gb_rx: float
    c_l: float
    c_b: float
    c_c: float = 0.0
    provenance: GeometricProvenance | None = None

    def __post_init__(self) -> None:
        require(POSITIVE, "c_x_tx", self.c_x_tx)
        require(POSITIVE, "c_x_rx", self.c_x_rx)
        require(POSITIVE, "c_gb_rx", self.c_gb_rx)
        require(POSITIVE, "c_l", self.c_l)
        require(POSITIVE, "c_b", self.c_b)
        require(NONNEGATIVE, "c_c", self.c_c)


# The six capacitance fields of a scenario, in the order of the sweep CSV columns.
CAPACITANCE_NAMES = tuple(f.name for f in fields(ChannelScenario) if f.name != "provenance")


@dataclass(frozen=True)
class TransferReport:
    """All closed forms of one scenario next to the nodal oracle.

    ``ratios`` holds the evaluated forms keyed by name (``distant``,
    ``simplified``, ``full``, ``geometric_full``/``geometric_distant`` when
    geometry is known, and ``oracle``).  ``relative_errors`` holds pairwise
    disagreements ``|a-b|/max(|a|,|b|)`` keyed ``"<a>_vs_<b>"``.
    """

    ratios: dict[str, float]
    relative_errors: dict[str, float]
    flags: tuple[str, ...]
    frequency_hz: float

    def loss_db(self, name: str) -> float:
        """Channel loss of one form in dB (positive for attenuation)."""
        return -ratio_to_db(self.ratios[name])


def body_potential_ratio(c_return: float, c_b: float) -> float:
    """Body potential divider: V_body/V_in = C_return / C_B.

    The exact divider would be C_return/(C_return + C_B); the model keeps the
    standard approximation valid for C_return << C_B, and the nodal oracle
    recovers the exact value when needed.
    """
    require(POSITIVE, "c_return", c_return)
    require(POSITIVE, "c_b", c_b)
    return _checked_ratio(c_return, c_b, "body_potential_ratio")


def extract_return_path(v_ratio: float, c_b: float) -> float:
    """Invert :func:`body_potential_ratio`: C_return = C_B * (V_body/V_in).

    Args:
        v_ratio: Measured or simulated body potential ratio, in (0, 1).
        c_b: Body-to-earth capacitance, F.
    """
    require(_BODY_RATIO, "v_ratio", v_ratio)
    require(POSITIVE, "c_b", c_b)
    return c_b * v_ratio


def rx_transfer_distant(s: ChannelScenario) -> float:
    """Receiver product form, no inter-device coupling.

    V_o/V_in = (C_x-Tx / C_B) * (C_x-Rx / (C_GB-Rx + C_L)).  Intended for the
    regime c_x_rx << c_gb_rx + c_l; shares its arithmetic grouping with
    :func:`simplified_transfer` so the two agree bitwise at c_c = 0.
    """
    forward = _checked_ratio(s.c_x_tx * s.c_x_rx, s.c_b, "rx_transfer_distant")
    return _checked_ratio(forward, s.c_gb_rx + s.c_l, "rx_transfer_distant")


def full_transfer(s: ChannelScenario) -> float:
    """Complete transfer with inter-device coupling.

    ::

        V_o     C_c*[C_B + C_x-Rx + C_x-Tx] + C_x-Rx*C_x-Tx
        ---- = -----------------------------------------------------------
        V_in    C_c*[C_B + C_x-Rx + C_x-Tx]
                  + (C_B + C_x-Rx)*(C_L + C_GB-Rx + C_x-Tx)
                  + C_x-Tx*(C_L + C_GB-Rx)

    The result lies in (0, 1] for positive capacitances (it rounds to 1 when
    C_c dominates), increases strictly with C_c and decreases strictly with
    C_L.
    """
    shared = s.c_c * (s.c_b + s.c_x_rx + s.c_x_tx)
    numerator = shared + s.c_x_rx * s.c_x_tx
    denominator = (
        shared
        + (s.c_b + s.c_x_rx) * (s.c_l + s.c_gb_rx + s.c_x_tx)
        + s.c_x_tx * (s.c_l + s.c_gb_rx)
    )
    return _checked_ratio(numerator, denominator, "full_transfer")


def simplified_transfer(s: ChannelScenario) -> float:
    """Large-C_B, large-load reduction of :func:`full_transfer`.

    V_o/V_in = (C_c + C_x-Rx*C_x-Tx/C_B) / (C_c + C_L + C_GB-Rx); exact in
    the limit c_b >> c_x_tx, c_x_rx and c_l + c_gb_rx >> c_x_rx.  At c_c = 0
    this reduces to :func:`rx_transfer_distant` exactly.
    """
    forward = _checked_ratio(s.c_x_tx * s.c_x_rx, s.c_b, "simplified_transfer")
    return _checked_ratio(
        s.c_c + forward, s.c_c + (s.c_gb_rx + s.c_l), "simplified_transfer"
    )


def _same_radius(tx: DeviceGeometry, rx: DeviceGeometry) -> bool:
    """Whether two devices share the one radius the geometric forms assume."""
    return math.isclose(tx.radius_a, rx.radius_a, rel_tol=1e-12)


def geometric_transfer(
    tx: DeviceGeometry,
    rx: DeviceGeometry,
    x_tx: float,
    x_rx: float,
    c_f: float,
    c_l: float,
    c_b: float,
    d: float | None = None,
    k: float | None = None,
) -> float:
    """:func:`simplified_transfer` of the law-derived scenario; coupling spelled k*pi*a^2/d.

    For same-radius devices, with the laws of :mod:`hbc_channel.geometry`::

        coupled:  [k*pi*a^2/d + x_tx*x_rx*(8*eps0*a)^2 / C_B]
                  / [k*pi*a^2/d + eps0*pi*a^2/t + C_F + C_L]
        distant:  drop both k*pi*a^2/d terms

    The form is coupled exactly when both ``d`` and ``k`` are given.
    :func:`~hbc_channel.geometry.coupling_capacitance` rounds its k*(pi*a^2)/d
    differently, so the coupled form matches the fully composed laws to 1e-12.

    Args:
        tx: Transmitter geometry.
        rx: Receiver geometry; must share the transmitter's radius.  The
            plate separation entering the denominator is the receiver's.
        x_tx: Transmitter shadowing fraction in (0, 1].
        x_rx: Receiver shadowing fraction in (0, 1].
        c_f: Receiver fringe capacitance, F (>= 0).
        c_l: Load capacitance, F.
        c_b: Body-to-earth capacitance, F.
        d: Device separation, m (coupled form only).
        k: Coupling constant, F/m (coupled form only).

    Raises:
        ValueError: If radii differ, inputs are invalid (d not positive or
            NaN, k not positive and finite), only one of d and k is given, or
            a law's capacitance is out of range (C_PP flushed to 0, c_f = 0);
            that error opens with the arguments the law took (``rx and c_f:``).
        DegenerateScenarioError: If a ratio underflows to 0.
    """
    if not _same_radius(tx, rx):
        raise ValueError(
            f"geometric form assumes equal radii, got tx={tx.radius_a} rx={rx.radius_a}"
        )
    require(NONNEGATIVE, "c_f", c_f)
    if (d is None) != (k is None):
        raise ValueError("coupled geometric form requires d and k")
    return simplified_transfer(_geometric_scenario(tx, rx, x_tx, x_rx, c_f, c_l, c_b, d, k))


def _geometric_scenario(
    tx: DeviceGeometry, rx: DeviceGeometry, x_tx: float, x_rx: float, c_f: float,
    c_l: float, c_b: float, d: float | None, k: float | None,
) -> ChannelScenario:
    """The scenario of the geometric form, coupled when both ``d`` and ``k`` are given."""
    c_c = 0.0
    if d is not None and k is not None:
        require(SEPARATION, "device separation d", d)
        require(POSITIVE, "k", k)
        # Not coupling_capacitance: its k*(pi*a^2)/d rounds geometric_full off the golden.
        c_c = k * math.pi * tx.radius_a**2 / d
    args = "tx and x_tx"  # the arguments of the law at hand, which its error names
    try:
        c_x_tx = return_path_capacitance(tx, x_tx)
        require(POSITIVE, "c_x_tx", c_x_tx)
        args = "rx and x_rx"
        c_x_rx = return_path_capacitance(rx, x_rx)
        require(POSITIVE, "c_x_rx", c_x_rx)
        args = "rx and c_f"
        c_gb_rx = ground_to_body_capacitance(plate_to_plate_capacitance(rx), c_f)
        require(POSITIVE, "c_gb_rx", c_gb_rx)
    except ValueError as exc:
        raise ValueError(f"{args}: {exc}") from exc
    return ChannelScenario(c_x_tx, c_x_rx, c_gb_rx, c_l, c_b, c_c)


def ratio_to_db(r: float) -> float:
    """Voltage ratio in dB: 20*log10(r).  Negative for r < 1.

    Channel *loss* is the negative of this value.  A column is converted row
    by row with ``math.log10``: numpy's log10 need not round the same way.
    """
    require(POSITIVE, "ratio", r)
    if isinstance(r, np.ndarray):
        return 20.0 * np.array(list(map(math.log10, r.tolist())))
    return 20.0 * math.log10(r)


def relative_error(a: float, b: float) -> float:
    """Symmetric relative disagreement |a - b| / max(|a|, |b|), 0 where both are 0."""
    # Two floats, the case of every scenario, skip the column tests.
    if (a.__class__ is not float or b.__class__ is not float) and (
        isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
    ):
        scale = np.maximum(abs(a), abs(b))
        return np.divide(abs(a - b), scale, out=np.zeros(scale.shape), where=scale != 0.0)
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


# Factor by which one quantity must exceed another to count as an "order of
# magnitude larger" when checking the simplification preconditions.
_APPROXIMATION_MARGIN = 10.0

_FLAG_NAMES = ("distant", "coupled", "invalid-approximation")
# Flag tuple by bit code: bit i set means _FLAG_NAMES[i] fired.
_FLAG_SETS = tuple(
    tuple(name for bit, name in enumerate(_FLAG_NAMES) if code >> bit & 1)
    for code in range(2 ** len(_FLAG_NAMES))
)


def regime_flags(s: ChannelScenario) -> tuple[str, ...]:
    """Classify a scenario against the model's regime thresholds.

    * ``distant``: c_c below 1 fF - coupling negligible.
    * ``coupled``: c_c above 10 fF - coupling shapes the channel.
    * ``invalid-approximation``: the simplified forms' preconditions
      (c_b and c_l + c_gb_rx an order of magnitude above the return paths)
      do not hold.

    A scenario of columns gives a list with one flag tuple per row.
    """
    invalid = (
        (_APPROXIMATION_MARGIN * s.c_x_rx > s.c_gb_rx + s.c_l)
        | (_APPROXIMATION_MARGIN * s.c_x_tx > s.c_b)
        | (_APPROXIMATION_MARGIN * s.c_x_rx > s.c_b)
    )
    code = (s.c_c < DISTANT_COUPLING_F) + 2 * (s.c_c > COUPLED_COUPLING_F) + 4 * invalid
    if isinstance(code, np.ndarray):
        return [_FLAG_SETS[c] for c in code.tolist()]
    return _FLAG_SETS[code]


def oracle_ratio(s: ChannelScenario) -> float:
    """Nodal-solution transfer ratio of a scenario (columns give one ratio per row).

    The bits of ``solve_transfer(build_channel_network(s)).ratio``, from the
    4x4 system assembled straight from the capacitances, each entry summed in
    the network's branch order.  The floating-node walk cannot fire on a
    checked scenario, so it is skipped (``TestChannelNetworkIsWellPosed`` in
    ``tests/test_network.py``).

    Raises:
        SingularNetworkError: If the nodal system is singular.
        DegenerateScenarioError: If the ratio is not positive, which only
            rounding in the solve gives for positive capacitances.
    """
    batch, zero, (b, tx, rx, load, gb, cc) = _scaled_by_largest(
        [s.c_b, s.c_x_tx, s.c_x_rx, s.c_l, s.c_gb_rx, s.c_c])
    one, minus = zero + 1.0, zero - 1.0
    # Unknowns: the body, Tx ground and Rx ground potentials, then the source
    # current.  A zero C_c adds exact zeros, as the network's absent branch does.
    body_rx = 0.0 - load - gb
    potentials = _solve_nodal([
        [b + load + gb, zero, body_rx, one],
        [zero, tx + cc, 0.0 - cc, minus],
        [body_rx, 0.0 - cc, rx + load + gb + cc, zero],
        [one, minus, zero, zero],
    ], batch)
    ratio = potentials[0] - potentials[2]
    if not holds(ratio > 0):
        raise DegenerateScenarioError(f"oracle: nodal ratio {shown(ratio, '')} is not positive")
    return ratio


def compare_closed_forms(
    s: ChannelScenario, frequency: float = DEFAULT_FREQUENCY_HZ
) -> TransferReport:
    """Evaluate every applicable closed form plus the nodal oracle.

    Geometric forms are included when the scenario carries full geometric
    provenance of two devices of one radius, read off :func:`geometric_transfer`'s
    scenario: ``geometric_distant`` is its :func:`rx_transfer_distant` (so
    ``distant`` bit for bit where assembly derived the capacitances), and
    ``geometric_full`` its :func:`simplified_transfer` where assembly recorded
    ``d`` and ``k``, which it does only inside the decoupling distance.
    Pairwise relative errors cover each closed form against the oracle and the
    closed forms against the full expression.  ``frequency`` is only echoed in
    the report: the capacitive channel does not depend on it.

    Raises:
        SingularNetworkError, DegenerateScenarioError: From the closed forms
            or the nodal solve.
        ValueError: If frequency is not positive, or the provenance gives
            no valid geometric scenario.
    """
    require(POSITIVE, "frequency", frequency)
    ratios: dict[str, float] = {
        "distant": rx_transfer_distant(s),
        "simplified": simplified_transfer(s),
        "full": full_transfer(s),
    }
    p = s.provenance
    geometric = p is not None and None not in (p.tx_geom, p.rx_geom, p.x_tx, p.x_rx, p.c_f)
    if geometric and _same_radius(p.tx_geom, p.rx_geom):
        g = _geometric_scenario(
            p.tx_geom, p.rx_geom, p.x_tx, p.x_rx, p.c_f, s.c_l, s.c_b, p.d, p.k
        )
        ratios["geometric_distant"] = rx_transfer_distant(g)
        if p.d is not None and p.k is not None:
            ratios["geometric_full"] = simplified_transfer(g)

    ratios["oracle"] = oracle_ratio(s)

    errors: dict[str, float] = {}
    for name, value in ratios.items():
        if name != "oracle":
            errors[f"{name}_vs_oracle"] = relative_error(value, ratios["oracle"])
        if name not in ("full", "oracle"):
            errors[f"{name}_vs_full"] = relative_error(value, ratios["full"])

    return TransferReport(
        ratios=ratios,
        relative_errors=errors,
        flags=regime_flags(s),
        frequency_hz=frequency,
    )

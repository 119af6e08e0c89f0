"""Scenario assembly from flat sectioned key=value config files.

Config files are INI-style with ``[tx]``, ``[rx]``, ``[body]``, ``[link]``
and optional ``[channel]``, ``[sweep]``, ``[resonance]`` sections.  Keys
carry their SI unit as a suffix (``radius_m``, ``load_f``, ``k_f_per_m``).
Every channel quantity may be given either directly as a capacitance or
through the geometric inputs that generate it; when both are present they
must agree to 1e-9 relative and the geometric derivation is the one stored.

Example (geometric form)::

    [tx]
    radius_m = 0.03
    plate_separation_m = 0.005
    shadowing_x = 0.5

    [rx]
    radius_m = 0.03
    plate_separation_m = 0.005
    shadowing_x = 0.5
    fringe_f = 0.75e-12
    load_f = 10e-12

    [body]
    dielectric_thickness_m = 0.40
    dielectric_table = dielectric_cb.csv

    [link]
    k_f_per_m = 2.0e-12
    separation_m = 0.10
"""

from __future__ import annotations

import configparser
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .columns import fails, shown
from .constants import DECOUPLING_DISTANCE_M, DEFAULT_FREQUENCY_HZ, EQS_MAX_FREQUENCY_HZ
from .geometry import (
    CouplingConstant,
    DeviceGeometry,
    coupling_capacitance,
    ground_to_body_capacitance,
    plate_to_plate_capacitance,
    return_path_capacitance,
)
from .profiles import ShadowingProfile, shadowing_factor
from .resonance import (
    DEFAULT_GRID_MAX_HZ,
    DEFAULT_GRID_MIN_HZ,
    DEFAULT_GRID_POINTS,
    DEFAULT_SERIES_RESISTANCE_OHM,
    DielectricTable,
    body_capacitance_lookup,
)
from .transfer import ChannelScenario, GeometricProvenance, relative_error

# Direct values must agree with their geometric derivation to this relative
# tolerance when a config supplies both.
CONSISTENCY_REL_TOL = 1e-9

TABLE_DIR_ENV = "HBC_TABLE_DIR"


class ConfigError(ValueError):
    """Invalid, missing or inconsistent configuration input."""


class EqsRegimeWarning(UserWarning):
    """Configured frequency lies above the electro-quasistatic band."""


@dataclass(frozen=True)
class SideConfig:
    """Raw per-device inputs; ``None`` means not configured."""

    radius_m: float | None = None
    plate_separation_m: float | None = None
    shadowing_x: float | None = None
    position_s: float | None = None
    return_path_f: float | None = None
    # Receiver-only inputs.
    fringe_f: float | None = None
    ground_body_f: float | None = None
    load_f: float | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    """Raw scenario inputs, one level above :class:`ChannelScenario`."""

    tx: SideConfig = SideConfig()
    rx: SideConfig = SideConfig()
    c_b_f: float | None = None
    dielectric_thickness_m: float | None = None
    dielectric_table: str | None = None
    segment: str | None = None
    shadowing_anchors: tuple[tuple[float, float], ...] | None = None
    segment_length_m: float | None = None
    coupling_f: float | None = None
    k_f_per_m: float | None = None
    separation_m: float | None = None
    decouple_m: float = DECOUPLING_DISTANCE_M
    frequency_hz: float = DEFAULT_FREQUENCY_HZ
    base_dir: Path | None = None

    def profile(self) -> ShadowingProfile | None:
        if self.shadowing_anchors is None:
            return None
        return ShadowingProfile(self.segment or "custom", self.shadowing_anchors)


@dataclass(frozen=True)
class SweepSection:
    kind: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class ResonanceSection:
    inductance_h: float
    series_resistance_ohm: float = DEFAULT_SERIES_RESISTANCE_OHM
    capacitance_f: float | None = None
    f_min_hz: float = DEFAULT_GRID_MIN_HZ
    f_max_hz: float = DEFAULT_GRID_MAX_HZ
    points: int = DEFAULT_GRID_POINTS


@dataclass(frozen=True)
class ParsedConfig:
    path: Path
    scenario: ScenarioConfig
    sweep: SweepSection | None = None
    resonance: ResonanceSection | None = None


_SIDE_KEYS = {
    "radius_m", "plate_separation_m", "shadowing_x", "position_s", "return_path_f",
}
_RX_ONLY_KEYS = {"fringe_f", "ground_body_f", "load_f"}
_ALLOWED_KEYS = {
    "tx": _SIDE_KEYS,
    "rx": _SIDE_KEYS | _RX_ONLY_KEYS,
    "body": {
        "c_b_f", "dielectric_thickness_m", "dielectric_table", "segment",
        "shadowing_anchors", "segment_length_m",
    },
    "link": {"coupling_f", "k_f_per_m", "separation_m", "decouple_m"},
    "channel": {"frequency_hz"},
    "sweep": {"kind", "min", "max", "steps"},
    "resonance": {
        "inductance_h", "series_resistance_ohm", "capacitance_f",
        "f_min_hz", "f_max_hz", "points",
    },
}


# Keys whose values are not floats; every other key parses as a float.
_TEXT_KEYS = {"dielectric_table", "segment", "kind"}
_INT_KEYS = {"steps", "points"}
# [sweep] keys whose SweepSection field has another name.
_FIELD_OF_KEY = {"min": "start", "max": "stop"}
_REQUIRED_KEYS = {"sweep": ("kind", "min", "max", "steps"), "resonance": ("inductance_h",)}


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from exc


def _parse_anchors(section: str, raw: str) -> tuple[tuple[float, float], ...]:
    """Parse `s:x, s:x, ...` anchor lists."""
    anchors = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(
                f"[{section}] shadowing_anchors: expected 's:x' pairs, got {item!r}"
            )
        anchors.append((
            _parse_float(section, "shadowing_anchors", parts[0]),
            _parse_float(section, "shadowing_anchors", parts[1]),
        ))
    if not anchors:
        raise ConfigError(f"[{section}] shadowing_anchors: empty anchor list")
    return tuple(anchors)


def _parse_value(section: str, key: str, raw: str):
    if key in _TEXT_KEYS:
        return raw
    if key in _INT_KEYS:
        return _parse_int(section, key, raw)
    if key == "shadowing_anchors":
        return _parse_anchors(section, raw)
    return _parse_float(section, key, raw)


def load_config_file(path: str | Path) -> ParsedConfig:
    """Parse a config file into raw sections (no scenario assembly yet).

    Keys left out take the defaults of the dataclass field they fill.

    Raises:
        ConfigError: On unknown sections/keys or malformed values.
        FileNotFoundError: If the file does not exist.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    fields: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(
                f"{path}: unknown section [{section}] "
                f"(allowed: {', '.join(sorted(_ALLOWED_KEYS))})"
            )
        keys = dict(parser.items(section))
        unknown = set(keys) - _ALLOWED_KEYS[section]
        if unknown:
            raise ConfigError(
                f"{path}: unknown key(s) {sorted(unknown)} in [{section}] "
                f"(allowed: {sorted(_ALLOWED_KEYS[section])})"
            )
        for key in _REQUIRED_KEYS.get(section, ()):
            if key not in keys:
                raise ConfigError(f"[{section}] missing required key {key!r}")
        fields[section] = {
            _FIELD_OF_KEY.get(key, key): _parse_value(section, key, raw)
            for key, raw in keys.items()
        }

    # [body], [link] and [channel] keys are ScenarioConfig fields.
    scenario = ScenarioConfig(
        tx=SideConfig(**fields.get("tx", {})),
        rx=SideConfig(**fields.get("rx", {})),
        **fields.get("body", {}), **fields.get("link", {}), **fields.get("channel", {}),
        base_dir=path.parent,
    )
    frequency = scenario.frequency_hz
    if frequency <= 0:
        raise ConfigError(f"[channel] frequency_hz must be positive, got {frequency}")
    if frequency > EQS_MAX_FREQUENCY_HZ:
        warnings.warn(
            f"configured frequency {frequency:.6g} Hz exceeds the "
            f"electro-quasistatic band (< {EQS_MAX_FREQUENCY_HZ:.0e} Hz); the "
            "capacitive model is frequency-flat but radiation effects are "
            "not represented",
            EqsRegimeWarning,
            stacklevel=2,
        )

    sweep = SweepSection(**fields["sweep"]) if "sweep" in fields else None
    resonance = ResonanceSection(**fields["resonance"]) if "resonance" in fields else None
    return ParsedConfig(path=path, scenario=scenario, sweep=sweep, resonance=resonance)


def resolve_table_path(name: str, base_dir: Path | None) -> Path:
    """Locate a dielectric table: absolute, config-relative, then $HBC_TABLE_DIR."""
    candidate = Path(name)
    if candidate.is_absolute():
        if candidate.is_file():
            return candidate
        raise ConfigError(f"dielectric table not found: {candidate}")
    tried = []
    if base_dir is not None:
        local = base_dir / candidate
        if local.is_file():
            return local
        tried.append(str(local))
    env_dir = os.environ.get(TABLE_DIR_ENV)
    if env_dir:
        from_env = Path(env_dir) / candidate
        if from_env.is_file():
            return from_env
        tried.append(str(from_env))
    if candidate.is_file():
        return candidate
    tried.append(str(candidate))
    raise ConfigError(
        f"dielectric table {name!r} not found (tried: {', '.join(tried)}; "
        f"set {TABLE_DIR_ENV} to the table directory)"
    )


def load_dielectric_table(scenario: ScenarioConfig) -> DielectricTable:
    if scenario.dielectric_table is None:
        raise ConfigError("missing required parameter [body] dielectric_table")
    return DielectricTable.from_csv(
        resolve_table_path(scenario.dielectric_table, scenario.base_dir)
    )


def _pick(
    name: str, direct: float | None, derived: float | None, missing: str | None
) -> float | None:
    """The direct-or-derived rule that every channel quantity follows.

    A derived value is the one kept; a direct value given beside it must agree
    with it to ``CONSISTENCY_REL_TOL`` relative.  A direct value alone is kept
    as given.  With neither, the ``missing`` message is raised, or ``None`` is
    returned when ``missing`` is ``None`` (an optional quantity).

    Raises:
        ConfigError: On disagreement, or on a missing required quantity.
    """
    if derived is not None:
        if direct is not None and fails(relative_error(direct, derived) > CONSISTENCY_REL_TOL):
            raise ConfigError(
                f"{name}: direct value {shown(direct, '.12g')} disagrees with its geometric "
                f"derivation {shown(derived, '.12g')} (more than {CONSISTENCY_REL_TOL:g} relative)"
            )
        return derived
    if direct is None and missing is not None:
        raise ConfigError(missing)
    return direct


def _device_geometry(side: SideConfig, name: str) -> DeviceGeometry | None:
    if side.radius_m is None:
        return None
    if side.plate_separation_m is None:
        raise ConfigError(
            f"missing required parameter [{name}] plate_separation_m "
            "(required alongside radius_m)"
        )
    try:
        return DeviceGeometry(side.radius_m, side.plate_separation_m)
    except ValueError as exc:
        key = "radius_m" if str(exc).startswith("radius_a") else "plate_separation_m"
        raise ConfigError(f"[{name}] {key}: {exc}") from exc


def _shadowing(side: SideConfig, name: str, profile: ShadowingProfile | None) -> float | None:
    """Shadowing fraction: direct value, profile lookup, or both (checked)."""
    from_profile = None
    if side.position_s is not None and profile is not None:
        try:
            from_profile = shadowing_factor(side.position_s, profile)
        except ValueError as exc:
            raise ConfigError(f"[{name}] position_s: {exc}") from exc
    if side.shadowing_x is not None and not (0.0 < side.shadowing_x <= 1.0):
        raise ConfigError(f"[{name}] shadowing_x must be in (0, 1], got {side.shadowing_x}")
    return _pick(f"[{name}] shadowing_x", side.shadowing_x, from_profile, None)


def _resolve_separation(config: ScenarioConfig) -> float | None:
    """Device separation: explicit, from body positions, or both (checked)."""
    derived = None
    tx_s, rx_s, length = config.tx.position_s, config.rx.position_s, config.segment_length_m
    if length is not None and not length > 0:
        raise ConfigError(f"[body] segment_length_m must be positive, got {length}")
    if tx_s is not None and rx_s is not None:
        if length is None:
            raise ConfigError(
                "missing required parameter [body] segment_length_m "
                "(required to turn device positions into a separation)"
            )
        derived = abs(tx_s - rx_s) * length
        if fails(derived <= 0):
            raise ConfigError(
                f"tx and rx positions coincide (position_s = {shown(tx_s, 'g')}); "
                "device separation would be zero"
            )
    if config.separation_m is not None and fails(config.separation_m <= 0):
        raise ConfigError(f"[link] separation_m must be positive, got {config.separation_m}")
    return _pick("[link] separation_m", config.separation_m, derived, None)


def effective_coupling_capacitance(
    geom: DeviceGeometry, d: float, k: CouplingConstant, decouple_m: float
) -> float:
    """Coupling capacitance with the far-field cutoff applied.

    The near-field law C_c = k*A/d only holds while the two ground plates see
    each other; beyond ``decouple_m`` the body and environment shield the
    direct path and the coupling drops below anything resolvable, so it is
    taken as zero.
    """
    far = d >= decouple_m
    if isinstance(far, np.ndarray):
        # Far rows pass the law's checks too (d >= decouple_m > 0).
        return np.where(far, 0.0, coupling_capacitance(geom, d, k))
    return 0.0 if far else coupling_capacitance(geom, d, k)


def body_capacitance(config: ScenarioConfig, table: DielectricTable | None = None) -> float:
    """Body capacitance C_B: direct, from the dielectric table, or both (checked).

    The table value at ``dielectric_thickness_m`` is the one kept; ``table``
    is the table ``config`` names, loaded on demand when not passed.

    Raises:
        ConfigError: On a thickness outside the table, a disagreeing
            ``[body] c_b_f``, or neither input.
    """
    derived = None
    if config.dielectric_thickness_m is not None:
        if table is None:
            table = load_dielectric_table(config)
        try:
            derived = body_capacitance_lookup(config.dielectric_thickness_m, table)
        except ValueError as exc:
            raise ConfigError(f"[body] dielectric_thickness_m: {exc}") from exc
    return _pick(
        "[body] c_b_f", config.c_b_f, derived,
        "missing required parameter: [body] c_b_f, or dielectric_thickness_m "
        "plus dielectric_table to derive it",
    )


def build_scenario(
    config: ScenarioConfig, table: DielectricTable | None = None
) -> ChannelScenario:
    """Assemble a :class:`ChannelScenario` from raw config inputs.

    Every capacitance may come directly or from geometry (see :func:`_pick`);
    the geometric inputs used are recorded as provenance on the scenario.
    ``table`` is the dielectric table ``config`` names, passed by callers that
    build many scenarios from one config; by default it is loaded on demand.
    A swept input given as a numpy column gives a scenario of columns.

    Raises:
        ConfigError: Naming the missing or inconsistent field.
    """
    if not config.decouple_m > 0:
        raise ConfigError(f"[link] decouple_m must be positive, got {config.decouple_m}")
    profile = config.profile()
    tx_geom = _device_geometry(config.tx, "tx")
    rx_geom = _device_geometry(config.rx, "rx")
    x_tx = _shadowing(config.tx, "tx", profile)
    x_rx = _shadowing(config.rx, "rx", profile)

    def resolve_return_path(
        side: SideConfig, geom: DeviceGeometry | None, x: float | None, name: str
    ) -> float:
        derived = None if geom is None or x is None else return_path_capacitance(geom, x)
        return _pick(
            f"[{name}] return_path_f", side.return_path_f, derived,
            f"missing required parameter: [{name}] return_path_f, or radius_m "
            "plus shadowing_x/position_s to derive it",
        )

    c_x_tx = resolve_return_path(config.tx, tx_geom, x_tx, "tx")
    c_x_rx = resolve_return_path(config.rx, rx_geom, x_rx, "rx")

    # Ground-to-body capacitance of the receiver.
    c_f = config.rx.fringe_f
    if c_f is not None and c_f < 0:
        raise ConfigError(f"[rx] fringe_f must be nonnegative, got {c_f}")
    derived_gb = None
    if rx_geom is not None and c_f is not None:
        derived_gb = ground_to_body_capacitance(plate_to_plate_capacitance(rx_geom), c_f)
    c_gb_rx = _pick(
        "[rx] ground_body_f", config.rx.ground_body_f, derived_gb,
        "missing required parameter: [rx] ground_body_f, or radius_m plus "
        "plate_separation_m and fringe_f to derive it",
    )

    c_l = _pick("[rx] load_f", config.rx.load_f, None, "missing required parameter: [rx] load_f")

    c_b = body_capacitance(config, table)

    # Inter-device coupling: direct, or the shielded near-field law.
    separation = _resolve_separation(config)
    k = CouplingConstant(config.k_f_per_m) if config.k_f_per_m is not None else None
    derived_cc = None
    if k is not None and separation is not None:
        if tx_geom is None:
            raise ConfigError(
                "missing required parameter: [tx] radius_m (needed for the "
                "coupling capacitance plate area)"
            )
        derived_cc = effective_coupling_capacitance(tx_geom, separation, k, config.decouple_m)
    if config.coupling_f is not None and config.coupling_f < 0:
        raise ConfigError(f"[link] coupling_f must be nonnegative, got {config.coupling_f}")
    c_c = _pick(
        "[link] coupling_f", config.coupling_f, derived_cc,
        "missing required parameter: [link] coupling_f, or k_f_per_m plus a "
        "separation (separation_m or device positions) to derive it",
    )

    # d and k describe c_c only where the near-field law produced it; beyond
    # decouple_m the coupling is zero and no geometric coupled form applies.
    # A scenario of columns records them on no row.
    near_field = isinstance(derived_cc, float) and derived_cc > 0.0
    provenance = GeometricProvenance(
        tx_geom=tx_geom, rx_geom=rx_geom, x_tx=x_tx, x_rx=x_rx, c_f=c_f,
        d=separation if near_field else None,
        k=k if near_field else None,
    )
    if all(value is None for value in vars(provenance).values()):
        provenance = None

    try:
        return ChannelScenario(
            c_x_tx=c_x_tx, c_x_rx=c_x_rx, c_gb_rx=c_gb_rx, c_l=c_l, c_b=c_b,
            c_c=c_c, provenance=provenance,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

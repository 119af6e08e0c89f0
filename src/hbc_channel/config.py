"""Scenario assembly from flat sectioned key=value config files.

Config files are INI-style with ``[tx]``, ``[rx]``, ``[body]``, ``[link]``
and optional ``[channel]``, ``[sweep]``, ``[resonance]`` sections.  Keys
carry their SI unit as a suffix (``radius_m``, ``load_f``, ``k_f_per_m``).
Every channel quantity may be given either directly as a capacitance or
through the geometric inputs that generate it; when both are present they
must agree to 1e-9 relative and the geometric derivation is the one stored.
Each key is declared, with its range, on the field of the dataclass it
fills: :class:`SideConfig`, :class:`ScenarioConfig`, :class:`SweepSpec` or
:class:`ResonanceSection`.  Each of the last three checks its keys' ranges
when it is made; a :class:`SideConfig` is checked by the scenario that holds it.

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
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .columns import (
    COORDINATE, FRACTION, NONNEGATIVE, POSITIVE, fails, integer_at_least, one_of, require, shown,
)
from .constants import DECOUPLING_DISTANCE_M, DEFAULT_FREQUENCY_HZ, EQS_MAX_FREQUENCY_HZ
from .geometry import (
    RADIUS,
    DeviceGeometry,
    coupling_capacitance,
    ground_to_body_capacitance,
    plate_to_plate_capacitance,
    return_path_capacitance,
)
from .profiles import SEGMENT, ShadowingProfile, shadowing_factor
from .resonance import (
    DEFAULT_GRID_MAX_HZ,
    DEFAULT_GRID_MIN_HZ,
    DEFAULT_GRID_POINTS,
    DEFAULT_SERIES_RESISTANCE_OHM,
    GRID_POINTS,
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


def blame(keys: str, call, *args):
    """``call(*args)``, its ValueError raised again as a ConfigError led by ``keys``."""
    try:
        return call(*args)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from exc


def _key(sections: str, limits=None, default=None, key: str | None = None):
    """A field read from the key ``key`` (default: its name) in each of ``sections``, within
    ``limits`` (``None``: the type it builds checks it); ``default=MISSING`` makes it required."""
    metadata = {"sections": sections.split(), "limits": limits, "key": key}
    return field(default=default, metadata=metadata)


def _check_ranges(section) -> None:
    """Check each ranged key that the config object ``section`` holds, its sides' included."""
    for side, attr, name, limits in _RANGES[type(section)]:
        value = getattr(getattr(section, side) if side else section, attr)
        if value is not None:
            require(limits, name, value, ConfigError)


@dataclass(frozen=True)
class SideConfig:
    """Raw per-device inputs; ``None`` means not configured."""

    radius_m: float | None = _key("tx rx", RADIUS)
    plate_separation_m: float | None = _key("tx rx", POSITIVE)
    shadowing_x: float | None = _key("tx rx", FRACTION)
    position_s: float | None = _key("tx rx", COORDINATE)
    return_path_f: float | None = _key("tx rx", POSITIVE)
    # Receiver-only inputs.
    fringe_f: float | None = _key("rx", NONNEGATIVE)
    ground_body_f: float | None = _key("rx", POSITIVE)
    load_f: float | None = _key("rx", POSITIVE)


@dataclass(frozen=True)
class ScenarioConfig:
    """Raw scenario inputs, one level above :class:`ChannelScenario`; construction
    (``replace`` too) checks the range of each key, the sides' included, and makes
    ``shadowing_profile``; :func:`build_scenario` checks the rest."""

    tx: SideConfig = SideConfig()
    rx: SideConfig = SideConfig()
    c_b_f: float | None = _key("body", POSITIVE)
    dielectric_thickness_m: float | None = _key("body", POSITIVE)
    dielectric_table: str | None = _key("body")
    segment: str | None = _key("body", SEGMENT)
    shadowing_anchors: tuple[tuple[float, float], ...] | None = _key("body")
    segment_length_m: float | None = _key("body", POSITIVE)
    coupling_f: float | None = _key("link", NONNEGATIVE)
    k_f_per_m: float | None = _key("link", POSITIVE)
    separation_m: float | None = _key("link", POSITIVE)
    decouple_m: float = _key("link", POSITIVE, default=DECOUPLING_DISTANCE_M)
    frequency_hz: float = _key("channel", POSITIVE, default=DEFAULT_FREQUENCY_HZ)
    base_dir: Path | None = None
    shadowing_profile: ShadowingProfile | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_ranges(self)
        anchors = self.shadowing_anchors  # the segment is checked: the anchors are at fault
        profile = None if anchors is None else blame(
            "[body] shadowing_anchors", ShadowingProfile, self.segment or "custom", anchors)
        object.__setattr__(self, "shadowing_profile", profile)


def _both_radii(config: ScenarioConfig, radius: float) -> ScenarioConfig:
    return replace(
        config, tx=replace(config.tx, radius_m=radius), rx=replace(config.rx, radius_m=radius)
    )


_RADIUS_PINS = (
    "[tx] radius_m", "[rx] radius_m", "[tx] return_path_f", "[rx] return_path_f",
    "[rx] ground_body_f",
)

# Sweep kind -> (CSV column of the swept value, the base config with the
# swept value set, config keys that fix the swept value or a value derived
# from it when set; "a + b" pins only when both keys are set).
SWEEP_KINDS = {
    "separation": ("separation_m", lambda c, d: replace(c, separation_m=d), (
        "[link] separation_m", "[link] coupling_f", "[tx] position_s + [rx] position_s")),
    "radius": ("radius_m", _both_radii, _RADIUS_PINS),
    "device_area": ("area_m2", lambda c, a: _both_radii(c, np.sqrt(a / math.pi)), _RADIUS_PINS),
    "tx_position": ("tx_position_s", lambda c, s: replace(c, tx=replace(c.tx, position_s=s)), (
        "[tx] position_s", "[tx] shadowing_x", "[tx] return_path_f")),
    "rx_position": ("rx_position_s", lambda c, s: replace(c, rx=replace(c.rx, position_s=s)), (
        "[rx] position_s", "[rx] shadowing_x", "[rx] return_path_f")),
    "dielectric_thickness": (
        "dielectric_thickness_m", lambda c, t: replace(c, dielectric_thickness_m=t),
        ("[body] c_b_f", "[body] dielectric_thickness_m")),
}


def _is_set(config: ScenarioConfig, pin: str) -> bool:
    """Whether every ``[section] key`` of a pin holds a value in ``config``."""
    for key in pin.split(" + "):
        section, name = key[1:].split("] ")
        holder = getattr(config, section) if section in ("tx", "rx") else config
        if getattr(holder, name) is None:
            return False
    return True


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep: kind, linear range, and the fixed base scenario; both
    ends of the range must lie in the range of the key they drive."""

    kind: str = _key("sweep", one_of(tuple(sorted(SWEEP_KINDS))), MISSING)
    start: float = _key("sweep", NONNEGATIVE, MISSING, key="min")
    stop: float = _key("sweep", POSITIVE, MISSING, key="max")
    steps: int = _key("sweep", integer_at_least(2), MISSING)
    base: ScenarioConfig
    include_oracle: bool = False

    def __post_init__(self) -> None:
        _check_ranges(self)
        if not self.start < self.stop:
            raise ConfigError(f"sweep needs min < max, got {self.start} >= {self.stop}")
        _, drive, pins = SWEEP_KINDS[self.kind]
        # Each range is an interval, so both ends within it put every row within it.
        for key, value in (("min", self.start), ("max", self.stop)):
            blame(f"[sweep] {key}", drive, self.base, value)
        if self.kind in ("tx_position", "rx_position") and self.base.shadowing_profile is None:
            raise ConfigError("position sweeps need [body] shadowing_anchors (a shadowing profile)")
        conflicts = ", ".join(pin for pin in pins if _is_set(self.base, pin))
        if conflicts:
            raise ConfigError(
                f"{self.kind} sweep conflicts with fixed config value(s): {conflicts}"
            )


@dataclass(frozen=True)
class ResonanceSection:
    inductance_h: float = _key("resonance", POSITIVE, MISSING)
    series_resistance_ohm: float = _key("resonance", POSITIVE, DEFAULT_SERIES_RESISTANCE_OHM)
    capacitance_f: float | None = _key("resonance", POSITIVE)
    f_min_hz: float = _key("resonance", POSITIVE, DEFAULT_GRID_MIN_HZ)
    f_max_hz: float = _key("resonance", POSITIVE, DEFAULT_GRID_MAX_HZ)
    points: int = _key("resonance", GRID_POINTS, DEFAULT_GRID_POINTS)

    def __post_init__(self) -> None:
        _check_ranges(self)
        if not self.f_min_hz < self.f_max_hz:
            raise ConfigError(
                f"[resonance] needs f_min_hz < f_max_hz, got {self.f_min_hz} >= {self.f_max_hz}"
            )


@dataclass(frozen=True)
class ParsedConfig:
    path: Path
    scenario: ScenarioConfig
    sweep: dict[str, object] | None = None  # SweepSpec fields, checked by SweepSpec
    resonance: ResonanceSection | None = None


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


def _parse_anchors(section: str, key: str, raw: str) -> tuple[tuple[float, float], ...]:
    """Parse `s:x, s:x, ...` anchor lists."""
    anchors = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(f"[{section}] {key}: expected 's:x' pairs, got {item!r}")
        anchors.append(tuple(_parse_float(section, key, part) for part in parts))
    if not anchors:
        raise ConfigError(f"[{section}] {key}: empty anchor list")
    return tuple(anchors)


# Parser by the first word of a field's annotation; any other key is a float.
_PARSERS = {"str": lambda section, key, raw: raw, "int": _parse_int, "tuple": _parse_anchors}


def _schema() -> tuple[dict[str, dict[str, tuple]], dict[str, tuple], dict[type, list]]:
    """Section -> key -> (parser, required, field), "[section] key" -> range, and
    config class -> the (side, field, "[section] key", range) it checks when made,
    from `_key` fields; ``side`` names a ``ScenarioConfig``'s side that holds the key.
    A key that a side does not take (``[tx] load_f``) has a range no value lies in."""
    sections, limits, ranges = {}, {}, {}
    for cls in (SideConfig, ScenarioConfig, SweepSpec, ResonanceSection):
        for f in fields(cls):
            parser = _PARSERS.get(f.type.partition(" ")[0].partition("[")[0], _parse_float)
            key = f.metadata.get("key") or f.name
            for section in f.metadata.get("sections", ()):
                sections.setdefault(section, {})[key] = (parser, f.default is MISSING, f.name)
                if f.metadata["limits"] is not None:
                    name, side = f"[{section}] {key}", section if cls is SideConfig else None
                    limits[name] = f.metadata["limits"]
                    holder = ScenarioConfig if side else cls
                    ranges.setdefault(holder, []).append((side, f.name, name, limits[name]))
            for side in ("tx", "rx") if cls is SideConfig else ():
                if side not in f.metadata["sections"]:
                    unset = f"unset (not a [{side}] key)", lambda v: False
                    ranges[ScenarioConfig].append((side, f.name, f"[{side}] {key}", unset))
    return sections, limits, ranges


_KEYS, _LIMITS, _RANGES = _schema()


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
    # No interpolation: a "%" in a value is literal.  No header names the
    # empty default section, so [DEFAULT] is a section like any other.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section=""
    )
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(
                f"{path}: unknown section [{section}] "
                f"(allowed: {', '.join(sorted(_KEYS))})"
            )
        schema = _KEYS[section]
        keys = dict(parser.items(section))
        unknown = keys.keys() - schema
        if unknown:
            raise ConfigError(
                f"{path}: unknown key(s) {sorted(unknown)} in [{section}] "
                f"(allowed: {sorted(schema)})"
            )
        for key, (_, required, _) in schema.items():
            if required and key not in keys:
                raise ConfigError(f"[{section}] missing required key {key!r}")
        values[section] = {
            schema[key][2]: schema[key][0](section, key, raw) for key, raw in keys.items()
        }

    # [body], [link] and [channel] keys are ScenarioConfig fields.
    scenario = ScenarioConfig(
        tx=SideConfig(**values.get("tx", {})),
        rx=SideConfig(**values.get("rx", {})),
        **values.get("body", {}), **values.get("link", {}), **values.get("channel", {}),
        base_dir=path.parent,
    )
    frequency = scenario.frequency_hz
    if frequency > EQS_MAX_FREQUENCY_HZ:
        warnings.warn(
            f"configured frequency {frequency:.6g} Hz exceeds the "
            f"electro-quasistatic band (< {EQS_MAX_FREQUENCY_HZ:.0e} Hz); the "
            "capacitive model is frequency-flat but radiation effects are "
            "not represented",
            EqsRegimeWarning,
            stacklevel=2,
        )

    resonance = ResonanceSection(**values["resonance"]) if "resonance" in values else None
    return ParsedConfig(path, scenario, sweep=values.get("sweep"), resonance=resonance)


def _find_table(name: str, base_dir: Path | None) -> str:
    """Locate a dielectric table: absolute, config-relative, $HBC_TABLE_DIR, then as given.

    Each candidate is the name joined to its directory as written, and named as joined."""
    if os.path.isabs(name):
        if not os.path.isfile(name):
            raise ConfigError(f"dielectric table not found: {name}")
        return name
    tried = []
    # The empty directory joins to the name as given.
    for directory in (base_dir, os.environ.get(TABLE_DIR_ENV) or None, ""):
        if directory is not None:
            path = os.path.join(directory, name)
            if os.path.isfile(path):
                return path
            tried.append(path)
    raise ConfigError(
        f"dielectric table {name!r} not found (tried: {', '.join(tried)}; "
        f"set {TABLE_DIR_ENV} to the table directory)"
    )


def load_dielectric_table(scenario: ScenarioConfig) -> DielectricTable:
    if scenario.dielectric_table is None:
        raise ConfigError("missing required parameter [body] dielectric_table")
    return DielectricTable.from_csv(_find_table(scenario.dielectric_table, scenario.base_dir))


def _pick(
    name: str, direct: float | None, derived: float | None, missing: str | None
) -> float | None:
    """The direct-or-derived rule that every channel quantity follows.

    A derived value is the one kept.  It must lie in the range that the
    field of the ``[section] key`` ``name`` declares, which names ``name``
    also for a value that a law flushed to zero, and a direct value given
    beside it must agree with it to ``CONSISTENCY_REL_TOL`` relative.  A
    direct value alone is kept as given: its range was checked when its
    :class:`ScenarioConfig` was made.  With neither, the ``missing`` message
    is raised, or ``None`` is returned when ``missing`` is ``None`` (an
    optional quantity).

    Raises:
        ConfigError: On a derived value out of range, on disagreement, or on
            a missing required quantity.
    """
    if derived is None:
        if direct is None and missing is not None:
            raise ConfigError(missing)
        return direct
    require(_LIMITS[name], f"{name} (derived)", derived, ConfigError)
    if direct is not None and fails(relative_error(direct, derived) > CONSISTENCY_REL_TOL):
        raise ConfigError(
            f"{name}: direct value {shown(direct, '.12g')} disagrees with its geometric "
            f"derivation {shown(derived, '.12g')} (more than {CONSISTENCY_REL_TOL:g} relative)"
        )
    return derived


def _device_geometry(side: SideConfig, name: str) -> DeviceGeometry | None:
    """The device of ``side``, if it has a radius; its plate separation is then required."""
    if side.radius_m is None:
        return None
    if side.plate_separation_m is None:
        raise ConfigError(
            f"missing required parameter [{name}] plate_separation_m (required alongside radius_m)"
        )
    return DeviceGeometry(side.radius_m, side.plate_separation_m)


def _shadowing(side: SideConfig, name: str, profile: ShadowingProfile | None) -> float | None:
    """Shadowing fraction: direct value, profile lookup, or both (checked)."""
    from_profile = None if side.position_s is None or profile is None else blame(
        f"[{name}] position_s", shadowing_factor, side.position_s, profile)
    return _pick(f"[{name}] shadowing_x", side.shadowing_x, from_profile, None)


def _resolve_separation(config: ScenarioConfig) -> float | None:
    """Device separation: explicit, from body positions, or both (checked)."""
    derived = None
    tx_s, rx_s, length = config.tx.position_s, config.rx.position_s, config.segment_length_m
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
    return _pick("[link] separation_m", config.separation_m, derived, None)


def body_capacitance(config: ScenarioConfig) -> float:
    """Body capacitance C_B: direct, from the dielectric table, or both (checked).

    The value at ``dielectric_thickness_m`` of the table ``config`` names is
    the one kept.

    Raises:
        ConfigError: On a thickness outside the table, a disagreeing
            ``[body] c_b_f``, or neither input.
    """
    thickness = config.dielectric_thickness_m
    derived = None if thickness is None else blame(
        "[body] dielectric_thickness_m", body_capacitance_lookup, thickness,
        load_dielectric_table(config))
    return _pick(
        "[body] c_b_f", config.c_b_f, derived,
        "missing required parameter: [body] c_b_f, or dielectric_thickness_m "
        "plus dielectric_table to derive it",
    )


def build_scenario(config: ScenarioConfig) -> ChannelScenario:
    """Assemble a :class:`ChannelScenario` from raw config inputs.

    Every capacitance may come directly or from geometry (see :func:`_pick`);
    the geometric inputs used are recorded as provenance on the scenario.
    A swept input given as a numpy column gives a scenario of columns.

    Raises:
        ConfigError: Naming the missing or inconsistent field.
    """
    decouple_m = config.decouple_m
    profile = config.shadowing_profile
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
    derived_gb = None if rx_geom is None or c_f is None else blame(
        "[rx] radius_m, plate_separation_m and fringe_f",
        lambda: ground_to_body_capacitance(plate_to_plate_capacitance(rx_geom), c_f))
    c_gb_rx = _pick(
        "[rx] ground_body_f", config.rx.ground_body_f, derived_gb,
        "missing required parameter: [rx] ground_body_f, or radius_m plus "
        "plate_separation_m and fringe_f to derive it",
    )

    c_l = _pick("[rx] load_f", config.rx.load_f, None, "missing required parameter: [rx] load_f")

    c_b = body_capacitance(config)

    # Inter-device coupling: direct, or the shielded near-field law.
    separation = _resolve_separation(config)
    k = config.k_f_per_m
    derived_cc = None
    if k is not None and separation is not None:
        if tx_geom is None:
            raise ConfigError(
                "missing required parameter: [tx] radius_m (needed for the "
                "coupling capacitance plate area)"
            )
        # From decouple_m on, the body and environment shield the plates from
        # each other: C_c is zero, though the law's checks still apply.
        derived_cc = blame(
            "[tx] radius_m, [link] k_f_per_m and the device separation",
            coupling_capacitance, tx_geom, separation, k,
        ) * (separation < decouple_m)
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

    return ChannelScenario(
        c_x_tx=c_x_tx, c_x_rx=c_x_rx, c_gb_rx=c_gb_rx, c_l=c_l, c_b=c_b,
        c_c=c_c, provenance=provenance,
    )

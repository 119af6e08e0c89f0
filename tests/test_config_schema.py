"""The config schema that the config dataclasses declare: every key's range
is enforced, the README's config block lists exactly its keys, and no key
is chosen from the text of an error."""

import ast
import configparser
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import CONFIG_DIR, REPO_ROOT
from hbc_channel import ConfigError, cli, columns, config, geometry, profiles, resonance

# Values outside each declared range, by the range's text.
OUT_OF_RANGE = {
    "positive": ["-1", "0"],
    "nonnegative": ["-1"],
    "in (0, 1]": ["1.5", "-0.5", "0"],
    "in [0, 1]": ["1.5", "-0.5"],
    "an integer of at least 2": ["1"],
    "an integer of at least 3": ["2"],
    config._LIMITS["[tx] radius_m"][0]: ["-1", "0", "1e200"],
    config._LIMITS["[body] segment"][0]: ["leg"],
    config._LIMITS["[sweep] kind"][0]: ["voltage"],
}

RANGE_CASES = [
    (name, limits[0], value)
    for name, limits in sorted(config._LIMITS.items())
    for value in OUT_OF_RANGE[limits[0]]
]


@pytest.mark.parametrize(
    "name, text, value", RANGE_CASES, ids=[f"{name}={value}" for name, _, value in RANGE_CASES]
)
def test_out_of_range_value_exits_1_naming_key(tmp_path, capsys, name, text, value):
    """Each ranged key set out of range in a sample config that otherwise
    runs is rejected naming ``[section] key``: a ``[sweep]`` key by ``hbc
    sweep`` on the separation sweep, any other key by ``hbc eval`` on the
    direct sample config (``[resonance]`` values included)."""
    section, key = name[1:].split("] ")
    sample, command = (
        ("separation_sweep.cfg", ["sweep", "--out", str(tmp_path / "out.csv")])
        if section == "sweep" else ("default_direct.cfg", ["eval"])
    )
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIG_DIR / sample)
    if section == "resonance":
        parser["resonance"] = {"inductance_h": "1e-3"}
    elif not parser.has_section(section):
        parser.add_section(section)
    parser[section][key] = value
    path = tmp_path / "scenario.cfg"
    with path.open("w") as stream:
        parser.write(stream)
    code = cli.main([command[0], str(path), *command[1:]])
    _, err = capsys.readouterr()
    assert code == 1
    parsed = config._KEYS[section][key][0](section, key, value)
    assert err == f"hbc: config error: {name} must be {text}, got {parsed!r}\n"


def scenario_cases():
    """(name, range text, value) for each ranged scenario key: its values out
    of range as a file would give them, and NaN and inf for a numeric key."""
    cases = []
    for name, (text, _) in sorted(config._LIMITS.items()):
        section, key = name[1:].split("] ")
        if section in ("tx", "rx", "body", "link", "channel"):
            parse = config._KEYS[section][key][0]
            values = [parse(section, key, raw) for raw in OUT_OF_RANGE[text]]
            if name != "[body] segment":
                values += [math.nan, math.inf]
            cases += [(name, text, value) for value in values]
    return cases


SCENARIO_CASES = scenario_cases()


@pytest.mark.parametrize(
    "name, text, value", SCENARIO_CASES,
    ids=[f"{name}={value}" for name, _, value in SCENARIO_CASES],
)
def test_out_of_range_scenario_key_in_python_raises_when_made(name, text, value):
    """A ``ScenarioConfig`` built in Python, by its constructor or by
    ``dataclasses.replace``, checks each key's range when it is made; a side's
    key is checked by the scenario that holds the side."""
    section, key = name[1:].split("] ")
    field = config._KEYS[section][key][2]
    valid = config.ScenarioConfig()
    if section in ("tx", "rx"):
        side = config.SideConfig(**{field: value})  # a lone side is not checked
        makes = (lambda: config.ScenarioConfig(**{section: side}),
                 lambda: replace(valid, **{section: side}))
    else:
        makes = (lambda: config.ScenarioConfig(**{field: value}),
                 lambda: replace(valid, **{field: value}))
    message = f"^{re.escape(name)} must be {re.escape(text)}, got {re.escape(repr(value))}$"
    for make in makes:
        with pytest.raises(ConfigError, match=message):
            make()


@pytest.mark.parametrize("value", [2.5, 3.0, math.inf])
def test_count_key_in_python_takes_only_an_integer(value):
    """``[sweep] steps`` and ``[resonance] points`` built in Python with a
    float, whole or not, fail their range check when made, before numpy
    (which takes no float as a count) sees them; a numpy integer passes."""
    parsed = config.load_config_file(CONFIG_DIR / "separation_sweep.cfg")

    def sweep(steps):
        return config.SweepSpec(**{**parsed.sweep, "steps": steps}, base=parsed.scenario)

    def section(points):
        return config.ResonanceSection(inductance_h=1e-3, points=points)

    for name, make in (("[sweep] steps", sweep), ("[resonance] points", section)):
        text = config._LIMITS[name][0]
        message = f"^{re.escape(name)} must be {re.escape(text)}, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            make(value)
        make(np.int64(3))


# Sweep kind -> (sample config, its text edited to a base for that kind, the
# swept key, and (min, max) ranges whose one end leaves the swept key's range).
# A config file cannot hold inf, so only a radius or a position can lie above
# its range; a device area maps onto radii of a finite plate area.
SWEEP_BOUND_CASES = {
    "separation": ("separation_sweep.cfg", {}, "[link] separation_m", {"min": (0, 1)}),
    "radius": ("radius_sweep.cfg", {}, "[tx] radius_m",
               {"min": (0, 0.05), "max": (0.005, 1e200)}),
    "device_area": ("area_sweep.cfg", {}, "[tx] radius_m", {"min": (0, 30e-4)}),
    "dielectric_thickness": ("dielectric_sweep.cfg", {}, "[body] dielectric_thickness_m",
                             {"min": (0, 0.6)}),
    "rx_position": ("arm_sweep.cfg", {}, "[rx] position_s",
                    {"min": (1.5, 2), "max": (0.5, 1.5)}),
    "tx_position": ("arm_sweep.cfg", {"tx": "rx"}, "[tx] position_s",
                    {"min": (1.5, 2), "max": (0.5, 1.5)}),
}
SWEEP_CASES = [
    (kind, end, bounds)
    for kind, (_, _, _, ends) in SWEEP_BOUND_CASES.items()
    for end, bounds in ends.items()
]


@pytest.mark.parametrize(
    "kind, end, bounds", SWEEP_CASES, ids=[f"{kind}-{end}" for kind, end, _ in SWEEP_CASES]
)
def test_sweep_end_outside_the_swept_range_exits_1(tmp_path, capsys, kind, end, bounds):
    """``hbc sweep`` checks both ends of ``[sweep]`` against the swept key's
    range before any row runs, naming the end and the key."""
    sample, moved, swept, _ = SWEEP_BOUND_CASES[kind]
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIG_DIR / sample)
    for source, target in moved.items():  # free the swept position for this kind
        parser[target]["position_s"] = parser[source].pop("position_s")
    parser["sweep"]["kind"] = kind
    parser["sweep"]["min"], parser["sweep"]["max"] = (str(value) for value in bounds)
    path = tmp_path / "sweep.cfg"
    with path.open("w") as stream:
        parser.write(stream)
    code = cli.main(["sweep", str(path), "--out", str(tmp_path / "out.csv")])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith(f"hbc: config error: [sweep] {end}: {swept} must be ")


def test_each_range_is_declared_once():
    """Every config key's range is one of the range objects the model
    declares, not a copy: the config and the model cannot drift apart."""
    assert config._LIMITS["[tx] radius_m"] is geometry.RADIUS
    assert config._LIMITS["[tx] shadowing_x"] is columns.FRACTION
    assert config._LIMITS["[tx] position_s"] is columns.COORDINATE
    assert config._LIMITS["[rx] load_f"] is columns.POSITIVE
    assert config._LIMITS["[rx] fringe_f"] is columns.NONNEGATIVE
    assert config._LIMITS["[body] segment"] is profiles.SEGMENT
    assert config._LIMITS["[resonance] points"] is resonance.GRID_POINTS
    by_text = {limits[0]: limits for limits in (columns.POSITIVE, columns.NONNEGATIVE,
                                                 columns.FRACTION, columns.COORDINATE,
                                                 geometry.RADIUS)}
    for name, limits in config._LIMITS.items():
        assert by_text.get(limits[0], limits) is limits, name


@pytest.mark.parametrize(
    "section, code",
    [
        ("[sweep]\nkind = separation\nmin = 0.1\nmax = 1\nsteps = 1\n", 0),
        ("[resonance]\ninductance_h = 1e-3\npoints = 2\n", 1),
        ("[resonance]\ninductance_h = 1e-3\nf_min_hz = 1e6\nf_max_hz = 1e4\n", 1),
    ],
    ids=["sweep-left-to-hbc-sweep", "resonance-checked-on-read", "resonance-span-checked-on-read"],
)
def test_eval_checks_resonance_ranges_but_not_sweep_ones(tmp_path, section, code):
    """``[resonance]`` is checked as the file is read; ``[sweep]`` values
    are checked with the sweep's other rules, which only ``hbc sweep`` has."""
    path = tmp_path / "scenario.cfg"
    path.write_text((CONFIG_DIR / "default_direct.cfg").read_text() + section)
    assert cli.main(["eval", str(path), "--json"]) == code


def readme_config_keys():
    """Section -> keys of the ```ini block in the README's "Config format"."""
    readme = (REPO_ROOT / "README.md").read_text()
    block = re.search(r"\n## Config format\n.*?```ini\n(.*?)```", readme, re.S)[1]
    sections = {}
    for line in block.splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("["):
            keys = sections.setdefault(line[1:-1], set())
        elif line:
            keys.add(line.split("=")[0].strip())
    return sections


def test_readme_config_block_lists_exactly_the_schema_keys():
    sections = readme_config_keys()
    sections["rx"] |= sections["tx"]  # the block lists [rx] as [tx]'s keys plus its own
    assert sections == {section: set(keys) for section, keys in config._KEYS.items()}


def test_no_key_is_chosen_from_an_error_message():
    """No handler reads its own exception as text (``str(exc)``): a library
    error is named by the call that raised it, so rewording a message cannot
    change which key is named.  Formatting it (``f"{exc}"``) is allowed."""
    found = []
    for path in sorted((REPO_ROOT / "src" / "hbc_channel").glob("*.py")):
        for handler in ast.walk(ast.parse(path.read_text())):
            if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
                continue
            for node in ast.walk(handler):
                if (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "str"
                    and any(isinstance(a, ast.Name) and a.id == handler.name for a in node.args)
                ):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def test_each_range_check_is_one_require_call():
    """A range is checked by ``require(limits, name, value)``: no call spreads
    a dict of names into it, and no ``if`` runs a range's test alone before
    calling it, except in ``CapNetwork`` (network.py), where the name is an
    f-string per branch that a passing branch never builds."""
    found = []
    for path in sorted((REPO_ROOT / "src" / "hbc_channel").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _calls(node, "require") and any(k.arg is None for k in node.keywords):
                found.append(f"{path.name}:{node.lineno}: require(**...)")
            if isinstance(node, ast.If) and path.name != "network.py" and any(
                _calls(test, "holds") and test.args and isinstance(test.args[0], ast.Call)
                and isinstance(test.args[0].func, ast.Subscript)
                for test in ast.walk(node.test)
            ) and any(_calls(call, "require") for s in node.body for call in ast.walk(s)):
                found.append(f"{path.name}:{node.lineno}: holds(<range>[1](...)) fork")
    assert found == []


def test_np_interp_is_called_in_one_place():
    """The dielectric table and the shadowing profile interpolate by one rule,
    ``columns.lookup``: ``np.interp`` is called nowhere else in ``src/``."""
    found = [
        path.name
        for path in sorted((REPO_ROOT / "src" / "hbc_channel").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "interp"
    ]
    assert found == ["columns.py"]

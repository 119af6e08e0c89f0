"""The config schema that the config dataclasses declare: every key's range
is enforced, the README's config block lists exactly its keys, and no key
is chosen from the text of an error."""

import ast
import configparser
import re

import pytest

from conftest import CONFIG_DIR, REPO_ROOT
from hbc_channel import cli, config

# Values outside each declared range, by the range's text.
OUT_OF_RANGE = {
    "positive": ["-1", "0"],
    "nonnegative": ["-1"],
    "in (0, 1]": ["1.5", "-0.5", "0"],
    "in [0, 1]": ["1.5", "-0.5"],
    "at least 2": ["1"],
    "at least 3": ["2"],
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


@pytest.mark.parametrize(
    "section, code",
    [
        ("[sweep]\nkind = separation\nmin = 0.1\nmax = 1\nsteps = 1\n", 0),
        ("[resonance]\ninductance_h = 1e-3\npoints = 2\n", 1),
    ],
    ids=["sweep-left-to-hbc-sweep", "resonance-checked-on-read"],
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

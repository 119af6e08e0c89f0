"""The config schema that the config dataclasses declare: every key's range
is enforced, and the README's config block lists exactly its keys."""

import configparser
import re

import pytest

from conftest import CONFIG_DIR, REPO_ROOT
from hbc_channel import cli, config


def out_of_range(limits):
    """Values that the range ``limits`` (text, zero allowed, upper bound) rejects."""
    _, zero_in, upper = limits
    values = ["1.5", "-0.5"] if upper == 1.0 else ["-1"]
    return values if zero_in else [*values, "0"]


RANGE_CASES = [
    (name, limits[0], value)
    for name, limits in sorted(config._LIMITS.items())
    for value in out_of_range(limits)
]


@pytest.mark.parametrize(
    "name, text, value", RANGE_CASES, ids=[f"{name}={value}" for name, _, value in RANGE_CASES]
)
def test_out_of_range_value_exits_1_naming_key(tmp_path, capsys, name, text, value):
    """Each ranged key set out of range in the direct sample config, which
    otherwise evaluates, is rejected by ``hbc eval`` naming ``[section] key``."""
    section, key = name[1:].split("] ")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIG_DIR / "default_direct.cfg")
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section][key] = value
    path = tmp_path / "scenario.cfg"
    with path.open("w") as stream:
        parser.write(stream)
    code = cli.main(["eval", str(path)])
    _, err = capsys.readouterr()
    assert code == 1
    assert err == f"hbc: config error: {name} must be {text}, got {float(value)!r}\n"


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

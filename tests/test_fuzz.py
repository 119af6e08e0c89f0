"""Fuzz of the CLI's error contract: every sample config, perturbed.

Each example takes one sample config, sets one to three of its numeric keys
to an extreme value and, for a sweep, may swap ``min`` and ``max``.  Every
run must end in exit 0, 1 (config error) or 2 (numerical error) with no
exception escaping ``cli.main``, and every exit-0 answer must be one the
model can give.  ``[channel] frequency_hz`` is left as configured, so that
no regime warning is expected; the suite turns any other warning into an
error.
"""

import json
import re
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from hbc_channel import cli, read_sweep_csv
from hbc_channel.resonance import MAX_PEAK_BRACKET

EXTREMES = ("0", "-1", "5e-324", "1e-320", "1e-300", "1e154", "1e300", "-1e300")
SAMPLES = {path.name: path.read_text() for path in sorted(CONFIG_DIR.glob("*.cfg"))}
LINE = re.compile(r"(\w+) = (.*)")


def numeric_entries(text):
    """``{(section, key): value}`` of every line of ``text`` whose value is a number."""
    entries, section = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            section = line
        elif match := LINE.fullmatch(line):
            try:
                float(match[2])
            except ValueError:
                continue
            entries[section, match[1]] = match[2]
    return entries


def perturbed(text, values, swap):
    """``text`` with each ``(section, key)`` of ``values`` set to its value,
    the sweep's ``min`` and ``max`` exchanged when ``swap``, and the
    dielectric table named by absolute path."""
    if swap:
        original = numeric_entries(text)
        values = {
            ("[sweep]", "min"): original["[sweep]", "max"],
            ("[sweep]", "max"): original["[sweep]", "min"],
            **values,
        }
    lines, section = [], None
    for line in text.splitlines():
        if line.startswith("["):
            section = line
        elif match := LINE.fullmatch(line):
            if (section, match[1]) in values:
                line = f"{match[1]} = {values[section, match[1]]}"
            elif match[1] == "dielectric_table":
                line = f"dielectric_table = {CONFIG_DIR / match[2]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@st.composite
def runs(draw):
    """(command, config text, sweep with the oracle) of one fuzzed run."""
    name = draw(st.sampled_from(sorted(SAMPLES)))
    text = SAMPLES[name]
    keys = draw(st.lists(st.sampled_from(list(numeric_entries(text))), min_size=1, max_size=3, unique=True))
    values = {key: draw(st.sampled_from(EXTREMES)) for key in keys}
    command = next((c for c in ("sweep", "resonance") if f"[{c}]" in text), "eval")
    swap = command == "sweep" and draw(st.booleans())
    return command, perturbed(text, values, swap), draw(st.booleans())


def in_unit_interval(values):
    return all(0 < value <= 1 for value in values)


def test_fuzzed_sample_configs_keep_the_exit_contract(tmp_path, capsys):
    config, csv = tmp_path / "fuzz.cfg", tmp_path / "fuzz.csv"
    exits = Counter()

    @settings(
        max_examples=500, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(run=runs())
    def check(run):
        command, text, oracle = run
        config.write_text(text)
        argv = {
            "eval": ["eval", str(config), "--json"],
            "sweep": ["sweep", str(config), "--out", str(csv), *(["--oracle"] if oracle else [])],
            "resonance": ["resonance", str(config)],
        }[command]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        exits[code] += 1
        assert code in (0, 1, 2), text
        if code:
            assert err.startswith("hbc: ") and err.count("\n") == 1, err
            return
        assert err == "", err
        if command == "eval":
            report = json.loads(out)
            ratios = report["ratios"]
            assert in_unit_interval([ratios["full"], ratios["oracle"]]), text
            if "invalid-approximation" not in report["flags"]:
                assert in_unit_interval(ratios.values()), text
        elif command == "sweep":
            result = read_sweep_csv(csv)
            assert in_unit_interval(result.ratio.tolist()), text
            if oracle:
                assert in_unit_interval(result.oracle_ratio.tolist()), text
        else:
            error = float(re.search(r"relative_error = (\S+)", out)[1])
            assert error <= MAX_PEAK_BRACKET, text

    check()
    assert set(exits) == {0, 1, 2}, exits

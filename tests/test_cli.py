"""End-to-end tests of the `hbc` command-line interface."""

import importlib.util
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import CONFIG_DIR, REPO_ROOT
from hbc_channel import cli


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "hbc_channel", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def edited_config(tmp_path, name, old, new):
    """Sample config ``name`` with ``old`` replaced by ``new`` and its
    dielectric table given by absolute path."""
    text = (CONFIG_DIR / name).read_text().replace(old, new).replace(
        "dielectric_table = dielectric_cb.csv",
        f"dielectric_table = {CONFIG_DIR / 'dielectric_cb.csv'}",
    )
    path = tmp_path / name
    path.write_text(text)
    return path


def geometric_config(tmp_path, link="separation_m = 0.10"):
    """The sample geometric config with its separation line replaced by ``link``."""
    return edited_config(tmp_path, "sample_geometric.cfg", "separation_m = 0.10", link)


def tiny_return_path_config(tmp_path, name, return_path_f):
    """A direct-capacitance sample config with both return paths set to
    ``return_path_f``."""
    return edited_config(
        tmp_path, name, "return_path_f = 0.5e-12", f"return_path_f = {return_path_f}"
    )


def overflowing_coupling_config(tmp_path, name, **replacements):
    """Sample config ``name`` with 100 km device radii and k = 1e300 F/m, so
    the coupling law k*pi*a^2/d overflows at every separation, and each
    ``key=value`` of ``replacements`` substituted for the line it starts."""
    lines = []
    for line in (CONFIG_DIR / name).read_text().splitlines():
        key = line.split(" = ")[0]
        if key == "radius_m":
            line = "radius_m = 1e5"
        elif key == "k_f_per_m":
            line = "k_f_per_m = 1e300"
        elif key in replacements:
            line = f"{key} = {replacements[key]}"
        lines.append(line)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestEval:
    def test_human_readable_report(self):
        proc = run_cli("eval", str(CONFIG_DIR / "sample_geometric.cfg"))
        assert proc.returncode == 0
        assert "transfer (V_out/V_in" in proc.stdout
        assert "geometric distant" in proc.stdout
        assert "nodal oracle" in proc.stdout
        assert "flags:" in proc.stdout

    def test_json_report_fields(self):
        proc = run_cli("eval", str(CONFIG_DIR / "sample_geometric.cfg"), "--json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert set(payload) == {
            "config", "frequency_hz", "capacitances", "ratios", "loss_db",
            "relative_errors", "flags",
        }
        assert payload["ratios"]["geometric_distant"] == pytest.approx(
            4.750e-4, rel=1e-4
        )
        assert payload["flags"] == ["coupled"]

    def test_geometric_coupled_form_omitted_beyond_decoupling(self, tmp_path):
        """Beyond decouple_m the coupling is zero, so the geometric form that
        applies k*pi*a^2/d is not reported."""
        proc = run_cli("eval", str(geometric_config(tmp_path, "separation_m = 0.6")), "--json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["capacitances"]["c_c_f"] == 0.0
        assert "geometric_full" not in payload["ratios"]
        assert "geometric_distant" in payload["ratios"]

    @pytest.mark.parametrize(
        "name, old, new, key",
        [
            ("sample_geometric.cfg", "separation_m = 0.10",
             "separation_m = 0.10\ndecouple_m = nan", "[link] decouple_m"),
            ("sample_geometric.cfg", "separation_m = 0.10",
             "separation_m = 0.10\ndecouple_m = -1", "[link] decouple_m"),
            ("sample_geometric.cfg", "separation_m = 0.10", "separation_m = inf",
             "[link] separation_m"),
            ("sample_geometric.cfg", "separation_m = 0.10",
             "separation_m = 0.10\n[channel]\nfrequency_hz = nan", "[channel] frequency_hz"),
            ("sample_geometric.cfg", "[body]",
             "[body]\nshadowing_anchors = 0.0:0.5, 1.0:1.5", "[body] shadowing_anchors"),
            ("sample_geometric.cfg", "[body]",
             "[body]\nsegment = leg\nshadowing_anchors = 0.0:0.5, 1.0:0.6", "[body] segment"),
            ("default_direct.cfg", "load_f = 10e-12", "load_f = 0", "[rx] load_f"),
            ("default_direct.cfg", "c_b_f = 150.838e-12", "c_b_f = -150e-12", "[body] c_b_f"),
            ("default_direct.cfg", "ground_body_f = 3e-12", "ground_body_f = 0",
             "[rx] ground_body_f"),
            ("default_direct.cfg", "[tx]\nreturn_path_f = 0.5e-12",
             "[tx]\nreturn_path_f = -0.5e-12", "[tx] return_path_f"),
            ("sample_geometric.cfg", "k_f_per_m = 2.0e-12", "k_f_per_m = -2e-12",
             "[link] k_f_per_m"),
            ("sample_geometric.cfg", "k_f_per_m = 2.0e-12", "k_f_per_m = 0", "[link] k_f_per_m"),
            ("sample_geometric.cfg", "[body]", "[body]\nsegment_length_m = 0",
             "[body] segment_length_m"),
            ("sample_geometric.cfg", "fringe_f = 0.75e-12", "fringe_f = -1e-12", "[rx] fringe_f"),
            ("sample_geometric.cfg", "[tx]\nradius_m = 0.03\nplate_separation_m = 0.005\n"
             "shadowing_x = 0.5", "[tx]\nradius_m = 0.03\nplate_separation_m = 0.005\n"
             "shadowing_x = 5e-324", "[tx] return_path_f"),
            ("sample_geometric.cfg", "[rx]\nradius_m = 0.03\nplate_separation_m = 0.005\n"
             "shadowing_x = 0.5\nfringe_f = 0.75e-12", "[rx]\nradius_m = 1e-160\n"
             "plate_separation_m = 0.005\nshadowing_x = 0.5\nfringe_f = 0",
             "[rx] ground_body_f"),
            # A "%" is literal: no interpolation error escapes the parser.
            ("sample_geometric.cfg", "dielectric_table = dielectric_cb.csv",
             "dielectric_table = dielectric%cb.csv",
             "dielectric table 'dielectric%cb.csv' not found (tried: "),
            ("default_direct.cfg", "[tx]\nreturn_path_f = 0.5e-12",
             "[tx]\nreturn_path_f = 1e-12 %(x)s",
             "[tx] return_path_f: not a number: '1e-12 %(x)s'"),
            # [DEFAULT] is a section like any other, not one merged into the rest.
            ("default_direct.cfg", "[tx]", "[DEFAULT]\nc_b_f = 1e-10\n\n[tx]",
             "unknown section [DEFAULT]"),
            (None, None, "[DEFAULT]\nload_f = 1e-11\n", "unknown section [DEFAULT]"),
        ],
        ids=[
            "decouple-nan", "decouple-negative", "separation-inf", "frequency-nan",
            "anchor-fraction-above-1", "unknown-segment", "zero-load", "negative-body",
            "zero-ground-body", "negative-return-path", "negative-k", "zero-k",
            "zero-segment-length", "negative-fringe", "return-path-flushes-to-zero",
            "ground-body-flushes-to-zero", "percent-in-table-name", "percent-interpolation",
            "default-section-above-tx", "default-section-alone",
        ],
    )
    def test_bad_value_exits_1_naming_key(self, tmp_path, name, old, new, key):
        if name is None:  # the config is ``new`` alone
            config = tmp_path / "only.cfg"
            config.write_text(new)
        else:
            config = edited_config(tmp_path, name, old, new)
        proc = run_cli("eval", str(config))
        assert proc.returncode == 1
        assert key in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "table, tried",
        [
            ("dielectric_cb.csv/", "./dielectric_cb.csv/, dielectric_cb.csv/"),
            ("sub//nowhere.csv", "./sub//nowhere.csv, sub//nowhere.csv"),
        ],
        ids=["trailing-slash", "double-slash"],
    )
    def test_table_path_named_as_joined(self, tmp_path, monkeypatch, table, tried):
        """A relative table name is joined to each directory as written: a
        trailing "/" does not resolve, and no path is normalised."""
        monkeypatch.delenv("HBC_TABLE_DIR", raising=False)
        shutil.copy(CONFIG_DIR / "dielectric_cb.csv", tmp_path)
        (tmp_path / "only.cfg").write_text(
            (CONFIG_DIR / "default_direct.cfg").read_text().replace(
                "c_b_f = 150.838e-12",
                f"dielectric_thickness_m = 0.40\ndielectric_table = {table}",
            )
        )
        proc = run_cli("eval", "only.cfg", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"hbc: config error: dielectric table {table!r} not found (tried: {tried}; "
            "set HBC_TABLE_DIR to the table directory)\n"
        )

    def test_position_outside_body_exits_1_naming_key(self, tmp_path):
        """A body coordinate outside [0, 1] is rejected without a profile too,
        where it would only stretch the device separation."""
        config = edited_config(
            tmp_path, "sample_geometric.cfg", "shadowing_x = 0.5\n\n[rx]",
            "shadowing_x = 0.5\nposition_s = -40\n\n[rx]\nposition_s = 0.2",
        )
        config.write_text(config.read_text().replace(
            "[body]", "[body]\nsegment_length_m = 0.6").replace("separation_m = 0.10\n", ""))
        proc = run_cli("eval", str(config), "--json")
        assert proc.returncode == 1
        assert proc.stderr == "hbc: config error: [tx] position_s must be in [0, 1], got -40.0\n"

    def test_unequal_radii_omit_geometric_forms(self, tmp_path):
        """The geometric forms assume one radius; other devices still evaluate."""
        config = edited_config(
            tmp_path, "sample_geometric.cfg", "[rx]\nradius_m = 0.03", "[rx]\nradius_m = 0.02"
        )
        proc = run_cli("eval", str(config), "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        names = [*payload["ratios"], *payload["relative_errors"], *payload["loss_db"]]
        assert not [name for name in names if name.startswith("geometric_")]

    def test_overflowing_radius_exits_1_naming_key(self, tmp_path):
        """pi*a^2 overflows a float for a 1e200 m radius."""
        config = geometric_config(tmp_path)
        config.write_text(config.read_text().replace("radius_m = 0.03", "radius_m = 1e200"))
        proc = run_cli("eval", str(config))
        assert proc.returncode == 1
        assert "[tx] radius_m" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_overflowing_plate_capacitance_exits_1_naming_keys(self, tmp_path):
        """eps0*pi*a^2/t overflows for a 1e150 m radius over a 1e-320 m gap."""
        config = geometric_config(tmp_path)
        config.write_text(config.read_text().replace(
            "[rx]\nradius_m = 0.03\nplate_separation_m = 0.005",
            "[rx]\nradius_m = 1e150\nplate_separation_m = 1e-320",
        ))
        proc = run_cli("eval", str(config))
        assert proc.returncode == 1
        assert "config error: [rx] radius_m, plate_separation_m and fringe_f: " in proc.stderr
        assert "plate_to_plate_capacitance produced invalid capacitance inf" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("separation", ["0.3", "0.7"], ids=["near", "beyond-cutoff"])
    def test_overflowing_coupling_law_exits_1_naming_keys(self, tmp_path, separation):
        """The coupling law runs at every separation, so it is rejected
        beyond decouple_m (0.5 m) too."""
        config = overflowing_coupling_config(
            tmp_path, "sample_geometric.cfg", separation_m=separation,
            dielectric_table=CONFIG_DIR / "dielectric_cb.csv",
        )
        proc = run_cli("eval", str(config))
        assert proc.returncode == 1
        assert "[tx] radius_m, [link] k_f_per_m and the device separation: " in proc.stderr
        assert "coupling_capacitance produced invalid capacitance inf" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "return_path_f, form",
        [("1e-200", "rx_transfer_distant"), ("1e-160", "oracle")],
        ids=["closed-forms-underflow", "oracle-underflows"],
    )
    def test_nonpositive_ratio_exits_2_naming_form(self, tmp_path, return_path_f, form):
        """Return paths this small leave no positive ratio: at 1e-200 every
        closed form underflows to 0, at 1e-160 only the nodal solve does."""
        config = tiny_return_path_config(tmp_path, "default_direct.cfg", return_path_f)
        proc = run_cli("eval", str(config))
        assert proc.returncode == 2
        assert f"numerical error: {form}: " in proc.stderr
        assert "is not positive" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_db_mode_prints_losses(self):
        proc = run_cli("eval", str(CONFIG_DIR / "default_direct.cfg"), "--db")
        assert proc.returncode == 0
        assert "loss" in proc.stdout
        assert "78.27" in proc.stdout  # full-form loss of the direct scenario

    def test_dump_network(self):
        proc = run_cli("eval", str(CONFIG_DIR / "default_direct.cfg"), "--dump-network")
        assert proc.returncode == 0
        assert "network:" in proc.stdout
        assert "SRC 1 2 1" in proc.stdout
        assert "OUT 1 3" in proc.stdout

    @pytest.mark.parametrize(
        "flags", [["--db"], ["--dump-network"], ["--db", "--dump-network"]],
        ids=["db", "dump-network", "both"],
    )
    def test_json_with_db_or_dump_network_is_a_usage_error(self, capsys, flags):
        """``--json`` prints the payload alone: pairing it with a flag that
        changes the text report is a usage error naming the flags, exit 1,
        with nothing on stdout."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", str(CONFIG_DIR / "default_direct.cfg"), "--json", *flags])
        out, err = capsys.readouterr()
        assert exc.value.code == 1
        assert out == ""
        assert err.startswith("usage: hbc eval ")
        assert err.endswith(
            "hbc eval: error: argument --json: not allowed with --db or --dump-network\n"
        )

    def test_missing_config_exits_1(self):
        proc = run_cli("eval", "no_such_file.cfg")
        assert proc.returncode == 1
        assert "config error" in proc.stderr

    def test_incomplete_config_names_field_and_exits_1(self, tmp_path):
        config = tmp_path / "broken.cfg"
        config.write_text(
            "[tx]\nreturn_path_f = 0.5e-12\n"
            "[rx]\nreturn_path_f = 0.5e-12\nground_body_f = 3e-12\n"
            "[body]\nc_b_f = 150.838e-12\n"
            "[link]\ncoupling_f = 0\n"
        )
        proc = run_cli("eval", str(config))
        assert proc.returncode == 1
        assert "load_f" in proc.stderr

    def test_eqs_warning_on_stderr(self, tmp_path):
        config = tmp_path / "fast.cfg"
        config.write_text(
            "[tx]\nreturn_path_f = 0.5e-12\n"
            "[rx]\nreturn_path_f = 0.5e-12\nground_body_f = 3e-12\nload_f = 10e-12\n"
            "[body]\nc_b_f = 150.838e-12\n"
            "[link]\ncoupling_f = 0\n"
            "[channel]\nfrequency_hz = 5e6\n"
        )
        proc = run_cli("eval", str(config))
        assert proc.returncode == 0
        assert "electro-quasistatic" in proc.stderr

    def test_bad_usage_exits_1(self):
        proc = run_cli("eval")  # missing config argument
        assert proc.returncode == 1


class TestSweep:
    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sep.csv"
        proc = run_cli("sweep", str(CONFIG_DIR / "separation_sweep.cfg"), "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "separation_m,c_x_tx_f,c_x_rx_f,c_gb_rx_f,c_l_f,c_b_f,c_c_f,"
            "ratio,loss_db,flags"
        )
        assert len(lines) == 47

    def test_sweep_deterministic_across_runs(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("sweep", str(CONFIG_DIR / "separation_sweep.cfg"), "--out", str(out_a))
        run_cli("sweep", str(CONFIG_DIR / "separation_sweep.cfg"), "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_sweep_with_oracle_columns(self, tmp_path):
        out = tmp_path / "arm.csv"
        proc = run_cli(
            "sweep", str(CONFIG_DIR / "arm_sweep.cfg"), "--out", str(out), "--oracle"
        )
        assert proc.returncode == 0
        header = out.read_text().splitlines()[0]
        assert header.endswith("oracle_ratio,oracle_rel_error")

    def test_degenerate_row_exits_2(self, tmp_path):
        """Tiny capacitances leave the full-form denominator above the
        degenerate limit only while the devices couple; the first row at
        decouple_m (step 4, 0.5 m) fails and its error sets the exit code."""
        config = tmp_path / "degenerate.cfg"
        config.write_text(
            "[tx]\nradius_m = 0.03\nplate_separation_m = 0.005\nreturn_path_f = 1e-21\n"
            "[rx]\nreturn_path_f = 1e-21\nground_body_f = 1e-21\nload_f = 1e-21\n"
            "[body]\nc_b_f = 1e-10\n"
            "[link]\nk_f_per_m = 2e-12\n"
            "[sweep]\nkind = separation\nmin = 0.1\nmax = 1.0\nsteps = 10\n"
        )
        proc = run_cli("sweep", str(config), "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 2
        assert "numerical error: sweep step 4 (value 0.5): full_transfer" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "return_path_f, flags, form",
        [("1e-200", (), "full_transfer"), ("1e-160", ("--oracle",), "oracle")],
        ids=["closed-forms-underflow", "oracle-underflows"],
    )
    def test_nonpositive_ratio_row_exits_2(self, tmp_path, return_path_f, flags, form):
        config = tiny_return_path_config(tmp_path, "dielectric_sweep.cfg", return_path_f)
        proc = run_cli("sweep", str(config), "--out", str(tmp_path / "out.csv"), *flags)
        assert proc.returncode == 2
        assert f"numerical error: sweep step 0 (value 0.1): {form}:" in proc.stderr
        assert "is not positive" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_overflowing_radius_row_exits_1_naming_key(self, tmp_path):
        config = tmp_path / "radius.cfg"
        config.write_text(
            (CONFIG_DIR / "radius_sweep.cfg").read_text().replace("max = 0.05", "max = 1e200")
        )
        proc = run_cli("sweep", str(config), "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 1
        # Both ends of the range are checked before any row is evaluated.
        assert "config error: [sweep] max: [tx] radius_m must be positive with a finite plate" \
            " area pi*a^2 (at most 7.56455e+153 m), got 1e+200\n" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_nonpositive_segment_length_exits_1_naming_key(self, tmp_path):
        config = tmp_path / "arm.cfg"
        config.write_text(
            (CONFIG_DIR / "arm_sweep.cfg").read_text().replace(
                "segment_length_m = 0.65", "segment_length_m = -0.5"
            )
        )
        proc = run_cli("sweep", str(config), "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 1
        assert "[body] segment_length_m" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_overflowing_coupling_law_beyond_cutoff_exits_1(self, tmp_path):
        """Every row lies beyond decouple_m, yet the law runs on each one, so
        row 0 fails as a column and on its own alike."""
        config = overflowing_coupling_config(
            tmp_path, "separation_sweep.cfg", min="0.6", max="1.0"
        )
        proc = run_cli("sweep", str(config), "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 1
        assert (
            "config error: sweep step 0 (value 0.6): [tx] radius_m, [link] k_f_per_m"
            in proc.stderr
        )
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "old, new, code, message",
        [
            (
                "max = 30e-4", "max = 1e300",
                2,
                "numerical error: sweep step 1 (value 4e+298): full_transfer: ratio nan",
            ),
            (
                "separation_m = 0.05", "separation_m = 5e-324",
                1,
                "config error: sweep step 0 (value 0.0005): [tx] radius_m, [link] k_f_per_m",
            ),
        ],
        ids=["overflowing-area", "subnormal-separation"],
    )
    def test_overflowing_area_row_exits_quietly(self, tmp_path, old, new, code, message):
        """The lowest failing row of a device_area sweep, evaluated alone,
        overflows with numpy scalars; its check reports it and numpy prints
        no warning."""
        config = tmp_path / "area.cfg"
        config.write_text((CONFIG_DIR / "area_sweep.cfg").read_text().replace(old, new))
        proc = run_cli("sweep", str(config), "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == code
        assert message in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_table_exits_1_naming_table(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HBC_TABLE_DIR", raising=False)
        config = tmp_path / "dielectric.cfg"
        config.write_text(
            (CONFIG_DIR / "dielectric_sweep.cfg").read_text().replace(
                "dielectric_table = dielectric_cb.csv", "dielectric_table = nowhere.csv"
            )
        )
        proc = run_cli("sweep", str(config), "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 1
        assert (
            "config error: sweep step 0 (value 0.1): dielectric table 'nowhere.csv' not found"
            in proc.stderr
        )
        assert "Traceback" not in proc.stderr

    def test_config_without_sweep_section_exits_1(self):
        proc = run_cli(
            "sweep", str(CONFIG_DIR / "default_direct.cfg"), "--out", "/tmp/x.csv"
        )
        assert proc.returncode == 1
        assert "no [sweep] section" in proc.stderr


class TestResonance:
    def test_extraction_report(self, tmp_path):
        out = tmp_path / "resonance.csv"
        proc = run_cli("resonance", str(CONFIG_DIR / "resonance.cfg"), "--out", str(out))
        assert proc.returncode == 0
        values = {}
        for line in proc.stdout.splitlines():
            if "=" in line:
                key, _, value = line.partition("=")
                values[key.strip()] = float(value)
        assert values["resonant_frequency_hz"] == pytest.approx(409.8e3, rel=1e-3)
        assert values["recovered_capacitance_f"] == pytest.approx(150.838e-12, rel=1e-3)
        assert values["relative_error"] < 1e-3
        assert out.read_text().startswith("frequency_hz,magnitude\n")

    def test_boundary_peak_exits_2(self, tmp_path):
        config = tmp_path / "narrow.cfg"
        config.write_text(
            "[body]\nc_b_f = 150.838e-12\n"
            "[resonance]\ninductance_h = 1e-3\nf_min_hz = 1e4\nf_max_hz = 2e5\n"
        )
        proc = run_cli("resonance", str(config))
        assert proc.returncode == 2
        assert "numerical error" in proc.stderr

    def test_body_capacitance_disagreeing_with_table_exits_1(self, tmp_path):
        """[body] c_b_f must agree with the table value at the configured
        dielectric thickness, as it must for every other subcommand."""
        config = tmp_path / "both.cfg"
        config.write_text(
            f"[body]\nc_b_f = 200e-12\ndielectric_thickness_m = 0.40\n"
            f"dielectric_table = {CONFIG_DIR / 'dielectric_cb.csv'}\n"
            "[resonance]\ninductance_h = 1e-3\n"
        )
        proc = run_cli("resonance", str(config))
        assert proc.returncode == 1
        assert "[body] c_b_f" in proc.stderr

    @pytest.mark.parametrize(
        "c_b_f, section, named",
        [
            ("150.838e-12", "inductance_h = 1e-3\nseries_resistance_ohm = 1e300\n",
             "[resonance] series_resistance_ohm"),
            (
                "150.838e-12",
                "inductance_h = 1e-12\ncapacitance_f = 1e4\nf_min_hz = 1e-300\nf_max_hz = 1e-3\n",
                "frequency grid",
            ),
            ("150.838e-12", "inductance_h = -1\n", "[resonance] inductance_h"),
            ("150.838e-12", "inductance_h = 1e-3\npoints = 2\n", "[resonance] points"),
            ("150.838e-12", "inductance_h = 1e-3\nseries_resistance_ohm = 0\n",
             "[resonance] series_resistance_ohm"),
            ("150.838e-12", "inductance_h = 1e-3\nf_min_hz = -5\n", "[resonance] f_min_hz"),
            ("150.838e-12", "inductance_h = 1e-3\nf_min_hz = 1e6\nf_max_hz = 1e4\n",
             "[resonance] needs f_min_hz < f_max_hz, got 1000000.0 >= 10000.0"),
            ("150.838e-12", "inductance_h = 1e-3\ncapacitance_f = 0\n",
             "[resonance] capacitance_f"),
            ("-150e-12", "inductance_h = 1e-3\n", "[body] c_b_f"),
            # Errors raised inside the extraction name the keys that feed it.
            # The circuit resonates far below the default grid: the error
            # says where a grid must go.
            ("150e-12", "inductance_h = 1e300\n", (
                "[resonance] inductance_h",
                "the circuit resonates at 1.29949e-146 Hz, which a grid must bracket closely",
            )),
            ("150e-12", "inductance_h = 1e-3\nf_min_hz = 1e-300\n", "[resonance] f_min_hz"),
        ],
        ids=[
            "resistance-square-overflows", "capacitance-divides-by-zero",
            "negative-inductance", "two-points", "zero-resistance", "negative-f-min",
            "reversed-grid",
            "zero-capacitance", "negative-body-capacitance", "reactance-overflows-huge-l",
            "reactance-overflows-tiny-f-min",
        ],
    )
    def test_unusable_circuit_exits_1(self, tmp_path, c_b_f, section, named):
        config = tmp_path / "circuit.cfg"
        config.write_text(f"[body]\nc_b_f = {c_b_f}\n[resonance]\n" + section)
        proc = run_cli("resonance", str(config))
        assert proc.returncode == 1
        assert "config error" in proc.stderr
        for text in (named,) if isinstance(named, str) else named:
            assert text in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "section, code, message",
        [
            ("inductance_h = 0.5\nf_min_hz = 10\npoints = 3\n", 2, "grid too coarse"),
            (
                "inductance_h = 1e-300\ncapacitance_f = 2.5e-102\n"
                "series_resistance_ohm = 1e-120\nf_min_hz = 1e199\nf_max_hz = 1e201\n",
                1,
                "frequency limit",
            ),
            (
                "inductance_h = 1e-12\ncapacitance_f = 1e4\nf_min_hz = 1e-300\nf_max_hz = 1e-3\n",
                1,
                "reactance or its square overflows",
            ),
        ],
        ids=["coarse-grid-exits-2", "frequency-above-limit", "reactance-overflows"],
    )
    def test_rejected_extraction_exit_code(self, tmp_path, section, code, message):
        """A grid that cannot resolve the peak or whose arithmetic overflows
        ends in its documented exit, with no traceback or numpy warning."""
        config = tmp_path / "circuit.cfg"
        config.write_text("[body]\nc_b_f = 150e-12\n[resonance]\n" + section)
        proc = run_cli("resonance", str(config))
        assert proc.returncode == code
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_missing_capacitance_exits_1(self, tmp_path):
        config = tmp_path / "nocap.cfg"
        config.write_text("[resonance]\ninductance_h = 1e-3\n")
        proc = run_cli("resonance", str(config))
        assert proc.returncode == 1
        assert "capacitance_f" in proc.stderr


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "command, name, old, new",
        [
            ("sweep", "separation_sweep.cfg", "steps = 46", f"steps = {10**15}"),
            (
                "resonance", "resonance.cfg", "series_resistance_ohm = 10",
                f"series_resistance_ohm = 10\npoints = {10**15}",
            ),
        ],
        ids=["sweep-steps", "resonance-points"],
    )
    def test_impossible_allocation_exits_1(self, tmp_path, command, name, old, new):
        """10**15 float64 values (7 PiB) exceed the address space, so numpy's
        allocation fails at once without touching memory."""
        config = tmp_path / name
        config.write_text(
            (CONFIG_DIR / name).read_text().replace(old, new).replace(
                "dielectric_table = dielectric_cb.csv",
                f"dielectric_table = {CONFIG_DIR / 'dielectric_cb.csv'}",
            )
        )
        proc = run_cli(command, str(config), "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("hbc: out of memory: ")
        assert proc.stderr.count("\n") == 1

    def test_column_pass_out_of_memory_exits_1(self, tmp_path, monkeypatch, capsys):
        """A sweep whose columns cannot be allocated is not bisected for a
        failing row: the MemoryError itself reaches the CLI."""
        from hbc_channel import sweep

        evaluate = sweep._evaluate

        def small_columns_only(spec, values):
            if np.size(values) > 4:
                raise MemoryError("cannot allocate the sweep columns")
            return evaluate(spec, values)

        monkeypatch.setattr(sweep, "_evaluate", small_columns_only)
        code = cli.main(
            ["sweep", str(CONFIG_DIR / "separation_sweep.cfg"), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("hbc: out of memory")


class TestInProcess:
    def test_repeated_main_calls_match_fresh_processes(self, tmp_path, monkeypatch, capsys):
        """One process serving several commands in a row (the module-level
        parser included) gives each the bytes and exit code of a fresh one."""
        calls = [
            ["sweep", str(CONFIG_DIR / "arm_sweep.cfg"), "--out", "out.csv", "--oracle"],
            ["sweep", str(CONFIG_DIR / "separation_sweep.cfg"), "--out", "out.csv"],
            ["sweep", str(CONFIG_DIR / "separation_sweep.cfg")],
            ["eval", str(CONFIG_DIR / "sample_geometric.cfg"), "--json"],
        ]
        in_process = tmp_path / "in_process"
        fresh = tmp_path / "fresh"
        in_process.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(in_process)
        seen = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            csv = in_process / "out.csv"
            seen.append((code, out, err, csv.read_bytes() if csv.exists() else None))
            csv.unlink(missing_ok=True)
        assert [code for code, *_ in seen] == [0, 0, 1, 0]
        for argv, expected in zip(calls, seen):
            proc = run_cli(*argv, cwd=fresh)
            csv = fresh / "out.csv"
            assert (proc.returncode, proc.stdout, proc.stderr,
                    csv.read_bytes() if csv.exists() else None) == expected
            csv.unlink(missing_ok=True)


class TestCalibrateK:
    def test_reference_point(self):
        proc = run_cli("calibrate-k", "--cc", "60e-15", "--d", "0.1", "--area", "30e-4")
        assert proc.returncode == 0
        key, _, value = proc.stdout.partition("=")
        assert key.strip() == "k_f_per_m"
        assert float(value) == pytest.approx(2.0e-12, rel=1e-12)

    def test_nonpositive_input_exits_1(self):
        proc = run_cli("calibrate-k", "--cc", "-1e-15", "--d", "0.1", "--area", "30e-4")
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--cc", "nan", "--d", "0.1", "--area", "30e-4"],
             "argument --cc: must be positive, got nan"),
            (["--cc", "60e-15", "--d", "-1", "--area", "30e-4"],
             "argument --d: must be positive, got -1"),
            (["--cc", "60e-15", "--d", "0.1", "--area", "inf"],
             "argument --area: must be positive, got inf"),
            (["--cc", "1e-300", "--d", "1e-300", "--area", "1e300"],
             "--cc, --d and --area: k must be positive, got 0.0"),
        ],
        ids=["nan-cc", "negative-d", "infinite-area", "underflowing-quotient"],
    )
    def test_bad_input_exits_1_naming_flags(self, argv, message):
        """Each error names the flags the user typed, not library parameters."""
        proc = run_cli("calibrate-k", *argv)
        assert proc.returncode == 1
        assert message in proc.stderr
        assert "c_c_ref" not in proc.stderr
        assert "Traceback" not in proc.stderr


class TestEntryPoint:
    def test_console_script_matches_module(self):
        """The installed `hbc` script and `python -m hbc_channel` agree."""
        if shutil.which("hbc") is None:
            pytest.skip("console script not on PATH (package not installed)")
        module = run_cli("eval", str(CONFIG_DIR / "default_direct.cfg"), "--json")
        script = subprocess.run(
            ["hbc", "eval", str(CONFIG_DIR / "default_direct.cfg"), "--json"],
            capture_output=True, text=True,
        )
        assert json.loads(module.stdout) == json.loads(script.stdout)


class TestGoldens:
    def test_sample_outputs_match_benchmark_goldens(self, monkeypatch):
        """`eval --json`, the sample sweep CSVs and `resonance` stay
        byte-identical to the benchmark's recorded goldens."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_checks", REPO_ROOT / "perfbench" / "checks.py"
        )
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        monkeypatch.chdir(REPO_ROOT)
        work_dir = REPO_ROOT / checks.WORK_DIR
        created = not work_dir.exists()
        try:
            checks.check_all_goldens(cli.main)
        finally:
            if created:
                shutil.rmtree(work_dir, ignore_errors=True)

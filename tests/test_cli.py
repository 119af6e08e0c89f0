"""End-to-end tests of the `hbc` command-line interface."""

import importlib.util
import json
import shutil
import subprocess
import sys

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


def geometric_config(tmp_path, link="separation_m = 0.10", extra=""):
    """The sample geometric config with its separation line replaced by
    ``link`` and ``extra`` appended."""
    text = (CONFIG_DIR / "sample_geometric.cfg").read_text()
    text = text.replace("separation_m = 0.10", link).replace(
        "dielectric_table = dielectric_cb.csv",
        f"dielectric_table = {CONFIG_DIR / 'dielectric_cb.csv'}",
    )
    path = tmp_path / "geometric.cfg"
    path.write_text(text + extra)
    return path


def tiny_return_path_config(tmp_path, name, return_path_f):
    """A direct-capacitance sample config with both return paths set to
    ``return_path_f``, its dielectric table given by absolute path."""
    text = (CONFIG_DIR / name).read_text().replace(
        "return_path_f = 0.5e-12", f"return_path_f = {return_path_f}"
    ).replace(
        "dielectric_table = dielectric_cb.csv",
        f"dielectric_table = {CONFIG_DIR / 'dielectric_cb.csv'}",
    )
    path = tmp_path / name
    path.write_text(text)
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
        "link, extra, key",
        [
            ("separation_m = 0.10\ndecouple_m = nan", "", "[link] decouple_m"),
            ("separation_m = 0.10\ndecouple_m = -1", "", "[link] decouple_m"),
            ("separation_m = inf", "", "[link] separation_m"),
            ("separation_m = 0.10", "\n[channel]\nfrequency_hz = nan\n", "[channel] frequency_hz"),
        ],
        ids=["decouple-nan", "decouple-negative", "separation-inf", "frequency-nan"],
    )
    def test_bad_value_exits_1_naming_key(self, tmp_path, link, extra, key):
        proc = run_cli("eval", str(geometric_config(tmp_path, link, extra)))
        assert proc.returncode == 1
        assert key in proc.stderr

    def test_overflowing_radius_exits_1_naming_key(self, tmp_path):
        """pi*a^2 overflows a float for a 1e200 m radius."""
        config = geometric_config(tmp_path)
        config.write_text(config.read_text().replace("radius_m = 0.03", "radius_m = 1e200"))
        proc = run_cli("eval", str(config))
        assert proc.returncode == 1
        assert "[tx] radius_m" in proc.stderr
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
        assert "sweep step 1 (value 5.26316e+198): [tx] radius_m" in proc.stderr
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
        "section",
        [
            "inductance_h = 1e-3\nseries_resistance_ohm = 1e300\n",
            "inductance_h = 1e-12\ncapacitance_f = 1e4\nf_min_hz = 1e-300\nf_max_hz = 1e-3\n",
        ],
        ids=["resistance-square-overflows", "capacitance-divides-by-zero"],
    )
    def test_unusable_circuit_exits_1(self, tmp_path, section):
        config = tmp_path / "circuit.cfg"
        config.write_text("[body]\nc_b_f = 150.838e-12\n[resonance]\n" + section)
        proc = run_cli("resonance", str(config))
        assert proc.returncode == 1
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_capacitance_exits_1(self, tmp_path):
        config = tmp_path / "nocap.cfg"
        config.write_text("[resonance]\ninductance_h = 1e-3\n")
        proc = run_cli("resonance", str(config))
        assert proc.returncode == 1
        assert "capacitance_f" in proc.stderr


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

import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import dotesd
from dotesd.cli import main
from dotesd.config import ConfigError, default_config, load_config
from dotesd.material import GAAS

# Subprocesses import dotesd from the same source tree as these tests.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(dotesd.__file__)))


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def parse_table(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


def run_per_blas_threads(*argv):
    """stdout and stderr of `python -m dotesd.cli argv` under 1 and 2 BLAS threads."""
    stdout, stderr = [], []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": _SRC}
        result = subprocess.run(
            [sys.executable, "-m", "dotesd.cli", *argv], capture_output=True, env=env, timeout=600
        )
        assert result.returncode == 0
        stdout.append(result.stdout)
        stderr.append(result.stderr)
    return stdout, stderr


SMALL_CONFIG = """
dots:
  - {n_spins: 30, n_cells: 1500000, a_total_uev: 83.0, l_perp_nm: 20.0, l_z_nm: 2.0, seed: 1}
  - {n_spins: 30, n_cells: 1500000, a_total_uev: 83.0, l_perp_nm: 20.0, l_z_nm: 2.0, seed: 2}
grid:
  t_max_ns: 60.0
  t_steps: 500
  horizon_ns: 60.0
"""


@pytest.fixture
def small_config_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(SMALL_CONFIG)
    return str(path)


class TestConfig:
    def test_defaults_encode_gaas_setup(self):
        config = default_config()
        a0 = {i.name: i.a0_uev for i in config.material.isotopes}
        abundance = {i.name: i.abundance for i in config.material.isotopes}
        assert a0 == {"Ga69": 36.0, "Ga71": 46.0, "As75": 43.0}
        assert abundance == {"Ga69": 0.604, "Ga71": 0.396, "As75": 1.0}
        assert config.material.g_factor == -0.44
        for dot in config.dots:
            assert dot.a_total_uev == 83.0
            assert dot.n_spins == 50
            assert dot.n_cells == 1_500_000
            assert dot.l_perp_nm == 20.0
            assert dot.l_z_nm == 2.0
        assert config.grid.t_steps == 2000
        assert config.grid.t_max_ns == 100.0

    def test_roundtrip_file(self, small_config_file):
        config = load_config(small_config_file)
        assert config.dots[0].n_spins == 30
        assert config.grid.t_steps == 500
        config.validate()

    def test_material_block_defaults_isotopes(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("material: {g_factor: -2.0}\n")
        config = load_config(str(path))
        assert config.material.g_factor == -2.0
        assert config.material.isotopes == GAAS.isotopes
        code, out, _ = run_cli("--config", str(path), "channel", "--b-mt", "20")
        assert code == 0
        assert out.startswith("t_ns,q,re_phi,im_phi")

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("dots: {not: a list}\n")
        with pytest.raises(ConfigError):
            load_config(str(path))
        path.write_text("grid: {t_steps: 1}\n")
        with pytest.raises(ConfigError):
            load_config(str(path))
        path.write_text("unknown_section: 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            "grid: {t_stesp: 50}\n",
            "material:\n"
            "  isotopes:\n"
            "    - {name: Ga69, a0_uev: 36.0, abundance: 0.604, sublattice: Ga}\n"
            "    - {name: Ga71, a0_uev: 46.0, abundance: 0.396, sublattice: Ga}\n"
            "    - {name: As75, a0_uev: 43.0, abundance: 1.0, sublattice: As}\n"
            "  g_factr: -2.0\n",
            "material:\n"
            "  isotopes:\n"
            "    - {name: Ga69, a0_uev: 36.0, abundance: 0.604, sublattice: Ga}\n"
            "    - {name: Ga71, a0_uev: 46.0, abundance: 0.396, sublattice: Ga, spn: 2}\n"
            "    - {name: As75, a0_uev: 43.0, abundance: 1.0, sublattice: As}\n",
            "grid: 5\n",
            "dots:\n  - {n_spins: 4097}\n  - {n_spins: 50}\n",
            "dots:\n  - {n_spins: 30.9}\n  - {n_spins: 30}\n",
            "dots:\n  - {n_spins: true}\n  - {n_spins: 30}\n",
            "dots:\n  - {n_cells: 1500000.5}\n  - {}\n",
            "dots:\n  - {seed: 1.5}\n  - {}\n",
            "grid: {t_steps: 200.7}\n",
            "material:\n"
            "  isotopes:\n"
            "    - {name: Ga69, a0_uev: 36.0, abundance: 0.604, sublattice: Ga}\n"
            "    - {name: Ga71, a0_uev: 46.0, abundance: 0.396, sublattice: Ga}\n"
            "    - {name: As75, a0_uev: 43.0, abundance: 1.0, sublattice: As, spin: 4.5}\n",
            "dots:\n  - {a_total_uev: .nan}\n  - {}\n",
            "grid: {t_max_ns: .inf}\n",
            "grid: {horizon_ns: .nan}\n",
            "material: {g_factor: .nan}\n",
            "material: {cell_volume_nm3: .inf}\n",
            "material:\n"
            "  isotopes:\n"
            "    - {name: Ga69, a0_uev: 36.0, abundance: 0.604, sublattice: Ga}\n"
            "    - {name: Ga71, a0_uev: .nan, abundance: 0.396, sublattice: Ga}\n"
            "    - {name: As75, a0_uev: 43.0, abundance: 1.0, sublattice: As}\n",
            "dots:\n  - {l_perp_nm: .nan}\n  - {}\n",
            "dots:\n  - {}\n  - {l_perp_nm: -20.0}\n",
            "dots:\n  - {l_z_nm: 0.0}\n  - {}\n",
        ],
        ids=[
            "grid-key",
            "material-key",
            "isotope-key",
            "grid-not-mapping",
            "n-spins-bound",
            "n-spins-fraction",
            "n-spins-bool",
            "n-cells-fraction",
            "seed-fraction",
            "t-steps-fraction",
            "isotope-spin",
            "a-total-nan",
            "t-max-inf",
            "horizon-nan",
            "g-factor-nan",
            "cell-volume-inf",
            "isotope-a0-nan",
            "l-perp-nan",
            "l-perp-negative",
            "l-z-zero",
        ],
    )
    def test_rejected_before_computing(self, tmp_path, monkeypatch, text):
        def refuse(*args, **kwargs):
            raise AssertionError("computed a channel for a rejected config")

        monkeypatch.setattr("dotesd.cli.compute_channel", refuse)
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        code, out, err = run_cli("--config", str(path), "channel", "--b-mt", "0")
        assert code == 2
        assert out == ""
        assert "config error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("channel", "--b-mt", "nan"),
            ("concurrence", "--b-mt", "inf"),
            ("sweep", "--b-min-mt", "nan", "--b-steps", "2"),
            ("sweep", "--b-max-mt=-inf"),
        ],
        ids=["channel-nan", "concurrence-inf", "sweep-min-nan", "sweep-max-inf"],
    )
    def test_non_finite_field_flag_rejected(self, capsys, argv):
        code, out, _ = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert "must be finite" in capsys.readouterr().err

    def test_inconsistent_a_total_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "dots:\n"
            "  - {a_total_uev: 50.0}\n"
            "  - {a_total_uev: 50.0}\n"
        )
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestChannelCommand:
    def test_default_rows(self, small_config_file):
        code, out, _ = run_cli("--config", small_config_file, "channel", "--b-mt", "0")
        assert code == 0
        header, rows = parse_table(out)
        assert header == ["t_ns", "q", "re_phi", "im_phi"]
        assert rows.shape == (500, 4)
        assert rows[0, 0] == 0.0
        assert rows[0, 1] == 0.0
        assert rows[0, 2] == pytest.approx(1.0, abs=1e-12)
        assert rows[0, 3] == 0.0

    def test_default_config_has_2000_rows(self):
        code, out, _ = run_cli("channel", "--b-mt", "0")
        assert code == 0
        _, rows = parse_table(out)
        assert rows.shape[0] == 2000

    def test_malformed_config_exit_code(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("dots: [::bad\n")
        code, out, err = run_cli("--config", str(path), "channel", "--b-mt", "0")
        assert code == 2
        assert out == ""
        assert "config error" in err


class TestConcurrenceCommand:
    def test_initial_row(self, small_config_file):
        code, out, _ = run_cli(
            "--config", small_config_file, "concurrence", "--bell", "psi-plus", "--b-mt", "16.5"
        )
        assert code == 0
        header, rows = parse_table(out)
        assert header == ["t_ns", "concurrence", "witness"]
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert rows[0, 2] == pytest.approx(-0.5, abs=1e-12)

    def test_labels_agree_for_identical_dots(self, small_config_file):
        tables = []
        for label in ("psi-plus", "phi-minus"):
            _, out, _ = run_cli(
                "--config", small_config_file, "concurrence", "--bell", label, "--b-mt", "11"
            )
            tables.append(parse_table(out)[1])
        np.testing.assert_allclose(tables[0][:, 1], tables[1][:, 1], atol=1e-12)

    def test_unknown_label_is_config_error(self, small_config_file):
        code, _, err = run_cli(
            "--config", small_config_file, "concurrence", "--bell", "sigma-plus"
        )
        assert code == 2
        assert "Bell label" in err

    def test_yaml_bell_key_and_override(self, tmp_path):
        path = tmp_path / "phi.yaml"
        path.write_text(SMALL_CONFIG + "bell: phi-plus\n")
        args = ("--config", str(path))
        _, channel, _ = run_cli(*args, "channel", "--b-mt", "20")
        _, q, re_phi, im_phi = parse_table(channel)[1].T
        phi = re_phi + 1j * im_phi
        cross = 2.0 * q * (1.0 - q)
        code, out, _ = run_cli(*args, "concurrence", "--b-mt", "20")
        assert code == 0
        witness = parse_table(out)[1][:, 2]
        np.testing.assert_allclose(witness, 0.5 * (cross - np.real(phi * phi)), rtol=0, atol=1e-12)
        _, out, _ = run_cli(*args, "concurrence", "--b-mt", "20", "--bell", "psi-plus")
        witness = parse_table(out)[1][:, 2]
        np.testing.assert_allclose(witness, 0.5 * (cross - np.abs(phi) ** 2), rtol=0, atol=1e-12)

    def test_unknown_yaml_label_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_CONFIG + "bell: sigma-plus\n")
        for command in ("concurrence", "channel"):
            code, out, err = run_cli("--config", str(path), command, "--b-mt", "20")
            assert code == 2
            assert out == ""
            assert "Bell label" in err

    def test_high_field_flag(self, small_config_file):
        code, out, _ = run_cli(
            "--config", small_config_file, "concurrence", "--high-field"
        )
        assert code == 0
        _, rows = parse_table(out)
        assert np.all(rows[:, 1] > 0)


class TestSweepCommand:
    def test_small_sweep(self, small_config_file):
        code, out, _ = run_cli(
            "--config", small_config_file, "sweep",
            "--b-min-mt", "5", "--b-max-mt", "20", "--b-steps", "4",
        )
        assert code == 0
        header, rows = parse_table(out)
        assert header == ["b_t", "t_sd_ns", "witness_zero_ns", "revivals", "max_leak"]
        assert rows.shape == (4, 5)
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert np.all(np.isfinite(rows[:, 1]))
        np.testing.assert_allclose(rows[:, 1], rows[:, 2], atol=1e-3)

    def test_workers_flag_same_output(self, small_config_file):
        args = (
            "--config", small_config_file, "sweep",
            "--b-min-mt", "8", "--b-max-mt", "12", "--b-steps", "3",
        )
        _, serial, _ = run_cli(*args)
        _, parallel, _ = run_cli(*args, "--workers", "2")
        assert serial == parallel

    def test_bad_step_count_is_config_error(self, small_config_file):
        args = ("--config", small_config_file, "sweep", "--b-min-mt", "8", "--b-max-mt", "12")
        for steps in ("0", "-3"):
            code, out, err = run_cli(*args, "--b-steps", steps)
            assert code == 2
            assert out == ""
            assert "--b-steps" in err

    def test_output_independent_of_blas_threads(self, small_config_file):
        stdout, _ = run_per_blas_threads(
            "--config", small_config_file, "sweep",
            "--b-min-mt", "8", "--b-max-mt", "16", "--b-steps", "3",
        )
        assert stdout[0] == stdout[1]

    def test_absent_death_serialized_as_nan(self, tmp_path):
        # a short horizon leaves entanglement alive at every field
        path = tmp_path / "short.yaml"
        path.write_text(
            "grid: {t_max_ns: 2.0, t_steps: 200, horizon_ns: 2.0}\n"
            "dots:\n"
            "  - {n_spins: 30}\n"
            "  - {n_spins: 30}\n"
        )
        code, out, _ = run_cli(
            "--config", str(path), "sweep", "--b-min-mt", "0", "--b-max-mt", "10", "--b-steps", "2"
        )
        assert code == 0
        _, rows = parse_table(out)
        assert np.all(np.isnan(rows[:, 1]))
        assert np.all(np.isnan(rows[:, 2]))


class TestDephasingCommand:
    def test_realistic_output_independent_of_blas_threads(self, tmp_path):
        # 20,000 cells: the largest couplings pass the series limit on this grid
        path = tmp_path / "small_dot.yaml"
        path.write_text(SMALL_CONFIG.replace("n_cells: 1500000", "n_cells: 20000"))
        stdout, stderr = run_per_blas_threads(
            "--config", str(path), "dephasing", "--mode", "realistic"
        )
        assert stdout[0] == stdout[1]
        assert stderr[0] == stderr[1]
        assert b"t2_star_ns=" in stderr[0]

    def test_uniform_summary(self, small_config_file):
        code, out, err = run_cli("--config", small_config_file, "dephasing", "--mode", "uniform")
        assert code == 0
        header, rows = parse_table(out)
        assert header == ["t_ns", "abs_phi", "phase_phi"]
        assert "rms_residual=" in err
        t2 = float(err.split("t2_star_ns=")[1].split()[0])
        assert t2 == pytest.approx(12.285, rel=0.02)

    def test_realistic_deterministic(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(
            "dots:\n"
            "  - {n_spins: 30, n_cells: 3000, seed: 5}\n"
            "  - {n_spins: 30, n_cells: 3000, seed: 5}\n"
            "grid: {t_max_ns: 1.0, t_steps: 300, horizon_ns: 1.0}\n"
        )
        _, out_a, _ = run_cli("--config", str(path), "dephasing", "--mode", "realistic")
        _, out_b, _ = run_cli("--config", str(path), "dephasing", "--mode", "realistic")
        assert out_a == out_b


class TestRoundTrip:
    def test_seventeen_digits_lossless(self):
        rng = np.random.default_rng(7)
        values = np.concatenate(
            [rng.uniform(-1, 1, 50), rng.uniform(0, 100, 50), [0.0, 1.0, math.pi]]
        )
        for v in values:
            assert float(f"{v:.17g}") == v

    def test_emitted_table_reparses_exactly(self, small_config_file):
        _, out, _ = run_cli("--config", small_config_file, "channel", "--b-mt", "16.5")
        _, rows = parse_table(out)
        lines = out.strip().splitlines()[1:]
        for i, ln in enumerate(lines):
            for j, tok in enumerate(ln.split(",")):
                assert float(tok) == rows[i, j]


def test_import_leaves_scipy_fft_unloaded():
    # dotesd does not use scipy at all: importing every module loads none of it.
    code = (
        "import importlib, pkgutil, sys, dotesd\n"
        "for mod in pkgutil.iter_modules(dotesd.__path__):\n"
        "    importlib.import_module('dotesd.' + mod.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=600,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "[]"


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "dotesd.cli", "channel", "--b-mt", "0"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("t_ns,q,re_phi,im_phi")


def test_closed_stdout_ends_quietly():
    # The 2,000-row table is larger than the pipe buffer, so the writer is
    # still printing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "dotesd.cli", "channel", "--b-mt", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert proc.stdout.readline().startswith(b"t_ns,q,re_phi,im_phi")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=600) == 0
    assert err == b""

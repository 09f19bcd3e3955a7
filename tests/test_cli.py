import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import dinsat
from dinsat import envi
from dinsat.artifacts import (
    read_model,
    read_normalization,
    write_model,
    write_normalization,
    write_spectrum_csv,
)
from dinsat.cli import main
from dinsat.correction import SceneNormalization, estimate_normalization
from dinsat.envi import read_envi, write_envi_array
from dinsat.ode import SolverConfig
from dinsat.synth import SynthSpec, synth_scene
from dinsat.transmission import LinearProfile
from dinsat.types import Spectrum, WavelengthGrid

SPEC_TEXT = """
rows = 12
cols = 12
bands = 16
baseline_alpha = 0.25
absorption = 1200:300:0.8
dark_level = 0.02
noise_std = 0.0
"""

CONFIG_TEXT = """
mode = supervised
model_kind = linear
max_epochs = 60
patience = 20
solver_method = rk4
solver_steps = 8
seed = 1
"""


@pytest.fixture()
def runner():
    return CliRunner()


def make_scene(tmp_path, runner, seed=3):
    tmp_path.mkdir(parents=True, exist_ok=True)
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(SPEC_TEXT)
    out = tmp_path / "scene"
    result = runner.invoke(main, ["synth", "--spec", str(spec_file), "--seed", str(seed), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


def make_roi(tmp_path, n_pixels=12, seed=3):
    """ROI referencing per-pixel truth reflectance from the same scene spec."""
    spec = SynthSpec(rows=12, cols=12, n_bands=16, baseline_alpha=0.25,
                     absorption_bands=((1200.0, 300.0, 0.8),), dark_level=0.02,
                     noise_std=0.0)
    _, truth = synth_scene(spec, seed=seed)
    rng = np.random.default_rng(0)
    picks = rng.choice(12 * 12, size=n_pixels, replace=False)
    lines = ["region_name,row,col,reference_csv_path"]
    for i, flat in enumerate(picks):
        r, c = divmod(int(flat), 12)
        ref = tmp_path / f"ref_{i}.csv"
        write_spectrum_csv(ref, truth.grid, Spectrum(truth.rho[r, c], "reflectance"))
        lines.append(f"px{i},{r},{c},{ref.name}")
    roi = tmp_path / "roi.csv"
    roi.write_text("\n".join(lines) + "\n")
    return roi, truth


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; importing it at runtime would also
    # cost every CLI process a few hundred milliseconds of start-up.
    src = str(Path(dinsat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, dinsat.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestSynthCommand:
    def test_outputs_exist(self, tmp_path, runner):
        out = make_scene(tmp_path, runner)
        assert (out / "scene.hdr").exists()
        assert (out / "scene.img").exists()
        assert (out / "truth.csv").exists()
        cube = read_envi(out / "scene.hdr")
        assert (cube.rows, cube.cols, cube.n_bands) == (12, 12, 16)

    def test_deterministic(self, tmp_path, runner):
        a = make_scene(tmp_path / "a", runner)
        b = make_scene(tmp_path / "b", runner)
        assert (a / "scene.img").read_bytes() == (b / "scene.img").read_bytes()
        assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()

    def test_bad_spec_key_is_config_error(self, tmp_path, runner):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text("rowz = 4\n")
        result = runner.invoke(main, ["synth", "--spec", str(spec_file), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output.startswith("config-error:")


class TestTrainCommand:
    def test_supervised_end_to_end(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        roi, _ = make_roi(tmp_path)
        config = tmp_path / "train.txt"
        config.write_text(CONFIG_TEXT)
        out = tmp_path / "run"
        result = runner.invoke(main, [
            "train", "--cube", str(scene / "scene.hdr"), "--roi", str(roi),
            "--config", str(config), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert (out / "norm.json").exists()
        model, solver, grid = read_model(out / "model_000.json")
        assert model.n_bands == 16
        assert (solver.method, solver.steps) == ("rk4", 8)
        assert (out / "run_000.json").exists()

    def test_fixed_seed_byte_identical_models(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        roi, _ = make_roi(tmp_path)
        config = tmp_path / "train.txt"
        config.write_text(CONFIG_TEXT)
        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            result = runner.invoke(main, [
                "train", "--cube", str(scene / "scene.hdr"), "--roi", str(roi),
                "--config", str(config), "--ensemble", "1", "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            outputs.append((out / "model_000.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_two_cube_normalization_matches_stacked_pixels(self, tmp_path, runner):
        scenes = [make_scene(tmp_path / name, runner, seed) for name, seed in (("a", 3), ("b", 4))]
        config = tmp_path / "train.txt"
        config.write_text("mode = unsupervised\nmax_epochs = 2\n")
        out = tmp_path / "run"
        result = runner.invoke(main, [
            "train", "--cube", str(scenes[0] / "scene.hdr"), "--cube", str(scenes[1] / "scene.hdr"),
            "--config", str(config), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        cubes = [read_envi(s / "scene.hdr") for s in scenes]
        stacked = np.concatenate([c.data.reshape(-1, c.n_bands) for c in cubes])
        c_ref = stacked.min(axis=0)
        norm = read_normalization(out / "norm.json")
        np.testing.assert_array_equal(norm.c, c_ref)
        assert norm.m == float((stacked - c_ref).max())

    def test_roi_without_references_is_invalid_dataset(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        roi = tmp_path / "roi.csv"
        roi.write_text("region_name,row,col\nfield,0,0\nfield,1,1\nwater,5,7\n")
        result = runner.invoke(main, [
            "train", "--cube", str(scene / "scene.hdr"), "--mode", "supervised",
            "--roi", str(roi), "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 3
        assert result.output == "invalid-dataset-error: no ROI pixels carry reference spectra\n"

    def test_supervised_without_roi_is_config_error(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        result = runner.invoke(main, [
            "train", "--cube", str(scene / "scene.hdr"), "--mode", "supervised",
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2

    def test_corrupt_cube_is_data_error(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        img = scene / "scene.img"
        img.write_bytes(img.read_bytes()[:-8])
        result = runner.invoke(main, [
            "train", "--cube", str(scene / "scene.hdr"), "--mode", "unsupervised",
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 3
        assert result.output.startswith("corrupt-file-error:")


class TestCorrectCommand:
    def test_identity_model_reproduces_normalized_radiance(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        cube = read_envi(scene / "scene.hdr")
        model_path = tmp_path / "identity.json"
        write_model(model_path, LinearProfile(np.full(16, -40.0)), SolverConfig("rk4", 8))
        out = tmp_path / "corr"
        result = runner.invoke(main, [
            "correct", "--cube", str(scene / "scene.hdr"),
            "--model", str(model_path), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        corrected = read_envi(out / "corrected.hdr")
        norm = estimate_normalization(cube.data)
        expected = (cube.data - norm.c) / norm.m
        np.testing.assert_allclose(corrected.data, expected, atol=1e-6)
        mask = read_envi(out / "quality_mask.hdr")
        assert mask.data.shape == cube.data.shape

    def test_band_mismatch_is_data_error(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        model_path = tmp_path / "wrong.json"
        write_model(model_path, LinearProfile(np.full(5, -40.0)))
        result = runner.invoke(main, [
            "correct", "--cube", str(scene / "scene.hdr"),
            "--model", str(model_path), "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 3

    def test_divergent_model_is_numeric_error(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        model_path = tmp_path / "bad.json"
        # Forward integration of this rate overflows to inf mid-solve.
        write_model(model_path, LinearProfile(np.full(16, 1e8)), SolverConfig("rk4", 16))
        result = runner.invoke(main, [
            "correct", "--cube", str(scene / "scene.hdr"),
            "--model", str(model_path), "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 4
        assert result.output.startswith("numeric-error:")

    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
    def test_non_finite_radiance_leaves_no_images(self, tmp_path, runner, monkeypatch, bad):
        data = np.full((5, 4, 3), 0.5)
        data[4, 2, 1] = bad  # met after the first four one-row blocks were written
        write_envi_array(data, tmp_path / "c.hdr", wavelengths_nm=[500.0, 600.0, 700.0], data_type=5)
        write_model(tmp_path / "m.json", LinearProfile(np.full(3, -2.0)))
        write_normalization(tmp_path / "norm.json", SceneNormalization(np.zeros(3), 1.0))
        monkeypatch.setattr(envi, "BLOCK_BYTES", 4 * 3 * 8)
        written = []
        write_rows = envi.EnviWriter.write_rows
        monkeypatch.setattr(envi.EnviWriter, "write_rows",
                            lambda self, r0, block: written.append(r0) or write_rows(self, r0, block))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "correct", "--cube", str(tmp_path / "c.hdr"), "--model", str(tmp_path / "m.json"),
            "--norm", str(tmp_path / "norm.json"), "--out", str(out),
        ])
        assert result.exit_code == 3
        assert result.output.startswith("shape-error:")
        assert sorted(set(written)) == [0, 1, 2, 3]
        assert not (out / "corrected.img").exists() and not (out / "quality_mask.img").exists()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
    def test_peak_memory_is_a_fraction_of_the_cube(self, tmp_path):
        rows, cols, bands = 256, 256, 126  # 66 MB of float64
        data = np.random.default_rng(0).uniform(0.01, 1.0, (rows, cols, bands))
        write_envi_array(data, tmp_path / "c.hdr", wavelengths_nm=np.linspace(450, 2500, bands),
                         data_type=5)
        cube_bytes = data.nbytes
        del data
        write_model(tmp_path / "m.json", LinearProfile(np.full(bands, -2.0)))
        # A fresh interpreter per measurement: a forked child's ru_maxrss would
        # start from this process's high-water mark.
        code = (
            "import sys, dinsat.cli\n"
            "if sys.argv[1:]:\n"
            "    try:\n"
            "        dinsat.cli.main(sys.argv[1:], prog_name='dinsat')\n"
            "    except SystemExit as e:\n"
            "        assert not e.code, e.code\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
            "print(int(status.split()[0]) * 1024)\n"
        )
        src = str(Path(dinsat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

        def peak(*args):
            proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            return int(proc.stdout.split()[-1])

        baseline = peak()
        used = peak("correct", "--cube", str(tmp_path / "c.hdr"), "--model", str(tmp_path / "m.json"),
                    "--out", str(tmp_path / "out"))
        assert (tmp_path / "out" / "corrected.img").stat().st_size == cube_bytes // 2
        assert used - baseline < cube_bytes / 2, (used - baseline) / 1e6


class TestSimulateAndEval:
    def test_simulate_round_trips_identity(self, tmp_path, runner):
        grid_path = tmp_path / "rho.csv"
        spec = SynthSpec(rows=4, cols=4, n_bands=16)
        _, truth = synth_scene(spec, seed=0)
        rho = Spectrum(truth.rho[2, 2], "reflectance")
        write_spectrum_csv(grid_path, truth.grid, rho)
        model_path = tmp_path / "identity.json"
        write_model(model_path, LinearProfile(np.full(16, -40.0)), SolverConfig("rk4", 8))
        out = tmp_path / "l4.csv"
        result = runner.invoke(main, [
            "simulate", "--spectrum", str(grid_path),
            "--model", str(model_path), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        from dinsat.artifacts import read_spectrum_csv

        _, l4 = read_spectrum_csv(out, "radiance")
        np.testing.assert_allclose(l4.values, rho.values, atol=1e-12)

    def test_eval_schema_and_end_to_end_quality(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        roi, _ = make_roi(tmp_path)
        config = tmp_path / "train.txt"
        config.write_text(CONFIG_TEXT.replace("max_epochs = 60", "max_epochs = 800"))
        run_dir = tmp_path / "run"
        result = runner.invoke(main, [
            "train", "--cube", str(scene / "scene.hdr"), "--roi", str(roi),
            "--config", str(config), "--out", str(run_dir),
        ])
        assert result.exit_code == 0, result.output
        out = tmp_path / "metrics.csv"
        result = runner.invoke(main, [
            "eval", "--model", str(run_dir / "model_000.json"),
            "--cube", str(scene / "scene.hdr"), "--roi", str(roi),
            "--norm", str(run_dir / "norm.json"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "region,metric,value"
        values = []
        for line in lines[1:]:
            region, metric, value = line.split(",")
            assert metric == "reflectance_percent_mse"
            values.append(float(value))
        assert values and all(np.isfinite(v) for v in values)
        # Trained on noise-free truth spectra the per-pixel fit must be good.
        assert float(np.median(values)) < 1.0


    def test_eval_reference_band_mismatch_is_data_error(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        model = tmp_path / "model.json"
        write_model(model, LinearProfile(np.zeros(16)), SolverConfig("rk4", 8), None)
        ref = tmp_path / "ref.csv"
        write_spectrum_csv(ref, WavelengthGrid.linear(8), Spectrum(np.full(8, 0.5), "reflectance"))
        roi = tmp_path / "roi.csv"
        roi.write_text(f"field,0,0,{ref}\nfield,1,1,{ref}\n")
        result = runner.invoke(main, [
            "eval", "--model", str(model), "--cube", str(scene / "scene.hdr"),
            "--roi", str(roi), "--out", str(tmp_path / "metrics.csv"),
        ])
        assert result.exit_code == 3
        assert result.output.startswith("invalid-dataset-error: reference spectrum for region 'field' has 8")
        assert not (tmp_path / "metrics.csv").exists()


class TestReportCommand:
    def test_report_schemas(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        roi, _ = make_roi(tmp_path)
        config = tmp_path / "train.txt"
        config.write_text(CONFIG_TEXT)
        run_dir = tmp_path / "run"
        result = runner.invoke(main, [
            "train", "--cube", str(scene / "scene.hdr"), "--roi", str(roi),
            "--config", str(config), "--ensemble", "2", "--out", str(run_dir),
        ])
        assert result.exit_code == 0, result.output
        out = tmp_path / "report"
        result = runner.invoke(main, ["report", "--runs", str(run_dir), "--out", str(out)])
        assert result.exit_code == 0, result.output
        stats = (out / "transmittance_stats.csv").read_text().splitlines()
        assert stats[0] == "band,wavelength_nm,mean,std"
        assert len(stats) == 17
        curves = (out / "loss_curves.csv").read_text().splitlines()
        assert curves[0] == "run,epoch,train_loss,val_loss"
        spectra = (out / "roi_spectra.csv").read_text().splitlines()
        assert spectra[0] == "run,band,wavelength_nm,reflectance"

    def test_empty_dir_is_data_error(self, tmp_path, runner):
        (tmp_path / "empty").mkdir()
        result = runner.invoke(main, [
            "report", "--runs", str(tmp_path / "empty"), "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 3

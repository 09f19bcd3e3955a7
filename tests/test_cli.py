import json
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
from dinsat.cli import _synth_spec_from_file, _train_config_from_file, main
from dinsat.correction import SceneNormalization, estimate_normalization
from dinsat.envi import read_envi, write_envi_array
from dinsat.errors import ConfigError
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


# -- malformed inputs: one "<category>: <detail>" line, never a traceback ------

def _linear_model_doc(n_bands):
    return {
        "format": "dinsat-model", "version": 1, "kind": "linear", "n_bands": n_bands,
        "solver": {"method": "rk4", "steps": 4, "x0": 0.0, "x_end": 1.0},
        "wavelengths_nm": None, "params": [-2.0] * n_bands,
    }


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A valid 4x4x8 scene, model, norm, spectrum and ROI, plus one broken file per case."""
    d = tmp_path_factory.mktemp("bad_inputs")
    cube, _ = synth_scene(SynthSpec(rows=4, cols=4, n_bands=8), seed=0)
    envi.write_envi(cube, d / "scene.hdr", data_type=5)
    header = (d / "scene.hdr").read_text()
    for name, old, new in (("byte_order", "byte order = 0", "byte order = x"),
                           ("offset", "header offset = 0", "header offset = z")):
        (d / f"{name}.hdr").write_text(header.replace(old, new))
        (d / f"{name}.img").write_bytes((d / "scene.img").read_bytes())
    write_spectrum_csv(d / "spectrum.csv", cube.grid, Spectrum(np.full(8, 0.5), "reflectance"))
    (d / "roi.csv").write_text("field,0,0\nfield,1,1\n")
    write_normalization(d / "norm5.json", SceneNormalization(np.zeros(5), 1.0))
    (d / "norm_no_m.json").write_text(json.dumps({"c": [0.0] * 8}))
    (d / "norm_m_0.json").write_text(json.dumps({"c": [0.0] * 8, "m": 0.0}))
    (d / "norm_neg_c.json").write_text(json.dumps({"c": [-0.1] + [0.0] * 7, "m": 1.0}))
    valid = _linear_model_doc(8)
    models = {
        "model8": valid, "model5": _linear_model_doc(5),
        "no_solver": {k: v for k, v in valid.items() if k != "solver"},
        "no_params": {k: v for k, v in valid.items() if k != "params"},
        "solver_key": {**valid, "solver": {"method": "rk4", "steps": 4, "speed": 1}},
        "string_params": {**valid, "params": ["a"] * 8}, "n_bands_5": {**valid, "n_bands": 5},
        "solver_foo": {**valid, "solver": {**valid["solver"], "method": "foo"}},
        "steps_0": {**valid, "solver": {**valid["solver"], "steps": 0}},
        "nan_params": {**valid, "params": [float("nan")] + [-2.0] * 7},
    }
    for name, doc in models.items():
        (d / f"{name}.json").write_text(json.dumps(doc))
    (d / "runs").mkdir()
    (d / "runs" / "run_000.json").write_text(json.dumps({"transmittance": None}))
    # Per-band vectors of 8 and 5 values: across two records, and against 8 model wavelengths.
    for name, sizes in (("runs_lengths", (8, 5)), ("runs_wavelengths", (5,))):
        (d / name).mkdir()
        for i, n in enumerate(sizes):
            record = {"history": [], "transmittance": [0.5] * n, "roi_reflectance": [0.2] * n}
            (d / name / f"run_{i:03d}.json").write_text(json.dumps(record))
    (d / "runs_wavelengths" / "model_000.json").write_text(
        json.dumps({**valid, "wavelengths_nm": [float(w) for w in cube.grid.wavelengths_nm]})
    )
    for name, text in (("epochs_abc", "max_epochs = abc\n"), ("split_abc", "split_fractions = a/b/c\n"),
                       ("rows_x", "rows = x\n"),
                       ("split_small", "mode = unsupervised\nmax_epochs = 2\nsplit_fractions = 0.5/0.1/0.4\n")):
        (d / f"{name}.txt").write_text(text)
    return d


BAD_INPUT_CASES = [
    ("train-max-epochs-abc", "train --cube {d}/scene.hdr --mode unsupervised --config {d}/epochs_abc.txt --out {o}",
     2, "config-error"),
    ("train-split-fractions-abc", "train --cube {d}/scene.hdr --mode unsupervised --config {d}/split_abc.txt --out {o}",
     2, "config-error"),
    ("synth-rows-x", "synth --spec {d}/rows_x.txt --out {o}", 2, "config-error"),
    ("train-negative-seed", "train --cube {d}/scene.hdr --mode unsupervised --seed -1 --out {o}", 2, "config-error"),
    ("synth-negative-seed", "synth --seed -1 --out {o}", 2, "config-error"),
    ("train-every-member-fails", "train --cube {d}/scene.hdr --config {d}/split_small.txt --out {o}",
     2, "config-error"),
    ("correct-norm-bands", "correct --cube {d}/scene.hdr --model {d}/model8.json --norm {d}/norm5.json --out {o}",
     3, "invalid-dataset-error"),
    ("eval-norm-bands", "eval --model {d}/model8.json --cube {d}/scene.hdr --roi {d}/roi.csv "
     "--norm {d}/norm5.json --out {o}.csv", 3, "invalid-dataset-error"),
    ("simulate-norm-bands", "simulate --spectrum {d}/spectrum.csv --model {d}/model8.json "
     "--norm {d}/norm5.json --out {o}.csv", 3, "invalid-dataset-error"),
    ("eval-model-bands", "eval --model {d}/model5.json --cube {d}/scene.hdr --roi {d}/roi.csv --out {o}.csv",
     3, "invalid-dataset-error"),
    ("model-without-solver", "correct --cube {d}/scene.hdr --model {d}/no_solver.json --out {o}", 3, "parse-error"),
    ("model-without-params", "correct --cube {d}/scene.hdr --model {d}/no_params.json --out {o}", 3, "parse-error"),
    ("model-unknown-solver-key", "correct --cube {d}/scene.hdr --model {d}/solver_key.json --out {o}",
     3, "parse-error"),
    ("model-string-params", "correct --cube {d}/scene.hdr --model {d}/string_params.json --out {o}",
     3, "parse-error"),
    ("model-n-bands-disagrees", "correct --cube {d}/scene.hdr --model {d}/n_bands_5.json --out {o}",
     3, "parse-error"),
    ("norm-without-m", "correct --cube {d}/scene.hdr --model {d}/model8.json --norm {d}/norm_no_m.json --out {o}",
     3, "parse-error"),
    ("model-solver-method-foo", "correct --cube {d}/scene.hdr --model {d}/solver_foo.json --out {o}",
     3, "parse-error"),
    ("model-solver-steps-0", "correct --cube {d}/scene.hdr --model {d}/steps_0.json --out {o}", 3, "parse-error"),
    ("model-nan-params", "correct --cube {d}/scene.hdr --model {d}/nan_params.json --out {o}", 3, "parse-error"),
    ("norm-m-0", "correct --cube {d}/scene.hdr --model {d}/model8.json --norm {d}/norm_m_0.json --out {o}",
     3, "parse-error"),
    ("norm-negative-c", "correct --cube {d}/scene.hdr --model {d}/model8.json --norm {d}/norm_neg_c.json --out {o}",
     3, "parse-error"),
    ("report-without-history", "report --runs {d}/runs --out {o}", 3, "parse-error"),
    ("report-record-lengths-differ", "report --runs {d}/runs_lengths --out {o}", 3, "invalid-dataset-error"),
    ("report-record-vs-model-wavelengths", "report --runs {d}/runs_wavelengths --out {o}",
     3, "invalid-dataset-error"),
    ("header-byte-order-x", "correct --cube {d}/byte_order.hdr --model {d}/model8.json --out {o}", 3, "parse-error"),
    ("header-offset-z", "correct --cube {d}/offset.hdr --model {d}/model8.json --out {o}", 3, "parse-error"),
]


@pytest.mark.parametrize("argv,code,category", [c[1:] for c in BAD_INPUT_CASES],
                         ids=[c[0] for c in BAD_INPUT_CASES])
def test_malformed_input_exits_with_one_error_line(bad_inputs, tmp_path, argv, code, category):
    # A real process, so that an uncaught exception would show its traceback.
    src = str(Path(dinsat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    args = argv.format(d=bad_inputs, o=tmp_path / "out").split()
    proc = subprocess.run([sys.executable, "-m", "dinsat.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{category}: "), proc.stderr
    assert proc.returncode == code, proc.stderr


def test_ensemble_config_error_names_every_member(bad_inputs, runner, tmp_path):
    result = runner.invoke(main, [
        "train", "--cube", str(bad_inputs / "scene.hdr"), "--config", str(bad_inputs / "split_small.txt"),
        "--ensemble", "2", "--out", str(tmp_path / "o"),
    ])
    assert result.exit_code == 2
    assert result.stderr == (
        "config-error: all ensemble members failed: "
        "run 0: val fraction is positive but rounds to zero samples; "
        "run 1: val fraction is positive but rounds to zero samples\n"
    )


README_TRAIN_KEYS = {
    "mode": "unsupervised", "model_kind": "nonlinear", "lr": "0.02", "fd_weight": "0.5",
    "rho_weight": "0.2", "transmission_weight": "0.3", "slope_weight": "0.4", "max_epochs": "7",
    "patience": "3", "rel_tol": "0.001", "seed": "4", "hidden": "5", "latent": "2",
    "solver_method": "euler", "solver_steps": "6", "split_fractions": "0.5/0.2/0.3",
    "pixel_fraction": "0.01",
}
README_SYNTH_KEYS = {
    "rows": "3", "cols": "5", "bands": "9", "wl_start_nm": "500", "wl_end_nm": "2000",
    "baseline_alpha": "0.2", "absorption": "940:40:1.2;1380:60:2", "materials": "4",
    "dark_level": "0.01", "illumination": "1.5", "noise_std": "0.02",
}


def test_every_readme_config_key_is_accepted(tmp_path):
    path = tmp_path / "train.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in README_TRAIN_KEYS.items()))
    config, pixel_fraction = _train_config_from_file(str(path))
    assert (config.mode, config.model_kind, config.lr, config.fd_weight) == ("unsupervised", "nonlinear", 0.02, 0.5)
    assert (config.rho_weight, config.transmission_weight, config.slope_weight) == (0.2, 0.3, 0.4)
    assert (config.max_epochs, config.patience, config.rel_tol, config.seed) == (7, 3, 0.001, 4)
    assert (config.hidden, config.latent, config.split_fractions) == (5, 2, (0.5, 0.2, 0.3))
    assert config.solver == SolverConfig("euler", 6) and pixel_fraction == 0.01

    path = tmp_path / "spec.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in README_SYNTH_KEYS.items()))
    assert _synth_spec_from_file(str(path)) == SynthSpec(
        rows=3, cols=5, n_bands=9, wl_start_nm=500.0, wl_end_nm=2000.0, baseline_alpha=0.2,
        absorption_bands=((940.0, 40.0, 1.2), (1380.0, 60.0, 2.0)), n_materials=4,
        dark_level=0.01, illumination=1.5, noise_std=0.02,
    )


@pytest.mark.parametrize("command,line", [
    ("synth", "n_bands = 8"), ("synth", "n_materials = 3"), ("synth", "absorption_bands = 940:40:1"),
    ("train", "solver = rk4"),
])
def test_field_names_behind_an_alias_are_rejected(tmp_path, command, line):
    path = tmp_path / "config.txt"
    path.write_text(line + "\n")
    read = _synth_spec_from_file if command == "synth" else _train_config_from_file
    with pytest.raises(ConfigError, match="unknown .* key: '" + line.split()[0]):
        read(str(path))

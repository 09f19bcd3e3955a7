import json
import logging
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

import dinsat
from dinsat import cli, envi, training, transmission
from dinsat.artifacts import (
    read_model,
    read_normalization,
    write_model,
    write_normalization,
    write_spectrum_csv,
)
from dinsat.cli import _row_shares, _synth_spec_from_file, _train_config_from_file, main
from dinsat.correction import SceneNormalization, correct_batch, estimate_normalization
from dinsat.envi import write_envi_array
from dinsat.errors import ConfigError, NumericError
from dinsat.ode import SolverConfig
from dinsat.synth import SynthSpec, synth_scene
from dinsat.transmission import LinearProfile, NonlinearProfile
from dinsat.types import Spectrum, WavelengthGrid

from oracles import linear_profile, read_cube

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


def test_every_exported_name_resolves():
    # A name deleted from the package must leave __all__ too.
    assert [name for name in dinsat.__all__ if not hasattr(dinsat, name)] == []


class TestSynthCommand:
    def test_outputs_exist(self, tmp_path, runner):
        out = make_scene(tmp_path, runner)
        assert (out / "scene.hdr").exists()
        assert (out / "scene.img").exists()
        assert (out / "truth.csv").exists()
        cube = read_cube(out / "scene.hdr")
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
        cubes = [read_cube(s / "scene.hdr") for s in scenes]
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
        cube = read_cube(scene / "scene.hdr")
        model_path = tmp_path / "identity.json"
        write_model(model_path, LinearProfile(np.full(16, -40.0), SolverConfig("rk4", 8)))
        out = tmp_path / "corr"
        result = runner.invoke(main, [
            "correct", "--cube", str(scene / "scene.hdr"),
            "--model", str(model_path), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        corrected = read_cube(out / "corrected.hdr")
        norm = estimate_normalization(cube.data)
        expected = (cube.data - norm.c) / norm.m
        np.testing.assert_allclose(corrected.data, expected, atol=1e-6)
        mask = read_cube(out / "quality_mask.hdr")
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
        write_model(model_path, LinearProfile(np.full(16, 1e8), SolverConfig("rk4", 16)))
        result = runner.invoke(main, [
            "correct", "--cube", str(scene / "scene.hdr"),
            "--model", str(model_path), "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 4
        assert result.output.startswith("numeric-error:")

    def test_zero_transmittance_band_is_numeric_error_and_leaves_no_images(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        model_path = tmp_path / "euler.json"
        # Euler with alpha h = 1: T(1) is exactly 0 in bands 2 and 5.
        alpha = np.full(16, 0.5)
        alpha[[2, 5]] = 16.0
        write_model(model_path, replace(linear_profile(alpha), solver=SolverConfig("euler", 16)))
        out = tmp_path / "o"
        # A real process, so that a numpy warning would show on stderr.
        src = str(Path(dinsat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "dinsat.cli", "correct", "--cube", str(scene / "scene.hdr"),
                               "--model", str(model_path), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric-error: "), proc.stderr
        assert "band(s) 2, 5;" in lines[0]
        assert not [p.name for p in out.iterdir()]

    def test_reflectance_beyond_float32_is_numeric_error_and_leaves_no_images(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        model_path = tmp_path / "euler.json"
        # Euler with alpha one ulp from 16: T(1) is about 1e-255 in bands 3 and
        # 7, and the float64 reflectance there is beyond float32's range.
        alpha = np.full(16, 0.5)
        alpha[[3, 7]] = np.nextafter(16.0, 17.0), np.nextafter(16.0, 0.0)
        write_model(model_path, replace(linear_profile(alpha), solver=SolverConfig("euler", 16)))
        out = tmp_path / "o"
        # A real process, so that a numpy warning would show on stderr.
        src = str(Path(dinsat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "dinsat.cli", "correct", "--cube", str(scene / "scene.hdr"),
                               "--model", str(model_path), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric-error: "), proc.stderr
        assert lines[0].endswith("band(s) 3, 7")
        assert not [p.name for p in out.iterdir()]

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

    def test_failed_run_removes_an_earlier_runs_pair(self, tmp_path, runner):
        data = np.full((5, 4, 3), 0.5)
        write_envi_array(data, tmp_path / "c.hdr", wavelengths_nm=[500.0, 600.0, 700.0], data_type=5)
        data[2, 1, 0] = np.nan
        write_envi_array(data, tmp_path / "nan.hdr", wavelengths_nm=[500.0, 600.0, 700.0], data_type=5)
        write_model(tmp_path / "m.json", LinearProfile(np.full(3, -2.0)))
        # With --norm the NaN is met while the images are being written.
        write_normalization(tmp_path / "norm.json", SceneNormalization(np.zeros(3), 1.0))
        out = tmp_path / "out"
        argv = ["correct", "--model", str(tmp_path / "m.json"), "--norm", str(tmp_path / "norm.json"),
                "--out", str(out), "--cube"]
        assert runner.invoke(main, [*argv, str(tmp_path / "c.hdr")]).exit_code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "corrected.hdr", "corrected.img", "quality_mask.hdr", "quality_mask.img"]
        result = runner.invoke(main, [*argv, str(tmp_path / "nan.hdr")])
        assert result.exit_code == 3 and result.output.startswith("shape-error:"), result.output
        # No header is left behind without its data, which open_envi would reject.
        assert not [p.name for p in out.iterdir()]

    @staticmethod
    def calls_by_process(tmp_path, runner, monkeypatch, rows, n_cpus,
                         names=("ode_solve", "ode_solve_reverse")):
        """Nonlinear `correct` of a ``rows``-row cube on ``n_cpus`` CPUs: {pid: {name: calls}}.

        Counts the calls of the ``transmission`` functions ``names``. Each
        call is logged to a file, so the calls made in forked workers count too.
        """
        data = np.random.default_rng(5).uniform(0.1, 1.0, (rows, 4, 3))
        write_envi_array(data, tmp_path / "c.hdr", wavelengths_nm=[500.0, 600.0, 700.0], data_type=5)
        write_model(tmp_path / "m.json", NonlinearProfile.initialize(3, np.random.default_rng(6)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        log = tmp_path / "calls.log"
        for name in names:
            def counted(*args, _name=name, _inner=getattr(transmission, name)):
                with open(log, "a") as f:
                    f.write(f"{os.getpid()} {_name}\n")
                return _inner(*args)

            monkeypatch.setattr(transmission, name, counted)
        result = runner.invoke(main, ["correct", "--cube", str(tmp_path / "c.hdr"), "--model",
                                      str(tmp_path / "m.json"), "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        calls = {}
        for line in log.read_text().splitlines():
            pid, name = line.split()
            calls.setdefault(int(pid), dict.fromkeys(names, 0))[name] += 1
        return calls

    def test_nonlinear_t1_is_solved_once_per_command(self, tmp_path, runner, monkeypatch):
        # T(1) is one forward solve per model however many rows the cube has;
        # each image row is one reverse solve.
        calls = self.calls_by_process(tmp_path, runner, monkeypatch, rows=6, n_cpus=1)
        assert calls == {os.getpid(): {"ode_solve": 1, "ode_solve_reverse": 6}}

    def test_nonlinear_t1_is_solved_before_the_fork(self, tmp_path, runner, monkeypatch):
        # On 2 CPUs this process solves T(1) and its own rows 0-2; the worker
        # inherits T(1) and solves rows 3-5.
        calls = self.calls_by_process(tmp_path, runner, monkeypatch, rows=6, n_cpus=2)
        assert calls.pop(os.getpid()) == {"ode_solve": 1, "ode_solve_reverse": 3}
        assert list(calls.values()) == [{"ode_solve": 0, "ode_solve_reverse": 3}]

    def test_network_is_unpacked_once_before_the_fork(self, tmp_path, runner, monkeypatch):
        # T(1) unpacks the network in this process; the worker inherits the
        # layers with the profile and unpacks nothing for its rows 3-5.
        calls = self.calls_by_process(tmp_path, runner, monkeypatch, rows=6, n_cpus=2,
                                      names=("ode_solve_reverse", "unpack_params"))
        assert calls.pop(os.getpid()) == {"ode_solve_reverse": 3, "unpack_params": 1}
        assert list(calls.values()) == [{"ode_solve_reverse": 3, "unpack_params": 0}]

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


# Canonical (row, col, band) axes in file order, as the ENVI format defines them.
FILE_ORDER = {"bsq": (2, 0, 1), "bil": (0, 2, 1), "bip": (0, 1, 2)}


class TestCorrectLayouts:
    """`correct` over every input layout against a whole-cube reference."""

    ROWS, COLS, BANDS = 7, 3, 4  # 3 rows per block below: blocks of 3, 3 and 1 rows

    @pytest.mark.parametrize("byte_order", [0, 1])
    @pytest.mark.parametrize("data_type", [4, 5, 12])
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_images_match_whole_cube_reference(self, tmp_path, runner, monkeypatch, interleave, data_type,
                                               byte_order):
        rng = np.random.default_rng(data_type + byte_order)
        shape = (self.ROWS, self.COLS, self.BANDS)
        dtype = np.dtype(("<" if byte_order == 0 else ">") + envi.DTYPE_CODES[data_type])
        values = rng.integers(0, 3000, shape) if data_type == 12 else rng.uniform(0.0, 2.0, shape)
        hdr = tmp_path / "c.hdr"
        hdr.write_text(
            f"ENVI\nsamples = {self.COLS}\nlines = {self.ROWS}\nbands = {self.BANDS}\n"
            f"data type = {data_type}\ninterleave = {interleave}\nbyte order = {byte_order}\n"
            "wavelength = {500, 600, 700, 800}\n"
            + ("data gain values = {1e-3, 5e-4, 1e-3, 2e-3}\n" if data_type == 12 else "")
        )
        np.ascontiguousarray(values.transpose(FILE_ORDER[interleave]), dtype=dtype).tofile(tmp_path / "c.img")
        # Band 2's T(1) is floored; reflectances fall on both sides of 1.
        model = replace(linear_profile([0.3, 1.0, 20.0, 2.0]), solver=SolverConfig("rk4", 16))
        write_model(tmp_path / "m.json", model)
        norm = SceneNormalization(np.full(self.BANDS, 0.1), 1.0)
        write_normalization(tmp_path / "norm.json", norm)

        data = read_cube(hdr).data  # the whole cube, before the block size shrinks
        rho, mask = correct_batch(model, norm, data.reshape(-1, self.BANDS))
        assert (mask & 1).any() and (mask & 2).any() and not (mask & 2).all()
        for name, image, out_dtype in (("rho", rho, "<f4"), ("mask", mask, "<u2")):
            bsq = image.reshape(shape).transpose(FILE_ORDER["bsq"])
            np.ascontiguousarray(bsq, dtype=out_dtype).tofile(tmp_path / f"{name}.ref")

        monkeypatch.setattr(envi, "BLOCK_BYTES", 3 * self.COLS * self.BANDS * 8)
        out = tmp_path / "out"
        result = runner.invoke(main, ["correct", "--cube", str(hdr), "--model", str(tmp_path / "m.json"),
                                      "--norm", str(tmp_path / "norm.json"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "corrected.img").read_bytes() == (tmp_path / "rho.ref").read_bytes()
        assert (out / "quality_mask.img").read_bytes() == (tmp_path / "mask.ref").read_bytes()


class TestCorrectWorkers:
    """`correct` fanned out over forked workers: the same files, errors and warnings as one process.

    Calls made in a worker are invisible to spies in this process, so these
    tests check files, exit codes and output.
    """

    ROWS, COLS, BANDS = 8, 3, 4  # 2 rows per block below: four blocks

    @pytest.fixture()
    def blocks_of_two_rows(self, monkeypatch):
        monkeypatch.setattr(envi, "BLOCK_BYTES", 2 * self.COLS * self.BANDS * 8)

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    def write_inputs(self, tmp_path, data, model, data_type=5):
        write_envi_array(data, tmp_path / "c.hdr", wavelengths_nm=[500.0, 600.0, 700.0, 800.0],
                         data_type=data_type)
        write_model(tmp_path / "m.json", model)
        write_normalization(tmp_path / "norm.json", SceneNormalization(np.zeros(self.BANDS), 1.0))

    def correct(self, tmp_path, runner, out):
        return runner.invoke(main, ["correct", "--cube", str(tmp_path / "c.hdr"), "--model",
                                    str(tmp_path / "m.json"), "--norm", str(tmp_path / "norm.json"),
                                    "--out", str(tmp_path / out)])

    @staticmethod
    def nonlinear_model(n_bands, seed=6):
        return NonlinearProfile.initialize(n_bands, np.random.default_rng(seed))

    @staticmethod
    def overflowing_model(n_bands):
        # Params scaled by 1e3 saturate the decay at 1 in some band, and over a
        # 40-long interval the reverse solve grows a state by about 3.7e16:
        # past OVERFLOW_GUARD for z = 1, under it for z = 1e-6.
        model = NonlinearProfile.initialize(n_bands, np.random.default_rng(0))
        return NonlinearProfile(model.params * 1e3, n_bands, solver=SolverConfig("rk4", 16, x_end=40.0))

    @pytest.mark.usefixtures("blocks_of_two_rows")
    def test_images_are_identical_for_any_cpu_count(self, tmp_path, runner, monkeypatch):
        data = np.random.default_rng(4).uniform(0.05, 1.0, (self.ROWS - 1, self.COLS, self.BANDS))
        self.write_inputs(tmp_path, data, self.nonlinear_model(self.BANDS))  # the last block is one row
        # This process corrects only the first share: rows 0-6, 0-2 and 0-1.
        rows_here = []
        monkeypatch.setattr(cli, "correct_batch", lambda *args, _real=cli.correct_batch, **kwargs:
                            rows_here.append(len(args[2])) or _real(*args, **kwargs))
        images = []
        for n, share_rows in ((1, 7), (2, 3), (3, 2)):
            self.cpus(monkeypatch, n)
            rows_here.clear()
            result = self.correct(tmp_path, runner, f"out{n}")
            assert result.exit_code == 0, result.output
            assert len(rows_here) == share_rows
            images.append([(tmp_path / f"out{n}" / f"{name}.img").read_bytes()
                           for name in ("corrected", "quality_mask")])
        assert images[0] == images[1] == images[2]
        # The reference is corrected as `correct` corrects: one row per call, into float32.
        model, norm = self.nonlinear_model(self.BANDS), SceneNormalization(np.zeros(self.BANDS), 1.0)
        rho, mask = np.empty(data.shape, np.float32), np.empty(data.shape, np.uint16)
        for r, row in enumerate(data):
            correct_batch(model, norm, row, out=(rho[r], mask[r]))
        assert images[0][0] == np.ascontiguousarray(rho.transpose(2, 0, 1), "<f4").tobytes()
        assert images[0][1] == np.ascontiguousarray(mask.transpose(2, 0, 1), "<u2").tobytes()

    @pytest.mark.usefixtures("blocks_of_two_rows")
    @pytest.mark.parametrize("kind, n_cpus, rows", [("linear", 2, 8), ("nonlinear", 1, 8), ("nonlinear", 2, 1)])
    def test_no_worker_where_it_cannot_pay(self, tmp_path, runner, monkeypatch, kind, n_cpus, rows):
        # A linear inverse is one division; one CPU or one row has nothing to share.
        model = LinearProfile(np.full(self.BANDS, -2.0)) if kind == "linear" else self.nonlinear_model(self.BANDS)
        self.write_inputs(tmp_path, np.full((rows, self.COLS, self.BANDS), 0.5), model)
        self.cpus(monkeypatch, n_cpus)

        def no_fork():
            raise AssertionError("forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        result = self.correct(tmp_path, runner, "out")
        assert result.exit_code == 0, result.output

    @pytest.mark.usefixtures("blocks_of_two_rows")
    @pytest.mark.parametrize("n_cpus, nan_rows", [(2, (6,)), (2, (1, 6)), (3, (3, 5)), (3, (7, 5))])
    def test_failing_worker_reports_the_first_bad_pixel(self, tmp_path, runner, monkeypatch, n_cpus, nan_rows):
        # With 2 CPUs the shares are rows 0-3 and 4-7; with 3, rows 0-1, 2-4 and 5-7.
        data = np.full((self.ROWS, self.COLS, self.BANDS), 0.5)
        data[list(nan_rows), 1, 2] = np.nan
        self.write_inputs(tmp_path, data, self.nonlinear_model(self.BANDS))
        outputs = []
        for n in (1, n_cpus):
            self.cpus(monkeypatch, n)
            result = self.correct(tmp_path, runner, f"out{n}")
            assert result.exit_code == 3, result.output
            assert not list((tmp_path / f"out{n}").iterdir())
            outputs.append(result.output)
        assert outputs[0] == outputs[1] == (
            f"shape-error: {tmp_path / 'c.img'}: non-finite radiance at row {min(nan_rows)}, column 1, band 2\n"
        )

    @pytest.mark.usefixtures("blocks_of_two_rows")
    def test_every_command_names_the_first_bad_pixel(self, tmp_path, runner, monkeypatch):
        data = np.full((self.ROWS, self.COLS, self.BANDS), 0.5)
        data[6, 0, 1] = data[3, 2, 3] = np.nan  # in the blocks of rows 6-7 and 2-3
        self.write_inputs(tmp_path, data, self.nonlinear_model(self.BANDS))
        (tmp_path / "roi.csv").write_text("region_name,row,col\nr,0,0\n")
        expected = f"shape-error: {tmp_path / 'c.img'}: non-finite radiance at row 3, column 2, band 3\n"
        cube, model, roi = (str(tmp_path / name) for name in ("c.hdr", "m.json", "roi.csv"))
        for argv in (["train", "--cube", cube, "--mode", "unsupervised", "--out", str(tmp_path / "train")],
                     ["eval", "--model", model, "--cube", cube, "--roi", roi, "--out", str(tmp_path / "eval.csv")]):
            result = runner.invoke(main, argv)
            assert (result.exit_code, result.output) == (3, expected)
        assert not (tmp_path / "train").exists() and not (tmp_path / "eval.csv").exists()
        # With 2 CPUs the shares are rows 0-3 and 4-7; with 3, rows 0-1, 2-4 and 5-7.
        for n in (1, 2, 3):
            self.cpus(monkeypatch, n)
            result = self.correct(tmp_path, runner, f"out{n}")
            assert (result.exit_code, result.output) == (3, expected)
            assert not list((tmp_path / f"out{n}").iterdir())

    @pytest.mark.usefixtures("blocks_of_two_rows")
    def test_overflow_in_a_worker_is_a_numeric_error(self, tmp_path, runner, monkeypatch):
        data = np.full((self.ROWS, self.COLS, self.BANDS), 1e-6)
        data[5:] = 1.0  # only the worker's share, rows 4-7, overflows
        model = self.overflowing_model(self.BANDS)
        with pytest.raises(NumericError, match="diverged"):
            model.inverse(data[5])
        model.inverse(data[0])
        self.write_inputs(tmp_path, data, model)
        outputs = []
        for n in (1, 2):
            self.cpus(monkeypatch, n)
            result = self.correct(tmp_path, runner, f"out{n}")
            assert result.exit_code == 4, result.output
            assert not list((tmp_path / f"out{n}").iterdir())
            outputs.append(result.output)
        assert outputs[0] == outputs[1] and outputs[0].startswith("numeric-error: state diverged")

    @pytest.mark.usefixtures("blocks_of_two_rows")
    def test_failed_row_ahead_of_a_bad_value_fails_on_any_cpu_count(self, tmp_path, runner, monkeypatch):
        # Row 4 diverges and row 5, in the same block, holds a NaN. Every pass
        # stops at its first failing row, so row 4 fails first on any split:
        # rows 0-7; 0-3 and 4-7; 0-1, 2-4 and 5-7.
        data = np.full((self.ROWS, self.COLS, self.BANDS), 1e-6)
        data[4] = 1.0
        data[5, 0, 0] = np.nan
        self.write_inputs(tmp_path, data, self.overflowing_model(self.BANDS))
        outputs = []
        for n in (1, 2, 3):
            self.cpus(monkeypatch, n)
            result = self.correct(tmp_path, runner, f"out{n}")
            assert result.exit_code == 4, result.output
            assert not list((tmp_path / f"out{n}").iterdir())
            outputs.append(result.output)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].startswith("numeric-error: state diverged") and outputs[0].count("\n") == 1

    def test_failed_run_leaves_no_process_behind(self, tmp_path):
        # The failures above in a real process, in a session of its own: once
        # it has exited, no worker of its process group is left. In "own_nan"
        # this process's share, rows 0-3, fails while the worker's is healthy.
        data = np.full((self.ROWS, self.COLS, self.BANDS), 1e-6)
        data[5:] = 1.0
        data[6, 1, 2] = np.nan
        own_nan = np.full((self.ROWS, self.COLS, self.BANDS), 1e-6)
        own_nan[1, 1, 2] = np.nan
        src = str(Path(dinsat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import os, sys\n"
            "from dinsat import cli, envi\n"
            f"envi.BLOCK_BYTES = {2 * self.COLS * self.BANDS * 8}\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "cli.main(sys.argv[1:], prog_name='dinsat')\n"
        )
        for case, cube, model, expected in (
            ("nan", data, self.nonlinear_model(self.BANDS), 3),
            ("overflow", np.nan_to_num(data, nan=1.0), self.overflowing_model(self.BANDS), 4),
            ("own_nan", own_nan, self.nonlinear_model(self.BANDS), 3),
        ):
            inputs = tmp_path / case
            inputs.mkdir()
            self.write_inputs(inputs, cube, model)
            proc = subprocess.Popen(
                [sys.executable, "-c", code, "correct", "--cube", str(inputs / "c.hdr"), "--model",
                 str(inputs / "m.json"), "--norm", str(inputs / "norm.json"), "--out", str(inputs / "out")],
                env=env, stderr=subprocess.PIPE, text=True, start_new_session=True,
            )
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == expected, stderr
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
            assert not list((inputs / "out").iterdir())

    @pytest.mark.usefixtures("blocks_of_two_rows")
    def test_worker_that_dies_without_a_result_is_an_error(self, tmp_path, runner, monkeypatch):
        self.write_inputs(tmp_path, np.full((self.ROWS, self.COLS, self.BANDS), 0.5),
                          self.nonlinear_model(self.BANDS))
        self.cpus(monkeypatch, 2)
        here = os.getpid()

        def die_in_a_worker(*args, _real=cli._correct_rows):
            if os.getpid() != here:
                os._exit(1)
            return _real(*args)

        monkeypatch.setattr(cli, "_correct_rows", die_in_a_worker)
        result = self.correct(tmp_path, runner, "out")
        assert result.exit_code == 1, result.output
        [line] = result.output.splitlines()
        assert line.startswith("error: ") and "worker" in line
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.usefixtures("blocks_of_two_rows")
    def test_one_clamp_warning_with_every_workers_count(self, tmp_path, runner, monkeypatch, caplog):
        data = np.full((self.ROWS, self.COLS, self.BANDS), 0.5, np.float32)
        data[0, 0, 0] = data[3, 2, 1] = data[4, 1, 1] = data[7, 0, 3] = data[7, 2, 3] = -0.25
        self.write_inputs(tmp_path, data, self.nonlinear_model(self.BANDS), data_type=4)
        for n in (1, 2):
            self.cpus(monkeypatch, n)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="dinsat.envi"):
                result = self.correct(tmp_path, runner, f"out{n}")
            assert result.exit_code == 0, result.output
            assert [r.getMessage() for r in caplog.records] == [
                f"{tmp_path / 'c.img'}: clamped 5 negative radiance values to 0"
            ]
        for name in ("corrected", "quality_mask"):
            assert (tmp_path / "out1" / f"{name}.img").read_bytes() == (tmp_path / "out2" / f"{name}.img").read_bytes()

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_one_process_reads_and_writes_every_run_once_in_order(self, tmp_path, runner, monkeypatch,
                                                                   interleave):
        # Each block: its input runs, then the reflectance image's runs, then
        # the mask's; each BSQ run is one band's rows of the block.
        rows, cols, bands, step = 5, 3, 4, 2
        data = np.random.default_rng(8).uniform(0.1, 1.0, (rows, cols, bands))
        write_envi_array(data, tmp_path / "c.hdr", interleave=interleave, data_type=5)
        write_model(tmp_path / "m.json", LinearProfile(np.full(bands, -2.0)))
        write_normalization(tmp_path / "norm.json", SceneNormalization(np.zeros(bands), 1.0))
        monkeypatch.setattr(envi, "BLOCK_BYTES", step * cols * bands * 8)
        calls = []
        for name in ("_read_exact", "_write_all"):
            def spy(f, offset, buf, _real=getattr(envi, name)):
                calls.append((Path(f.name).name, offset, len(buf)))
                return _real(f, offset, buf)

            monkeypatch.setattr(envi, name, spy)
        result = self.correct(tmp_path, runner, "out")
        assert result.exit_code == 0, result.output

        expected = []
        for r0 in range(0, rows, step):
            n = min(step, rows - r0)
            if interleave == "bsq":
                expected += [("c.img", (b * rows + r0) * cols * 8, n * cols * 8) for b in range(bands)]
            else:
                expected.append(("c.img", r0 * cols * bands * 8, n * cols * bands * 8))
            for image, size in (("corrected.img", 4), ("quality_mask.img", 2)):
                expected += [(image, (b * rows + r0) * cols * size, n * cols * size) for b in range(bands)]
        assert calls == expected


@given(rows=st.integers(1, 100_000), n=st.integers(1, 256))
def test_row_shares_are_contiguous_and_even(rows, n):
    shares = _row_shares(rows, n)
    assert len(shares) == min(n, rows)
    assert shares[0].start == 0 and shares[-1].stop == rows
    assert all(a.stop == b.start for a, b in zip(shares, shares[1:]))
    lengths = [len(share) for share in shares]
    assert min(lengths) >= 1 and max(lengths) - min(lengths) <= 1


class TestSimulateAndEval:
    def test_simulate_round_trips_identity(self, tmp_path, runner):
        grid_path = tmp_path / "rho.csv"
        spec = SynthSpec(rows=4, cols=4, n_bands=16)
        _, truth = synth_scene(spec, seed=0)
        rho = Spectrum(truth.rho[2, 2], "reflectance")
        write_spectrum_csv(grid_path, truth.grid, rho)
        model_path = tmp_path / "identity.json"
        write_model(model_path, LinearProfile(np.full(16, -40.0), SolverConfig("rk4", 8)))
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

    def test_eval_without_norm_matches_train_norm(self, tmp_path, runner):
        # Without --norm, eval takes (C, m) from its pass's band extrema, the
        # estimate that train wrote to norm.json from the same cube.
        scene = make_scene(tmp_path, runner)
        roi, _ = make_roi(tmp_path)
        config = tmp_path / "train.txt"
        config.write_text(CONFIG_TEXT)
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["train", "--cube", str(scene / "scene.hdr"), "--roi", str(roi),
                                      "--config", str(config), "--out", str(run_dir)])
        assert result.exit_code == 0, result.output
        common = ["eval", "--model", str(run_dir / "model_000.json"), "--cube", str(scene / "scene.hdr"),
                  "--roi", str(roi), "--library", str(tmp_path / "ref_0.csv")]
        outputs = []
        for extra in (["--norm", str(run_dir / "norm.json")], []):
            out = tmp_path / f"metrics{len(outputs)}.csv"
            result = runner.invoke(main, [*common, *extra, "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"radiance_percent_mse" in outputs[0] and b"reflectance_percent_mse" in outputs[0]

    def test_eval_makes_one_pass_and_one_simulation(self, tmp_path, runner, monkeypatch):
        # Three regions of two pixels each, over four row blocks, with and without --norm.
        scene = make_scene(tmp_path, runner)
        model = tmp_path / "model.json"
        write_model(model, LinearProfile(np.full(16, -2.0), SolverConfig("rk4", 8)), None)
        write_normalization(tmp_path / "norm.json", SceneNormalization(np.zeros(16), 1.0))
        library = tmp_path / "library.csv"
        write_spectrum_csv(library, WavelengthGrid.linear(16), Spectrum(np.full(16, 0.5), "reflectance"))
        roi = tmp_path / "roi.csv"
        roi.write_text("a,0,0\na,11,11\nb,2,2\nb,3,3\nc,4,4\nc,9,5\n")
        monkeypatch.setattr(envi, "BLOCK_BYTES", 3 * 12 * 16 * 8)
        calls = []
        blocks = envi.EnviCube.blocks
        monkeypatch.setattr(envi.EnviCube, "blocks", lambda self: calls.append("pass") or blocks(self))
        for module in (cli, training):  # every module that eval's simulation could go through
            if hasattr(module, "simulate_values"):
                monkeypatch.setattr(module, "simulate_values", lambda *args, _real=module.simulate_values:
                                    calls.append("simulate") or _real(*args))
        for extra in ([], ["--norm", str(tmp_path / "norm.json")]):
            calls.clear()
            out = tmp_path / "metrics.csv"
            result = runner.invoke(main, ["eval", "--model", str(model), "--cube", str(scene / "scene.hdr"),
                                          "--roi", str(roi), "--library", str(library), *extra, "--out", str(out)])
            assert result.exit_code == 0, result.output
            assert sorted(calls) == ["pass", "simulate"], extra
            regions = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
            assert regions == ["a", "b", "c"]

    def test_eval_corrects_every_region_in_one_batch(self, tmp_path, runner, monkeypatch):
        # Three regions, one without a reference: one correct_batch over all six pixels.
        scene = make_scene(tmp_path, runner)
        model = tmp_path / "model.json"
        write_model(model, NonlinearProfile.initialize(16, np.random.default_rng(2)), None)
        write_spectrum_csv(tmp_path / "ref.csv", WavelengthGrid.linear(16), Spectrum(np.full(16, 0.5), "reflectance"))
        (tmp_path / "three.csv").write_text("a,0,0,ref.csv\na,1,1,ref.csv\nb,2,2,ref.csv\nb,3,3,ref.csv\nc,5,5\nc,6,7\n")
        batches = []
        for module in (cli, training):  # every module that eval's correction could go through
            if hasattr(module, "correct_batch"):
                monkeypatch.setattr(module, "correct_batch", lambda *args, _real=module.correct_batch, **kwargs:
                                    batches.append(len(args[2])) or _real(*args, **kwargs))
        out = tmp_path / "metrics.csv"
        result = runner.invoke(main, ["eval", "--model", str(model), "--cube", str(scene / "scene.hdr"),
                                      "--roi", str(tmp_path / "three.csv"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert batches == [6]
        lines = out.read_text().splitlines()
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == ["a,reflectance_percent_mse",
                                                                  "b,reflectance_percent_mse"]
        assert "c: samples lack truth reflectance" in result.output

    def test_eval_reference_band_mismatch_is_data_error(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        model = tmp_path / "model.json"
        write_model(model, LinearProfile(np.zeros(16), SolverConfig("rk4", 8)), None)
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
        # Each record's T(1) is its model's, bit for bit, and the stats are their mean and std.
        t1s = []
        for i in range(2):
            t1 = read_model(run_dir / f"model_{i:03d}.json")[0].t1
            record = json.loads((run_dir / f"run_{i:03d}.json").read_text())
            np.testing.assert_array_equal(record["transmittance"], t1)
            t1s.append(t1)
        columns = np.array([[float(v) for v in line.split(",")[2:]] for line in stats[1:]])
        np.testing.assert_array_equal(columns[:, 0], np.mean(t1s, axis=0))
        np.testing.assert_array_equal(columns[:, 1], np.std(t1s, axis=0))
        curves = (out / "loss_curves.csv").read_text().splitlines()
        assert curves[0] == "run,epoch,train_loss,val_loss"
        spectra = (out / "roi_spectra.csv").read_text().splitlines()
        assert spectra[0] == "run,band,wavelength_nm,reflectance"

    def test_run_without_validation_split_has_an_empty_val_loss_field(self, tmp_path, runner):
        scene = make_scene(tmp_path, runner)
        config = tmp_path / "train.txt"
        config.write_text("max_epochs = 3\n")
        run_dir = tmp_path / "run"
        result = runner.invoke(main, [
            "train", "--cube", str(scene / "scene.hdr"), "--mode", "unsupervised",
            "--config", str(config), "--out", str(run_dir),
        ])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["report", "--runs", str(run_dir), "--out", str(tmp_path / "report")])
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in (tmp_path / "report" / "loss_curves.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3
        assert all(len(row) == 4 and row[3] == "" for row in rows)

    def test_record_without_roi_reflectance_gives_header_only_spectra(self, tmp_path, runner):
        runs = tmp_path / "runs"
        runs.mkdir()
        record = {"history": [{"epoch": 0, "train_loss": 0.5}], "transmittance": [0.5] * 4, "roi_reflectance": None}
        (runs / "run_000.json").write_text(json.dumps(record))
        result = runner.invoke(main, ["report", "--runs", str(runs), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "o" / "roi_spectra.csv").read_text() == "run,band,wavelength_nm,reflectance\n"

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


# One synth spec line per value that a nan must not pass.
SPEC_NAN_LINES = {
    "noise_std": "noise_std = nan", "illumination": "illumination = nan", "dark_level": "dark_level = nan",
    "baseline_alpha": "baseline_alpha = nan", "absorption_width": "absorption = 940:nan:1.2",
    "absorption_depth": "absorption = 940:40:nan",
}
# And per value that an inf must not pass.
SPEC_INF_LINES = {
    "noise_std": "noise_std = inf", "illumination": "illumination = inf", "dark_level": "dark_level = inf",
    "baseline_alpha": "baseline_alpha = inf", "wl_end_nm": "wl_end_nm = inf",
    "absorption_width": "absorption = 940:inf:1.2", "absorption_depth": "absorption = 940:40:inf",
}
SPEC_BAD_LINES = {"nan": SPEC_NAN_LINES, "inf": SPEC_INF_LINES}


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A valid 4x4x8 scene, model, norm, spectrum and ROI, plus one broken file per case."""
    d = tmp_path_factory.mktemp("bad_inputs")
    cube, _ = synth_scene(SynthSpec(rows=4, cols=4, n_bands=8), seed=0)
    envi.write_envi(cube, d / "scene.hdr", data_type=5)
    header = (d / "scene.hdr").read_text()
    wavelength_line = header[header.index("wavelength = {"):]
    for name, old, new in (("byte_order", "byte order = 0", "byte order = x"),
                           ("offset", "header offset = 0", "header offset = z"),
                           ("wavelength_nan", "wavelength = {450.0,", "wavelength = {nan,"),
                           ("no_samples", "samples = 4\n", ""),
                           ("wavelength_unclosed", wavelength_line, "wavelength = {1, 2,\n"),
                           ("no_equals", "file type = ENVI Standard", "file type ENVI Standard"),
                           ("byte_order_2", "byte order = 0", "byte order = 2"),
                           ("no_magic", "ENVI\n", ""),
                           ("data_type_3", "data type = 5", "data type = 3"),
                           ("interleave_bsx", "interleave = bsq", "interleave = bsx"),
                           ("lines_0", "lines = 4", "lines = 0"),
                           ("two_gains", "byte order = 0", "byte order = 0\ndata gain values = {1, 2}"),
                           ("gain_nan", "byte order = 0", "byte order = 0\ndata gain values = {nan" + ", 1" * 7 + "}"),
                           ("offset_inf", "byte order = 0", "byte order = 0\ndata offset values = {inf" + ", 0" * 7 + "}")):
        (d / f"{name}.hdr").write_text(header.replace(old, new))
        (d / f"{name}.img").write_bytes((d / "scene.img").read_bytes())
    (d / "no_data.hdr").write_text(header)
    # 8 bytes short, so that the data size matches the offset and only its sign is wrong.
    (d / "negative_offset.hdr").write_text(header.replace("header offset = 0", "header offset = -8"))
    (d / "negative_offset.img").write_bytes((d / "scene.img").read_bytes()[:-8])
    # A NaN at a pixel outside roi.csv's regions.
    nan_data = cube.data.copy()
    nan_data[3, 3, 2] = np.nan
    write_envi_array(nan_data, d / "nan_outside_roi.hdr", wavelengths_nm=cube.grid.wavelengths_nm, data_type=5)
    write_normalization(d / "norm8.json", SceneNormalization(np.zeros(8), 1.0))
    write_spectrum_csv(d / "spectrum.csv", cube.grid, Spectrum(np.full(8, 0.5), "reflectance"))
    write_spectrum_csv(d / "negative_library.csv", cube.grid, Spectrum(np.r_[-0.5, np.full(7, 0.5)], "reflectance"))
    write_spectrum_csv(d / "library5.csv", WavelengthGrid.linear(5), Spectrum(np.full(5, 0.5), "reflectance"))
    for name, text in (("spectrum_3_columns", "wavelength_nm,value\n1,0.5,0\n2,0.5,0\n"),
                       ("spectrum_1_band", "wavelength_nm,value\n1,0.5\n"), ("spectrum_empty", "")):
        (d / f"{name}.csv").write_text(text)
    (d / "roi.csv").write_text("field,0,0\nfield,1,1\n")
    for name, text in (("roi_2_columns", "field,0\n"), ("roi_row_a", "field,a,0\n"),
                       ("roi_no_regions", "region_name,row,col\n")):
        (d / f"{name}.csv").write_text(text)
    write_normalization(d / "norm5.json", SceneNormalization(np.zeros(5), 1.0))
    (d / "norm_no_m.json").write_text(json.dumps({"c": [0.0] * 8}))
    (d / "norm_m_0.json").write_text(json.dumps({"c": [0.0] * 8, "m": 0.0}))
    (d / "norm_m_inf.json").write_text(json.dumps({"c": [0.0] * 8, "m": float("inf")}))
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
        "steps_2_5": {**valid, "solver": {**valid["solver"], "steps": 2.5}},
        "steps_true": {**valid, "solver": {**valid["solver"], "steps": True}},
        "x_end_string": {**valid, "solver": {**valid["solver"], "x_end": "1"}},
        "x0_after_x_end": {**valid, "solver": {**valid["solver"], "x0": 1, "x_end": 0}},
        "nan_params": {**valid, "params": [float("nan")] + [-2.0] * 7},
        # JSON true is not a size, although Python reads it as 1: as 1-unit
        # layers these 29 parameters would make a valid nonlinear model.
        "hidden_latent_true": {**valid, "kind": "nonlinear", "hidden": True, "latent": True,
                               "params": [0.0] * 29},
        "n_bands_true": {**valid, "n_bands": True, "params": [-2.0]},
        "version_2": {**valid, "version": 2}, "version_true": {**valid, "version": True},
        "version_missing": {k: v for k, v in valid.items() if k != "version"},
        "kind_cubic": {**valid, "kind": "cubic"}, "params_5": {**valid, "params": 5}, "json_list": [valid],
    }
    for name, doc in models.items():
        (d / f"{name}.json").write_text(json.dumps(doc))
    (d / "invalid_json.json").write_text(json.dumps(valid)[:-1])
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
    (d / "runs_no_train_loss").mkdir()
    (d / "runs_no_train_loss" / "run_000.json").write_text(
        json.dumps({"history": [{"epoch": 0}], "transmittance": [0.5] * 8, "roi_reflectance": None})
    )
    for name, text in (("epochs_abc", "max_epochs = abc\n"), ("split_abc", "split_fractions = a/b/c\n"),
                       ("rows_x", "rows = x\n"),
                       *((f"fraction_{v}", f"pixel_fraction = {v}\n") for v in ("nan", "inf", "-1")),
                       *((f"rel_tol_{v}", f"rel_tol = {v}\n") for v in ("nan", "1")),
                       ("split_nan", "split_fractions = nan/0.1/0.1\n"), ("lr_nan", "lr = nan\n"),
                       ("split_negative", "split_fractions = 0.5/-0.2/0.5\n"),
                       ("split_sum", "split_fractions = 0.9/0.5/0.5\n"),
                       ("config_no_equals", "max_epochs 5\n"), ("hidden_0", "model_kind = nonlinear\nhidden = 0\n"),
                       *((f"spec_{name}_{value}", f"rows = 4\ncols = 4\nbands = 8\n{line}\n")
                         for value, lines in SPEC_BAD_LINES.items() for name, line in lines.items()),
                       ("split_small", "mode = unsupervised\nmax_epochs = 2\nsplit_fractions = 0.5/0.1/0.4\n")):
        (d / f"{name}.txt").write_text(text)
    return d


# Config errors that `dinsat train` reports before it reads any cube, so it writes no norm.json.
TRAIN_REJECTED_BEFORE_ANY_CUBE = [
    ("train-nonlinear-hidden-0", "train --cube {d}/scene.hdr --mode unsupervised --config {d}/hidden_0.txt "
     "--out {o}", 2, "config-error"),
    *((f"train-ensemble-{n}", f"train --cube {{d}}/scene.hdr --mode unsupervised --ensemble {n} --out {{o}}",
       2, "config-error") for n in ("0", "-2")),
    *((f"train-split-fractions-{name}", f"train --cube {{d}}/scene.hdr --mode unsupervised "
       f"--config {{d}}/split_{name}.txt --out {{o}}", 2, "config-error") for name in ("negative", "sum")),
]

BAD_INPUT_CASES = [
    *((f"synth-{name.replace('_', '-')}-{value}", f"synth --spec {{d}}/spec_{name}_{value}.txt --out {{o}}", 2,
       "config-error") for value, lines in SPEC_BAD_LINES.items() for name in lines),
    ("train-max-epochs-abc", "train --cube {d}/scene.hdr --mode unsupervised --config {d}/epochs_abc.txt --out {o}",
     2, "config-error"),
    ("train-split-fractions-abc", "train --cube {d}/scene.hdr --mode unsupervised --config {d}/split_abc.txt --out {o}",
     2, "config-error"),
    ("synth-rows-x", "synth --spec {d}/rows_x.txt --out {o}", 2, "config-error"),
    *((f"train-pixel-fraction-{name}", f"train --cube {{d}}/scene.hdr --mode unsupervised "
       f"--config {{d}}/fraction_{name}.txt --out {{o}}", 2, "config-error") for name in ("nan", "inf", "-1")),
    *((f"train-rel-tol-{name}", f"train --cube {{d}}/scene.hdr --mode unsupervised "
       f"--config {{d}}/rel_tol_{name}.txt --out {{o}}", 2, "config-error") for name in ("nan", "1")),
    ("train-split-fractions-nan", "train --cube {d}/scene.hdr --mode unsupervised --config {d}/split_nan.txt "
     "--out {o}", 2, "config-error"),
    ("train-lr-nan", "train --cube {d}/scene.hdr --mode unsupervised --config {d}/lr_nan.txt --out {o}",
     2, "config-error"),
    ("eval-negative-library", "eval --model {d}/model8.json --cube {d}/scene.hdr --roi {d}/roi.csv "
     "--library {d}/negative_library.csv --out {o}.csv", 2, "config-error"),
    ("eval-library-bands", "eval --model {d}/model8.json --cube {d}/scene.hdr --roi {d}/roi.csv "
     "--library {d}/library5.csv --out {o}.csv", 3, "invalid-dataset-error"),
    ("simulate-negative-reflectance", "simulate --spectrum {d}/negative_library.csv --model {d}/model8.json "
     "--out {o}.csv", 2, "config-error"),
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
    # A NaN outside the ROI: eval reads the whole cube, as train and correct do, and rejects it.
    ("eval-norm-nan-outside-roi", "eval --model {d}/model8.json --cube {d}/nan_outside_roi.hdr --roi {d}/roi.csv "
     "--norm {d}/norm8.json --out {o}.csv", 3, "shape-error"),
    ("eval-nan-outside-roi", "eval --model {d}/model8.json --cube {d}/nan_outside_roi.hdr --roi {d}/roi.csv "
     "--out {o}.csv", 3, "shape-error"),
    ("train-nan-outside-roi", "train --cube {d}/nan_outside_roi.hdr --mode unsupervised --out {o}", 3, "shape-error"),
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
    ("model-solver-steps-2.5", "correct --cube {d}/scene.hdr --model {d}/steps_2_5.json --out {o}",
     3, "parse-error"),
    ("model-solver-steps-true", "correct --cube {d}/scene.hdr --model {d}/steps_true.json --out {o}",
     3, "parse-error"),
    ("model-solver-x-end-string", "correct --cube {d}/scene.hdr --model {d}/x_end_string.json --out {o}",
     3, "parse-error"),
    ("model-solver-x0-after-x-end", "correct --cube {d}/scene.hdr --model {d}/x0_after_x_end.json --out {o}",
     3, "parse-error"),
    ("model-nan-params", "correct --cube {d}/scene.hdr --model {d}/nan_params.json --out {o}", 3, "parse-error"),
    ("model-hidden-latent-true", "correct --cube {d}/scene.hdr --model {d}/hidden_latent_true.json --out {o}",
     3, "parse-error"),
    ("model-n-bands-true", "correct --cube {d}/scene.hdr --model {d}/n_bands_true.json --out {o}",
     3, "parse-error"),
    ("norm-m-0", "correct --cube {d}/scene.hdr --model {d}/model8.json --norm {d}/norm_m_0.json --out {o}",
     3, "parse-error"),
    ("norm-m-inf", "correct --cube {d}/scene.hdr --model {d}/model8.json --norm {d}/norm_m_inf.json --out {o}",
     3, "parse-error"),
    ("norm-negative-c", "correct --cube {d}/scene.hdr --model {d}/model8.json --norm {d}/norm_neg_c.json --out {o}",
     3, "parse-error"),
    ("report-without-history", "report --runs {d}/runs --out {o}", 3, "parse-error"),
    ("report-record-lengths-differ", "report --runs {d}/runs_lengths --out {o}", 3, "invalid-dataset-error"),
    ("report-record-vs-model-wavelengths", "report --runs {d}/runs_wavelengths --out {o}",
     3, "invalid-dataset-error"),
    ("header-byte-order-x", "correct --cube {d}/byte_order.hdr --model {d}/model8.json --out {o}", 3, "parse-error"),
    ("header-offset-z", "correct --cube {d}/offset.hdr --model {d}/model8.json --out {o}", 3, "parse-error"),
    ("header-offset-negative", "correct --cube {d}/negative_offset.hdr --model {d}/model8.json --out {o}",
     3, "parse-error"),
    ("header-wavelength-nan", "correct --cube {d}/wavelength_nan.hdr --model {d}/model8.json --out {o}",
     3, "parse-error"),
    *((f"header-{name.replace('_', '-')}", f"correct --cube {{d}}/{name}.hdr --model {{d}}/model8.json --out {{o}}",
       3, category) for name, category in (
        ("no_samples", "parse-error"), ("wavelength_unclosed", "parse-error"), ("no_equals", "parse-error"),
        ("byte_order_2", "parse-error"), ("interleave_bsx", "unsupported-format-error"),
        ("lines_0", "parse-error"), ("two_gains", "parse-error"), ("gain_nan", "parse-error"),
        ("offset_inf", "parse-error"), ("no_data", "corrupt-file-error"))),
    *((f"simulate-{name.replace('_', '-')}", f"simulate --spectrum {{d}}/{name}.csv --model {{d}}/model8.json "
       "--out {o}.csv", 3, "parse-error") for name in ("spectrum_3_columns", "spectrum_1_band", "spectrum_empty")),
    *((f"eval-{name.replace('_', '-')}", f"eval --model {{d}}/model8.json --cube {{d}}/scene.hdr "
       f"--roi {{d}}/{name}.csv --out {{o}}.csv", 3, "parse-error")
      for name in ("roi_2_columns", "roi_row_a", "roi_no_regions")),
    ("train-config-no-equals", "train --cube {d}/scene.hdr --mode unsupervised --config {d}/config_no_equals.txt "
     "--out {o}", 2, "config-error"),
    *((f"model-{name.replace('_', '-')}", f"correct --cube {{d}}/scene.hdr --model {{d}}/{name}.json --out {{o}}",
       3, "parse-error") for name in ("kind_cubic", "json_list", "invalid_json", "params_5",
                                      "version_2", "version_true", "version_missing")),
    ("report-history-without-train-loss", "report --runs {d}/runs_no_train_loss --out {o}", 3, "parse-error"),
    *TRAIN_REJECTED_BEFORE_ANY_CUBE,
]


@pytest.mark.parametrize("name,category,message", [
    ("byte_order_2", "parse-error", "byte order must be 0 or 1, got 2"),
    ("no_magic", "parse-error", "missing ENVI magic on header line 1"),
    ("data_type_3", "unsupported-format-error", "unsupported ENVI data type 3; supported: 4, 5, 12"),
], ids=["byte-order-2", "no-magic", "data-type-3"])
def test_header_error_names_the_header(bad_inputs, tmp_path, runner, name, category, message):
    hdr = bad_inputs / f"{name}.hdr"
    result = runner.invoke(main, ["correct", "--cube", str(hdr), "--model", str(bad_inputs / "model8.json"),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 3
    assert result.output == f"{category}: header {hdr}: {message}\n"


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


@pytest.mark.parametrize("argv", [c[1] for c in TRAIN_REJECTED_BEFORE_ANY_CUBE],
                         ids=[c[0] for c in TRAIN_REJECTED_BEFORE_ANY_CUBE])
def test_train_config_error_writes_no_norm(bad_inputs, runner, tmp_path, argv):
    out = tmp_path / "out"
    result = runner.invoke(main, argv.format(d=bad_inputs, o=out).split())
    assert result.exit_code == 2 and result.stderr.startswith("config-error: "), result.output
    assert not (out / "norm.json").exists()


def test_failed_member_is_reported_and_the_rest_written(bad_inputs, runner, tmp_path, monkeypatch):
    real_train = training.train

    def train_failing_member_1(config, *args, **kwargs):
        if config.seed == 1:  # member 1 of the base seed 0
            raise NumericError("injected failure")
        return real_train(config, *args, **kwargs)

    monkeypatch.setattr(training, "train", train_failing_member_1)
    config = tmp_path / "train.txt"
    config.write_text("max_epochs = 3\n")
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "train", "--cube", str(bad_inputs / "scene.hdr"), "--mode", "unsupervised", "--config", str(config),
        "--ensemble", "2", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert "run 1 failed: injected failure" in result.stderr
    assert (out / "model_000.json").exists() and (out / "run_000.json").exists()
    assert not (out / "model_001.json").exists() and not (out / "run_001.json").exists()
    assert result.stdout.startswith("trained 1/2 model(s)")


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


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "1.5"])
def test_pixel_fraction_outside_zero_one_is_a_config_error_naming_the_key(tmp_path, value):
    path = tmp_path / "train.txt"
    path.write_text(f"pixel_fraction = {value}\n")
    with pytest.raises(ConfigError, match=f"^pixel_fraction = {value}: "):
        _train_config_from_file(str(path))


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

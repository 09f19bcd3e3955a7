"""Command-line surface: synth | train | correct | simulate | eval | report.

Exit codes: 0 success, 2 configuration errors, 3 data/file errors,
4 numeric failures. Errors print one machine-parsable line to stderr:
"<category>: <detail>".
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import click
import numpy as np

from . import artifacts, envi
from .correction import SceneNormalization, correct_batch, estimate_normalization, simulate_values
from .errors import ConfigError, DataError, DinsatError, InvalidDatasetError
from .ode import SolverConfig
from .synth import SynthSpec, synth_scene
from .training import TrainConfig, ensemble, evaluate_regions
from .types import Spectrum, sample_coords


def _fail_cleanly(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DinsatError, OSError) as e:
            # An OSError, such as an output path that cannot be written, is a data error.
            error = e if isinstance(e, DinsatError) else DataError(e)
            click.echo(f"{error.category}: {error}", err=True)
            sys.exit(error.exit_code)

    return wrapper


@click.group()
def main():
    """Tunable invertible atmospheric-transmission surrogate toolkit."""


# -- helpers -----------------------------------------------------------------

def _parse_absorption(raw: str) -> tuple:
    entries = [part.split(":") for part in raw.split(";") if part.strip()]
    if any(len(e) != 3 for e in entries):
        raise ValueError("each entry must be center_nm:width_nm:depth")
    return tuple(tuple(float(v) for v in e) for e in entries)


def _split_fractions(raw: str) -> tuple[float, float, float]:
    train, val, test = (float(v) for v in raw.split("/"))
    return train, val, test


def _fraction(raw: str) -> float:
    value = float(raw)
    if not 0.0 <= value <= 1.0:  # also false for nan
        raise ValueError("must be a number in [0, 1]")
    return value


def _convert(key: str, raw: str, parse):
    try:
        return parse(raw)
    except ValueError as e:
        raise ConfigError(f"{key} = {raw}: {e}") from None


def _from_kv(cls, kv: dict[str, str], aliases: dict[str, str], parsers: dict):
    """``cls`` from ``read_kv_config`` output: each key is a field, or its alias.

    A value goes through its field's parser, or converts to the type of the
    field's default. Raises ConfigError on any other key or a bad value.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, raw in kv.items():
        name = aliases.get(key, None if key in aliases.values() else key)
        parse = parsers.get(name)
        if parse is None and name in fields and type(fields[name].default) in (int, float, str):
            parse = type(fields[name].default)
        if parse is None:
            raise ConfigError(f"unknown {cls.__name__} key: {key!r}")
        kwargs[name] = _convert(key, raw, parse)
    return cls(**kwargs)


def _synth_spec_from_file(path: str) -> SynthSpec:
    aliases = {"bands": "n_bands", "materials": "n_materials", "absorption": "absorption_bands"}
    return _from_kv(SynthSpec, artifacts.read_kv_config(path), aliases, {"absorption_bands": _parse_absorption})


_SOLVER_ALIASES = {"solver_method": "method", "solver_steps": "steps"}


def _train_config_from_file(path: str | None, **overrides) -> tuple[TrainConfig, float]:
    """Returns (config, pixel_fraction) from a key = value file and the non-None ``overrides``."""
    kv = artifacts.read_kv_config(path) if path else {}
    kv.update((k, str(v)) for k, v in overrides.items() if v is not None)
    pixel_fraction = _convert("pixel_fraction", kv.pop("pixel_fraction", "0.0005"), _fraction)
    solver_kv = {k: kv.pop(k) for k in _SOLVER_ALIASES if k in kv}
    config = _from_kv(TrainConfig, kv, {}, {"split_fractions": _split_fractions})
    solver = _from_kv(SolverConfig, solver_kv, _SOLVER_ALIASES, {})
    return dataclasses.replace(config, solver=solver), pixel_fraction


def _check_bands(name: str, n: int, what: str, n_bands: int) -> None:
    if n != n_bands:
        raise InvalidDatasetError(f"{name} has {n} bands, {what} has {n_bands}")


def _open_cubes(cube_paths) -> list[envi.EnviCube]:
    cubes = [envi.open_envi(p) for p in cube_paths]
    for path, cube in zip(cube_paths, cubes):
        _check_bands(f"cube {path}", cube.n_bands, f"cube {cube_paths[0]}", cubes[0].n_bands)
    return cubes


def _model_and_norm(model_path, norm_path, n_bands: int, what: str):
    """(model, norm) checked against ``n_bands``; the norm is None without a path."""
    model, _, _ = artifacts.read_model(model_path)
    _check_bands("model", model.n_bands, what, n_bands)
    if not norm_path:
        return model, None
    norm = artifacts.read_normalization(norm_path)
    _check_bands("norm", norm.c.size, what, n_bands)
    return model, norm


def _reference_rows(cube: envi.EnviCube, roi: artifacts.RoiFile, name: str) -> np.ndarray | None:
    """The region's reference reflectance, one row per region pixel; None without one."""
    if name not in roi.references:
        return None
    _, truth = artifacts.read_spectrum_csv(roi.references[name], "reflectance")
    _check_bands(f"reference spectrum for region {name!r}", truth.n_bands, "cube", cube.n_bands)
    return np.tile(truth.values, (len(roi.regions[name]), 1))


def _roi_references(cube: envi.EnviCube, roi: artifacts.RoiFile) -> tuple[np.ndarray, np.ndarray]:
    """(coords, rho): the (n, 2) ROI pixels whose region has a reference, and that reference per pixel."""
    coords, rho = [np.empty((0, 2), int)], [np.empty((0, cube.n_bands))]
    for name, region in roi.regions.items():
        truth = _reference_rows(cube, roi, name)
        if truth is not None:
            coords.append(np.asarray(region, int).reshape(-1, 2))
            rho.append(truth)
    return np.concatenate(coords), np.concatenate(rho)


# -- synth -------------------------------------------------------------------

@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), help="key = value synth spec file")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_fail_cleanly
def synth(spec_path, seed, out_dir):
    """Generate a synthetic radiance cube plus a truth sidecar CSV.

    Spec keys: rows, cols, bands, wl_start_nm, wl_end_nm, baseline_alpha,
    absorption (center:width:depth;...), materials, dark_level, illumination,
    noise_std. Outputs: scene.hdr/.img (ENVI, float64 BSQ) and truth.csv with
    columns wavelength_nm, alpha_true, c, m, rho_<row>_<col>... The cube is
    built band-sequentially in memory, at a peak of about two cubes, and
    scene.img is written from that memory with no copy.
    """
    spec = _synth_spec_from_file(spec_path) if spec_path else SynthSpec()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cube, truth = synth_scene(spec, seed)
    envi.write_envi(cube, out / "scene.hdr", data_type=5)
    rng = np.random.default_rng(seed)
    picks = {(0, 0), (0, min(1, spec.cols - 1))}
    while len(picks) < min(6, spec.rows * spec.cols):
        picks.add((int(rng.integers(spec.rows)), int(rng.integers(spec.cols))))
    sampled = {(r, c): truth.rho[r, c] for r, c in sorted(picks)}
    artifacts.write_truth_sidecar(out / "truth.csv", truth.grid, truth.alpha, truth.norm, sampled)
    click.echo(f"wrote {out / 'scene.hdr'} and {out / 'truth.csv'}")


# -- train -------------------------------------------------------------------

@main.command()
@click.option("--cube", "cube_paths", multiple=True, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["supervised", "unsupervised"]), default=None)
@click.option("--roi", "roi_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--ensemble", "n_runs", default=1, show_default=True)
@click.option("--reshuffle/--no-reshuffle", default=True, show_default=True, help="redraw data splits per ensemble member")
@click.option("--seed", default=None, type=int)
# Accepted and ignored, so that existing command lines still run: members
# train one after another in this process.
@click.option("--threads", default=1, hidden=True, expose_value=False)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_fail_cleanly
def train(cube_paths, mode, roi_path, config_path, n_runs, reshuffle, seed, out_dir):
    """Train transmission models; writes norm.json, model_NNN.json, run_NNN.json."""
    if n_runs < 1:
        raise ConfigError(f"--ensemble must be at least 1, got {n_runs}")
    config, pixel_fraction = _train_config_from_file(config_path, mode=mode, seed=seed)
    cubes = _open_cubes(cube_paths)
    cube = cubes[0]
    if config.mode == "supervised":
        if not roi_path:
            raise ConfigError("supervised training requires --roi with reference spectra")
        parts = [_roi_references(c, artifacts.read_roi(roi_path, c.rows, c.cols)) for c in cubes]
        coords = [rc for rc, _ in parts]
        rho = np.concatenate([truth for _, truth in parts])
    else:
        total = sum(c.rows * c.cols for c in cubes)
        n_pixels = max(3, round(pixel_fraction * total))
        coords = [
            sample_coords(c.rows, c.cols, max(1, round(n_pixels * c.rows * c.cols / total)), config.seed)
            for c in cubes
        ]
        rho = None
    # One pass over each cube gives its training pixels and its per-band
    # minima and maxima, which give the same (C, m) as all its pixels.
    scans = [c.extrema_and_pixels(rc) for c, rc in zip(cubes, coords)]
    norm = estimate_normalization(np.concatenate([extrema for extrema, _ in scans]))
    l4 = np.concatenate([pixels for _, pixels in scans])
    if not len(l4):
        raise InvalidDatasetError("no ROI pixels carry reference spectra")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts.write_normalization(out / "norm.json", norm)

    trained = []
    for i, run in enumerate(ensemble(config, l4, norm, n_runs, rho=rho, reshuffle=reshuffle)):
        if isinstance(run, DinsatError):
            click.echo(f"run {i} failed: {run}", err=True)
            continue
        artifacts.write_model(out / f"model_{i:03d}.json", run.model, cube.grid)
        artifacts.write_run_record(out / f"run_{i:03d}.json", run)
        trained.append(run)
    click.echo(
        f"trained {len(trained)}/{n_runs} model(s) -> {out} "
        f"({'converged' if all(r.converged for r in trained) else 'epoch limit reached'})"
    )


# -- correct -----------------------------------------------------------------

def _row_shares(rows: int, n: int) -> list[range]:
    """``rows`` image rows as ``min(n, rows)`` contiguous ranges whose lengths differ by at most one."""
    n = min(n, rows)
    bounds = [k * rows // n for k in range(n + 1)]
    return [range(r0, r1) for r0, r1 in zip(bounds, bounds[1:])]


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot tell them or fork workers (macOS, Windows)."""
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0))


# The share function of a `correct` worker, set only in the worker by the
# pool's initializer. Under fork the initializer's arguments are inherited, not
# pickled, and the pool forks every worker before it starts its own thread.
_share_work = None


def _inherit_work(work) -> None:
    global _share_work
    _share_work = work


def _run_share(share):
    return _share_work(share)


def _fan_out(work, shares: list) -> list:
    """``work(share)`` for each share: one share in this process, two or more each in a forked pool worker.

    Only each share's range goes to a worker, and only its result or
    exception comes back; ``work`` itself, with the cube and the writers it
    holds, is inherited by fork. Returns the results in share order. If
    several shares fail, the first failing share's exception is raised, and
    a worker that dies without a result is a DinsatError. Leaving the pool
    waits for every worker, so all have ended before this returns or raises.
    """
    if len(shares) == 1:
        return list(map(work, shares))
    with ProcessPoolExecutor(len(shares), mp_context=multiprocessing.get_context("fork"),
                             initializer=_inherit_work, initargs=(work,)) as pool:
        try:
            return list(pool.map(_run_share, shares))
        except BrokenProcessPool as e:
            raise DinsatError(f"a worker process ended without a result: {e}") from e


# Pixels per `correct_batch` call: whole image rows, at least one, that make
# about this many pixels. A stepped solve then pays its per-call and
# per-stage overhead once for several rows, and its arrays stay small.
PX_PER_CALL = 512


def _correct_rows(cube, model, norm, writers, rows: range) -> int:
    """Correct the image rows ``rows`` into the two writers; returns how many values the read clamped.

    Each ``correct_batch`` call takes a group of rows within a block. If a
    group fails, its rows are corrected again one at a time, so the error
    raised is the first failing row's own.
    """
    rho_out, mask_out = writers
    per_call = max(1, PX_PER_CALL // cube.cols)
    for r0, block in cube.blocks(rows.start, rows.stop):
        # Laid out like the reader's block: a BSQ cube's block is already
        # in the writers' file order, so they write it without a transpose.
        rho = np.empty_like(block, dtype=np.float32)
        mask = np.empty_like(block, dtype=np.uint16)
        for i in range(0, len(block), per_call):
            group = slice(i, i + per_call)
            try:
                correct_batch(model, norm, block[group], out=(rho[group], mask[group]))
            except DinsatError:
                for r in range(*group.indices(len(block))):
                    correct_batch(model, norm, block[r], out=(rho[r], mask[r]))
        rho_out.write_rows(r0, rho)
        mask_out.write_rows(r0, mask)
    return cube.clamped


@main.command()
@click.option("--cube", "cube_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--norm", "norm_path", type=click.Path(exists=True, dir_okay=False), help="norm.json; default: estimated from the cube")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_fail_cleanly
def correct(cube_path, model_path, norm_path, out_dir):
    """Whole-cube atmospheric correction.

    Writes corrected.hdr/.img (float32 BSQ reflectance, input wavelengths
    propagated) and quality_mask.hdr/.img (uint16; bit 1 = transmittance
    floored, bit 2 = reflectance outside [0, 1]).

    The cube streams through in row blocks, and each ``correct_batch``
    takes as many whole rows of a block as make about PX_PER_CALL pixels,
    at least one. Where the model's inverse is costly (a stepped reverse
    solve), that solve runs in float32, the precision written, and the rows
    are split into contiguous shares of nearly equal length, one per CPU
    this process may run on and at most one per row. Two or more shares run
    in a forked process pool, one worker per share, while this process
    waits; each worker reads its own rows in blocks and writes them into the
    two preallocated images. One share, or a platform that cannot fork or
    tell the CPUs it may run on, leaves every row to this process. Once
    every worker has ended, a failure in any share deletes both images and
    reports the error of the first failing share. Each share stops at its
    first failing row, whether the row fails to correct (a failing group of
    rows is corrected again row by row) or holds a non-finite radiance
    (named by its pixel), so the report is the cube's first failing row's,
    whatever the CPU count. The images' bytes depend neither on the rows per
    call nor on the CPU count.
    """
    cube = envi.open_envi(cube_path)
    model, norm = _model_and_norm(model_path, norm_path, cube.n_bands, "cube")
    if norm is None:
        norm = estimate_normalization(cube.band_extrema())
    model.t1  # computed once, before any worker is forked
    shares = _row_shares(cube.rows, _cpus() if model.costly_inverse else 1)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shape, wl = (cube.rows, cube.cols, cube.n_bands), cube.grid.wavelengths_nm
    with envi.EnviWriter(
        out / "corrected.hdr", shape, wavelengths_nm=wl,
        data_type=4, description="dinsat corrected reflectance",
    ) as rho_out, envi.EnviWriter(
        out / "quality_mask.hdr", shape, wavelengths_nm=wl,
        data_type=12, description="dinsat quality mask",
    ) as mask_out:
        work = functools.partial(_correct_rows, cube, model, norm, (rho_out, mask_out))
        cube.report_clamped(sum(_fan_out(work, shares)))
    click.echo(f"wrote {out / 'corrected.hdr'} and {out / 'quality_mask.hdr'}")


# -- simulate ----------------------------------------------------------------

@main.command()
@click.option("--spectrum", "spectrum_path", required=True, type=click.Path(exists=True, dir_okay=False), help="two-column reflectance CSV")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--norm", "norm_path", type=click.Path(exists=True, dir_okay=False), help="norm.json; default: c=0, m=1")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_fail_cleanly
def simulate(spectrum_path, model_path, norm_path, out_path):
    """Predict at-sensor radiance from a library reflectance spectrum (CSV out)."""
    grid, rho = artifacts.read_spectrum_csv(spectrum_path, "reflectance")
    model, norm = _model_and_norm(model_path, norm_path, rho.n_bands, "spectrum")
    if norm is None:
        norm = SceneNormalization.identity(rho.n_bands)
    l4 = simulate_values(model, norm, rho.values)
    artifacts.write_spectrum_csv(out_path, grid, Spectrum(l4, "radiance"))
    click.echo(f"wrote {out_path}")


# -- eval --------------------------------------------------------------------

@main.command(name="eval")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--cube", "cube_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--roi", "roi_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--library", "library_path", type=click.Path(exists=True, dir_okay=False), help="reference reflectance CSV for the radiance-direction metric")
@click.option("--norm", "norm_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_fail_cleanly
def eval_cmd(model_path, cube_path, roi_path, library_path, norm_path, out_path):
    """Percent-MSE metrics per ROI region; CSV columns: region,metric,value."""
    cube = envi.open_envi(cube_path)
    model, norm = _model_and_norm(model_path, norm_path, cube.n_bands, "cube")
    roi = artifacts.read_roi(roi_path, cube.rows, cube.cols)
    library = None
    if library_path:
        library = artifacts.read_spectrum_csv(library_path, "reflectance")[1].values
        _check_bands("library spectrum", library.size, "cube", cube.n_bands)
    references = {name: _reference_rows(cube, roi, name) for name in roi.regions}

    # One pass over the cube gives every region's pixels and, without --norm,
    # the per-band extrema that give (C, m), as in train.
    extrema, l4 = cube.extrema_and_pixels(np.concatenate(tuple(roi.regions.values())))
    if norm is None:
        norm = estimate_normalization(extrema)
    library_radiance = simulate_values(model, norm, library) if library is not None else None
    ends = np.cumsum([len(region) for region in roi.regions.values()])[:-1]

    regions = list(zip(np.split(l4, ends), references.values()))
    rows = []
    for name, metrics in zip(references, evaluate_regions(model, norm, regions, library_radiance)):
        rows += [(name, key, metrics[key]) for key in ("reflectance_percent_mse", "radiance_percent_mse")
                 if key in metrics]
        for warning in metrics["warnings"]:
            click.echo(f"{name}: {warning}", err=True)
    artifacts.write_csv(out_path, ["region", "metric", "value"], zip(*rows))
    click.echo(f"wrote {out_path}")


# -- report ------------------------------------------------------------------

@main.command()
@click.option("--runs", "runs_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_fail_cleanly
def report(runs_dir, out_dir):
    """Plot-ready CSVs from a train output directory.

    transmittance_stats.csv: band,wavelength_nm,mean,std
    loss_curves.csv:         run,epoch,train_loss,val_loss (val_loss empty without a validation split)
    roi_spectra.csv:         run,band,wavelength_nm,reflectance
    """
    runs_dir = Path(runs_dir)
    record_paths = sorted(runs_dir.glob("run_*.json"))
    if not record_paths:
        raise InvalidDatasetError(f"no run_*.json records in {runs_dir}")
    records = [artifacts.read_run_record(p) for p in record_paths]

    model_paths = sorted(runs_dir.glob("model_*.json"))
    grid = artifacts.read_model(model_paths[0])[2] if model_paths else None
    wavelengths = None if grid is None else grid.wavelengths_nm

    # Every per-band vector, and the model's wavelengths, must have one length.
    lengths = {}
    for path, rec in zip(record_paths, records):
        for key in ("transmittance", "roi_reflectance"):
            if rec[key] is not None:
                lengths.setdefault(len(rec[key]), f"{path.name} {key}")
    if wavelengths is not None and lengths:
        lengths.setdefault(len(wavelengths), f"{model_paths[0].name} wavelengths_nm")
    if len(lengths) > 1:
        raise InvalidDatasetError(
            "band counts disagree: " + ", ".join(f"{where} has {n}" for n, where in lengths.items())
        )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # The wavelength of each band: the model's, or nan without them.
    wl = wavelengths if wavelengths is not None else np.full(next(iter(lengths), 0), np.nan)

    t_stack = np.array([rec["transmittance"] for rec in records if rec["transmittance"] is not None])
    if t_stack.size:
        artifacts.write_csv(out / "transmittance_stats.csv", ["band", "wavelength_nm", "mean", "std"],
                            [range(len(wl)), wl, t_stack.mean(axis=0), t_stack.std(axis=0)])
    artifacts.write_csv(out / "loss_curves.csv", ["run", "epoch", "train_loss", "val_loss"],
                        zip(*[(i, entry["epoch"], entry["train_loss"], entry.get("val_loss"))
                              for i, rec in enumerate(records) for entry in rec["history"]]))
    artifacts.write_csv(out / "roi_spectra.csv", ["run", "band", "wavelength_nm", "reflectance"],
                        zip(*[(i, b, w, value) for i, rec in enumerate(records) if rec["roi_reflectance"] is not None
                              for b, (w, value) in enumerate(zip(wl, rec["roi_reflectance"]))]))
    click.echo(f"wrote report CSVs -> {out}")


if __name__ == "__main__":
    main()

"""File formats: model artifacts, CSV files, ROI files, run records, configs."""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .correction import SceneNormalization
from .errors import ConfigError, ParseError, ShapeError
from .ode import SolverConfig
from .training import TrainRun
from .transmission import DEFAULT_HIDDEN, DEFAULT_LATENT, LinearProfile, NonlinearProfile, Profile
from .types import Spectrum, Unit, WavelengthGrid

MODEL_FORMAT = "dinsat-model"
MODEL_VERSION = 1


# -- reading files -----------------------------------------------------------

def _read_text(path: Path, what: str, error=ParseError) -> str:
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise error(f"cannot read {what} {path}: {e}") from e


def _read_json(path: str | Path, what: str, build):
    """``build(doc)`` for the JSON object ``doc`` in ``path``.

    Raises ParseError naming the file when it is unreadable or not a JSON
    object, or when ``build`` meets a missing key (KeyError), an ill-typed
    value (TypeError, ValueError) or a value that the object it builds
    rejects (ConfigError, as from SolverConfig or SceneNormalization;
    ShapeError, as from a profile given a non-finite parameter).
    """
    path = Path(path)
    try:
        doc = json.loads(_read_text(path, what))
    except json.JSONDecodeError as e:
        raise ParseError(f"cannot read {what} {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{path} is not a {what}: expected a JSON object")
    try:
        return build(doc)
    except KeyError as e:
        raise ParseError(f"{path} is not a {what}: no {e}") from e
    except (TypeError, ValueError, ConfigError, ShapeError) as e:
        raise ParseError(f"{path}: bad {what}: {e}") from e


def _number(value) -> float:
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """A JSON integer; ``true`` and ``false`` are not sizes."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _floats(value) -> np.ndarray:
    """A JSON list of numbers as a float vector."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return np.array([_number(v) for v in value])


# -- model artifacts ---------------------------------------------------------

def write_model(
    path: str | Path,
    model: Profile,
    grid: Optional[WavelengthGrid] = None,
) -> None:
    """JSON artifact: header, the model's solver and its flat parameter vector, exact round trip."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind,
        "n_bands": model.n_bands,
        "solver": asdict(model.solver),
        "wavelengths_nm": None if grid is None else [float(w) for w in grid.wavelengths_nm],
        "params": [float(p) for p in model.params],
    }
    if model.kind == "nonlinear":
        doc["hidden"] = model.hidden
        doc["latent"] = model.latent
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def read_model(path: str | Path) -> tuple[Profile, SolverConfig, Optional[WavelengthGrid]]:
    """(model, the model's solver, wavelength grid or None) from a model artifact of version 1."""

    def build(doc: dict):
        if doc.get("format") != MODEL_FORMAT:
            raise ParseError(f"{path} is not a model artifact")
        if type(doc["version"]) is not int or doc["version"] != MODEL_VERSION:
            raise ParseError(f"{path}: model version {json.dumps(doc['version'])} is not {MODEL_VERSION}")
        n_bands, params = _integer(doc["n_bands"]), _floats(doc["params"])
        solver = SolverConfig(**doc["solver"])
        if doc.get("kind") == "linear":
            model: Profile = LinearProfile(params, solver)
        elif doc.get("kind") == "nonlinear":
            hidden, latent = _integer(doc.get("hidden", DEFAULT_HIDDEN)), _integer(doc.get("latent", DEFAULT_LATENT))
            model = NonlinearProfile(params, n_bands, hidden, latent, solver)
        else:
            raise ParseError(f"{path}: unknown model kind {doc.get('kind')!r}")
        if model.n_bands != n_bands:
            raise ParseError(f"{path}: n_bands is {n_bands}, the parameters give {model.n_bands}")
        wl = doc.get("wavelengths_nm")
        return model, model.solver, WavelengthGrid(_floats(wl)) if wl else None

    return _read_json(path, "model artifact", build)


# -- CSV files ---------------------------------------------------------------

_FLOATS = (float, np.floating)


def _cell(value) -> str:
    """A CSV cell: a Python or numpy float is its shortest round-trip repr, None is empty, anything else ``str``."""
    if isinstance(value, _FLOATS):
        return repr(float(value))
    return "" if value is None else str(value)


def write_csv(path: str | Path, header, columns) -> None:
    """A CSV of the column names ``header`` and one line per row; every line ends in a newline.

    ``columns`` holds one sequence of cells per name, all of one length (no
    sequences for a table without rows; ``zip(*rows)`` turns rows into
    columns). A float ndarray column is formatted whole, each value as
    ``_cell`` would; every other cell goes through ``_cell``.
    """
    cells = [map(repr, col.tolist()) if isinstance(col, np.ndarray) and col.dtype.kind == "f" else map(_cell, col)
             for col in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells, strict=True)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_spectrum_csv(path: str | Path, grid: WavelengthGrid, spectrum: Spectrum) -> None:
    if spectrum.n_bands != grid.n_bands:
        raise ParseError("spectrum length does not match wavelength grid")
    write_csv(path, ["wavelength_nm", "value"], [grid.wavelengths_nm, spectrum.values])


def read_spectrum_csv(path: str | Path, unit: Unit = "unitless") -> tuple[WavelengthGrid, Spectrum]:
    """Two-column CSV (wavelength_nm, value) with one header line."""
    path = Path(path)
    raw_lines = _read_text(path, "spectrum").splitlines()
    if not raw_lines:
        raise ParseError(f"{path}: empty spectrum file")
    wavelengths, values = [], []
    for lineno, line in enumerate(raw_lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 columns, got {len(fields)}")
        try:
            wavelengths.append(float(fields[0]))
            values.append(float(fields[1]))
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: {e}") from e
    if len(values) < 2:
        raise ParseError(f"{path}: need at least 2 bands")
    if np.any(np.diff(wavelengths) <= 0):
        raise ParseError(f"{path}: wavelengths must be strictly increasing")
    return WavelengthGrid(np.array(wavelengths)), Spectrum(np.array(values), unit)


# -- ROI files ---------------------------------------------------------------

@dataclass(frozen=True)
class RoiFile:
    """Named pixel regions with optional per-region reference spectrum paths."""

    regions: dict[str, tuple[tuple[int, int], ...]]
    references: dict[str, Path] = field(default_factory=dict)


def read_roi(
    path: str | Path, rows: Optional[int] = None, cols: Optional[int] = None
) -> RoiFile:
    """CSV rows: region_name,row,col[,reference_csv_path]."""
    path = Path(path)
    raw_lines = _read_text(path, "ROI file").splitlines()
    regions: dict[str, list[tuple[int, int]]] = {}
    references: dict[str, Path] = {}
    # (line number, text) of each line that is neither blank nor a comment;
    # the first of them may be the header.
    lines = [(n, line) for n, line in enumerate(map(str.strip, raw_lines), start=1) if line and not line.startswith("#")]
    if lines and lines[0][1].lower().replace(" ", "").startswith("region_name,row,col"):
        del lines[0]
    for lineno, line in lines:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) not in (3, 4):
            raise ParseError(f"{path}:{lineno}: expected 3 or 4 columns")
        name = fields[0]
        try:
            r, c = int(fields[1]), int(fields[2])
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: {e}") from e
        if rows is not None and not (0 <= r < rows and 0 <= c < cols):
            raise ParseError(f"{path}:{lineno}: pixel ({r},{c}) outside cube bounds")
        regions.setdefault(name, []).append((r, c))
        if len(fields) == 4 and fields[3]:
            ref = Path(fields[3])
            if not ref.is_absolute():
                ref = path.parent / ref
            previous = references.get(name)
            if previous is not None and previous != ref:
                raise ParseError(f"{path}:{lineno}: conflicting reference for region {name!r}")
            references[name] = ref
    if not regions:
        raise ParseError(f"{path}: no regions defined")
    return RoiFile({k: tuple(v) for k, v in regions.items()}, references)


# -- flat key = value configs ------------------------------------------------

def read_kv_config(path: str | Path) -> dict[str, str]:
    path = Path(path)
    raw_lines = _read_text(path, "config", ConfigError).splitlines()
    out: dict[str, str] = {}
    for lineno, line in enumerate(raw_lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


# -- normalization and run records -------------------------------------------

def write_normalization(path: str | Path, norm: SceneNormalization) -> None:
    doc = {"c": [float(v) for v in norm.c], "m": float(norm.m)}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def read_normalization(path: str | Path) -> SceneNormalization:
    return _read_json(
        path, "normalization", lambda doc: SceneNormalization(_floats(doc["c"]), _number(doc["m"]))
    )


def write_run_record(path: str | Path, run: TrainRun) -> None:
    """The run's config, split, history and outcome, its model's T(1) and its ROI reflectance as JSON."""
    doc = {
        "config": asdict(run.config),
        "split": {"train": list(run.split.train), "val": list(run.split.val), "test": list(run.split.test)},
        "history": run.history,
        "converged": run.converged,
        "epochs": run.epochs,
        "wall_time_s": run.wall_time,
        "transmittance": [float(v) for v in run.model.t1],
        "roi_reflectance": [float(v) for v in run.roi_reflectance],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def read_run_record(path: str | Path) -> dict:
    """The record as a dict; ``transmittance`` and ``roi_reflectance`` are float vectors or None.

    Each history entry must be an object with an integer ``epoch``, a number
    ``train_loss`` and, unless it is absent or null, a number ``val_loss``.
    """

    def build(doc: dict) -> dict:
        for entry in doc["history"]:  # an entry that is not an object raises TypeError here
            _integer(entry["epoch"])
            _number(entry["train_loss"])
            if entry.get("val_loss") is not None:
                _number(entry["val_loss"])
        for key in ("transmittance", "roi_reflectance"):
            doc[key] = None if doc.get(key) is None else _floats(doc[key])
        return doc

    return _read_json(path, "run record", build)


# -- synthetic truth sidecar -------------------------------------------------

def write_truth_sidecar(
    path: str | Path,
    grid: WavelengthGrid,
    alpha: np.ndarray,
    norm: SceneNormalization,
    sampled_rho: dict[tuple[int, int], np.ndarray],
) -> None:
    """CSV with per-band truth: alpha, dark offset, m, and sampled reflectance."""
    pixel_keys = sorted(sampled_rho)
    header = ["wavelength_nm", "alpha_true", "c", "m"] + [f"rho_{r}_{c}" for r, c in pixel_keys]
    columns = [grid.wavelengths_nm, alpha, norm.c, [norm.m] * grid.n_bands, *(sampled_rho[k] for k in pixel_keys)]
    write_csv(path, header, columns)


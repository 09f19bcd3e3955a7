"""The two benchmark workloads and the fixed-seed input files they run on.

Every input is made from the workload seed alone. The program under test
receives only the files written here; the synthetic truth reflectance is kept
beside them (as a BSQ-ordered ``.npy``) for the benchmark's own checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    cols: int
    bands: int
    # "f8-bsq": float64 band-sequential, as `dinsat synth` writes it.
    # "u2-bil": uint16 band-interleaved-by-line with per-band gains, as a
    # real sensor delivers it; reading it exercises the strided and gain path.
    layout: str
    mode: str
    model_kind: str
    epochs: int
    lr: float
    ensemble: int = 1
    threads: int = 1
    roi_pixels: int = 0  # single-pixel supervised regions; 0 for unsupervised


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="linear-unsup-512",
            why=(
                "ENVI I/O, whole-cube normalization and the many-epoch linear "
                "unsupervised 2-member ensemble (process fan-out) dominate; mlp does no work"
            ),
            rows=512, cols=512, bands=126, layout="f8-bsq",
            # lr 0.2: in 300 epochs the ensemble gets about as close to the truth
            # as criterion 6's 1200 epochs at 0.05; at 0.05 it stays under-trained
            # and some seeds end near the refl_pmse limit.
            mode="unsupervised", model_kind="linear", epochs=300, lr=0.2,
            ensemble=2, threads=2,
        ),
        Workload(
            name="nonlinear-sup-128",
            why=(
                "the nonlinear ODE right-hand side (mlp + sigmoid) dominates supervised "
                "training and whole-cube correction; input is uint16 BIL with gains"
            ),
            rows=128, cols=128, bands=126, layout="u2-bil",
            mode="supervised", model_kind="nonlinear", epochs=40, lr=0.01,
            roi_pixels=145,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    cube: Path
    config: Path
    truth: Path  # (bands, rows, cols) float64 reflectance
    roi: Optional[Path]
    wavelengths_nm: np.ndarray


def _train_config(w: Workload, seed: int) -> str:
    # patience == max_epochs: early stopping never fires, so every run
    # does exactly `epochs` epochs and runs of one seed do identical work.
    return (
        f"mode = {w.mode}\n"
        f"model_kind = {w.model_kind}\n"
        f"max_epochs = {w.epochs}\n"
        f"lr = {w.lr!r}\n"
        f"patience = {w.epochs}\n"
        f"seed = {seed}\n"
    )


def _write_u2_bil(envi, cube, hdr: Path) -> None:
    """Quantize radiance to uint16 with one gain per band; append the gains."""
    gain = cube.data.max(axis=(0, 1)) / 65000.0
    counts = np.rint(cube.data / gain).astype(np.uint16)
    envi.write_envi_array(
        counts, hdr, wavelengths_nm=cube.grid.wavelengths_nm,
        interleave="bil", data_type=12, description="bench uint16 radiance",
    )
    with hdr.open("a") as f:
        f.write("data gain values = {" + ", ".join(repr(float(g)) for g in gain) + "}\n")


def write_inputs(w: Workload, seed: int, out: Path) -> Inputs:
    """Synthesize the workload's scene and write every file the CLI reads."""
    from dinsat import artifacts, envi
    from dinsat.synth import SynthSpec, synth_scene
    from dinsat.types import Spectrum

    out.mkdir(parents=True, exist_ok=True)
    cube, truth = synth_scene(SynthSpec(rows=w.rows, cols=w.cols, n_bands=w.bands), seed)
    hdr = out / "scene.hdr"
    if w.layout == "u2-bil":
        _write_u2_bil(envi, cube, hdr)
    else:
        envi.write_envi(cube, hdr, data_type=5)
    truth_path = out / "truth_bsq.npy"
    np.save(truth_path, np.ascontiguousarray(truth.rho.transpose(2, 0, 1)))

    config = out / "train.txt"
    config.write_text(_train_config(w, seed))

    roi = None
    if w.roi_pixels:
        rng = np.random.default_rng(seed)
        picks = rng.choice(w.rows * w.cols, size=w.roi_pixels, replace=False)
        lines = ["region_name,row,col,reference"]
        for i, flat in enumerate(picks):
            r, c = divmod(int(flat), w.cols)
            ref = f"ref_{i:03d}.csv"
            artifacts.write_spectrum_csv(
                out / ref, truth.grid, Spectrum(truth.rho[r, c], "reflectance")
            )
            lines.append(f"px{i:03d},{r},{c},{ref}")
        roi = out / "roi.csv"
        roi.write_text("\n".join(lines) + "\n")
    return Inputs(hdr, config, truth_path, roi, cube.grid.wavelengths_nm)

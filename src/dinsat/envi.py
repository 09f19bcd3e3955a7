"""ENVI header/data pair reader and writer (BSQ, BIL, BIP).

Cube data moves in blocks of whole image rows, in the file's own layout, so
no command holds a whole cube in memory. `open_envi` returns an `EnviCube`:
the header, the wavelength grid and a reader that yields row blocks or reads
single pixels. Every read converts to float64, applies the uint16 gain and
offset, rejects non-finite values and clamps negative radiance to 0.
`EnviWriter` writes row blocks into a new pair. `read_envi` and
`write_envi_array` are the whole-cube forms of the two.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    CorruptFileError,
    ParseError,
    ShapeError,
    UnsupportedFormatError,
)
from .types import HyperCube, WavelengthGrid, check_coords

log = logging.getLogger(__name__)

INTERLEAVES = ("bsq", "bil", "bip")

# ENVI data type code -> numpy dtype character (endianness applied separately).
DTYPE_CODES = {4: "f4", 5: "f8", 12: "u2"}
DTYPE_TO_CODE = {np.dtype("float32"): 4, np.dtype("float64"): 5, np.dtype("uint16"): 12}

DEFAULT_WL_START = 450.0
DEFAULT_WL_END = 2500.0

# Bytes of float64 (rows, cols, bands) data per row block. A reader or writer
# holds buffers of about this size, whatever the size of the cube.
BLOCK_BYTES = 4 << 20

# For each interleave, the canonical axis (0 row, 1 column, 2 band) at each
# axis of the file, outermost first.
_FILE_AXES = {"bsq": (2, 0, 1), "bil": (0, 2, 1), "bip": (0, 1, 2)}


@dataclass
class EnviHeader:
    samples: int
    lines: int
    bands: int
    interleave: str
    data_type: int
    byte_order: int = 0
    header_offset: int = 0
    wavelengths_nm: Optional[np.ndarray] = None
    data_gain: Optional[np.ndarray] = None
    data_offset: Optional[np.ndarray] = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if min(self.samples, self.lines, self.bands) < 1:
            raise ParseError("header dimensions must be positive")
        if self.interleave not in INTERLEAVES:
            raise UnsupportedFormatError(f"unknown interleave: {self.interleave!r}")
        if self.data_type not in DTYPE_CODES:
            raise UnsupportedFormatError(
                f"unsupported ENVI data type {self.data_type}; supported: 4, 5, 12"
            )
        if self.byte_order not in (0, 1):
            raise ParseError(f"byte order must be 0 or 1, got {self.byte_order}")
        if self.wavelengths_nm is not None and len(self.wavelengths_nm) != self.bands:
            raise ParseError(
                f"wavelength list has {len(self.wavelengths_nm)} entries for "
                f"{self.bands} bands"
            )

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(("<" if self.byte_order == 0 else ">") + DTYPE_CODES[self.data_type])


def _parse_header_text(text: str) -> dict:
    entries: dict[str, str] = {}
    lines = text.splitlines()
    if lines and lines[0].strip().upper() != "ENVI":
        raise ParseError("missing ENVI magic on header line 1")
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith(";"):
            continue
        if "=" not in line:
            raise ParseError(f"malformed header line {i}: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if value.startswith("{"):
            while "}" not in value and i < len(lines):
                value += " " + lines[i].strip()
                i += 1
            if "}" not in value:
                raise ParseError(f"unterminated brace list for header key {key!r}")
            value = value.strip("{}").strip()
        entries[key] = value
    return entries


def _float_list(raw: str, key: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in raw.split(",") if v.strip()])
    except ValueError as e:
        raise ParseError(f"bad numeric list for header key {key!r}: {e}") from e


def read_envi_header(path: str | Path) -> EnviHeader:
    path = Path(path)
    try:
        entries = _parse_header_text(path.read_text())
    except OSError as e:
        raise CorruptFileError(f"cannot read header {path}: {e}") from e

    def need_int(key: str) -> int:
        if key not in entries:
            raise ParseError(f"header {path} missing required key {key!r}")
        try:
            return int(entries[key])
        except ValueError as e:
            raise ParseError(f"header key {key!r} is not an integer") from e

    wl = None
    if "wavelength" in entries:
        wl = _float_list(entries["wavelength"], "wavelength")
    gain = _float_list(entries["data gain values"], "data gain values") if "data gain values" in entries else None
    offs = _float_list(entries["data offset values"], "data offset values") if "data offset values" in entries else None
    return EnviHeader(
        samples=need_int("samples"),
        lines=need_int("lines"),
        bands=need_int("bands"),
        interleave=entries.get("interleave", "bsq").strip().lower(),
        data_type=need_int("data type"),
        byte_order=int(entries.get("byte order", "0")),
        header_offset=int(entries.get("header offset", "0")),
        wavelengths_nm=wl,
        data_gain=gain,
        data_offset=offs,
    )


def guess_data_path(header_path: str | Path) -> Path:
    header_path = Path(header_path)
    for ext in (".img", ".dat", ".bin", ".raw", ""):
        candidate = header_path.with_suffix(ext)
        if candidate != header_path and candidate.exists():
            return candidate
    raise CorruptFileError(f"no data file found next to header {header_path}")


def _block_rows(cols: int, bands: int) -> int:
    return max(1, BLOCK_BYTES // (cols * bands * 8))


def _runs(interleave: str, shape, lo, hi) -> tuple[np.ndarray, int]:
    """Contiguous runs of the file that hold the box lo <= (row, col, band) < hi.

    Returns the element offset of each run and their common length. Taken in
    order, the runs fill a C-ordered array of the box in file order.
    """
    axes = _FILE_AXES[interleave]
    dims = [shape[a] for a in axes]
    start = [lo[a] for a in axes]
    span = [hi[a] - lo[a] for a in axes]
    strides = [dims[1] * dims[2], dims[2], 1]
    k, run = 2, span[2]
    while k > 0 and span[k] == dims[k]:  # a whole axis joins the run of the next one out
        k -= 1
        run *= span[k]
    offsets = np.array(sum(a * b for a, b in zip(start, strides)))
    for j in range(k):
        offsets = np.add.outer(offsets, np.arange(span[j]) * strides[j])
    return offsets.ravel(), run


def _read_exact(f, offset: int, buf: memoryview) -> None:
    f.seek(offset)
    while buf:
        n = f.readinto(buf)
        if not n:
            raise CorruptFileError(f"{f.name}: file ended while reading")
        buf = buf[n:]


def _write_all(f, offset: int, buf: memoryview) -> None:
    f.seek(offset)
    while buf:
        buf = buf[f.write(buf):]


class EnviCube:
    """An ENVI pair open for reading: header, wavelength grid and row-block reader.

    Reads return float64 radiance in the canonical (rows, cols, bands) order,
    as views of arrays laid out like the file. A non-finite value raises
    ShapeError; negative values are clamped to 0, and the first read that
    clamps any logs one warning with the count it clamped.
    """

    def __init__(self, header: EnviHeader, data_path: Path, grid: WavelengthGrid):
        self.header, self.data_path, self.grid = header, data_path, grid
        self._scale = None
        if header.data_type == 12 and (header.data_gain is not None or header.data_offset is not None):
            gain = header.data_gain if header.data_gain is not None else np.ones(header.bands)
            offset = header.data_offset if header.data_offset is not None else np.zeros(header.bands)
            if len(gain) != header.bands or len(offset) != header.bands:
                raise ParseError("gain/offset lists must have one entry per band")
            self._scale = (gain, offset)
        self._raw = None  # reused read buffer, in the file's bytes
        self._clamp_reported = False

    @property
    def rows(self) -> int:
        return self.header.lines

    @property
    def cols(self) -> int:
        return self.header.samples

    @property
    def n_bands(self) -> int:
        return self.header.bands

    @property
    def block_rows(self) -> int:
        return _block_rows(self.cols, self.n_bands)

    def _empty(self, rows: int) -> np.ndarray:
        """An uninitialised (rows, cols, bands) float64 array laid out like the file."""
        axes = _FILE_AXES[self.header.interleave]
        shape = (rows, self.cols, self.n_bands)
        return np.empty([shape[a] for a in axes]).transpose(np.argsort(axes))

    def blocks(self, out: Optional[np.ndarray] = None):
        """Yield (first row, block) for each row block, top to bottom.

        Blocks go into ``out[first row:]`` when it is given; otherwise every
        block reuses one buffer, so a block is valid until the next is read.
        """
        step = self.block_rows
        buf = self._empty(step) if out is None else None
        clamped = 0
        with open(self.data_path, "rb", buffering=0) as f:
            for r0 in range(0, self.rows, step):
                r1 = min(r0 + step, self.rows)
                block = out[r0:r1] if out is not None else buf[: r1 - r0]
                clamped += self._read_box(f, (r0, 0, 0), (r1, self.cols, self.n_bands), block)
                yield r0, block
        self._report_clamped(clamped)

    def band_extrema(self) -> np.ndarray:
        """(2, bands): each band's minimum and maximum, folded over the row blocks."""
        lo = np.full(self.n_bands, np.inf)
        hi = np.full(self.n_bands, -np.inf)
        for _, block in self.blocks():
            np.minimum(lo, block.min(axis=(0, 1)), out=lo)
            np.maximum(hi, block.max(axis=(0, 1)), out=hi)
        return np.stack([lo, hi])

    def pixels(self, coords) -> np.ndarray:
        """(n, bands) radiance at the (row, col) pairs ``coords``; reads only those pixels."""
        rc = check_coords(coords, self.rows, self.cols)
        out = np.empty((len(rc), self.n_bands))
        clamped = 0
        with open(self.data_path, "rb", buffering=0) as f:
            for i, (r, c) in enumerate(rc.tolist()):
                box = out[i].reshape(1, 1, -1)
                clamped += self._read_box(f, (r, c, 0), (r + 1, c + 1, self.n_bands), box)
        self._report_clamped(clamped)
        return out

    def _read_box(self, f, lo, hi, out: np.ndarray) -> int:
        """Read, scale and check the box lo <= (row, col, band) < hi into ``out``.

        Returns how many negative values it clamped to 0.
        """
        h = self.header
        itemsize = h.dtype.itemsize
        offsets, run = _runs(h.interleave, (self.rows, self.cols, self.n_bands), lo, hi)
        first = int(offsets[0])
        span = int(offsets[-1]) - first + run
        # Several runs that lie close together (a BIL pixel) are one read of
        # the span that covers them; the runs are gathered from it.
        gather = len(offsets) > 1 and span * itemsize <= BLOCK_BYTES
        size = (span if gather else len(offsets) * run) * itemsize
        if self._raw is None or self._raw.size < size:
            self._raw = np.empty(size, np.uint8)
        raw = memoryview(self._raw)
        values = self._raw[:size].view(h.dtype)
        if gather:
            _read_exact(f, h.header_offset + first * itemsize, raw[:size])
            values = values[(offsets - first)[:, None] + np.arange(run)]
        else:
            run_bytes = run * itemsize
            for i, offset in enumerate(offsets.tolist()):
                _read_exact(f, h.header_offset + offset * itemsize,
                            raw[i * run_bytes : (i + 1) * run_bytes])
        in_file_order = out.transpose(_FILE_AXES[h.interleave])
        np.copyto(in_file_order, values.reshape(in_file_order.shape))
        if self._scale is not None:
            out *= self._scale[0]
            out += self._scale[1]
        low, high = in_file_order.min(), in_file_order.max()  # NaN propagates
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ShapeError(f"{self.data_path}: non-finite radiance in rows {lo[0]}-{hi[0] - 1}")
        if low >= 0:
            return 0
        negative = out < 0
        out[negative] = 0.0
        return int(np.count_nonzero(negative))

    def _report_clamped(self, clamped: int) -> None:
        if clamped and not self._clamp_reported:
            self._clamp_reported = True
            log.warning("%s: clamped %d negative radiance values to 0", self.data_path, clamped)


def open_envi(header_path: str | Path, data_path: Optional[str | Path] = None) -> EnviCube:
    """Open an ENVI pair for row-block reading; checks the header and the data size."""
    header = read_envi_header(header_path)
    data_path = Path(data_path) if data_path is not None else guess_data_path(header_path)

    n_values = header.samples * header.lines * header.bands
    expected = header.header_offset + n_values * header.dtype.itemsize
    actual = os.path.getsize(data_path)
    if actual != expected:
        raise CorruptFileError(
            f"{data_path}: expected {expected} bytes "
            f"(offset {header.header_offset} + {n_values} x {header.dtype.itemsize}), found {actual}"
        )

    if header.wavelengths_nm is not None:
        grid = WavelengthGrid(header.wavelengths_nm)
    else:
        log.warning(
            "%s: no wavelength list; synthesizing a linear %g-%g nm ramp",
            header_path,
            DEFAULT_WL_START,
            DEFAULT_WL_END,
        )
        grid = WavelengthGrid.linear(header.bands, DEFAULT_WL_START, DEFAULT_WL_END)
    return EnviCube(header, data_path, grid)


def read_envi(header_path: str | Path, data_path: Optional[str | Path] = None) -> HyperCube:
    """Load an ENVI pair into the canonical (rows, cols, bands) layout, block by block."""
    cube = open_envi(header_path, data_path)
    data = cube._empty(cube.rows)
    for _ in cube.blocks(out=data):
        pass
    return HyperCube(cube.grid, data)


class EnviWriter:
    """A new ENVI pair, written in (rows, cols, bands) row blocks in file layout.

    The header is written on `close`. As a context manager the writer closes
    on success and deletes its data file if the body raises, so a failed
    command leaves no partial image behind.
    """

    def __init__(
        self,
        header_path: str | Path,
        shape: tuple[int, int, int],
        data_path: Optional[str | Path] = None,
        wavelengths_nm: Optional[np.ndarray] = None,
        interleave: str = "bsq",
        data_type: int = 4,
        description: str = "dinsat output",
    ):
        if interleave not in INTERLEAVES:
            raise ConfigError(f"unknown interleave: {interleave!r}")
        if data_type not in DTYPE_CODES:
            raise ConfigError(f"unsupported output data type code {data_type}")
        if len(shape) != 3:
            raise ConfigError("ENVI writer expects a rows x cols x bands array")
        self.shape = tuple(int(n) for n in shape)
        self.header_path = Path(header_path)
        self.data_path = Path(data_path) if data_path is not None else self.header_path.with_suffix(".img")
        self.wavelengths_nm = wavelengths_nm
        self.interleave, self.data_type, self.description = interleave, data_type, description
        self.dtype = np.dtype("<" + DTYPE_CODES[data_type])
        self._buf = None  # reused write buffer, in the file's bytes
        self._file = open(self.data_path, "wb", buffering=0)
        self._file.truncate(int(np.prod(self.shape)) * self.dtype.itemsize)

    @property
    def block_rows(self) -> int:
        return _block_rows(self.shape[1], self.shape[2])

    def write_rows(self, first_row: int, block: np.ndarray) -> None:
        """Write a (n, cols, bands) block as image rows first_row .. first_row + n - 1."""
        block = np.asarray(block)
        rows, cols, bands = self.shape
        if block.ndim != 3 or block.shape[1:] != (cols, bands) or not 0 <= first_row <= rows - len(block):
            raise ConfigError(
                f"cannot write a {block.shape} block at row {first_row} of a {self.shape} cube"
            )
        last = first_row + len(block)
        offsets, run = _runs(self.interleave, self.shape, (first_row, 0, 0), (last, cols, bands))
        in_file_order = block.transpose(_FILE_AXES[self.interleave])
        size = block.size * self.dtype.itemsize
        if self._buf is None or self._buf.size < size:
            self._buf = np.empty(size, np.uint8)
        values = self._buf[:size].view(self.dtype).reshape(in_file_order.shape)
        np.copyto(values, in_file_order, casting="unsafe")
        raw = memoryview(self._buf)
        run_bytes = run * self.dtype.itemsize
        for i, offset in enumerate(offsets.tolist()):
            _write_all(self._file, offset * self.dtype.itemsize, raw[i * run_bytes : (i + 1) * run_bytes])

    def close(self) -> None:
        """Close the data file and write the header."""
        if self._file.closed:
            return
        self._file.close()
        rows, cols, bands = self.shape
        parts = [
            "ENVI",
            f"description = {{{self.description}}}",
            f"samples = {cols}",
            f"lines = {rows}",
            f"bands = {bands}",
            "header offset = 0",
            "file type = ENVI Standard",
            f"data type = {self.data_type}",
            f"interleave = {self.interleave}",
            "byte order = 0",
        ]
        if self.wavelengths_nm is not None:
            wl = ", ".join(repr(float(w)) for w in self.wavelengths_nm)
            parts.append(f"wavelength = {{{wl}}}")
        self.header_path.write_text("\n".join(parts) + "\n")

    def __enter__(self) -> "EnviWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._file.close()
            self.data_path.unlink(missing_ok=True)


def write_envi_array(
    data: np.ndarray,
    header_path: str | Path,
    data_path: Optional[str | Path] = None,
    wavelengths_nm: Optional[np.ndarray] = None,
    interleave: str = "bsq",
    data_type: int = 4,
    description: str = "dinsat output",
) -> Path:
    """Write a (rows, cols, bands) array as an ENVI pair, block by block; returns the data path."""
    data = np.asarray(data)
    with EnviWriter(header_path, data.shape, data_path, wavelengths_nm, interleave, data_type,
                    description) as out:
        for r0 in range(0, len(data), out.block_rows):
            out.write_rows(r0, data[r0 : r0 + out.block_rows])
    return out.data_path


def write_envi(
    cube: HyperCube,
    header_path: str | Path,
    data_path: Optional[str | Path] = None,
    interleave: str = "bsq",
    data_type: int = 4,
) -> Path:
    return write_envi_array(
        cube.data,
        header_path,
        data_path,
        wavelengths_nm=cube.grid.wavelengths_nm,
        interleave=interleave,
        data_type=data_type,
    )

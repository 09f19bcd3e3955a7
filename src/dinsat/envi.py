"""ENVI header/data pair reader and writer (BSQ, BIL, BIP).

An `EnviHeader` holds a pair's geometry (shape, rows per block, file runs,
file-order view) and its text; the reader and the writer take their layout
from one.

Cube data moves in blocks of whole image rows, in the file's own layout, so
no command holds a whole cube in memory. `open_envi` returns an `EnviCube`:
the header, the wavelength grid and a reader that yields row blocks, the one
way the package reads cube data. Each block is read once, as one file run per
band for BSQ (one run for BIL, BIP and whole-cube BSQ). Every block is
converted to float64, has the header's data gain and offset values applied
(whatever its data type), and has negative radiance clamped to 0. A pass
stops at the first row that holds a non-finite value: it yields the rows
above it, then raises an error that names the first such value's row,
column and band. A pass can cover any range of rows, so forked processes
can each read their own.
`EnviCube.extrema_and_pixels` folds the per-band extrema over one pass and
picks out the pixels it is asked for as their rows go by. `EnviWriter` writes
row blocks into a new pair with the same runs. Every run is one positional
read (``os.preadv``) or write (``os.pwrite``) at its own offset, with no
``seek``: processes that share a writer's descriptor write their own rows
without racing on one file offset. Where the values already have their
destination's type and order, nothing is copied: native float64 runs are
read straight into a block laid out like the file, and a block that is
already the file's type in file order is written from its own memory.
Everything else passes through one reused buffer.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
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
from .types import HyperCube, WavelengthGrid

log = logging.getLogger(__name__)

INTERLEAVES = ("bsq", "bil", "bip")

# ENVI data type code -> numpy dtype character (endianness applied separately).
DTYPE_CODES = {4: "f4", 5: "f8", 12: "u2"}

DEFAULT_WL_START = 450.0
DEFAULT_WL_END = 2500.0

# Bytes of float64 (rows, cols, bands) data per row block. A reader or writer
# holds buffers of about this size, whatever the size of the cube.
BLOCK_BYTES = 4 << 20

# For each interleave, the canonical axis (0 row, 1 column, 2 band) at each
# axis of the file, outermost first.
_FILE_AXES = {"bsq": (2, 0, 1), "bil": (0, 2, 1), "bip": (0, 1, 2)}

# Header key -> EnviHeader field of each per-band list.
_LISTS = {"wavelength": "wavelengths_nm", "data gain values": "data_gain", "data offset values": "data_offset"}


@dataclass
class EnviHeader:
    """An ENVI header: the pair's geometry, its data layout and its per-band lists."""

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
        if self.header_offset < 0:
            raise ParseError(f"header offset must be nonnegative, got {self.header_offset}")
        for key, name in _LISTS.items():
            values = getattr(self, name)
            if values is None:
                continue
            if len(values) != self.bands:
                raise ParseError(f"{key} list has {len(values)} entries for {self.bands} bands")
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                raise ParseError(f"{key} list has a non-finite entry at band {bad[0]}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(("<" if self.byte_order == 0 else ">") + DTYPE_CODES[self.data_type])

    @property
    def shape(self) -> tuple[int, int, int]:
        """(rows, cols, bands)."""
        return self.lines, self.samples, self.bands

    @property
    def block_rows(self) -> int:
        """Image rows per block: as many as fit BLOCK_BYTES in float64, at least one."""
        return max(1, BLOCK_BYTES // (self.samples * self.bands * 8))

    def runs(self, r0: int, r1: int) -> tuple[range | list[int], int]:
        """(byte offset of each file run that holds rows r0 .. r1 - 1, header offset included; run bytes).

        In order, the runs fill a C-ordered array of the rows in file order:
        one run per band for BSQ with fewer than all rows, one run otherwise.
        """
        (rows, cols, bands), item = self.shape, self.dtype.itemsize
        if self.interleave == "bsq" and r1 - r0 < rows:
            start, band = self.header_offset + r0 * cols * item, rows * cols * item
            return range(start, start + bands * band, band), (r1 - r0) * cols * item
        return [self.header_offset + r0 * cols * bands * item], (r1 - r0) * cols * bands * item

    def file_order(self, block: np.ndarray) -> np.ndarray:
        """A view of a (rows, cols, bands) block with its axes in the file's order."""
        return block.transpose(_FILE_AXES[self.interleave])

    def text(self, description: str) -> str:
        """The header file's text, which `read_envi_header` reads back as this header."""
        parts = ["ENVI", f"description = {{{description}}}", f"samples = {self.samples}",
                 f"lines = {self.lines}", f"bands = {self.bands}", f"header offset = {self.header_offset}",
                 "file type = ENVI Standard", f"data type = {self.data_type}",
                 f"interleave = {self.interleave}", f"byte order = {self.byte_order}"]
        parts += [f"{key} = {{{', '.join(repr(float(v)) for v in getattr(self, name))}}}"
                  for key, name in _LISTS.items() if getattr(self, name) is not None]
        return "\n".join(parts) + "\n"


def _parse_header_text(text: str) -> dict:
    entries: dict[str, str] = {}
    lines = text.splitlines() or [""]
    if lines[0].strip().upper() != "ENVI":
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


def read_envi_header(path: str | Path) -> EnviHeader:
    """The header at ``path``; a ParseError or UnsupportedFormatError names the file."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise CorruptFileError(f"cannot read header {path}: {e}") from e
    try:
        return _header_from_text(text)
    except (ParseError, UnsupportedFormatError) as e:
        raise type(e)(f"header {path}: {e}") from e


def _header_from_text(text: str) -> EnviHeader:
    entries = _parse_header_text(text)

    def need_int(key: str, default: Optional[int] = None) -> int:
        if key not in entries and default is None:
            raise ParseError(f"missing required key {key!r}")
        try:
            return int(entries.get(key, default))
        except ValueError as e:
            raise ParseError(f"key {key!r} is not an integer") from e

    def floats(key: str) -> Optional[np.ndarray]:
        if key not in entries:
            return None
        try:
            return np.array([float(v) for v in entries[key].split(",") if v.strip()])
        except ValueError as e:
            raise ParseError(f"key {key!r} is not a list of numbers: {e}") from e

    return EnviHeader(
        samples=need_int("samples"),
        lines=need_int("lines"),
        bands=need_int("bands"),
        interleave=entries.get("interleave", "bsq").strip().lower(),
        data_type=need_int("data type"),
        byte_order=need_int("byte order", 0),
        header_offset=need_int("header offset", 0),
        **{name: floats(key) for key, name in _LISTS.items()},
    )


def guess_data_path(header_path: str | Path) -> Path:
    header_path = Path(header_path)
    for ext in (".img", ".dat", ".bin", ".raw", ""):
        candidate = header_path.with_suffix(ext)
        if candidate != header_path and candidate.exists():
            return candidate
    raise CorruptFileError(f"no data file found next to header {header_path}")


def _read_exact(f, offset: int, buf: memoryview) -> None:
    """Fill ``buf`` from the file's bytes at ``offset``; the file's own offset is not used."""
    while buf:
        n = os.preadv(f.fileno(), [buf], offset)
        if not n:
            raise CorruptFileError(f"{f.name}: file ended while reading")
        buf, offset = buf[n:], offset + n


def _write_all(f, offset: int, buf: memoryview) -> None:
    """Write ``buf`` at ``offset``; the file's own offset is not used."""
    while buf:
        n = os.pwrite(f.fileno(), buf, offset)
        buf, offset = buf[n:], offset + n


class EnviCube:
    """An ENVI pair open for reading: header, wavelength grid and row-block reader.

    Reads return float64 radiance in the canonical (rows, cols, bands) order,
    as views of arrays laid out like the file. A non-finite value raises
    ShapeError naming its row, column and band; negative values are clamped
    to 0. ``clamped`` counts those of the last pass, and the first
    whole-cube pass that clamps any logs one warning with that count
    (`report_clamped`).
    """

    def __init__(self, header: EnviHeader, data_path: Path, grid: WavelengthGrid):
        self.header, self.data_path, self.grid = header, data_path, grid
        self._scale = None
        if header.data_gain is not None or header.data_offset is not None:
            gain = header.data_gain if header.data_gain is not None else np.ones(header.bands)
            offset = header.data_offset if header.data_offset is not None else np.zeros(header.bands)
            self._scale = (gain, offset)
        self._raw = None  # reused read buffer, in the file's bytes
        self.clamped = 0
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
        return self.header.block_rows

    def _empty(self, rows: int) -> np.ndarray:
        """An uninitialised (rows, cols, bands) float64 array laid out like the file."""
        axes = _FILE_AXES[self.header.interleave]
        shape = (rows, self.cols, self.n_bands)
        return np.empty([shape[a] for a in axes]).transpose(np.argsort(axes))

    def blocks(self, start: int = 0, stop: int | None = None):
        """Yield (first row, block) for each row block of rows start .. stop - 1, top to bottom.

        By default the pass covers every row. Every block reuses one buffer,
        so a block is valid until the next is read. The pass counts the
        values it clamps in ``clamped``; a whole pass then reports them.
        At a non-finite value the pass yields the rows above that value's
        row, then raises ShapeError: it stops at its first bad row, however
        the rows fall into blocks.
        """
        stop = self.rows if stop is None else stop
        step = self.block_rows
        buf = self._empty(min(step, stop - start))
        self.clamped = 0
        with open(self.data_path, "rb", buffering=0) as f:
            for r0 in range(start, stop, step):
                r1 = min(r0 + step, stop)
                block = buf[: r1 - r0]
                clamped, bad = self._read_rows(f, r0, r1, block)
                self.clamped += clamped
                if bad is None:
                    yield r0, block
                    continue
                r, c, b = bad
                if r > r0:
                    yield r0, block[: r - r0]
                raise ShapeError(f"{self.data_path}: non-finite radiance at row {r}, column {c}, band {b}")
        if (start, stop) == (0, self.rows):
            self.report_clamped(self.clamped)

    def band_extrema(self) -> np.ndarray:
        """(2, bands): each band's minimum and maximum, folded over the row blocks."""
        return self.extrema_and_pixels(())[0]

    def extrema_and_pixels(self, coords) -> tuple[np.ndarray, np.ndarray]:
        """One pass over the row blocks: ``band_extrema()`` and the pixels at ``coords``.

        The pixels are the (n, bands) radiance at the (row, col) pairs
        ``coords``, in their order; a pair outside the image raises ShapeError.
        """
        rc = np.asarray(coords, dtype=int).reshape(-1, 2)
        outside = (rc < 0).any(axis=1) | (rc[:, 0] >= self.rows) | (rc[:, 1] >= self.cols)
        if outside.any():
            r, c = rc[np.argmax(outside)]
            raise ShapeError(f"pixel ({r}, {c}) is outside the {self.rows} x {self.cols} cube")
        lo = np.full(self.n_bands, np.inf)
        hi = np.full(self.n_bands, -np.inf)
        out = np.empty((len(rc), self.n_bands))
        for r0, block in self.blocks():
            np.minimum(lo, block.min(axis=(0, 1)), out=lo)
            np.maximum(hi, block.max(axis=(0, 1)), out=hi)
            inside = (rc[:, 0] >= r0) & (rc[:, 0] < r0 + len(block))
            out[inside] = block[rc[inside, 0] - r0, rc[inside, 1]]
        return np.stack([lo, hi]), out

    def _read_rows(self, f, r0: int, r1: int, out: np.ndarray) -> tuple[int, tuple[int, int, int] | None]:
        """Read, scale and check image rows r0 .. r1 - 1 into ``out``, clamping negative values to 0.

        Returns how many values it clamped and the (row, column, band) of the
        first non-finite value, or None. From that value's row on, ``out`` is
        left unchecked and unclamped.
        """
        h = self.header
        offsets, run = h.runs(r0, r1)
        in_file_order = h.file_order(out)
        # Native float64 runs, taken in order, fill a C-ordered destination:
        # they are read straight into it, with no buffer and no copy.
        direct = h.dtype == out.dtype and in_file_order.flags.c_contiguous
        if direct:
            raw = memoryview(in_file_order.reshape(-1)).cast("B")
        else:
            size = out.size * h.dtype.itemsize
            if self._raw is None or self._raw.size < size:
                self._raw = np.empty(size, np.uint8)
            raw = memoryview(self._raw)[:size]
        for i, offset in enumerate(offsets):
            _read_exact(f, offset, raw[i * run : (i + 1) * run])
        if not direct:
            np.copyto(in_file_order, np.frombuffer(raw, h.dtype).reshape(in_file_order.shape))
        if self._scale is not None:
            out *= self._scale[0]
            out += self._scale[1]
        low, high = in_file_order.min(), in_file_order.max()  # NaN propagates
        bad = None
        if not (np.isfinite(low) and np.isfinite(high)):
            # The first in (row, column, band) order, so no block or share boundary shows.
            r, c, b = (int(i) for i in np.argwhere(~np.isfinite(out))[0])
            bad, out = (r0 + r, c, b), out[:r]
            low = out.min(initial=0.0)
        if low >= 0:
            return 0, bad
        negative = out < 0
        out[negative] = 0.0
        return int(np.count_nonzero(negative)), bad

    def report_clamped(self, clamped: int) -> None:
        """Log one warning with the count ``clamped``, unless it is 0 or this cube has warned before."""
        if clamped and not self._clamp_reported:
            self._clamp_reported = True
            log.warning("%s: clamped %d negative radiance values to 0", self.data_path, clamped)


def open_envi(header_path: str | Path) -> EnviCube:
    """Open an ENVI pair for row-block reading; checks the header and the data size.

    The data file is the one `guess_data_path` finds beside the header.
    """
    header = read_envi_header(header_path)
    data_path = guess_data_path(header_path)

    n_values = math.prod(header.shape)
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


class EnviWriter:
    """A new ENVI pair, written in (rows, cols, bands) row blocks in file layout.

    Its `EnviHeader` holds the layout. The data file is the header's path
    with the suffix ``.img``; the header is written on `close`. As a context
    manager the writer closes on success and deletes both files if the body
    raises, so a failed command leaves no partial image and no stale header.
    """

    def __init__(
        self,
        header_path: str | Path,
        shape: tuple[int, int, int],
        wavelengths_nm: Optional[np.ndarray] = None,
        interleave: str = "bsq",
        data_type: int = 4,
        description: str = "dinsat output",
    ):
        if len(shape) != 3:
            raise ConfigError("ENVI writer expects a rows x cols x bands array")
        rows, cols, bands = (int(n) for n in shape)
        self.header = EnviHeader(cols, rows, bands, interleave, data_type, wavelengths_nm=wavelengths_nm)
        self.header_path = Path(header_path)
        self.data_path = self.header_path.with_suffix(".img")
        if self.data_path == self.header_path:
            raise ConfigError(f"header path {self.header_path} would also be its data file")
        self.description = description
        self._buf = None  # reused write buffer, in the file's bytes
        self._file = open(self.data_path, "wb", buffering=0)
        self._file.truncate(math.prod(self.header.shape) * self.header.dtype.itemsize)

    def write_rows(self, first_row: int, block: np.ndarray) -> None:
        """Write a (n, cols, bands) block as image rows first_row .. first_row + n - 1."""
        h = self.header
        block = np.asarray(block)
        if block.ndim != 3 or block.shape[1:] != h.shape[1:] or not 0 <= first_row <= h.lines - len(block):
            raise ConfigError(f"cannot write a {block.shape} block at row {first_row} of a {h.shape} cube")
        offsets, run = h.runs(first_row, first_row + len(block))
        in_file_order = h.file_order(block)
        if block.dtype == h.dtype and in_file_order.flags.c_contiguous:
            # Already the file's values in file order: written from the block's own memory.
            raw = memoryview(in_file_order.reshape(-1)).cast("B")
        else:
            size = block.size * h.dtype.itemsize
            if self._buf is None or self._buf.size < size:
                self._buf = np.empty(size, np.uint8)
            values = self._buf[:size].view(h.dtype).reshape(in_file_order.shape)
            np.copyto(values, in_file_order, casting="unsafe")
            raw = memoryview(self._buf)
        for i, offset in enumerate(offsets):
            _write_all(self._file, offset, raw[i * run : (i + 1) * run])

    def close(self) -> None:
        """Close the data file and write the header."""
        if self._file.closed:
            return
        self._file.close()
        self.header_path.write_text(self.header.text(self.description))

    def __enter__(self) -> "EnviWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._file.close()
            self.data_path.unlink(missing_ok=True)
            self.header_path.unlink(missing_ok=True)


def write_envi_array(
    data: np.ndarray,
    header_path: str | Path,
    wavelengths_nm: Optional[np.ndarray] = None,
    interleave: str = "bsq",
    data_type: int = 4,
    description: str = "dinsat output",
) -> Path:
    """Write a (rows, cols, bands) array as an ENVI pair, block by block; returns the data path."""
    data = np.asarray(data)
    with EnviWriter(header_path, data.shape, wavelengths_nm, interleave, data_type, description) as out:
        for r0 in range(0, len(data), out.header.block_rows):
            out.write_rows(r0, data[r0 : r0 + out.header.block_rows])
    return out.data_path


def write_envi(
    cube: HyperCube,
    header_path: str | Path,
    interleave: str = "bsq",
    data_type: int = 4,
) -> Path:
    return write_envi_array(
        cube.data,
        header_path,
        wavelengths_nm=cube.grid.wavelengths_nm,
        interleave=interleave,
        data_type=data_type,
    )

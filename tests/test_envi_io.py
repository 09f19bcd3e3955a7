import dataclasses
import json
import logging
import re
import struct

import numpy as np
import pytest

from dinsat.artifacts import (
    read_model,
    read_normalization,
    read_roi,
    read_spectrum_csv,
    write_model,
    write_normalization,
    write_spectrum_csv,
    write_truth_sidecar,
)
from dinsat.correction import SceneNormalization
from dinsat import envi
from dinsat.envi import open_envi, read_envi_header, write_envi, write_envi_array
from dinsat.errors import ConfigError, CorruptFileError, ParseError, ShapeError, UnsupportedFormatError
from dinsat.ode import SolverConfig
from dinsat.transmission import LinearProfile, NonlinearProfile
from dinsat.types import HyperCube, Spectrum, WavelengthGrid

from oracles import read_cube

# 2 lines x 2 samples x 3 bands; values chosen so every (row, col, band)
# position is distinguishable: value = band*100 + row*10 + col.
FIXTURE = np.array(
    [[[b * 100.0 + r * 10.0 + c for b in range(3)] for c in range(2)] for r in range(2)]
)


def write_fixture_bsq(tmp_path, name="cube"):
    """Hand-assembled 48-byte BSQ float32 little-endian pair."""
    hdr = tmp_path / f"{name}.hdr"
    img = tmp_path / f"{name}.img"
    hdr.write_text(
        "ENVI\n"
        "samples = 2\nlines = 2\nbands = 3\n"
        "header offset = 0\ndata type = 4\ninterleave = bsq\nbyte order = 0\n"
        "wavelength = {450.0, 1475.0,\n 2500.0}\n"
    )
    values = []
    for b in range(3):
        for r in range(2):
            for c in range(2):
                values.append(b * 100.0 + r * 10.0 + c)
    img.write_bytes(struct.pack("<12f", *values))
    return hdr, img


class TestReadEnvi:
    def test_bsq_fixture_values(self, tmp_path):
        hdr, img = write_fixture_bsq(tmp_path)
        assert img.stat().st_size == 48
        cube = read_cube(hdr)
        np.testing.assert_array_equal(cube.data, FIXTURE)
        np.testing.assert_array_equal(cube.grid.wavelengths_nm, [450.0, 1475.0, 2500.0])

    @pytest.mark.parametrize("suffix", [".img", ".dat", ".bin", ".raw", ""])
    def test_data_file_is_found_beside_its_header(self, tmp_path, suffix):
        hdr, img = write_fixture_bsq(tmp_path)
        data = img.rename(hdr.with_suffix(suffix))
        assert open_envi(hdr).data_path == data
        np.testing.assert_array_equal(read_cube(hdr).data, FIXTURE)

    def test_missing_data_file_rejected(self, tmp_path):
        hdr, img = write_fixture_bsq(tmp_path)
        img.unlink()
        with pytest.raises(CorruptFileError, match="no data file found next to header"):
            open_envi(hdr)

    def test_multiline_brace_list_parsed(self, tmp_path):
        hdr, _ = write_fixture_bsq(tmp_path)
        header = read_envi_header(hdr)
        assert header.wavelengths_nm is not None and len(header.wavelengths_nm) == 3

    def test_interleave_equivalence(self, tmp_path):
        grid = WavelengthGrid(np.array([450.0, 1475.0, 2500.0]))
        cube = HyperCube(grid, FIXTURE)
        loaded = {}
        for interleave in ("bsq", "bil", "bip"):
            hdr = tmp_path / f"{interleave}.hdr"
            write_envi(cube, hdr, interleave=interleave, data_type=5)
            loaded[interleave] = read_cube(hdr).data
        np.testing.assert_array_equal(loaded["bsq"], loaded["bil"])
        np.testing.assert_array_equal(loaded["bsq"], loaded["bip"])
        np.testing.assert_array_equal(loaded["bsq"], FIXTURE)

    def test_truncated_file_rejected(self, tmp_path):
        hdr, img = write_fixture_bsq(tmp_path)
        img.write_bytes(img.read_bytes()[:-4])
        with pytest.raises(CorruptFileError, match="expected 48 bytes"):
            read_cube(hdr)

    def test_unknown_data_type_rejected(self, tmp_path):
        hdr, _ = write_fixture_bsq(tmp_path)
        hdr.write_text(hdr.read_text().replace("data type = 4", "data type = 2"))
        with pytest.raises(UnsupportedFormatError):
            read_cube(hdr)

    def test_missing_magic_rejected(self, tmp_path):
        hdr, _ = write_fixture_bsq(tmp_path)
        hdr.write_text(hdr.read_text().replace("ENVI\n", "", 1))
        with pytest.raises(ParseError, match="magic"):
            read_cube(hdr)

    def test_empty_header_is_missing_its_magic(self, tmp_path):
        hdr, _ = write_fixture_bsq(tmp_path)
        hdr.write_text("")
        with pytest.raises(ParseError, match=f"^{re.escape(f'header {hdr}: missing ENVI magic on header line 1')}$"):
            open_envi(hdr)

    def test_uint16_gain_offset(self, tmp_path):
        hdr = tmp_path / "u16.hdr"
        img = tmp_path / "u16.img"
        hdr.write_text(
            "ENVI\nsamples = 1\nlines = 1\nbands = 2\n"
            "data type = 12\ninterleave = bip\nbyte order = 0\n"
            "wavelength = {500.0, 600.0}\n"
            "data gain values = {0.5, 0.25}\n"
            "data offset values = {1.0, 2.0}\n"
        )
        img.write_bytes(struct.pack("<2H", 10, 8))
        cube = read_cube(hdr)
        np.testing.assert_allclose(cube.data[0, 0], [10 * 0.5 + 1.0, 8 * 0.25 + 2.0])

    @pytest.mark.parametrize("line,message", [
        ("data gain values = {nan, 1.0}", "data gain values list has a non-finite entry at band 0"),
        ("data gain values = {1.0, -inf}", "data gain values list has a non-finite entry at band 1"),
        ("data offset values = {inf, 0}", "data offset values list has a non-finite entry at band 0"),
        ("wavelength = {500.0, nan}", "wavelength list has a non-finite entry at band 1"),
    ])
    def test_non_finite_list_entry_is_a_parse_error_naming_key_and_band(self, tmp_path, line, message):
        hdr = tmp_path / "c.hdr"
        hdr.write_text(
            "ENVI\nsamples = 1\nlines = 1\nbands = 2\n"
            f"data type = 12\ninterleave = bip\nbyte order = 0\n{line}\n"
        )
        (tmp_path / "c.img").write_bytes(struct.pack("<2H", 10, 8))
        with pytest.raises(ParseError, match=f"^{re.escape(f'header {hdr}: {message}')}$"):
            open_envi(hdr)

    def test_missing_wavelengths_synthesized(self, tmp_path, caplog):
        hdr = tmp_path / "nowl.hdr"
        img = tmp_path / "nowl.img"
        hdr.write_text(
            "ENVI\nsamples = 1\nlines = 1\nbands = 3\n"
            "data type = 5\ninterleave = bip\nbyte order = 0\n"
        )
        np.array([0.1, 0.2, 0.3]).tofile(img)
        with caplog.at_level("WARNING"):
            cube = read_cube(hdr)
        np.testing.assert_allclose(cube.grid.wavelengths_nm, [450.0, 1475.0, 2500.0])
        assert any("wavelength" in m for m in caplog.messages)


class TestWriteEnvi:
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_round_trip_identity(self, tmp_path, interleave):
        rng = np.random.default_rng(0)
        grid = WavelengthGrid.linear(5)
        cube = HyperCube(grid, rng.uniform(0, 2, (3, 4, 5)))
        hdr = tmp_path / "rt.hdr"
        write_envi(cube, hdr, interleave=interleave, data_type=5)
        back = read_cube(hdr)
        np.testing.assert_array_equal(back.data, cube.data)
        np.testing.assert_array_equal(back.grid.wavelengths_nm, grid.wavelengths_nm)

    def test_float32_quantizes(self, tmp_path):
        grid = WavelengthGrid.linear(2)
        cube = HyperCube(grid, np.full((1, 1, 2), 0.1))
        hdr = tmp_path / "f32.hdr"
        write_envi(cube, hdr, data_type=4)
        back = read_cube(hdr)
        np.testing.assert_array_equal(back.data, np.float32(0.1))

    @pytest.mark.parametrize("wavelengths", [None, [450.0, 1475.0, 2500.0]])
    @pytest.mark.parametrize("data_type", [4, 5, 12])
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_written_header_reads_back_as_the_writers(self, tmp_path, interleave, data_type, wavelengths):
        hdr = tmp_path / "c.hdr"
        with envi.EnviWriter(hdr, (2, 4, 3), wavelengths, interleave, data_type) as out:
            out.write_rows(0, np.ones((2, 4, 3)))
        assert out.header.shape == (2, 4, 3)
        assert (out.header.interleave, out.header.data_type) == (interleave, data_type)
        back = read_envi_header(hdr)
        for field in dataclasses.fields(envi.EnviHeader):
            np.testing.assert_array_equal(getattr(back, field.name), getattr(out.header, field.name))

    def test_header_path_that_would_be_its_data_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="would also be its data file"):
            write_envi_array(np.ones((2, 2, 3)), tmp_path / "x.img", data_type=5)
        assert not (tmp_path / "x.img").exists()

    def test_failed_write_removes_both_files(self, tmp_path):
        write_envi_array(np.ones((2, 2, 3)), tmp_path / "c.hdr", data_type=5)
        with pytest.raises(RuntimeError), envi.EnviWriter(tmp_path / "c.hdr", (2, 2, 3), data_type=5):
            raise RuntimeError("failed")
        assert not list(tmp_path.iterdir())


# Canonical (row, col, band) axes in file order, as the ENVI format defines them.
FILE_ORDER = {"bsq": (2, 0, 1), "bil": (0, 2, 1), "bip": (0, 1, 2)}
CODES = {"f4": 4, "f8": 5, "u2": 12}


def one_row_per_block(monkeypatch, cols, bands):
    monkeypatch.setattr(envi, "BLOCK_BYTES", cols * bands * 8)


class TestRowBlocks:
    """Block reads and writes against whole-file numpy references."""

    ROWS, COLS, BANDS = 7, 3, 4  # 3 rows per block below: blocks of 3, 3 and 1 rows
    HEADER_OFFSET = 37

    GAIN, OFFSET = np.array([0.5, 0.25, 2.0, 1e-3]), np.array([1.0, 0.0, 0.5, 3.0])

    def write_raw(self, tmp_path, interleave, code, byte_order, scaled):
        """A cube of random values; with ``scaled``, its header carries GAIN and OFFSET."""
        rng = np.random.default_rng(11)
        shape = (self.ROWS, self.COLS, self.BANDS)
        if code == "u2":
            values = rng.integers(0, 65536, shape)
        else:
            values = rng.uniform(0.0, 2.0, shape)
        dtype = np.dtype(("<" if byte_order == 0 else ">") + code)
        hdr, img = tmp_path / "raw.hdr", tmp_path / "raw.img"
        text = (
            f"ENVI\nsamples = {self.COLS}\nlines = {self.ROWS}\nbands = {self.BANDS}\n"
            f"header offset = {self.HEADER_OFFSET}\ndata type = {CODES[code]}\n"
            f"interleave = {interleave}\nbyte order = {byte_order}\n"
        )
        if scaled:
            for key, per_band in (("gain", self.GAIN), ("offset", self.OFFSET)):
                text += f"data {key} values = {{{', '.join(str(v) for v in per_band)}}}\n"
        hdr.write_text(text)
        in_file_order = np.ascontiguousarray(values.transpose(FILE_ORDER[interleave]), dtype=dtype)
        img.write_bytes(b"\x7f" * self.HEADER_OFFSET + in_file_order.tobytes())
        return hdr, img, dtype

    def reference(self, img, interleave, dtype, scaled):
        """The whole cube by np.fromfile, as the reader must return it."""
        order = FILE_ORDER[interleave]
        file_shape = [(self.ROWS, self.COLS, self.BANDS)[a] for a in order]
        raw = np.fromfile(img, dtype=dtype, offset=self.HEADER_OFFSET).reshape(file_shape)
        data = raw.transpose(np.argsort(order)).astype(float)
        if scaled:
            data = data * self.GAIN + self.OFFSET
        return data

    @pytest.mark.parametrize("byte_order", [0, 1])
    @pytest.mark.parametrize(
        "code, scaled",
        [("f4", False), ("f8", False), ("u2", True), ("f4", True), ("f8", True)],
        ids=["f4", "f8", "u2", "f4-scaled", "f8-scaled"],
    )
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_reader_matches_fromfile(self, tmp_path, monkeypatch, interleave, code, scaled, byte_order):
        monkeypatch.setattr(envi, "BLOCK_BYTES", 3 * self.COLS * self.BANDS * 8)
        hdr, img, dtype = self.write_raw(tmp_path, interleave, code, byte_order, scaled)
        ref = self.reference(img, interleave, dtype, scaled)
        cube = open_envi(hdr)
        assert cube.block_rows == 3
        blocks = [(r0, block.copy()) for r0, block in cube.blocks()]
        assert [r0 for r0, _ in blocks] == [0, 3, 6]
        np.testing.assert_array_equal(np.concatenate([b for _, b in blocks]), ref)
        np.testing.assert_array_equal(read_cube(hdr).data, ref)
        coords = [(0, 0), (6, 2), (3, 1), (6, 0)]
        pixels = cube.extrema_and_pixels(coords)[1]
        np.testing.assert_array_equal(pixels, ref[[r for r, _ in coords], [c for _, c in coords]])
        np.testing.assert_array_equal(cube.band_extrema(), [ref.min(axis=(0, 1)), ref.max(axis=(0, 1))])

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_one_pass_gives_band_extrema_and_pixels(self, tmp_path, monkeypatch, interleave):
        monkeypatch.setattr(envi, "BLOCK_BYTES", 3 * self.COLS * self.BANDS * 8)
        hdr, img, dtype = self.write_raw(tmp_path, interleave, "u2", 1, scaled=True)
        # A negative offset on band 0 clamps about half of its values to 0.
        hdr.write_text(hdr.read_text().replace("{1.0, 0.0, 0.5, 3.0}", "{-16000.0, 0.0, 0.5, 3.0}"))
        ref = self.reference(img, interleave, dtype, scaled=True) - np.array([16001.0, 0.0, 0.0, 0.0])
        assert (ref < 0).any()
        ref[ref < 0] = 0.0
        # Rows 0 and 6 are the first and last rows, in the first and last of three blocks.
        coords = [(6, 2), (0, 0), (3, 1), (6, 0), (0, 2), (3, 1)]
        cube = open_envi(hdr)
        extrema, pixels = cube.extrema_and_pixels(coords)
        np.testing.assert_array_equal(extrema, open_envi(hdr).band_extrema())
        np.testing.assert_array_equal(extrema, [ref.min(axis=(0, 1)), ref.max(axis=(0, 1))])
        np.testing.assert_array_equal(pixels, ref[[r for r, _ in coords], [c for _, c in coords]])
        with pytest.raises(ShapeError, match="outside"):
            cube.extrema_and_pixels([(7, 0)])

    @pytest.mark.parametrize("data_type", [4, 5, 12])
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_writer_bytes_match_whole_array_write(self, tmp_path, monkeypatch, interleave, data_type):
        monkeypatch.setattr(envi, "BLOCK_BYTES", 3 * self.COLS * self.BANDS * 8)
        data = np.random.default_rng(12).uniform(0.0, 3000.0, (self.ROWS, self.COLS, self.BANDS))
        path = write_envi_array(data, tmp_path / "out.hdr", interleave=interleave, data_type=data_type)
        # The whole-array write: one transposed copy in the output dtype.
        dtype = np.dtype("<" + envi.DTYPE_CODES[data_type])
        expected = np.ascontiguousarray(data.transpose(FILE_ORDER[interleave]), dtype=dtype).tobytes()
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("data_type", [4, 12])
    def test_block_in_file_layout_writes_from_its_own_memory(self, tmp_path, data_type):
        dtype = np.dtype(envi.DTYPE_CODES[data_type])
        data = np.random.default_rng(13).uniform(0.0, 3000.0, (self.ROWS, self.COLS, self.BANDS)).astype(dtype)
        shape = data.shape
        with envi.EnviWriter(tmp_path / "c.hdr", shape, data_type=data_type) as out:
            for r0 in range(0, self.ROWS, 3):
                out.write_rows(r0, data[r0 : r0 + 3])
        blocks = [np.ascontiguousarray(data[r0 : r0 + 3].transpose(FILE_ORDER["bsq"])).transpose(1, 2, 0)
                  for r0 in range(0, self.ROWS, 3)]
        before = [b.copy() for b in blocks]
        with envi.EnviWriter(tmp_path / "bsq.hdr", shape, data_type=data_type) as out:
            for r0, block in zip(range(0, self.ROWS, 3), blocks):
                assert not block.flags.c_contiguous
                out.write_rows(r0, block)
            assert out._buf is None  # nothing was copied into a write buffer
        assert (tmp_path / "bsq.img").read_bytes() == (tmp_path / "c.img").read_bytes()
        for block, copy in zip(blocks, before):
            np.testing.assert_array_equal(block, copy)

    @pytest.mark.parametrize("data_type", [4, 5, 12])
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_partial_pass_yields_exactly_its_rows(self, tmp_path, monkeypatch, interleave, data_type):
        monkeypatch.setattr(envi, "BLOCK_BYTES", 2 * self.COLS * self.BANDS * 8)
        rng = np.random.default_rng(14)
        shape = (self.ROWS, self.COLS, self.BANDS)
        hdr = tmp_path / "c.hdr"
        if data_type == 12:
            stored = rng.integers(0, 65536, shape).astype(float)
            write_envi_array(stored, hdr, interleave=interleave, data_type=data_type)
            # A negative offset on band 0 makes about half of its values negative.
            gain, offset = np.array([0.5, 0.25, 2.0, 1e-3]), np.array([-16000.0, 0.0, 0.5, 3.0])
            hdr.write_text(hdr.read_text() + "data gain values = {0.5, 0.25, 2.0, 1e-3}\n"
                           "data offset values = {-16000.0, 0.0, 0.5, 3.0}\n")
            radiance = stored * gain + offset
        else:
            stored = rng.uniform(-1.0, 2.0, shape)
            write_envi_array(stored, hdr, interleave=interleave, data_type=data_type)
            radiance = stored.astype(envi.DTYPE_CODES[data_type]).astype(float)
        expected = read_cube(hdr).data
        np.testing.assert_array_equal(expected, np.maximum(radiance, 0.0))
        cube = open_envi(hdr)
        assert cube.block_rows == 2
        for start in range(self.ROWS):
            for stop in range(start + 1, self.ROWS + 1):
                blocks = [(r0, block.copy()) for r0, block in cube.blocks(start, stop)]
                assert [r0 + i for r0, block in blocks for i in range(len(block))] == list(range(start, stop))
                assert max(len(block) for _, block in blocks) <= cube.block_rows
                np.testing.assert_array_equal(np.concatenate([block for _, block in blocks]), expected[start:stop])
                assert cube.clamped == np.count_nonzero(radiance[start:stop] < 0)

    def test_pixel_outside_cube_rejected(self, tmp_path):
        hdr, _ = write_fixture_bsq(tmp_path)
        # The message names the first pixel outside the image.
        for coords, named in (([(2, 0)], "(2, 0)"), ([(0, 2)], "(0, 2)"), ([(0, 0), (-1, 1)], "(-1, 1)")):
            with pytest.raises(ShapeError, match=re.escape(f"pixel {named} is outside the 2 x 2 cube")):
                open_envi(hdr).extrema_and_pixels(coords)

    @pytest.mark.parametrize("code", ["f4", "f8", "u2"])
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_pass_reads_each_data_byte_once(self, tmp_path, monkeypatch, interleave, code):
        monkeypatch.setattr(envi, "BLOCK_BYTES", 3 * self.COLS * self.BANDS * 8)
        hdr, img, dtype = self.write_raw(tmp_path, interleave, code, 0, scaled=code == "u2")
        reads = []
        read_exact = envi._read_exact
        monkeypatch.setattr(envi, "_read_exact",
                            lambda f, offset, buf: (reads.append((offset, len(buf))), read_exact(f, offset, buf)))
        cube = open_envi(hdr)
        assert cube.rows > cube.block_rows  # several blocks
        cube.band_extrema()
        # The reads tile the data section: no byte is read twice, none is skipped.
        ends = [self.HEADER_OFFSET]
        for offset, size in sorted(reads):
            assert offset == ends[-1]
            ends.append(offset + size)
        data_bytes = self.ROWS * self.COLS * self.BANDS * dtype.itemsize
        assert ends[-1] == img.stat().st_size == self.HEADER_OFFSET + data_bytes


class TestRadianceChecks:
    def write_cube(self, tmp_path, data):
        hdr = tmp_path / "c.hdr"
        write_envi_array(data, hdr, wavelengths_nm=[500.0, 600.0, 700.0], data_type=5)
        return hdr

    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
    def test_non_finite_rejected_before_clamping(self, tmp_path, monkeypatch, bad):
        one_row_per_block(monkeypatch, 2, 3)
        data = np.ones((4, 2, 3))
        data[3, 1, 2] = bad  # in the last block
        hdr = self.write_cube(tmp_path, data)
        with pytest.raises(ShapeError, match="non-finite"):
            read_cube(hdr)
        with pytest.raises(ShapeError, match="non-finite"):
            open_envi(hdr).extrema_and_pixels([(3, 1)])

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_error_names_the_first_bad_value_in_row_column_band_order(self, tmp_path, interleave):
        data = np.ones((4, 2, 3))
        data[2, 0, 0] = data[1, 1, 0] = np.nan  # before the inf in a BSQ or BIL file
        data[1, 0, 2] = np.inf
        write_envi_array(data, tmp_path / "c.hdr", interleave=interleave, data_type=5)
        message = f"{tmp_path / 'c.img'}: non-finite radiance at row 1, column 0, band 2"
        with pytest.raises(ShapeError, match=re.escape(message)):
            read_cube(tmp_path / "c.hdr")

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_pass_yields_the_rows_above_the_first_bad_row_then_raises(self, tmp_path, monkeypatch, interleave):
        monkeypatch.setattr(envi, "BLOCK_BYTES", 3 * 2 * 3 * 8)  # 3 rows per block
        data = np.random.default_rng(15).uniform(-0.5, 1.0, (7, 2, 3))
        expected = np.maximum(data, 0.0)
        for bad_row in range(7):
            bad = data.copy()
            bad[bad_row, 1, 0] = np.nan
            write_envi_array(bad, tmp_path / "c.hdr", interleave=interleave, data_type=5)
            cube = open_envi(tmp_path / "c.hdr")
            for start in range(bad_row + 1):
                rows = []
                with pytest.raises(ShapeError, match=f"at row {bad_row}, column 1, band 0$"):
                    for r0, block in cube.blocks(start, 7):
                        rows += [(r0 + i, row.copy()) for i, row in enumerate(block)]
                assert [r for r, _ in rows] == list(range(start, bad_row))
                for r, row in rows:
                    np.testing.assert_array_equal(row, expected[r])
                assert cube.clamped == np.count_nonzero(data[start:bad_row] < 0)

    def test_clamp_warns_once_per_cube_with_count(self, tmp_path, monkeypatch, caplog):
        one_row_per_block(monkeypatch, 2, 3)
        data = np.ones((4, 2, 3))
        data[0, 0, 0] = data[2, 1, 1] = data[3, 0, 2] = -0.5  # in three blocks
        hdr = self.write_cube(tmp_path, data)
        with caplog.at_level(logging.WARNING, logger="dinsat.envi"):
            cube = read_cube(hdr)
        assert [r.getMessage() for r in caplog.records] == [
            f"{tmp_path / 'c.img'}: clamped 3 negative radiance values to 0"
        ]
        expected = data.copy()
        expected[expected < 0] = 0.0
        np.testing.assert_array_equal(cube.data, expected)

        caplog.clear()
        opened = open_envi(hdr)
        with caplog.at_level(logging.WARNING, logger="dinsat.envi"):
            opened.band_extrema()
            opened.extrema_and_pixels([(0, 0), (3, 0)])
        assert len(caplog.records) == 1 and "clamped 3 negative" in caplog.records[0].getMessage()


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path):
        grid = WavelengthGrid.linear(10)
        spectrum = Spectrum(np.random.default_rng(1).uniform(0, 1, 10), "reflectance")
        path = tmp_path / "s.csv"
        write_spectrum_csv(path, grid, spectrum)
        grid2, back = read_spectrum_csv(path, "reflectance")
        np.testing.assert_array_equal(back.values, spectrum.values)
        np.testing.assert_array_equal(grid2.wavelengths_nm, grid.wavelengths_nm)

    def test_full_grid_accepted(self, tmp_path):
        grid = WavelengthGrid.linear(126)
        path = tmp_path / "lib.csv"
        write_spectrum_csv(path, grid, Spectrum(np.linspace(0, 1, 126), "reflectance"))
        grid2, spectrum = read_spectrum_csv(path, "reflectance")
        assert grid2.n_bands == 126
        assert spectrum.unit == "reflectance"

    def test_non_monotone_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength_nm,value\n500.0,0.1\n450.0,0.2\n")
        with pytest.raises(ParseError, match="increasing"):
            read_spectrum_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength_nm,value\n450.0,0.1\n500.0,oops\n")
        with pytest.raises(ParseError, match=":3"):
            read_spectrum_csv(path)


class TestModelArtifacts:
    def test_linear_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        model = LinearProfile(rng.standard_normal(126), SolverConfig("euler", 4))
        path = tmp_path / "m.json"
        write_model(path, model, WavelengthGrid.linear(126))
        back, solver, grid = read_model(path)
        assert isinstance(back, LinearProfile)
        np.testing.assert_array_equal(back.params, model.params)
        assert (solver.method, solver.steps) == ("euler", 4) and back.solver is solver
        np.testing.assert_array_equal(grid.wavelengths_nm, WavelengthGrid.linear(126).wavelengths_nm)

    def test_nonlinear_exact_round_trip(self, tmp_path):
        model = NonlinearProfile.initialize(7, np.random.default_rng(3))
        path = tmp_path / "m.json"
        write_model(path, model)
        back, _, grid = read_model(path)
        assert isinstance(back, NonlinearProfile)
        assert (back.n_bands, back.hidden, back.latent) == (7, 12, 3)
        np.testing.assert_array_equal(back.params, model.params)
        assert grid is None

    def test_rewrite_is_byte_identical(self, tmp_path):
        model = LinearProfile(np.random.default_rng(4).standard_normal(9))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_model(a, model)
        write_model(b, model)
        assert a.read_bytes() == b.read_bytes()

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"params": [1.0]}))
        with pytest.raises(ParseError, match="not a model artifact"):
            read_model(path)


class TestRoi:
    def test_parse_with_references(self, tmp_path):
        ref = tmp_path / "grass.csv"
        ref.write_text("wavelength_nm,value\n450.0,0.1\n500.0,0.2\n")
        path = tmp_path / "roi.csv"
        path.write_text(
            "region_name,row,col,reference_csv_path\n"
            "grass,0,0,grass.csv\n"
            "grass,0,1,grass.csv\n"
            "road,1,1\n"
        )
        roi = read_roi(path, rows=2, cols=2)
        assert roi.regions["grass"] == ((0, 0), (0, 1))
        assert roi.regions["road"] == ((1, 1),)
        assert roi.references["grass"] == ref

    def test_out_of_bounds_rejected(self, tmp_path):
        path = tmp_path / "roi.csv"
        path.write_text("grass,5,0\n")
        with pytest.raises(ParseError, match="outside cube bounds"):
            read_roi(path, rows=2, cols=2)

    def test_conflicting_references_rejected(self, tmp_path):
        path = tmp_path / "roi.csv"
        path.write_text("grass,0,0,a.csv\ngrass,0,1,b.csv\n")
        with pytest.raises(ParseError, match="conflicting"):
            read_roi(path)

    def test_header_after_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "roi.csv"
        path.write_text("# note\n\nregion_name,row,col\ngrass,0,1\n")
        assert read_roi(path, rows=2, cols=2).regions == {"grass": ((0, 1),)}


class TestNormalizationAndTruth:
    def test_normalization_round_trip(self, tmp_path):
        norm = SceneNormalization(np.array([0.1, 0.25]), 1.75)
        path = tmp_path / "norm.json"
        write_normalization(path, norm)
        back = read_normalization(path)
        np.testing.assert_array_equal(back.c, norm.c)
        assert back.m == norm.m

    def test_truth_sidecar_round_trip(self, tmp_path):
        grid = WavelengthGrid.linear(4)
        alpha = np.array([0.3, 1.2, 0.5, 0.4])
        norm = SceneNormalization(np.array([0.01, 0.02, 0.03, 0.04]), 1.1)
        rho = {(0, 0): np.zeros(4), (2, 5): np.array([0.2, 0.4, 0.6, 0.8])}
        path = tmp_path / "truth.csv"
        write_truth_sidecar(path, grid, alpha, norm, rho)
        header, *lines = path.read_text().splitlines()
        cols = dict(zip(header.split(","), np.array([[float(v) for v in ln.split(",")] for ln in lines]).T))
        back = {
            "alpha": cols["alpha_true"],
            "norm": SceneNormalization(cols["c"], float(cols["m"][0])),
            "rho": {name: values for name, values in cols.items() if name.startswith("rho_")},
        }
        np.testing.assert_array_equal(back["alpha"], alpha)
        np.testing.assert_array_equal(back["norm"].c, norm.c)
        assert back["norm"].m == norm.m
        np.testing.assert_array_equal(back["rho"]["rho_2_5"], rho[(2, 5)])

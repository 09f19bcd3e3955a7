import json
import logging
import struct

import numpy as np
import pytest

from dinsat.artifacts import (
    read_model,
    read_normalization,
    read_roi,
    read_spectrum_csv,
    read_truth_sidecar,
    write_model,
    write_normalization,
    write_spectrum_csv,
    write_truth_sidecar,
)
from dinsat.correction import SceneNormalization
from dinsat import envi
from dinsat.envi import open_envi, read_envi, read_envi_header, write_envi, write_envi_array
from dinsat.errors import CorruptFileError, ParseError, ShapeError, UnsupportedFormatError
from dinsat.ode import SolverConfig
from dinsat.transmission import LinearProfile, NonlinearProfile
from dinsat.types import HyperCube, Spectrum, WavelengthGrid

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
        cube = read_envi(hdr)
        np.testing.assert_array_equal(cube.data, FIXTURE)
        np.testing.assert_array_equal(cube.grid.wavelengths_nm, [450.0, 1475.0, 2500.0])

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
            loaded[interleave] = read_envi(hdr).data
        np.testing.assert_array_equal(loaded["bsq"], loaded["bil"])
        np.testing.assert_array_equal(loaded["bsq"], loaded["bip"])
        np.testing.assert_array_equal(loaded["bsq"], FIXTURE)

    def test_truncated_file_rejected(self, tmp_path):
        hdr, img = write_fixture_bsq(tmp_path)
        img.write_bytes(img.read_bytes()[:-4])
        with pytest.raises(CorruptFileError, match="expected 48 bytes"):
            read_envi(hdr)

    def test_unknown_data_type_rejected(self, tmp_path):
        hdr, _ = write_fixture_bsq(tmp_path)
        hdr.write_text(hdr.read_text().replace("data type = 4", "data type = 2"))
        with pytest.raises(UnsupportedFormatError):
            read_envi(hdr)

    def test_missing_magic_rejected(self, tmp_path):
        hdr, _ = write_fixture_bsq(tmp_path)
        hdr.write_text(hdr.read_text().replace("ENVI\n", "", 1))
        with pytest.raises(ParseError, match="magic"):
            read_envi(hdr)

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
        cube = read_envi(hdr)
        np.testing.assert_allclose(cube.data[0, 0], [10 * 0.5 + 1.0, 8 * 0.25 + 2.0])

    def test_missing_wavelengths_synthesized(self, tmp_path, caplog):
        hdr = tmp_path / "nowl.hdr"
        img = tmp_path / "nowl.img"
        hdr.write_text(
            "ENVI\nsamples = 1\nlines = 1\nbands = 3\n"
            "data type = 5\ninterleave = bip\nbyte order = 0\n"
        )
        np.array([0.1, 0.2, 0.3]).tofile(img)
        with caplog.at_level("WARNING"):
            cube = read_envi(hdr)
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
        back = read_envi(hdr)
        np.testing.assert_array_equal(back.data, cube.data)
        np.testing.assert_array_equal(back.grid.wavelengths_nm, grid.wavelengths_nm)

    def test_float32_quantizes(self, tmp_path):
        grid = WavelengthGrid.linear(2)
        cube = HyperCube(grid, np.full((1, 1, 2), 0.1))
        hdr = tmp_path / "f32.hdr"
        write_envi(cube, hdr, data_type=4)
        back = read_envi(hdr)
        np.testing.assert_array_equal(back.data, np.float32(0.1))


# Canonical (row, col, band) axes in file order, as the ENVI format defines them.
FILE_ORDER = {"bsq": (2, 0, 1), "bil": (0, 2, 1), "bip": (0, 1, 2)}
CODES = {"f4": 4, "f8": 5, "u2": 12}


def one_row_per_block(monkeypatch, cols, bands):
    monkeypatch.setattr(envi, "BLOCK_BYTES", cols * bands * 8)


class TestRowBlocks:
    """Block reads and writes against whole-file numpy references."""

    ROWS, COLS, BANDS = 7, 3, 4  # 3 rows per block below: blocks of 3, 3 and 1 rows
    HEADER_OFFSET = 37

    def write_raw(self, tmp_path, interleave, code, byte_order):
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
        if code == "u2":
            text += "data gain values = {0.5, 0.25, 2.0, 1e-3}\ndata offset values = {1.0, 0.0, 0.5, 3.0}\n"
        hdr.write_text(text)
        in_file_order = np.ascontiguousarray(values.transpose(FILE_ORDER[interleave]), dtype=dtype)
        img.write_bytes(b"\x7f" * self.HEADER_OFFSET + in_file_order.tobytes())
        return hdr, img, dtype

    def reference(self, img, interleave, dtype, code):
        """The whole cube by np.fromfile, as the reader must return it."""
        order = FILE_ORDER[interleave]
        file_shape = [(self.ROWS, self.COLS, self.BANDS)[a] for a in order]
        raw = np.fromfile(img, dtype=dtype, offset=self.HEADER_OFFSET).reshape(file_shape)
        data = raw.transpose(np.argsort(order)).astype(float)
        if code == "u2":
            data = data * np.array([0.5, 0.25, 2.0, 1e-3]) + np.array([1.0, 0.0, 0.5, 3.0])
        return data

    @pytest.mark.parametrize("byte_order", [0, 1])
    @pytest.mark.parametrize("code", ["f4", "f8", "u2"])
    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_reader_matches_fromfile(self, tmp_path, monkeypatch, interleave, code, byte_order):
        monkeypatch.setattr(envi, "BLOCK_BYTES", 3 * self.COLS * self.BANDS * 8)
        hdr, img, dtype = self.write_raw(tmp_path, interleave, code, byte_order)
        ref = self.reference(img, interleave, dtype, code)
        cube = open_envi(hdr)
        assert cube.block_rows == 3
        blocks = [(r0, block.copy()) for r0, block in cube.blocks()]
        assert [r0 for r0, _ in blocks] == [0, 3, 6]
        np.testing.assert_array_equal(np.concatenate([b for _, b in blocks]), ref)
        np.testing.assert_array_equal(read_envi(hdr).data, ref)
        coords = [(0, 0), (6, 2), (3, 1), (6, 0)]
        np.testing.assert_array_equal(cube.pixels(coords), ref[[r for r, _ in coords], [c for _, c in coords]])
        np.testing.assert_array_equal(cube.band_extrema(), [ref.min(axis=(0, 1)), ref.max(axis=(0, 1))])

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

    def test_pixel_outside_cube_rejected(self, tmp_path):
        hdr, _ = write_fixture_bsq(tmp_path)
        with pytest.raises(ShapeError, match="outside"):
            open_envi(hdr).pixels([(2, 0)])

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_pixel_is_one_read_that_checks_only_its_values(self, tmp_path, monkeypatch, caplog, interleave):
        hdr, img, dtype = self.write_raw(tmp_path, interleave, "f8", 0)
        order = FILE_ORDER[interleave]
        raw = np.fromfile(img, dtype=dtype, offset=self.HEADER_OFFSET)
        canonical = raw.reshape([(self.ROWS, self.COLS, self.BANDS)[a] for a in order]).transpose(np.argsort(order))
        # Both lie in the file span that covers pixel (3, 1) in BSQ and BIL,
        # outside the pixel itself (in BIP the pixel is its own span).
        canonical[3, 2, 0] = np.nan
        canonical[3, 0, 1] = -1.0
        img.write_bytes(b"\x7f" * self.HEADER_OFFSET + raw.tobytes())
        ref = self.reference(img, interleave, dtype, "f8")

        reads = []
        read_exact = envi._read_exact
        monkeypatch.setattr(envi, "_read_exact", lambda f, offset, buf: (reads.append(offset), read_exact(f, offset, buf)))
        cube = open_envi(hdr)
        caplog.clear()  # open_envi warns that the header has no wavelengths
        with caplog.at_level(logging.WARNING, logger="dinsat.envi"):
            out = cube.pixels([(3, 1), (6, 2)])
        np.testing.assert_array_equal(out, ref[[3, 6], [1, 2]])
        assert len(reads) == 2  # one read per pixel
        assert not caplog.records  # nothing clamped


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
            read_envi(hdr)
        with pytest.raises(ShapeError, match="non-finite"):
            open_envi(hdr).pixels([(3, 1)])

    def test_clamp_warns_once_per_cube_with_count(self, tmp_path, monkeypatch, caplog):
        one_row_per_block(monkeypatch, 2, 3)
        data = np.ones((4, 2, 3))
        data[0, 0, 0] = data[2, 1, 1] = data[3, 0, 2] = -0.5  # in three blocks
        hdr = self.write_cube(tmp_path, data)
        with caplog.at_level(logging.WARNING, logger="dinsat.envi"):
            cube = read_envi(hdr)
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
            opened.pixels([(0, 0), (3, 0)])
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
        model = LinearProfile(rng.standard_normal(126))
        path = tmp_path / "m.json"
        write_model(path, model, SolverConfig("euler", 4), WavelengthGrid.linear(126))
        back, solver, grid = read_model(path)
        assert isinstance(back, LinearProfile)
        np.testing.assert_array_equal(back.params, model.params)
        assert (solver.method, solver.steps) == ("euler", 4)
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
        back = read_truth_sidecar(path)
        np.testing.assert_array_equal(back["alpha"], alpha)
        np.testing.assert_array_equal(back["norm"].c, norm.c)
        assert back["norm"].m == norm.m
        np.testing.assert_array_equal(back["rho"]["rho_2_5"], rho[(2, 5)])

import struct

import numpy as np
import pytest
from scipy.io import wavfile

from bregsep.audio import load_wav, write_wav
from bregsep.transform import Signal

SEED = 9182


def _scipy_file(dtype, length):
    """A function writing `length` random int16 or float32 samples with
    wavfile.write."""

    def write(path):
        rng = np.random.default_rng(SEED + length)
        if dtype == np.int16:
            data = rng.integers(-32768, 32768, length).astype(np.int16)
        else:
            data = rng.uniform(-1.0, 1.0, length).astype(np.float32)
        wavfile.write(path, 22050, data)

    return write


def _with_odd_list_chunk(path):
    # an odd-sized LIST chunk, then its pad byte, between fmt and data
    _scipy_file(np.int16, 7)(path)
    raw = path.read_bytes()
    chunk = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\0"
    riff_size = struct.pack("<I", len(raw) - 8 + len(chunk))
    path.write_bytes(b"RIFF" + riff_size + raw[8:36] + chunk + raw[36:])


def _extensible_float(path):
    # WAVE_FORMAT_EXTENSIBLE with the IEEE float sub-format GUID
    data = np.array([0.25, -0.5, 1e-3, 0.0, -1.0], dtype=np.float32).tobytes()
    guid = bytes.fromhex("0300000000001000800000aa00389b71")
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 48000, 4 * 48000, 4, 32, 22, 32, 4) + guid
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(data)) + data
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)


# files load_wav must read as scipy reads them, bit for bit
SCIPY_READABLE = {
    **{
        "%s, %d samples" % (np.dtype(dtype).name, length): _scipy_file(dtype, length)
        for dtype in (np.int16, np.float32)
        for length in (1, 7, 16000, 44101)
    },
    "odd-sized LIST chunk": _with_odd_list_chunk,
    "extensible float": _extensible_float,
}


class TestLoadWav:
    @pytest.mark.parametrize("write", SCIPY_READABLE.values(), ids=SCIPY_READABLE)
    def test_reads_what_scipy_reads(self, tmp_path, write):
        path = tmp_path / "oracle.wav"
        write(path)
        rate, data = wavfile.read(path)
        expected = data.astype(np.float64)
        if data.dtype == np.int16:
            expected /= 32768.0
        sig = load_wav(path)
        assert sig.sample_rate == rate
        assert sig.samples.dtype == np.float64
        assert sig.samples.tobytes() == expected.tobytes()

    def test_int16_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        wavfile.write(path, 16000, np.array([0, 16384, -32768, 32767], dtype=np.int16))
        sig = load_wav(path)
        assert sig.sample_rate == 16000
        expected = np.array([0.0, 0.5, -1.0, 32767.0 / 32768.0])
        assert np.max(np.abs(sig.samples - expected)) < 1e-12

    def test_float32_passthrough(self, tmp_path):
        path = tmp_path / "b.wav"
        data = np.array([0.25, -0.5, 0.0], dtype=np.float32)
        wavfile.write(path, 8000, data)
        sig = load_wav(path)
        assert sig.sample_rate == 8000
        assert np.max(np.abs(sig.samples - data.astype(np.float64))) < 1e-12

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "c.wav"
        wavfile.write(path, 16000, np.zeros((10, 2), dtype=np.int16))
        with pytest.raises(ValueError):
            load_wav(path)

    def test_unsupported_encoding_rejected(self, tmp_path):
        path = tmp_path / "d.wav"
        wavfile.write(path, 16000, np.zeros(10, dtype=np.int32))
        with pytest.raises(ValueError):
            load_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(ValueError):
            load_wav(path)


class TestWriteWav:
    @pytest.mark.parametrize("length", [1, 7, 16000, 44101, "clipped"])
    def test_bytes_equal_scipy(self, tmp_path, length, recwarn):
        if length == "clipped":
            samples = np.array([0.0, 1.5, -2.0, 0.5, -32768.6 / 32768.0])
            codes = np.array([0, 32767, -32768, 16384, -32768], dtype=np.int16)
        else:
            codes = np.random.default_rng(SEED + length).integers(-32768, 32768, length)
            codes = codes.astype(np.int16)
            samples = codes / 32768.0
        write_wav(tmp_path / "ours.wav", Signal(samples, 44100))
        wavfile.write(tmp_path / "scipy.wav", 44100, codes)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()
        assert len(recwarn) == (length == "clipped")

    def test_round_trip_within_quantization_step(self, tmp_path):
        rng = np.random.default_rng(SEED)
        samples = rng.uniform(-0.9, 0.9, 4000)
        path = tmp_path / "rt.wav"
        write_wav(path, Signal(samples, 16000))
        back = load_wav(path)
        assert back.sample_rate == 16000
        assert np.max(np.abs(back.samples - samples)) <= 0.5 / 32768.0 + 1e-12

    def test_quantized_values_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(SEED + 1)
        codes = rng.integers(-32768, 32768, 1000)
        samples = codes / 32768.0
        path = tmp_path / "exact.wav"
        write_wav(path, Signal(samples, 16000))
        back = load_wav(path)
        assert np.array_equal(back.samples, samples)

    def test_clipping_warns(self, tmp_path):
        samples = np.array([0.0, 1.5, -2.0, 0.5])
        path = tmp_path / "clip.wav"
        with pytest.warns(UserWarning):
            write_wav(path, Signal(samples, 16000))
        back = load_wav(path)
        assert back.samples[1] == 32767.0 / 32768.0
        assert back.samples[2] == -1.0

    def test_in_range_does_not_warn(self, tmp_path, recwarn):
        path = tmp_path / "ok.wav"
        write_wav(path, Signal(np.array([0.0, 0.25, -0.25]), 16000))
        assert len(recwarn) == 0


class TestLoadErrorsNameTheFile:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_sample(self, tmp_path, bad):
        path = tmp_path / "bad.wav"
        wavfile.write(path, 16000, np.array([0.25, bad, 0.0], dtype=np.float32))
        with pytest.raises(ValueError, match="finite") as err:
            load_wav(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("dtype", [np.int16, np.float32])
    def test_empty_file(self, tmp_path, dtype):
        path = tmp_path / "empty.wav"
        wavfile.write(path, 16000, np.zeros(0, dtype=dtype))
        with pytest.raises(ValueError, match="no samples") as err:
            load_wav(path)
        assert str(path) in str(err.value)

import numpy as np
import pytest
from scipy.io import wavfile

from bregsep.audio import load_wav, write_wav
from bregsep.transform import Signal

SEED = 9182


class TestLoadWav:
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

import cmath
import dataclasses
import math

import numpy as np
import pytest

from bregsep.transform import (
    ComplexSpectrogram,
    Measurements,
    NotColaError,
    Signal,
    StftConfig,
    istft,
    magnitude_power,
    make_window,
    normalization_constant,
    stft,
    symmetry_weights,
)

SEED = 1234


def _naive_hann(length):
    return [0.5 - 0.5 * math.cos(2.0 * math.pi * n / length) for n in range(length)]


def _naive_frame_dft(frame, fft_size):
    # direct unitary DFT of one windowed frame, independent code path
    bins = fft_size // 2 + 1
    out = []
    for f in range(bins):
        acc = 0j
        for k, v in enumerate(frame):
            acc += v * cmath.exp(-2j * math.pi * f * k / fft_size)
        out.append(acc / math.sqrt(fft_size))
    return np.array(out)


class TestWindow:
    def test_length_four_values(self):
        w = make_window(4)
        assert np.allclose(w, [0.0, 0.5, 1.0, 0.5], atol=1e-15)

    def test_matches_formula(self):
        w = make_window(1024)
        assert np.allclose(w, _naive_hann(1024), atol=1e-15)
        assert w[0] == 0.0

    def test_squared_sum_1024(self):
        w = make_window(1024)
        assert abs(float(np.sum(w**2)) - 384.0) < 1e-9

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            make_window(1)


class TestConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.win_length == 1024
        assert cfg.hop == 256
        assert cfg.n_bins == 513

    def test_compared_and_hashed_by_value(self):
        cfg = StftConfig(256, 64)
        same = StftConfig(256, 64)
        # the cached window and b take no part
        assert cfg.b > 0
        assert cfg == same and hash(cfg) == hash(same)
        assert cfg != StftConfig(256, 128) and cfg != StftConfig(512, 64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.hop = 128

    def test_hop_must_divide(self):
        with pytest.raises(ValueError):
            StftConfig(win_length=1024, hop=300)


class TestNormalizationConstant:
    def test_hann_1024_256(self):
        b = normalization_constant(StftConfig(1024, 256))
        assert abs(b - 1.5) < 1e-12

    def test_brute_force_agreement(self):
        # oracle: explicit sum of squared shifted windows at steady state
        cfg = StftConfig(256, 64)
        w = _naive_hann(256)
        pos = 512
        acc = 0.0
        m = 0
        while m * 64 <= pos:
            k = pos - m * 64
            if 0 <= k < 256:
                acc += w[k] ** 2
            m += 1
        assert abs(normalization_constant(cfg) - acc) < 1e-12

    def test_half_overlap_is_not_cola(self):
        # squared Hann at 50% overlap sums to 0.75 +- 0.25 cos, not a constant
        with pytest.raises(NotColaError):
            normalization_constant(StftConfig(1024, 512))


class TestStft:
    def test_shape(self):
        cfg = StftConfig(1024, 256)
        sig = Signal(np.zeros(16000) + 1.0)
        spec = stft(sig, cfg)
        assert spec.data.shape == (513, cfg.n_frames(16000))

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            stft(Signal(np.array([])), StftConfig(64, 16))

    def test_shorter_than_hop_works(self):
        cfg = StftConfig(64, 16)
        sig = Signal(np.array([0.3, -0.1, 0.7]))
        spec = stft(sig, cfg)
        back = istft(spec, 3)
        assert np.max(np.abs(back.samples - sig.samples)) < 1e-12

    def test_impulse_frame_against_naive_dft(self):
        # the frame holding the first sample equals the direct DFT of the
        # windowed, head-padded frame
        cfg = StftConfig(8, 2)
        x = np.zeros(12)
        x[0] = 1.0
        spec = stft(Signal(x), cfg)
        w = np.array(_naive_hann(8))
        frame = np.zeros(8)
        frame[cfg.head_pad] = 1.0
        expected = _naive_frame_dft(w * frame, 8)
        assert np.max(np.abs(spec.data[:, 0] - expected)) < 1e-12

    def test_random_column_against_naive_dft(self):
        rng = np.random.default_rng(SEED)
        cfg = StftConfig(16, 4)
        x = rng.standard_normal(40)
        spec = stft(Signal(x), cfg)
        w = np.array(_naive_hann(16))
        padded = np.concatenate([np.zeros(cfg.head_pad), x])
        m = 3
        frame = np.zeros(16)
        chunk = padded[m * 4 : m * 4 + 16]
        frame[: chunk.size] = chunk
        expected = _naive_frame_dft(w * frame, 16)
        assert np.max(np.abs(spec.data[:, m] - expected)) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(SEED)
        cfg = StftConfig(64, 16)
        a = rng.standard_normal(500)
        b = rng.standard_normal(500)
        sa = stft(Signal(a), cfg).data
        sb = stft(Signal(b), cfg).data
        sab = stft(Signal(2.5 * a - 1.25 * b), cfg).data
        assert np.max(np.abs(sab - (2.5 * sa - 1.25 * sb))) < 1e-12


class TestIstft:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(SEED)
        cfg = StftConfig(1024, 256)
        for _ in range(5):
            x = rng.standard_normal(16000)
            y = istft(stft(Signal(x), cfg), 16000)
            assert np.max(np.abs(y.samples - x)) < 1e-10

    def test_roundtrip_awkward_length(self):
        rng = np.random.default_rng(SEED + 1)
        cfg = StftConfig(256, 64)
        x = rng.standard_normal(1001)
        y = istft(stft(Signal(x), cfg), 1001)
        assert np.max(np.abs(y.samples - x)) < 1e-10

    def test_target_length_pads_and_truncates(self):
        rng = np.random.default_rng(SEED + 2)
        cfg = StftConfig(64, 16)
        x = rng.standard_normal(200)
        spec = stft(Signal(x), cfg)
        short = istft(spec, 150)
        assert np.max(np.abs(short.samples - x[:150])) < 1e-10
        long = istft(spec, 260)
        assert np.max(np.abs(long.samples[:200] - x)) < 1e-10
        assert np.max(np.abs(long.samples[210:])) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(SEED + 3)
        cfg = StftConfig(64, 16)
        shape = (cfg.n_bins, 12)
        g1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y1 = istft(ComplexSpectrogram(g1, cfg), 180).samples
        y2 = istft(ComplexSpectrogram(g2, cfg), 180).samples
        y12 = istft(ComplexSpectrogram(0.5 * g1 + 2.0 * g2, cfg), 180).samples
        assert np.max(np.abs(y12 - (0.5 * y1 + 2.0 * y2))) < 1e-12

    def test_adjoint_consistency(self):
        # <stft(u), G> == <u, b istft(G)> with conjugate-symmetry weights
        # (interior one-sided bins count twice)
        rng = np.random.default_rng(SEED + 4)
        cfg = StftConfig(64, 16)
        b = normalization_constant(cfg)
        weights = symmetry_weights(cfg)[:, None]
        for _ in range(10):
            u = rng.standard_normal(300)
            spec = stft(Signal(u), cfg)
            g = rng.standard_normal(spec.data.shape) + 1j * rng.standard_normal(
                spec.data.shape
            )
            lhs = float(np.sum(weights * (spec.data * np.conj(g))).real)
            synth = istft(ComplexSpectrogram(g, cfg), 300).samples
            rhs = float(np.dot(u, b * synth))
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))

    def test_bin_count_mismatch_rejected(self):
        cfg = StftConfig(64, 16)
        bad = np.zeros((10, 4), dtype=complex)
        with pytest.raises(ValueError):
            ComplexSpectrogram(bad, cfg)

    def test_non_cola_config_rejected(self):
        cfg = StftConfig(1024, 512)
        spec_data = np.zeros((513, 4), dtype=complex)
        with pytest.raises(NotColaError):
            istft(ComplexSpectrogram(spec_data, cfg), 100)


def _loop_stft(x, config):
    # one rfft per frame over the head-padded, tail-completed signal
    win, hop = config.win_length, config.hop
    window = make_window(win)
    n_frames = config.n_frames(x.size)
    padded = np.zeros((n_frames - 1) * hop + win)
    padded[win - hop : win - hop + x.size] = x
    columns = [
        np.fft.rfft(padded[m * hop : m * hop + win] * window, norm="ortho")
        for m in range(n_frames)
    ]
    return np.stack(columns, axis=1)


def _loop_istft(data, config, length):
    # one irfft per frame, overlap-added frame by frame in frame order
    win, hop = config.win_length, config.hop
    window = make_window(win)
    buf = np.zeros((data.shape[1] - 1) * hop + win)
    for m in range(data.shape[1]):
        frame = np.fft.irfft(data[:, m], n=win, norm="ortho") * window
        buf[m * hop : m * hop + win] += frame
    kept = buf[win - hop :][:length] / normalization_constant(config)
    return np.concatenate([kept, np.zeros(length - kept.size)])


def _length_for_frames(config, n_frames):
    # the longest signal analysed into n_frames frames
    return n_frames * config.hop - config.head_pad


# frame counts from 5 to 293, and signals shorter than the hop
FRAME_LOOP_CASES = [
    (StftConfig(32, 8), _length_for_frames(StftConfig(32, 8), n))
    for n in (5, 127, 128, 129, 256, 293)
] + [
    (StftConfig(24, 8), _length_for_frames(StftConfig(24, 8), 200) - 5),
    (StftConfig(6, 2), 1),
    (StftConfig(32, 8), 1),
    (StftConfig(32, 8), 7),
    (StftConfig(64, 16), 15),
    (StftConfig(1024, 256), 32000),
    (StftConfig(1024, 256), 40000),
]


class TestFrameLoopReference:
    @pytest.mark.parametrize("config, length", FRAME_LOOP_CASES)
    def test_stft_and_istft_equal_frame_loops(self, config, length):
        rng = np.random.default_rng(SEED + length)
        x = rng.standard_normal(length)
        spec = stft(Signal(x), config)
        assert np.array_equal(spec.data, _loop_stft(x, config))
        noise = rng.standard_normal(spec.data.shape) + 1j * rng.standard_normal(
            spec.data.shape
        )
        for data in (spec.data, noise):
            for target in (length, max(1, length - 3), length + 2 * config.hop + 1):
                got = istft(ComplexSpectrogram(data, config), target).samples
                assert np.array_equal(got, _loop_istft(data, config, target))


class TestMagnitudePower:
    def test_values(self):
        cfg = StftConfig(8, 2)
        data = np.full((5, 3), 3.0 - 4.0j)
        spec = ComplexSpectrogram(data, cfg)
        m1 = magnitude_power(spec, 1)
        m2 = magnitude_power(spec, 2)
        assert np.allclose(m1.data, 5.0)
        assert np.allclose(m2.data, 25.0)
        assert m1.d == 1 and m2.d == 2

    def test_bad_exponent(self):
        cfg = StftConfig(8, 2)
        spec = ComplexSpectrogram(np.zeros((5, 3), dtype=complex), cfg)
        with pytest.raises(ValueError):
            magnitude_power(spec, 3)


class TestTypes:
    def test_signal_validation(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            Signal(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Signal(np.zeros(4), sample_rate=0)

    def test_measurements_validation(self):
        with pytest.raises(ValueError):
            Measurements(np.array([[1.0, -0.5]]), 1)
        with pytest.raises(ValueError):
            Measurements(np.ones((2, 2)), 3)
        with pytest.raises(ValueError):
            Measurements(np.array([[np.inf]]), 1)

    def test_measurements_hold_the_spectrum_layout(self):
        # a C-ordered (bins, frames) array is copied once, into the
        # frame-major layout of the STFT's spectra; one in it is kept as is
        rng = np.random.default_rng(SEED)
        values = np.abs(rng.standard_normal((5, 7)))
        held = Measurements(values, 1).data
        assert values.flags.c_contiguous and held.flags.f_contiguous
        assert np.array_equal(held, values)
        spectrum = np.abs(stft(Signal(rng.standard_normal(40)), StftConfig(8, 2)).data)
        assert Measurements(spectrum, 1).data is spectrum

    def test_spectrogram_must_be_finite(self):
        cfg = StftConfig(8, 2)
        data = np.zeros((5, 2), dtype=complex)
        data[0, 0] = np.nan
        with pytest.raises(ValueError):
            ComplexSpectrogram(data, cfg)

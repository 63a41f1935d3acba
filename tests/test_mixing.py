import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bregsep.mixing import ProviderSpec, align_noise, mix_at_snr, provide_spectrograms
from bregsep.transform import Measurements, Signal, StftConfig, stft

SEED = 5151
CFG = StftConfig(256, 64)
SRC = Path(__file__).resolve().parents[1] / "src"

# a 30 s pair on the float32 grid, mixed at 0 dB; prints the mixture's bytes
_MIX_THE_PAIR = """
import hashlib, numpy as np
from bregsep.mixing import mix_at_snr
from bregsep.transform import Signal
rng = np.random.default_rng(23)
speech, noise = (
    Signal(rng.standard_normal(480000).astype(np.float32).astype(float) * 0.1)
    for _ in range(2)
)
mixture, _ = mix_at_snr(speech, noise, 0.0)
print(hashlib.sha256(mixture.samples.tobytes()).hexdigest())
"""


def _snr_db(speech, noise):
    return 20.0 * np.log10(np.linalg.norm(speech) / np.linalg.norm(noise))


class TestMixAtSnr:
    def test_unit_energy_at_twenty_db(self):
        # equal norms: the scale is exactly 10^(-snr/20)
        rng = np.random.default_rng(SEED)
        speech = rng.standard_normal(1000)
        speech /= np.linalg.norm(speech)
        noise = rng.standard_normal(1000)
        noise /= np.linalg.norm(noise)
        mixture, scaled = mix_at_snr(Signal(speech), Signal(noise), 20.0)
        assert abs(np.linalg.norm(scaled.samples) - 0.1) < 1e-12
        assert np.max(np.abs(mixture.samples - (speech + scaled.samples))) < 1e-15

    def test_requested_snr_is_achieved(self):
        rng = np.random.default_rng(SEED + 1)
        speech = Signal(rng.standard_normal(3000) * 0.3)
        noise = Signal(rng.standard_normal(3000) * 7.0)
        # 3000 dB is about 100 dB below where the scaled noise underflows,
        # -3000 dB about 50 dB above where it overflows
        for target in (-3000.0, -5.0, 0.0, 12.5, 3000.0):
            _, scaled = mix_at_snr(speech, noise, target)
            assert abs(_snr_db(speech.samples, scaled.samples) - target) < 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mix_at_snr(Signal(np.ones(10)), Signal(np.ones(12)), 0.0)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mix_at_snr(Signal(np.ones(10), 16000), Signal(np.ones(10), 8000), 0.0)

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError):
            mix_at_snr(Signal(np.zeros(10)), Signal(np.ones(10)), 0.0)
        with pytest.raises(ValueError):
            mix_at_snr(Signal(np.ones(10)), Signal(np.zeros(10)), 0.0)

    def test_mixture_does_not_depend_on_the_blas_thread_count(self):
        # a BLAS norm sums in an order set by its thread count, which moved
        # this mixture's last bits between 1 and 2 OpenBLAS threads
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
            run = subprocess.run(
                [sys.executable, "-c", _MIX_THE_PAIR], env=env,
                capture_output=True, text=True, check=True,
            )
            digests.append(run.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("snr", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_snr_rejected(self, snr):
        with pytest.raises(ValueError, match="snr_db must be finite"):
            mix_at_snr(Signal(np.ones(10)), Signal(np.ones(10)), snr)

    @pytest.mark.parametrize("snr", [3150.0, 3200.0, 3300.0])
    def test_snr_whose_noise_energy_underflows_rejected(self, snr):
        # the scaled noise's energy is subnormal at 3150 and 3200 dB and 0
        # at 3300 dB, so the SNR would not be the one asked for
        rng = np.random.default_rng(SEED + 9)
        speech = Signal(rng.standard_normal(32000))
        noise = Signal(rng.standard_normal(32000))
        with pytest.raises(ValueError, match="snr_db %g underflows" % snr):
            mix_at_snr(speech, noise, snr)

    @pytest.mark.parametrize("snr", [-6100.0, -6200.0])
    def test_snr_whose_noise_energy_overflows_rejected(self, snr):
        # the scaled noise's energy is above the largest float at -6100 dB,
        # and at -6200 dB the gain 10**(-snr / 20) is too
        rng = np.random.default_rng(SEED + 9)
        speech = Signal(rng.standard_normal(32000))
        noise = Signal(rng.standard_normal(32000))
        with pytest.raises(ValueError, match="snr_db %g overflows" % snr):
            mix_at_snr(speech, noise, snr)


class TestAlignNoise:
    def test_crop_is_deterministic(self):
        rng = np.random.default_rng(SEED + 2)
        noise = Signal(rng.standard_normal(5000))
        a = align_noise(noise, 2000, seed=11)
        b = align_noise(noise, 2000, seed=11)
        assert np.array_equal(a.samples, b.samples)
        assert len(a) == 2000

    def test_crop_is_a_contiguous_slice(self):
        rng = np.random.default_rng(SEED + 3)
        noise = Signal(rng.standard_normal(5000))
        out = align_noise(noise, 2000, seed=3)
        found = False
        for off in range(5000 - 2000 + 1):
            if np.array_equal(out.samples, noise.samples[off : off + 2000]):
                found = True
                break
        assert found

    def test_short_noise_is_tiled(self):
        noise = Signal(np.arange(1.0, 6.0))
        out = align_noise(noise, 12, seed=0)
        assert len(out) == 12
        tiled = np.tile(noise.samples, 3)
        found = any(
            np.array_equal(out.samples, tiled[off : off + 12])
            for off in range(tiled.size - 12 + 1)
        )
        assert found

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError, match="length must be positive"):
            align_noise(Signal(np.ones(10)), 0, seed=0)

    def test_empty_noise_rejected(self):
        with pytest.raises(ValueError, match="noise signal is empty"):
            align_noise(Signal(np.empty(0)), 10, seed=0)

    def test_exact_length_passthrough_content(self):
        rng = np.random.default_rng(SEED + 4)
        noise = Signal(rng.standard_normal(1000))
        out = align_noise(noise, 1000, seed=42)
        assert np.array_equal(out.samples, noise.samples)


class TestProvideSpectrograms:
    def test_oracle_magnitudes(self):
        rng = np.random.default_rng(SEED + 5)
        sources = [Signal(rng.standard_normal(2000)) for _ in range(2)]
        for d in (1, 2):
            meas = provide_spectrograms(sources, ProviderSpec("oracle"), d, CFG)
            for src, r in zip(sources, meas):
                assert isinstance(r, Measurements)
                assert r.d == d
                expected = np.abs(stft(src, CFG).data) ** d
                assert np.max(np.abs(r.data - expected)) < 1e-12

    def test_noisy_oracle_is_seeded(self):
        rng = np.random.default_rng(SEED + 6)
        sources = [Signal(rng.standard_normal(2000)) for _ in range(2)]
        spec = ProviderSpec("noisy_oracle", sigma=0.5, seed=99)
        a = provide_spectrograms(sources, spec, 1, CFG)
        b = provide_spectrograms(sources, spec, 1, CFG)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.data, rb.data)
        c = provide_spectrograms(
            sources, ProviderSpec("noisy_oracle", sigma=0.5, seed=100), 1, CFG
        )
        assert not np.array_equal(a[0].data, c[0].data)

    def test_noisy_oracle_sigma_zero_matches_oracle(self):
        rng = np.random.default_rng(SEED + 7)
        sources = [Signal(rng.standard_normal(2000))]
        clean = provide_spectrograms(sources, ProviderSpec("oracle"), 2, CFG)
        silent = provide_spectrograms(
            sources, ProviderSpec("noisy_oracle", sigma=0.0, seed=5), 2, CFG
        )
        assert np.max(np.abs(clean[0].data - silent[0].data)) < 1e-12

    def test_noisy_oracle_perturbs_in_log_domain(self):
        rng = np.random.default_rng(SEED + 8)
        sources = [Signal(rng.standard_normal(2000))]
        noisy = provide_spectrograms(
            sources, ProviderSpec("noisy_oracle", sigma=0.5, seed=7), 1, CFG
        )
        clean = np.abs(stft(sources[0], CFG).data)
        ratio = noisy[0].data / np.maximum(clean, 1e-300)
        assert np.all(noisy[0].data >= 0.0)
        assert np.std(np.log(ratio[clean > 1e-8])) > 0.1

    @pytest.mark.parametrize("d, mode, length, config", [
        pytest.param(d, mode, length, config, id="-".join([str(d), mode, *tag]))
        for length, config, tag in (
            (2000, CFG, []),
            # 160 frames: more than one block of the streaming kernel
            (10000, CFG, ["160_frames"]),
            # a grid whose unitary scale is applied in the FFTs
            (2000, StftConfig(512, 128), ["512_128"]),
        )
        for d in (1, 2)
        for mode in ("oracle", "noisy_oracle")
    ])
    def test_frame_major_and_bitwise_the_formula(self, d, mode, length, config):
        # the layout of the STFT's spectra, and the bits of
        # r = (|stft(s)| * exp(sigma G))^d computed in the plain order, one
        # C-order G per source, drawn in source order
        rng = np.random.default_rng(SEED + 9)
        sources = [Signal(rng.standard_normal(length)) for _ in range(2)]
        sigma = 0.5 if mode == "noisy_oracle" else 0.0
        meas = provide_spectrograms(sources, ProviderSpec(mode, sigma, 17), d, config)
        noise = np.random.default_rng(17)
        for src, r in zip(sources, meas):
            assert r.data.flags.f_contiguous
            mag = np.abs(stft(src, config).data)
            if mode == "noisy_oracle":
                mag = mag * np.exp(sigma * noise.standard_normal(mag.shape))
            expected = mag if d == 1 else mag**2
            assert np.array_equal(r.data.view(np.uint64), expected.view(np.uint64))

    def test_exponent_other_than_1_or_2_rejected(self):
        sources = [Signal(np.ones(2000))]
        with pytest.raises(ValueError, match="d must be 1 or 2"):
            provide_spectrograms(sources, ProviderSpec("oracle"), 3, CFG)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ProviderSpec("psychic")

    def test_frozen_after_validation(self):
        # an assignment would skip the checks made when it was built
        spec = ProviderSpec("noisy_oracle", 0.5, 3)
        for name, value in (("sigma", -3.0), ("mode", "psychic")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)
        assert (spec.mode, spec.sigma) == ("noisy_oracle", 0.5)

    @pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf")])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            ProviderSpec("noisy_oracle", sigma)

    def test_oracle_with_sigma_rejected(self):
        # the oracle adds no noise, so it cannot honour a sigma
        with pytest.raises(ValueError, match="oracle provider takes no sigma"):
            ProviderSpec("oracle", 0.5)
        ProviderSpec("oracle", 0.0)
        # at sigma 0 the noisy oracle is the oracle, and stays allowed
        ProviderSpec("noisy_oracle", 0.0)

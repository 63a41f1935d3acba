import numpy as np
import pytest

from bregsep.metrics import SDR_CAP_DB, sdr
from bregsep.transform import Signal

SEED = 7777


class TestSdr:
    def test_half_amplitude_is_minus_six_db(self):
        rng = np.random.default_rng(SEED)
        ref = Signal(rng.standard_normal(1000))
        est = Signal(0.5 * ref.samples)
        # distortion equals half the reference, so 20 log10(2)
        assert abs(sdr(ref, est) - 6.020599913279624) < 1e-9

    def test_sign_flip_is_minus_six_db(self):
        rng = np.random.default_rng(SEED + 1)
        ref = Signal(rng.standard_normal(1000))
        est = Signal(-ref.samples)
        assert abs(sdr(ref, est) - (-6.020599913279624)) < 1e-9

    def test_exact_estimate_hits_cap(self):
        rng = np.random.default_rng(SEED + 2)
        ref = Signal(rng.standard_normal(1000))
        assert sdr(ref, Signal(ref.samples.copy())) == SDR_CAP_DB

    def test_exact_estimate_reads_240_db(self):
        # the README's number, as a literal: a changed cap must fail here
        rng = np.random.default_rng(SEED + 9)
        ref = Signal(rng.standard_normal(1000))
        assert sdr(ref, Signal(ref.samples.copy())) == 240.0

    def test_near_exact_estimate_hits_cap(self):
        rng = np.random.default_rng(SEED + 3)
        ref = Signal(rng.standard_normal(1000))
        est = Signal(ref.samples * (1.0 + 1e-14))
        assert sdr(ref, est) == SDR_CAP_DB

    def test_distortion_above_the_cap_boundary_is_measured(self):
        # the cap holds below 1e-12 relative distortion; at 1e-11 the SDR
        # is measured, 20 log10(1e11) = 220 dB
        rng = np.random.default_rng(SEED + 8)
        ref = Signal(rng.standard_normal(1000))
        est = Signal(ref.samples * (1.0 + 1e-11))
        assert abs(sdr(ref, est) - 220.0) < 0.01

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            sdr(Signal(np.zeros(10)), Signal(np.ones(10)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sdr(Signal(np.ones(10)), Signal(np.ones(11)))

    def test_sample_rate_mismatch_rejected(self):
        samples = np.random.default_rng(SEED + 5).standard_normal(100)
        with pytest.raises(ValueError, match="sample rates"):
            sdr(Signal(samples, 16000), Signal(samples, 8000))

    def test_scaling_both_leaves_sdr_unchanged(self):
        rng = np.random.default_rng(SEED + 4)
        ref = rng.standard_normal(500)
        est = ref + 0.1 * rng.standard_normal(500)
        a = sdr(Signal(ref), Signal(est))
        b = sdr(Signal(3.0 * ref), Signal(3.0 * est))
        assert abs(a - b) < 1e-9


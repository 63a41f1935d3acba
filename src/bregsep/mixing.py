"""Mixture construction at a target SNR and spectrogram providers."""

from dataclasses import dataclass

import numpy as np

from .metrics import _norm
from .transform import Measurements, Signal, _float_spectrogram

PROVIDER_ORACLE = "oracle"
PROVIDER_NOISY_ORACLE = "noisy_oracle"


@dataclass(frozen=True, eq=False)
class ProviderSpec:
    """How per-source measurements are produced from the true sources.

    "oracle" takes exact |stft|; "noisy_oracle" perturbs the magnitudes with
    seeded log-normal noise, r_c = (|stft(s_c)| * exp(sigma * G_c))^d.
    """

    mode: str = PROVIDER_ORACLE
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (PROVIDER_ORACLE, PROVIDER_NOISY_ORACLE):
            raise ValueError("unknown provider mode: %r" % (self.mode,))
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and nonnegative")
        if self.mode == PROVIDER_ORACLE and self.sigma:
            # the oracle adds no noise, so a row would report one it never had
            raise ValueError("the oracle provider takes no sigma; use noisy_oracle")


def align_noise(noise, length, seed):
    """Crop or tile the noise signal to an exact length.

    Longer noise is cropped at a random offset drawn from the seed; shorter
    noise is tiled until it covers the length, then cropped the same way.

    Args:
        noise: noise Signal.
        length: target length, >= 1.
        seed: integer seed for the crop offset.

    Returns:
        Signal of exactly the requested length.
    """
    if length < 1:
        raise ValueError("length must be positive")
    if len(noise) == 0:
        raise ValueError("noise signal is empty")
    samples = noise.samples
    if samples.size < length:
        reps = -(-length // samples.size)
        samples = np.tile(samples, reps)
    offset = int(np.random.default_rng(seed).integers(0, samples.size - length + 1))
    return Signal(samples[offset : offset + length].copy(), noise.sample_rate)


def mix_at_snr(speech, noise, snr_db):
    """Scale the noise and add it to the speech at an exact SNR.

    The noise is multiplied by alpha = (||speech|| / ||noise||) *
    10**(-snr_db / 20), which makes 10 log10(E_speech / E_scaled_noise)
    equal snr_db to machine precision.  An SNR at which that energy is below
    the smallest normal float, or above the largest float, is rejected (as is
    an SNR whose gain 10**(-snr_db / 20) alone is above the largest float).

    Args:
        speech: speech Signal.
        noise: noise Signal, same length and sample rate.
        snr_db: target signal-to-noise ratio in dB, finite.

    Returns:
        (mixture, scaled_noise) pair of Signals.
    """
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    if len(speech) != len(noise):
        raise ValueError("speech and noise lengths differ (align the noise first)")
    if speech.sample_rate != noise.sample_rate:
        raise ValueError("speech and noise sample rates differ")
    speech_norm = _norm(speech.samples)
    noise_norm = _norm(noise.samples)
    if speech_norm == 0.0 or noise_norm == 0.0:
        raise ValueError("cannot set an SNR with a zero-energy signal")
    try:
        gain = 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        gain = np.inf
    alpha = speech_norm / noise_norm * gain
    # the scaled noise's energy, (alpha ||noise||)^2, must be a normal float
    scaled_norm = alpha * noise_norm
    if scaled_norm < np.sqrt(np.finfo(float).tiny):
        raise ValueError("snr_db %g underflows the scaled noise's energy" % snr_db)
    if scaled_norm > np.sqrt(np.finfo(float).max):
        raise ValueError("snr_db %g overflows the scaled noise's energy" % snr_db)
    scaled = Signal(alpha * noise.samples, noise.sample_rate)
    mixture = Signal(speech.samples + scaled.samples, speech.sample_rate)
    return mixture, scaled


def provide_spectrograms(sources, provider, d, config):
    """Build per-source Measurements from the true sources.

    Each is formed in one streamed pass, block by block: |S|, times
    exp(sigma * G) for the noisy oracle, squared for d = 2.  G is one
    C-order standard-normal (bins, frames) matrix per source, drawn whole in
    source order from a generator seeded with provider.seed.

    Args:
        sources: list of true-source Signals.
        provider: ProviderSpec.
        d: measurement exponent, 1 or 2.
        config: StftConfig.

    Returns:
        List of Measurements with exponent d, their data in the frame-major
        layout of the STFT's spectra (see :class:`Measurements`).
    """
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    rng = np.random.default_rng(provider.seed)
    out = []
    for source in sources:
        noise = None  # drops the last source's G before drawing this one's
        if provider.mode == PROVIDER_NOISY_ORACLE:
            noise = rng.standard_normal((config.n_bins, config.n_frames(len(source))))

        def measure(block, frames, spectrum):
            np.abs(spectrum, out=block)
            # past the largest float a bin reads inf or nan, which
            # Measurements rejects
            with np.errstate(over="ignore", invalid="ignore"):
                if noise is not None:
                    block *= np.exp(provider.sigma * noise[:, frames])
                if d == 2:
                    np.square(block, out=block)

        out.append(Measurements(_float_spectrogram(source.samples, config, measure), d))
    return out

"""Short-time Fourier analysis and exact pseudo-inverse synthesis.

The transform is treated as a linear operator A mapping a time signal to a
one-sided complex spectrogram.  The DFT is unitary ("ortho" norm), frames
advance by a fixed hop, and the analysis buffer is zero-extended by
win_length - hop samples at the head (plus a zero tail completing the last
frame) so that every input sample is covered by the full complement of
overlapping windows.  With a window whose squared overlap-add sum is a
constant b, this gives A^H A = b I exactly, hence synthesis
istft = (1/b) A^H reconstructs perfectly at machine precision, boundary
samples included.

Spectrogram-shaped arrays are (n_bins, n_frames), frame-major in memory
(Fortran order): the layout the analysis produces, since each frame is
transformed as one contiguous row before the transpose.  Measurements are
held in that layout too, copied into it once if they arrive in another, so
the solvers' elementwise passes read every operand along its strides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_COLA_TOL = 1e-12


class NotColaError(ValueError):
    """Squared analysis window does not overlap-add to a constant."""


@dataclass(eq=False)
class Signal:
    """A mono time-domain signal with a sample rate.

    samples: 1-D float64 array, finite-valued.
    sample_rate: positive integer, metadata only (no resampling happens).
    """

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("signal samples must be a 1-D array")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("signal samples must be finite")
        if int(self.sample_rate) != self.sample_rate or self.sample_rate <= 0:
            raise ValueError("sample_rate must be a positive integer")
        self.sample_rate = int(self.sample_rate)

    def __len__(self):
        return self.samples.size


def make_window(length):
    """Periodic Hann window w[n] = 0.5 - 0.5 cos(2 pi n / length).

    Args:
        length: number of taps, >= 2.

    Returns:
        float64 array of shape (length,).
    """
    if length < 2:
        raise ValueError("window length must be >= 2")
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)


def normalization_constant(config):
    """Overlap-add sum of the squared window, b = sum_m w^2[n - m hop].

    The sum is periodic in n with period hop; it must be constant across n
    (constant-overlap-add of the squared window) for synthesis to be the
    exact pseudo-inverse of analysis.

    Returns:
        The constant b as a float.

    Raises:
        NotColaError: if the squared-window overlap sum varies by more than
            1e-12, i.e. the (window, hop) pair is not COLA.
    """
    per_sample = (config.window**2).reshape(-1, config.hop).sum(axis=0)
    b = float(per_sample.mean())
    spread = float(per_sample.max() - per_sample.min())
    if spread > _COLA_TOL * max(1.0, b):
        raise NotColaError(
            "squared window does not overlap-add to a constant "
            "(hop %d, win %d, spread %.3e)" % (config.hop, config.win_length, spread)
        )
    return b


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters: periodic Hann window length and hop.

    win_length must be even and a multiple of hop.  The DFT size is
    win_length: frames are never zero-padded in frequency.  Immutable and
    compared by value.
    """

    win_length: int = 1024
    hop: int = 256

    def __post_init__(self):
        if self.win_length < 2 or self.win_length % 2:
            raise ValueError("win_length must be an even integer >= 2")
        if self.hop < 1 or self.hop > self.win_length:
            raise ValueError("hop must satisfy 1 <= hop <= win_length")
        if self.win_length % self.hop:
            raise ValueError("win_length must be a multiple of hop")

    @property
    def n_bins(self):
        """Number of one-sided frequency bins, win_length/2 + 1."""
        return self.win_length // 2 + 1

    @property
    def head_pad(self):
        """Zeros prepended so the first input sample is fully overlapped."""
        return self.win_length - self.hop

    @cached_property
    def window(self):
        """The analysis window, built once per config; read-only."""
        window = make_window(self.win_length)
        window.flags.writeable = False
        return window

    # normalization_constant, computed once per config; a non-COLA config
    # raises NotColaError on every access
    b = cached_property(normalization_constant)

    def n_frames(self, length):
        """Number of analysis frames for a signal of the given length."""
        if length < 1:
            raise ValueError("length must be positive")
        return (self.head_pad + length - 1) // self.hop + 1


@dataclass(eq=False)
class ComplexSpectrogram:
    """One-sided complex STFT values on an (n_bins, n_frames) grid."""

    data: np.ndarray
    config: StftConfig
    sample_rate: int = 16000

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2:
            raise ValueError("spectrogram data must be 2-D (bins x frames)")
        if self.data.shape[0] != self.config.n_bins:
            raise ValueError(
                "spectrogram has %d bins, config expects %d"
                % (self.data.shape[0], self.config.n_bins)
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("spectrogram data must be finite")


@dataclass(eq=False)
class Measurements:
    """Nonnegative magnitude (d=1) or power (d=2) spectrogram targets.

    data is held in the layout of the STFT's spectra: (n_bins, n_frames),
    frame-major in memory (Fortran order).  Data in another layout, such as
    a C-ordered (bins, frames) array, is copied into it once here, so the
    solvers never mix layouts inside their loops.
    """

    data: np.ndarray
    d: int = 1

    def __post_init__(self):
        self.data = np.asfortranarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError("measurements must be 2-D (bins x frames)")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("measurements must be finite")
        if self.data.size and self.data.min() < 0:
            raise ValueError("measurements must be nonnegative")
        if self.d not in (1, 2):
            raise ValueError("d must be 1 (magnitude) or 2 (power)")


def symmetry_weights(config):
    """Per-bin multiplicities of the one-sided spectrum.

    A real frame's full DFT is conjugate-symmetric, so each interior bin of
    the one-sided layout stands for two full-spectrum bins.  DC and Nyquist
    (the DFT size win_length is even) stand for one.  Sums over the full
    spectrum are therefore weighted one-sided sums with these weights.
    """
    weights = np.full(config.n_bins, 2.0)
    weights[0] = weights[-1] = 1.0
    return weights


def _stft_data(x, config):
    """Raw analysis on a bare sample array; no validation, no wrapping."""
    n_frames = config.n_frames(x.size)
    padded = np.zeros((n_frames - 1) * config.hop + config.win_length)
    padded[config.head_pad : config.head_pad + x.size] = x
    frames = np.lib.stride_tricks.sliding_window_view(padded, config.win_length)
    frames = frames[:: config.hop]
    return np.fft.rfft(frames * config.window, axis=1, norm="ortho").T


def _istft_data(data, config, target_length):
    """Raw synthesis to a bare sample array; no validation, no wrapping.

    Frames are overlap-added as win_length/hop strided adds of hop-long
    segments, last segment first.  Every output sample thus sums its frames
    in frame order, as a loop over frames would.
    """
    hop, overlap = config.hop, config.win_length // config.hop
    n_frames = data.shape[1]
    frames = np.fft.irfft(data.T, n=config.win_length, axis=1, norm="ortho")
    frames *= config.window
    segments = frames.reshape(n_frames, overlap, hop)
    buf = np.zeros((n_frames - 1) * hop + config.win_length)
    chunks = buf.reshape(-1, hop)
    for k in reversed(range(overlap)):
        chunks[k : k + n_frames] += segments[:, k]
    out = np.zeros(target_length)
    avail = min(target_length, buf.size - config.head_pad)
    if avail > 0:
        np.divide(buf[config.head_pad : config.head_pad + avail], config.b,
                  out=out[:avail])
    return out


def stft(signal, config):
    """Analyse a signal into a one-sided complex spectrogram.

    The signal is zero-extended by win_length - hop samples at the head and
    enough at the tail for every sample to be seen by all win_length/hop
    overlapping windows; frames are then windowed and transformed with a
    unitary real-input DFT.

    Args:
        signal: Signal to analyse (must be non-empty).
        config: StftConfig.

    Returns:
        ComplexSpectrogram of shape (win_length/2 + 1, n_frames).
    """
    x = signal.samples
    if x.size == 0:
        raise ValueError("cannot transform an empty signal")
    return ComplexSpectrogram(_stft_data(x, config), config, signal.sample_rate)


def istft(spectrogram, target_length):
    """Synthesise a time signal, the pseudo-inverse of :func:`stft`.

    Each column is inverted with the unitary one-sided DFT (the result is
    real by construction), re-windowed, overlap-added, divided by the
    constant b from :func:`normalization_constant`, and the head padding is
    dropped.  The output is truncated or zero-padded to target_length.

    istft(stft(x), len(x)) == x at machine precision for COLA configs.

    Args:
        spectrogram: ComplexSpectrogram to invert.
        target_length: number of output samples, >= 1.

    Returns:
        Signal of length target_length.
    """
    if target_length < 1:
        raise ValueError("target_length must be positive")
    config = spectrogram.config
    if spectrogram.data.shape[0] != config.n_bins:
        raise ValueError("spectrogram bin count inconsistent with config")
    out = _istft_data(spectrogram.data, config, target_length)
    return Signal(out, spectrogram.sample_rate)


def magnitude_power(spectrogram, d):
    """Entrywise |.|^d of a spectrogram, as Measurements with exponent d."""
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    mag = np.abs(spectrogram.data)
    if d == 2:
        mag = mag**2
    return Measurements(mag, d)

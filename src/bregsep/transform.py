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
the solvers' elementwise passes read every operand along its strides.  Only
this module names the layout; providers fill theirs via _float_spectrogram.

The solvers, the objective and its gradient, and the providers stream
signals through one kernel, 128 frames at a time, and build no full complex
spectrogram; stft and istft, kept for the public API, are its whole-array
case.  Elementwise results do not depend on the block size.

A kernel call that synthesises outputs over more than one block uses a
second CPU when the process may run on one, a sweep worker included: its
blocks are then half as long, and its frames are cut in two parts at a
block edge.  A thread of its own, joined before the call returns or raises,
runs the second part and owns the output samples from the cut on; it also
runs the win_length/hop - 1 frames before the cut that reach them.  Every
sample thus sums its frames in frame order in one thread, so the bytes are
those of the serial loop, the one-part case; `taskset -c 0` keeps a process
to that case.

The kernel applies the unitary scale 1/sqrt(win_length) in its window, and
runs FFTs that scale nothing, where the scale is a power of two (win_length
4, 16, 64, 256, 1024, ...).  Such a scaling is exact short of subnormal
values, so results are bit for bit those of norm="ortho", which other
win_length keep.
"""

import os
import threading
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

_COLA_TOL = 1e-12


class NotColaError(ValueError):
    """Squared analysis window does not overlap-add to a constant."""


@dataclass(frozen=True, eq=False)
class Signal:
    """A mono time-domain signal with a sample rate.

    samples: 1-D float64 array, finite-valued.
    sample_rate: positive integer, metadata only (no resampling happens).

    The samples are checked once, here.  A float64 array is held without a
    copy, so a later write through .samples, or through the caller's own
    reference to the array, is not checked again.
    """

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 1:
            raise ValueError("signal samples must be a 1-D array")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("signal samples must be finite")
        if int(self.sample_rate) != self.sample_rate or self.sample_rate <= 0:
            raise ValueError("sample_rate must be a positive integer")
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

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

    @cached_property
    def _kernel(self):
        """The kernel's window and rfft and irfft norms (see the module)."""
        root = isqrt(self.win_length)
        if root * root != self.win_length or root & (root - 1):
            return self.window, "ortho", "ortho"
        return self.window / root, "backward", "forward"

    # normalization_constant, computed once per config; a non-COLA config
    # raises NotColaError on every access
    b = cached_property(normalization_constant)

    def n_frames(self, length):
        """Number of analysis frames for a signal of the given length."""
        if length < 1:
            raise ValueError("length must be positive")
        return (self.head_pad + length - 1) // self.hop + 1


@dataclass(frozen=True, eq=False)
class ComplexSpectrogram:
    """One-sided complex STFT values on an (n_bins, n_frames) grid.

    The data are checked once, here.  A complex128 array is held without a
    copy, so a later write through .data, or through the caller's own
    reference to the array, is not checked again.
    """

    data: np.ndarray
    config: StftConfig
    sample_rate: int = 16000

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.complex128))
        if self.data.ndim != 2:
            raise ValueError("spectrogram data must be 2-D (bins x frames)")
        if self.data.shape[0] != self.config.n_bins:
            raise ValueError(
                "spectrogram has %d bins, config expects %d"
                % (self.data.shape[0], self.config.n_bins)
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("spectrogram data must be finite")


@dataclass(frozen=True, eq=False)
class Measurements:
    """Nonnegative magnitude (d=1) or power (d=2) spectrogram targets.

    data is held in the layout of the STFT's spectra: (n_bins, n_frames),
    frame-major in memory (Fortran order).  Data in another layout, such as
    a C-ordered (bins, frames) array, is copied into it once here, so the
    solvers never mix layouts inside their loops.

    The data are checked once, here.  A float64 array already in that layout
    is held without a copy, so a later write through .data, or through the
    caller's own reference to the array, is not checked again.
    """

    data: np.ndarray
    d: int = 1

    def __post_init__(self):
        object.__setattr__(self, "data", np.asfortranarray(self.data, dtype=np.float64))
        if self.data.ndim != 2:
            raise ValueError("measurements must be 2-D (bins x frames)")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("measurements must be finite")
        if self.data.size and self.data.min() < 0:
            raise ValueError("measurements must be nonnegative")
        if self.d not in (1, 2):
            raise ValueError("d must be 1 (magnitude) or 2 (power)")


def _check_measurements(measurements, signal, config, d=None):
    """Check a problem once: measurements on signal's analysis grid, each of
    exponent d, or of the first one's exponent when d is None."""
    if not measurements:
        raise ValueError("at least one measurement matrix is required")
    shape = (config.n_bins, config.n_frames(len(signal)))
    d = measurements[0].d if d is None else d
    for r in measurements:
        if r.data.shape != shape:
            raise ValueError(
                "measurements shape %s does not match the analysis grid %s"
                % (r.data.shape, shape)
            )
        if r.d != d:
            raise ValueError("measurements exponent %d, expected %d" % (r.d, d))


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


# frames per block of the streaming kernel: each block's spectra, about
# 1 MB per signal at win_length 1024, stay in cache while a solver uses them
_BLOCK_FRAMES = 128


def _buffer(n_frames, config):
    """Zeros spanning n_frames frames: the analysis and synthesis buffer."""
    return np.zeros((n_frames - 1) * config.hop + config.win_length)


def _frames(x, config):
    """Read-only (n_frames, win_length) view of the zero-extended copy of x."""
    n_frames = config.n_frames(x.size)
    padded = _buffer(n_frames, config)
    padded[config.head_pad : config.head_pad + x.size] = x
    (step,) = padded.strides
    frames = np.ndarray((n_frames, config.win_length), buffer=padded,
                        strides=(config.hop * step, step))
    frames.flags.writeable = False
    return frames


def _analyse(frames, config):
    """Windowed one-sided spectra of the given frames, (n_bins, n_frames)."""
    window, norm, _ = config._kernel
    return np.fft.rfft(frames * window, axis=1, norm=norm).T


def _overlap_add(spectra, config, buf, first, owned=slice(None)):
    """Synthesise spectra as frames first, first + 1, ... into buf, adding
    only the segments that land in its owned slice of hop-long chunks.

    win_length/hop strided adds of hop-long segments, last segment first:
    each sample sums its frames in frame order, across calls in frame order.
    """
    hop, overlap = config.hop, config.win_length // config.hop
    n_frames = spectra.shape[1]
    window, _, norm = config._kernel
    frames = np.fft.irfft(spectra.T, n=config.win_length, axis=1, norm=norm)
    frames *= window
    segments = frames.reshape(n_frames, overlap, hop)
    chunks = buf.reshape(-1, hop)
    lo, hi, _ = owned.indices(len(chunks))
    for k in reversed(range(overlap)):
        # frame first + j's segment k lands on chunk first + j + k
        start = min(max(lo - first - k, 0), n_frames)
        end = max(min(hi - first - k, n_frames), start)
        chunks[first + k + start : first + k + end] += segments[start:end, k]


def _trimmed(buf, config, target_length):
    """The synthesis buffer's first target_length samples after its head
    padding, divided by b in place: a view of buf, zero-padded into a new
    array only where buf ends first."""
    out = buf[config.head_pad : config.head_pad + target_length]
    out /= config.b
    if out.size < target_length:
        out = np.pad(out, (0, target_length - out.size))
    return out


def _usable_cpus():
    """CPUs in this process's affinity mask; every CPU where it cannot be read."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _join(thread, stop):
    """Wait until thread, if it was started, has ended.  A KeyboardInterrupt
    while waiting sets stop, so the thread ends after its current block, and
    is raised once it has."""
    interrupt = None
    while thread.is_alive():
        try:
            thread.join()
        except KeyboardInterrupt as exc:
            stop.set()
            interrupt = exc
    if interrupt is not None:
        raise interrupt


def _stream(signals, config, consume, n_out=0):
    """The analysis-synthesis kernel, run _BLOCK_FRAMES frames at a time.

    signals are bare sample arrays of one length.  For each block,
    consume(frames, spectra) gets the block's frame slice and a list of
    every signal's spectra on it, and returns a list of n_out spectra on the
    same frames.  These are synthesised into the n_out sample arrays of the
    signals' length that are returned.  Each spectrum element and output
    sample goes through the same operations in the same order as in
    :func:`stft` and :func:`istft`, the whole-array case, so while consume
    works element by element, results do not depend on the block size.

    The frames run as parts, each a first frame, an end frame and the slice
    of hop-long output chunks it writes; a part's blocks reach consume in
    frame order.  One part covers everything, unless there are outputs,
    more than _BLOCK_FRAMES frames and two usable CPUs.  Then the blocks are
    half as long, so the two in flight hold what one block does, and the
    frames are cut at a block edge near the middle: the caller's thread runs
    the frames and writes the chunks before the cut, and a thread started
    here runs the frames from win_length/hop - 1 before the cut, the ones
    that reach its first chunks too, and writes the chunks from the cut on.
    Each chunk thus sums all its frames in frame order in one thread.  The
    thread runs under the caller's numpy error state; it is joined before
    this returns or raises, and what it raised is raised here.  So with
    outputs, consume must be safe to call from two threads at once, and a
    pure function of its arguments: the frames just before the cut reach it
    twice, once from each thread.
    """
    views = [_frames(x, config) for x in signals]
    n_frames = len(views[0])
    bufs = [_buffer(n_frames, config) for _ in range(n_out)]
    size, parts = _BLOCK_FRAMES, [(0, n_frames, slice(None))]
    if n_out and n_frames > _BLOCK_FRAMES and _usable_cpus() > 1:
        size = max(_BLOCK_FRAMES // 2, 1)
        cut = len(range(0, n_frames, size)) // 2 * size
        rerun = max(cut - (config.win_length // config.hop - 1), 0)
        parts = [(0, cut, slice(0, cut)), (rerun, n_frames, slice(cut, None))]
    errors, stop, failed = np.geterr(), threading.Event(), []

    def run(start, end, owned):
        for first in range(start, end, size):
            if stop.is_set():
                return
            frames = slice(first, first + size)
            spectra = consume(frames, [_analyse(view[frames], config) for view in views])
            # each spectrum is dropped once synthesised
            for buf in bufs:
                _overlap_add(spectra.pop(0), config, buf, first, owned)

    def run_in_thread(*part):
        try:
            with np.errstate(**errors):
                run(*part)
        except BaseException as exc:  # raised again in the caller's thread
            failed.append(exc)

    # a thread for each part after the first: none for a serial call
    workers = [threading.Thread(target=run_in_thread, args=part, name="bregsep-stream")
               for part in parts[1:]]
    try:
        for worker in workers:
            worker.start()
        run(*parts[0])
    except BaseException:
        # an error or Ctrl-C here: the thread stops after its current block
        stop.set()
        raise
    finally:
        for worker in workers:
            _join(worker, stop)
    if failed:
        raise failed[0]
    return [_trimmed(buf, config, signals[0].size) for buf in bufs]


def _float_spectrogram(x, config, write):
    """A frame-major float array on x's analysis grid, filled in one
    :func:`_stream` pass: write(block, frames, spectrum) fills block, its
    slice on each block's frames, from x's spectrum on them."""
    out = np.empty((config.n_bins, config.n_frames(x.size)), order="F")

    def fill(frames, spectra):
        write(out[:, frames], frames, spectra[0])
        return []

    _stream([x], config, fill)
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
    return ComplexSpectrogram(
        _analyse(_frames(x, config), config), config, signal.sample_rate
    )


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
    buf = _buffer(spectrogram.data.shape[1], config)
    _overlap_add(spectrogram.data, config, buf, 0)
    return Signal(_trimmed(buf, config, target_length), spectrogram.sample_rate)

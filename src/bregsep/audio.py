"""WAV file reading and writing.

Only mono files are accepted: 16-bit PCM (divided by 32768 on load) or
32-bit IEEE float (taken as-is).  Writing always produces 16-bit PCM with
saturation clipping and a warning counting clipped samples.
"""

import warnings

import numpy as np
from scipy.io import wavfile

from .transform import Signal

_PCM_SCALE = 32768.0


def load_wav(path):
    """Load a mono WAV file as a Signal.

    Args:
        path: file path.

    Returns:
        Signal with float64 samples; 16-bit PCM is scaled to [-1, 1).

    Raises:
        ValueError: multichannel data, unsupported encoding, a malformed
            header, no samples, or a non-finite float sample; the message
            names the file.
    """
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise ValueError("malformed or unreadable WAV file %s: %s" % (path, exc))
    if data.ndim != 1:
        raise ValueError(
            "%s has %d channels; only mono files are supported" % (path, data.shape[1])
        )
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / _PCM_SCALE
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise ValueError(
            "%s: unsupported encoding %s (expected 16-bit PCM or 32-bit float)"
            % (path, data.dtype)
        )
    if samples.size == 0:
        raise ValueError("%s holds no samples" % path)
    try:
        return Signal(samples, int(rate))
    except ValueError as exc:
        # a float file holding NaN or inf
        raise ValueError("%s: %s" % (path, exc))


def write_wav(path, signal):
    """Write a Signal as mono 16-bit PCM, the inverse of :func:`load_wav`.

    Samples outside the representable range saturate; a warning reports how
    many were clipped.
    """
    scaled = np.rint(signal.samples * _PCM_SCALE)
    clipped = int(np.count_nonzero((scaled < -32768) | (scaled > 32767)))
    if clipped:
        warnings.warn("%s: %d samples clipped during 16-bit conversion" % (path, clipped))
    pcm = np.clip(scaled, -32768, 32767).astype(np.int16)
    wavfile.write(path, signal.sample_rate, pcm)

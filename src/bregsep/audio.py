"""WAV file reading and writing.

Only mono files are accepted: 16-bit PCM (divided by 32768 on load) or
32-bit IEEE float (taken as-is).  Writing always produces 16-bit PCM with
saturation clipping and a warning counting clipped samples.
"""

import struct
import warnings

import numpy as np

from .transform import Signal

_PCM_SCALE = 32768.0
_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# WAVE_FORMAT_EXTENSIBLE's sub-format GUID after its leading 2-byte format
# tag: {0000XXXX-0000-0010-8000-00AA00389B71}
_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")
# the encodings load_wav accepts, by name, and their sample dtypes
_ACCEPTED = {"int16": "<i2", "float32": "<f4"}
# the largest sample rate whose 16-bit byte rate, twice it, fits the
# header's unsigned 32-bit field
_MAX_RATE = 2147483647


def _read_wav(raw):
    """(rate, channels, encoding name, sample bytes) of a WAV file's bytes.

    The chunk walk skips every chunk but fmt and data, each with the pad byte
    that follows an odd size, and rejects one shorter than its header says.
    """
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError("not a RIFF WAVE file")
    view, offset, fmt = memoryview(raw), 12, b""
    while offset + 8 <= len(raw):
        name, size = struct.unpack_from("<4sI", view, offset)
        name, body = name.decode("latin-1"), view[offset + 8 : offset + 8 + size]
        if len(body) < size:
            raise ValueError("chunk %r cut short: %d of %d bytes" % (name, len(body), size))
        if name == "data":
            break
        if name == "fmt ":
            fmt = body
        offset += 8 + size + size % 2
    else:
        raise ValueError("no data chunk")
    if len(fmt) < 16:
        raise ValueError("no fmt chunk before the data chunk")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE and fmt[26:40] == _GUID_TAIL:
        tag = struct.unpack_from("<H", fmt, 24)[0]
    kind = {_PCM: "uint" if bits <= 8 else "int", _FLOAT: "float"}.get(tag)
    encoding = "%s%d" % (kind, 8 * block_align) if kind else "format tag 0x%04x" % tag
    return rate, channels, encoding, body


def _check_rate(path, rate):
    if rate > _MAX_RATE:
        raise ValueError(
            "%s: sample rate %d Hz is above %d, the largest a 16-bit WAV holds"
            % (path, rate, _MAX_RATE)
        )


def load_wav(path):
    """Load a mono WAV file as a Signal.

    Args:
        path: file path.

    Returns:
        Signal with float64 samples; 16-bit PCM is scaled to [-1, 1).

    Raises:
        OSError: the file cannot be opened or read.
        ValueError: multichannel data, unsupported encoding, a malformed
            header, a chunk cut short, no samples, a non-finite float
            sample, or a sample rate above 2147483647 that write_wav
            cannot write back; the message names the file.
    """
    with open(path, "rb") as file:
        raw = file.read()
    try:
        rate, channels, encoding, data = _read_wav(raw)
    except ValueError as exc:
        raise ValueError("malformed or unreadable WAV file %s: %s" % (path, exc))
    if channels != 1:
        raise ValueError(
            "%s has %d channels; only mono files are supported" % (path, channels)
        )
    if encoding not in _ACCEPTED:
        raise ValueError(
            "%s: unsupported encoding %s (expected 16-bit PCM or 32-bit float)"
            % (path, encoding)
        )
    _check_rate(path, rate)
    dtype = np.dtype(_ACCEPTED[encoding])
    # a trailing partial sample is dropped
    samples = np.frombuffer(data, dtype, len(data) // dtype.itemsize).astype(np.float64)
    if encoding == "int16":
        samples /= _PCM_SCALE
    if samples.size == 0:
        raise ValueError("%s holds no samples" % path)
    try:
        return Signal(samples, rate)
    except ValueError as exc:
        # a float file holding NaN or inf
        raise ValueError("%s: %s" % (path, exc))


def write_wav(path, signal):
    """Write a Signal as mono 16-bit PCM, the inverse of :func:`load_wav`.

    Samples outside the representable range saturate; a warning reports how
    many were clipped.  A sample rate above 2147483647 raises ValueError
    before the file is opened.
    """
    _check_rate(path, signal.sample_rate)
    scaled = np.rint(signal.samples * _PCM_SCALE)
    clipped = int(np.count_nonzero((scaled < -32768) | (scaled > 32767)))
    if clipped:
        warnings.warn("%s: %d samples clipped during 16-bit conversion" % (path, clipped))
    pcm = np.clip(scaled, -32768, 32767).astype("<i2")
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + pcm.nbytes, b"WAVE", b"fmt ", 16, _PCM, 1,
        signal.sample_rate, 2 * signal.sample_rate, 2, 16, b"data", pcm.nbytes,
    )
    # the samples are written from the array itself, not a copy of it
    with open(path, "wb") as file:
        file.write(header)
        file.write(pcm.data)

"""Separation quality metrics."""

import math

import numpy as np

SDR_CAP_DB = 240.0


def _norm(samples):
    """Euclidean norm of a 1-D float array, summed by numpy, not by BLAS.

    The package's one norm; no module calls BLAS, for two reasons.  OpenBLAS
    runs ``dot`` on several threads above about 10 000 samples, which spin in
    the sweep's forked workers on the cores the other workers need: on 2 vCPUs
    a default-grid sweep of one 2 s mixture took 9.6-13.7 s with them, against
    4.5-5.5 s serially and 3.2-3.8 s with this norm.  And BLAS's last bits
    move with its thread count, which moved a mixture's bytes.  This is slower
    than ``dot`` (19 against 9 us on 32 000 samples), far under 1 % of a PGD
    iteration.  An overflow gives inf without a warning.
    """
    return math.sqrt(np.einsum("i,i->", samples, samples))


def sdr(reference, estimate):
    """Signal-to-distortion ratio in dB, 20 log10(||s*|| / ||s* - s||).

    Capped at +240 dB when the distortion is below 1e-12 of the reference
    norm (numerically exact reconstruction).

    Args:
        reference: ground-truth Signal (must not be all-zero).
        estimate: estimated Signal of the same length and sample rate.

    Returns:
        float dB value.
    """
    if len(reference) != len(estimate):
        raise ValueError("reference and estimate lengths differ")
    if reference.sample_rate != estimate.sample_rate:
        raise ValueError("reference and estimate sample rates differ")
    ref_norm = _norm(reference.samples)
    if ref_norm == 0.0:
        raise ValueError("reference signal has zero energy")
    dist = _norm(reference.samples - estimate.samples)
    if dist < 1e-12 * ref_norm:
        return SDR_CAP_DB
    return 20.0 * np.log10(ref_norm / dist)

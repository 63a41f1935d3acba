"""Phase recovery and single-channel source separation toolkit.

Signals are analysed with a windowed, unitary short-time Fourier transform
whose synthesis is the exact pseudo-inverse of analysis.  Spectrogram
magnitudes (or powers) are matched under beta-divergences, either with the
classic Griffin-Lim / MISI updates or with projected gradient descent on the
mixing constraint.
"""

from .audio import load_wav, write_wav
from .divergence import DivergenceSpec, bregman, grad_term, objective
from .metrics import sdr
from .mixing import ProviderSpec, align_noise, mix_at_snr, provide_spectrograms
from .solvers import (
    PgdStart,
    SeparationResult,
    SolverConfig,
    SolverDivergedError,
    amplitude_mask_init,
    griffin_lim,
    misi,
    objective_gradient,
    pgd_start,
    project_to_mixture,
    projected_gradient,
)
from .transform import (
    ComplexSpectrogram,
    Measurements,
    NotColaError,
    Signal,
    StftConfig,
    istft,
    make_window,
    normalization_constant,
    stft,
    symmetry_weights,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexSpectrogram",
    "DivergenceSpec",
    "Measurements",
    "NotColaError",
    "PgdStart",
    "ProviderSpec",
    "SeparationResult",
    "Signal",
    "SolverConfig",
    "SolverDivergedError",
    "StftConfig",
    "align_noise",
    "amplitude_mask_init",
    "bregman",
    "grad_term",
    "griffin_lim",
    "istft",
    "load_wav",
    "make_window",
    "misi",
    "mix_at_snr",
    "normalization_constant",
    "objective",
    "objective_gradient",
    "pgd_start",
    "project_to_mixture",
    "projected_gradient",
    "provide_spectrograms",
    "sdr",
    "stft",
    "symmetry_weights",
    "write_wav",
]

"""Beta-divergences as Bregman divergences on spectrogram grids.

The family is parametrised by beta in [0, 2] through a generating function
whose second derivative is x**(beta - 2) for every member:

    beta not in {0, 1}:  x**beta / (beta (beta - 1))
    beta == 1:           x log x - x          (Kullback-Leibler)
    beta == 0:           -log x               (Itakura-Saito)

The divergence of r from z is the generator's Bregman remainder summed over
entries.  "right" places the model |As|^d in the second slot, "left" in the
first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transform import stft, symmetry_weights

DIRECTION_RIGHT = "right"
DIRECTION_LEFT = "left"

# Magnitudes and targets are floored here before every objective and
# gradient evaluation, so beta <= 1 stays defined at spectral zeros.
EPS_FLOOR = 1e-12


@dataclass(frozen=True)
class DivergenceSpec:
    """Divergence choice: beta in [0, 2], fit direction, exponent d.

    Immutable and compared by value; beta is held as a float.
    """

    beta: float
    direction: str = DIRECTION_RIGHT
    d: int = 1

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        if not 0.0 <= self.beta <= 2.0:
            raise ValueError("beta must lie in [0, 2]")
        if self.direction not in (DIRECTION_RIGHT, DIRECTION_LEFT):
            raise ValueError("direction must be 'right' or 'left'")
        if self.d not in (1, 2):
            raise ValueError("d must be 1 or 2")


def _checked(beta, x):
    x = np.asarray(x, dtype=np.float64)
    if x.size and x.min() < 0:
        raise ValueError("generator arguments must be nonnegative")
    if beta <= 1 and x.size and x.min() == 0:
        raise ValueError("x = 0 is outside the domain for beta <= 1")
    return x


def generator(beta, x):
    """Generating function of the beta-divergence, evaluated entrywise."""
    x = _checked(beta, x)
    if beta == 0:
        return -np.log(x)
    if beta == 1:
        return x * np.log(x) - x
    return x**beta / (beta * (beta - 1.0))


def generator_prime(beta, x):
    """First derivative of :func:`generator`."""
    return _generator_prime(beta, _checked(beta, x))


def _generator_prime(beta, x):
    if beta == 0:
        return -1.0 / x
    if beta == 1:
        return np.log(x)
    return x ** (beta - 1.0) / (beta - 1.0)


def generator_second(beta, x):
    """Second derivative of :func:`generator`, x**(beta - 2) for all beta."""
    x = _checked(beta, x)
    return x ** (beta - 2.0)


def bregman(beta, r, z, weights=None):
    """Bregman divergence D(r | z) of the beta generator, summed over entries.

    Args:
        beta: divergence parameter.
        r: first argument, nonnegative (strictly positive when beta <= 1).
        z: second argument, strictly positive.
        weights: optional per-entry multiplicities, broadcastable to r.

    Returns:
        Nonnegative float; zero iff r == z.
    """
    r = np.asarray(r, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if r.shape != z.shape:
        raise ValueError("r and z must have the same shape")
    if z.size == 0:
        return 0.0
    if z.min() <= 0:
        raise ValueError("z must be strictly positive")
    cell = generator(beta, r) - generator(beta, z) - generator_prime(beta, z) * (r - z)
    if weights is not None:
        cell = cell * weights
    return float(np.sum(cell))


def grad_term(spec, target, mag_d):
    """Entrywise derivative of the divergence w.r.t. the model magnitudes.

    For the model z = |As|^d and target r, returns dD/dz evaluated at mag_d:

        right (D(r | z)):  generator_second(mag_d) * (mag_d - r)
        left  (D(z | r)):  generator_prime(mag_d) - generator_prime(r)

    Args:
        spec: DivergenceSpec selecting beta and direction.
        target: measurement matrix r (floored by the caller as needed).
        mag_d: model magnitudes |As|^d, entrywise positive (floored).

    Returns:
        Matrix of the same shape.
    """
    target = np.asarray(target, dtype=np.float64)
    mag_d = np.asarray(mag_d, dtype=np.float64)
    if target.shape != mag_d.shape:
        raise ValueError("target and mag_d must have the same shape")
    _checked(spec.beta, mag_d)
    if spec.direction == DIRECTION_LEFT:
        _checked(spec.beta, target)
    return _model_grad(spec, _target_term(spec, target), mag_d)


def _target_term(spec, target):
    """The target's share of :func:`grad_term`, computed once per target.

    The target itself for "right", generator_prime(target) for "left".
    """
    if spec.direction == DIRECTION_RIGHT:
        return target
    return _generator_prime(spec.beta, target)


def _model_grad(spec, target_term, mag_d):
    """:func:`grad_term` at mag_d given :func:`_target_term`; a new array."""
    if spec.direction == DIRECTION_RIGHT:
        grad = mag_d - target_term
        grad *= mag_d ** (spec.beta - 2.0)
        return grad
    grad = _generator_prime(spec.beta, mag_d)
    grad -= target_term
    return grad


def objective(spec, measurements, signal, config):
    """Divergence between measurements and the signal's |stft|^d.

    Magnitudes and measurements are floored at EPS_FLOOR before generator
    evaluation.  The sum runs over the full conjugate-symmetric spectrum, so
    interior bins of the one-sided grid count twice (see symmetry_weights);
    this makes :func:`bregsep.solvers.objective_gradient` the exact gradient
    of this function.

    Args:
        spec: DivergenceSpec; spec.d must match measurements.d.
        measurements: Measurements on the config's grid.
        signal: Signal to evaluate.
        config: StftConfig.

    Returns:
        Nonnegative float.
    """
    if measurements.d != spec.d:
        raise ValueError("measurements exponent %d != spec.d %d" % (measurements.d, spec.d))
    spectrogram = stft(signal, config)
    if measurements.data.shape != spectrogram.data.shape:
        raise ValueError("measurements shape does not match the analysis grid")
    mag = np.maximum(np.abs(spectrogram.data), EPS_FLOOR)
    mag_d = mag if spec.d == 1 else mag**2
    target = np.maximum(measurements.data, EPS_FLOOR)
    weights = symmetry_weights(config)[:, None]
    if spec.direction == DIRECTION_RIGHT:
        return bregman(spec.beta, target, mag_d, weights=weights)
    return bregman(spec.beta, mag_d, target, weights=weights)

"""Beta-divergences as Bregman divergences on spectrogram grids.

The family is parametrised by beta in [0, 2] through a generating function
whose second derivative is x**(beta - 2) for every member:

    beta not in {0, 1}:  x**beta / (beta (beta - 1))
    beta == 1:           x log x - x          (Kullback-Leibler)
    beta == 0:           -log x               (Itakura-Saito)

DivergenceSpec and bregman evaluate a beta within BETA_LIMIT_TOL of 0 or 1
as that limit.

The divergence of r from z is the generator's Bregman remainder summed over
entries.  "right" places the model |As|^d in the second slot, "left" in the
first.

The per-bin rules live here alone: the floor EPS_FLOOR, the model power |S|^d
and the integrand PGD synthesises.  :func:`objective`, its gradient and PGD
share them, so they see one floored model.
"""

from dataclasses import dataclass

import numpy as np

from .transform import _check_measurements, _stream, symmetry_weights

DIRECTION_RIGHT = "right"
DIRECTION_LEFT = "left"

# Magnitudes and targets are floored here before every objective and
# gradient evaluation, so beta <= 1 stays defined at spectral zeros.
EPS_FLOOR = 1e-12

# A beta this close to 0 or 1 is evaluated as that limit: the generator's
# 1 / (beta (beta - 1)) cancels there, and about sqrt(eps) is where the
# limit's O(beta) error and the rounding's O(eps / beta) meet.
BETA_LIMIT_TOL = 1e-8


def _limit_beta(beta):
    """beta as a float, or the limit 0 or 1 within BETA_LIMIT_TOL of it."""
    beta = float(beta)
    for limit in (0.0, 1.0):
        if abs(beta - limit) <= BETA_LIMIT_TOL:
            return limit
    return beta


@dataclass(frozen=True)
class DivergenceSpec:
    """Divergence choice: beta in [0, 2], fit direction, exponent d.

    Immutable and compared by value; beta is held as a float, as 0 or 1
    when it is within BETA_LIMIT_TOL of one.
    """

    beta: float
    direction: str = DIRECTION_RIGHT
    d: int = 1

    def __post_init__(self):
        if not 0.0 <= float(self.beta) <= 2.0:
            raise ValueError("beta must lie in [0, 2]")
        object.__setattr__(self, "beta", _limit_beta(self.beta))
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


def _generator(beta, x):
    if beta == 0:
        return -np.log(x)
    if beta == 1:
        return x * np.log(x) - x
    return x**beta / (beta * (beta - 1.0))


def _generator_prime(beta, x):
    if beta == 0:
        return -1.0 / x
    if beta == 1:
        return np.log(x)
    return x ** (beta - 1.0) / (beta - 1.0)


def bregman(beta, r, z):
    """Bregman divergence D(r | z) of the beta generator, summed over entries.

    Args:
        beta: divergence parameter.
        r: first argument, nonnegative (strictly positive when beta <= 1).
        z: second argument, strictly positive.

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
    beta = _limit_beta(beta)
    return _bregman(beta, _checked(beta, r), z, 1.0)


def _bregman(beta, r, z, weights):
    """:func:`bregman` of checked float64 r and z > 0, beta as limited, weighted."""
    cell = _generator(beta, r) - _generator(beta, z) - _generator_prime(beta, z) * (r - z)
    cell *= weights
    return float(np.sum(cell))


def grad_term(spec, target, mag_d):
    """Entrywise derivative of the divergence w.r.t. the model magnitudes.

    For the model z = |As|^d and target r, returns dD/dz evaluated at mag_d:

        right (D(r | z)):  mag_d**(beta - 2) * (mag_d - r)
        left  (D(z | r)):  g'(mag_d) - g'(r), g' the generator's derivative

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

    The target itself for "right", the generator's g'(target) for "left".
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


def _model_power(spectrum, d):
    """The floored model magnitudes max(|S|, EPS_FLOOR)^d, a new array."""
    mag = np.abs(spectrum)
    np.maximum(mag, EPS_FLOOR, out=mag)
    if d == 2:
        np.square(mag, out=mag)
    return mag


def _prepared_target(spec, measurements):
    """Measurements floored at EPS_FLOOR, as :func:`_target_term` of them.

    For "right" that is the floored measurements: the measurements
    themselves, uncopied, when no bin is below the floor.
    """
    data = measurements.data
    if spec.direction == DIRECTION_RIGHT and data.min() >= EPS_FLOOR:
        return data
    return _target_term(spec, np.maximum(data, EPS_FLOOR))


def _integrand(spec, target, spectrum):
    """Overwrite spectrum S with S |S|^(d-2) gradterm and return it.

    gradterm is the divergence's derivative at :func:`_model_power` of S
    against target, the :func:`_prepared_target` of the measurements.
    d istft of the result is the gradient of :func:`objective` divided by b.
    """
    mag_d = _model_power(spectrum, spec.d)
    grad = _model_grad(spec, target, mag_d)
    if spec.d == 1:
        # |S|^(d-2) = 1/|S| for d = 1
        grad /= mag_d
    spectrum *= grad
    return spectrum


def objective(spec, measurements, signal, config):
    """Divergence between measurements and the signal's |stft|^d.

    Magnitudes and measurements are floored at EPS_FLOOR before generator
    evaluation.  The sum runs over the full conjugate-symmetric spectrum, so
    interior bins of the one-sided grid count twice (see symmetry_weights);
    this makes :func:`bregsep.solvers.objective_gradient` the exact gradient
    of this function.

    The problem is checked once; the signal then streams through the
    transform kernel, each block of frames adding its unchecked Bregman sum.
    Beyond one block (128 frames) the last bits depend on how the sum is
    split into blocks.

    Args:
        spec: DivergenceSpec; spec.d must match measurements.d.
        measurements: Measurements on the signal's analysis grid.
        signal: Signal to evaluate.
        config: StftConfig.

    Returns:
        Nonnegative float.
    """
    _check_measurements([measurements], signal, config, d=spec.d)
    weights = symmetry_weights(config)[:, None]
    sums = []

    def add(frames, spectra):
        mag_d = _model_power(spectra[0], spec.d)
        target = np.maximum(measurements.data[:, frames], EPS_FLOOR)
        r, z = (target, mag_d) if spec.direction == DIRECTION_RIGHT else (mag_d, target)
        sums.append(_bregman(spec.beta, r, z, weights))
        return []

    _stream([signal.samples], config, add)
    return sum(sums)

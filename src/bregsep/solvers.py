"""Phase recovery solvers: Griffin-Lim, MISI, and projected gradient descent.

All solvers estimate C time-domain sources from per-source spectrogram
measurements r_c and (for the separation solvers) the observed mixture x.
The separation solvers keep iterates on the affine set sum_c s_c = x by
distributing the mixing residual equally after each update.

Projected gradient descent minimises, per source, the beta-divergence
between r_c and |A s_c|^d.  With beta = 2, d = 1, direction "right" and unit
normalized step, its update reduces exactly to MISI.  Because the transform
is linear, a gradient step followed by the projection equals the step along
the source's integrand minus the mean integrand over sources; those C steps
sum to zero, so each iteration costs C forward transforms and C - 1 inverse
transforms, streamed a block of frames at a time like every transform of
amplitude masking, Griffin-Lim, MISI and :func:`objective_gradient`: no
solver holds a full complex spectrogram.  The integrand, floor included, is
the divergence module's, which evaluates the objective by the same rule.
Every PGD run starts from a :class:`PgdStart`, which computes the first
iteration up to the step size on first use, and only reads it: runs that
differ only in step size can share one (``projected_gradient(..., start=...)``).
A PGD run stops with :class:`SolverDivergedError` at the first iterate
that is non-finite or past an energy bound (see :func:`projected_gradient`).
MISI keeps its own Griffin-Lim step and shares only the transform kernel:
it is the reference PGD is checked against.
"""

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .divergence import DivergenceSpec, _integrand, _prepared_target
from .metrics import _norm
from .transform import Signal, StftConfig, _check_measurements, _stream, symmetry_weights


# how far past the problem's scale an iterate may go; see _energy_bound
ENERGY_BOUND_FACTOR = 2.0


class SolverDivergedError(RuntimeError):
    """An iterate was non-finite or past the energy bound.

    iteration is the index of the first such iterate; reason is
    "non-finite" or "energy bound".  Both are held once, as the error's
    args, so the default pickling rebuilds it.
    """

    def __init__(self, iteration, reason):
        super().__init__(iteration, reason)

    iteration = property(lambda self: self.args[0])
    reason = property(lambda self: self.args[1])

    def __str__(self):
        return "solver diverged at iteration %d: %s" % self.args


def _check_iterations(iterations):
    """Reject an iteration count that is not an integer >= 0."""
    if not isinstance(iterations, Integral) or iterations < 0:
        raise ValueError("iterations must be an integer >= 0")


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Projected-gradient settings.

    step_size is the normalized step (the true gradient step divided by the
    window normalization constant b).  Initialization is amplitude masking
    unless an explicit iterate list is handed to the solver.
    """

    spec: DivergenceSpec = field(default_factory=lambda: DivergenceSpec(2.0))
    step_size: float = 1.0
    iterations: int = 5

    def __post_init__(self):
        _check_iterations(self.iterations)
        if not (np.isfinite(self.step_size) and self.step_size >= 0):
            # 0 degenerates to repeated projection of the initialization
            raise ValueError("step_size must be finite and >= 0")


@dataclass(eq=False)
class SeparationResult:
    """Estimated sources of a separation solver, one Signal per source.

    The objective of an estimate is :func:`bregsep.divergence.objective`.
    """

    sources: list


def _phase_synthesis(measurements, x, config):
    """istft(r^(1/d) * X / |X|) for each measurement r, X the stft of x.

    X's unit phase is computed once per block, in place of X, as X times
    1/|X|; bins whose |X| is zero get unit factor 1 (phase 0), set before
    the reciprocal as X = |X| = 1, so a block without such a bin is never
    masked.  The last measurement's product is formed in place of the
    phase, so a single measurement (Griffin-Lim, MISI) allocates no product
    array.

    The values equal those of np.divide(X, |X|) followed by r^(1/d) * phase,
    bit for bit up to the sign of a zero part: numpy divides by |X| + 0i as
    (x + 0 y) * (1/|X|) per part, and a product is the same in either order.
    Returns sample arrays.
    """

    def synthesise(frames, spectra):
        (phase,) = spectra
        inverse = np.abs(phase)
        # |X| >= 0, so a zero bin is the minimum; min is a faster test than all
        if inverse.min() == 0:
            zero = inverse == 0
            inverse[zero] = phase[zero] = 1.0
        np.divide(1.0, inverse, out=inverse)
        phase *= inverse

        def amplitude(r):
            return r.data[:, frames] if r.d == 1 else np.sqrt(r.data[:, frames])

        *rest, last = measurements
        products = [amplitude(r) * phase for r in rest]
        phase *= amplitude(last)
        products.append(phase)
        return products

    return _stream([x], config, synthesise, len(measurements))


def _project(estimates, x):
    """Sample arrays y_c + (x - sum_i y_i) / C, which sum to x."""
    residual = (x - np.sum(estimates, axis=0)) / len(estimates)
    return [y + residual for y in estimates]


def amplitude_mask_init(measurements, mixture, config):
    """Initial source estimates from the mixture phase.

    Each source is synthesised from its measured amplitude r_c^(1/d) combined
    with the mixture's unit phase:  s_c = istft(r_c^(1/d) * X / |X|).

    Args:
        measurements: list of Measurements, one per source, on the grid of
            stft(mixture, config).
        mixture: observed mixture Signal.
        config: StftConfig.

    Returns:
        List of Signals, one per source (not projected onto the mixing
        constraint).
    """
    _check_measurements(measurements, mixture, config)
    return [
        Signal(s, mixture.sample_rate)
        for s in _phase_synthesis(measurements, mixture.samples, config)
    ]


def _initial_sources(name, measurements, mixture, config, d, init):
    """Validate a separation problem once; return its starting sample arrays.

    The start is amplitude masking unless init supplies one Signal per source.
    """
    if len(measurements) < 2:
        raise ValueError("%s needs at least two sources" % name)
    _check_measurements(measurements, mixture, config, d=d)
    if init is None:
        return _phase_synthesis(measurements, mixture.samples, config)
    if len(init) != len(measurements):
        raise ValueError("init must provide one signal per source")
    if any(len(s) != len(mixture) for s in init):
        raise ValueError("init signals must have the mixture's length")
    return [s.samples for s in init]


def griffin_lim(measurements, init, iterations, config):
    """Classic alternating phase recovery for a single magnitude target.

    Repeats s <- istft(r * As / |As|): project the current spectrogram onto
    the measured magnitudes, keep its phase, resynthesise.  The quadratic
    magnitude mismatch is non-increasing along the iterates.

    Args:
        measurements: Measurements with d == 1.
        init: starting Signal (defines the output length).
        iterations: number of updates, >= 0 (0 returns the init).
        config: StftConfig.

    Returns:
        Signal estimate, in a new array also with 0 iterations.
    """
    _check_iterations(iterations)
    _check_measurements([measurements], init, config, d=1)
    s = init.samples
    for _ in range(iterations):
        (s,) = _phase_synthesis([measurements], s, config)
    # with no iteration s is still the init's own array, which a caller may reuse
    return Signal(s if iterations else s.copy(), init.sample_rate)


def project_to_mixture(estimates, mixture):
    """Project estimates onto the affine set sum_c s_c = x.

    Distributes the mixing error equally: s_c = y_c + (x - sum_i y_i) / C.

    Args:
        estimates: list of Signals, all the mixture's length.
        mixture: mixture Signal x.

    Returns:
        List of Signals summing to the mixture at machine precision.
    """
    if not estimates:
        raise ValueError("at least one estimate is required")
    for y in estimates:
        if len(y) != len(mixture):
            raise ValueError("estimate length does not match the mixture")
    projected = _project([y.samples for y in estimates], mixture.samples)
    return [Signal(s, mixture.sample_rate) for s in projected]


def misi(measurements, mixture, iterations, config, init=None):
    """Multiple-input spectrogram inversion.

    Starts from amplitude masking (or the supplied init) and alternates the
    per-source Griffin-Lim update with the mixing projection, so estimates
    always sum to the mixture.

    Args:
        measurements: list of magnitude Measurements (d == 1), length >= 2.
        mixture: mixture Signal.
        iterations: number of update/projection rounds, >= 0.
        config: StftConfig.
        init: optional list of starting Signals overriding amplitude masking.

    Returns:
        SeparationResult.  Its arrays are new, also with 0 iterations: they
        share no memory with init.
    """
    _check_iterations(iterations)
    current = _initial_sources("misi", measurements, mixture, config, 1, init)
    for _ in range(iterations):
        updated = [
            _phase_synthesis([r], s, config)[0] for r, s in zip(measurements, current)
        ]
        current = _project(updated, mixture.samples)
    if not iterations:
        # still the init's own arrays, which a caller may reuse
        current = [s.copy() for s in current]
    return SeparationResult([Signal(s, mixture.sample_rate) for s in current])


def objective_gradient(signal, measurements, spec, config):
    """Gradient of :func:`bregsep.divergence.objective` w.r.t. the signal.

    Computed as d * b * istft(As . |As|^(d-2) . gradterm), the istft of the
    divergence's :func:`~bregsep.divergence._integrand`, streamed a block of
    frames at a time.

    Returns:
        Signal holding the gradient (same length and rate as the input).
    """
    _check_measurements([measurements], signal, config, d=spec.d)
    target = _prepared_target(spec, measurements)

    def integrand(frames, spectra):
        return [_integrand(spec, target[:, frames], spectra[0])]

    (gradient,) = _stream([signal.samples], config, integrand, 1)
    return Signal(config.b * spec.d * gradient, signal.sample_rate)


def _zero_mean_updates(current, targets, spec, config):
    """istft(I_c - mean_c I) for every source c but the last.

    I_c is the integrand of source c, computed a block of frames at a time.
    Scaled by step d these are the sources' moves; the C moves sum to zero,
    so the last one is minus the sum of these and costs no inverse transform.
    """
    # a multiply by the reciprocal: bitwise the same as complex / real,
    # and vectorised where numpy's complex division is not
    inverse = 1.0 / len(current)

    def update(frames, spectra):
        integrands = [_integrand(spec, target[:, frames], spectrum)
                      for spectrum, target in zip(spectra, targets)]
        mean = integrands.pop()
        for integrand in integrands:
            mean += integrand
        mean *= inverse
        for integrand in integrands:
            integrand -= mean
        return integrands

    return _stream(current, config, update, len(current) - 1)


def _energy_bound(measurements, mixture, config):
    """ENERGY_BOUND_FACTOR * max(||x||, max_c E_c): past it PGD has blown up.

    E_c = sqrt(sum w r_c^(2/d) / b), with w the :func:`symmetry_weights`, is
    the norm of any signal whose spectrogram magnitudes are r_c^(1/d).  It
    gives the bound a scale on a silent mixture.
    """
    weights = symmetry_weights(config)
    implied = 0.0
    for r in measurements:
        # per-bin sums of r^(2/d), without a temporary of the grid's size
        if r.d == 1:
            per_bin = np.einsum("ij,ij->i", r.data, r.data)
        else:
            per_bin = r.data.sum(axis=1)
        implied = max(implied, float(np.einsum("i,i->", weights, per_bin)))
    scale = max(_norm(mixture.samples), np.sqrt(implied / config.b))
    return ENERGY_BOUND_FACTOR * scale


@dataclass(frozen=True, eq=False)
class PgdStart:
    """A PGD problem and its start; see :func:`pgd_start`.

    measurements, mixture, spec and config record the problem the start was
    built for.  sources: the start's sample arrays; targets: the prepared
    targets, one per source; bound: the energy bound of :func:`_energy_bound`.
    Runs only read a start.
    """

    measurements: tuple
    mixture: Signal
    spec: DivergenceSpec
    config: StftConfig
    sources: list
    targets: list
    bound: float

    @cached_property
    def direction(self):
        """istft(I_c - mean_c I) at the start, for every source c but the last."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _zero_mean_updates(self.sources, self.targets, self.spec, self.config)


def pgd_start(measurements, mixture, spec, stft_config, init=None):
    """Validate a PGD problem and hold what its runs share.

    At the first iteration source c moves by -step d direction_c, plus the
    projection onto the mixing set; direction_c depends on the start, the
    measurements and spec but not on the step.  The start computes it when
    the first run reads it, so building one runs no transform beyond amplitude
    masking.  Runs only read a start, so runs that differ only in step size
    can share one through projected_gradient(start=...).  The start also
    holds the runs' energy bound.

    Args:
        measurements: list of Measurements (length >= 2) sharing spec.d.
        mixture: mixture Signal.
        spec: DivergenceSpec.
        stft_config: StftConfig.
        init: optional list of starting Signals (amplitude masking if None).

    Returns:
        PgdStart.
    """
    sources = _initial_sources(
        "projected_gradient", measurements, mixture, stft_config, spec.d, init
    )
    return PgdStart(
        tuple(measurements),
        mixture,
        spec,
        stft_config,
        sources,
        [_prepared_target(spec, r) for r in measurements],
        _energy_bound(measurements, mixture, stft_config),
    )


def _check_start(start, measurements, mixture, spec, config, init):
    """Reject a start built for another problem."""
    if init is not None:
        raise ValueError("pass init or start, not both")
    if start.mixture is not mixture or start.measurements != tuple(measurements):
        raise ValueError("start was built for another mixture or measurements")
    if start.spec != spec:
        raise ValueError("start was built for another divergence")
    if start.config != config:
        raise ValueError("start was built for another analysis grid")


def projected_gradient(
    measurements, mixture, solver_config, stft_config, init=None, start=None
):
    """Separate sources by projected gradient descent on the mixing set.

    Per iteration and source: take a gradient step on the divergence between
    r_c and |A s_c|^d with normalized step size, then project all estimates
    back onto sum_c s_c = x.  Initialization (amplitude masking unless init
    is given) is not projected.

    The step and the projection are computed together.  With I_c the
    integrand A s_c |A s_c|^(d-2) gradterm_c, source c moves by
    -step d istft(I_c - mean_c I), plus (x - sum_c s_c) / C on the first
    iteration, where the start is off the mixing set.  Those moves sum to
    zero, so the last source takes minus the sum of the others': each
    iteration runs C forward and C - 1 inverse transforms.

    Every run starts from a :class:`PgdStart`: start, or one built here with
    :func:`pgd_start` from init, which computes the step-independent first
    istft(I_c - mean_c I) on first use.  The run only reads its start, and
    drops it after that first read, so a start built here is freed as the
    run moves past it.

    The run stops at the first iterate that is non-finite or has blown up:
    max_c ||s_c|| > ENERGY_BOUND_FACTOR * max(||x||, max_c E_c), where
    E_c = sqrt(sum w r_c^(2/d) / b) is the norm source c's measurements
    imply.  The bound is held on the start, so each iteration adds one norm
    per source and no transform.

    Args:
        measurements: list of Measurements (length >= 2) sharing the
            exponent solver_config.spec.d.
        mixture: mixture Signal.
        solver_config: SolverConfig (step size, iterations, divergence).
        stft_config: StftConfig.
        init: optional list of starting Signals; not with start.
        start: optional PgdStart built for these measurements and mixture
            objects, an equal divergence and an equal grid.

    Returns:
        SeparationResult.  Its arrays are new, also with 0 iterations: they
        share no memory with init or start.

    Raises:
        SolverDivergedError: an iterate was non-finite or past the energy
            bound; the exception carries its iteration index and the reason,
            "non-finite" or "energy bound".
    """
    spec = solver_config.spec
    if start is not None:
        _check_start(start, measurements, mixture, spec, stft_config, init)
    else:
        start = pgd_start(measurements, mixture, spec, stft_config, init)
    current, targets, bound = start.sources, start.targets, start.bound
    scale = solver_config.step_size * spec.d
    for t in range(solver_config.iterations):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if t == 0:
                directions = start.direction
                # a start built here is dropped after this first read
                start = None
                # the start is off the mixing set; later iterates stay on it
                current = _project(current, mixture.samples)
            else:
                directions = _zero_mean_updates(current, targets, spec, stft_config)
            for s, direction in zip(current, directions):
                update = direction * scale
                s -= update
                current[-1] += update
            # held into the next iteration's transforms, the last move would
            # add a signal's size to the peak memory of long runs
            del update
            # before any Signal is built: Signal rejects non-finite samples.
            # A NaN or infinite norm fails the test too.
            if not all(_norm(s) <= bound for s in current):
                finite = all(np.all(np.isfinite(s)) for s in current)
                raise SolverDivergedError(
                    t, "energy bound" if finite else "non-finite"
                )
    if not solver_config.iterations:
        # still the start's or init's own arrays, which a caller may reuse
        current = [s.copy() for s in current]
    return SeparationResult([Signal(s, mixture.sample_rate) for s in current])

"""Property tests of the transform and solver identities over random
configurations, signal lengths and seeds."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bregsep.divergence import EPS_FLOOR, DivergenceSpec, grad_term
from bregsep.solvers import (
    SolverConfig,
    SolverDivergedError,
    misi,
    pgd_start,
    projected_gradient,
)
from bregsep.transform import (
    ComplexSpectrogram,
    Measurements,
    Signal,
    StftConfig,
    istft,
    magnitude_power,
    normalization_constant,
    stft,
    symmetry_weights,
)

FEW = settings(max_examples=25, deadline=None)
PGD_CONFIG = StftConfig(64, 16)


@st.composite
def configs_and_lengths(draw):
    """A COLA config (win/hop in {3, 4, 8}, win even) and a signal length
    from 1 up to three windows, so lengths below hop and below win occur."""
    ratio = draw(st.sampled_from((3, 4, 8)))
    hop = draw(st.integers(1, 12)) * (2 if ratio == 3 else 1)
    win = ratio * hop
    return StftConfig(win, hop), draw(st.integers(1, 3 * win))


@FEW
@given(configs_and_lengths(), st.integers(0, 2**32 - 1))
@example((StftConfig(24, 8), 5), 0)
@example((StftConfig(48, 16), 40), 1)
@example((StftConfig(32, 8), 3), 2)
@example((StftConfig(64, 16), 1000), 3)
def test_round_trip_and_adjoint(case, seed):
    config, length = case
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(length)
    spec = stft(Signal(u), config)
    assert np.max(np.abs(istft(spec, length).samples - u)) < 1e-10

    # <A u, G>_w == b <u, istft(G)>, interior one-sided bins weighted twice
    g = rng.standard_normal(spec.data.shape) + 1j * rng.standard_normal(
        spec.data.shape
    )
    weights = symmetry_weights(config)[:, None]
    lhs = float(np.sum(weights * (spec.data * np.conj(g))).real)
    synth = istft(ComplexSpectrogram(g, config), length).samples
    rhs = normalization_constant(config) * float(np.dot(u, synth))
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def _instance(seed, length, d=1):
    rng = np.random.default_rng(seed)
    mixture = Signal(rng.standard_normal(length))
    measurements = []
    for _ in range(2):
        mag = np.abs(stft(Signal(rng.standard_normal(length)), PGD_CONFIG).data)
        measurements.append(Measurements(mag**d, d))
    return mixture, measurements


@FEW
@given(st.integers(0, 2**32 - 1), st.integers(8, 600))
def test_quadratic_pgd_is_misi_and_keeps_the_mixture(seed, length):
    mixture, measurements = _instance(seed, length)
    for k in (1, 2, 3):
        ref = misi(measurements, mixture, k, PGD_CONFIG)
        solver = SolverConfig(DivergenceSpec(2.0, "right", 1), 1.0, k)
        out = projected_gradient(measurements, mixture, solver, PGD_CONFIG)
        for a, b in zip(ref.sources, out.sources):
            assert np.max(np.abs(a.samples - b.samples)) < 1e-9
        total = np.sum([s.samples for s in out.sources], axis=0)
        assert np.max(np.abs(total - mixture.samples)) < 1e-9


@FEW
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 600),
    st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0)),
    st.sampled_from(("right", "left")),
    st.sampled_from((1, 2)),
)
def test_every_pgd_iterate_sums_to_the_mixture(seed, length, beta, direction, d):
    mixture, measurements = _instance(seed, length, d)
    for k in (1, 2, 3):
        solver = SolverConfig(DivergenceSpec(beta, direction, d), 1e-3, k)
        try:
            out = projected_gradient(measurements, mixture, solver, PGD_CONFIG)
        except SolverDivergedError:
            return
        stack = np.array([s.samples for s in out.sources])
        # the projection is exact up to rounding relative to the iterates
        scale = max(1.0, float(np.max(np.abs(stack))))
        assert np.max(np.abs(stack.sum(axis=0) - mixture.samples)) < 1e-9 * scale


def _blow_up_bound(measurements, mixture):
    """2 max(||x||, max_c E_c), with E_c = sqrt(sum w r_c^(2/d) / b) the
    norm that source c's measurements imply."""
    weights = symmetry_weights(PGD_CONFIG)[:, None]
    implied = max(
        np.sqrt(np.sum(weights * r.data ** (2 / r.d)) / PGD_CONFIG.b)
        for r in measurements
    )
    return 2.0 * max(np.linalg.norm(mixture), implied)


def _peak_norm(sources):
    return max(np.linalg.norm(s) for s in sources)


def _reference_pgd(measurements, mixture, spec, step, iterations, init):
    """PGD as the paper states it: step every source along its own
    gradient, then project the estimates onto the mixing set.

    Returns every iterate, the first to the last."""
    current = list(init)
    iterates = []
    for _ in range(iterations):
        stepped = []
        for s, r in zip(current, measurements):
            spectrum = stft(Signal(s), PGD_CONFIG).data
            mag = np.maximum(np.abs(spectrum), EPS_FLOOR)
            term = grad_term(spec, np.maximum(r.data, EPS_FLOOR), mag**spec.d)
            integrand = spectrum * term * mag ** (spec.d - 2)
            synth = istft(ComplexSpectrogram(integrand, PGD_CONFIG), s.size)
            stepped.append(s - step * spec.d * synth.samples)
        residual = (mixture - np.sum(stepped, axis=0)) / len(stepped)
        current = [y + residual for y in stepped]
        iterates.append(current)
    return iterates


# Below beta = 1 the gradient term grows like |S|^(beta - 2) at small
# magnitudes, and a rounding-level change of the start moves the reference's
# own iterates by more than 1e-9 relative; the comparison then measures that
# conditioning, not the algebra.  beta >= 1 keeps it well posed.
@FEW
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 600),
    st.sampled_from((2, 3)),
    st.floats(1.0, 2.0),
    st.sampled_from(("right", "left")),
    st.sampled_from((1, 2)),
    st.floats(1e-4, 1.0),
    st.integers(1, 4),
)
def test_pgd_matches_step_then_project(
    seed, length, count, beta, direction, d, step, iterations
):
    rng = np.random.default_rng(seed)
    mixture = rng.standard_normal(length)
    measurements = [
        magnitude_power(stft(Signal(rng.standard_normal(length)), PGD_CONFIG), d)
        for _ in range(count)
    ]
    # independent of the mixture, so off the mixing set
    init = [rng.standard_normal(length) for _ in range(count)]
    spec = DivergenceSpec(beta, direction, d)
    iterates = _reference_pgd(measurements, mixture, spec, step, iterations, init)
    try:
        out = projected_gradient(
            measurements,
            Signal(mixture),
            SolverConfig(spec, step, iterations),
            PGD_CONFIG,
            init=[Signal(s) for s in init],
        )
    except SolverDivergedError as err:
        # the reference passes the same bound at the same iterate
        bound = _blow_up_bound(measurements, mixture)
        assert all(_peak_norm(it) <= bound for it in iterates[: err.iteration])
        assert _peak_norm(iterates[err.iteration]) > bound
        return
    ref = np.array(iterates[-1])
    got = np.array([s.samples for s in out.sources])
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(got - ref)) <= 1e-9 * scale


@FEW
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 600),
    st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0)),
    st.sampled_from(("right", "left")),
    st.sampled_from((1, 2)),
    st.floats(1e-4, 1.0),
)
def test_pgd_stays_at_an_exact_three_source_fit(seed, length, beta, direction, d, step):
    rng = np.random.default_rng(seed)
    sources = [Signal(rng.standard_normal(length)) for _ in range(3)]
    mixture = Signal(np.sum([s.samples for s in sources], axis=0))
    measurements = [magnitude_power(stft(s, PGD_CONFIG), d) for s in sources]
    solver = SolverConfig(DivergenceSpec(beta, direction, d), step, 4)
    out = projected_gradient(measurements, mixture, solver, PGD_CONFIG, init=sources)
    for got, want in zip(out.sources, sources):
        assert np.max(np.abs(got.samples - want.samples)) < 1e-10


@FEW
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 600),
    st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0)),
    st.sampled_from(("right", "left")),
    st.sampled_from((1, 2)),
    st.floats(1e-4, 1.0),
)
# a finite blow-up: past the bound at iteration 1
@example(0, 400, 0.5, "right", 2, 1e-3)
def test_no_returned_run_passes_the_energy_bound(seed, length, beta, direction, d, step):
    mixture, measurements = _instance(seed, length, d)
    bound = _blow_up_bound(measurements, mixture.samples)
    diverged_at = None
    # a k-iteration run ends at the k-th iterate of a longer one
    for k in (1, 2, 3):
        solver = SolverConfig(DivergenceSpec(beta, direction, d), step, k)
        try:
            out = projected_gradient(measurements, mixture, solver, PGD_CONFIG)
        except SolverDivergedError as err:
            assert diverged_at in (None, err.iteration)
            diverged_at = err.iteration
            continue
        assert diverged_at is None
        assert _peak_norm([s.samples for s in out.sources]) <= bound


def _outcome(run):
    """(iteration of divergence or None, result or None) of one PGD run."""
    try:
        return None, run()
    except SolverDivergedError as err:
        return err.iteration, None


@FEW
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 600),
    st.sampled_from((2, 3)),
    st.floats(0.0, 2.0),
    st.sampled_from(("right", "left")),
    st.sampled_from((1, 2)),
    # 1e300 overflows: the run diverges
    st.lists(
        st.one_of(st.sampled_from((0.0, 1.0, 1e300)), st.floats(1e-4, 100.0)),
        min_size=2,
        max_size=5,
        unique=True,
    ),
    st.integers(0, 3),
    st.booleans(),
)
def test_shared_start_equals_own_start(
    seed, length, count, beta, direction, d, steps, iterations, masked
):
    rng = np.random.default_rng(seed)
    mixture = Signal(rng.standard_normal(length))
    measurements = [
        magnitude_power(stft(Signal(rng.standard_normal(length)), PGD_CONFIG), d)
        for _ in range(count)
    ]
    init = None
    if not masked:
        init = [Signal(rng.standard_normal(length)) for _ in range(count)]
    spec = DivergenceSpec(beta, direction, d)
    start = pgd_start(measurements, mixture, spec, PGD_CONFIG, init)
    # the same start built from copies, which no run reads
    pristine = pgd_start(
        [Measurements(r.data.copy(), d) for r in measurements],
        mixture,
        spec,
        PGD_CONFIG,
        None if init is None else [Signal(s.samples.copy()) for s in init],
    )
    # the steps come in drawn order, so one start serves them in any order
    for step in steps:
        solver = SolverConfig(spec, step, iterations)
        own = _outcome(lambda: projected_gradient(
            measurements, mixture, solver, PGD_CONFIG, init=init
        ))
        shared = _outcome(lambda: projected_gradient(
            measurements, mixture, solver, PGD_CONFIG, start=start
        ))
        assert own[0] == shared[0]
        if own[1] is None:
            continue
        for a, b in zip(own[1].sources, shared[1].sources):
            assert np.array_equal(a.samples, b.samples)
    # the runs left the start as built, bit for bit
    assert all(
        a.tobytes() == b.tobytes()
        for name in ("sources", "targets", "direction")
        for a, b in zip(getattr(start, name), getattr(pristine, name))
    )


# zeros of both signs, the smallest subnormal and normal, the largest
# finite values, and the non-finite ones
_AWKWARD_PARTS = st.sampled_from(
    (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, np.inf, -np.inf, np.nan)
)
_PARTS = st.one_of(_AWKWARD_PARTS, st.floats())


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.complex128, st.integers(1, 32), elements=st.builds(complex, _PARTS, _PARTS)
    ),
    st.integers(2, 6),
)
def test_reciprocal_scaling_is_division_by_the_source_count(values, count):
    # the zero-mean update scales the summed integrands by 1 / C: numpy
    # divides a complex array by a real C as (re + im 0) (1 / C), so the
    # product gives the same values, up to the sign of zero
    with np.errstate(invalid="ignore", over="ignore"):
        product, quotient = values * (1.0 / count), values / count
    assert np.array_equal(product, quotient, equal_nan=True)
    for part in ("real", "imag"):
        assert np.array_equal(
            getattr(product, part), getattr(quotient, part), equal_nan=True
        )

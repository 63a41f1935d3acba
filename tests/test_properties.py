"""Property tests of the transform and solver identities over random
configurations, signal lengths and seeds."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bregsep import solvers, transform
from bregsep.divergence import (
    EPS_FLOOR,
    DivergenceSpec,
    _bregman,
    grad_term,
    objective,
)
from bregsep.mixing import ProviderSpec, provide_spectrograms
from bregsep.solvers import (
    SolverConfig,
    SolverDivergedError,
    amplitude_mask_init,
    griffin_lim,
    misi,
    objective_gradient,
    pgd_start,
    projected_gradient,
)
from bregsep.transform import (
    ComplexSpectrogram,
    Measurements,
    Signal,
    StftConfig,
    istft,
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
        Measurements(
            np.abs(stft(Signal(rng.standard_normal(length)), PGD_CONFIG).data) ** d, d
        )
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
    measurements = [
        Measurements(np.abs(stft(s, PGD_CONFIG).data) ** d, d) for s in sources
    ]
    solver = SolverConfig(DivergenceSpec(beta, direction, d), step, 4)
    out = projected_gradient(measurements, mixture, solver, PGD_CONFIG, init=sources)
    for got, want in zip(out.sources, sources):
        assert np.max(np.abs(got.samples - want.samples)) < 1e-10


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6: at d 2 the model is floored at |S| >= EPS_FLOOR, which is "
    "EPS_FLOOR**2 in power, but the target at EPS_FLOOR in power, so an exact "
    "fit with bins under the floor has a large gradient"))
def test_pgd_stays_at_an_exact_three_source_fit_with_bins_under_the_floor():
    # the draw of the property above with 33 of its 3 x 429 bins under the floor:
    # "right" moves a source by 8.39, "left" stops diverged
    rng = np.random.default_rng(3029)
    sources = [Signal(rng.standard_normal(146)) for _ in range(3)]
    mixture = Signal(np.sum([s.samples for s in sources], axis=0))
    measurements = [
        Measurements(np.abs(stft(s, PGD_CONFIG).data) ** 2, 2) for s in sources
    ]
    for direction in ("right", "left"):
        solver = SolverConfig(DivergenceSpec(0.0, direction, 2), 1e-4, 4)
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
        Measurements(
            np.abs(stft(Signal(rng.standard_normal(length)), PGD_CONFIG).data) ** d, d
        )
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


def _awkward_measurements(rng, length, d, awkward):
    """|stft|^d of noise with a share `awkward` of its bins set to exact
    zero or to values under EPS_FLOOR, half each."""
    data = np.abs(stft(Signal(rng.standard_normal(length)), PGD_CONFIG).data) ** d
    pick = rng.random(data.shape)
    data[pick < awkward / 2] = 0.0
    under = (pick >= awkward / 2) & (pick < awkward)
    data[under] = rng.uniform(0.0, EPS_FLOOR, np.count_nonzero(under))
    return Measurements(data, d)


# The sweep runs beta 2 under one direction and writes its rows for both:
# the two directions must be one problem, bit for bit, on every input,
# floored bins and blow-ups included.
@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 600),
    st.sampled_from((2, 3)),
    st.sampled_from((1, 2)),
    # 1e300 overflows: the run diverges
    st.one_of(st.sampled_from((0.0, 1e300)), st.floats(1e-4, 10.0)),
    st.integers(0, 4),
    # 1: every bin zero or under the floor, so masked starts are silent
    st.sampled_from((0.0, 0.1, 0.5, 1.0)),
    st.booleans(),
)
@example(0, 300, 2, 1, 1e300, 2, 0.1, True)
@example(1, 300, 3, 2, 0.0, 4, 1.0, True)
def test_beta_2_left_and_right_are_one_problem(
    seed, length, count, d, step, iterations, awkward, masked
):
    rng = np.random.default_rng(seed)
    mixture = Signal(rng.standard_normal(length))
    measurements = [
        _awkward_measurements(rng, length, d, awkward) for _ in range(count)
    ]
    init = None
    if not masked:
        init = [Signal(rng.standard_normal(length)) for _ in range(count)]
    outcomes = []
    for direction in ("right", "left"):
        solver = SolverConfig(DivergenceSpec(2.0, direction, d), step, iterations)
        try:
            out = projected_gradient(
                measurements, mixture, solver, PGD_CONFIG, init=init
            )
        except SolverDivergedError as err:
            outcomes.append(((err.iteration, err.reason), None))
        else:
            outcomes.append((None, [s.samples for s in out.sources]))
    (right_stop, right), (left_stop, left) = outcomes
    assert right_stop == left_stop
    if right is not None:
        assert all(np.array_equal(a, b) for a, b in zip(right, left))

    signal = Signal(
        np.zeros(length) if awkward == 1.0 else rng.standard_normal(length)
    )
    right, left = (
        objective_gradient(
            signal, measurements[0], DivergenceSpec(2.0, direction, d), PGD_CONFIG
        ).samples
        for direction in ("right", "left")
    )
    assert np.array_equal(right, left)


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


@st.composite
def _block_and_length(draw):
    """A streaming block size and a signal length: shorter than a hop, or
    with a frame count one below, at or one above a multiple of the block."""
    block = draw(st.sampled_from((1, 3, 7)))
    hop = PGD_CONFIG.hop
    if draw(st.booleans()):
        return block, draw(st.integers(1, hop - 1))
    # the grid has at least win_length/hop frames
    frames = draw(st.sampled_from([
        m * block + j for m in (1, 2, 3) for j in (-1, 0, 1) if m * block + j >= 4
    ]))
    # the lengths in one hop from here all have this frame count
    length = (frames - 1) * hop - PGD_CONFIG.head_pad + 1
    length += draw(st.integers(0, hop - 1))
    assert PGD_CONFIG.n_frames(length) == frames
    return block, length


def _arrays_or_stop(run):
    """The arrays run() returns, or the iteration and reason of the
    SolverDivergedError it raises."""
    try:
        return run()
    except SolverDivergedError as err:
        return err.iteration, err.reason


def _samples(signals):
    return [s.samples for s in signals]


# Streaming a clip through the transform kernel block by block must give
# what one block of all frames gives, to the last bit: every element goes
# through the same operations in the same order.
@settings(max_examples=60, deadline=None)
@given(
    _block_and_length(),
    st.integers(0, 2**32 - 1),
    st.sampled_from((2, 3)),
    st.sampled_from((1, 2)),
    st.sampled_from(("right", "left")),
    st.one_of(st.sampled_from((0.0, 2.0)), st.floats(0.0, 2.0)),
    # bins at exact zero or under EPS_FLOOR, see _awkward_measurements
    st.sampled_from((0.0, 0.1, 0.5)),
)
@example((7, 6 * 16 - 48 + 1), 0, 2, 1, "right", 2.0, 0.1)
@example((3, 13 * 16 - 48 + 5), 1, 3, 2, "left", 0.0, 0.5)
def test_streamed_kernel_is_the_whole_array_kernel_bit_for_bit(
    case, seed, count, d, direction, beta, awkward
):
    block, length = case
    rng = np.random.default_rng(seed)
    sources = [Signal(rng.standard_normal(length)) for _ in range(count)]
    # a silent head gives exact-zero mixture bins, whose phase is 0
    samples = rng.standard_normal(length)
    samples[: rng.integers(0, length + 1)] = 0.0
    mixture = Signal(samples)
    magnitudes = [
        _awkward_measurements(rng, length, 1, awkward) for _ in range(count)
    ]
    measurements = [Measurements(r.data**d, d) for r in magnitudes]
    spec = DivergenceSpec(beta, direction, d)
    targets = [solvers._prepared_target(spec, r) for r in measurements]
    current = [rng.standard_normal(length) for _ in range(count)]
    starts = [Signal(s) for s in current]

    def update():
        with np.errstate(all="ignore"):
            return solvers._zero_mean_updates(current, targets, spec, PGD_CONFIG)

    runs = {
        "pgd update": update,
        "pgd run": lambda: _samples(projected_gradient(
            measurements, mixture, SolverConfig(spec, 0.1, 2), PGD_CONFIG
        ).sources),
        "amplitude mask": lambda: _samples(
            amplitude_mask_init(measurements, mixture, PGD_CONFIG)
        ),
        "griffin-lim step": lambda: _samples(
            [griffin_lim(magnitudes[0], starts[0], 1, PGD_CONFIG)]
        ),
        "misi step": lambda: _samples(
            misi(magnitudes, mixture, 1, PGD_CONFIG, init=starts).sources
        ),
        "providers": lambda: [
            r.data
            for mode, sigma in (("oracle", 0.0), ("noisy_oracle", 0.5))
            for r in provide_spectrograms(
                sources, ProviderSpec(mode, sigma, seed), d, PGD_CONFIG
            )
        ],
    }
    for name, run in runs.items():
        with mock.patch.object(transform, "_BLOCK_FRAMES", block):
            streamed = _arrays_or_stop(run)
        # one block of all frames: the whole-array case
        with mock.patch.object(transform, "_BLOCK_FRAMES", 2**31):
            whole = _arrays_or_stop(run)
        if isinstance(whole, tuple):
            assert streamed == whole, name
            continue
        assert len(streamed) == len(whole), name
        for a, b in zip(streamed, whole):
            assert np.array_equal(a, b, equal_nan=True), name


def _phase_synthesis_by_division(measurements, x, config):
    """The phase-synthesis step written out with numpy's complex division:
    X / |X| on the positive bins, 1 on the others, then r^(1/d) * phase."""

    def synthesise(frames, spectra):
        (spectrum,) = spectra
        mag = np.abs(spectrum)
        positive = mag > 0
        phase = np.ones_like(spectrum)
        np.divide(spectrum, mag, out=phase, where=positive)
        return [
            (r.data[:, frames] if r.d == 1 else np.sqrt(r.data[:, frames])) * phase
            for r in measurements
        ]

    return transform._stream([x], config, synthesise, len(measurements))


# _phase_synthesis multiplies by 1/|X| where numpy's complex division by
# |X| + 0i does the same per part: the two must agree to the last bit,
# whatever the complex-division loop of the installed numpy.
@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 20 * PGD_CONFIG.hop),
    st.sampled_from((1, 3, 7)),
    st.integers(1, 3),
    st.sampled_from((1, 2)),
    # decades of gain for the signal and the measurements
    st.integers(-100, 100),
    st.integers(-100, 100),
)
@example(0, 5 * PGD_CONFIG.hop, 1, 3, 2, -100, 100)
def test_phase_synthesis_equals_complex_division(
    seed, length, block, count, d, signal_gain, measurement_gain
):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(length) * 10.0**signal_gain
    # silent stretches: frames inside one have exact-zero bins
    for _ in range(2):
        start = rng.integers(0, length + 1)
        x[start : start + rng.integers(0, length + 1)] = 0.0
    shape = (PGD_CONFIG.n_bins, PGD_CONFIG.n_frames(length))
    measurements = []
    for _ in range(count):
        data = rng.random(shape) * 10.0 ** (measurement_gain + rng.integers(-3, 4))
        data[rng.random(shape) < 0.1] = 0.0
        measurements.append(Measurements(data, d))
    with mock.patch.object(transform, "_BLOCK_FRAMES", block):
        got = solvers._phase_synthesis(measurements, x, PGD_CONFIG)
        expected = _phase_synthesis_by_division(measurements, x, PGD_CONFIG)
    assert len(got) == count
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def _objective_whole_array(spec, measurements, signal, config):
    """The objective written out on the whole-array stft: the floored
    |S|^d against the floored measurements, one weighted sum of the
    Bregman core."""
    mag_d = np.maximum(np.abs(stft(signal, config).data), EPS_FLOOR) ** spec.d
    target = np.maximum(measurements.data, EPS_FLOOR)
    weights = symmetry_weights(config)[:, None]
    if spec.direction == "right":
        return _bregman(spec.beta, target, mag_d, weights)
    return _bregman(spec.beta, mag_d, target, weights)


# The objective streams through the transform kernel and sums block by
# block: the whole-array sum to rounding, and to the last bit in one block.
@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300 * PGD_CONFIG.hop),
    st.sampled_from((1, 7, 128)),
    st.sampled_from((1, 2)),
    st.sampled_from(("right", "left")),
    st.one_of(st.sampled_from((0.0, 1.0, 2.0)), st.floats(0.0, 2.0)),
    # bins at exact zero or under EPS_FLOOR, see _awkward_measurements
    st.sampled_from((0.0, 0.1, 0.5)),
)
@example(0, 300 * PGD_CONFIG.hop, 128, 2, "left", 0.0, 0.5)
@example(1, 100 * PGD_CONFIG.hop, 128, 1, "right", 1.5, 0.1)
def test_streamed_objective_is_the_whole_array_sum(
    seed, length, block, d, direction, beta, awkward
):
    rng = np.random.default_rng(seed)
    # a silent stretch gives exact-zero signal bins
    samples = rng.standard_normal(length)
    start = rng.integers(0, length + 1)
    samples[start : start + rng.integers(0, length + 1)] = 0.0
    signal = Signal(samples)
    magnitudes = _awkward_measurements(rng, length, 1, awkward)
    measurements = Measurements(magnitudes.data**d, d)
    spec = DivergenceSpec(beta, direction, d)
    with mock.patch.object(transform, "_BLOCK_FRAMES", block):
        got = objective(spec, measurements, signal, PGD_CONFIG)
    want = _objective_whole_array(spec, measurements, signal, PGD_CONFIG)
    if PGD_CONFIG.n_frames(length) <= block:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

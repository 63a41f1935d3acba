import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from bregsep import solvers, transform
from bregsep.divergence import EPS_FLOOR, DivergenceSpec, _generator_prime, objective
from bregsep.mixing import ProviderSpec, provide_spectrograms
from bregsep.solvers import (
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
from bregsep.transform import (
    ComplexSpectrogram,
    Measurements,
    Signal,
    StftConfig,
    istft,
    stft,
    symmetry_weights,
)

SEED = 2468
CFG = StftConfig(256, 64)


def _random_measurements(rng, length, count, d=1, config=CFG):
    out = []
    for _ in range(count):
        mag = np.abs(stft(Signal(rng.standard_normal(length)), config).data)
        out.append(Measurements(mag if d == 1 else mag**2, d))
    return out


def _refuse_transforms(monkeypatch):
    def refuse(*args):
        raise AssertionError("a transform ran")

    monkeypatch.setattr(solvers, "_stream", refuse)


NON_INTEGER_COUNTS = (2.5, 2.0, "2", None)


def _fd_gradient(signal, meas, spec, config):
    s = signal.samples
    grad = np.zeros_like(s)
    for i in range(s.size):
        h = 1e-6 * (1.0 + abs(s[i]))
        up = s.copy()
        down = s.copy()
        up[i] += h
        down[i] -= h
        j_up = objective(spec, meas, Signal(up), config)
        j_down = objective(spec, meas, Signal(down), config)
        grad[i] = (j_up - j_down) / (2.0 * h)
    return grad


def _objective_totals(meas, x, spec, step, iterations):
    """Sum over sources of :func:`objective` after each of the first PGD iterations.

    A k-iteration run ends at the k-th iterate of a longer one, so runs of
    1 to iterations iterations give the objective along one run.  These are
    feasible iterates only: the start is not on the mixing set.
    """
    totals = []
    for k in range(1, iterations + 1):
        res = projected_gradient(meas, x, SolverConfig(spec, step, k), CFG)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            totals.append(
                sum(objective(spec, r, s, CFG) for r, s in zip(meas, res.sources))
            )
    return totals


class TestSolverDivergedError:
    def test_survives_pickling(self):
        # the default pickling, from the error's args
        err = SolverDivergedError(3, "energy bound")
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is SolverDivergedError
        assert (back.iteration, back.reason) == (3, "energy bound")
        assert str(back) == str(err) == "solver diverged at iteration 3: energy bound"


class TestProjectToMixture:
    def test_hand_example(self):
        y = [Signal(np.array([1.0, 0.0])), Signal(np.array([0.0, 0.0]))]
        x = Signal(np.array([0.0, 0.0]))
        out = project_to_mixture(y, x)
        assert np.allclose(out[0].samples, [0.5, 0.0], atol=1e-15)
        assert np.allclose(out[1].samples, [-0.5, 0.0], atol=1e-15)

    def test_sum_is_exact(self):
        rng = np.random.default_rng(SEED)
        x = Signal(rng.standard_normal(500))
        y = [Signal(rng.standard_normal(500)) for _ in range(3)]
        out = project_to_mixture(y, x)
        total = np.sum([s.samples for s in out], axis=0)
        assert np.max(np.abs(total - x.samples)) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(SEED + 1)
        x = Signal(rng.standard_normal(300))
        y = [Signal(rng.standard_normal(300)) for _ in range(2)]
        once = project_to_mixture(y, x)
        twice = project_to_mixture(once, x)
        for a, b in zip(once, twice):
            assert np.max(np.abs(a.samples - b.samples)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            project_to_mixture([Signal(np.ones(4))], Signal(np.ones(5)))

    def test_no_estimates_rejected(self):
        with pytest.raises(ValueError, match="at least one estimate is required"):
            project_to_mixture([], Signal(np.ones(5)))


class TestAmplitudeMaskInit:
    def test_single_source_recovers_input(self):
        rng = np.random.default_rng(SEED + 2)
        x = Signal(rng.standard_normal(2000))
        r = Measurements(np.abs(stft(x, CFG).data), 1)
        (est,) = amplitude_mask_init([r], x, CFG)
        assert np.max(np.abs(est.samples - x.samples)) < 1e-10

    def test_power_measurements_recover_input(self):
        rng = np.random.default_rng(SEED + 3)
        x = Signal(rng.standard_normal(2000))
        r = Measurements(np.abs(stft(x, CFG).data) ** 2, 2)
        (est,) = amplitude_mask_init([r], x, CFG)
        assert np.max(np.abs(est.samples - x.samples)) < 1e-10

    def test_zero_measurements_give_silence(self):
        rng = np.random.default_rng(SEED + 4)
        x = Signal(rng.standard_normal(2000))
        shape = (CFG.n_bins, CFG.n_frames(2000))
        out = amplitude_mask_init([Measurements(np.zeros(shape), 1)], x, CFG)
        assert np.max(np.abs(out[0].samples)) == 0.0

    def test_silent_mixture_gives_zero_phase(self):
        # every mixture bin is exactly zero, so each source keeps phase 0
        rng = np.random.default_rng(SEED + 25)
        x = Signal(np.zeros(2000))
        meas = _random_measurements(rng, 2000, 2)
        out = amplitude_mask_init(meas, x, CFG)
        for r, est in zip(meas, out):
            expected = istft(ComplexSpectrogram(r.data, CFG), 2000).samples
            assert np.max(np.abs(est.samples - expected)) < 1e-12

    def test_power_peak_memory_within_six_spectrograms(self):
        # d = 2: each square root is taken just before its synthesis
        config = StftConfig(1024, 256)
        rng = np.random.default_rng(SEED + 28)
        x = Signal(rng.standard_normal(32000))
        meas = _random_measurements(rng, 32000, 2, d=2, config=config)
        amplitude_mask_init(meas, x, config)
        tracemalloc.start()
        try:
            amplitude_mask_init(meas, x, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        spectrogram = meas[0].data.size * np.dtype(np.complex128).itemsize
        assert peak <= 6 * spectrogram

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(SEED + 5)
        x = Signal(rng.standard_normal(2000))
        bad = Measurements(np.ones((CFG.n_bins, 3)), 1)
        with pytest.raises(ValueError):
            amplitude_mask_init([bad], x, CFG)

    def test_no_measurements_rejected(self):
        x = Signal(np.ones(2000))
        with pytest.raises(ValueError, match="at least one measurement matrix"):
            amplitude_mask_init([], x, CFG)

    def test_mixed_exponents_rejected(self):
        # with no exponent asked for, every measurement must have the first one's
        rng = np.random.default_rng(SEED + 41)
        x = Signal(rng.standard_normal(2000))
        magnitude, power = _random_measurements(rng, 2000, 2)
        power = Measurements(power.data**2, 2)
        with pytest.raises(ValueError, match="exponent 2, expected 1"):
            amplitude_mask_init([magnitude, power], x, CFG)


def _masked_products(measurements, spectra, frames):
    # the phase step with a mask on every block: r^(1/d) * X / |X|, phase 1
    # where |X| is zero
    phase = spectra.copy()
    inverse = np.abs(phase)
    positive = inverse > 0
    np.divide(1.0, inverse, out=inverse, where=positive)
    phase *= inverse
    phase[~positive] = 1.0
    return [(r.data[:, frames] if r.d == 1 else np.sqrt(r.data[:, frames])) * phase
            for r in measurements]


class TestPhaseSynthesis:
    @pytest.mark.parametrize("zeros", ["none", "some", "all"])
    @pytest.mark.parametrize("d, count", [(1, 1), (1, 2), (2, 3)])
    def test_equals_the_masked_phase_step(self, monkeypatch, zeros, d, count):
        rng = np.random.default_rng(SEED + count)
        length = 300 * CFG.hop
        x = rng.standard_normal(length)
        if zeros == "some":
            # silent frames in the first block only
            x[: 40 * CFG.hop] = 0.0
        elif zeros == "all":
            x[:] = 0.0
        measurements = _random_measurements(rng, length, count, d)
        blocks = []
        stream = solvers._stream

        def recording_stream(signals, config, consume, n_out):
            def recording_consume(frames, spectra):
                products = consume(frames, spectra)
                blocks.append((frames, [p.copy() for p in products]))
                return products

            return stream(signals, config, recording_consume, n_out)

        monkeypatch.setattr(solvers, "_stream", recording_stream)
        spectra = stft(Signal(x), CFG).data
        assert CFG.n_frames(length) == 303
        # three 128-frame blocks in one thread, or five 64-frame blocks when a
        # second thread takes the last three, from win_length/hop - 1 = 3
        # frames before the cut at 128
        for cpus, starts, size in [(1, [0, 128, 256], 128), (2, [0, 64, 125, 189, 253], 64)]:
            monkeypatch.setattr(transform, "_usable_cpus", lambda: cpus)
            blocks.clear()
            solvers._phase_synthesis(measurements, x, CFG)
            # the two threads' blocks interleave; each thread's come in frame order
            blocks.sort(key=lambda block: block[0].start)
            assert [frames for frames, _ in blocks] == [slice(s, s + size) for s in starts]
            n = len(starts)
            has_zero = [not np.abs(spectra[:, frames]).all() for frames, _ in blocks]
            assert has_zero == {"none": [False] * n, "some": [True] + [False] * (n - 1),
                                "all": [True] * n}[zeros]
            for frames, products in blocks:
                want = _masked_products(measurements, spectra[:, frames], frames)
                assert len(products) == len(want)
                for got, ref in zip(products, want):
                    assert np.array_equal(got.real, ref.real)
                    assert np.array_equal(got.imag, ref.imag)


class TestGriffinLim:
    def test_requires_magnitude_measurements(self):
        rng = np.random.default_rng(SEED + 6)
        x = Signal(rng.standard_normal(1000))
        r = Measurements(np.abs(stft(x, CFG).data) ** 2, 2)
        with pytest.raises(ValueError):
            griffin_lim(r, x, 3, CFG)

    def test_zero_iterations_returns_init(self):
        rng = np.random.default_rng(SEED + 7)
        x = Signal(rng.standard_normal(1000))
        r = Measurements(np.abs(stft(x, CFG).data), 1)
        init = Signal(rng.standard_normal(1000))
        out = griffin_lim(r, init, 0, CFG)
        assert np.array_equal(out.samples, init.samples)

    def test_zero_iterations_share_no_memory_with_init(self):
        # a result written into must not change the caller's init
        rng = np.random.default_rng(SEED + 7)
        x = Signal(rng.standard_normal(1000))
        r = Measurements(np.abs(stft(x, CFG).data), 1)
        init = Signal(rng.standard_normal(1000))
        out = griffin_lim(r, init, 0, CFG)
        assert not np.shares_memory(out.samples, init.samples)

    @pytest.mark.parametrize("iterations", NON_INTEGER_COUNTS)
    def test_non_integer_iterations_rejected_before_any_transform(
        self, monkeypatch, iterations
    ):
        rng = np.random.default_rng(SEED + 7)
        x = Signal(rng.standard_normal(1000))
        r = Measurements(np.abs(stft(x, CFG).data), 1)
        _refuse_transforms(monkeypatch)
        with pytest.raises(ValueError, match="iterations must be an integer"):
            griffin_lim(r, x, iterations, CFG)

    def test_fixed_point_at_exact_magnitudes(self):
        rng = np.random.default_rng(SEED + 8)
        x = Signal(rng.standard_normal(2000))
        r = Measurements(np.abs(stft(x, CFG).data), 1)
        out = griffin_lim(r, x, 10, CFG)
        assert np.max(np.abs(out.samples - x.samples)) < 1e-10

    def test_quadratic_loss_non_increasing(self):
        rng = np.random.default_rng(SEED + 9)
        weights = symmetry_weights(CFG)[:, None]
        for _ in range(3):
            (r,) = _random_measurements(rng, 2000, 1)
            s = Signal(rng.standard_normal(2000))
            prev = np.inf
            for _ in range(20):
                s = griffin_lim(r, s, 1, CFG)
                mag = np.abs(stft(s, CFG).data)
                loss = float(np.sum(weights * (r.data - mag) ** 2))
                assert loss <= prev + 1e-10
                prev = loss


class TestObjectiveGradient:
    def test_matches_finite_differences(self):
        cfg = StftConfig(32, 8)
        rng = np.random.default_rng(SEED + 10)
        for beta, d, direction in [
            (0.0, 1, "right"),
            (0.5, 2, "left"),
            (1.0, 1, "left"),
            (1.5, 2, "right"),
            (2.0, 1, "right"),
        ]:
            spec = DivergenceSpec(beta, direction, d)
            signal = Signal(rng.standard_normal(128))
            base = np.abs(stft(Signal(rng.standard_normal(128)), cfg).data)
            data = base * rng.uniform(0.5, 2.0, base.shape)
            meas = Measurements(data if d == 1 else data**2, d)
            grad = objective_gradient(signal, meas, spec, cfg).samples
            grad_fd = _fd_gradient(signal, meas, spec, cfg)
            rel = np.linalg.norm(grad - grad_fd) / np.linalg.norm(grad_fd)
            assert rel < 1e-4

    def test_zero_at_exact_fit(self):
        rng = np.random.default_rng(SEED + 11)
        signal = Signal(rng.standard_normal(2000))
        meas = Measurements(np.abs(stft(signal, CFG).data), 1)
        for direction in ("right", "left"):
            grad = objective_gradient(
                signal, meas, DivergenceSpec(1.5, direction, 1), CFG
            )
            assert np.max(np.abs(grad.samples)) < 1e-10

    def test_exponent_mismatch_rejected(self):
        rng = np.random.default_rng(SEED + 12)
        signal = Signal(rng.standard_normal(500))
        meas = Measurements(np.abs(stft(signal, CFG).data), 1)
        with pytest.raises(ValueError):
            objective_gradient(signal, meas, DivergenceSpec(1.0, "right", 2), CFG)

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(SEED + 24)
        signal = Signal(rng.standard_normal(500))
        meas = Measurements(np.abs(stft(Signal(rng.standard_normal(900)), CFG).data), 1)
        spec = DivergenceSpec(1.0, "right", 1)
        with pytest.raises(ValueError, match="does not match the analysis grid"):
            objective_gradient(signal, meas, spec, CFG)
        # the same error as the objective itself
        with pytest.raises(ValueError, match="does not match the analysis grid"):
            objective(spec, meas, signal, CFG)


class TestMisi:
    def test_needs_two_sources(self):
        rng = np.random.default_rng(SEED + 13)
        x = Signal(rng.standard_normal(1000))
        meas = _random_measurements(rng, 1000, 1)
        with pytest.raises(ValueError):
            misi(meas, x, 3, CFG)

    def test_init_length_mismatch_rejected(self):
        rng = np.random.default_rng(SEED + 25)
        x = Signal(rng.standard_normal(1000))
        meas = _random_measurements(rng, 1000, 2)
        for length in (999, 1001, 1500):
            init = [Signal(rng.standard_normal(length)) for _ in range(2)]
            with pytest.raises(ValueError, match="mixture's length"):
                misi(meas, x, 3, CFG, init=init)

    @pytest.mark.parametrize("iterations", NON_INTEGER_COUNTS)
    def test_non_integer_iterations_rejected_before_any_transform(
        self, monkeypatch, iterations
    ):
        # amplitude masking, misi's start, must not run either
        rng = np.random.default_rng(SEED + 13)
        x = Signal(rng.standard_normal(1000))
        meas = _random_measurements(rng, 1000, 2)
        _refuse_transforms(monkeypatch)
        with pytest.raises(ValueError, match="iterations must be an integer"):
            misi(meas, x, iterations, CFG)

    def test_estimates_sum_to_mixture(self):
        rng = np.random.default_rng(SEED + 14)
        x = Signal(rng.standard_normal(3000))
        meas = _random_measurements(rng, 3000, 2)
        res = misi(meas, x, 4, CFG)
        total = np.sum([s.samples for s in res.sources], axis=0)
        assert np.max(np.abs(total - x.samples)) < 1e-9

    def test_zero_iterations_share_no_memory_with_init(self):
        rng = np.random.default_rng(SEED + 16)
        x = Signal(rng.standard_normal(1000))
        meas = _random_measurements(rng, 1000, 2)
        init = [Signal(rng.standard_normal(1000)) for _ in range(2)]
        kept = [s.samples.copy() for s in init]
        out = misi(meas, x, 0, CFG, init=init)
        for got, given, want in zip(out.sources, init, kept):
            assert not np.shares_memory(got.samples, given.samples)
            assert np.array_equal(got.samples, want)
            got.samples[:] = 0.0
            assert np.array_equal(given.samples, want)

    def test_stationary_at_exact_fit(self):
        rng = np.random.default_rng(SEED + 15)
        s1 = Signal(rng.standard_normal(3000))
        s2 = Signal(rng.standard_normal(3000))
        x = Signal(s1.samples + s2.samples)
        meas = provide_spectrograms([s1, s2], ProviderSpec("oracle"), 1, CFG)
        res = misi(meas, x, 5, CFG, init=[s1, s2])
        assert np.max(np.abs(res.sources[0].samples - s1.samples)) < 1e-10
        assert np.max(np.abs(res.sources[1].samples - s2.samples)) < 1e-10


class TestProjectedGradient:
    def test_matches_misi_for_quadratic_magnitude_fit(self):
        # beta = 2, d = 1, right, unit normalized step reproduces MISI
        rng = np.random.default_rng(SEED + 17)
        for _ in range(5):
            x = Signal(rng.standard_normal(4096))
            meas = _random_measurements(rng, 4096, 2)
            for iters in (1, 3, 5):
                ref = misi(meas, x, iters, CFG)
                cfg = SolverConfig(
                    DivergenceSpec(2.0, "right", 1), step_size=1.0, iterations=iters
                )
                out = projected_gradient(meas, x, cfg, CFG)
                for a, b in zip(ref.sources, out.sources):
                    assert np.max(np.abs(a.samples - b.samples)) < 1e-9

    def test_constraint_after_every_iteration(self):
        rng = np.random.default_rng(SEED + 18)
        x = Signal(rng.standard_normal(3000))
        meas = _random_measurements(rng, 3000, 2)
        for beta, d, direction in [(0.0, 1, "right"), (1.0, 2, "left"), (2.0, 1, "left")]:
            for iters in (1, 2, 5):
                cfg = SolverConfig(
                    DivergenceSpec(beta, direction, d),
                    step_size=1e-3,
                    iterations=iters,
                )
                m = meas if d == 1 else [Measurements(r.data**2, 2) for r in meas]
                if beta == 0.0:
                    # its first iterate is at 2.2 ||x||, and 55 ||x|| by the
                    # fifth: a finite blow-up
                    with pytest.raises(SolverDivergedError) as err:
                        projected_gradient(m, x, cfg, CFG)
                    assert (err.value.iteration, err.value.reason) == (
                        0, "energy bound"
                    )
                    continue
                res = projected_gradient(m, x, cfg, CFG)
                total = np.sum([s.samples for s in res.sources], axis=0)
                assert np.max(np.abs(total - x.samples)) < 1e-9

    def test_zero_step_is_repeated_projection(self):
        rng = np.random.default_rng(SEED + 19)
        x = Signal(rng.standard_normal(2000))
        meas = _random_measurements(rng, 2000, 2)
        init = amplitude_mask_init(meas, x, CFG)
        projected = project_to_mixture(init, x)
        for iters in (1, 4):
            cfg = SolverConfig(
                DivergenceSpec(1.0, "right", 1), step_size=0.0, iterations=iters
            )
            res = projected_gradient(meas, x, cfg, CFG)
            for a, b in zip(res.sources, projected):
                assert np.max(np.abs(a.samples - b.samples)) < 1e-12

    def test_stationary_at_exact_fit(self):
        rng = np.random.default_rng(SEED + 20)
        s1 = Signal(rng.standard_normal(3000))
        s2 = Signal(rng.standard_normal(3000))
        x = Signal(s1.samples + s2.samples)
        for d in (1, 2):
            meas = provide_spectrograms([s1, s2], ProviderSpec("oracle"), d, CFG)
            cfg = SolverConfig(
                DivergenceSpec(1.0, "right", d), step_size=0.1, iterations=5
            )
            res = projected_gradient(meas, x, cfg, CFG, init=[s1, s2])
            assert np.max(np.abs(res.sources[0].samples - s1.samples)) < 1e-10
            assert np.max(np.abs(res.sources[1].samples - s2.samples)) < 1e-10

    def test_soft_descent_with_step_halving(self):
        rng = np.random.default_rng(SEED + 21)
        x = Signal(rng.standard_normal(2000))
        for beta, d, direction in [(0.0, 1, "right"), (1.0, 1, "left"), (2.0, 2, "right")]:
            meas = _random_measurements(rng, 2000, 2, d=d)
            spec = DivergenceSpec(beta, direction, d)
            step = 1e-2
            for _ in range(21):
                try:
                    totals = _objective_totals(meas, x, spec, step, 5)
                except SolverDivergedError:
                    step /= 2.0
                    continue
                diffs = np.diff(totals)
                if np.all(diffs <= 1e-12 * max(abs(t) for t in totals)):
                    break
                step /= 2.0
            else:
                pytest.fail(
                    "no descent after 20 halvings (beta=%s d=%d %s)" % (beta, d, direction)
                )

    def test_divergence_raises_with_iteration_index(self):
        rng = np.random.default_rng(SEED + 22)
        x = Signal(rng.standard_normal(3000))
        meas = _random_measurements(rng, 3000, 2, d=2)
        cfg = SolverConfig(
            DivergenceSpec(2.0, "right", 2), step_size=100.0, iterations=10
        )
        with pytest.raises(SolverDivergedError) as err:
            projected_gradient(meas, x, cfg, CFG)
        assert 0 <= err.value.iteration < 10

    def test_needs_two_sources(self):
        rng = np.random.default_rng(SEED + 23)
        x = Signal(rng.standard_normal(1000))
        meas = _random_measurements(rng, 1000, 1)
        cfg = SolverConfig(DivergenceSpec(2.0, "right", 1))
        with pytest.raises(ValueError):
            projected_gradient(meas, x, cfg, CFG)

    def test_init_length_mismatch_rejected(self):
        rng = np.random.default_rng(SEED + 26)
        x = Signal(rng.standard_normal(1000))
        meas = _random_measurements(rng, 1000, 2)
        cfg = SolverConfig(DivergenceSpec(1.0, "left", 1), step_size=1e-3)
        for length in (999, 1001, 1500):
            init = [Signal(rng.standard_normal(length)), x]
            with pytest.raises(ValueError, match="mixture's length"):
                projected_gradient(meas, x, cfg, CFG, init=init)

    @pytest.mark.parametrize("count", [1, 3])
    def test_init_with_another_source_count_rejected(self, count):
        rng = np.random.default_rng(SEED + 43)
        x = Signal(rng.standard_normal(1000))
        meas = _random_measurements(rng, 1000, 2)
        cfg = SolverConfig(DivergenceSpec(1.0, "left", 1), step_size=1e-3)
        with pytest.raises(ValueError, match="init must provide one signal per source"):
            projected_gradient(meas, x, cfg, CFG, init=[x] * count)

    def _two_second_problem(self, d):
        config = StftConfig(1024, 256)
        rng = np.random.default_rng(SEED + 27)
        x = Signal(rng.standard_normal(32000))
        return config, x, _random_measurements(rng, 32000, 2, d=d, config=config)

    # both cases run all five iterations
    @pytest.mark.parametrize("beta, direction, d", [(1.5, "left", 1), (1.0, "right", 2)])
    def test_peak_memory_within_seven_spectrograms(self, beta, direction, d):
        # 2 s at 16 kHz, two sources, five iterations, amplitude-mask start
        config, x, meas = self._two_second_problem(d)
        cfg = SolverConfig(DivergenceSpec(beta, direction, d), 1e-3, 5)
        projected_gradient(meas, x, cfg, config)
        tracemalloc.start()
        try:
            projected_gradient(meas, x, cfg, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        spectrogram = meas[0].data.size * np.dtype(np.complex128).itemsize
        assert peak <= 7 * spectrogram

    def test_finite_blow_up_stops_at_first_iterate(self):
        # the former d = 2 memory case: 8 to 9.6 ||x|| from its first iterate
        config, x, meas = self._two_second_problem(2)
        cfg = SolverConfig(DivergenceSpec(0.5, "right", 2), 1e-3, 5)
        with pytest.raises(SolverDivergedError, match="energy bound") as err:
            projected_gradient(meas, x, cfg, config)
        assert (err.value.iteration, err.value.reason) == (0, "energy bound")

    # sources near 1e200 overflow |S|^2 in the start's update at d = 2
    @pytest.mark.parametrize("beta, direction", [(0.0, "left"), (1.0, "right")])
    def test_overflow_in_the_second_thread_warns_nowhere(self, monkeypatch, beta, direction):
        monkeypatch.setattr(transform, "_usable_cpus", lambda: 2)
        rng = np.random.default_rng(SEED + 44)
        length = 300 * CFG.hop
        x = Signal(rng.standard_normal(length))
        meas = _random_measurements(rng, length, 2, d=2)
        init = [Signal(1e200 * rng.standard_normal(length)) for _ in range(2)]
        cfg = SolverConfig(DivergenceSpec(beta, direction, 2), 1e-3, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverDivergedError):
                projected_gradient(meas, x, cfg, CFG, init=init)

    def test_energy_bound_depends_on_values_not_layout(self):
        # C-ordered copies of the measurements give the same bound, to the
        # last bit; on a silent mixture the measurements alone set it
        rng = np.random.default_rng(SEED + 33)
        x = Signal(np.zeros(2000))
        for d in (1, 2):
            for _ in range(10):
                meas = _random_measurements(rng, 2000, 2, d=d)
                copies = [Measurements(np.ascontiguousarray(r.data), d) for r in meas]
                assert solvers._energy_bound(copies, x, CFG) == solvers._energy_bound(
                    meas, x, CFG
                )

    def test_energy_bound_on_a_silent_mixture(self):
        # ||x|| = 0: the bound is twice the largest norm the measurements
        # imply, E_c = sqrt(sum w r_c^2 / b) at d = 1
        rng = np.random.default_rng(SEED + 31)
        x = Signal(np.zeros(2000))
        meas = _random_measurements(rng, 2000, 2)
        weights = symmetry_weights(CFG)[:, None]
        implied = max(np.sqrt(np.sum(weights * r.data**2) / CFG.b) for r in meas)
        for direction in ("right", "left"):
            spec = DivergenceSpec(1.0, direction, 1)
            start = pgd_start(meas, x, spec, CFG)
            assert abs(start.bound - 2.0 * implied) <= 1e-12 * implied
            # step 0 keeps the projected start, which is within E_c
            res = projected_gradient(meas, x, SolverConfig(spec, 0.0, 3), CFG)
            projected = project_to_mixture(amplitude_mask_init(meas, x, CFG), x)
            for got, want in zip(res.sources, projected):
                assert np.array_equal(got.samples, want.samples)
            with pytest.raises(SolverDivergedError) as err:
                projected_gradient(meas, x, SolverConfig(spec, 1e6, 3), CFG)
            assert err.value.reason == "energy bound"
        # silence measured as silence: a bound of 0, met by the all-zero
        # iterates, so the run returns silence
        shape = meas[0].data.shape
        for spec in (DivergenceSpec(1.0, "right", 1), DivergenceSpec(0.0, "left", 2)):
            zero = [Measurements(np.zeros(shape), spec.d) for _ in range(2)]
            assert pgd_start(zero, x, spec, CFG).bound == 0.0
            res = projected_gradient(zero, x, SolverConfig(spec, 1.0, 3), CFG)
            assert all(not np.any(s.samples) for s in res.sources)

    def test_energy_bound_checks_the_last_source(self):
        # three sources, only the last past the bound: the start [a, a, x - 2a]
        # with a = -x is on the mixing set, and step 0 keeps it
        rng = np.random.default_rng(SEED + 42)
        sources = [Signal(rng.standard_normal(2000)) for _ in range(3)]
        x = Signal(sum(s.samples for s in sources))
        meas = [Measurements(np.abs(stft(s, CFG).data), 1) for s in sources]
        init = [Signal(-x.samples), Signal(-x.samples), Signal(3.0 * x.samples)]
        spec = DivergenceSpec(1.0, "right", 1)
        norm = np.linalg.norm(x.samples)
        assert norm < pgd_start(meas, x, spec, CFG).bound < 3.0 * norm
        with pytest.raises(SolverDivergedError) as err:
            projected_gradient(meas, x, SolverConfig(spec, 0.0, 1), CFG, init=init)
        assert (err.value.iteration, err.value.reason) == (0, "energy bound")


class TestLongClipMemory:
    """Peak traced memory on a 10 s, two-source problem, in units of one
    full complex spectrogram: the solvers stream the transforms block by
    block, so none builds a spectrogram-sized complex array."""

    def _problem(self, d):
        config = StftConfig(1024, 256)
        rng = np.random.default_rng(SEED + 40)
        x = Signal(rng.standard_normal(160000))
        return config, x, _random_measurements(rng, 160000, 2, d=d, config=config)

    @staticmethod
    def _peak_in_spectrograms(run, meas):
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (meas[0].data.size * np.dtype(np.complex128).itemsize)

    @pytest.mark.parametrize("d", [1, 2])
    def test_amplitude_mask_within_two_spectrograms(self, d):
        config, x, meas = self._problem(d)
        peak = self._peak_in_spectrograms(
            lambda: amplitude_mask_init(meas, x, config), meas
        )
        assert peak <= 2

    @pytest.mark.parametrize("beta, direction, d", [(1.5, "left", 1), (1.0, "right", 2)])
    def test_pgd_within_four_spectrograms(self, beta, direction, d):
        # three iterations from the amplitude-mask start
        config, x, meas = self._problem(d)
        cfg = SolverConfig(DivergenceSpec(beta, direction, d), 1e-3, 3)
        peak = self._peak_in_spectrograms(
            lambda: projected_gradient(meas, x, cfg, config), meas
        )
        assert peak <= 4

    @pytest.mark.parametrize("direction", ["right", "left"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_objective_within_one_and_a_half_spectrograms(self, d, direction):
        config, x, meas = self._problem(d)
        spec = DivergenceSpec(1.5, direction, d)
        peak = self._peak_in_spectrograms(
            lambda: objective(spec, meas[0], x, config), meas
        )
        assert peak <= 1.5


class TestPgdStart:
    def _problem(self):
        rng = np.random.default_rng(SEED + 29)
        x = Signal(rng.standard_normal(1000))
        meas = _random_measurements(rng, 1000, 2)
        spec = DivergenceSpec(1.5, "left", 1)
        return x, meas, spec, pgd_start(meas, x, spec, CFG)

    def test_init_and_start_together_rejected(self):
        x, meas, spec, start = self._problem()
        cfg = SolverConfig(spec, 1e-3, 2)
        init = [Signal(s) for s in start.sources]
        with pytest.raises(ValueError, match="init or start"):
            projected_gradient(meas, x, cfg, CFG, init=init, start=start)

    def test_start_for_another_problem_rejected(self):
        x, meas, spec, start = self._problem()
        same_samples = Signal(x.samples.copy())
        cases = [
            (meas, x, DivergenceSpec(1.0, "left", 1), CFG, "divergence"),
            (meas, x, DivergenceSpec(1.5, "right", 1), CFG, "divergence"),
            (meas, x, DivergenceSpec(1.5, "left", 2), CFG, "divergence"),
            (meas, x, spec, StftConfig(256, 128), "grid"),
            (meas, same_samples, spec, CFG, "mixture"),
            (list(reversed(meas)), x, spec, CFG, "measurements"),
            (meas[:1], x, spec, CFG, "measurements"),
            (meas + meas[:1], x, spec, CFG, "measurements"),
        ]
        for other_meas, mixture, other_spec, config, message in cases:
            cfg = SolverConfig(other_spec, 1e-3, 2)
            with pytest.raises(ValueError, match=message):
                projected_gradient(other_meas, mixture, cfg, config, start=start)
        # the same objects and values in a fresh spec and config are accepted
        cfg = SolverConfig(DivergenceSpec(1.5, "left", 1), 1e-3, 2)
        projected_gradient(list(meas), x, cfg, StftConfig(256, 64), start=start)

    def test_building_runs_no_transform(self, monkeypatch):
        # the first direction is computed by the first run that reads it
        x, meas, spec, start = self._problem()
        init = [Signal(s) for s in start.sources]
        _refuse_transforms(monkeypatch)
        built = pgd_start(meas, x, spec, CFG, init)
        monkeypatch.undo()
        for got, want in zip(built.direction, start.direction):
            assert np.array_equal(got, want)

    def test_zero_iterations_run_no_transform(self, monkeypatch):
        x, meas, spec, start = self._problem()
        init = [Signal(s) for s in start.sources]
        _refuse_transforms(monkeypatch)
        cfg = SolverConfig(spec, 1e-3, 0)
        for kwargs in ({"init": init}, {"start": start}):
            out = projected_gradient(meas, x, cfg, CFG, **kwargs)
            for got, want in zip(out.sources, start.sources):
                assert np.array_equal(got.samples, want)

    def test_zero_iterations_share_no_memory_with_start_or_init(self):
        # a result written into must not change later runs from the start
        x, meas, spec, start = self._problem()
        init = [Signal(s.copy()) for s in start.sources]
        cfg = SolverConfig(spec, 1e-3, 2)
        before = projected_gradient(meas, x, cfg, CFG, start=start)
        given = [s.samples for s in init]
        for kwargs, arrays in (({"init": init}, given), ({"start": start}, start.sources)):
            out = projected_gradient(meas, x, SolverConfig(spec, 1e-3, 0), CFG, **kwargs)
            for got, array in zip(out.sources, arrays):
                assert not np.shares_memory(got.samples, array)
                got.samples[:] = 0.0
        after = projected_gradient(meas, x, cfg, CFG, start=start)
        for a, b in zip(before.sources, after.sources):
            assert np.array_equal(a.samples, b.samples)


class TestPreparedTarget:
    def test_floored_in_a_copy_only_when_a_bin_is_below_the_floor(self):
        rng = np.random.default_rng(SEED + 30)
        (meas,) = _random_measurements(rng, 1000, 1)
        assert meas.data.min() >= EPS_FLOOR
        assert solvers._prepared_target(DivergenceSpec(0.5), meas) is meas.data
        meas.data[:, 0] = 0.0
        # positive, but under the floor: floored as well
        meas.data[:, 1] = 1e-14
        kept = meas.data.copy()
        floored = np.maximum(kept, EPS_FLOOR)
        right = solvers._prepared_target(DivergenceSpec(0.5, "right"), meas)
        left = solvers._prepared_target(DivergenceSpec(0.5, "left"), meas)
        assert np.array_equal(right, floored)
        assert np.array_equal(left, _generator_prime(0.5, floored))
        assert np.array_equal(meas.data, kept)

    @pytest.mark.parametrize("direction", ["right", "left"])
    def test_keeps_the_spectrum_layout(self, direction):
        # measurements handed in C-ordered, unfloored and floored
        rng = np.random.default_rng(SEED + 32)
        (meas,) = _random_measurements(rng, 1000, 1)
        data = np.ascontiguousarray(meas.data)
        spec = DivergenceSpec(0.5, direction)
        for _ in range(2):
            target = solvers._prepared_target(spec, Measurements(data, 1))
            assert target.flags.f_contiguous
            data[:, 0] = 0.0


class TestSolverConfig:
    def test_validation(self):
        for step in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SolverConfig(DivergenceSpec(2.0), step_size=step)
        with pytest.raises(ValueError):
            SolverConfig(DivergenceSpec(2.0), iterations=-1)

    @pytest.mark.parametrize("iterations", NON_INTEGER_COUNTS)
    def test_non_integer_iterations_rejected(self, iterations):
        # before projected_gradient could reach range() with the count
        with pytest.raises(ValueError, match="iterations must be an integer"):
            SolverConfig(DivergenceSpec(2.0), iterations=iterations)

    def test_numpy_integer_iterations_accepted(self):
        assert SolverConfig(DivergenceSpec(2.0), iterations=np.int64(3)).iterations == 3

    def test_frozen_after_validation(self):
        # an assignment would skip the checks made when it was built
        cfg = SolverConfig(DivergenceSpec(2.0))
        for name, value in (("iterations", 2.5), ("step_size", float("nan"))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)
        assert (cfg.iterations, cfg.step_size) == (5, 1.0)

import dataclasses
import math

import numpy as np
import pytest

from bregsep.divergence import (
    DivergenceSpec,
    bregman,
    generator,
    generator_prime,
    generator_second,
    grad_term,
    objective,
)
from bregsep.transform import Measurements, Signal, StftConfig, stft

SEED = 4321
BETA_GRID = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]


def _direct_divergence(beta, r, z):
    """Closed-form beta-divergence, independent of the generator route."""
    r = np.asarray(r, float)
    z = np.asarray(z, float)
    if beta == 0:
        return float(np.sum(r / z - np.log(r / z) - 1.0))
    if beta == 1:
        return float(np.sum(r * np.log(r / z) - r + z))
    num = r**beta + (beta - 1.0) * z**beta - beta * r * z ** (beta - 1.0)
    return float(np.sum(num) / (beta * (beta - 1.0)))


class TestGenerator:
    def test_frozen_values(self):
        assert generator(2, 3.0) == pytest.approx(4.5, abs=1e-12)
        assert generator(1, 1.0) == pytest.approx(-1.0, abs=1e-12)
        assert generator(0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_second_derivative_is_power_law(self):
        for beta in (0.0, 0.5, 1.0, 1.5, 2.0):
            assert generator_second(beta, 2.0) == pytest.approx(
                2.0 ** (beta - 2.0), rel=1e-12
            )

    def test_domain_errors(self):
        for fn in (generator, generator_prime, generator_second):
            with pytest.raises(ValueError):
                fn(1.0, 0.0)
            with pytest.raises(ValueError):
                fn(0.5, np.array([1.0, 0.0]))
            with pytest.raises(ValueError):
                fn(2.0, -1.0)
        # fine above beta = 1
        assert float(generator(2.0, 0.0)) == 0.0

    def test_second_matches_fd_of_prime(self):
        xs = np.linspace(0.1, 10.0, 40)
        h = 1e-6
        for beta in BETA_GRID:
            fd = (generator_prime(beta, xs + h) - generator_prime(beta, xs - h)) / (2 * h)
            exact = generator_second(beta, xs)
            assert np.max(np.abs(fd - exact) / np.abs(exact)) < 1e-6


class TestBregman:
    def test_frozen_values(self):
        assert bregman(2, np.array([3.0]), np.array([1.0])) == pytest.approx(2.0, abs=1e-12)
        assert bregman(1, np.array([2.0]), np.array([1.0])) == pytest.approx(
            2.0 * math.log(2.0) - 1.0, abs=1e-12
        )
        assert bregman(0, np.array([2.0]), np.array([1.0])) == pytest.approx(
            1.0 - math.log(2.0), abs=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bregman(2, np.ones((2, 2)), np.ones((2, 3)))

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(SEED)
        r = rng.uniform(0.5, 3.0, (5, 4))
        for beta in BETA_GRID:
            assert bregman(beta, r, r) == 0.0
            assert bregman(beta, r, r + 0.1) > 0.0

    def test_nonnegative_over_grid(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(20):
            r = rng.uniform(0.05, 20.0, (6, 5))
            z = rng.uniform(0.05, 20.0, (6, 5))
            for beta in BETA_GRID:
                assert bregman(beta, r, z) >= 0.0

    def test_matches_direct_closed_forms(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(30):
            r = rng.uniform(0.1, 10.0, (6, 4))
            z = rng.uniform(0.1, 10.0, (6, 4))
            for beta in BETA_GRID:
                ours = bregman(beta, r, z)
                ref = _direct_divergence(beta, r, z)
                assert abs(ours - ref) <= 1e-10 * abs(ref)

    def test_limit_continuity(self):
        # the parametric formula approaches the KL / IS branches; the O(eps)
        # term is removed by symmetric averaging (beta -> 1) and one-sided
        # Richardson extrapolation (beta -> 0)
        rng = np.random.default_rng(SEED + 3)
        r = rng.uniform(0.1, 10.0, (8, 8))
        z = rng.uniform(0.1, 10.0, (8, 8))
        eps = 1e-4
        kl = bregman(1.0, r, z)
        near_one = 0.5 * (bregman(1.0 + eps, r, z) + bregman(1.0 - eps, r, z))
        assert abs(near_one - kl) <= 1e-6 * abs(kl)
        is_div = bregman(0.0, r, z)
        near_zero = 2.0 * bregman(eps, r, z) - bregman(2.0 * eps, r, z)
        assert abs(near_zero - is_div) <= 1e-6 * abs(is_div)

    def test_weights(self):
        r = np.array([[2.0], [2.0]])
        z = np.array([[1.0], [1.0]])
        w = np.array([[1.0], [2.0]])
        assert bregman(2, r, z, weights=w) == pytest.approx(1.5 * bregman(2, r, z))


class TestGradTerm:
    def test_left_frozen_value(self):
        spec = DivergenceSpec(1.0, "left", 1)
        out = grad_term(spec, np.array([[1.0]]), np.array([[2.0]]))
        assert out[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_right_formula(self):
        spec = DivergenceSpec(0.5, "right", 1)
        target = np.array([[1.0, 4.0]])
        mag = np.array([[2.0, 2.0]])
        expected = 2.0 ** (0.5 - 2.0) * (mag - target)
        assert np.allclose(grad_term(spec, target, mag), expected, atol=1e-12)

    def test_shape_mismatch(self):
        spec = DivergenceSpec(2.0, "right", 1)
        with pytest.raises(ValueError):
            grad_term(spec, np.ones((2, 2)), np.ones((3, 2)))

    def test_right_matches_fd_of_bregman(self):
        # entrywise derivative of D(r | z) w.r.t. z
        rng = np.random.default_rng(SEED + 4)
        r = rng.uniform(0.5, 5.0, (4, 3))
        z = rng.uniform(0.5, 5.0, (4, 3))
        h = 1e-6
        for beta in BETA_GRID:
            spec = DivergenceSpec(beta, "right", 1)
            analytic = grad_term(spec, r, z)
            fd = np.zeros_like(z)
            for idx in np.ndindex(z.shape):
                zp = z.copy()
                zm = z.copy()
                zp[idx] += h
                zm[idx] -= h
                fd[idx] = (bregman(beta, r, zp) - bregman(beta, r, zm)) / (2 * h)
            assert np.max(np.abs(fd - analytic) / np.maximum(np.abs(fd), 1e-9)) < 1e-6

    def test_left_matches_fd_of_bregman(self):
        rng = np.random.default_rng(SEED + 5)
        r = rng.uniform(0.5, 5.0, (3, 3))
        z = rng.uniform(0.5, 5.0, (3, 3))
        h = 1e-6
        for beta in (0.0, 0.75, 1.0, 2.0):
            spec = DivergenceSpec(beta, "left", 1)
            analytic = grad_term(spec, r, z)
            fd = np.zeros_like(z)
            for idx in np.ndindex(z.shape):
                zp = z.copy()
                zm = z.copy()
                zp[idx] += h
                zm[idx] -= h
                fd[idx] = (bregman(beta, zp, r) - bregman(beta, zm, r)) / (2 * h)
            assert np.max(np.abs(fd - analytic) / np.maximum(np.abs(fd), 1e-9)) < 1e-6


class TestObjective:
    def _instance(self, d):
        rng = np.random.default_rng(SEED + 6)
        cfg = StftConfig(32, 8)
        signal = Signal(rng.standard_normal(100))
        spec_data = np.abs(stft(signal, cfg).data)
        meas = Measurements(spec_data if d == 1 else spec_data**2, d)
        return cfg, signal, meas

    def test_exact_fit_is_zero(self):
        for d in (1, 2):
            cfg, signal, meas = self._instance(d)
            for direction in ("right", "left"):
                spec = DivergenceSpec(1.0, direction, d)
                assert objective(spec, meas, signal, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_beta_two_direction_symmetry(self):
        rng = np.random.default_rng(SEED + 7)
        cfg, signal, meas = self._instance(1)
        perturbed = Measurements(meas.data + rng.uniform(0.01, 0.5, meas.data.shape), 1)
        right = objective(DivergenceSpec(2.0, "right", 1), perturbed, signal, cfg)
        left = objective(DivergenceSpec(2.0, "left", 1), perturbed, signal, cfg)
        assert right == pytest.approx(left, rel=1e-12)
        assert right > 0.0

    def test_exponent_mismatch_rejected(self):
        cfg, signal, meas = self._instance(1)
        with pytest.raises(ValueError):
            objective(DivergenceSpec(1.0, "right", 2), meas, signal, cfg)


class TestSpecValidation:
    def test_compared_and_hashed_by_value(self):
        spec = DivergenceSpec(1, "left", 2)
        same = DivergenceSpec(1.0, "left", 2)
        assert spec == same and hash(spec) == hash(same)
        assert isinstance(spec.beta, float)
        for other in (
            DivergenceSpec(1.5, "left", 2),
            DivergenceSpec(1.0, "right", 2),
            DivergenceSpec(1.0, "left", 1),
        ):
            assert spec != other
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.beta = 2.0

    def test_beta_range(self):
        with pytest.raises(ValueError):
            DivergenceSpec(2.5)
        with pytest.raises(ValueError):
            DivergenceSpec(-0.1)

    def test_direction_and_d(self):
        with pytest.raises(ValueError):
            DivergenceSpec(1.0, "up", 1)
        with pytest.raises(ValueError):
            DivergenceSpec(1.0, "right", 3)

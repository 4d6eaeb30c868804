"""Tests for the Vandermonde combination scheme and the rate experiments."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import comb

from oscimax import (
    AtomSpec,
    CombinationScheme,
    LatticeGrid,
    SymbolParams,
    TimeGrid,
    combination_apply,
    combination_coefficients,
    convergence_error,
    fit_decay_exponent,
    pure_mode,
    random_spectral_field,
    combination_rate_experiment,
    forward_transform,
    make_regular_atom,
    maximal_over_times,
    oscillating_op,
    weak_lp_quasinorm,
)
from oscimax import extrapolation
from oscimax.extrapolation import ROUNDOFF_FLOOR, atom_uniformity_experiment
from oscimax.symbols import DEFAULT_PROFILE


def per_atom_quasinorms(grid, p, alpha, beta, atom_count, seed, time_grid):
    """The weak-L^p quasinorms of atom_uniformity_experiment one atom at a
    time, one maximal function each; oracle for the stacked blocks."""
    params = SymbolParams(alpha, beta)
    radius_hi = np.pi / 10.0
    radius_lo = max(radius_hi / 4.0, 4.0 * grid.spacing)
    radii = np.geomspace(radius_lo, radius_hi, atom_count)
    rng = np.random.default_rng(seed)
    quasinorms = []
    for i, r in enumerate(radii):
        center = tuple(rng.uniform(0.0, 2.0 * np.pi, size=grid.dimension))
        spec = AtomSpec(p=p, center=center, radius=float(r), seed=seed + i)
        atom = make_regular_atom(spec, grid)
        maximal = maximal_over_times(
            forward_transform(atom.field),
            lambda t, g: oscillating_op(g, params, DEFAULT_PROFILE, t),
            time_grid.times,
        )
        quasinorms.append(weak_lp_quasinorm(maximal, p))
    return np.array(quasinorms)


def binomial_candidate(N: int) -> np.ndarray:
    """Closed-form alternating-binomial solution, used as a cross-check only."""
    k = np.arange(1, N + 1)
    return (-1.0) ** (k - 1) * comb(N, k)


def taylor_remainder(coeffs, w: float) -> complex:
    """sum_k c_k e^{ikw} - 1 for combination coefficients c_1..c_N; the
    combination error on a pure mode of frequency m is |taylor_remainder(c,
    t m^alpha)|.

    When the coefficients solve the extrapolation Vandermonde system this
    equals the order-N Taylor tail, so it vanishes to order N at w = 0.
    """
    c = np.asarray(coeffs, dtype=float)
    k = np.arange(1, c.size + 1)
    return complex(np.sum(c * np.exp(1j * k * w)) - 1.0)


class TestCombinationCoefficients:
    def test_small_orders_closed_form(self):
        np.testing.assert_allclose(
            combination_coefficients(2).coefficients, [2.0, -1.0], atol=1e-10
        )
        np.testing.assert_allclose(
            combination_coefficients(3).coefficients, [3.0, -3.0, 1.0], atol=1e-10
        )

    @pytest.mark.parametrize("N", range(1, 9))
    def test_moment_annihilation(self, N):
        scheme = combination_coefficients(N)
        c = scheme.coefficients
        k = np.arange(1, N + 1, dtype=float)
        assert abs(np.sum(c) - 1.0) <= 1e-8
        for j in range(1, N):
            assert abs(np.sum(c * k**j)) <= 1e-8
        assert scheme.residual <= 1e-8

    @pytest.mark.parametrize("N", range(1, 9))
    def test_matches_binomial_candidate(self, N):
        np.testing.assert_allclose(
            combination_coefficients(N).coefficients,
            binomial_candidate(N),
            rtol=1e-7,
        )

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        N=st.integers(1, 12),
        data=st.data(),
        t=st.floats(1e-3, 1e3),
    )
    def test_vandermonde_moments(self, N, data, t):
        """The dilated moments sum_k c_k (k t)^j are 1 at j = 0, vanish for
        0 < j < N and equal (-1)^(N-1) N! t^N at j = N, the leading term of
        the combination's error.  Each to a rounding error relative to
        sum_k |c_k| (k t)^j, grown by the system's conditioning, at most
        4^N in the last bit."""
        j = data.draw(st.integers(0, N), label="j")
        c = combination_coefficients(N).coefficients
        powers = (np.arange(1, N + 1) * t) ** j
        if j == 0:
            expected = 1.0
        elif j < N:
            expected = 0.0
        else:
            expected = (-1.0) ** (N - 1) * math.factorial(N) * t**N
        scale = float(np.sum(np.abs(c) * powers))
        assert abs(float(np.sum(c * powers)) - expected) <= 4.0**N * 1e-15 * scale

    def test_range_validation(self):
        with pytest.raises(ValueError):
            combination_coefficients(0)
        with pytest.raises(ValueError):
            combination_coefficients(13)


class TestCombinationApply:
    def test_single_mode_identity(self):
        """On a pure mode the combination error equals the scalar remainder."""
        grid = LatticeGrid(1, 64)
        m = 9
        f = pure_mode(grid, (m,))
        scheme = combination_coefficients(3)
        for t in (1e-3, 1e-2):
            err = convergence_error(f, 0.5, t, scheme)
            scalar = abs(taylor_remainder(scheme.coefficients, t * m**0.5))
            assert err == pytest.approx(scalar, abs=1e-12)

    def test_t_validation(self):
        grid = LatticeGrid(1, 16)
        f = pure_mode(grid, (1,))
        with pytest.raises(ValueError):
            combination_apply(f, 0.5, 0.0, combination_coefficients(2))


class TestTaylorRemainder:
    def test_single_coefficient(self):
        # c = (1,): remainder e^{iw} - 1 vanishes to first order
        assert taylor_remainder([1.0], 0.0) == 0.0
        assert abs(taylor_remainder([1.0], 1e-4)) == pytest.approx(1e-4, rel=1e-3)

    def test_extrapolated_order(self):
        """Vandermonde coefficients push the vanishing order to N."""
        for N in (2, 3, 4):
            c = combination_coefficients(N).coefficients
            w = 1e-2
            small = abs(taylor_remainder(c, w))
            smaller = abs(taylor_remainder(c, w / 2.0))
            order = np.log2(small / smaller)
            assert order == pytest.approx(N, abs=0.1)


class TestFitRate:
    """`fit_decay_exponent` with the combination experiment's noise floor,
    10 * ROUNDOFF_FLOOR for a unit-scale field."""

    FLOOR = 10.0 * ROUNDOFF_FLOOR

    def test_discards_floor(self):
        t = np.geomspace(1e-6, 1e-2, 20)
        errors = np.maximum(t**2, 2e-14)
        fit = fit_decay_exponent(list(zip(t, errors)), floor=self.FLOOR)
        assert fit.slope == pytest.approx(2.0, abs=0.01)

    def test_flat_bottom_at_the_floor_is_dropped(self):
        t = np.geomspace(1e-9, 1e-2, 20)
        errors = np.maximum(t**2, self.FLOOR)
        fit = fit_decay_exponent(list(zip(t, errors)), floor=self.FLOOR)
        assert fit.slope == pytest.approx(2.0, abs=1e-10)
        assert fit.sample_count == np.count_nonzero(errors > self.FLOOR) < t.size

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_decay_exponent([(1e-3, 1e-20), (1e-2, 1e-20)], floor=self.FLOOR)


class TestCombinationRateExperiment:
    def test_single_mode_rate_equals_order(self):
        grid = LatticeGrid(1, 64)
        f = pure_mode(grid, (5,))
        for N in (2, 3):
            report = combination_rate_experiment(f, 0.5, 0.75, 0.5, N=N)
            assert report.fit.slope == pytest.approx(N, abs=0.05)
            assert all(c["pass"] for c in report.checks)

    def test_band_limited_field(self):
        grid = LatticeGrid(1, 64)
        f = random_spectral_field(grid, np.random.default_rng(0), band_limit=16)
        report = combination_rate_experiment(f, 0.5, 0.75, 0.5, N=2)
        assert report.fit.slope >= report.predicted_rate - 0.1
        assert all(c["pass"] for c in report.checks)

    def test_degenerate_rejected(self):
        """A constant field leaves no error above the roundoff floor to fit."""
        grid = LatticeGrid(1, 16)
        f = pure_mode(grid, (0,))  # constant field: combination is exact
        with pytest.raises(ValueError, match="above the floor"):
            combination_rate_experiment(f, 0.5, 0.75, 0.5, N=2)

    def test_admissibility_precondition(self):
        grid = LatticeGrid(1, 16)
        f = pure_mode(grid, (1,))
        with pytest.raises(ValueError):
            combination_rate_experiment(f, 0.5, 0.1, 0.5)
        for p in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError, match="p must lie in"):
                combination_rate_experiment(f, 0.5, 0.75, p)
        for count in (0, 4):
            with pytest.raises(ValueError, match="at least 5 times"):
                combination_rate_experiment(f, 0.5, 0.75, 0.5, times=np.geomspace(1e-4, 1e-2, count))


class TestAtomUniformity:
    def test_deterministic(self):
        grid = LatticeGrid(1, 512)
        kwargs = dict(atom_count=6, seed=3, time_grid=TimeGrid(count=8, span_octaves=6))
        a = atom_uniformity_experiment(grid, 0.5, 0.5, 0.75, **kwargs)
        b = atom_uniformity_experiment(grid, 0.5, 0.5, 0.75, **kwargs)
        np.testing.assert_array_equal(a["quasinorms"], b["quasinorms"])

    def test_small_batch_ratio(self):
        grid = LatticeGrid(1, 512)
        report = atom_uniformity_experiment(
            grid,
            0.5,
            0.5,
            0.75,
            atom_count=8,
            seed=0,
            time_grid=TimeGrid(count=12, span_octaves=8),
        )
        assert report["ratio"] <= 10.0

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        dimension=st.sampled_from([1, 2]),
        atom_count=st.integers(1, 7),
        per_block=st.integers(1, 4),
        seed=st.integers(0, 1000),
        count=st.integers(2, 6),
    )
    @example(dimension=1, atom_count=5, per_block=2, seed=3, count=4)
    @example(dimension=2, atom_count=3, per_block=2, seed=0, count=3)
    def test_blocks_equal_the_per_atom_oracle(self, dimension, atom_count, per_block, seed, count):
        """Bit for bit, whether the atoms fill one block or several, and
        whether the last block is full or not."""
        grid = LatticeGrid(dimension, 512 if dimension == 1 else 128)
        time_grid = TimeGrid(count=count, span_octaves=6)
        expected = per_atom_quasinorms(grid, 0.5, 0.5, 0.75, atom_count, seed, time_grid)
        block_samples = per_block * grid.spatial_points_per_axis**dimension
        with mock.patch.object(extrapolation, "_ATOM_BLOCK_SAMPLES", block_samples):
            report = atom_uniformity_experiment(
                grid, 0.5, 0.5, 0.75, atom_count=atom_count, seed=seed, time_grid=time_grid
            )
        assert np.array_equal(report["quasinorms"], expected)

    def test_default_block_equals_the_per_atom_oracle(self):
        """The 1-D lattice of the benchmark: 20 atoms in one block."""
        grid = LatticeGrid(1, 4096)
        time_grid = TimeGrid(count=48, span_octaves=12.0)
        expected = per_atom_quasinorms(grid, 0.5, 0.5, 0.75, 20, 0, time_grid)
        report = atom_uniformity_experiment(grid, 0.5, 0.5, 0.75, atom_count=20, seed=0)
        assert np.array_equal(report["quasinorms"], expected)

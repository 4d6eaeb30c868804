"""Tests for the combination of fractional propagators and the rate and
atom-uniformity experiments."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import comb

from oscimax import (
    AtomSpec,
    LatticeGrid,
    SpectralField,
    SymbolParams,
    TimeGrid,
    combination_apply,
    combination_error_symbol,
    inverse_transform,
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
from oscimax.extrapolation import atom_uniformity_experiment
from oscimax.symbols import DEFAULT_PROFILE
from oracles import schrodinger_propagate


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
            forward_transform(atom.field), oscillating_op, time_grid.times, params, DEFAULT_PROFILE
        )
        quasinorms.append(weak_lp_quasinorm(maximal, p))
    return np.array(quasinorms)


def binomial_candidate(N: int) -> np.ndarray:
    """The alternating binomials c_k = (-1)^{k-1} C(N, k), k = 1..N: the
    combination coefficients, exact in float64 for N <= 12."""
    k = np.arange(1, N + 1)
    return (-1.0) ** (k - 1) * comb(N, k)


def vandermonde_solution(N: int) -> np.ndarray:
    """The coefficients as a float64 solve of the power-moment system, rows
    k^j for j = 0..N-1, right-hand side (1, 0, ..., 0)."""
    k = np.arange(1, N + 1, dtype=float)
    mat = k[None, :] ** np.arange(N, dtype=float)[:, None]
    rhs = np.zeros(N)
    rhs[0] = 1.0
    return np.linalg.solve(mat, rhs)


def propagated_sum(f, alpha, t, N):
    """sum_k c_k * propagate(f, alpha, k*t) term by term: oracle for the
    one-multiplier combination_apply."""
    out = np.zeros_like(f.coefficients)
    for k, c in enumerate(binomial_candidate(N), start=1):
        out = out + c * schrodinger_propagate(f, alpha, k * t).coefficients
    return SpectralField(f.grid, out)


def taylor_remainder(coeffs, w: float) -> complex:
    """sum_k c_k e^{ikw} - 1 for combination coefficients c_1..c_N, summed
    term by term; the combination error on a pure mode of frequency m is
    |taylor_remainder(c, t m^alpha)|.

    When the coefficients solve the extrapolation Vandermonde system this
    equals the order-N Taylor tail, so it vanishes to order N at w = 0.
    """
    c = np.asarray(coeffs, dtype=float)
    k = np.arange(1, c.size + 1)
    return complex(np.sum(c * np.exp(1j * k * w)) - 1.0)


class TestCombinationCoefficients:
    def test_small_orders_closed_form(self):
        """E_2 and E_3 are the combinations 2e^{iz} - e^{2iz} and
        3e^{iz} - 3e^{2iz} + e^{3iz}, minus 1, on z where the direct sum
        cancels little."""
        z = np.linspace(2.0, 4.0, 6)
        for N, c in ((2, [2.0, -1.0]), (3, [3.0, -3.0, 1.0])):
            direct = np.array([taylor_remainder(c, w) for w in z])
            np.testing.assert_allclose(combination_error_symbol(N, z), direct, rtol=1e-14)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_moment_annihilation(self, N):
        """In integers: sum c_k = 1 and sum c_k k^j = 0 for 0 < j < N."""
        c = [(-1) ** (k - 1) * math.comb(N, k) for k in range(1, N + 1)]
        moments = [sum(ck * k**j for k, ck in enumerate(c, start=1)) for j in range(N)]
        assert moments == [1] + [0] * (N - 1)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_matches_binomial_candidate(self, N):
        """The float64 Vandermonde solve, which the combination once used,
        returns the alternating binomials."""
        np.testing.assert_allclose(vandermonde_solution(N), binomial_candidate(N), rtol=1e-7)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        N=st.integers(1, 12),
        data=st.data(),
        t=st.floats(1e-3, 1e3),
    )
    def test_vandermonde_moments(self, N, data, t):
        """The dilated moments sum_k c_k (k t)^j are 1 at j = 0, vanish for
        0 < j < N and equal (-1)^(N-1) N! t^N at j = N: the premise of
        sum_k c_k e^{ikz} - 1 = -(1 - e^{iz})^N, whose leading term is
        (-1)^(N-1) N! (iz)^N / N!.  Each to a rounding error relative to
        sum_k |c_k| (k t)^j."""
        j = data.draw(st.integers(0, N), label="j")
        c = binomial_candidate(N)
        powers = (np.arange(1, N + 1) * t) ** j
        if j == 0:
            expected = 1.0
        elif j < N:
            expected = 0.0
        else:
            expected = (-1.0) ** (N - 1) * math.factorial(N) * t**N
        scale = float(np.sum(np.abs(c) * powers))
        assert abs(float(np.sum(c * powers)) - expected) <= 2e-15 * scale

    def test_range_validation(self):
        for N in (0, 13):
            with pytest.raises(ValueError, match="N must lie in"):
                combination_error_symbol(N, 1.0)


class TestCombinationErrorSymbol:
    @pytest.mark.parametrize("N", [1, 2, 5, 9, 12])
    def test_against_mpmath(self, N):
        """Against the direct sum sum_k c_k e^{ikz} - 1 at 250 digits: at
        N = 12 and z = 1e-6 the value is about 1e-72, from terms as large
        as C(12, 6) = 924."""
        z = np.concatenate([np.geomspace(1e-6, 123.0, 40), [np.pi, 2.0 * np.pi]])
        got = combination_error_symbol(N, z)
        with mpmath.workdps(250):
            for zi, gi in zip(z, got):
                w = mpmath.mpf(float(zi))
                exact = mpmath.fsum(
                    (-1) ** (k - 1) * math.comb(N, k) * mpmath.expj(k * w) for k in range(1, N + 1)
                ) - 1
                assert abs(complex(exact) - gi) <= 4e-15 * abs(complex(exact))

    def test_zero_is_exact(self):
        """The constant mode is reproduced exactly, so a constant field's
        errors are exact zeros."""
        for N in range(1, 13):
            assert combination_error_symbol(N, 0.0) == 0.0


class TestCombinationApply:
    def test_single_mode_identity(self):
        """On a pure mode the combination error equals the scalar remainder."""
        grid = LatticeGrid(1, 64)
        m = 9
        f = pure_mode(grid, (m,))
        for t in (1e-3, 1e-2):
            diff = combination_apply(f, 0.5, 3, t).coefficients - f.coefficients
            err = np.max(np.abs(inverse_transform(SpectralField(grid, diff)).samples))
            scalar = abs(taylor_remainder(binomial_candidate(3), t * m**0.5))
            assert err == pytest.approx(scalar, abs=1e-12)

    @pytest.mark.parametrize("dimension, n_modes", [(1, 64), (2, 32)])
    @pytest.mark.parametrize("N", [1, 2, 5, 9])
    def test_matches_the_propagated_sum(self, dimension, n_modes, N):
        grid = LatticeGrid(dimension, n_modes)
        f = random_spectral_field(grid, np.random.default_rng(N), band_limit=n_modes // 4)
        for t in (1e-2, 0.3):
            got = combination_apply(f, 0.5, N, t).coefficients
            expected = propagated_sum(f, 0.5, t, N).coefficients
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_t_validation(self):
        grid = LatticeGrid(1, 16)
        f = pure_mode(grid, (1,))
        with pytest.raises(ValueError, match="t must be positive"):
            combination_apply(f, 0.5, 2, 0.0)

    def test_alpha_and_order_validation(self):
        grid = LatticeGrid(1, 16)
        f = pure_mode(grid, (1,))
        with pytest.raises(ValueError, match="alpha must lie in"):
            combination_apply(f, 1.0, 2, 0.1)
        with pytest.raises(ValueError, match="N must lie in"):
            combination_apply(f, 0.5, 13, 0.1)


class TestTaylorRemainder:
    def test_single_coefficient(self):
        # c = (1,): remainder e^{iw} - 1 vanishes to first order
        assert taylor_remainder([1.0], 0.0) == 0.0
        assert abs(taylor_remainder([1.0], 1e-4)) == pytest.approx(1e-4, rel=1e-3)

    def test_extrapolated_order(self):
        """Vandermonde coefficients push the vanishing order to N."""
        for N in (2, 3, 4):
            c = binomial_candidate(N)
            w = 1e-2
            small = abs(taylor_remainder(c, w))
            smaller = abs(taylor_remainder(c, w / 2.0))
            order = np.log2(small / smaller)
            assert order == pytest.approx(N, abs=0.1)


class TestCombinationRateExperiment:
    TIMES = np.geomspace(1e-4, 1e-2, 24)

    def test_single_mode_rate_equals_order(self):
        grid = LatticeGrid(1, 64)
        f = pure_mode(grid, (5,))
        for N in (2, 3):
            report = combination_rate_experiment(f, 0.5, 0.75, 0.5, self.TIMES, N=N)
            assert report["fitted"].slope == pytest.approx(N, abs=0.05)
            assert all(c["pass"] for c in report["checks"])

    def test_band_limited_field(self):
        grid = LatticeGrid(1, 64)
        f = random_spectral_field(grid, np.random.default_rng(0), band_limit=16)
        report = combination_rate_experiment(f, 0.5, 0.75, 0.5, self.TIMES, N=2)
        assert report["fitted"].slope >= report["predicted"] - 0.1
        assert all(c["pass"] for c in report["checks"])

    def test_each_product_is_transformed_in_its_own_buffer(self, monkeypatch):
        grid = LatticeGrid(1, 64)
        f = random_spectral_field(grid, np.random.default_rng(1), band_limit=16)

        def errors():
            report = combination_rate_experiment(f, 0.5, 0.75, 0.5, self.TIMES, N=2)
            return np.array([e for _, e in report["samples"]])

        want = errors()
        in_place = []
        transform = extrapolation.inverse_transform

        def spy(F, out=None):
            in_place.append(out is F.coefficients)
            return transform(F, out=out)

        monkeypatch.setattr(extrapolation, "inverse_transform", spy)
        got = errors()
        assert in_place == [True] * 24
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_degenerate_rejected(self):
        """A constant field leaves no error above the roundoff floor to fit."""
        grid = LatticeGrid(1, 16)
        f = pure_mode(grid, (0,))  # constant field: combination is exact
        with pytest.raises(ValueError, match="above the floor"):
            combination_rate_experiment(f, 0.5, 0.75, 0.5, self.TIMES, N=2)

    def test_admissibility_precondition(self):
        grid = LatticeGrid(1, 16)
        f = pure_mode(grid, (1,))
        with pytest.raises(ValueError):
            combination_rate_experiment(f, 0.5, 0.1, 0.5, self.TIMES)
        for p in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError, match="p must lie in"):
                combination_rate_experiment(f, 0.5, 0.75, p, self.TIMES)
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

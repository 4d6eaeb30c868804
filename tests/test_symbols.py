"""Tests for cutoffs, the partition of unity, the oscillating symbol and the
Riesz symbol."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import oscimax
from oscimax import (
    CutoffProfile,
    LatticeGrid,
    SymbolParams,
    dyadic_bump,
    mu_symbol,
    phi_cutoff,
    riesz_mean_symbol,
)
from oscimax.symbols import _GLAG48
from oracles import psi0

PROFILES = [CutoffProfile(), CutoffProfile("smoothstep_poly", 4), CutoffProfile("smooth_exp")]
KINDS = [CutoffProfile(), CutoffProfile("smooth_exp")]


def riesz_mean_symbol_closed_form_k1(z: float) -> complex:
    """(e^{iz} - 1) / (iz), the k = 1 antiderivative; cross-check only."""
    if z == 0.0:
        return 1.0 + 0.0j
    return (np.exp(1j * z) - 1.0) / (1j * z)


def riesz_mean_symbol_series(k: float, z: float, terms: int = 60) -> complex:
    """Power-series oracle sum_{n>=0} (iz)^n k! n-weights; small |z| only.

    Uses k * integral (1-r)^{k-1} r^n dr = k * B(n+1, k) = n! k! / (n+k)!
    evaluated via gamma functions (valid for fractional k).
    """
    total = 0.0 + 0.0j
    for n in range(terms):
        # k * B(n+1, k) = Gamma(n+1) Gamma(k+1) / Gamma(n+k+1)
        weight = np.exp(
            special.gammaln(n + 1) + special.gammaln(k + 1) - special.gammaln(n + k + 1)
        )
        total += (1j * z) ** n / special.gamma(n + 1) * weight
    return complex(total)


def riesz_series_64_terms(k: float, z):
    """The series branch of riesz_mean_symbol with all 64 terms, by the same
    Horner steps; exact oracle for the library's shorter sums."""
    z = np.asarray(z, dtype=float)
    w = 1j * np.abs(z)
    acc = np.ones_like(w)
    for n in range(63, 0, -1):
        acc = 1.0 + w * acc / (n + k)
    return np.where(z < 0.0, acc.conj(), acc)


def riesz_every_branch(k: float, z):
    """riesz_mean_symbol with the contour sum, the Gamma term and the
    conjugation run whatever z holds; oracle for the skipped branches."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    small = a <= 8.0
    out = np.empty(z.shape, dtype=complex)
    out[small] = riesz_mean_symbol(k, a[small])
    big = a[~small]
    integral = np.zeros_like(big, dtype=complex)
    for y, weight in zip(*_GLAG48):
        integral += weight * (1.0 - 1j * y / big) ** (k - 1.0)
    out[~small] = (
        math.gamma(k + 1.0) * (-1j) ** k * big**-k * np.exp(1j * big)
        + 1j * k / big * integral
    )
    neg = z < 0.0
    out[neg] = out[neg].conj()
    return out if out.ndim else complex(out)


def where_mu_symbol(params, profile, t, lam):
    """mu_symbol by two np.where selections over a clamped copy of z; oracle
    for the single in-place buffer."""
    z = t * np.abs(np.asarray(lam, dtype=float))
    cut = phi_cutoff(profile, z)
    zsafe = np.where(z > 1.0, z, 1.0)
    out = np.where(
        z > 1.0,
        np.exp(1j * zsafe**params.alpha) * zsafe ** (-params.beta) * cut,
        0.0 + 0.0j,
    )
    return out if out.ndim else complex(out)


def clipped_ramp(profile, s):
    """The ramp evaluated on every point after clipping s to [0, 1]; oracle
    for the band-only evaluation of CutoffProfile.ramp."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    if profile.kind == "smoothstep_poly":
        # I_s(n+1, n+1) = s^{n+1} sum_k C(n+k, k) (1-s)^k, the same Horner
        # steps as the library, on every point
        n = profile.order
        acc = np.full_like(s, math.comb(2 * n, n))
        for k in range(n - 1, -1, -1):
            acc = acc * (1.0 - s) + math.comb(n + k, k)
        return acc * s ** (n + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h0 = np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        h1 = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
        return h0 / (h0 + h1)


def telescoped_residual(u, K, profile):
    """|sum_{k=0}^{K} dyadic_bump(|u|/2^k) + psi0(|u|) - 1|, elementwise in u.

    The partition of unity telescopes exactly when 2^K >= |u|; a smaller K
    misses mass, and the residual is the true truncation error.
    """
    u = np.abs(np.asarray(u, dtype=float))
    bumps = dyadic_bump(profile, u[..., None] / 2.0 ** np.arange(K + 1))
    return np.abs(np.sum(bumps, axis=-1) + psi0(profile, u) - 1.0)


class TestCutoffs:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_band_values(self, profile):
        assert phi_cutoff(profile, 0.5) == 0.0
        assert phi_cutoff(profile, 1.0) == 0.0
        assert phi_cutoff(profile, 2.0) == 1.0
        assert phi_cutoff(profile, 100.0) == 1.0
        assert 0.0 < phi_cutoff(profile, 1.5) < 1.0

    @pytest.mark.parametrize("profile", PROFILES)
    def test_evenness(self, profile):
        lam = np.linspace(-3, 3, 101)
        np.testing.assert_allclose(
            phi_cutoff(profile, lam), phi_cutoff(profile, -lam), atol=0
        )

    def test_low_bump_support(self):
        profile = CutoffProfile()
        assert psi0(profile, 0.0) == 1.0
        assert psi0(profile, 0.5) == 1.0
        assert psi0(profile, 1.0) == 0.0

    def test_dyadic_bump_support(self):
        profile = CutoffProfile()
        assert dyadic_bump(profile, 0.5) == 0.0
        assert dyadic_bump(profile, 1.0) == 1.0
        assert dyadic_bump(profile, 2.0) == 0.0

    @pytest.mark.parametrize("profile", PROFILES)
    def test_ramp_matches_clipped_evaluation(self, profile):
        edges = np.array(
            [-np.inf, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0, 3.0, np.inf, np.nan]
        )
        dense = np.linspace(-0.5, 1.5, 4001)
        for s in (edges, dense, dense[:4000].reshape(40, 100)[:, ::3]):
            assert np.array_equal(profile.ramp(s), clipped_ramp(profile, s), equal_nan=True)
        for s in edges:
            assert np.array_equal(profile.ramp(s), clipped_ramp(profile, s), equal_nan=True)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_ramp_scalar_returns_numpy_scalar(self, profile):
        for s in (-1.0, 0.25, 2.0):
            value = profile.ramp(s)
            assert isinstance(value, np.float64)

    def test_invalid_profiles(self):
        with pytest.raises(ValueError):
            CutoffProfile("unknown")
        with pytest.raises(ValueError):
            CutoffProfile("smoothstep_poly", 2)

    @pytest.mark.parametrize("order", [515, 516, 100_000, 10**18, 10**400])
    def test_order_whose_coefficient_overflows_a_float_is_refused(self, order):
        """C(2n, n) passes the float range from n = 515; a huge order is
        refused without forming its coefficient."""
        with pytest.raises(ValueError, match="overflow a float"):
            CutoffProfile("smoothstep_poly", order)

    def test_largest_order_that_fits_a_float(self):
        profile = CutoffProfile("smoothstep_poly", 514)
        assert float(math.comb(1028, 514)) < math.inf
        value = profile.ramp(np.array([0.25, 0.5, 0.75]))
        assert np.all(np.isfinite(value))
        assert value[1] == pytest.approx(0.5)
        assert CutoffProfile("smooth_exp", 10**400).order == 10**400  # ignored there


CLOSED_FORM_ORDERS = [3, 4, 7, 12]


def band_points():
    """Interior band points near 0, 1/2 and 1, plus 1/2 and the last double
    below 1."""
    rng = np.random.default_rng(7)
    return np.concatenate(
        [
            10.0 ** rng.uniform(-20.0, -2.0, 60),
            0.5 + rng.uniform(-0.05, 0.05, 60),
            1.0 - 10.0 ** rng.uniform(-16.0, -2.0, 60),
            [0.5, 1.0 - 2.0**-53],
        ]
    )


class TestRampClosedForm:
    """The polynomial ramp is I_s(n+1, n+1), evaluated by its closed form."""

    @pytest.mark.parametrize("order", CLOSED_FORM_ORDERS)
    def test_against_betainc(self, order):
        s = band_points()
        expected = special.betainc(order + 1, order + 1, s)
        np.testing.assert_allclose(CutoffProfile(order=order).ramp(s), expected, rtol=4e-15, atol=0)

    @pytest.mark.parametrize("order", CLOSED_FORM_ORDERS)
    def test_against_mpmath(self, order):
        """Every term is positive, so no rounding is amplified by cancellation:
        the tolerance counts 2^-53 for each of the 2n Horner operations, the
        power and the last product, (n+1) 2^-52 in all."""
        mpmath = pytest.importorskip("mpmath")
        s = band_points()
        with mpmath.workdps(40):
            oracle = [
                float(mpmath.betainc(order + 1, order + 1, 0, mpmath.mpf(v), regularized=True))
                for v in s
            ]
        tol = (order + 1) * 2.0**-52
        np.testing.assert_allclose(CutoffProfile(order=order).ramp(s), oracle, rtol=tol, atol=0)

    @pytest.mark.parametrize("order", CLOSED_FORM_ORDERS)
    def test_exact_at_band_edges(self, order):
        profile = CutoffProfile(order=order)
        assert profile.ramp(0.0) == 0.0
        assert profile.ramp(1.0) == 1.0
        assert phi_cutoff(profile, 1.0) == 0.0
        assert phi_cutoff(profile, 2.0) == 1.0
        inside = profile.ramp(np.array([5e-324, 1e-300, 1.0 - 2.0**-53]))
        assert np.all((inside >= 0.0) & (inside <= 1.0))


class TestPartition:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_exact_telescoping(self, profile):
        for u in (0.0, 0.3, 1.0, 2.0, 3.7, 7.7, 16.0, 500.0, 1000.0, -42.5):
            K = max(0, int(np.ceil(np.log2(max(abs(u), 1.0)))))
            assert telescoped_residual(u, K, profile) <= 1e-12

    @pytest.mark.parametrize("profile", KINDS)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(u=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_exact_for_any_argument(self, profile, u):
        K = max(0, int(np.ceil(np.log2(max(abs(u), 1.0)))))
        assert telescoped_residual(u, K, profile) <= 1e-12

    @pytest.mark.parametrize("profile", KINDS)
    def test_array_call_matches_scalar_calls(self, profile):
        """The cutoffs give each element of an array the bits of its scalar call."""
        rng = np.random.default_rng(1)
        for K in (0, 3, 20):
            u = rng.uniform(-(2.0**K), 2.0**K, size=400)
            u[:3] = (0.0, 2.0**K, -(2.0 ** (K - 1)))
            residuals = telescoped_residual(u, K, profile)
            assert np.all(residuals <= 1e-12)
            assert np.array_equal(residuals, [telescoped_residual(float(v), K, profile) for v in u])

    def test_truncation_reported(self):
        """Too-small K genuinely misses mass and the residual says so."""
        assert telescoped_residual(1000.0, 2, CutoffProfile()) > 0.5


class TestMuSymbol:
    def test_vanishes_below_band(self):
        params = SymbolParams(0.5, 0.75)
        profile = CutoffProfile()
        assert mu_symbol(params, profile, 0.1, 5.0) == 0.0
        assert mu_symbol(params, profile, 1.0, 0.0) == 0.0

    def test_value_above_band(self):
        params = SymbolParams(0.5, 0.75)
        profile = CutoffProfile()
        t, lam = 0.5, 8.0  # t*lam = 4 >= 2, cutoff = 1
        z = t * lam
        expected = np.exp(1j * z**0.5) * z**-0.75
        assert mu_symbol(params, profile, t, lam) == pytest.approx(expected)

    def test_modulus_bound(self):
        params = SymbolParams(0.3, 1.2)
        profile = CutoffProfile()
        lam = np.linspace(0, 50, 500)
        mods = np.abs(mu_symbol(params, profile, 0.7, lam))
        z = 0.7 * lam
        bound = np.where(z > 1.0, np.maximum(z, 1.0) ** -1.2, 0.0)
        assert np.all(mods <= bound + 1e-15)

    @pytest.mark.parametrize("t", [1e-3, 0.05, 0.5, 3.0])
    def test_matches_where_form_on_a_lattice(self, t):
        params = SymbolParams(0.5, 0.75)
        profile = CutoffProfile()
        lam = LatticeGrid(2, 64).eigenvalue_array()
        before = lam.copy()
        got = mu_symbol(params, profile, t, lam)
        assert np.array_equal(got, where_mu_symbol(params, profile, t, lam))
        assert np.array_equal(lam, before)
        if t == 1e-3:
            # t |xi| <= 32 sqrt(2) / 1000 < 1 on the whole lattice
            assert not np.any(got)

    @pytest.mark.parametrize("profile", KINDS)
    def test_matches_where_form_at_edge_values(self, profile):
        params = SymbolParams(0.3, 1.2)
        lam = np.array([0.0, -3.0, np.nan, np.inf, 1e300, 1.0, 2.0, 7.5])
        before = lam.copy()
        with np.errstate(invalid="ignore"):
            got = mu_symbol(params, profile, 0.5, lam)
            want = where_mu_symbol(params, profile, 0.5, lam)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(lam, before, equal_nan=True)
            for v in lam:
                scalar = mu_symbol(params, profile, 0.5, float(v))
                assert type(scalar) is complex
                assert np.array_equal(scalar, where_mu_symbol(params, profile, 0.5, v), equal_nan=True)
        assert got[0] == got[2] == got[5] == 0.0  # t|lam| <= 1, and NaN

    @pytest.mark.parametrize("dimension, modes", [(1, 2**16), (2, 256)])
    @pytest.mark.parametrize("t", [0.05, 0.5])
    def test_all_above_path_equals_gather_path_bit_for_bit(self, dimension, modes, t):
        """A chunk with every t|xi| > 1 is evaluated in place; the same chunk
        after one point below the cutoff goes through the gather and the
        scatter.  At either t some lattice chunks hold points below the
        cutoff and some do not; the shifted square puts points of an
        all-above array on the cutoff's band at t = 0.05."""
        params = SymbolParams(0.5, 0.75)
        profile = CutoffProfile()
        lam = LatticeGrid(dimension, modes).eigenvalue_array().ravel()
        chunks = [lam[lo : lo + 2**14] for lo in range(0, lam.size, 2**14)]
        kinds = set()
        for chunk in chunks:
            above = bool(np.all(t * chunk > 1.0))
            kinds.add(above)
            got = mu_symbol(params, profile, t, chunk)
            gathered = mu_symbol(params, profile, t, np.append(0.0, chunk))[1:]
            assert np.array_equal(got.view(np.uint64), gathered.view(np.uint64))
            want = where_mu_symbol(params, profile, t, chunk)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert kinds == {True, False}
        square = lam[: 2**12].reshape(64, 64) + 30.0  # all above, not flat
        got = mu_symbol(params, profile, t, square)
        assert got.shape == (64, 64)
        gathered = mu_symbol(params, profile, t, np.append(0.0, square))[1:]
        assert np.array_equal(got.ravel().view(np.uint64), gathered.view(np.uint64))
        assert np.any(t * square < 2.0) == (t == 0.05)

    def test_scalar_returns_complex_on_either_path(self):
        params = SymbolParams(0.5, 0.75)
        profile = CutoffProfile()
        for lam in (0.0, 1.0, 3.0, 8.0, np.float64(8.0), np.array(8.0)):
            value = mu_symbol(params, profile, 0.5, lam)
            assert type(value) is complex
            assert value == where_mu_symbol(params, profile, 0.5, lam)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SymbolParams(1.5, 1.0)
        with pytest.raises(ValueError):
            SymbolParams(0.5, 0.0)
        with pytest.raises(ValueError):
            mu_symbol(SymbolParams(0.5, 1.0), CutoffProfile(), 0.0, 1.0)


class TestRieszSymbol:
    def test_z_zero(self):
        for k in (0.5, 1.0, 2.0, 4.0):
            assert riesz_mean_symbol(k, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("z", [0.3, 2.0, 17.5, 240.0])
    def test_against_closed_form_k1(self, z):
        val = riesz_mean_symbol(1.0, z)
        assert val == pytest.approx(riesz_mean_symbol_closed_form_k1(z), abs=1e-11)

    @pytest.mark.parametrize("k", [0.5, 1.3, 2.0])
    def test_against_series_small_z(self, k):
        for z in (0.1, 1.0, 3.0):
            val = riesz_mean_symbol(k, z)
            assert val == pytest.approx(riesz_mean_symbol_series(k, z), abs=1e-11)

    def test_modulus_at_most_one(self):
        """The symbol is an average of unimodular factors."""
        for k in (0.5, 1.0, 3.0):
            for z in np.linspace(0, 300, 40):
                assert abs(riesz_mean_symbol(k, float(z))) <= 1.0 + 1e-12

    @pytest.mark.parametrize("z", [100.0, 317.3, 1234.5])
    def test_order_two_closed_form(self, z):
        """k = 2 is exactly 2(1 + iz)/z^2 - 2 e^{iz}/z^2: a non-oscillating
        2/z term plus an oscillating remainder of modulus 2/z^2, so the
        envelope decays like z^-1, not z^-2 (criterion 8)."""
        val = riesz_mean_symbol(2.0, z)
        exact = complex(2.0 * (1.0 - np.cos(z)) / z**2, 2.0 / z - 2.0 * np.sin(z) / z**2)
        assert val == pytest.approx(exact, abs=1e-12)
        remainder = val - 2.0 * (1.0 + 1j * z) / z**2
        assert abs(remainder) == pytest.approx(2.0 / z**2, abs=1e-12)

    @pytest.mark.parametrize("z", [100.0, 1234.5, 1e4])
    def test_fractional_order_against_hyp1f1(self, z):
        """The symbol is Kummer's 1F1(1; k+1; iz) (DLMF 13.4)."""
        mpmath = pytest.importorskip("mpmath")
        k = 1.5
        with mpmath.workdps(30):
            oracle = complex(mpmath.hyp1f1(1, k + 1, 1j * z))
        assert riesz_mean_symbol(k, z) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("k", [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 6.0])
    def test_grid_against_hyp1f1(self, k):
        """One vectorised call over both sides of the series/contour switch
        at |z| = 8, and the negative half-axis, against mpmath."""
        mpmath = pytest.importorskip("mpmath")
        half = np.array([0.0, 1e-4, 0.3, 7.9, 8.0, 8.1, 30.0, 1234.5, 1e4])
        z = np.concatenate([half, -half])
        with mpmath.workdps(40):
            oracle = np.array(
                [complex(mpmath.hyp1f1(1, k + 1, 1j * mpmath.mpf(v))) for v in z]
            )
        np.testing.assert_allclose(riesz_mean_symbol(k, z), oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 6.0])
    def test_short_series_equals_all_64_terms(self, k):
        """The series stops at the first term below 2^-70 at the largest |z|;
        the terms it leaves out change no bit, whatever that largest |z|."""
        rng = np.random.default_rng(11)
        for z_max in np.geomspace(1e-3, 8.0, 12):
            z = np.concatenate([[0.0, z_max, -z_max], z_max * rng.uniform(-1.0, 1.0, 500)])
            assert np.array_equal(riesz_mean_symbol(k, z), riesz_series_64_terms(k, z))

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.5])
    def test_skipped_branches_change_no_bit(self, k):
        """Without |z| > 8 the contour pass is skipped, and without z < 0 the
        conjugation; the values are those of running every branch."""
        rng = np.random.default_rng(5)
        cases = [
            np.array([]),
            np.linspace(0.0, 8.0, 64),
            np.linspace(-8.0, 8.0, 33),
            np.array([0.0, -0.0, 8.0, -8.0, np.nextafter(8.0, 9.0), -40.0]),
            rng.uniform(-50.0, 50.0, (4, 5)),
        ]
        for z in cases:
            got, want = riesz_mean_symbol(k, z), riesz_every_branch(k, z)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for z in (0.0, -0.0, 3.0, -3.0, 30.0, -30.0):
            got, want = riesz_mean_symbol(k, z), riesz_every_branch(k, z)
            assert np.array_equal(np.array([got]).view(np.uint64), np.array([want]).view(np.uint64))

    def test_scalar_returns_complex(self):
        for z in (0.0, 3.0, -3.0, 30.0, np.float64(30.0)):
            assert type(riesz_mean_symbol(1.5, z)) is complex

    def test_array_shape_and_elementwise(self):
        z = np.array([[0.0, 0.5, -7.9, 8.0], [8.5, -40.0, 317.3, 1e4]])
        out = riesz_mean_symbol(0.75, z)
        assert out.shape == z.shape
        for idx in np.ndindex(z.shape):
            assert out[idx] == riesz_mean_symbol(0.75, float(z[idx]))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            riesz_mean_symbol(0.0, 1.0)


class TestGaussLaguerreTable:
    """The stored 48-node Gauss-Laguerre rule of the Riesz symbol's contour
    integral."""

    def test_matches_laggauss(self):
        nodes, weights = np.polynomial.laguerre.laggauss(48)
        np.testing.assert_allclose(_GLAG48[0], nodes, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(_GLAG48[1], weights, rtol=1e-14, atol=0.0)

    def test_matches_exact_rule(self):
        """Against the rule at 60 digits: the nodes are the roots of L_48,
        polished by Newton's method from the table, and the weights are
        1 / (x L_48'(x)^2)."""
        n = 48
        with mpmath.workdps(60):
            def derivative(x):  # x L_n'(x) = n (L_n(x) - L_{n-1}(x))
                return n * (mpmath.laguerre(n, 0, x) - mpmath.laguerre(n - 1, 0, x)) / x

            for node, weight in zip(*_GLAG48):
                x = mpmath.mpf(float(node))
                for _ in range(6):
                    x -= mpmath.laguerre(n, 0, x) / derivative(x)
                assert abs(node - x) <= 1e-14 * x
                exact = 1 / (x * derivative(x) ** 2)
                assert abs(weight - exact) <= 1e-12 * exact

    def test_import_leaves_numpy_polynomial_out(self):
        script = "import sys, oscimax.cli; print('numpy.polynomial' in sys.modules)"
        src = str(Path(oscimax.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

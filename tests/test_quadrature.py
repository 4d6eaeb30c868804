"""Tests for the oscillatory cosine-transform quadrature and decay fits."""

import contextlib
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy import integrate

from oscimax import (
    ConvergenceError,
    CutoffProfile,
    LatticeGrid,
    SymbolParams,
    combination_rate_experiment,
    dyadic_band_ratio,
    dyadic_tail_order,
    fit_decay_exponent,
    fourier_cosine_mu_derivative,
    fourier_cosine_mu_dyadic,
    pure_mode,
    riesz_symbol_decay_check,
    small_tau_exponent,
    verify_kernel_decay,
    verify_small_tau_decay,
)
from oscimax import quadrature
from oscimax.quadrature import _breakpoints, _panel_values, _phase_density, decay_law
from oscimax.symbols import dyadic_bump, phi_cutoff
from oracles import fourier_cosine_mu, psi0

PROFILE = CutoffProfile()


def reference_breakpoints(a, b, density):
    """The library's panel layout before its density grid was sized by
    log-length: a trapezoid sum in lam on 4,000 geometric nodes, whatever
    the interval.  The oracle's edges, and the first-round panel counts the
    log-sized grid must reproduce."""
    if b <= a:
        raise ValueError("empty interval")
    grid = np.geomspace(a, b, 4000)
    rho = density(grid)
    w = np.concatenate([[0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(grid))])
    if not w[-1] <= quadrature._MAX_PANELS:
        raise ConvergenceError("panel budget exceeded", complex("nan"), float("inf"))
    n_panels = max(1, int(np.ceil(w[-1])))
    edges = np.interp(np.linspace(0.0, w[-1], n_panels + 1), w, grid)
    edges[0], edges[-1] = a, b
    return edges


def phase_density(alpha, tau, sign, budget):
    """Panels per unit length of the library's real-axis density at a panel
    budget of `budget` rad instead of the library's fixed 1.6 rad."""

    def rho(lam):
        g1 = np.abs(alpha * lam ** (alpha - 1.0) + sign * tau)
        g2 = np.sqrt(alpha * (1.0 - alpha) * lam ** (alpha - 2.0))
        return (g1 + g2) / budget + 3.0 / lam

    return rho


def _panel_integrate(fn, edges):
    """Composite Kronrod on the given edges; returns (value, err_est, |contrib|)."""
    values, err = _panel_values(fn, edges[:-1], edges[1:])
    return complex(np.sum(values)), float(np.sum(err)), float(np.sum(np.abs(values)))


def gauss_16_8_panel_values(fn, lo, hi):
    """The library's panel rule before the Gauss-Kronrod pair: the 16-node
    Gauss-Legendre value of each panel and its difference from the 8-node
    value, from one call of `fn` on both node sets."""
    (x16, w16), (x8, w8) = (np.polynomial.legendre.leggauss(n) for n in (16, 8))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    f = fn(mid[:, None] + half[:, None] * np.concatenate([x16, x8])[None, :])
    v16 = np.einsum("ij,j->i", f[:, :16], w16) * half
    v8 = np.einsum("ij,j->i", f[:, 16:], w8) * half
    return v16, np.abs(v16 - v8)


def complex_power_ray(ray, s, which):
    """The ray integrand lam^(L-beta) e^{i(lam^alpha + sign tau lam)} i direction
    at lam = start + i direction s, by complex powers and a complex exp, as
    the library computed it before it went to real arithmetic."""
    lam = ray.start[which][:, None] + 1j * ray.direction[which][:, None] * s
    phase = lam**ray.alpha + ray.sign * ray.tau[which][:, None] * lam
    return lam**ray.amp * np.exp(1j * phase) * (1j * ray.direction[which][:, None])


def geometric_ray(amp, alpha, tau, sign, start, direction, budget):
    """Integrand and edges, in s, of the ray lam = start + i*direction*s, with
    the ray grading the library used before it graded by |lam|: a 4/(s +
    1e-8 s_max) term from s = 1e-10 s_max, which clusters panels at s = 0."""

    def integrand(s):
        lam = start + 1j * direction * s
        return lam**amp * np.exp(1j * (lam**alpha + sign * tau * lam)) * (1j * direction)

    if direction > 0:
        s_huge = (300.0 / np.sin(alpha * np.pi / 2.0)) ** (1.0 / alpha) + 10.0 * start
    else:
        s_huge = 400.0 / (tau * (1.0 - 2.0 ** (alpha - 1.0))) + 10.0 * start
    probe = np.geomspace(1e-8 * max(1.0, start), s_huge, 800)
    env = np.abs(integrand(probe))
    beyond = np.where(env <= max(env.max(), 1.0) * 1e-18 * (1.0 + probe))[0]
    s_max = probe[beyond[0]] if beyond.size else s_huge

    def rho(s):
        lam = np.abs(start + 1j * s)
        g1 = alpha * lam ** (alpha - 1.0) + tau
        g2 = np.sqrt(alpha * (1.0 - alpha) * lam ** (alpha - 2.0))
        return (g1 + g2) / budget + 4.0 / (s + 1e-8 * s_max)

    edges = reference_breakpoints(1e-10 * s_max, s_max, rho)
    edges[0] = 0.0
    return integrand, edges


def real_segment_transform(params, tau, L):
    """The contour the library used before it turned at twice the stationary
    point: the minus phase stays on the real axis up to (4/tau)^{1/(1-alpha)},
    the cutoff multiplies every segment node, the rays are graded from s = 0
    as in `geometric_ray`, and every round halves the panel budget on every
    panel, starting from 0.4 rad."""
    alpha, beta = params.alpha, params.beta
    amp = L - beta
    rot = np.exp(1j * L * np.pi / 2.0)

    def half_line(sign, budget):
        if sign < 0:
            lam_end, direction = max(2.0, (4.0 / tau) ** (1.0 / (1.0 - alpha))), -1.0
        else:
            lam_end, direction = 2.0, 1.0

        def integrand(lam):
            phase = lam**alpha + sign * tau * lam
            return lam**amp * phi_cutoff(PROFILE, lam) * np.exp(1j * phase)

        density = phase_density(alpha, tau, sign, budget)
        seg = _panel_integrate(integrand, reference_breakpoints(1.0, lam_end, density))
        ray = _panel_integrate(*geometric_ray(amp, alpha, tau, sign, lam_end, direction, budget))
        return [a + b for a, b in zip(seg, ray)]

    budget, previous = 0.4, None
    while True:
        (vp, ep, mp), (vm, em, mm) = half_line(1.0, budget), half_line(-1.0, budget)
        value = rot * vp + np.conj(rot) * vm
        tol = max(quadrature._ABS_TOLERANCE, quadrature._RELATIVE_FLOOR * (mp + mm))
        if ep + em <= tol or (previous is not None and abs(value - previous) <= tol):
            return value
        previous, budget = value, budget / 2.0


def split_band_transform(params, k, tau, L):
    """The dyadic transform as the library computed it before a compact band
    became one cosine piece: the cosine split into e^{+-i tau lam}, each
    exponential with its own phase-adapted edges and its own evaluation of
    the bump, both refined together."""
    alpha, beta = params.alpha, params.beta
    scale = 2.0**k
    lo, hi = scale / 2.0, scale * 2.0
    rot = np.exp(1j * L * np.pi / 2.0)

    def make_integrand(sign):
        def integrand(lam):
            return (
                lam ** (L - beta)
                * dyadic_bump(PROFILE, lam / scale)
                * np.exp(1j * (lam**alpha + sign * tau * lam))
            )

        return integrand

    pieces, panels = [], []
    for sign, weight in ((+1.0, rot), (-1.0, np.conj(rot))):
        integrand = make_integrand(sign)
        edges = reference_breakpoints(lo, hi, phase_density(alpha, tau, sign, 0.4))
        pieces.append((weight, lambda x, which, f=integrand: f(x)))
        panels.append([edges])
    return quadrature._refine(pieces, panels, lambda i: "split band did not converge")[0]


def low_band_correction(params, tau):
    """Exact defect between the resummed dyadic transforms and the full one.

    The dyadic pieces carry no main cutoff, so summing them reconstructs the
    symbol with cutoff (1 - psi0) instead of the band cutoff; the difference
    is supported on [1/2, 2]:

        2 * integral (1 - psi0(lam) - cutoff(lam)) e^{i lam^alpha} lam^-beta
                     cos(tau lam) dlam.
    """
    band = quadrature._Band(  # scale 1: the band [1/2, 2]
        params,
        0,
        np.array([tau]),
        np.array([1.0]),
        lambda lam: 1.0 - psi0(PROFILE, lam) - phi_cutoff(PROFILE, lam),
    )
    return quadrature._sweep([band], lambda i: f"low-band panel budget exceeded at tau={tau}")[0]


def fine_first_round(alpha, beta, tau):
    """First-round panels of the library's contour for the L = 0 transform,
    laid out by the oracles: a 0.4 rad budget on the segments, and the rays
    graded by 4/(s + 1e-8 s_max) from s = 1e-10 s_max."""
    panels = 0
    for sign in (1.0, -1.0):
        if sign < 0:
            lam_end, direction = max(2.0, 2.0 * (alpha / tau) ** (1.0 / (1.0 - alpha))), -1.0
        else:
            lam_end, direction = 2.0, 1.0
        segment = reference_breakpoints(1.0, lam_end, phase_density(alpha, tau, sign, 0.4))
        _, ray = geometric_ray(-beta, alpha, tau, sign, lam_end, direction, 0.4)
        panels += segment.size + ray.size - 2
    return panels


def stationary_phase_leading(alpha, beta, tau):
    """Leading stationary-phase term of the minus-phase integral at
    lam* = (alpha/tau)^{1/(1-alpha)} (Stein, Harmonic Analysis, ch. VIII)."""
    lam = (alpha / tau) ** (1.0 / (1.0 - alpha))
    curvature = alpha * (1.0 - alpha) * lam ** (alpha - 2.0)
    phase = lam**alpha - tau * lam - np.pi / 4.0
    return lam**-beta * np.sqrt(2.0 * np.pi / curvature) * np.exp(1j * phase)


@pytest.fixture
def panel_rounds(monkeypatch):
    """Panel counts of every `_panel_values` call, in call order."""
    counts = []
    evaluate = quadrature._panel_values

    def counted(fn, lo, hi):
        counts.append(lo.size)
        return evaluate(fn, lo, hi)

    monkeypatch.setattr(quadrature, "_panel_values", counted)
    return counts


@pytest.fixture
def layouts(monkeypatch):
    """Every `_breakpoints` call, in call order: its intervals, its density,
    the number of points the density was evaluated on, and what it returned
    (the panels each interval needs and each interval's edges)."""
    calls = []
    lay_out = quadrature._breakpoints

    def recorded(a, b, density):
        call = {"a": a, "b": b, "density": density, "nodes": 0}
        calls.append(call)

        def counted(x):
            call["nodes"] += x.size
            return density(x)

        call["needed"], call["edges"] = lay_out(a, b, counted)
        return call["needed"], call["edges"]

    monkeypatch.setattr(quadrature, "_breakpoints", recorded)
    return calls


def brute_force_transform(params, tau, upper=4000.0, L=0):
    """Direct scipy oracle; only practical when beta is large enough that the
    integrand decays absolutely."""

    def integrand(lam):
        cut = phi_cutoff(PROFILE, lam)
        core = lam ** (L - params.beta) * cut * np.cos(tau * lam + L * np.pi / 2.0)
        return core * np.exp(1j * lam**params.alpha)

    re, _ = integrate.quad(lambda x: integrand(x).real, 1.0, upper, limit=4000)
    im, _ = integrate.quad(lambda x: integrand(x).imag, 1.0, upper, limit=4000)
    return 2.0 * (re + 1j * im)


class TestFitDecayExponent:
    def test_exact_power_law(self):
        taus = np.geomspace(0.01, 1.0, 10)
        fit = fit_decay_exponent(list(zip(taus, taus**2)))
        assert fit.slope == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_intercept(self):
        taus = np.geomspace(0.1, 10.0, 8)
        fit = fit_decay_exponent(list(zip(taus, 3.0 * taus**-0.5)))
        assert fit.slope == pytest.approx(-0.5, abs=1e-10)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)

    def test_noisy_samples(self):
        rng = np.random.default_rng(0)
        taus = np.geomspace(0.01, 1.0, 40)
        mods = taus**2 * (1.0 + 0.01 * rng.standard_normal(40))
        fit = fit_decay_exponent(list(zip(taus, mods)))
        assert fit.slope == pytest.approx(2.0, abs=0.02)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_decay_exponent([(1.0, 1.0)] * 3)
        with pytest.raises(ValueError):
            fit_decay_exponent([(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)])
        with pytest.raises(ValueError):
            fit_decay_exponent([(t, 0.0) for t in (1.0, 2.0, 3.0, 4.0, 5.0)])


class TestFitRate:
    """`fit_decay_exponent` with a noise floor, as `dyadic_tail_order` fits
    above one."""

    FLOOR = 1e-14

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


class TestDecayLaw:
    """`decay_law` builds, on each branch, the check the five sites built
    before it, and returns the samples it fitted."""

    TAUS = np.geomspace(1e-3, 1e-1, 9)

    def power_law(self, exponent, scale=3.0):
        return [(float(t), scale * t**exponent) for t in self.TAUS]

    def test_two_sided_slope(self):
        samples = self.power_law(-0.5)
        fit = fit_decay_exponent(samples)
        got = decay_law(samples, -0.4, 0.2)
        assert got == {
            "fitted": fit,
            "samples": samples,
            "predicted": -0.4,
            "checks": [{"name": "slope", "value": abs(fit.slope + 0.4), "relation": "<=",
                        "bound": 0.2, "pass": True}],
            "pass": True,
        }
        assert not decay_law(samples, -0.8, 0.2)["pass"]

    def test_complex_values_fit_their_modulus(self):
        samples = [(t, v * np.exp(1j * t)) for t, v in self.power_law(-0.5)]
        assert decay_law(samples, -0.5, 0.2)["fitted"] == fit_decay_exponent(self.power_law(-0.5))
        assert decay_law(samples, -0.5, 0.2)["samples"] == samples

    def test_a_positive_prediction_without_a_spread_is_a_slope(self):
        """`rate-riesz`'s check: slope 1 within 0.05."""
        samples = self.power_law(1.0)
        fit = fit_decay_exponent(samples)
        assert decay_law(samples, 1.0, 0.05)["checks"] == [
            {"name": "slope", "value": abs(fit.slope - 1.0), "relation": "<=", "bound": 0.05,
             "pass": True}
        ]

    def test_one_sided_rate(self):
        samples = self.power_law(2.0)
        fit = fit_decay_exponent(samples, floor=0.0)
        got = decay_law(samples, 1.5, 0.1, floor=0.0, one_sided=True)
        assert got["checks"] == [
            {"name": "rate", "value": fit.slope, "relation": ">=", "bound": 1.5 - 0.1, "pass": True}
        ]
        failed = decay_law(samples, 3.0, 0.1, floor=0.0, one_sided=True)
        assert failed["checks"][0]["bound"] == 3.0 - 0.1
        assert not failed["pass"]

    def test_bounded_with_a_spread(self):
        samples = self.power_law(0.1)
        got = decay_law(samples, 0.25, 0.2, spread=4.0)
        assert got["checks"] == [
            {"name": "bounded", "value": 4.0, "relation": "<=", "bound": 10.0, "pass": True}
        ]
        assert not decay_law(samples, 0.0, 0.2, spread=10.5)["pass"]
        # a negative prediction judges the slope, whatever the spread
        assert decay_law(samples, -0.1, 0.2, spread=4.0)["checks"][0]["name"] == "slope"

    def test_floor_drops_samples(self):
        samples = self.power_law(2.0, scale=1.0)
        samples[:3] = [(t, 0.0) for t, _ in samples[:3]]
        samples[3] = (samples[3][0], 1e-300)
        got = decay_law(samples, 2.0, 0.1, floor=1e-200, one_sided=True)
        assert got["fitted"] == fit_decay_exponent(samples[4:])
        assert got["fitted"].sample_count == 5
        assert got["samples"] == samples

    def test_too_few_samples_above_the_floor(self):
        samples = self.power_law(2.0)
        samples[:5] = [(t, 0.0) for t, _ in samples[:5]]
        with pytest.raises(ValueError, match="above the floor"):
            decay_law(samples, 2.0, 0.1, floor=0.0)


class TestDecayLawSamples:
    """Each caller of `decay_law` returns the pairs it fitted: refitting
    them gives the same fit."""

    @staticmethod
    def refit(report, floor=None):
        return fit_decay_exponent([(s, abs(v)) for s, v in report["samples"]], floor=floor)

    def test_small_tau_decay(self):
        rep = verify_small_tau_decay(SymbolParams(0.5, 0.5), PROFILE, 0, 0.02, 0.1, n_samples=5)
        assert all(isinstance(v, complex) for _, v in rep["samples"])
        assert self.refit(rep) == rep["fitted"]

    def test_kernel_decay(self):
        t = 0.5
        radii = np.geomspace(0.05, 1.0, 6) * t
        rep = verify_kernel_decay(SymbolParams(0.5, 0.5), PROFILE, t, radii, M_cap=2000)
        assert [s for s, _ in rep["samples"]] == list(radii / t)
        assert self.refit(rep) == rep["fitted"]

    def test_riesz_symbol_envelope(self):
        rep = riesz_symbol_decay_check(1.0, 0.5, 100.0, 1000.0, 5, 8)
        assert len(rep["samples"]) == 5
        assert self.refit(rep) == rep["fitted"]

    def test_combination_rate(self):
        f = pure_mode(LatticeGrid(1, 64), (5,))
        times = np.geomspace(1e-4, 1e-2, 8)
        rep = combination_rate_experiment(f, 0.5, 0.75, 0.5, times=times, N=2)
        assert [t for t, _ in rep["samples"]] == list(times)
        assert self.refit(rep, floor=0.0) == rep["fitted"]


class TestFourierCosineMu:
    def test_against_brute_force(self):
        """Contour scheme matches a plain adaptive oracle when beta is large."""
        params = SymbolParams(0.5, 3.0)
        for tau in (0.1, 1.0, 5.0):
            ours = fourier_cosine_mu(params, PROFILE, tau)
            oracle = brute_force_transform(params, tau)
            assert ours == pytest.approx(oracle, abs=5e-7)

    def test_large_tau_decay(self):
        """Smooth cutoff and phase give faster-than-polynomial large-tau decay."""
        params = SymbolParams(0.5, 0.5)
        big = abs(fourier_cosine_mu(params, PROFILE, 300.0))
        ref = abs(fourier_cosine_mu(params, PROFILE, 1.0))
        assert big / ref <= 1e-6

    def test_derivative_consistency(self):
        """Central finite difference in tau matches the L=1 transform."""
        params = SymbolParams(0.5, 1.0)
        tau, h = 1.0, 1e-4
        fd = (
            fourier_cosine_mu(params, PROFILE, tau + h)
            - fourier_cosine_mu(params, PROFILE, tau - h)
        ) / (2.0 * h)
        analytic = fourier_cosine_mu_derivative(params, PROFILE, tau, 1)
        assert abs(fd - analytic) / abs(analytic) <= 1e-4

    def test_tolerance_self_consistency(self, monkeypatch):
        params = SymbolParams(0.5, 1.0)
        monkeypatch.setattr(quadrature, "_ABS_TOLERANCE", 1e-8)
        coarse = fourier_cosine_mu(params, PROFILE, 0.3)
        monkeypatch.setattr(quadrature, "_ABS_TOLERANCE", 5e-9)
        fine = fourier_cosine_mu(params, PROFILE, 0.3)
        assert abs(coarse - fine) <= 1e-8

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            fourier_cosine_mu_derivative(SymbolParams(0.5, 1.0), PROFILE, 1.0, 5)


class TestMinusPhaseContour:
    # the oracle's long real segment carries a relative floor of its own that
    # grows with L as tau falls: at (1/2, 1/4, 2) and tau = 3e-4 it is good to
    # about 1e-9 only, so that case is not compared
    @pytest.mark.parametrize(
        "alpha,beta,L,tau",
        [
            (*case, tau)
            for case in ((0.5, 0.5, 0), (0.5, 0.5, 1), (0.25, 0.25, 0), (0.5, 0.25, 2))
            for tau in (3e-4, 1e-3, 1e-2, 0.1)
            if (case, tau) != ((0.5, 0.25, 2), 3e-4)
        ]
        + [(0.5, 1.5, 4, 1.0), (0.5, 1.5, 4, 20.0)],
    )
    def test_matches_real_segment_contour(self, alpha, beta, L, tau):
        params = SymbolParams(alpha, beta)
        ours = fourier_cosine_mu_derivative(params, PROFILE, tau, L)
        oracle = real_segment_transform(params, tau, L)
        assert abs(ours - oracle) <= 1e-9 * abs(oracle)

    def test_stationary_phase_remainder_shrinks(self):
        """At alpha = beta = 1/2 the remainder after the leading term tends to
        a constant while the term grows like tau^{-1/2}."""
        params = SymbolParams(0.5, 0.5)
        rel = [
            abs(fourier_cosine_mu(params, PROFILE, tau) - stationary_phase_leading(0.5, 0.5, tau))
            / abs(stationary_phase_leading(0.5, 0.5, tau))
            for tau in (1e-3, 1e-4, 1e-5)
        ]
        assert rel[0] > rel[1] > rel[2]
        assert rel[2] < 5e-3

    def test_stationary_phase_at_tiny_tau(self):
        sp = stationary_phase_leading(0.5, 0.25, 1e-5)
        ours = fourier_cosine_mu(SymbolParams(0.5, 0.25), PROFILE, 1e-5)
        assert abs(ours - sp) < 1e-4 * abs(sp)


class TestRefinement:
    @pytest.fixture(autouse=True)
    def one_call_per_piece(self, monkeypatch):
        """A node block no round reaches, so that each piece's round is one
        `_panel_values` call and the first four calls are the first round."""
        monkeypatch.setattr(quadrature, "_NODE_BLOCK", 2**30)

    def test_only_failing_panels_are_evaluated_again(self, panel_rounds):
        """At alpha = 1/4 one panel of about 120 carries the excess; the
        later rounds evaluate its halves only."""
        fourier_cosine_mu(SymbolParams(0.25, 0.25), PROFILE, 1e-2)
        first_round = sum(panel_rounds[:4])  # one call per piece: two segments, two rays
        assert len(panel_rounds) > 4
        assert sum(panel_rounds) <= 1.1 * first_round

    @pytest.mark.parametrize("limit", ["below-largest-piece", "below-sum"])
    def test_budget_checked_before_evaluation(self, panel_rounds, monkeypatch, limit):
        """A budget one below the largest first-round piece fails while that
        piece's edges are laid down; one below the sum of the pieces holds
        every piece but fails before the first round is evaluated."""
        params = SymbolParams(0.25, 0.25)
        fourier_cosine_mu(params, PROFILE, 1e-2)
        pieces = panel_rounds[:4]  # one call per piece: two segments, two rays
        panel_rounds.clear()
        bound = max(pieces) if limit == "below-largest-piece" else sum(pieces)
        monkeypatch.setattr(quadrature, "_MAX_PANELS", bound - 1)
        with pytest.raises(ConvergenceError, match="max_panels"):
            fourier_cosine_mu(params, PROFILE, 1e-2)
        assert panel_rounds == []

    @pytest.mark.parametrize("tau,fine", [(1e-3, 1537), (1e-4, 8361)])
    def test_first_round_is_coarse(self, panel_rounds, tau, fine):
        """The 1.6 rad budget and the |lam| ray grading lay down at most half
        the panels of the oracles' finer first round."""
        assert fine_first_round(0.5, 0.5, tau) == fine
        fourier_cosine_mu(SymbolParams(0.5, 0.5), PROFILE, tau)
        assert sum(panel_rounds[:4]) <= fine / 2

    def test_huge_segment_raises_before_allocating(self, panel_rounds):
        """The alpha = 3/4 segment at tau = 1e-3 needs about 8e7 panels."""
        with pytest.raises(ConvergenceError, match="panel budget exceeded"):
            fourier_cosine_mu(SymbolParams(0.75, 0.5), PROFILE, 1e-3)
        assert panel_rounds == []


class TestSweep:
    """A sweep is one quadrature over many integrals; each integral's value,
    error and cost are those it has alone."""

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("L", range(5))
    def test_sweep_equals_sweeps_of_one(self, alpha, L):
        """The taus straddle tau = alpha, where lam* = 1: below it the minus
        segment ends at 2 lam*, above it at 2."""
        params = SymbolParams(alpha, 0.5)
        taus = alpha * np.array([0.1, 0.5, 1.0, 2.0, 10.0])
        ends = quadrature._half_line_kinds(params, PROFILE, L, taus)[2].lam_end
        assert np.any(ends == 2.0) and np.any(ends > 2.0)
        sweep = quadrature._transforms(params, PROFILE, taus, L)
        for tau, value in zip(taus, sweep):
            alone = fourier_cosine_mu_derivative(params, PROFILE, tau, L)
            assert abs(value - alone) <= 1e-14 * abs(alone), tau

    @pytest.mark.parametrize("L", [0, 2])
    def test_dyadic_sweep_equals_sweeps_of_one(self, L):
        params = SymbolParams(0.5, 1.0)
        taus = np.geomspace(0.01, 10.0, 6)
        pairs = [(6, tau) for tau in taus] + [(k, 0.5) for k in range(0, 9, 2)]
        sweep = quadrature._dyadic_transforms(params, PROFILE, *zip(*pairs), L)
        for (k, tau), value in zip(pairs, sweep):
            alone = fourier_cosine_mu_dyadic(params, PROFILE, k, tau, L)
            assert abs(value - alone) <= 1e-14 * abs(alone), (k, tau)

    @staticmethod
    def raised(taus):
        with pytest.raises(ConvergenceError) as info:
            quadrature._transforms(SymbolParams(0.5, 0.5), PROFILE, taus, 0)
        return info.value

    def test_first_failure_in_sweep_order_is_raised(self, monkeypatch, panel_rounds):
        """With a 122-panel budget, tau = 1 converges in its first round of 92
        panels, tau = 0.11 and 0.105 lay out 122 panels and fail to refine
        after it, and tau = 0.1 needs 123 panels in its first round.  A sweep
        raises exactly when one of its taus raises alone, and it raises what
        that tau raises alone (the message, partial value and estimate): the
        layout failure of tau = 0.1 before any panel is evaluated, or else
        the first refinement failure in sweep order."""
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 122)
        alone = {tau: self.raised([tau]) for tau in (0.11, 0.105, 0.1)}
        assert all("err~" in str(alone[tau]) for tau in (0.11, 0.105))
        assert "max_panels" in str(alone[0.1])
        quadrature._transforms(SymbolParams(0.5, 0.5), PROFILE, [1.0], 0)
        for taus, first in [
            ([1.0, 0.11, 0.105, 0.1], 0.1),
            ([1.0, 0.105, 0.11], 0.105),
            ([1.0, 0.11, 0.105], 0.11),
            ([1.0, 0.1, 0.11], 0.1),
            ([0.11, 1.0, 0.1], 0.1),
        ]:
            panel_rounds.clear()
            error = self.raised(taus)
            assert str(error) == str(alone[first])
            assert error.error_estimate == alone[first].error_estimate
            assert str(error.partial_value) == str(alone[first].partial_value)
            assert (panel_rounds == []) == (first == 0.1)

    def test_layout_over_budget_raises_before_its_panels_are_evaluated(self, panel_rounds):
        """At alpha = 3/4 the tau = 1e-3 segment needs about 8e7 panels: the
        sweep raises its scalar error, and evaluates no panel, not even those
        of tau = 0.05, which converges alone."""
        params = SymbolParams(0.75, 0.5)
        with pytest.raises(ConvergenceError) as alone:
            fourier_cosine_mu(params, PROFILE, 1e-3)
        assert panel_rounds == []
        fourier_cosine_mu(params, PROFILE, 0.05)
        assert panel_rounds != []
        panel_rounds.clear()
        with pytest.raises(ConvergenceError) as swept:
            quadrature._transforms(params, PROFILE, [0.05, 1e-3, 1e-4], 0)
        assert str(swept.value) == str(alone.value)
        assert "panels needed" in str(swept.value)
        assert panel_rounds == []

    @pytest.mark.parametrize(
        "taus, first",
        [([1e-3, 1e-300], 1e-3), ([1e-300, 1e-3], 1e-300), ([0.05, 1e-300, 1e-3], 1e-300)],
    )
    def test_layout_failure_names_the_first_failing_integral(self, panel_rounds, taus, first):
        """At alpha = 3/4 the minus segment of tau = 1e-3 needs about 8e7
        panels and that of tau = 1e-300 ends at lam = inf: within the kind,
        the one first in the sweep is raised, as it is alone."""
        params = SymbolParams(0.75, 0.5)
        with pytest.raises(ConvergenceError) as alone:
            fourier_cosine_mu(params, PROFILE, first)
        with pytest.raises(ConvergenceError) as swept:
            quadrature._transforms(params, PROFILE, taus, 0)
        assert str(swept.value) == str(alone.value)
        assert panel_rounds == []

    def test_unbounded_ray_is_neither_probed_nor_laid_out(self, layouts, monkeypatch):
        """At alpha = 1e-9 the plus ray's probe would reach s = inf: the ray
        is refused before its probe or its layout runs, and the plus
        segment, laid out first, is the only piece the sweep lays out."""
        probed = []
        integrand = quadrature._Ray.integrand

        def recorded(self, s, which):
            probed.append(s)
            return integrand(self, s, which)

        monkeypatch.setattr(quadrature._Ray, "integrand", recorded)
        with pytest.raises(ConvergenceError, match=r"inf panels needed on \[0, inf\]"):
            quadrature._transforms(SymbolParams(1e-9, 0.5), PROFILE, [1e-3, 1e-2], 0)
        assert probed == []
        assert [call["b"].tolist() for call in layouts] == [[2.0, 2.0]]

    def test_one_integrand_call_per_kind_per_round(self, monkeypatch):
        """A sweep that fits in one node block makes at most one call per
        kind per round, and takes as many rounds as its slowest integral."""
        rounds = []
        evaluate = quadrature._evaluate

        def marked(pieces, *args):
            rounds.append([])

            def note(p, integrand):
                def noted(x, which):
                    rounds[-1].append(p)
                    return integrand(x, which)

                return noted

            return evaluate([(w, note(p, fn)) for p, (w, fn) in enumerate(pieces)], *args)

        monkeypatch.setattr(quadrature, "_evaluate", marked)
        monkeypatch.setattr(quadrature, "_NODE_BLOCK", 2**30)
        params, taus = SymbolParams(0.5, 0.5), np.geomspace(1e-3, 3.0, 9)
        quadrature._transforms(params, PROFILE, taus, 0)
        sweep = list(rounds)
        assert sweep[0] == [0, 1, 2, 3]
        assert all(len(calls) == len(set(calls)) for calls in sweep)
        alone = []
        for tau in taus:
            rounds.clear()
            quadrature._transforms(params, PROFILE, [tau], 0)
            alone.append(list(rounds))
        assert len(sweep) == max(map(len, alone)) == 2
        assert sum(map(len, sweep)) < sum(len(c) for r in alone for c in r) / 5

    def test_calls_hold_at_most_one_node_block(self, monkeypatch):
        """With a 40-panel block, every integrand call, the rays' decay
        probes included, holds at most 600 nodes, also where one integral's
        round is larger (the tau = 1e-3 minus segment has 255 panels) or
        blocks mix integrals; the values are those of the unblocked sweep,
        bit for bit."""
        params, taus = SymbolParams(0.5, 0.5), np.geomspace(1e-3, 3.0, 7)
        whole = quadrature._transforms(params, PROFILE, taus, 1)
        calls = []
        for kind in (quadrature._Segment, quadrature._Ray):
            def counted(self, x, which, integrand=kind.integrand):
                calls.append((x.size, which.tolist()))
                return integrand(self, x, which)

            monkeypatch.setattr(kind, "integrand", counted)
        monkeypatch.setattr(quadrature, "_NODE_BLOCK", 15 * 40)
        blocked = quadrature._transforms(params, PROFILE, taus, 1)
        assert blocked == whole
        assert all(size <= 15 * 40 for size, _ in calls)
        assert sum(len(set(which)) > 1 for _, which in calls) >= 4
        assert sum(set(which) == {0} for _, which in calls) >= 4


class TestLayout:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("tau", [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0])
    def test_log_sized_grid_keeps_the_panel_count(self, layouts, alpha, tau):
        """Segments, rays and bands, laid out for a sweep of two taus at once,
        evaluate their density on at most 8 ln(b/a) + 17 points per interval
        (each padded to the longest), and every interval gets within 5% of
        the panels of the 4,000-node layout, with edges that run from a to b;
        an interval too long for the panel budget is refused by both, and a
        call with one builds no edge."""
        params = SymbolParams(alpha, 0.5)
        taus = np.array([tau, 2.0 * tau])
        # the k = 0 and k = 6 dyadic bands; their window plays no part in the layout
        band = quadrature._Band(params, 0, taus, np.array([1.0, 64.0]), window=None)
        for kinds in (quadrature._half_line_kinds(params, PROFILE, 0, taus), [band]):
            with contextlib.suppress(ConvergenceError):
                quadrature._first_round(kinds, str)
        assert len(layouts) >= 3  # a segment and a ray of the plus phase, the bands
        for call in layouts:
            a, b, edges = call["a"], call["b"], call["edges"]
            assert call["nodes"] <= a.size * np.max(8.0 * np.log(b / a) + 17.0)
            over = call["needed"] > quadrature._MAX_PANELS
            assert (edges is None) == over.any()
            if edges is not None:
                assert len(edges) == a.size
                for row, start, end in zip(edges, a, b):
                    assert row[0] in (start, 0.0)  # a ray starts at s = 0, not at a
                    assert row[-1] == end
                    assert np.all(row[:-1] < row[1:])
            for r in range(a.size):
                # the density of interval r, on any grid
                def density(x, r=r):
                    return call["density"](np.broadcast_to(x, (a.size, x.size)))[r]

                if over[r]:
                    with pytest.raises(ConvergenceError):
                        reference_breakpoints(a[r], b[r], density)
                    continue
                fine = reference_breakpoints(a[r], b[r], density).size - 1
                panels = max(1, np.ceil(call["needed"][r]))
                assert abs(panels - fine) <= 0.05 * fine, (a[r], b[r])
                assert edges is None or edges[r].size - 1 == panels

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_edges_do_not_depend_on_the_sweep(self, alpha):
        """Segments, rays and bands laid out for a sweep of five integrals,
        whose minus segments have three different grid node counts and so
        are padded to the longest, give every integral the first-round edges it
        gets laid out alone, bit for bit."""
        params = SymbolParams(alpha, 0.5)
        taus = np.array([1e-3, 0.02, 0.5, 3.0, 40.0])
        scales = np.ldexp(1.0, [0, 3, 10, 6, 1])

        def kinds(which):
            band = quadrature._Band(params, 0, taus[which], scales[which], window=None)
            return quadrature._half_line_kinds(params, PROFILE, 0, taus[which]), [band]

        minus = kinds(np.arange(taus.size))[0][2]
        _, _, n = quadrature._log_grid(*minus.interval(np.arange(taus.size)))
        assert np.unique(n).size == 3
        swept = [quadrature._first_round(group, str) for group in kinds(np.arange(taus.size))]
        for i in range(taus.size):
            alone = [quadrature._first_round(group, str) for group in kinds([i])]
            for sweep_group, alone_group in zip(swept, alone):
                for sweep_rows, [row] in zip(sweep_group, alone_group):
                    assert sweep_rows[i].view(np.uint64).tolist() == row.view(np.uint64).tolist()


class TestPanelValues:
    @pytest.mark.parametrize("piece", [0, 1])  # the minus phase's segment and its ray
    def test_one_integrand_call_per_round(self, piece):
        """The 15 Kronrod nodes, the 7 Gauss nodes among them, go through one
        call of the integrand; the values are the separate 15-node Kronrod
        sums and the estimates their differences from separate 7-node Gauss
        sums on numpy's Gauss-Legendre nodes."""
        params = SymbolParams(0.5, 0.5)
        kind = quadrature._half_line_kinds(params, PROFILE, 1, np.array([1e-2]))[2 + piece]
        [[edges]] = quadrature._first_round([kind], str)
        lo, hi = edges[:-1], edges[1:]
        shapes = []

        def fn(x):
            return kind.integrand(x, np.zeros(x.shape[0], dtype=int))

        def counted(x):
            shapes.append(x.shape)
            return fn(x)

        values, err = _panel_values(counted, lo, hi)
        assert shapes == [(lo.size, 15)]
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        xk, wk = quadrature._K15_NODES, quadrature._K15_WEIGHTS
        x7, w7 = np.polynomial.legendre.leggauss(7)
        k15 = fn(mid[:, None] + half[:, None] * xk) @ wk * half
        g7 = fn(mid[:, None] + half[:, None] * x7) @ w7 * half
        assert np.all(np.abs(values - k15) <= 1e-15 * np.abs(k15))
        assert np.all(np.abs(err - np.abs(k15 - g7)) <= 1e-15 * np.abs(k15))

    def test_kronrod_rule_is_exact_to_degree_22(self):
        """In 40-digit arithmetic on the stored doubles, the 15-node rule
        integrates x^k over [-1, 1] to 1e-15 for every k <= 22, its degree
        3n + 1 at n = 7, and misses x^24 by far more."""
        nodes = [mpmath.mpf(float(x)) for x in quadrature._K15_NODES]
        weights = [mpmath.mpf(float(w)) for w in quadrature._K15_WEIGHTS]

        def error(k):
            with mpmath.workdps(40):
                exact = mpmath.mpf(2) / (k + 1) if k % 2 == 0 else mpmath.mpf(0)
                return abs(mpmath.fsum(w * x**k for x, w in zip(nodes, weights)) - exact)

        assert all(error(k) <= 1e-15 for k in range(23))
        assert error(24) > 1e-9

    def test_embedded_gauss_rule_is_leggauss_7(self):
        """The odd-position nodes and the Gauss weights are numpy's 7-point
        Gauss-Legendre rule, and the Kronrod nodes are symmetric about 0."""
        x7, w7 = np.polynomial.legendre.leggauss(7)
        xk = quadrature._K15_NODES
        assert np.max(np.abs(xk[1::2] - x7)) <= 1e-15
        assert np.max(np.abs(quadrature._G7_WEIGHTS - w7)) <= 1e-15
        assert np.all(np.diff(xk) > 0) and np.all(xk == -xk[::-1])

    def test_agrees_with_the_gauss_16_8_pair(self, monkeypatch):
        """The five decay-quadrature benchmark ops' transforms, from the
        symbol-decay sweeps and the dyadic tail and band ratio, agree with
        the 16/8-node Gauss pair's within each integral's tolerance (measured
        worst: 3.4e-14 relative on the symbol-decay sweeps, 6.6e-16 absolute
        on the dyadic tail, 1.4e-13 absolute on the band-ratio pieces)."""
        sweeps = [
            (0.5, 0.5, 0, np.geomspace(1e-3, 1e-1, 9)),
            (0.5, 0.5, 1, np.geomspace(1e-3, 1e-1, 9)),
            (0.5, 0.5, 0, np.geomspace(3e-4, 1e-1, 9)),
            (0.25, 0.25, 0, np.geomspace(1e-3, 1e-1, 25)),
        ]
        tail_taus = np.geomspace(2.0, 10.0, 15)
        band_ks = list(range(4, 9))
        dyadic = (
            [6] * tail_taus.size + band_ks,
            [*tail_taus, *(2.0 ** (-0.5 * k) for k in band_ks)],
        )

        def transforms():
            values = [
                quadrature._transforms(SymbolParams(alpha, beta), PROFILE, taus, L)
                for alpha, beta, L, taus in sweeps
            ]
            return values + [quadrature._dyadic_transforms(SymbolParams(0.5, 1.0), PROFILE, *dyadic)]

        ours = transforms()
        monkeypatch.setattr(quadrature, "_panel_values", gauss_16_8_panel_values)
        for new, old in zip(ours, transforms()):
            new, old = np.array(new), np.array(old)
            tol = np.maximum(quadrature._ABS_TOLERANCE, quadrature._RELATIVE_FLOOR * np.abs(old))
            assert np.all(np.abs(new - old) <= tol)


class TestRayIntegrand:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_matches_complex_powers(self, alpha):
        """On the first-round nodes of every ray with start Lambda, for both
        phases, beta in {1/4, 1/2, 2}, L = 0..4 and tau in [1e-5, 10] where
        Lambda^alpha < 1e12, the real-arithmetic integrand is within
        64 eps (1 + Lambda^alpha + tau Lambda) max|old| of the complex-power
        one: its error is that of the phase, whose size this is (measured
        worst: 16.0 of the 64)."""
        taus = np.geomspace(1e-5, 10.0, 13)
        for beta in (0.25, 0.5, 2.0):
            for L in range(5):
                kinds = quadrature._half_line_kinds(SymbolParams(alpha, beta), PROFILE, L, taus)
                for ray in (kinds[1], kinds[3]):
                    which = np.flatnonzero(ray.start**alpha < 1e12)
                    a, b = ray.interval(which)
                    _, edges = _breakpoints(a, b, partial(ray.density, which=which))
                    assert len(edges) == which.size
                    for row in edges:
                        row[0] = 0.0
                    lo = np.concatenate([row[:-1] for row in edges])
                    hi = np.concatenate([row[1:] for row in edges])
                    rows = np.repeat(which, [row.size - 1 for row in edges])
                    s = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * quadrature._K15_NODES
                    new, old = ray.integrand(s, rows), complex_power_ray(ray, s, rows)
                    assert np.all(np.isfinite(old))
                    for i in which:
                        own = rows == i
                        start, tau = ray.start[i], taus[i]
                        scale = 64.0 * np.finfo(float).eps * (1.0 + start**alpha + tau * start)
                        err = np.max(np.abs(new[own] - old[own]))
                        assert err <= scale * np.max(np.abs(old[own])), (beta, L, ray.sign, tau)


class TestDyadicPieces:
    def test_l0_band_agrees_locally(self):
        """A dyadic piece is the same integral restricted to its band."""
        params = SymbolParams(0.5, 3.0)
        piece = fourier_cosine_mu_dyadic(params, PROFILE, 4, 0.5)

        def integrand(lam):
            return (
                lam**-3.0
                * dyadic_bump(PROFILE, lam / 16.0)
                * np.cos(0.5 * lam)
                * np.exp(1j * lam**0.5)
            )

        re, _ = integrate.quad(lambda x: integrand(x).real, 8.0, 32.0, limit=2000)
        im, _ = integrate.quad(lambda x: integrand(x).imag, 8.0, 32.0, limit=2000)
        assert piece == pytest.approx(2.0 * (re + 1j * im), abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0, 3.0])
    def test_matches_split_band(self, alpha, beta):
        """One cosine piece agrees with the two-exponential split."""
        params = SymbolParams(alpha, beta)
        for L, tol in ((0, 1e-11), (2, 1e-9)):
            for k in (0, 1, 4, 6):
                for tau in (0.0, 0.01, 0.1, 0.5, 2.0, 10.0):
                    ours = fourier_cosine_mu_dyadic(params, PROFILE, k, tau, L)
                    oracle = split_band_transform(params, k, tau, L)
                    assert abs(ours - oracle) <= tol, (L, k, tau)

    def test_band_is_evaluated_once_per_round(self, panel_rounds):
        """The first round is one call on the plus-phase panels of the band
        [8, 32]; this case needs no second round."""
        fourier_cosine_mu_dyadic(SymbolParams(0.5, 1.0), PROFILE, 4, 0.5)
        density = partial(_phase_density, alpha=0.5, tau=0.5, sign=+1.0, grading=3.0)
        _, [edges] = _breakpoints(np.array([8.0]), np.array([32.0]), density)
        assert panel_rounds == [edges.size - 1]

    @pytest.mark.parametrize("k", [-1, 6.5])
    def test_scale_index_must_be_a_nonnegative_integer(self, k):
        """The band scale is 2^k, built exactly by ldexp for integer k."""
        with pytest.raises(ValueError, match="nonnegative integer"):
            fourier_cosine_mu_dyadic(SymbolParams(0.5, 1.0), PROFILE, k, 0.5)

    @pytest.mark.parametrize("tau", [0.01, 0.1, 1.0, 10.0])
    def test_low_band_correction_against_quad(self, tau):
        params = SymbolParams(0.5, 0.5)

        def integrand(lam):
            window = 1.0 - psi0(PROFILE, lam) - phi_cutoff(PROFILE, lam)
            return 2.0 * window * lam**-0.5 * np.cos(tau * lam) * np.exp(1j * lam**0.5)

        parts = [
            integrate.quad(
                lambda x: part(integrand(x)), 0.5, 2.0, points=[1.0], epsabs=1e-14, limit=200
            )[0]
            for part in (np.real, np.imag)
        ]
        ours = low_band_correction(params, tau)
        assert abs(ours - complex(*parts)) <= 1e-10

    @pytest.mark.parametrize("tau", [0.01, 0.1, 1.0, 10.0])
    def test_resummation_with_correction(self, tau):
        """Summed dyadic transforms differ from the full transform by exactly
        the low-band cutoff-mismatch correction."""
        params = SymbolParams(0.5, 0.5)
        full = fourier_cosine_mu(params, PROFILE, tau)
        corr = low_band_correction(params, tau)
        total, tiny_streak = 0.0 + 0.0j, 0
        for k in range(16):
            piece = fourier_cosine_mu_dyadic(params, PROFILE, k, tau)
            total += piece
            tiny_streak = tiny_streak + 1 if abs(piece) < 1e-12 else 0
            if tiny_streak >= 3:
                break
        assert abs(total - corr - full) <= 1e-8

    def test_tail_order(self):
        params = SymbolParams(0.5, 1.0)
        fit = dyadic_tail_order(params, PROFILE)["fitted"]
        assert -fit.slope >= 3.0

    def test_tail_order_keeps_noise_floor_samples_out_of_the_fit(self):
        result = dyadic_tail_order(SymbolParams(0.5, 1.0), PROFILE, tau_hi=60.0, n_samples=12)
        scaled = [s for s, _ in result["samples"]]
        assert scaled == pytest.approx(2.0**6 * np.geomspace(2.0, 60.0, 12), rel=1e-15)
        above = [abs(v) for _, v in result["samples"] if abs(v) > 1e-13]
        assert 5 <= len(above) < len(scaled)
        assert result["fitted"].sample_count == len(above)

    def test_band_ratio(self):
        params = SymbolParams(0.5, 1.0)
        report = dyadic_band_ratio(params, PROFILE)
        assert report["ratio"] <= 10.0
        assert set(report["normalized"]) == {4, 5, 6, 7, 8}


class TestVerifySmallTauDecay:
    def test_exponent_formula(self):
        assert small_tau_exponent(0.5, 0.5, 0) == pytest.approx(-0.5)
        assert small_tau_exponent(0.5, 0.5, 1) == pytest.approx(-2.5)
        assert small_tau_exponent(0.25, 0.5, 1) == pytest.approx(-11.0 / 6.0)

    def test_slope_branch(self):
        params = SymbolParams(0.5, 0.5)
        report = verify_small_tau_decay(params, PROFILE, 0, 1e-3, 1e-1)
        assert [c["name"] for c in report["checks"]] == ["slope"]
        assert report["pass"]

    def test_bounded_branch(self):
        params = SymbolParams(0.5, 3.0)
        report = verify_small_tau_decay(params, PROFILE, 0, 1e-3, 1e-1, n_samples=10)
        assert [c["name"] for c in report["checks"]] == ["bounded"]
        assert report["pass"]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            verify_small_tau_decay(SymbolParams(0.5, 0.5), PROFILE, 0, 1.0, 500.0)


class TestConjugation:
    def test_phase_flip_conjugates(self):
        """Flipping the sign of the oscillation conjugates the transform.

        The cosine factor is real, so the only complex input is the phase;
        checked against a direct oracle built with the opposite phase sign.
        """
        params = SymbolParams(0.5, 3.0)

        def flipped_oracle(tau, upper=4000.0):
            def integrand(lam):
                cut = phi_cutoff(PROFILE, lam)
                core = lam**-params.beta * cut * np.cos(tau * lam)
                return core * np.exp(-1j * lam**params.alpha)

            re, _ = integrate.quad(lambda x: integrand(x).real, 1.0, upper, limit=4000)
            im, _ = integrate.quad(lambda x: integrand(x).imag, 1.0, upper, limit=4000)
            return 2.0 * (re + 1j * im)

        for tau in (0.2, 2.0):
            plus = fourier_cosine_mu(params, PROFILE, tau)
            assert flipped_oracle(tau) == pytest.approx(np.conj(plus), abs=5e-7)

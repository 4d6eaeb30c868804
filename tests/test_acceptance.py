"""Acceptance suite: the twelve numerical criteria for the library.

Each test asserts one criterion at its stated tolerance and prints one
pass/fail summary line.  Criteria are exercised at desk scale; tolerances
and parameter choices are fixed, not tuned per run.
"""

import json
import math

import numpy as np
import pytest

from oscimax import (
    CutoffProfile,
    LatticeGrid,
    SymbolParams,
    combination_error_symbol,
    dyadic_band_ratio,
    dyadic_bump,
    dyadic_tail_order,
    fit_decay_exponent,
    grid_norm,
    inverse_transform,
    pure_mode,
    random_spectral_field,
    riesz_mean_op,
    riesz_symbol_decay_check,
    combination_rate_experiment,
    verify_small_tau_decay,
    verify_kernel_decay,
)
from oscimax.cli import EXIT_PASS, main
from oscimax.extrapolation import atom_uniformity_experiment
from oscimax.hardy import AtomSpec, ball_measure, make_regular_atom
from oscimax.operators import oscillating_op
from oracles import fourier_cosine_mu, psi0, schrodinger_propagate

PROFILE = CutoffProfile()


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def sup_bound_1d_check(
    t: np.ndarray,
    f: np.ndarray,
    f_prime: np.ndarray,
    b: float,
    eps: float,
) -> dict:
    """Check sup|f| <= sqrt(b * I1) + sqrt(I2 / b) + |f(0)| + slack on [0, sigma],

    where I1 = integral t^eps |f'|^2 and I2 = integral |f|^2 t^-eps, both by
    trapezoid rule over the interior samples (the t = 0 endpoint is excluded
    so negative-power weights stay finite); slack = 2 * spacing * max|f'|
    covers the discretization gap.
    """
    if b <= 0.0:
        raise ValueError(f"b must be positive, got {b}")
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    fp = np.asarray(f_prime, dtype=float)
    if not (t.shape == f.shape == fp.shape):
        raise ValueError("t, f, f_prime must have matching shapes")
    if t[0] != 0.0:
        raise ValueError("samples must start at t = 0")
    ti, fi, fpi = t[1:], f[1:], fp[1:]
    i1 = float(np.trapezoid(ti**eps * fpi**2, ti))
    i2 = float(np.trapezoid(fi**2 * ti**-eps, ti))
    spacing = float(np.max(np.diff(t)))
    slack = 2.0 * spacing * float(np.max(np.abs(fp)))
    lhs = float(np.max(np.abs(f)))
    rhs = np.sqrt(b * i1) + np.sqrt(i2 / b) + abs(float(f[0])) + slack
    return {"lhs": lhs, "rhs": float(rhs), "pass": bool(lhs <= rhs)}


class TestCriterion1Partition:
    def test_partition_residual(self):
        """Residual of the dyadic partition of unity at 10^4 sampled points."""
        rng = np.random.default_rng(0)
        u = np.abs(rng.uniform(-1e6, 1e6, size=10_000))
        # 2^20 > 10^6: bumps past a point's own 2^K >= |u| add exact zeros
        total = psi0(PROFILE, u)
        for k in range(21):
            total = total + dyadic_bump(PROFILE, u / 2.0**k)
        worst = float(np.max(np.abs(total - 1.0)))
        report(f"criterion 1 partition: max residual {worst:.2e} (tol 1e-12)")
        assert worst <= 1e-12


class TestCriterion2SymbolDecay:
    @pytest.mark.parametrize(
        "alpha,beta,L", [(0.5, 0.5, 0), (0.5, 0.5, 1), (0.25, 0.5, 1)]
    )
    def test_small_tau_exponent(self, alpha, beta, L):
        params = SymbolParams(alpha, beta)
        rep = verify_small_tau_decay(params, PROFILE, L, 1e-3, 1e-1)
        report(
            f"criterion 2 slope (a={alpha}, b={beta}, L={L}): "
            f"fitted {rep['fitted'].slope:.3f} vs {rep['predicted']:.3f}"
        )
        assert [c["name"] for c in rep["checks"]] == ["slope"]
        assert rep["pass"]

    def test_bounded_branch(self):
        rep = verify_small_tau_decay(SymbolParams(0.5, 3.0), PROFILE, 0, 1e-3, 1e-1, n_samples=10)
        report(f"criterion 2 bounded branch (b=3): pass={rep['pass']}")
        assert [c["name"] for c in rep["checks"]] == ["bounded"]
        assert rep["pass"]

    def test_large_tau_decay(self):
        params = SymbolParams(0.5, 0.5)
        ratio = abs(fourier_cosine_mu(params, PROFILE, 300.0)) / abs(
            fourier_cosine_mu(params, PROFILE, 1.0)
        )
        report(f"criterion 2 large-tau ratio: {ratio:.2e} (tol 1e-6)")
        assert ratio <= 1e-6


class TestCriterion3DyadicStructure:
    def test_outer_tail_order(self):
        fit = dyadic_tail_order(SymbolParams(0.5, 1.0), PROFILE)["fitted"]
        report(f"criterion 3 outer tail order: {-fit.slope:.2f} (need >= 3)")
        assert -fit.slope >= 3.0

    def test_middle_band_ratio(self):
        rep = dyadic_band_ratio(SymbolParams(0.5, 1.0), PROFILE)
        report(f"criterion 3 middle band ratio: {rep['ratio']:.2f} (need <= 10)")
        assert rep["ratio"] <= 10.0


class TestCriterion4KernelDecay:
    T = 0.5
    RADII = np.geomspace(0.05, 1.0, 20) * T
    NEAR_RADII = np.geomspace(0.005, 0.05, 20) * T
    NEAR_EPS = 1e-10
    NEAR_M_CAP = 400_000

    def test_near_diagonal_slope(self):
        """Window x/t in [0.005, 0.05], predicted slope -1 + excess/(1-alpha) = -0.5.

        The prediction is the x/t -> 0 law of the stationary point
        lam* = (alpha t/x)^{1/(1-alpha)} at lattice frequency m* = lam*/t.
        The window and regularization are chosen so that
          - lam* >= 100 across the window (the stationary point lies far
            above the cutoff band),
          - e^{-eps m*^2} >= 0.95 at the smallest x/t (the Gaussian does not
            damp the stationary frequencies),
          - M_cap >= 4/sqrt(eps) (truncation only cuts below e^{-16}).
        On x/t in [0.05, 1] lam* falls from 100 to 1/4 and the kernel, which
        matches the Poisson-summation value t^{-1} FC(x/t) there, fits a
        pre-asymptotic slope near -1; at eps = 1e-7 this window is
        over-damped and fits a positive slope, so the check still fails on
        a wrong or over-damped kernel.
        """
        params = SymbolParams(0.5, 0.5)
        ratios = self.NEAR_RADII / self.T
        lam_star = (params.alpha / ratios) ** (1.0 / (1.0 - params.alpha))
        m_star_top = lam_star.max() / self.T
        assert lam_star.min() >= 100.0
        assert np.exp(-self.NEAR_EPS * m_star_top**2) >= 0.95
        assert self.NEAR_M_CAP >= 4.0 / np.sqrt(self.NEAR_EPS)
        rep = verify_kernel_decay(
            params,
            PROFILE,
            self.T,
            self.NEAR_RADII,
            eps=self.NEAR_EPS,
            M_cap=self.NEAR_M_CAP,
        )
        report(
            f"criterion 4 kernel slope: fitted {rep['fitted'].slope:.3f} vs "
            f"predicted {rep['predicted']:.3f} (tol 0.3) pass={rep['pass']}"
        )
        assert rep["pass"]

    def test_truncation_stability(self):
        a = verify_kernel_decay(
            SymbolParams(0.5, 0.5), PROFILE, self.T, self.RADII, M_cap=200_000
        )
        b = verify_kernel_decay(
            SymbolParams(0.5, 0.5), PROFILE, self.T, self.RADII, M_cap=400_000
        )
        delta = abs(a["fitted"].slope - b["fitted"].slope)
        report(f"criterion 4 M_cap doubling delta: {delta:.4f} (tol 0.05)")
        assert delta < 0.05


class TestCriterion5SupBound:
    def test_fifty_functions(self):
        sigma = 0.5
        t = np.linspace(0.0, sigma, 2001)
        rng = np.random.default_rng(42)
        functions = []
        for _ in range(17):  # polynomials
            c = rng.standard_normal(4)
            functions.append((np.polyval(c, t), np.polyval(np.polyder(c), t)))
        for _ in range(17):  # single-frequency oscillations
            a, w, ph = rng.standard_normal(), rng.uniform(5, 40), rng.uniform(0, 2 * np.pi)
            functions.append((a * np.sin(w * t + ph), a * w * np.cos(w * t + ph)))
        for _ in range(16):  # random band-limited trig series
            f = np.zeros_like(t)
            fp = np.zeros_like(t)
            for h in range(1, 6):
                a, b = rng.standard_normal(2)
                wh = h * np.pi / sigma
                f += a * np.cos(wh * t) + b * np.sin(wh * t)
                fp += wh * (-a * np.sin(wh * t) + b * np.cos(wh * t))
            functions.append((f, fp))
        checked = failures = 0
        for f, fp in functions:
            for b in (0.1, 1.0, 10.0):
                for eps in (-0.5, 0.0, 0.5):
                    checked += 1
                    if not sup_bound_1d_check(t, f, fp, b, eps)["pass"]:
                        failures += 1
        report(f"criterion 5 sup bound: {checked - failures}/{checked} pass")
        assert failures == 0


class TestSupBound:
    """The criterion-5 check itself, on functions with known bounds."""

    def test_constant_function(self):
        t = np.linspace(0.0, 0.5, 101)
        f = np.full_like(t, 3.0)
        fp = np.zeros_like(t)
        report = sup_bound_1d_check(t, f, fp, 1.0, 0.0)
        assert report["pass"]
        assert report["lhs"] == pytest.approx(3.0)

    def test_linear_function(self):
        t = np.linspace(0.0, 0.5, 2001)
        report = sup_bound_1d_check(t, t, np.ones_like(t), 1.0, 0.0)
        assert report["lhs"] == pytest.approx(0.5)
        assert report["rhs"] == pytest.approx(np.sqrt(0.5) + np.sqrt(0.5**3 / 3.0), abs=1e-2)
        assert report["pass"]

    @pytest.mark.parametrize("b", [0.1, 1.0, 10.0])
    def test_oscillatory(self, b):
        t = np.linspace(0.0, 0.5, 2001)
        f = np.sin(20.0 * t)
        fp = 20.0 * np.cos(20.0 * t)
        for eps in (-0.5, 0.0, 0.5):
            assert sup_bound_1d_check(t, f, fp, b, eps)["pass"]

    def test_validation(self):
        t = np.linspace(0.0, 0.5, 11)
        with pytest.raises(ValueError):
            sup_bound_1d_check(t, t, np.ones_like(t), 0.0, 0.0)
        with pytest.raises(ValueError):
            sup_bound_1d_check(t + 0.1, t, np.ones_like(t), 1.0, 0.0)


class TestCriterion6Vandermonde:
    def test_moment_system(self):
        """The alternating binomials c_k = (-1)^{k-1} C(N, k) solve the
        power-moment system exactly, in integers, and the library's error
        symbol is their combination minus the identity."""
        coefficients = {
            N: [(-1) ** (k - 1) * math.comb(N, k) for k in range(1, N + 1)] for N in range(1, 9)
        }
        exact_moments = all(
            [sum(c * k**j for k, c in enumerate(cs, start=1)) for j in range(N)]
            == [1] + [0] * (N - 1)
            for N, cs in coefficients.items()
        )
        # near z = pi, |2 sin(z/2)|^N >= 1.68^N: the direct sum cancels little
        z = np.linspace(2.0, 4.0, 6)
        worst = 0.0
        for N, cs in coefficients.items():
            direct = sum(c * np.exp(1j * k * z) for k, c in enumerate(cs, start=1)) - 1.0
            rel = np.abs(combination_error_symbol(N, z) - direct) / np.abs(direct)
            worst = max(worst, float(np.max(rel)))
        report(
            f"criterion 6 combination: integer moments exact {exact_moments}, "
            f"symbol vs direct sum {worst:.2e} (tol 1e-14)"
        )
        assert coefficients[2] == [2, -1] and coefficients[3] == [3, -3, 1]
        assert exact_moments
        assert worst <= 1e-14


class TestCriterion7CombinationRate:
    def test_fitted_rate(self):
        grid = LatticeGrid(1, 64)
        fields = {
            "single-mode": pure_mode(grid, (5,)),
            "band-limited": random_spectral_field(
                grid, np.random.default_rng(0), band_limit=16
            ),
        }
        for name, f in fields.items():
            rep = combination_rate_experiment(f, 0.5, 0.75, 0.5, N=2)
            report(
                f"criterion 7 rate ({name}): slope {rep['fitted'].slope:.3f} "
                f"(need >= {rep['predicted'] - 0.1:.2f})"
            )
            assert rep["fitted"].slope >= rep["predicted"] - 0.1
            assert all(c["pass"] for c in rep["checks"])


class TestCriterion8RieszMeans:
    def _single_mode_fit(self, k):
        grid = LatticeGrid(1, 64)
        f = pure_mode(grid, (7,))
        samples = []
        for t in np.geomspace(1e-4, 1e-2, 12):
            diff = riesz_mean_op(f, k, 0.5, float(t)).coefficients - f.coefficients
            samples.append((float(t), float(np.sqrt(np.sum(np.abs(diff) ** 2)))))
        return fit_decay_exponent(samples)

    def test_single_mode_error_slopes(self):
        fits = {k: self._single_mode_fit(k) for k in (1.0, 2.0, 4.0)}
        for k, fit in fits.items():
            report(f"criterion 8 single-mode (k={k}): slope {fit.slope:.4f} (1 +- 0.05)")
            assert fit.slope == pytest.approx(1.0, abs=0.05)
        assert fits[1.0].intercept > fits[2.0].intercept > fits[4.0].intercept

    def test_envelope_order_one(self):
        rep = riesz_symbol_decay_check(1.0, 0.5, 100.0, 10_000.0)
        report(f"criterion 8 envelope (k=1): slope {rep['fitted'].slope:.3f} (-1 +- 0.15)")
        assert rep["pass"]

    def test_envelope_order_two(self):
        """The order-2 symbol is exactly 2(1 + iz)/z^2 - 2 e^{iz}/z^2, i.e.
        2(1 - cos z)/z^2 + i(2/z - 2 sin z/z^2).  Its non-oscillating 2/z term
        dominates the envelope, as the large-z expansion of 1F1(1; k+1; iz)
        (DLMF 13.7), k/(-iz) + Gamma(k+1) e^{iz} (iz)^{-k}, gives for every
        k > 1: the envelope slope is -min(k, 1) = -1.
        """
        rep = riesz_symbol_decay_check(2.0, 0.5, 100.0, 10_000.0)
        report(
            f"criterion 8 envelope (k=2): slope {rep['fitted'].slope:.3f} "
            f"({rep['predicted']:g} +- 0.15)"
        )
        assert rep["predicted"] == -1.0
        assert rep["pass"]


class TestCriterion9OperatorInvariants:
    @pytest.mark.parametrize("dimension,modes", [(1, 256), (2, 64)])
    def test_invariants(self, dimension, modes):
        grid = LatticeGrid(dimension, modes)
        rng = np.random.default_rng(100 + dimension)
        worst = 0.0
        for _ in range(50):
            f = random_spectral_field(grid, rng)
            alpha = float(rng.uniform(0.1, 0.9))
            s1, s2 = rng.uniform(0.01, 2.0, 2)
            scale = float(np.max(np.abs(f.coefficients)))
            g = schrodinger_propagate(f, alpha, s1)
            worst = max(worst, abs(g.l2_norm() - f.l2_norm()) / f.l2_norm())
            chained = schrodinger_propagate(g, alpha, s2)
            direct = schrodinger_propagate(f, alpha, s1 + s2)
            worst = max(
                worst,
                float(np.max(np.abs(chained.coefficients - direct.coefficients))) / scale,
            )
            params = SymbolParams(alpha, float(rng.uniform(0.3, 2.0)))
            t = float(rng.uniform(0.05, 0.5))
            ab = oscillating_op(g, params, PROFILE, t)
            ba = schrodinger_propagate(oscillating_op(f, params, PROFILE, t), alpha, s1)
            worst = max(
                worst, float(np.max(np.abs(ab.coefficients - ba.coefficients))) / scale
            )
            spatial = grid_norm(inverse_transform(f), 2.0)
            worst = max(worst, abs(spatial - f.l2_norm()) / f.l2_norm())
        report(
            f"criterion 9 invariants (n={dimension}, M={modes}): worst {worst:.2e} (tol 1e-12)"
        )
        assert worst <= 1e-12


class TestCriterion10AtomCertificates:
    def test_two_hundred_atoms(self):
        grid1 = LatticeGrid(1, 512)
        grid2 = LatticeGrid(2, 128)
        rng = np.random.default_rng(7)
        worst_moment = worst_l2 = 0.0
        for i in range(200):
            p = (0.5, 2.0 / 3.0, 0.75)[i % 3]
            grid = grid1 if i % 2 == 0 else grid2
            dim = grid.dimension
            radius = float(rng.uniform(6 * grid.spacing, np.pi / 10))
            center = tuple(rng.uniform(0, 2 * np.pi, size=dim))
            atom = make_regular_atom(
                AtomSpec(p=p, center=center, radius=radius, seed=1000 + i), grid
            )
            target = ball_measure(dim, radius) ** (0.5 - 1.0 / p)
            worst_moment = max(
                worst_moment, atom.certified_moment_bound / atom.certified_l2
            )
            worst_l2 = max(worst_l2, abs(atom.certified_l2 - target) / target)
        report(
            f"criterion 10 atoms: moment/l2 {worst_moment:.2e} (tol 1e-10), "
            f"l2 deviation {worst_l2:.2e} (tol 1e-12)"
        )
        assert worst_moment <= 1e-10
        assert worst_l2 <= 1e-12


class TestCriterion11AtomUniformity:
    def test_quasinorm_spread(self):
        grid = LatticeGrid(1, 1024)
        rep = atom_uniformity_experiment(
            grid, 0.5, 0.5, 0.75, atom_count=50, seed=11
        )
        report(
            f"criterion 11 uniformity: max/median {rep['ratio']:.2f} (need <= 10)"
        )
        assert rep["ratio"] <= 10.0


class TestCriterion12Determinism:
    @pytest.mark.parametrize(
        "experiment,extra",
        [
            ("maximal-sweep", ["--dimension", "2", "--n-modes", "16", "--band-limit", "4"]),
            ("rate-combo", []),
            ("rate-riesz", []),
            ("dyadic-decay", []),
        ],
    )
    def test_byte_identical_reports(self, tmp_path, experiment, extra):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([experiment, *extra, "--out", str(out_a)]) == EXIT_PASS
        assert main([experiment, *extra, "--out", str(out_b)]) == EXIT_PASS
        same_json = (out_a / "summary.json").read_bytes() == (
            out_b / "summary.json"
        ).read_bytes()
        csv = f"{experiment}.csv"
        same_csv = (out_a / csv).read_bytes() == (out_b / csv).read_bytes()
        report(f"criterion 12 determinism ({experiment}): json={same_json} csv={same_csv}")
        assert same_json and same_csv

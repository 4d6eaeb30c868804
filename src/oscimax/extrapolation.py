"""Vandermonde combination scheme for the fractional propagator and the
convergence-rate and atom-uniformity experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random

from .hardy import AtomSpec, make_regular_atom, weak_lp_quasinorm
from .operators import TimeGrid, maximal_over_times, oscillating_op, riesz_mean_op, schrodinger_propagate
from .quadrature import DecayFit, fit_decay_exponent
from .symbols import CutoffProfile, SymbolParams
from .torus import LatticeGrid, SpectralField, forward_transform, inverse_transform

ERROR_SUP = "grid_sup"
ERROR_L2 = "l2"

ROUNDOFF_FLOOR = 1e-15


@dataclass(frozen=True)
class CombinationScheme:
    """Coefficients c_1..c_N with sum 1 and vanishing power moments
    sum c_k k^j = 0 for j = 1..N-1; `residual` is the max violation of the
    defining linear system."""

    N: int
    coefficients: np.ndarray
    residual: float


@dataclass(frozen=True)
class RateReport:
    """`errors` holds the convergence error at every sampled time."""

    fit: DecayFit
    errors: np.ndarray
    predicted_rate: float
    error_norm_kind: str
    passed: bool
    degenerate: bool = False


def combination_coefficients(N: int) -> CombinationScheme:
    """Solve the N x N power-moment (Vandermonde) system: rows k^j for
    j = 0..N-1, k = 1..N, right-hand side (1, 0, ..., 0)."""
    if not 1 <= N <= 12:
        raise ValueError(f"N must lie in [1, 12], got {N}")
    k = np.arange(1, N + 1, dtype=float)
    mat = k[None, :] ** np.arange(N, dtype=float)[:, None]
    rhs = np.zeros(N)
    rhs[0] = 1.0
    coeffs = np.linalg.solve(mat, rhs)
    residual = float(np.max(np.abs(mat @ coeffs - rhs)))
    return CombinationScheme(N=N, coefficients=coeffs, residual=residual)


def combination_apply(
    f: SpectralField, alpha: float, t: float, scheme: CombinationScheme
) -> SpectralField:
    """sum_k c_k * propagate(f, alpha, k*t)."""
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    out = np.zeros_like(f.coefficients)
    for k, c in enumerate(scheme.coefficients, start=1):
        out = out + c * schrodinger_propagate(f, alpha, k * t).coefficients
    return SpectralField(f.grid, out)


def convergence_error(
    f: SpectralField,
    alpha: float,
    t: float,
    scheme: CombinationScheme,
    kind: str = ERROR_SUP,
) -> float:
    """Norm of combination_apply(f, t) - f, sup or L2 on the spatial grid."""
    diff = SpectralField(
        f.grid, combination_apply(f, alpha, t, scheme).coefficients - f.coefficients
    )
    if kind == ERROR_L2:
        return diff.l2_norm()
    if kind == ERROR_SUP:
        return float(np.max(np.abs(inverse_transform(diff).samples)))
    raise ValueError(f"unknown error norm kind {kind!r}")


def fit_rate(t_values, errors, floor_scale: float = 1.0) -> DecayFit:
    """Log-log slope of error vs t; points within 10x of the roundoff floor
    are discarded so flat bottoms do not pollute the fit."""
    t_values = np.asarray(t_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > 10.0 * ROUNDOFF_FLOOR * floor_scale
    if np.count_nonzero(keep) < 5:
        raise ValueError("too few error samples above the roundoff floor to fit")
    return fit_decay_exponent(list(zip(t_values[keep], errors[keep])))


def combination_rate_experiment(
    f: SpectralField,
    alpha: float,
    beta: float,
    p: float,
    times: np.ndarray | None = None,
    kind: str = ERROR_SUP,
    N: int | None = None,
) -> RateReport:
    """Convergence-rate check for the combination scheme on a band-limited
    field, sampled at `times` (default 24 points geometric on [1e-4, 1e-2]):
    fitted slope must reach beta/alpha - 0.1 (the claimed rate is a
    one-sided o(t^{beta/alpha}) bound)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    n = f.grid.dimension
    if beta < n * alpha * (1.0 / p - 0.5) - 1e-12:
        raise ValueError(
            f"beta={beta} below the admissible threshold "
            f"{n * alpha * (1.0 / p - 0.5)} for p={p}"
        )
    if N is None:
        N = math.floor(beta / alpha) + 1
    scheme = combination_coefficients(N)
    if times is None:
        times = np.geomspace(1e-4, 1e-2, 24)
    scale = float(np.max(np.abs(f.coefficients))) or 1.0
    errors = np.array(
        [convergence_error(f, alpha, t, scheme, kind) for t in times]
    )
    predicted = beta / alpha
    if np.all(errors <= 10.0 * ROUNDOFF_FLOOR * scale):
        # vacuous pass (e.g. a constant field): flagged, not fitted
        dummy = DecayFit(predicted, 0.0, 1.0, (times[0], times[-1]), len(times))
        return RateReport(dummy, errors, predicted, kind, passed=True, degenerate=True)
    fit = fit_rate(times, errors, floor_scale=scale)
    return RateReport(
        fit=fit,
        errors=errors,
        predicted_rate=predicted,
        error_norm_kind=kind,
        passed=bool(fit.slope >= predicted - 0.1),
    )


def riesz_pointwise_experiment(
    f: SpectralField,
    k: float,
    alpha: float,
    grid: TimeGrid | None = None,
    threshold: float = 1e-3,
) -> dict:
    """Riesz-mean pointwise convergence surrogate: for each time (descending)
    report the sup error and the measure of the set where the error exceeds
    the threshold; pass when the tail of either sequence decreases below the
    threshold (smooth fields) or the exceedance measure shrinks to 0."""
    times = np.sort(grid.times if grid is not None else np.geomspace(1e-4, 0.5, 24))[::-1]
    cell = f.grid.cell_volume
    ref = inverse_transform(f).samples
    sup_errors, exceed_measures = [], []
    for t in times:
        approx = inverse_transform(riesz_mean_op(f, k, alpha, t)).samples
        err = np.abs(approx - ref)
        sup_errors.append(float(np.max(err)))
        exceed_measures.append(float(np.count_nonzero(err > threshold) * cell))
    sup_errors = np.array(sup_errors)
    exceed_measures = np.array(exceed_measures)
    tail = max(3, len(times) // 3)
    sup_tail = sup_errors[-tail:]
    meas_tail = exceed_measures[-tail:]
    sup_ok = bool(
        np.all(sup_tail[1:] <= sup_tail[:-1] * 1.05) and sup_tail[-1] <= threshold
    )
    meas_ok = bool(
        np.all(meas_tail[1:] <= meas_tail[:-1] + 1e-12) and meas_tail[-1] == 0.0
    )
    return {
        "times": times,
        "sup_errors": sup_errors,
        "exceed_measures": exceed_measures,
        "threshold": threshold,
        "pass": sup_ok or meas_ok,
    }


def atom_uniformity_experiment(
    grid: LatticeGrid,
    p: float,
    alpha: float,
    beta: float,
    atom_count: int = 50,
    seed: int = 0,
    time_grid: TimeGrid | None = None,
    profile: CutoffProfile | None = None,
    radius_hi: float = np.pi / 10.0,
    radius_decades: float = 2.0,
) -> dict:
    """Weak-L^p quasinorm of the maximal oscillating operator over a batch of
    regular atoms with radii spanning `radius_decades` dyadic decades; reports
    the max/median ratio (uniform boundedness predicts a modest ratio)."""
    if atom_count < 1:
        raise ValueError(f"atom_count must be >= 1, got {atom_count}")
    params = SymbolParams(alpha, beta)
    profile = profile or CutoffProfile()
    time_grid = time_grid or TimeGrid(count=48, span_octaves=12.0)
    radius_lo = max(radius_hi / 2.0**radius_decades, 4.0 * grid.spacing)
    radii = np.geomspace(radius_lo, radius_hi, atom_count)
    rng = np.random.default_rng(seed)
    quasinorms = []
    for i, r in enumerate(radii):
        center = tuple(rng.uniform(0.0, 2.0 * np.pi, size=grid.dimension))
        spec = AtomSpec(p=p, center=center, radius=float(r), seed=seed + i)
        atom = make_regular_atom(spec, grid)
        coeffs = forward_transform(atom.field)
        maximal = maximal_over_times(
            coeffs,
            lambda t, g: oscillating_op(g, params, profile, t),
            time_grid.times,
        )
        quasinorms.append(weak_lp_quasinorm(maximal, p))
    quasinorms = np.array(quasinorms)
    ordered = np.sort(quasinorms)
    mid = ordered.size // 2
    median = ordered[mid] if ordered.size % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    ratio = float(np.max(quasinorms) / median)
    return {
        "radii": radii,
        "quasinorms": quasinorms,
        "max": float(np.max(quasinorms)),
        "median": float(median),
        "ratio": ratio,
        "pass": bool(ratio <= 10.0),
    }

"""Vandermonde combination scheme for the fractional propagator and the
convergence-rate and atom-uniformity experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random

from .hardy import AtomSpec, make_regular_atom, weak_lp_quasinorm
from .operators import TimeGrid, maximal_over_times, oscillating_op, schrodinger_propagate
from .quadrature import DecayFit, check, fit_decay_exponent
from .symbols import DEFAULT_PROFILE, SymbolParams
from .torus import GridField, LatticeGrid, SpectralField, forward_transform, inverse_transform

ROUNDOFF_FLOOR = 1e-15

# Grid samples per block of atoms in `atom_uniformity_experiment`, the size
# of one 512 x 512 field: a block's stacked arrays are no larger than the
# arrays of one field on the largest lattice the experiments run.
_ATOM_BLOCK_SAMPLES = 2**18

# a rate is fitted on at least five error samples above the roundoff floor
_MIN_RATE_SAMPLES = 5


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
    """`errors` holds the grid-sup convergence error at every sampled time,
    `checks` the verdict "rate" (fitted slope >= predicted_rate - 0.1)."""

    fit: DecayFit
    errors: np.ndarray
    predicted_rate: float
    checks: list


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
    f: SpectralField, alpha: float, t: float, scheme: CombinationScheme
) -> float:
    """Sup of |combination_apply(f, t) - f| on the spatial grid."""
    diff = SpectralField(
        f.grid, combination_apply(f, alpha, t, scheme).coefficients - f.coefficients
    )
    return float(np.max(np.abs(inverse_transform(diff).samples)))


def combination_rate_experiment(
    f: SpectralField,
    alpha: float,
    beta: float,
    p: float,
    times: np.ndarray | None = None,
    N: int | None = None,
) -> RateReport:
    """Convergence-rate check for the combination scheme on a band-limited
    field, sampled at `times` (default 24 points geometric on [1e-4, 1e-2],
    at least 5): its check "rate" needs a fitted slope of at least
    beta/alpha - 0.1 (the claimed rate is a one-sided o(t^{beta/alpha})
    bound).  Raises ValueError when fewer than 5 errors lie above the
    roundoff floor, as for a constant field."""
    if times is None:
        times = np.geomspace(1e-4, 1e-2, 24)
    if len(times) < _MIN_RATE_SAMPLES:
        raise ValueError(f"need at least {_MIN_RATE_SAMPLES} times to fit a rate, got {len(times)}")
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
    scale = float(np.max(np.abs(f.coefficients))) or 1.0
    errors = np.array(
        [convergence_error(f, alpha, t, scheme) for t in times]
    )
    predicted = beta / alpha
    # errors within 10x of the roundoff floor are flat bottoms, not a rate
    floor = 10.0 * ROUNDOFF_FLOOR * scale
    fit = fit_decay_exponent(list(zip(times, errors)), floor=floor)
    return RateReport(
        fit=fit,
        errors=errors,
        predicted_rate=predicted,
        checks=[check("rate", fit.slope, ">=", predicted - 0.1)],
    )


def atom_uniformity_experiment(
    grid: LatticeGrid,
    p: float,
    alpha: float,
    beta: float,
    atom_count: int = 50,
    seed: int = 0,
    time_grid: TimeGrid | None = None,
) -> dict:
    """Weak-L^p quasinorm of the maximal oscillating operator over a batch of
    regular atoms with radii geometric over the two octaves below pi/10 (the
    lower end raised to 4 grid cells if needed); reports the max/median ratio
    (uniform boundedness predicts a modest ratio)."""
    if atom_count < 1:
        raise ValueError(f"atom_count must be >= 1, got {atom_count}")
    params = SymbolParams(alpha, beta)
    time_grid = time_grid or TimeGrid(count=48, span_octaves=12.0)
    radius_hi = np.pi / 10.0
    radius_lo = max(radius_hi / 4.0, 4.0 * grid.spacing)
    radii = np.geomspace(radius_lo, radius_hi, atom_count)
    rng = np.random.default_rng(seed)
    specs = [
        AtomSpec(
            p=p,
            center=tuple(rng.uniform(0.0, 2.0 * np.pi, size=grid.dimension)),
            radius=float(r),
            seed=seed + i,
        )
        for i, r in enumerate(radii)
    ]

    def family(t, g):
        return oscillating_op(g, params, DEFAULT_PROFILE, t)

    def block_quasinorms(block):
        """One maximal function for a block of atoms: each time's symbol and
        FFT serve the whole block."""
        samples = np.stack([make_regular_atom(spec, grid).field.samples for spec in block])
        stack = forward_transform(GridField(grid, samples, stacked=True))
        del samples
        maximal = maximal_over_times(stack, family, time_grid.times)
        return [weak_lp_quasinorm(GridField(grid, row), p) for row in maximal.samples]

    per_block = max(1, _ATOM_BLOCK_SAMPLES // math.prod(grid.spatial_shape))
    quasinorms = np.array(
        [
            q
            for start in range(0, atom_count, per_block)
            for q in block_quasinorms(specs[start : start + per_block])
        ]
    )
    # np.median's mean of the middle slice, without its NaN check, which
    # imports numpy.ma in the middle of the run
    ordered = np.sort(quasinorms)
    median = np.mean(ordered[(ordered.size - 1) // 2 : ordered.size // 2 + 1])
    return {
        "radii": radii,
        "quasinorms": quasinorms,
        "max": float(np.max(quasinorms)),
        "median": float(median),
        "ratio": float(np.max(quasinorms) / median),
    }

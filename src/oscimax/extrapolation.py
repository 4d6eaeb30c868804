"""The order-N combination of fractional propagators, its convergence-rate
experiment, and the atom-uniformity experiment.

The combination's coefficients c_k = (-1)^{k-1} C(N, k) solve the Vandermonde
moment system, so it differs from the identity by the one multiplier
E_N(t|xi|^alpha) = -(1 - e^{it|xi|^alpha})^N.  With errors that exact, the
rate check can fail only for an N below floor(beta/alpha) + 1."""

from __future__ import annotations

import math

import numpy as np
import numpy.random

from .hardy import AtomSpec, make_regular_atom, weak_lp_quasinorm
from .operators import TimeGrid, apply_multiplier, maximal_over_times, oscillating_op
from .quadrature import MIN_FIT_SAMPLES, decay_law
from .symbols import DEFAULT_PROFILE, SymbolParams, check_alpha
from .torus import GridField, LatticeGrid, SpectralField, forward_transform, inverse_transform

# Grid samples per block of atoms in `atom_uniformity_experiment`, the size
# of one 512 x 512 field: a block's stacked arrays are no larger than the
# arrays of one field on the largest lattice the experiments run.
_ATOM_BLOCK_SAMPLES = 2**18


def combination_error_symbol(N: int, z):
    """E_N(z) = sum_k c_k e^{ikz} - 1 for the order-N combination, evaluated
    as -(-2i sin(z/2) e^{iz/2})^N: no term cancels, so it is accurate to
    rounding relative to |E_N(z)| = |2 sin(z/2)|^N."""
    if not 1 <= N <= 12:
        raise ValueError(f"N must lie in [1, 12], got {N}")
    half = 0.5 * np.asarray(z, dtype=float)
    return -((-2j * np.sin(half) * np.exp(1j * half)) ** N)


def _error_multiplier(alpha: float, t: float, N: int):
    """lam -> E_N(t lam^alpha), the order-N combination minus the identity
    at time t."""
    check_alpha(alpha)
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return lambda lam: combination_error_symbol(N, t * lam**alpha)


def combination_apply(f: SpectralField, alpha: float, N: int, t: float) -> SpectralField:
    """sum_k c_k * propagate(f, alpha, k*t), as the one multiplier
    1 + E_N(t |xi|^alpha)."""
    error = _error_multiplier(alpha, t, N)
    return apply_multiplier(f, lambda lam: 1.0 + error(lam))


def combination_rate_experiment(
    f: SpectralField,
    alpha: float,
    beta: float,
    p: float,
    times: np.ndarray | None = None,
    N: int | None = None,
) -> dict:
    """Convergence-rate check for the order-N combination (default N =
    floor(beta/alpha) + 1, refused for beta/alpha >= 12, where it would
    pass 12) on a band-limited field at `times` (default 24
    points geometric on [1e-4, 1e-2], at least 5).  The error at t is the
    grid sup of the field under E_N(t|xi|^alpha); only exact zeros are left
    out of the fit, and fewer than 5 nonzero errors, as for a constant
    field, raise ValueError.  The check "rate" needs a slope of at least
    beta/alpha - 0.1 (a one-sided o(t^{beta/alpha}) bound); the slope is N,
    so it can fail only for an N below floor(beta/alpha) + 1.  Returns
    `decay_law`'s dict, whose "samples" are the (t, error) pairs."""
    if times is None:
        times = np.geomspace(1e-4, 1e-2, 24)
    if len(times) < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} times to fit a rate, got {len(times)}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    check_alpha(alpha)
    n = f.grid.dimension
    if beta < n * alpha * (1.0 / p - 0.5) - 1e-12:
        raise ValueError(
            f"beta={beta} below the admissible threshold "
            f"{n * alpha * (1.0 / p - 0.5)} for p={p}"
        )
    if N is None:
        if not beta / alpha < 12.0:  # floor(beta/alpha) + 1 > 12, or beta/alpha = inf
            raise ValueError(f"beta/alpha = {beta / alpha:.6g} is too large for an order in [1, 12]")
        N = math.floor(beta / alpha) + 1
    fields = (apply_multiplier(f, _error_multiplier(alpha, t, N)) for t in times)
    errors = [np.max(np.abs(inverse_transform(g, out=g.coefficients).samples)) for g in fields]
    return decay_law(list(zip(times, errors)), beta / alpha, 0.1, floor=0.0, one_sided=True)


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

    def block_quasinorms(block):
        """One maximal function for a block of atoms: each time's symbol and
        FFT serve the whole block."""
        samples = np.stack([make_regular_atom(spec, grid).field.samples for spec in block])
        stack = forward_transform(GridField(grid, samples, stacked=True))
        del samples
        maximal = maximal_over_times(stack, oscillating_op, time_grid.times, params, DEFAULT_PROFILE)
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

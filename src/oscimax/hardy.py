"""Hardy-space tooling: atoms with certified moment cancellation, the heat
maximal quasinorm and weak-Lebesgue quasinorms.

Regular atoms are built by projecting a seeded random bump onto the
orthogonal complement of the low-degree polynomial span over the discrete
ball, so the cancellation certificate holds to quadrature precision by
construction and is re-verifiable with `moment_integrals`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import numpy.random

from .operators import apply_multiplier, maximal_over_times
from .torus import PERIOD, GridField, LatticeGrid, SpectralField, grid_norm

# Seeds tried before a degenerate projection is reported as non-convergence.
_MAX_RETRIES = 8


@dataclass(frozen=True)
class AtomSpec:
    """Parameters of a regular atom: integrability exponent p in (0, 1),
    ball center (one torus coordinate per axis of the grid, or a scalar in
    dimension 1), radius <= pi/10."""

    p: float
    center: tuple
    radius: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if not 0.0 < self.radius <= np.pi / 10.0:
            raise ValueError(f"radius must lie in (0, pi/10], got {self.radius}")
        c = self.center if isinstance(self.center, tuple) else (self.center,)
        object.__setattr__(self, "center", tuple(float(v) for v in c))

    def cancellation_degree(self, dimension: int) -> int:
        degree = dimension * (1.0 / self.p - 1.0)
        if not math.isfinite(degree):  # 1/p overflows for subnormal p
            raise ResolutionError(f"p = {self.p:.4g} asks to cancel moments of every degree")
        return math.floor(degree)


@dataclass(frozen=True)
class Atom:
    field: GridField
    spec: AtomSpec
    certified_moment_bound: float
    certified_l2: float


class ResolutionError(ValueError):
    """Ball or heat grid not resolvable at the current discretization."""


def _displacements(grid: LatticeGrid, center: tuple):
    """Periodic displacement coordinates x - center wrapped to (-pi, pi]."""
    if len(center) != grid.dimension:
        raise ValueError(f"center {center} needs one coordinate per grid axis ({grid.dimension})")
    coords = grid.coords()
    return [((c - z + np.pi) % PERIOD) - np.pi for c, z in zip(coords, center)]


def _multi_indices(dimension: int, degree: int):
    """All multi-indices of total degree <= degree, graded, descending lexicographic in a degree."""
    return [
        tuple(map(axes.count, range(dimension)))
        for total in range(degree + 1)
        for axes in itertools.combinations_with_replacement(range(dimension), total)
    ]


def _monomials(disp, degree: int):
    """(x - center)^gamma for every |gamma| <= degree, in the order of
    `_multi_indices`, on the points where `disp` holds the periodic
    displacements (one array per axis: the whole grid, or a gathered set)."""
    for gamma in _multi_indices(len(disp), degree):
        mono = np.ones(disp[0].shape)
        for d, g in zip(disp, gamma):
            mono = mono * d**g
        yield mono


def ball_measure(dimension: int, radius: float) -> float:
    """Volume of the n-ball, V_n = 2 pi r^2 / n * V_{n-2}, from V_0 = 1 and V_1 = 2r."""
    volume = (1.0, 2.0 * radius)[dimension % 2]
    for n in range(2 + dimension % 2, dimension + 1, 2):
        volume = 2.0 * np.pi * radius**2 / n * volume
    return volume


def moment_integrals(f: GridField, center, degree: int) -> np.ndarray:
    """Quadrature moments integral f(x) (x - center)^gamma dx, |gamma| <= degree."""
    grid = f.grid
    center = center if isinstance(center, tuple) else (center,)
    disp = _displacements(grid, center)
    return np.array(
        [np.sum(f.samples * mono) * grid.cell_volume for mono in _monomials(disp, degree)]
    )


def make_regular_atom(spec: AtomSpec, grid: LatticeGrid) -> Atom:
    """Seeded random smooth bump in the ball, projected to kill all moments of
    degree <= floor(n(1/p - 1)), scaled so the L2 norm is |B|^{1/2 - 1/p}."""
    if spec.radius < 4.0 * grid.spacing:
        raise ResolutionError(
            f"radius {spec.radius:.4g} spans fewer than 4 grid cells "
            f"(spacing {grid.spacing:.4g})"
        )
    n = grid.dimension
    degree = spec.cancellation_degree(n)
    disp = _displacements(grid, spec.center)
    rho2 = sum(d**2 for d in disp)
    idx = np.flatnonzero(rho2.ravel() < spec.radius**2)
    # no seed helps when the monomials span every function on the ball;
    # counted before any is built, since small p asks for astronomically
    # many (in floats, exact up to 2^53 and inf past the float range)
    count = functools.reduce(lambda c, i: c * (degree + i) / i, range(1, n + 1), 1.0)
    if idx.size <= count:
        raise ResolutionError(
            f"ball of radius {spec.radius:.4g} holds {idx.size} grid points, too few "
            f"to cancel the {count:.4g} monomials of degree <= {degree:.4g}"
        )

    # the envelope, the monomials and the modulation are built on the ball's
    # points only: elementwise, so the same bits as building them on the
    # whole grid and gathering, as `moment_integrals` does for the certificate
    ball = [d.ravel()[idx] for d in disp]
    s = rho2.ravel()[idx] / spec.radius**2
    envelope = np.exp(1.0 - 1.0 / np.maximum(1.0 - s, 1e-300))
    basis = np.stack(list(_monomials(ball, degree)), axis=1)

    for attempt in range(_MAX_RETRIES):
        rng = np.random.default_rng(spec.seed + 7919 * attempt)
        modulation = np.ones(idx.size)
        for d in ball:
            for h in range(1, 4):
                a, b = rng.standard_normal(2)
                modulation = modulation + a * np.cos(
                    h * np.pi * d / spec.radius
                ) + b * np.sin(h * np.pi * d / spec.radius)
        raw = envelope * modulation

        gram = basis.T @ basis
        try:
            coef = np.linalg.solve(gram, basis.T @ raw)
        except np.linalg.LinAlgError:
            continue
        projected = raw - basis @ coef
        norm2 = np.sqrt(np.sum(projected**2) * grid.cell_volume)
        if norm2 > 1e-8 * np.sqrt(np.sum(raw**2) * grid.cell_volume + 1e-300):
            break
    else:
        raise RuntimeError(
            f"atom projection degenerate after {_MAX_RETRIES} retries (seed {spec.seed})"
        )

    target = ball_measure(n, spec.radius) ** (0.5 - 1.0 / spec.p)
    samples = np.zeros(grid.spatial_shape)
    samples.ravel()[idx] = projected * (target / norm2)
    field = GridField(grid, samples)
    moments = moment_integrals(field, spec.center, degree)
    return Atom(
        field=field,
        spec=spec,
        certified_moment_bound=float(np.max(np.abs(moments))),
        certified_l2=grid_norm(field, 2.0),
    )


def heat_semigroup(f: SpectralField, t: float) -> SpectralField:
    """Diagonal heat factor e^{-t |xi|^2}."""
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return apply_multiplier(f, lambda lam: np.exp(-t * lam**2))


def hp_quasinorm_estimate(f: SpectralField, p: float, heat_times=None) -> float:
    """Lower-bound estimate of the heat-maximal H^p quasinorm: the L^p norm of
    the pointwise max of |heat_semigroup(f, t)| over the finite time grid,
    by default 48 times geometric on [1e-6, 10]."""
    if f.stacked:
        raise ValueError("hp_quasinorm_estimate takes a single field, not a stack")
    if p <= 0.0:
        raise ValueError("p must be positive")
    if heat_times is None:
        heat_times = np.geomspace(1e-6, 10.0, 48)
    heat_times = np.asarray(heat_times, dtype=float)
    lam_max = float(np.max(f.grid.eigenvalue_array()[f.coefficients != 0], initial=0.0))
    if np.exp(-heat_times.min() * lam_max**2) < 0.5:
        raise ResolutionError(
            "smallest heat time does not resolve the field's top mode "
            f"(need t_min <= {np.log(2.0) / lam_max**2:.3g})"
        )
    maximal = maximal_over_times(f, heat_semigroup, np.sort(heat_times))
    return grid_norm(maximal, p)


def weak_lp_quasinorm(f: GridField, p: float) -> float:
    """sup over levels of level * measure{|f| > level}^{1/p}, exact for the
    simple function given by the grid samples.

    For a simple function the sup is the limit from the left at a sample
    value v, v * measure{|f| >= v}^{1/p}, which is never below the value at v.
    """
    if f.stacked:
        raise ValueError("weak_lp_quasinorm takes a single field, not a stack")
    if p <= 0.0:
        raise ValueError("p must be positive")
    mags = np.sort(np.abs(f.samples).ravel())
    at_least = mags.size - np.searchsorted(mags, mags, side="left")
    return float(np.max(mags * (at_least * f.grid.cell_volume) ** (1.0 / p)))

"""Discrete spectral model of the flat torus [0, 2pi)^n for n in {1, 2, 3}.

Frequencies live on the integer lattice with each coordinate in
[-M/2, M/2 - 1]; the spatial grid is uniform with M points per axis.
Normalization: c(xi) = (2pi)^{-n} * integral of f(x) exp(-i<xi, x>) dx,
so a pure mode exp(i<xi, x>) has coefficient 1 at xi and Parseval reads
integral |f|^2 = (2pi)^n * sum |c(xi)|^2.

A field may also hold a stack of fields on one grid (`stacked=True`): one
leading axis indexes the members, the transforms act on the trailing
`dimension` axes, and diagonal operators broadcast one multiplier over the
whole stack.  Norms are per field, so they reject stacks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import numpy.fft

PERIOD = 2.0 * np.pi

# Lattice points at most: 2^24, 256 MB per complex array.
_MAX_POINTS = 2**24


@dataclass(frozen=True)
class LatticeGrid:
    """Truncated frequency lattice plus matching uniform spatial grid.

    dimension: n in {1, 2, 3}.
    modes_per_axis: even M >= 8; frequencies per axis in [-M/2, M/2 - 1],
        and at most 2^24 lattice points M^n.
    spatial_points_per_axis: always M, so frequency index and FFT index
        coincide and the transforms are exact roundtrips.
    """

    dimension: int
    modes_per_axis: int
    spatial_points_per_axis: int = field(init=False)

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if self.modes_per_axis < 8 or self.modes_per_axis % 2 != 0:
            raise ValueError(
                f"modes_per_axis must be an even integer >= 8, got {self.modes_per_axis}"
            )
        # refused before any lattice-sized array is allocated
        if self.modes_per_axis**self.dimension > _MAX_POINTS:
            raise ValueError(
                f"{self.modes_per_axis}^{self.dimension} lattice points exceed {_MAX_POINTS}"
            )
        object.__setattr__(self, "spatial_points_per_axis", self.modes_per_axis)

    @property
    def freqs_1d(self) -> np.ndarray:
        """Per-axis frequencies in FFT order: 0..M/2-1, -M/2..-1."""
        m = self.modes_per_axis
        return np.fft.fftfreq(m, d=1.0 / m).astype(np.int64)

    @property
    def spectral_shape(self) -> tuple:
        return (self.modes_per_axis,) * self.dimension

    @property
    def spatial_shape(self) -> tuple:
        return (self.spatial_points_per_axis,) * self.dimension

    @property
    def spacing(self) -> float:
        return PERIOD / self.spatial_points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    @property
    def coords_1d(self) -> np.ndarray:
        return np.arange(self.spatial_points_per_axis) * self.spacing

    def coords(self) -> tuple:
        """Meshgrid of spatial coordinates (ij indexing), one array per axis."""
        axes = (self.coords_1d,) * self.dimension
        return np.meshgrid(*axes, indexing="ij")

    def eigenvalue_array(self) -> np.ndarray:
        """|xi| for every lattice point, shaped like the coefficient array.

        Built once per grid and shared by every call, so it is read-only.
        """
        return self._eigenvalues

    @functools.cached_property
    def _eigenvalues(self) -> np.ndarray:
        k = self.freqs_1d.astype(float)
        lam = np.abs(functools.reduce(np.hypot, np.ix_(*[k] * self.dimension)))
        lam.flags.writeable = False
        return lam


def eigenvalue(grid: LatticeGrid, xi) -> float:
    """Euclidean norm |xi| of a lattice point (sqrt of the Laplacian eigenvalue).

    xi holds one integer per axis; in dimension 1 it may be a bare integer.
    """
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=np.int64))
    if xi_arr.shape != (grid.dimension,):
        raise ValueError(
            f"expected {grid.dimension} frequency coordinates, got {xi_arr.shape}"
        )
    half = grid.modes_per_axis // 2
    if np.any(xi_arr < -half) or np.any(xi_arr > half - 1):
        raise ValueError(f"frequency {xi} outside lattice range [-{half}, {half - 1}]")
    return float(np.sqrt(np.sum(xi_arr.astype(float) ** 2)))


def _check_shape(what: str, shape: tuple, grid_shape: tuple, stacked: bool) -> None:
    """Exactly the grid's shape, or one leading stack axis before it."""
    if shape[stacked:] != grid_shape:
        stack = "a stack of " if stacked else ""
        raise ValueError(f"{what} shape {shape} does not match {stack}grid shape {grid_shape}")


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients, one per lattice point, in FFT order;
    with `stacked`, one leading axis of such arrays."""

    grid: LatticeGrid
    coefficients: np.ndarray = field(repr=False)
    stacked: bool = False

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        _check_shape("coefficient", c.shape, self.grid.spectral_shape, self.stacked)
        object.__setattr__(self, "coefficients", c)

    def l2_norm(self) -> float:
        """Spectral L2 norm: ((2pi)^n * sum |c|^2)^{1/2} (Parseval)."""
        if self.stacked:  # a norm of one field, never summed across a stack
            raise ValueError("l2_norm takes a single field, not a stack")
        n = self.grid.dimension
        return float(np.sqrt(PERIOD**n * np.sum(np.abs(self.coefficients) ** 2)))


@dataclass(frozen=True)
class GridField:
    """Real or complex samples on the uniform spatial grid; integer samples
    are promoted to float.  With `stacked`, one leading axis of such arrays."""

    grid: LatticeGrid
    samples: np.ndarray = field(repr=False)
    stacked: bool = False

    def __post_init__(self):
        s = np.asarray(self.samples)
        if not np.issubdtype(s.dtype, np.inexact):
            s = s.astype(float)
        _check_shape("sample", s.shape, self.grid.spatial_shape, self.stacked)
        object.__setattr__(self, "samples", s)


def _grid_axes(grid: LatticeGrid) -> tuple:
    return tuple(range(-grid.dimension, 0))


def forward_transform(f: GridField) -> SpectralField:
    """Grid samples -> lattice coefficients (FFT; FFT order is lattice order),
    per member of a stack."""
    grid = f.grid
    out = np.empty(f.samples.shape, dtype=complex)
    np.fft.fftn(f.samples, axes=_grid_axes(grid), out=out)
    out /= grid.modes_per_axis**grid.dimension
    return SpectralField(grid, out, f.stacked)


def inverse_transform(F: SpectralField, out: np.ndarray | None = None) -> GridField:
    """Lattice coefficients -> grid samples (inverse FFT), per member of a
    stack.

    The per-axis passes are numpy's `ifftn`, last axis first, but the first
    pass runs only on the rows (lines along the last axis, stack members
    included) that hold a nonzero coefficient; the other rows get +0, the
    FFT of a zero row up to the signs of its zeros.  So the samples equal
    `ifftn`'s bit for bit, save that an exactly zero sample may be +0 where
    `ifftn` gives -0.  A field without a nonzero coefficient is not
    transformed at all.  The row test, `rows.view(float).any(axis=1)`
    (a NaN counts as nonzero), adds one flag per row and numpy's cast
    buffer, about 10 KB, and no lattice-sized temporary.

    The samples are written into `out` when it is given: a writable,
    C-contiguous complex array of the coefficients' shape, either
    `F.coefficients` itself, which transforms the field in place and
    overwrites it, or an array that shares no memory with it.  Either way
    the samples are the same bits as without `out`.
    """
    grid = F.grid
    m = grid.modes_per_axis
    c = F.coefficients
    if out is None:
        out = np.empty(c.shape, dtype=complex)
    elif out.shape != c.shape or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be a C-contiguous complex array of shape {c.shape}, "
            f"got {out.dtype} {out.shape}"
        )
    elif out is not c and np.may_share_memory(out, c):
        raise ValueError("out must be the coefficients themselves or share no memory with them")
    rows = np.ascontiguousarray(c).reshape(-1, m)  # a copy only if strided
    out_rows = out.reshape(-1, m)
    live = rows.view(float).any(axis=1).tolist()
    lo = 0
    for alive, run in itertools.groupby(live):
        hi = lo + sum(1 for _ in run)
        if alive:
            np.fft.ifft(rows[lo:hi], axis=-1, out=out_rows[lo:hi])
        else:
            out_rows[lo:hi] = 0
        lo = hi
    if any(live):
        for axis in range(-2, -grid.dimension - 1, -1):
            np.fft.ifft(out, axis=axis, out=out)
        out *= m**grid.dimension
    return GridField(grid, out, F.stacked)


def grid_norm(f: GridField, p: float) -> float:
    """L^p (quasi)norm by Riemann sum: (sum |f|^p * cell)^(1/p)."""
    if f.stacked:
        raise ValueError("grid_norm takes a single field, not a stack")
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return float(
        (np.sum(np.abs(f.samples) ** p) * f.grid.cell_volume) ** (1.0 / p)
    )


def random_spectral_field(
    grid: LatticeGrid, rng: np.random.Generator, band_limit: float | None = None
) -> SpectralField:
    """Gaussian random coefficients, optionally restricted to |xi| <= band_limit.

    The real parts are drawn first, then the imaginary parts, through one
    real buffer into one complex array, which is then zeroed outside the
    band in place.
    """
    if band_limit is not None and not band_limit >= 0:
        raise ValueError(f"band_limit must be nonnegative, got {band_limit}")
    shape = grid.spectral_shape
    c = np.empty(shape, dtype=complex)
    draw = rng.standard_normal(shape)
    c.real = draw
    c.imag = rng.standard_normal(out=draw)
    if band_limit is not None:
        c[grid.eigenvalue_array() > band_limit] = 0.0
    return SpectralField(grid, c)


def pure_mode(grid: LatticeGrid, xi) -> SpectralField:
    """Field exp(i<xi, x>): coefficient 1 at xi, 0 elsewhere."""
    eigenvalue(grid, xi)  # range check
    c = np.zeros(grid.spectral_shape, dtype=complex)
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=np.int64))
    m = grid.modes_per_axis
    c[tuple(int(v) % m for v in xi_arr)] = 1.0
    return SpectralField(grid, c)

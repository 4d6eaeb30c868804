"""Diagonal spectral operators on the torus, maximal functions over time
grids, kernel evaluation by lattice sums, and the kernel and Riesz-symbol
decay checks."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .quadrature import decay_law
from .symbols import (
    CutoffProfile,
    SymbolParams,
    check_alpha,
    mu_symbol,
    riesz_mean_symbol,
)
from .torus import GridField, SpectralField, inverse_transform


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time samples in (0, sigma], used to discretize
    suprema over the time parameter.

    The samples are geometric over the `span_octaves` octaves below sigma,
    mirroring the vanishing-t endpoint of the continuous supremum.
    """

    sigma: float = 0.5
    count: int = 64
    span_octaves: float = 20.0

    def __post_init__(self):
        if not 0.0 < self.sigma <= 0.5:
            raise ValueError(f"sigma must lie in (0, 0.5], got {self.sigma}")
        if self.count < 2:
            raise ValueError("count must be >= 2")
        # at 0 the geometric times coincide; below 0 they pass sigma
        if not self.span_octaves > 0.0:
            raise ValueError(f"span_octaves must be positive, got {self.span_octaves}")
        if not self.sigma * 2.0**-self.span_octaves > 0.0:
            raise ValueError(
                f"span_octaves = {self.span_octaves} puts the first time, "
                "sigma * 2^-span_octaves, below the smallest positive float"
            )

    @property
    def times(self) -> np.ndarray:
        return np.geomspace(self.sigma * 2.0**-self.span_octaves, self.sigma, self.count)

    def refined(self) -> "TimeGrid":
        """Grid with twice the intervals, whose times contain the current
        ones (log-uniform nodes nest when the interval count is doubled), so
        discrete maxima over the refined grid dominate pointwise."""
        return TimeGrid(self.sigma, 2 * self.count - 1, self.span_octaves)


# Lattice points per symbol evaluation, for the kernel weights and the
# diagonal multipliers alike: the temporaries of one evaluation are O(chunk)
# and the same size for every lattice, so a build or a product peaks at its
# result plus one chunk.
_SYMBOL_CHUNK = 2**14


def apply_multiplier(f: SpectralField, m) -> SpectralField:
    """Multiply the coefficient at each lattice point by m(|xi|), into a
    fresh array.

    m must be elementwise in lam.  The flattened |xi| array is cut into
    chunks of _SYMBOL_CHUNK points, and in each chunk m is called once, on
    the span from the first to the last coefficient that is nonzero in any
    member of a stack (a NaN counts as nonzero, +-0 does not), and not at
    all on a chunk with none; so the temporaries of one call do not grow
    with the lattice.  Outside the spans the result holds +0, where c * m
    could be -0 (or NaN, where m is not finite), as the pruned transform's
    zero rows do.  Inside them each member's product is one 1-D
    np.multiply of coefficient by multiplier, in that order (numpy rounds a
    (1, 1) complex product by another path), so the result equals the
    whole-lattice product bit for bit save for those signs, while m and
    the product give an element the same bits at any offset and span
    length, which the tests check.
    """
    lam = f.grid.eigenvalue_array().ravel()
    c = f.coefficients.reshape(-1, lam.size)  # a single field is a stack of one
    out = np.empty(c.shape, dtype=complex)
    for lo in range(0, lam.size, _SYMBOL_CHUNK):
        hi = min(lo + _SYMBOL_CHUNK, lam.size)
        first, stop = _live_span(c, lo, hi)
        out[:, lo:first] = 0
        out[:, stop:hi] = 0
        if first < stop:
            mult = m(lam[first:stop])
            for row, product in zip(c, out):  # each member as a field of its own
                np.multiply(row[first:stop], mult, out=product[first:stop])
            del mult  # no chunk's multiplier outlives its step into the next one
    return SpectralField(f.grid, out.reshape(f.coefficients.shape), f.stacked)


def _live_span(c, lo: int, hi: int) -> tuple:
    """(first, stop): the columns of the 2-D c in [lo, hi) from the first to
    the last that holds a nonzero entry in some row, a NaN included and +-0
    not; (lo, lo) if none does."""
    if c[:, lo].any() and c[:, hi - 1].any():  # a dense chunk, without a scan
        return lo, hi
    live = (c[:, lo:hi] != 0).any(axis=0)
    first = int(np.argmax(live))
    if not live[first]:
        return lo, lo
    return lo + first, hi - int(np.argmax(live[::-1]))


def oscillating_op(
    f: SpectralField, params: SymbolParams, profile: CutoffProfile, t: float
) -> SpectralField:
    """Diagonal operator with the oscillating symbol at time scale t."""
    return apply_multiplier(f, lambda lam: mu_symbol(params, profile, t, lam))


def riesz_mean_op(f: SpectralField, k: float, alpha: float, t: float) -> SpectralField:
    """Riesz mean of order k of the fractional propagator at time t.

    Per-frequency factor: the Beta-weighted average of e^{i t r |xi|^alpha}
    over r in [0, 1]; the zero mode passes through unchanged.
    """
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    check_alpha(alpha)
    return apply_multiplier(f, lambda lam: riesz_mean_symbol(k, t * lam**alpha))


# A sweep of a field of at least this many coefficients (stack included)
# splits its times between threads; below it, threads cost more than the
# second core gives back.
_SPLIT_POINTS = 2**16
# Threads per sweep at most, each holding one product.
_SWEEP_WORKERS = 2
# Samples per step of the fold into the running maximum: each worker's
# magnitudes of one step are a temporary of at most this many.
_FOLD_BLOCK = 2**13


def maximal_over_times(f: SpectralField, op, times, *args) -> GridField:
    """Pointwise max over `times` of |inverse_transform(op(f, *args, t))|,
    as real samples; for a stack, one maximum per member.

    `op` takes its time last, as `oscillating_op` and `heat_semigroup` do,
    and returns a fresh field: a C-contiguous array sharing no memory with
    f's (an op that returns f itself raises ValueError), since the sweep
    transforms each slice in place and so overwrites it.  `times` holds at
    least one time.

    A field of at least _SPLIT_POINTS (2^16) coefficients, stack included,
    splits its times between two threads when the process may run on two
    CPUs: worker w takes times[w::2], so `op` must be safe to call from two
    threads at once, as every operator of this library is.  Each worker
    holds one product, transforms it in place and folds its magnitudes into
    the shared maximum in blocks of _FOLD_BLOCK (2^13) samples, under a
    lock; so a sweep holds one real lattice plus, per worker, one complex
    lattice, one product's temporaries and one block's magnitudes, 64 KiB.
    A pointwise maximum is exact and does not depend on order, so the
    maxima have the same bits for any split.  The first error in any worker
    stops every worker before its next time, and is raised here once they
    have all stopped.
    """
    times = list(times)
    if not times:
        raise ValueError("times must hold at least one time")
    best = np.zeros(f.coefficients.shape)
    flat = best.reshape(-1)
    workers = 1
    if best.size >= _SPLIT_POINTS:
        # macOS and Windows have no sched_getaffinity
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(_SWEEP_WORKERS, cpus, len(times))
    lock = threading.Lock()
    failures = []

    def sweep(share):
        try:
            for t in share:
                if failures:
                    return
                g = op(f, *args, t)
                if np.may_share_memory(g.coefficients, f.coefficients):
                    raise ValueError("op must return a fresh field, not memory shared with f")
                samples = inverse_transform(g, out=g.coefficients).samples.reshape(-1)
                del g
                for lo in range(0, flat.size, _FOLD_BLOCK):
                    part = np.abs(samples[lo : lo + _FOLD_BLOCK])
                    with lock:
                        np.maximum(flat[lo : lo + _FOLD_BLOCK], part, out=flat[lo : lo + _FOLD_BLOCK])
                del samples  # no slice outlives its step into the next product
        except BaseException as error:  # raised in the caller, after the join
            failures.append(error)

    threads = [threading.Thread(target=sweep, args=(times[w::workers],)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    sweep(times[::workers])
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return GridField(f.grid, best, f.stacked)


def kernel_lattice_sum(
    params: SymbolParams,
    profile: CutoffProfile,
    t: float,
    x: float,
    eps: float = 0.0,
    M_cap: int = 100_000,
) -> complex:
    """1-D kernel at separation x by direct lattice summation:

        sum_{m in Z} mu(t|m|) e^{imx} e^{-eps m^2}
        = 2 * sum_{m=1}^{M_cap} w_m cos(m x),  w_m = mu(t m) e^{-eps m^2},

    Gaussian (Abel-Gauss) regularization for conditionally convergent sums.

    The sum is evaluated in two levels.  With B = ceil(sqrt(M_cap)) write
    m = 1 + aB + b, 0 <= b < B, so that cos(m x) = cos(theta_a) cos(b x)
    - sin(theta_a) sin(b x) with theta_a = (1 + aB) x: one product of the
    weights, blocked by a, with the B pairs (cos bx, sin bx) leaves A =
    ceil(M_cap/B) pairs to rotate by theta_a.  That is about 4 sqrt(M_cap)
    cosines and sines per x in place of M_cap cosines; the rounding of
    theta_a is that of m x, about 1e-16 m |x|.  The weights depend only on
    (params, profile, t, eps, M_cap) and are kept for the last arguments
    seen, so a sweep over x at a fixed lattice builds them once.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0 and params.beta <= 1.0:
        raise ValueError(
            "unregularized lattice sum requires beta > 1 for absolute convergence"
        )
    if not 1 <= M_cap <= _MAX_LATTICE_TERMS:
        raise ValueError(f"M_cap must lie in [1, {_MAX_LATTICE_TERMS}], got {M_cap}")
    weights = _lattice_weights(params, profile, t, eps, M_cap)
    blocks, B = weights.shape[0] // 2, weights.shape[1]
    phi = np.arange(B) * x
    theta = (1.0 + B * np.arange(blocks, dtype=float)) * x
    # row a of the product: sum_b w (cos bx, sin bx) over block a, for Re w
    # and then for Im w
    inner = weights @ np.stack((np.cos(phi), np.sin(phi)), axis=1)
    rotation = np.stack((np.cos(theta), -np.sin(theta)), axis=1).ravel()
    re, im = inner.reshape(2, 2 * blocks) @ rotation
    return 2.0 * complex(re, im)


# The weights of the last lattice sum, keyed by its arguments.
_lattice_slot: dict = {}
# Terms per lattice sum: the weights hold 16 bytes per term, 256 MB at this
# cap, and `kernel-decay` sums at twice its m_cap.  Larger caps are rejected
# before anything is allocated.
_MAX_LATTICE_TERMS = 2**24


def _lattice_weights(params, profile, t, eps, M_cap):
    """Read-only (2A x B) matrix of the weights w_m = mu(t m) e^{-eps m^2},
    m = 1 + aB + b: Re w in rows a, Im w in rows A + a, zero past M_cap.

    Keeps one entry, the last key: the old entry is dropped before a new one
    is built, so two lattices' weights are never held at once.
    """
    key = (params, profile, t, eps, M_cap)
    weights = _lattice_slot.get(key)
    if weights is None:
        _lattice_slot.clear()
        B = math.isqrt(M_cap - 1) + 1
        blocks = -(-M_cap // B)
        weights = np.zeros((2, blocks * B))
        for lo in range(0, M_cap, _SYMBOL_CHUNK):
            m = np.arange(lo + 1, min(lo + _SYMBOL_CHUNK, M_cap) + 1, dtype=float)
            w = mu_symbol(params, profile, t, m)
            if eps > 0.0:  # the damping, built in m's buffer
                np.square(m, out=m)
                m *= -eps
                w *= np.exp(m, out=m)
            weights[0, lo : lo + w.size] = w.real
            weights[1, lo : lo + w.size] = w.imag
        weights = weights.reshape(2 * blocks, B)
        weights.flags.writeable = False
        _lattice_slot[key] = weights
    return weights


def verify_kernel_decay(
    params: SymbolParams,
    profile: CutoffProfile,
    t: float,
    radii,
    eps: float = 1e-7,
    M_cap: int = 200_000,
) -> dict:
    """Fit |kernel(x, t)| against x/t on a log-log scale for x/t <= 1.

    For beta = n*alpha/2 + excess (n = 1 here) the local singularity predicts
    slope -1 + excess/(1 - alpha), and the check "slope" requires the fitted
    slope within 0.3 of it; when the prediction is >= 0 the kernel is
    predicted bounded on the window and the check "bounded" (sup/inf <= 10)
    replaces it.  Returns `decay_law`'s dict, whose "samples" are the
    (x/t, |kernel|) pairs.

    The predicted slope is the x/t -> 0 law: it comes from the stationary
    point lam* = (alpha * t/x)^{1/(1-alpha)} of the phase, at lattice
    frequency m* = lam*/t.  A window shows it only when
      - lam* >= 100 across the window, so the stationary point lies far
        above the cutoff band (for alpha = 1/2 that is x/t <= 0.05);
      - e^{-eps m*^2} >= 0.95 at the smallest x/t, so the Gaussian
        regularization does not damp the stationary frequencies;
      - M_cap >= 4/sqrt(eps), so truncation cuts only where e^{-eps m^2}
        is below e^{-16}.
    At alpha = 1/2 and t = 1/2 the window x/t in [0.005, 0.05] with
    eps = 1e-10 and M_cap = 400_000 meets all three (lam* >= 100,
    e^{-eps m*^2} >= 0.96, M_cap = 4/sqrt(eps)); at the default eps = 1e-7
    the same window is over-damped (e^{-eps m*^2} = e^{-40}).  On x/t in
    [0.05, 1] lam* runs from 100 down to 1/4, so the stationary point sits
    inside or below the cutoff band for most of it and the fitted slope is
    near -1 (pre-asymptotic), not the predicted law.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    radii = np.asarray(radii, dtype=float)
    if np.any(radii / t > 1.0 + 1e-12):
        raise ValueError("all radii must satisfy x/t <= 1")
    excess = params.beta - params.alpha / 2.0
    if excess <= 0.0:
        raise ValueError("requires beta > alpha/2")
    predicted = -1.0 + excess / (1.0 - params.alpha)
    mods = np.array(
        [
            abs(kernel_lattice_sum(params, profile, t, x, eps=eps, M_cap=M_cap))
            for x in radii
        ]
    )
    spread = np.max(mods) / np.min(mods)
    return decay_law(list(zip(radii / t, mods)), predicted, 0.3, spread=spread)


def riesz_symbol_decay_check(
    k: float,
    alpha: float,
    z_lo: float,
    z_hi: float,
    n_windows: int = 40,
    samples_per_window: int = 48,
) -> dict:
    """Fit the upper envelope of |riesz_mean_symbol| against z, which does
    not depend on alpha: alpha enters only through z = t |xi|^alpha.

    The envelope is taken as the maximum over local windows each covering at
    least one full 2pi oscillation.  The symbol is 1F1(1; k+1; iz), whose
    large-z expansion (DLMF 13.7) is

        k/(-iz) (1 + O(1/z)) + Gamma(k+1) e^{iz} (iz)^{-k} (1 + O(1/z)),

    so the envelope decays like z^{-min(k, 1)}: the oscillating term leads
    for k < 1, the non-oscillating k/(-iz) term for k > 1, and both are of
    order 1/z at k = 1.  The predicted slope is -min(k, 1); the check
    "slope" requires the fitted one within 0.15 of it.
    """
    if not (z_lo >= 10.0 and z_hi >= 10.0 * z_lo):
        raise ValueError("need z_hi >= 10*z_lo >= 100 for the asymptotic regime")
    edges = np.geomspace(z_lo, z_hi, n_windows + 1)
    lo = edges[:-1]
    hi = np.maximum(edges[1:], lo + 2.5 * np.pi)
    zs = np.linspace(lo, hi, samples_per_window, axis=1)  # one window per row
    peaks = np.max(np.abs(riesz_mean_symbol(k, zs)), axis=1)
    return decay_law(list(zip(np.sqrt(lo * hi), peaks)), -min(k, 1.0), 0.15)

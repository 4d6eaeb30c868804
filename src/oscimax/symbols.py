"""Scalar symbol functions: cutoffs, dyadic bumps, the oscillating symbol
e^{i z^a} z^{-b} and the Riesz-mean symbol.

All cutoffs are built from one even "band" cutoff that vanishes for |u| <= 1
and equals 1 for |u| >= 2, with a configurable transition profile.  The
low-frequency bump and the dyadic bump are derived from it so that the
partition of unity

    sum_{k>=0} bump(|u| / 2^k) + low_bump(|u|) == 1

holds by exact telescoping.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


def check_alpha(alpha: float) -> None:
    """Refuse an oscillation exponent outside (0, 1), where every alpha of
    the library lies."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


@dataclass(frozen=True)
class SymbolParams:
    """Oscillation exponent alpha in (0,1) and decay exponent beta > 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")


CUTOFF_KINDS = ("smoothstep_poly", "smooth_exp")


@dataclass(frozen=True)
class CutoffProfile:
    """Shape of the transition ramp on the cutoff band.

    kind 'smoothstep_poly': polynomial ramp with `order` matched derivatives
    at both band edges, the regularized incomplete beta function
    I_s(n+1, n+1) with n = `order`, in the closed form

        I_s(n+1, n+1) = s^{n+1} sum_{k=0}^{n} C(n+k, k) (1-s)^k

    for integer parameters (DLMF 8.17(i)).  kind 'smooth_exp': the classic
    exp(-1/x) C-infinity ramp; `order` is ignored.
    """

    kind: str = "smoothstep_poly"
    order: int = 7

    def __post_init__(self):
        if self.kind not in CUTOFF_KINDS:
            raise ValueError(f"unknown cutoff kind {self.kind!r}")
        if self.kind == "smoothstep_poly":
            n = self.order
            if n < 3:
                raise ValueError(f"order must be >= 3, got {n}")
            # the ramp's largest coefficient C(2n, n) must fit a float, which
            # fails from n = 515; C(2n, n) >= 4^n / (2n + 1) refuses a huge n
            # without forming its coefficient
            top = math.log(sys.float_info.max)
            if n > (top + math.log(2 * n + 1)) / math.log(4.0) or math.comb(2 * n, n) > sys.float_info.max:
                raise ValueError(f"order {n} makes the ramp's coefficient C(2n, n) overflow a float")

    def ramp(self, s):
        """Monotone 0 -> 1 transition on [0, 1], evaluated elementwise.

        Exactly 0 for s <= 0 and exactly 1 for s >= 1; the profile is
        evaluated only on the open band in between (NaN stays NaN).
        """
        s = np.asarray(s, dtype=float)
        out = np.where(s >= 1.0, 1.0, 0.0)
        band = ~((s <= 0.0) | (s >= 1.0))
        sb = s[band]
        if self.kind == "smoothstep_poly":
            # every term of the closed form is positive: Horner's rule in 1-s
            # loses no digits to cancellation (float coefficients: numpy's
            # Python-int scalar path costs more per call on small arrays)
            n = self.order
            u = 1.0 - sb
            acc = np.full_like(sb, math.comb(2 * n, n))
            for k in range(n - 1, -1, -1):
                acc *= u
                acc += float(math.comb(n + k, k))
            acc *= np.power(sb, n + 1, out=sb)
            out[band] = acc
        else:
            with np.errstate(divide="ignore", over="ignore"):
                h0 = np.exp(-1.0 / sb)
                h1 = np.exp(-1.0 / (1.0 - sb))
            out[band] = h0 / (h0 + h1)
        return out[()]


DEFAULT_PROFILE = CutoffProfile()


def phi_cutoff(profile: CutoffProfile, lam):
    """Even band cutoff: 0 for |lam| <= 1, 1 for |lam| >= 2, monotone between."""
    return profile.ramp(np.abs(lam) - 1.0)


def dyadic_bump(profile: CutoffProfile, lam):
    """Even bump supported in 1/2 <= |lam| <= 2, equal to 1 at |lam| = 1.

    Defined as phi_cutoff(2 lam) - phi_cutoff(lam) so that dilates by powers
    of 2 telescope against the low bump 1 - phi_cutoff(2 lam) into an exact
    partition of unity.
    """
    lam = np.asarray(lam, dtype=float)
    return phi_cutoff(profile, 2.0 * lam) - phi_cutoff(profile, lam)


def mu_symbol(params: SymbolParams, profile: CutoffProfile, t: float, lam):
    """Oscillating symbol e^{i(t lam)^a} (t lam)^{-b} cutoff(t lam).

    Vanishes wherever t*lam <= 1 (in particular at lam = 0, where the cutoff
    resolves the 0/0).  Only the entries with t*lam > 1 are evaluated, the
    cutoff only on those below 2, where it differs from 1.
    """
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    z = np.asarray(t * np.abs(np.asarray(lam, dtype=float)))
    above = z > 1.0  # NaN counts as below
    whole = above.all()  # then no gather and no scatter
    za = z.reshape(-1) if whole else z[above]
    del z
    vals = 1j * za**params.alpha
    np.exp(vals, out=vals)
    vals *= za ** (-params.beta)
    band = za < 2.0
    vals[band] *= phi_cutoff(profile, za[band])
    del za, band  # release the temporaries before the full-size output
    if whole:
        out = vals.reshape(above.shape)
    else:
        out = np.zeros(above.shape, dtype=complex)
        out[above] = vals
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# Riesz-mean symbol, equal to 1F1(1; k+1; iz) (DLMF 13.4).  At |z| <= 8 the
# largest series term is below 8^8/8! ~ 416, so cancellation costs < 1e-13,
# and 64 terms leave a tail below 8^64/64! ~ 5e-32; above 8 the contour
# integrand's branch point y = -i|z| is far enough from [0, inf) for a fixed
# 48-node Gauss-Laguerre rule.  The series stops at the first term below
# 2^-70 at the largest |z| it sums, 17 binary orders under the last bit of
# the leading 1; the sum then equals the 64-term sum bit for bit (checked for
# k from 0.1 to 6 and |z| from 1e-3 to 8).

_RIESZ_SERIES_MAX_Z = 8.0
_RIESZ_SERIES_TERMS = 64
_RIESZ_SERIES_TAIL = 2.0**-70
_GLAG48 = np.polynomial.laguerre.laggauss(48)


def riesz_mean_symbol(k: float, z):
    """Per-frequency Riesz-mean factor k * integral_0^1 (1-r)^{k-1} e^{izr} dr
    at z = t * lam^alpha.  Elementwise in z: a complex for scalar z, else a
    complex array of z's shape.

    For |z| <= 8 the series sum_n (i|z|)^n Gamma(k+1)/Gamma(n+k+1) is summed
    by Horner's rule, from the first n whose term is below 2^-70 at the
    largest such |z| (at most 64 terms).  For |z| > 8 the segment [0, 1] is
    deformed onto the rays r = iy/|z| and r = 1 + iy/|z|, y >= 0, which gives

        Gamma(k+1) (-i)^k |z|^{-k} e^{i|z|}
            + (ik/|z|) integral_0^inf (1 - iy/|z|)^{k-1} e^{-y} dy,

    the integral by a 48-node Gauss-Laguerre rule.  Negative z give the
    complex conjugate.
    """
    if k <= 0.0:
        raise ValueError(f"order k must be positive, got {k}")
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    out = np.empty(z.shape, dtype=complex)
    small = a <= _RIESZ_SERIES_MAX_Z
    series = a[small]
    z_max = float(series.max(initial=0.0))
    last, term = 0, 1.0  # term = z_max^n Gamma(k+1) / Gamma(n+k+1) at n = last
    while term >= _RIESZ_SERIES_TAIL and last < _RIESZ_SERIES_TERMS - 1:
        last += 1
        term *= z_max / (last + k)
    w = 1j * series
    acc = np.ones_like(w)
    for n in range(last, 0, -1):  # acc = 1 + w * acc / (n + k), in place
        np.multiply(w, acc, out=acc)
        acc /= n + k
        acc += 1.0
    out[small] = acc
    big = a[~small]
    del a, series, w, acc
    if big.size:  # the contour pass costs the same for one value as for many
        # in place, through one node buffer, with the operations and operand
        # order of  integral += weight * (1 - 1j*y/big) ** (k-1)
        integral = np.zeros_like(big, dtype=complex)
        node = np.empty_like(integral)
        for y, weight in zip(*_GLAG48):
            np.divide(1j * y, big, out=node)
            np.subtract(1.0, node, out=node)
            node **= k - 1.0
            node *= weight
            integral += node
        # then gamma(k+1) (-i)^k big^-k e^{i big} + (ik/big) integral with
        # the same operations, its second term first, so that integral and
        # big are gone before the first term's product exists.  No product of
        # two complex arrays writes over one of them: on a length-1 array
        # numpy rounds that one differently.
        second = np.multiply(np.divide(1j * k, big, out=node), integral)
        del integral
        first = np.multiply(math.gamma(k + 1.0) * (-1j) ** k, big**-k, out=node)
        phase = np.multiply(1j, big)
        del big
        out[~small] = np.add(first * np.exp(phase, out=phase), second, out=second)
    np.conjugate(out, out=out, where=z < 0.0)
    return out if out.ndim else complex(out)

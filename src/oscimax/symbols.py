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
# The 48-node Gauss-Laguerre rule on [0, inf) with weight e^{-y}: nodes and
# weights as numpy.polynomial.laguerre.laggauss(48) gives them (numpy 2.4),
# which agree with the exact rule to 5e-15 (nodes) and 5e-13 (weights)
# relative.  Stored, so that no import solves its eigenproblem.
_GLAG48 = (
    np.array([
        0.0298112358299601,
        0.15710799061787553,
        0.3862650375764564,
        0.717574694116971,
        1.1513938340264342,
        1.6881858234190479,
        2.3285270066532293,
        3.0731108616526384,
        3.9227524130464797,
        4.878393355921347,
        5.941108054624559,
        7.112110535890742,
        8.392762599091224,
        9.784583184687325,
        11.28925916800953,
        12.90865777828553,
        14.644840883209707,
        16.500081428964588,
        18.476882386874113,
        20.577998634022208,
        22.80646229052137,
        25.165612156439106,
        27.65912804448053,
        30.291071001008568,
        33.065930662498744,
        35.988681327478936,
        39.06484876419777,
        42.300590362903094,
        45.70279203851147,
        49.27918638283679,
        53.03849808781666,
        56.99062481480448,
        61.14686478614023,
        65.52020692901861,
        70.12570623611319,
        74.98097751891132,
        80.10685735032439,
        85.52831111603417,
        91.27570799366809,
        97.38666771358153,
        103.90883335717625,
        110.90422088497627,
        118.45642504628363,
        126.68342576888584,
        135.7625895778643,
        145.98643270946346,
        157.915612022978,
        172.99632814856326,
    ]),
    np.array([
        0.0742620058279921,
        0.1522719498092847,
        0.19040908826394004,
        0.1866330594848336,
        0.1534242001575949,
        0.10877969280750405,
        0.06746073860922809,
        0.03688119411582487,
        0.01785684426915876,
        0.007677616514498415,
        0.0029357859037397885,
        0.0009990655378159738,
        0.00030259801699229093,
        8.153871180356245e-05,
        1.953158715728288e-05,
        4.154182945052572e-06,
        7.833700380278475e-07,
        1.3073947749207537e-07,
        1.9270714080172194e-08,
        2.5026389371265687e-09,
        2.8557855087719047e-10,
        2.8546224120594612e-11,
        2.4910106849374957e-12,
        1.890336606971751e-13,
        1.2421626859492836e-14,
        7.034231520213404e-16,
        3.414549148592153e-17,
        1.4123154148959265e-18,
        4.9442180080980843e-20,
        1.4539524813680859e-21,
        3.561068365004443e-23,
        7.194055996495529e-25,
        1.1855372283507121e-26,
        1.5734913570757547e-28,
        1.6572854409196403e-30,
        1.361434162716456e-32,
        8.54615581396444e-35,
        4.0000905324817274e-37,
        1.3550199911032115e-39,
        3.2016367953552164e-42,
        5.035869166061382e-45,
        4.9624875407034464e-48,
        2.8235107161206775e-51,
        8.268446069504751e-55,
        1.049064847821291e-58,
        4.3465744227390536e-63,
        3.434736438396892e-68,
        1.3190660883981332e-74,
    ]),
)


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

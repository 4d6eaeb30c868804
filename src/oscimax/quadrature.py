"""Fourier cosine transform of the oscillating symbol and its tau-derivatives.

The target integrals have the form

    2 * integral_0^inf  lam^(L - beta) * cutoff(lam) * e^{i lam^alpha}
                        * cos(tau*lam + L*pi/2)  d lam.

For the full transform, whose range is unbounded, splitting the cosine into
exponentials gives two half-line integrals with total phase
g(lam) = lam^alpha +- tau*lam.  Each is computed as

  * a real-axis segment [1, Lambda] with composite Gauss-Kronrod panels
    whose lengths resolve the local phase derivative (and the Fresnel scale
    near the stationary point of the minus phase), followed by
  * a complex-ray tail from Lambda: upward (lam = Lambda + i s) from
    Lambda = 2 for the plus phase, downward from Lambda = max(2, 2 lam*) for
    the minus phase, whose stationary point is lam* = (alpha/tau)^{1/(1-alpha)}.
    Along either ray Im g grows at least linearly, so the integrand decays
    exponentially and ordinary panels apply.  Ray panels follow the phase
    derivative and are graded by 4/|lam|, the distance to the branch point
    at lam = 0, as the segment's panels are by 3/lam.

The cutoff is identically 1 from lam = 2 on, and both contours stay in the
right half plane, where lam^alpha and lam^(L-beta) are analytic, so the
deformation is exact.

A compact band (a dyadic piece) is not split: its cosine integrand is
integrated on the real axis with the panels of the plus phase, which
resolve both phases, since the Fresnel term is the same and
|alpha lam^(alpha-1) - tau| <= alpha lam^(alpha-1) + tau.

The first round gives each panel about 1.6 rad of phase.  Its edges on an
interval [a, b] come from the integral of the phase density, summed by the
trapezoid rule on a geometric grid of 8 nodes per e-fold of b/a (at least
16 nodes); the ray's decay probe uses the same grid.  The density is a sum
of powers lam^p with -1 <= p <= 0, for which the sum's relative error is
about h^2 (p+1)^2 / 12 <= 1.3e-3 at spacing h <= 1/8 in ln(lam), so the
layout costs a few hundred density values where the panels cost thousands
of integrand values.  A panel's value is its 15-point Kronrod sum, and its
error estimate the difference from the 7-point Gauss sum on the Gauss nodes
embedded among the Kronrod ones (QUADPACK's G7-K15 pair), both from one call
of the integrand on 15 nodes; the panels that carry the excess are bisected,
and the rest kept, until the summed estimate meets the tolerance or the
panel budget is hit.  Along a ray the integrand is computed in real
arithmetic, from the modulus and argument of lam, rather than by complex
powers.

A sweep (the taus of a decay verdict, the scales of the dyadic checks) is
one quadrature.  Each piece kind (the plus and minus segments and rays, or
the band) lays out the first round of all its integrals with one density
call, and np.interp on each integral's own row gives it one array of panel
edges; each round evaluates a kind's new panels in one integrand call per
block of _NODE_BLOCK nodes; and one loop, which takes the panels from the
edge arrays in (integral, piece) order, refines every integral against its
own tolerance, agreement exit and panel budget.  A value does not depend on the
sweep it is computed in: the scalar transforms are sweeps of one.  A sweep
raises exactly when one of its integrals would raise alone, at the first
failure it meets: a layout failure before any panel is evaluated, for the
first failing integral of the first failing kind; a refinement failure in
its round, for the first such integral in sweep order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .symbols import CutoffProfile, SymbolParams, dyadic_bump, phi_cutoff

# The 7-point Gauss / 15-point Kronrod pair, QUADPACK's qk15 constants
# (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, 1983): the
# Kronrod nodes x_1 > ... > x_7 > x_8 = 0 of [-1, 1] and their weights, and
# the weights of the Gauss nodes x_2, x_4, x_6, x_8 embedded among them.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])
# the 15 nodes in increasing order, with the 7 Gauss nodes at the odd
# positions, and the weights of each rule in that order
_K15_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_K15_WEIGHTS = np.concatenate([_WK[:-1], _WK[::-1]])
_G7_WEIGHTS = np.concatenate([_WG[:-1], _WG[::-1]])

MAX_DERIVATIVE_ORDER = 4


class ConvergenceError(RuntimeError):
    """Raised when the panel budget is exhausted; carries the partial result."""

    def __init__(self, message: str, partial_value: complex, error_estimate: float):
        super().__init__(message)
        self.partial_value = partial_value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class DecayFit:
    """Least-squares log-log slope with goodness of fit."""

    slope: float
    intercept: float
    r_squared: float
    tau_range: tuple
    sample_count: int


# The fewest samples a power-law fit takes.
MIN_FIT_SAMPLES = 5


def fit_decay_exponent(samples, floor: float | None = None) -> DecayFit:
    """Fit log(modulus) = slope*log(tau) + intercept by least squares.

    Samples whose modulus is at or below `floor` (a noise floor) are dropped
    before the fit and its checks.
    """
    taus = np.asarray([s[0] for s in samples], dtype=float)
    mods = np.asarray([s[1] for s in samples], dtype=float)
    if floor is not None:
        above = mods > floor
        taus, mods = taus[above], mods[above]
    if taus.size < MIN_FIT_SAMPLES:
        where = "" if floor is None else f" above the floor {floor:.3g}"
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples{where}, got {taus.size}")
    ordered = np.sort(taus)
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("tau values must be distinct")
    if np.any(mods <= 0.0):
        raise ValueError("all moduli must be positive")
    x, y = np.log(taus), np.log(mods)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return DecayFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        tau_range=(float(taus.min()), float(taus.max())),
        sample_count=int(taus.size),
    )


def check(name: str, value, relation: str, bound: float) -> dict:
    """One named verdict, `value relation bound` with relation "<=", "<" or
    ">=": the only place a measured value meets its bound."""
    value, bound = float(value), float(bound)
    holds = {"<=": value <= bound, "<": value < bound, ">=": value >= bound}[relation]
    return {"name": name, "value": value, "relation": relation, "bound": bound, "pass": holds}


def decay_law(samples, predicted: float, tol: float, *, spread=None, floor=None,
              one_sided: bool = False) -> dict:
    """The decay verdict of a list of (coordinate, value) samples:
    `fit_decay_exponent` of |value| against the coordinate, leaving out
    moduli at or below `floor`, judged by one check against the predicted
    exponent: "bounded" (spread <= 10) when a spread is given and the
    prediction is >= 0; otherwise "rate" (slope >= predicted - tol) when
    `one_sided`; otherwise "slope" (|slope - predicted| <= tol).  Returns
    the fit under "fitted", the samples, the prediction, that check under
    "checks" and its verdict under "pass"."""
    fit = fit_decay_exponent([(s, abs(v)) for s, v in samples], floor=floor)
    if spread is not None and predicted >= 0.0:
        verdict = check("bounded", spread, "<=", 10.0)
    elif one_sided:
        verdict = check("rate", fit.slope, ">=", predicted - tol)
    else:
        verdict = check("slope", abs(fit.slope - predicted), "<=", tol)
    return {"fitted": fit, "samples": samples, "predicted": predicted,
            "checks": [verdict], "pass": verdict["pass"]}


# ---------------------------------------------------------------------------
# panel machinery

# phase advance (radians) per panel of the first round.  On a panel of
# length h whose phase advances by 1.6 rad, the 2n-th derivative of the
# integrand is about (1.6/h)^(2n) times its size, so the n = 7 Gauss-Legendre
# remainder (n!)^4 / ((2n+1) ((2n)!)^3) h^(2n+1) f^(2n) is about
# 6.5e-20 * 1.6^14 * h = 4.7e-17 * h times that size: the embedded 7-node
# Gauss value is already exact to roundoff where the phase model holds, and
# |K15 - G7| measures its error wherever the model does not.
_BUDGET = 1.6

# roundoff of the accumulated panel magnitudes makes a tighter target meaningless
_RELATIVE_FLOOR = 1e-13

# absolute error target of every transform, and the most panels one may use
_ABS_TOLERANCE = 1e-10
_MAX_PANELS = 2_000_000

# the dyadic tail fit leaves out moduli at or below this: the roundoff level
# _RELATIVE_FLOOR of panel magnitudes that sum to order 1, as a dyadic
# piece's do at beta = 1, where a value is noise, not decay
_TAIL_NOISE_FLOOR = 1e-13


# integrand nodes per call.  A round evaluates the new panels of one piece
# kind for the whole sweep in blocks of at most this many nodes (15 per
# panel), splitting an integral's panels across blocks where they do not fit:
# a panel's value depends on its own nodes only.  A block is about a
# millisecond of elementwise work, so the call overhead stays small, and the
# integrand's transients stay near 3 MB however many panels a round has.
_NODE_BLOCK = 2**15


def _log_grid(a, b):
    """Per row, max(16, ceil(8 ln(b/a)) + 1) geometric nodes from a to b,
    0 < a < b, padded to a common width by repeating the row's last node;
    also each row's spacing h <= 1/8 in ln(lam) and its node count."""
    la, lb = np.log(a), np.log(b)
    n = np.maximum(16, np.ceil(8.0 * (lb - la)).astype(int) + 1)
    h = (lb - la) / (n - 1)
    k = np.minimum(np.arange(n.max()), n[:, None] - 1)
    # np.linspace's arithmetic, row by row
    u = np.where(k == n[:, None] - 1, lb[:, None], k * h[:, None] + la[:, None])
    return np.exp(u), h, n


def _breakpoints(a, b, density):
    """Panel edges on every interval [a[r], b[r]], a > 0, equidistributing
    the integral of `density`, which maps a grid with one row per interval to
    panels per unit length.

    The integral is a trapezoid sum in u = ln(lam) on the grid of _log_grid,
    8 nodes per e-fold of b/a (153 nodes for a segment of 19 e-folds).  For a
    density ~ lam^p the integrand in u is ~ e^{(p+1)u}, and the rule's
    relative error is about h^2 (p+1)^2 / 12 <= 1.3e-3 at h <= 1/8 for every
    power in the phase density (-1 <= p <= 0).  Where the two terms of g'
    cancel, near a stationary point, the error is a larger share of the
    density; the counts stay within 0.3% (or the one panel of rounding up)
    of a 4,000-node layout's on the tests' segments, rays and bands.  Each
    row's edges are np.interp's on that row's own nodes, so they do not
    depend on the other rows.

    Returns the panels each row needs and, if no row needs more than
    _MAX_PANELS, a list of each row's panel edges, one array from a to b
    per row; if one does, no edge is built and the list is None.
    """
    grid, h, n = _log_grid(a, b)
    q = density(grid) * grid
    steps = 0.5 * h[:, None] * (q[:, 1:] + q[:, :-1])
    steps[np.arange(1, grid.shape[1]) >= n[:, None]] = 0.0  # past each row's last node
    w = np.concatenate([np.zeros((n.size, 1)), np.cumsum(steps, axis=1)], axis=1)
    needed = w[:, -1]
    if not np.all(needed <= _MAX_PANELS):
        return needed, None
    edges = []
    for r, count in enumerate(np.maximum(1, np.ceil(needed)).astype(int).tolist()):
        # np.linspace(0, needed, count + 1)'s targets but the last, without its call overhead
        row = np.interp(np.arange(count + 1) * (needed[r] / count), w[r, : n[r]], grid[r, : n[r]])
        row[0], row[-1] = a[r], b[r]
        edges.append(row)
    return needed, edges


def _panel_values(fn, lo: np.ndarray, hi: np.ndarray):
    """15-node Kronrod value of each panel [lo, hi] and its difference from
    the 7-node Gauss value, from one call of `fn` on the 15 nodes, among which
    the Gauss nodes are embedded.  The difference is the error of the Gauss
    value, an upper estimate for the Kronrod value's.  The weighted sums run
    node by node within each panel (a BLAS mat-vec may round a row
    differently by its position), so a panel's value does not depend on the
    other panels."""
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    f = fn(mid[:, None] + half[:, None] * _K15_NODES[None, :])
    k15 = np.einsum("ij,j->i", f, _K15_WEIGHTS) * half
    g7 = np.einsum("ij,j->i", f[:, 1::2], _G7_WEIGHTS) * half
    return k15, np.abs(k15 - g7)


def _phase_density(lam, alpha: float, tau, sign: float, grading: float):
    """Panels per unit length for phase lam^alpha + sign*tau*lam at distance
    lam from the branch point lam = 0, graded by grading/lam there."""
    g1 = np.abs(alpha * lam ** (alpha - 1.0) + sign * tau)
    g2 = np.sqrt(alpha * (1.0 - alpha) * lam ** (alpha - 2.0))
    return (g1 + g2) / _BUDGET + grading / lam


# Piece kinds.  A sweep is a list of integrals that share their pieces'
# kinds; a kind holds the per-integral parameters of its piece (tau, the ray
# start, the band scale) and evaluates every panel of the sweep in one call,
# each panel with the parameters of the integral `which` names for it.


class _Segment:
    """The real segments [1, Lambda] of the half-line integrals

        integral_1^Lambda lam^(L-beta) cutoff(lam) e^{i(lam^alpha + sign tau lam)} dlam.
    """

    zero_start = False

    def __init__(self, weight, params, profile, L, sign, tau, lam_end):
        self.weight, self.profile, self.sign = weight, profile, sign
        self.alpha, self.amp = params.alpha, L - params.beta
        self.tau, self.lam_end = tau, lam_end

    def interval(self, which):
        return np.ones(which.size), self.lam_end[which]

    def density(self, lam, which):
        return _phase_density(lam, self.alpha, self.tau[which][:, None], self.sign, 3.0)

    def integrand(self, lam, which):
        # lam^amp e^{i(lam^alpha + sign tau lam)}, the products in place
        phase = lam**self.alpha
        phase += self.sign * self.tau[which][:, None] * lam
        out = np.multiply(1j, phase)
        del phase
        np.exp(out, out=out)
        out *= lam**self.amp
        # the cutoff is exactly 1 from lam = 2 on, where most blocks lie
        band = lam < 2.0
        if band.any():
            out[band] *= phi_cutoff(self.profile, lam[band])
        return out


class _Ray:
    """The tails of the half-line integrals of lam^(L-beta)
    e^{i(lam^alpha + sign tau lam)} along the vertical rays
    lam = start + i*direction*s, s in (0, inf), as integrals in s."""

    zero_start = True

    def __init__(self, weight, params, L, sign, tau, start, direction):
        self.weight, self.sign = weight, sign
        self.alpha, self.amp = params.alpha, L - params.beta
        self.tau, self.start, self.direction = tau, start, direction

    def integrand(self, s, which):
        # lam^amp e^{i(lam^alpha + sign tau lam)} i direction = e^E i direction
        # in real arithmetic: with lam = a + i x, x = direction s, r = |lam|
        # and theta = arg lam,
        #   Re E = amp ln r - r^alpha sin(alpha theta) - sign tau x,
        #   Im E = amp theta + r^alpha cos(alpha theta) + sign tau a,
        # and the integrand is direction e^{Re E} (-sin Im E + i cos Im E)
        a, direction = self.start[which][:, None], self.direction[which][:, None]
        x = direction * s
        tau = self.sign * self.tau[which][:, None]
        log_r = np.log(np.hypot(a, x))
        theta = np.arctan2(x, a)
        rho = np.exp(self.alpha * log_r)
        turn = self.alpha * theta
        re = self.amp * log_r
        re -= rho * np.sin(turn)
        x *= tau
        re -= x
        im = self.amp * theta
        rho *= np.cos(turn)
        im += rho
        im += tau * a
        del x, log_r, theta, rho, turn
        np.exp(re, out=re)
        re *= direction
        out = np.empty(s.shape, dtype=complex)
        np.multiply(re, np.cos(im), out=out.imag)
        np.multiply(re, np.sin(im), out=out.real)
        np.negative(out.real, out=out.real)
        return out

    def density(self, s, which):
        # both phases get the plus-phase rate, an upper bound for either
        lam = np.hypot(self.start[which][:, None], s)
        return _phase_density(lam, self.alpha, self.tau[which][:, None], +1.0, 4.0)

    def interval(self, which):
        """[1e-10 s_max, s_max], where s_max is the point beyond which the
        decaying envelope is negligible, located on a probe grid; [0, inf],
        unprobed, where the start or the probe's reach overflows."""
        alpha, start, tau = self.alpha, self.start[which], self.tau[which]
        with np.errstate(divide="ignore", over="ignore"):
            s_huge = np.where(
                self.direction[which] > 0,
                (300.0 / np.sin(alpha * np.pi / 2.0)) ** (1.0 / alpha),
                400.0 / (tau * (1.0 - 2.0 ** (alpha - 1.0))),
            ) + 10.0 * start
        lo, s_max = np.zeros(which.size), np.full(which.size, np.inf)
        bounded = np.flatnonzero(np.isfinite(s_huge))
        if bounded.size:
            s_max[bounded] = self._decay_end(which[bounded], start[bounded], s_huge[bounded])
            lo[bounded] = 1e-10 * s_max[bounded]
        return lo, s_max

    def _decay_end(self, which, start, s_huge):
        """Per ray, where the envelope first falls to 1e-18 (1 + s) times its
        largest probed value (at least 1) on a probe grid up to s_huge,
        interpolated between the nodes that bracket it; s_huge if it never
        does."""
        probe, _, _ = _log_grid(1e-8 * np.maximum(1.0, start), s_huge)
        per_call = max(1, _NODE_BLOCK // probe.shape[1])
        env = np.concatenate([
            np.abs(self.integrand(probe[r : r + per_call], which[r : r + per_call]))
            for r in range(0, which.size, per_call)
        ])
        floor = np.maximum(env.max(axis=1), 1.0) * 1e-18
        beyond = env <= floor[:, None] * (1.0 + probe)
        first = np.argmax(beyond, axis=1)
        # the crossing, by linear interpolation in log s of the log margin
        # log(env / (floor (1+s))) between the two nodes that bracket it
        r, i = np.arange(which.size), np.maximum(first, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            above = np.log(env[r, i - 1] / (floor * (1.0 + probe[r, i - 1])))
            below = np.log(env[r, i] / (floor * (1.0 + probe[r, i])))
            lo, hi = np.log(probe[r, i - 1]), np.log(probe[r, i])
            cross = np.exp(lo + (hi - lo) * above / (above - below))
        return np.where(beyond.any(axis=1), np.where(first == 0, probe[:, 0], cross), s_huge)


class _Band:
    """The compact bands [scale/2, 2 scale] of the integrals

        2 * integral window(lam/scale) lam^(L-beta) e^{i lam^alpha}
                     cos(tau lam + L pi/2) dlam,

    for a window supported in [1/2, 2].  The plus-phase panels resolve both
    exponentials of the cosine."""

    zero_start = False
    weight = 1.0

    def __init__(self, params, L, tau, scale, window):
        self.alpha, self.beta, self.L = params.alpha, params.beta, L
        self.tau, self.scale, self.window = tau, scale, window

    def interval(self, which):
        scale = self.scale[which]
        with np.errstate(over="ignore"):  # an end past the float range is unbounded
            return scale / 2.0, scale * 2.0

    def density(self, lam, which):
        return _phase_density(lam, self.alpha, self.tau[which][:, None], +1.0, 3.0)

    def integrand(self, lam, which):
        # 2 window lam^(L-beta) e^{i lam^alpha} cos(tau lam + L pi/2), in place
        tau, scale = self.tau[which][:, None], self.scale[which][:, None]
        amplitude = 2.0 * self.window(lam / scale)
        amplitude *= lam ** (self.L - self.beta)
        out = np.multiply(1j, lam**self.alpha)
        np.exp(out, out=out)
        out *= amplitude
        del amplitude
        out *= np.cos(tau * lam + self.L * np.pi / 2.0)
        return out


def _half_line_kinds(params: SymbolParams, profile: CutoffProfile, L: int, tau):
    """The four pieces of the full transforms at the taus of array `tau`:
    the plus phase's segment and ray, then the minus phase's, whose
    integrals, weighted by e^{+-i L pi/2}, sum to the transforms.

    The plus phase's segment ends at Lambda = 2, where its ray goes up.  The
    minus phase g = lam^alpha - tau lam is stationary at
    lam* = (alpha/tau)^{1/(1-alpha)}; its segment runs to Lambda = max(2, 2 lam*)
    and its ray goes down, where d/ds Im g >= tau - alpha Lambda^(alpha-1)
    >= tau (1 - 2^(alpha-1)) > 0, so the integrand decays along it (at
    tau = 0 it goes up from 2, as the plus phase's).
    """
    alpha = params.alpha
    rot = complex(np.exp(1j * L * np.pi / 2.0))
    down = tau > 0
    with np.errstate(divide="ignore", over="ignore"):
        lam_end = np.where(down, np.maximum(2.0, 2.0 * (alpha / tau) ** (1.0 / (1.0 - alpha))), 2.0)
    two, up = np.full(tau.shape, 2.0), np.ones(tau.shape)
    return [
        _Segment(rot, params, profile, L, +1.0, tau, two),
        _Ray(rot, params, L, +1.0, tau, two, up),
        _Segment(rot.conjugate(), params, profile, L, -1.0, tau, lam_end),
        _Ray(rot.conjugate(), params, L, -1.0, tau, lam_end, np.where(down, -1.0, 1.0)),
    ]


def _evaluate(pieces, lo, hi, seg, fresh, v, e) -> None:
    """Fill v and e, the 15-node Kronrod values and Kronrod-Gauss estimates,
    of the `fresh` panels: per piece, one integrand call per _NODE_BLOCK
    nodes of its fresh panels, whichever integrals they belong to.  Panel j
    belongs to piece seg[j] % P of integral seg[j] // P."""
    P = len(pieces)
    new = np.flatnonzero(fresh)
    kind = seg[new] % P
    per_call = _NODE_BLOCK // _K15_NODES.size
    for p, (_, integrand) in enumerate(pieces):
        sel = new[kind == p]
        for start in range(0, sel.size, per_call):
            s = sel[start : start + per_call]
            v[s], e[s] = _panel_values(partial(integrand, which=seg[s] // P), lo[s], hi[s])


def _bisect(lo, hi, seg, v, e, keep, split):
    """The next round's panels lo, hi, seg, v, e and fresh: the `keep`
    panels, then both halves of the `split` ones, which are fresh; each
    segment's in the order kept, left halves, right halves."""
    mid = 0.5 * (lo[split] + hi[split])
    kept, halves = np.count_nonzero(keep), 2 * mid.size
    order = np.argsort(np.concatenate([seg[keep], seg[split], seg[split]]), kind="stable")
    return (
        np.concatenate([lo[keep], lo[split], mid])[order],
        np.concatenate([hi[keep], mid, hi[split]])[order],
        np.concatenate([seg[keep], seg[split], seg[split]])[order],
        np.concatenate([v[keep], np.empty(halves, dtype=complex)])[order],
        np.concatenate([e[keep], np.empty(halves)])[order],
        np.repeat([False, True], [kept, halves])[order],
    )


def _refine(pieces, panels, message) -> list:
    """Sum of weight * integral over the pieces, for every integral of a
    sweep, all refined in one loop.

    `pieces` are (weight, integrand) pairs, integrand(x, which) evaluating
    nodes x, one row per panel, of panels of the integrals `which`; `panels`
    gives per piece the first-round panel edges of each integral, one array
    each, and is emptied once they are merged.  Integral i
    is converged when its summed Kronrod-Gauss estimate is at most
    max(_ABS_TOLERANCE, _RELATIVE_FLOOR * sum |panel value|).  Otherwise its
    panels with the largest estimates are bisected, as many as it takes for
    the rest to sum to at most half the tolerance; every other panel is kept
    and only the new halves are evaluated, with those of every other
    integral still refining.  Raises ConvergenceError, with text message(i),
    in the first round where an integral's next round would exceed
    _MAX_PANELS, for the first such integral in sweep order.
    """
    P = len(pieces)
    weights = [complex(w) for w, _ in pieces]
    m = len(panels[0])
    # the panels of segment integral * P + piece, segment after segment
    # (np.empty(0) for an empty sweep's)
    edges = [row for rows in zip(*panels) for row in rows]
    seg = np.repeat(np.arange(m * P, dtype=np.int32), [row.size - 1 for row in edges])
    lo = np.concatenate([np.empty(0), *(row[:-1] for row in edges)])
    hi = np.concatenate([np.empty(0), *(row[1:] for row in edges)])
    del edges
    panels.clear()  # its arrays are merged: not held twice while refining
    v, e = np.empty(seg.size, dtype=complex), np.empty(seg.size)
    fresh = np.ones(seg.size, dtype=bool)
    values, previous = [None] * m, [None] * m
    while seg.size:
        _evaluate(pieces, lo, hi, seg, fresh, v, e)
        starts = np.flatnonzero(np.diff(seg, prepend=-1))
        firsts = starts[::P]
        sums = np.add.reduceat(v, starts).tolist()
        mass = np.add.reduceat(np.abs(v), starts).tolist()
        errs = np.add.reduceat(e, firsts).tolist()
        bounds = [*firsts.tolist(), seg.size]
        split = np.zeros(seg.size, dtype=bool)
        going = np.zeros(firsts.size, dtype=bool)
        for j, i in enumerate((seg[firsts] // P).tolist()):
            value = sum(w * s for w, s in zip(weights, sums[j * P : j * P + P]))
            err = errs[j]
            tol = max(_ABS_TOLERANCE, _RELATIVE_FLOOR * sum(mass[j * P : j * P + P]))
            # the per-panel estimator saturates at the roundoff of the
            # accumulated panel mass; agreement between successive
            # refinements is the honest exit in that regime
            if err <= tol or (previous[i] is not None and abs(value - previous[i]) <= tol):
                values[i] = value
                continue
            own = e[bounds[j] : bounds[j + 1]]
            order = np.argsort(own, kind="stable")
            kept = np.searchsorted(np.cumsum(own[order]), 0.5 * tol, side="right")
            if own.size + (own.size - kept) > _MAX_PANELS:
                raise ConvergenceError(
                    f"{message(i)} (err~{err:.2e} > tol {tol:.2e})",
                    partial_value=value,
                    error_estimate=err,
                )
            split[bounds[j] + order[kept:]] = True
            going[j] = True
            previous[i] = value
        keep = np.repeat(going, np.diff(bounds)) & ~split
        lo, hi, seg, v, e, fresh = _bisect(lo, hi, seg, v, e, keep, split)
    return values


def _first_round(kinds, message):
    """The first round's panels of a sweep, laid out kind by kind, each kind
    for every integral in one pass.

    Returns, per kind, a list of each integral's panel edges, one array
    each (a ray's from s = 0).  Raises ConvergenceError, before any panel is
    evaluated, for the first integral of the first kind with a piece the
    budget cannot hold (an unbounded interval, or more than _MAX_PANELS
    panels), or else for the first integral whose pieces sum to more than
    _MAX_PANELS (with text message(i)): the failure each integral would
    raise alone.
    """
    which, panels = np.arange(kinds[0].tau.size), []
    for kind in kinds:
        a, b = kind.interval(which)
        # no budget holds an unbounded interval (an end that overflowed)
        needed, bounded = np.full(which.size, np.inf), np.isfinite(b)
        edges = []  # an empty sweep's
        if bounded.any():
            needed[bounded], edges = _breakpoints(
                a[bounded], b[bounded], partial(kind.density, which=which[bounded])
            )
        over = np.flatnonzero(~(needed <= _MAX_PANELS))
        if over.size:
            r = over[0]
            raise ConvergenceError(
                f"panel budget exceeded: {needed[r]:.3g} panels needed on "
                f"[{a[r]:.6g}, {b[r]:.6g}] (max_panels {_MAX_PANELS})",
                partial_value=complex("nan"),
                error_estimate=float("inf"),
            )
        if kind.zero_start:
            for row in edges:
                row[0] = 0.0
        panels.append(edges)
    over = [i for i, rows in enumerate(zip(*panels)) if sum(row.size - 1 for row in rows) > _MAX_PANELS]
    if over:
        raise ConvergenceError(
            f"{message(over[0])} (first round exceeds max_panels {_MAX_PANELS})",
            partial_value=complex("nan"),
            error_estimate=float("inf"),
        )
    return panels


def _sweep(kinds, message) -> list:
    """Values of the integrals sum_p kinds[p].weight * (piece p), one per
    integral of the kinds, as one quadrature: _first_round lays out the
    panels and _refine evaluates and refines them all.
    """
    pieces = [(kind.weight, kind.integrand) for kind in kinds]
    return _refine(pieces, _first_round(kinds, message), message)


def _check_order(L: int) -> None:
    if L < 0:
        raise ValueError("derivative order must be nonnegative")
    if L > MAX_DERIVATIVE_ORDER:
        raise ValueError(
            f"derivative order {L} unsupported (max {MAX_DERIVATIVE_ORDER})"
        )


def _transforms(params: SymbolParams, profile: CutoffProfile, taus, L: int) -> list:
    """fourier_cosine_mu_derivative at every tau of `taus`, as one sweep."""
    _check_order(L)
    tau = np.asarray(taus, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative")
    return _sweep(
        _half_line_kinds(params, profile, L, tau),
        lambda i: f"panel budget exceeded at tau={taus[i]}, L={L}",
    )


def fourier_cosine_mu_derivative(
    params: SymbolParams,
    profile: CutoffProfile,
    tau: float,
    L: int,
) -> complex:
    """L-th tau-derivative of the cosine transform of the oscillating symbol:

    2 * integral_0^inf lam^(L-beta) e^{i lam^alpha} cutoff(lam)
                       cos(tau lam + L pi/2) dlam.

    Splitting the cosine into e^{+-i(tau lam + L pi/2)} gives the two
    half-line integrals of _half_line_kinds; this is their sweep of one.
    """
    return _transforms(params, profile, [tau], L)[0]


def _dyadic_transforms(params: SymbolParams, profile: CutoffProfile, ks, taus, L: int = 0) -> list:
    """fourier_cosine_mu_dyadic at every pair (ks[i], taus[i]), as one sweep."""
    if not all(k >= 0 and k % 1 == 0 for k in ks):
        raise ValueError("k must be a nonnegative integer")
    _check_order(L)
    with np.errstate(over="ignore"):  # a scale past the float range is inf
        scale = np.ldexp(1.0, np.asarray(ks, dtype=int))
    band = _Band(params, L, np.asarray(taus, dtype=float), scale, lambda u: dyadic_bump(profile, u))
    return _sweep([band], lambda i: f"dyadic panel budget exceeded at k={ks[i]}, tau={taus[i]}")


def fourier_cosine_mu_dyadic(
    params: SymbolParams,
    profile: CutoffProfile,
    k: int,
    tau: float,
    L: int = 0,
) -> complex:
    """Dyadic piece of the cosine transform: the bump phi(lam / 2^k) localizes
    integration to the compact band [2^(k-1), 2^(k+1)], so no tail is needed."""
    return _dyadic_transforms(params, profile, [k], [tau], L)[0]


def dyadic_tail_order(
    params: SymbolParams,
    profile: CutoffProfile,
    k: int = 6,
    tau_lo: float = 2.0,
    tau_hi: float = 10.0,
    n_samples: int = 15,
) -> dict:
    """Fitted decay order of a dyadic transform piece in the outer region.

    Samples the dyadic transform at scale 2^k against 2^k * tau for tau in
    the far band and fits the log-log slope of its modulus.  The
    'smoothstep_poly' ramp of order n is C^n with a jump in its (n+1)-th
    derivative, so the fitted order is about n + 2 and stays there as the
    window moves: 5.60, 9.43 and 12.45 at n = 4, 7 and 10 on the default
    window, and 9.41 at n = 7 on tau in [4, 20].  Only the C-infinity
    'smooth_exp' bump decays faster than any polynomial, so its fitted order
    grows with the window (9.30 there, 10.28 on [4, 20]).  Returns the fit
    under "fitted" and every (2^k * tau, value) pair under "samples";
    samples at the noise floor are kept there but left out of the fit.
    """
    taus = np.geomspace(tau_lo, tau_hi, n_samples)
    values = _dyadic_transforms(params, profile, [k] * taus.size, taus)
    samples = [(float(2.0**k * tau), v) for tau, v in zip(taus, values)]
    fitted = fit_decay_exponent([(s, abs(v)) for s, v in samples], floor=_TAIL_NOISE_FLOOR)
    return {"fitted": fitted, "samples": samples}


def dyadic_band_ratio(params: SymbolParams, profile: CutoffProfile) -> dict:
    """Middle-region normalization check: |dyadic piece at its resonant tau|
    divided by 2^{k(1 - beta - alpha/2)} should be comparable across the
    scales k = 4..8.

    The resonant tau_k = 2^{k(alpha-1)} sits at the geometric center of the
    middle band.  Returns the normalized values and their max/min ratio.
    """
    alpha, beta = params.alpha, params.beta
    ks = range(4, 9)
    values = _dyadic_transforms(params, profile, ks, [2.0 ** (k * (alpha - 1.0)) for k in ks])
    normalized = {k: abs(v) / 2.0 ** (k * (1.0 - beta - alpha / 2.0)) for k, v in zip(ks, values)}
    vals = list(normalized.values())
    return {
        "normalized": normalized,
        "ratio": max(vals) / min(vals),
    }


def small_tau_exponent(alpha: float, beta: float, L: int) -> float:
    """Predicted small-tau blow-up exponent -L/(1-a) + (a - 2 + 2b)/(2(1-a))."""
    return -L / (1.0 - alpha) + (alpha - 2.0 + 2.0 * beta) / (2.0 * (1.0 - alpha))


def verify_small_tau_decay(
    params: SymbolParams,
    profile: CutoffProfile,
    L: int,
    tau_lo: float,
    tau_hi: float,
    n_samples: int = 25,
) -> dict:
    """Check the small-tau decay law of the transformed symbol on [tau_lo, tau_hi].

    If the predicted exponent is negative the check "slope" requires the
    fitted log-log slope within 0.2 of it; otherwise the transform is
    predicted bounded and the check "bounded" requires sup modulus <= 10x
    the modulus at tau_hi.  Returns `decay_law`'s dict, whose "samples" are
    the evaluated (tau, value) pairs.
    """
    if not 0.0 < tau_lo < tau_hi <= 200.0:
        raise ValueError("need 0 < tau_lo < tau_hi <= 200")
    predicted = small_tau_exponent(params.alpha, params.beta, L)
    taus = np.geomspace(tau_lo, tau_hi, n_samples)
    samples = [(float(t), v) for t, v in zip(taus, _transforms(params, profile, taus, L))]
    mods = np.array([abs(v) for _, v in samples])
    return decay_law(samples, predicted, 0.2, spread=np.max(mods) / mods[-1])

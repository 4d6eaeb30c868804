"""Fourier cosine transform of the oscillating symbol and its tau-derivatives.

The target integrals have the form

    2 * integral_0^inf  lam^(L - beta) * cutoff(lam) * e^{i lam^alpha}
                        * cos(tau*lam + L*pi/2)  d lam.

For the full transform, whose range is unbounded, splitting the cosine into
exponentials gives two half-line integrals with total phase
g(lam) = lam^alpha +- tau*lam.  Each is computed as

  * a real-axis segment [1, Lambda] with composite Gauss-Legendre panels
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
of integrand values.  Panel error is estimated by comparing 16- and 8-node
Gauss values panel by panel, both from one call of the integrand; the
panels that carry the excess are bisected, and the rest kept, until the
summed estimate meets the tolerance or the panel budget is hit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbols import CutoffProfile, SymbolParams, dyadic_bump, phi_cutoff

_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)
# both node sets, so that one integrand call serves the 16/8-node pair
_GL_NODES = np.concatenate([_GL16[0], _GL8[0]])

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
    if taus.size < 5:
        where = "" if floor is None else f" above the floor {floor:.3g}"
        raise ValueError(f"need at least 5 samples{where}, got {taus.size}")
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


def slope_or_bounded(fit: DecayFit, predicted: float, tol: float, spread: float) -> dict:
    """The decay check: the fitted slope within `tol` of a negative predicted
    exponent, or, when the prediction is bounded, a modulus spread <= 10."""
    if predicted < 0.0:
        return check("slope", abs(fit.slope - predicted), "<=", tol)
    return check("bounded", spread, "<=", 10.0)


# ---------------------------------------------------------------------------
# panel machinery

# phase advance (radians) per panel of the first round.  On a panel of
# length h whose phase advances by 1.6 rad, the 2n-th derivative of the
# integrand is about (1.6/h)^(2n) times its size, so the n = 8 Gauss-Legendre
# remainder (n!)^4 / ((2n+1) ((2n)!)^3) h^(2n+1) f^(2n) is about 3e-20 * h
# times that size: the 8-node value is already exact to roundoff where the
# phase model holds, and |v16 - v8| measures the error wherever it does not.
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


def _log_grid(a: float, b: float):
    """max(16, ceil(8 ln(b/a)) + 1) geometric nodes from a to b, 0 < a < b,
    and their spacing h <= 1/8 in ln(lam)."""
    la, lb = np.log(a), np.log(b)
    n = max(16, int(np.ceil(8.0 * (lb - la))) + 1)
    return np.exp(np.linspace(la, lb, n)), (lb - la) / (n - 1)


def _breakpoints(a: float, b: float, density) -> np.ndarray:
    """Panel edges on [a, b], a > 0, equidistributing the integral of `density`.

    The integral is a trapezoid sum in u = ln(lam) on the grid of _log_grid,
    8 nodes per e-fold of b/a (153 nodes for a segment of 19 e-folds).  For a
    density ~ lam^p the integrand in u is ~ e^{(p+1)u}, and the rule's
    relative error is about h^2 (p+1)^2 / 12 <= 1.3e-3 at h <= 1/8 for every
    power in the phase density (-1 <= p <= 0).  Where the two terms of g'
    cancel, near a stationary point, the error is a larger share of the
    density; the counts stay within 0.3% (or the one panel of rounding up)
    of a 4,000-node layout's on the tests' segments, rays and bands.

    Raises ConvergenceError, before the edges are built, when more than
    _MAX_PANELS panels would be needed.
    """
    if b <= a:
        raise ValueError("empty interval")
    grid, h = _log_grid(a, b)
    q = density(grid) * grid
    w = np.concatenate([[0.0], np.cumsum(0.5 * h * (q[1:] + q[:-1]))])
    if not w[-1] <= _MAX_PANELS:
        raise ConvergenceError(
            f"panel budget exceeded: {w[-1]:.3g} panels needed on "
            f"[{a:.6g}, {b:.6g}] (max_panels {_MAX_PANELS})",
            partial_value=complex("nan"),
            error_estimate=float("inf"),
        )
    n_panels = max(1, int(np.ceil(w[-1])))
    targets = np.linspace(0.0, w[-1], n_panels + 1)
    edges = np.interp(targets, w, grid)
    edges[0], edges[-1] = a, b
    return edges


def _panel_values(fn, lo: np.ndarray, hi: np.ndarray):
    """16-node Gauss value of each panel [lo, hi] and its 16/8-node difference,
    from one call of `fn` on both node sets."""
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    f = fn(mid[:, None] + half[:, None] * _GL_NODES[None, :])
    v16 = f[:, :16] @ _GL16[1] * half
    v8 = f[:, 16:] @ _GL8[1] * half
    return v16, np.abs(v16 - v8)


def _phase_density(alpha: float, tau: float, sign: float, grading: float):
    """Panels per unit length for phase lam^alpha + sign*tau*lam at distance
    lam from the branch point lam = 0, graded by grading/lam there."""

    def rho(lam):
        g1 = np.abs(alpha * lam ** (alpha - 1.0) + sign * tau)
        g2 = np.sqrt(alpha * (1.0 - alpha) * lam ** (alpha - 2.0))
        return (g1 + g2) / _BUDGET + grading / lam

    return rho


def _ray_tail(
    amp_exponent: float,
    alpha: float,
    tau: float,
    sign: float,
    start: float,
    direction: float,
):
    """Integrand and panel edges, in s, of the tail integral of
    lam^amp_exponent e^{i(lam^alpha + sign tau lam)} along the vertical ray
    lam = start + i*direction*s, s in (0, inf)."""

    def lam_of(s):
        return start + 1j * direction * s

    def integrand(s):
        lam = lam_of(s)
        return (
            lam**amp_exponent
            * np.exp(1j * (lam**alpha + sign * tau * lam))
            * (1j * direction)
        )

    # locate the point where the decaying envelope is negligible
    if direction > 0:
        decay = np.sin(alpha * np.pi / 2.0)
        s_huge = (300.0 / decay) ** (1.0 / alpha) + 10.0 * start
    else:
        rate = tau * (1.0 - 2.0 ** (alpha - 1.0))
        s_huge = 400.0 / rate + 10.0 * start
    probe, _ = _log_grid(1e-8 * max(1.0, start), s_huge)
    env = np.abs(integrand(probe))
    floor = max(env.max(), 1.0) * 1e-18
    beyond = np.where(env <= floor * (1.0 + probe))[0]
    if not beyond.size:
        s_max = s_huge
    elif beyond[0] == 0:
        s_max = probe[0]
    else:
        # the crossing, by linear interpolation in log s of the log margin
        # log(env / (floor (1+s))) between the two nodes that bracket it
        i = beyond[0]
        with np.errstate(divide="ignore"):
            above, below = np.log(env[i - 1 : i + 1] / (floor * (1.0 + probe[i - 1 : i + 1])))
        lo, hi = np.log(probe[i - 1 : i + 1])
        s_max = np.exp(lo + (hi - lo) * above / (above - below))

    # both phases get the plus-phase rate, an upper bound for either
    density = _phase_density(alpha, tau, +1.0, 4.0)
    edges = _breakpoints(1e-10 * s_max, s_max, lambda s: density(np.abs(lam_of(s))))
    edges[0] = 0.0
    return integrand, edges


def _half_line_piece(
    params: SymbolParams,
    profile: CutoffProfile,
    L: int,
    tau: float,
    sign: float,
):
    """Real segment and complex ray, each as (integrand, first-round edges),
    whose integrals sum to

        integral_1^inf lam^(L-beta) cutoff(lam) e^{i(lam^alpha + sign tau lam)} dlam.

    The segment ends at Lambda = 2 for the plus phase, whose ray goes up.  The
    minus phase g = lam^alpha - tau lam is stationary at
    lam* = (alpha/tau)^{1/(1-alpha)}; its segment runs to Lambda = max(2, 2 lam*)
    and its ray goes down, where d/ds Im g >= tau - alpha Lambda^(alpha-1)
    >= tau (1 - 2^(alpha-1)) > 0, so the integrand decays along it.
    """
    alpha, beta = params.alpha, params.beta
    amp_exp = L - beta

    if sign < 0 and tau > 0:
        lam_end = max(2.0, 2.0 * (alpha / tau) ** (1.0 / (1.0 - alpha)))
        direction = -1.0
    else:
        lam_end = 2.0
        direction = 1.0

    def integrand(lam):
        out = lam**amp_exp * np.exp(1j * (lam**alpha + sign * tau * lam))
        # the cutoff is exactly 1 from lam = 2 on
        band = lam < 2.0
        out[band] *= phi_cutoff(profile, lam[band])
        return out

    edges = _breakpoints(1.0, lam_end, _phase_density(alpha, tau, sign, 3.0))
    ray = _ray_tail(amp_exp, alpha, tau, sign, lam_end, direction)
    return [(integrand, edges), ray]


def _band_piece(
    params: SymbolParams,
    tau: float,
    L: int,
    lo: float,
    hi: float,
    window,
):
    """One (1.0, integrand, first-round edges) piece whose integral is

        2 * integral_lo^hi window(lam) lam^(L-beta) e^{i lam^alpha}
                           cos(tau lam + L pi/2) dlam,

    for a window supported in [lo, hi].  The plus-phase panels resolve both
    exponentials of the cosine.
    """
    alpha, beta = params.alpha, params.beta

    def integrand(lam):
        return (
            2.0
            * window(lam)
            * lam ** (L - beta)
            * np.exp(1j * lam**alpha)
            * np.cos(tau * lam + L * np.pi / 2.0)
        )

    edges = _breakpoints(lo, hi, _phase_density(alpha, tau, +1.0, 3.0))
    return 1.0, integrand, edges


def _refine(pieces, message: str) -> complex:
    """Sum of weight * integral over the (weight, integrand, edges) pieces.

    Converged when the summed 16/8-node estimate is at most
    max(_ABS_TOLERANCE, _RELATIVE_FLOOR * sum |panel value|).  Otherwise the
    panels with the largest estimates are bisected, as many as it takes for
    the rest to sum to at most half the tolerance; every other panel is kept
    and only the new halves are evaluated.
    """
    if sum(len(edges) - 1 for _, _, edges in pieces) > _MAX_PANELS:
        raise ConvergenceError(
            f"{message} (first round exceeds max_panels {_MAX_PANELS})",
            partial_value=complex("nan"),
            error_estimate=float("inf"),
        )
    panels = []  # per piece: lo, hi, 16-node values, 16/8-node estimates
    for _, fn, edges in pieces:
        lo, hi = edges[:-1], edges[1:]
        panels.append((lo, hi, *_panel_values(fn, lo, hi)))
    previous = None
    while True:
        value = sum(
            weight * complex(np.sum(v)) for (weight, _, _), (_, _, v, _) in zip(pieces, panels)
        )
        errs = np.concatenate([e for *_, e in panels])
        err = float(np.sum(errs))
        mass = float(sum(np.sum(np.abs(v)) for _, _, v, _ in panels))
        tol = max(_ABS_TOLERANCE, _RELATIVE_FLOOR * mass)
        if err <= tol:
            return value
        # the per-panel estimator saturates at the roundoff of the accumulated
        # panel mass; agreement between successive refinements is the honest
        # exit in that regime
        if previous is not None and abs(value - previous) <= tol:
            return value
        order = np.argsort(errs, kind="stable")
        kept = np.searchsorted(np.cumsum(errs[order]), 0.5 * tol, side="right")
        split = np.zeros(errs.size, dtype=bool)
        split[order[kept:]] = True
        if errs.size + (errs.size - kept) > _MAX_PANELS:
            raise ConvergenceError(
                f"{message} (err~{err:.2e} > tol {tol:.2e})",
                partial_value=value,
                error_estimate=err,
            )
        previous = value
        offset = 0
        for i, ((_, fn, _), (lo, hi, v, e)) in enumerate(zip(pieces, panels)):
            cut = split[offset : offset + lo.size]
            offset += lo.size
            if not cut.any():
                continue
            mid = 0.5 * (lo[cut] + hi[cut])
            new_lo = np.concatenate([lo[cut], mid])
            new_hi = np.concatenate([mid, hi[cut]])
            new_v, new_e = _panel_values(fn, new_lo, new_hi)
            panels[i] = (
                np.concatenate([lo[~cut], new_lo]),
                np.concatenate([hi[~cut], new_hi]),
                np.concatenate([v[~cut], new_v]),
                np.concatenate([e[~cut], new_e]),
            )


def _check_order(L: int) -> None:
    if L < 0:
        raise ValueError("derivative order must be nonnegative")
    if L > MAX_DERIVATIVE_ORDER:
        raise ValueError(
            f"derivative order {L} unsupported (max {MAX_DERIVATIVE_ORDER})"
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
    """
    _check_order(L)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    phase_rot = np.exp(1j * L * np.pi / 2.0)

    pieces = [
        (weight, fn, edges)
        for sign, weight in ((+1.0, phase_rot), (-1.0, np.conj(phase_rot)))
        for fn, edges in _half_line_piece(params, profile, L, tau, sign)
    ]
    return _refine(pieces, f"panel budget exceeded at tau={tau}, L={L}")


def fourier_cosine_mu(params: SymbolParams, profile: CutoffProfile, tau: float) -> complex:
    """Cosine transform 2 * integral_0^inf lam^-beta e^{i lam^alpha} cutoff cos(tau lam)."""
    return fourier_cosine_mu_derivative(params, profile, tau, 0)


def fourier_cosine_mu_dyadic(
    params: SymbolParams,
    profile: CutoffProfile,
    k: int,
    tau: float,
    L: int = 0,
) -> complex:
    """Dyadic piece of the cosine transform: the bump phi(lam / 2^k) localizes
    integration to the compact band [2^(k-1), 2^(k+1)], so no tail is needed."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_order(L)
    scale = 2.0**k
    piece = _band_piece(
        params,
        tau,
        L,
        scale / 2.0,
        scale * 2.0,
        lambda lam: dyadic_bump(profile, lam / scale),
    )
    return _refine([piece], f"dyadic panel budget exceeded at k={k}, tau={tau}")


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
    samples = [
        (float(2.0**k * tau), fourier_cosine_mu_dyadic(params, profile, k, tau))
        for tau in np.geomspace(tau_lo, tau_hi, n_samples)
    ]
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
    normalized = {}
    for k in range(4, 9):
        tau_k = 2.0 ** (k * (alpha - 1.0))
        v = abs(fourier_cosine_mu_dyadic(params, profile, k, tau_k))
        normalized[k] = v / 2.0 ** (k * (1.0 - beta - alpha / 2.0))
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
    the modulus at tau_hi.  Returns that check under "checks", its verdict
    under "pass", and every evaluated (tau, value) pair under "samples".
    """
    if not 0.0 < tau_lo < tau_hi <= 200.0:
        raise ValueError("need 0 < tau_lo < tau_hi <= 200")
    predicted = small_tau_exponent(params.alpha, params.beta, L)
    samples = [
        (float(t), fourier_cosine_mu_derivative(params, profile, t, L))
        for t in np.geomspace(tau_lo, tau_hi, n_samples)
    ]
    mods = np.array([abs(v) for _, v in samples])
    fit = fit_decay_exponent([(t, abs(v)) for t, v in samples])
    verdict = slope_or_bounded(fit, predicted, 0.2, np.max(mods) / mods[-1])
    return {
        "fitted": fit,
        "samples": samples,
        "predicted_exponent": predicted,
        "checks": [verdict],
        "pass": verdict["pass"],
    }

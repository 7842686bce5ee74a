"""Comparison kernels on the ray.

The basic object is the profile ``s(t)`` solving the Jacobi equation

    s'' + kappa * s = 0,   s(0) = 1,   s'(0) = -lam,

together with the quantities built from it: the comparison-ball radius
(first positive zero of ``s``), the weighted volume growth
``int_0^r max(s, 0)^(N-1) dt``, the normalized ball tail ``v`` and its
inverse, and the Gaussian tail for the infinite-dimensional regime.
All functions are pure; profile evaluation is vectorized in ``t``.

Every kernel is a closed form, evaluated in log space so that powers of
the profile neither underflow nor overflow at N in the thousands:

* kappa > 0: with x = sqrt(kappa) (C - t), s = sin x / sin(sqrt(kappa) C)
  and int_0^x sin^(N-1) = B(N/2, 1/2) / 2 * I_{sin^2 x}(N/2, 1/2), the
  regularized incomplete beta function (DLMF 8.17), reflected past
  x = pi/2 (lam < 0) and taken through the complement I_{cos^2 x}(1/2, N/2)
  near pi/2.  Short of pi/2 it is evaluated as
  sin^N x / N * 2F1(1/2, N/2; N/2 + 1; sin^2 x) (DLMF 8.17.7), with the
  2F1 factor from the continued fraction of DLMF 8.17.22 in the band
  near pi/2 where the library 2F1 fails.
* kappa = 0: v(r) = (1 - r/C)^N and v^-1(eta) = C (1 - eta^(1/N)).
* kappa < 0, ball: s = sinh(k (C - t)) / sinh(k C), and int_0^w sinh^(N-1)
  = sinh^(N-1) w tanh w / N * 2F1(1, 1/2; N/2 + 1; tanh^2 w) (DLMF 15,
  the Pfaff transform 15.8.1 of 8.17.7 at imaginary angle; from N = 10
  the 2F1 factor is again the continued fraction of DLMF 8.17.22).
* kappa < 0 outside the ball (growth only): the same sinh form, an exact
  exponential, or int cosh^(N-1) by its 2F1 series (DLMF 15.2.1) and a
  binomial series.
* horospherical: s = e^(-lam t), so int_0^inf s^(N-1) = 1 / ((N-1) lam).
* Gaussian: S(r) = erfc(z) / erfc(z0) with z = (K r + Lam) / sqrt(2K),
  computed through the scaled erfcx (DLMF 7.2); K = 0 gives e^(-Lam r).

The inverses start from betaincinv (kappa > 0) or erfcinv where the
target is a normal float, and otherwise from an analytic bracket end;
Newton steps on the exact forward map, which is concave in log space,
then converge to rounding level, with bisection as the safeguard.  No
quadrature runs here; the adaptive quadrature these forms replaced is
the oracle of ``tests/test_jacobi_oracle.py``.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import (
    betainc,
    betaincc,
    betaincinv,
    betaln,
    erfc,
    erfcinv,
    erfcx,
    gammaln,
    gammasgn,
    hyp2f1,
    logsumexp,
)

from .errors import DomainError

__all__ = [
    "Regime",
    "CurvatureClass",
    "InfiniteCurvature",
    "TwistParams",
    "classify",
    "classify_infinite",
    "s_profile",
    "c_radius",
    "s_growth",
    "v_ball",
    "v_inverse",
    "gaussian_tail",
    "gaussian_tail_inverse",
]

# Relative tolerance for detecting the horospherical case lam = sqrt(|kappa|)
# from floating-point input.
_HOROSPHERICAL_RTOL = 1e-12

_HALF_PI = 0.5 * math.pi
_SPLIT = 134217729.0  # 2^27 + 1, splits a double into two 26-bit halves
_LOG2 = math.log(2.0)
_TINY = sys.float_info.min
_LOG_TINY = math.log(_TINY)
_LOG_HUGE = math.log(sys.float_info.max)

# Newton on the exact forward maps takes a handful of steps from the
# starts used here; the cap leaves room for the bisection safeguard to
# halve a bracket down to rounding level from any start.
_NEWTON_MAX_STEPS = 200
_NEWTON_RTOL = 4.0 * sys.float_info.epsilon
_CF_MAX_TERMS = 100000


class Regime(enum.Enum):
    """Classification of a curvature pair (kappa, lam)."""

    BALL = "ball"
    CONVEX_BALL = "convex_ball"
    HOROSPHERICAL = "horospherical"
    NONE = "none"


@dataclass(frozen=True)
class CurvatureClass:
    """Scalar curvature bounds (kappa, lam) with their regime.

    ``kappa`` has units 1/length^2 (Ricci-type bound), ``lam`` units
    1/length (mean-curvature-type bound).
    """

    kappa: float
    lam: float
    regime: Regime

    @property
    def is_ball(self) -> bool:
        """True when a finite comparison ball exists."""
        return self.regime in (Regime.BALL, Regime.CONVEX_BALL)

    @property
    def is_convex_ball(self) -> bool:
        return self.regime is Regime.CONVEX_BALL

    @property
    def is_horospherical(self) -> bool:
        return self.regime is Regime.HOROSPHERICAL


@dataclass(frozen=True)
class InfiniteCurvature:
    """Infinite-dimensional curvature bounds (K, Lam).

    ``admissible`` is True exactly when the Gaussian-type weight
    exp(-K t^2 / 2 - Lam t) has finite integral over the ray:
    K > 0, or K = 0 with Lam > 0.
    """

    K: float
    Lam: float
    admissible: bool


@dataclass(frozen=True)
class TwistParams:
    """Parameters for the density-bounded (twisted) comparison.

    ``delta`` bounds the log-density: f <= (n - 1) * delta.  The bound
    acts through the effective pair (kappa * e^{-4 delta},
    lam * e^{-2 delta}), which must classify before use.
    """

    n: int
    kappa: float
    lam: float
    delta: float

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"dimension must be >= 2, got {self.n}")

    def effective(self) -> CurvatureClass:
        return classify(
            self.kappa * math.exp(-4.0 * self.delta),
            self.lam * math.exp(-2.0 * self.delta),
        )


def classify(kappa: float, lam: float) -> CurvatureClass:
    """Classify a curvature pair into its regime.

    The comparison ball exists iff kappa > 0, or kappa = 0 with lam > 0,
    or kappa < 0 with lam > sqrt(|kappa|).  The horospherical case
    kappa < 0, lam = sqrt(|kappa|) is detected within a relative
    tolerance and takes priority over NONE.
    """
    kappa = float(kappa)
    lam = float(lam)
    if not (math.isfinite(kappa) and math.isfinite(lam)):
        raise DomainError(f"curvature parameters must be finite, got ({kappa}, {lam})")
    if kappa < 0:
        root = math.sqrt(-kappa)
        if abs(lam - root) <= _HOROSPHERICAL_RTOL * max(1.0, abs(lam)):
            return CurvatureClass(kappa, lam, Regime.HOROSPHERICAL)
        ball = lam > root
    elif kappa == 0:
        ball = lam > 0
    else:
        ball = True
    if ball:
        regime = Regime.CONVEX_BALL if lam >= 0 else Regime.BALL
        return CurvatureClass(kappa, lam, regime)
    return CurvatureClass(kappa, lam, Regime.NONE)


def classify_infinite(K: float, Lam: float) -> InfiniteCurvature:
    """Build the infinite-dimensional curvature record."""
    K = float(K)
    Lam = float(Lam)
    if not (math.isfinite(K) and math.isfinite(Lam)):
        raise DomainError(f"curvature parameters must be finite, got ({K}, {Lam})")
    admissible = K > 0 or (K == 0 and Lam > 0)
    return InfiniteCurvature(K, Lam, admissible)


def s_profile(kappa: float, lam: float, t):
    """Evaluate the Jacobi profile s(t) with s(0)=1, s'(0)=-lam.

    Closed forms by the sign of kappa:

        kappa > 0:  sqrt(1 + lam^2/kappa) * cos(sqrt(kappa) t + atan(lam/sqrt(kappa)))
        kappa = 0:  1 - lam t
        kappa < 0:  cosh(sqrt(|kappa|) t) - (lam/sqrt(|kappa|)) sinh(sqrt(|kappa|) t)

    Vectorized in ``t``; ``t`` must be >= 0.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("profile argument t must be >= 0")
    kappa = float(kappa)
    lam = float(lam)
    if kappa > 0:
        rk = math.sqrt(kappa)
        amp = math.sqrt(1.0 + lam * lam / kappa)
        phase = math.atan2(lam, rk)
        out = amp * np.cos(rk * t + phase)
    elif kappa == 0:
        out = 1.0 - lam * t
    else:
        # cosh/sinh combination written in exponential coefficients so the
        # horospherical case decays exactly instead of cancelling inf - inf
        rk = math.sqrt(-kappa)
        a = 0.5 * (1.0 - lam / rk)
        b = 0.5 * (1.0 + lam / rk)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.where(
                a == 0.0, b * np.exp(-rk * t), a * np.exp(rk * t) + b * np.exp(-rk * t)
            )
    if out.ndim == 0:
        return float(out)
    return out


def s_profile_clamped(cc: CurvatureClass, t):
    """max(s, 0) with s forced to 0 at and past the comparison radius."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s_profile(cc.kappa, cc.lam, t), dtype=float)
    c = c_radius(cc)
    out = np.where(t < c, np.maximum(s, 0.0), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def c_radius(cc: CurvatureClass) -> float:
    """Radius of the comparison ball: first positive zero of the profile.

    Returns +inf outside the ball regimes (including horospherical,
    where the profile is a positive exponential).
    """
    if not cc.is_ball:
        return math.inf
    kappa, lam = cc.kappa, cc.lam
    if kappa > 0:
        rk = math.sqrt(kappa)
        return (math.pi / 2.0 - math.atan(lam / rk)) / rk
    if kappa == 0:
        return 1.0 / lam
    rk = math.sqrt(-kappa)
    return math.log((lam + rk) / (lam - rk)) / (2.0 * rk)


# ---------------------------------------------------------------------------
# log-space integrals of powers of the profile
# ---------------------------------------------------------------------------
#
# A curved ball's profile is s(t) = g(X - k t) / g(X) with g = sin
# (kappa > 0) or sinh (kappa < 0), k = sqrt|kappa| and rim angle X = k C,
# so every kernel reduces to G(theta) = int_0^theta g^(N-1).  G is carried
# as a logarithm: at N in the thousands it leaves the floating-point range
# long before the ratios built from it do.  Points are addressed by their
# angle u = k r from the start of the ray, not by theta = X - u, so that
# small inradii keep their relative precision.

def _log_sinh(w: float) -> float:
    if w < 20.0:
        return math.log(math.sinh(w))
    return w - _LOG2 + math.log1p(-math.exp(-2.0 * w))


def _sin_series(N: float, c: float) -> bool:
    """Whether theta with cos theta = c lies where the continued fraction
    of I_{sin^2}(N/2, 1/2) converges fast: sin^2 < (a + 1) / (a + 5/2)."""
    return c >= 0.0 and c * c > 1.5 / (0.5 * N + 2.5)


def _log_half_beta(N: float) -> float:
    """log B(N/2, 1/2) / 2 = log int_0^(pi/2) sin^(N-1).

    Past N = 100 the library betaln loses digits (4e-13 relative at
    N = 937), so there log B(a, 1/2) = log Gamma(1/2) - log(Gamma(a + 1/2)
    / Gamma(a)) comes from the asymptotic series of the ratio (DLMF 5.11),
    whose next term is below 1e-18 at a = 50.
    """
    a = 0.5 * N
    if a < 50.0:
        return betaln(a, 0.5) - _LOG2
    log_ratio = (0.5 * math.log(a) - 1.0 / (8.0 * a) + 1.0 / (192.0 * a**3)
                 - 1.0 / (640.0 * a**5) + 17.0 / (14336.0 * a**7))
    return 0.5 * math.log(math.pi) - log_ratio - _LOG2


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction h of DLMF 8.17.22, I_x(a, b) =
    x^a (1-x)^b / (a B(a, b)) * h, by the modified Lentz method; it
    converges fast for x < (a + 1) / (a + b + 2).  ``or _TINY`` keeps a
    vanishing partial denominator from dividing by zero."""
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0) or _TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS):
        aa = m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m))
        d = 1.0 / (1.0 + aa * d or _TINY)
        c = 1.0 + aa / c or _TINY
        h *= d * c
        aa = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))
        d = 1.0 / (1.0 + aa * d or _TINY)
        c = 1.0 + aa / c or _TINY
        step = d * c
        h *= step
        if abs(step - 1.0) <= _NEWTON_RTOL:
            break
    return h


def _sin_2f1(N: float, s: float, c: float) -> float:
    """2F1(1/2, N/2; N/2 + 1; sin^2), for cos = c >= 0.

    The library 2F1 is accurate to 1e-14 while cos^2 >= 0.01 and returns
    nan closer to pi/2 at large N (N = 937, cos^2 = 0.002); there the
    continued fraction serves, 2F1 = cos * h(N/2, 1/2, sin^2) (DLMF 8.17.7
    against 8.17.22).  The band is reached only past N = 300.
    """
    a = 0.5 * N
    if c * c >= 0.01:
        return hyp2f1(0.5, a, a + 1.0, s * s)
    return c * _beta_cf(a, 0.5, s * s)


def _log_int_sin(N: float, s: float, c: float) -> float:
    """log int_0^theta sin^(N-1) for theta in (0, pi), s = sin theta, c = cos theta.

    Short of pi/2: sin^N theta / N * 2F1(1/2, N/2; N/2 + 1; sin^2 theta)
    (DLMF 8.17.7).  Near and past pi/2 the same integral is
    B(N/2, 1/2) / 2 * I_{sin^2 theta}(N/2, 1/2) (DLMF 8.17), taken through
    the complement I_{cos^2 theta}(1/2, N/2) and reflected past pi/2.
    """
    if _sin_series(N, c):
        return N * math.log(s) - math.log(N) + math.log(_sin_2f1(N, s, c))
    a = 0.5 * N
    if c >= 0.0:
        return _log_half_beta(N) + math.log(betaincc(0.5, a, c * c))
    return _log_half_beta(N) + math.log1p(betainc(0.5, a, c * c))


def _sinh_2f1(N: float, t: float) -> float:
    """2F1(1, 1/2; N/2 + 1; tanh^2) = h(N/2, (1-N)/2, tanh^2) (DLMF 8.17.8
    against 8.17.22).  From N = 10 the continued fraction converges fast
    for every tanh^2 < 1 ((a + 1)/(a + b + 2) = (N + 2)/5), while the
    library 2F1 returns nan at some odd N (N = 999, tanh^2 = 0.9); below,
    the library 2F1 is accurate to 5e-14 and the fraction is not."""
    if N >= 10.0:
        return _beta_cf(0.5 * N, 0.5 * (1.0 - N), t * t)
    return hyp2f1(1.0, 0.5, 0.5 * N + 1.0, t * t)


def _log_int_sinh(N: float, w: float) -> float:
    """log int_0^w sinh^(N-1) for w > 0:
    sinh^(N-1) w tanh w / N * 2F1(1, 1/2; N/2 + 1; tanh^2 w), which is
    DLMF 8.17.7 at imaginary angle after the Pfaff transformation (DLMF
    15.8.1); the 2F1 factor lies in [1, N/(N-1)]."""
    t = math.tanh(w)
    return (N - 1.0) * _log_sinh(w) + math.log(t / N) + math.log(_sinh_2f1(N, t))


def _log_int_cosh(N: float, w: float) -> float:
    """log int_0^w cosh^(N-1) for w > 0.

    Up to w = 1/2: tanh w * 2F1(1/2, (N+1)/2; 3/2; tanh^2 w) (DLMF 15.2.1),
    summed here in log space because every term is positive.  Beyond:
    cosh^m = 2^-m sum_j binom(m, j) e^((m - 2j) theta) integrates term by
    term; with e^(-2 theta) <= 1/e the terms are positive up to j = m and
    negligible after m + 60.
    """
    m = N - 1.0
    w1 = min(w, 0.5)
    t = math.tanh(w1)
    z, b = t * t, 0.5 * (N + 1.0)
    k = np.arange(int(2.0 * b * z / (1.0 - z) + 10.0 * math.sqrt(b * z) / (1.0 - z)) + 60.0)
    log_terms = np.cumsum(np.log((k + 0.5) * (k + b) * z / ((k + 1.5) * (k + 1.0))))
    head = math.log(t) + float(np.logaddexp(0.0, logsumexp(log_terms)))
    if w == w1:
        return head
    # the summands peak at j = m q / (1 + q), q = e^(-2w) <= 1/e, with a
    # width of order sqrt(m); 12 widths each side leave e^-300 out
    peak = m / (1.0 + math.exp(2.0 * w))
    reach = 12.0 * math.sqrt(m) + 60.0
    j = np.arange(max(0.0, math.floor(peak - reach)),
                  min(math.floor(m) + 61.0, math.ceil(peak + reach)))
    j = j[j < m + 1.0] if m == math.floor(m) else j  # binom(m, j) = 0 past an integer m
    log_binom = gammaln(m + 1.0) - gammaln(j + 1.0) - gammaln(m - j + 1.0)
    sign = gammasgn(m - j + 1.0)
    beta = m - 2.0 * j
    span = w - w1
    # int_{w1}^{w} e^(beta theta) d theta, written without cancellation
    rate = np.where(beta == 0.0, 1.0, np.abs(beta))
    log_int = np.where(
        beta == 0.0,
        math.log(span),
        np.maximum(beta * w, beta * w1) + np.log(-np.expm1(-rate * span)) - np.log(rate),
    )
    tail = float(logsumexp(log_binom + log_int, b=sign)) - m * _LOG2
    return float(np.logaddexp(head, tail))


def _log_expm1(y: float) -> float:
    """log(e^y - 1) for y > 0."""
    return math.log(math.expm1(y)) if y < 40.0 else y + math.log1p(-math.exp(-y))


def _log_sub(hi: float, lo: float) -> float:
    """log(e^hi - e^lo) for lo <= hi (lo may be -inf)."""
    return hi + math.log(-math.expm1(lo - hi)) if lo < hi else -math.inf


def _rim(cc: CurvatureClass) -> tuple[float, float]:
    """(k, X) of a curved ball: k = sqrt|kappa| and the rim angle X = k C."""
    k = math.sqrt(abs(cc.kappa))
    lam = cc.lam
    if cc.kappa > 0:
        return k, _HALF_PI - math.atan(lam / k)
    # X = atanh(k / lam) = log1p(2k / (lam - k)) / 2, with lam - k taken as
    # (lam^2 + kappa) / (lam + k) and lam^2 split exactly (Dekker), so that
    # a pair near the horospherical line keeps the digits of lam - k
    hi = _SPLIT * lam
    hi -= hi - lam
    lo = lam - hi
    square_error = ((hi * hi - lam * lam) + 2.0 * hi * lo) + lo * lo
    gap = (lam * lam + cc.kappa + square_error) / (lam + k)
    return k, 0.5 * math.log1p(2.0 * k / gap)


def _log_rim(N: float, kappa: float, X: float) -> tuple[float, float]:
    """(log G(X), log g(X)) at the rim angle."""
    if kappa > 0:
        s, c = math.sin(X), math.cos(X)
        return _log_int_sin(N, s, c), math.log(s)
    return _log_int_sinh(N, X), _log_sinh(X)


def _log_ratio(N: float, kappa: float, X: float, u: float) -> tuple[float, float]:
    """(log G(X - u) / G(X), log g(X - u) / g(X)) for 0 <= u <= X.

    The second is log1p of g(X - u)/g(X) - 1 by the addition theorem,
    so the dominant power term (N - 1) log(g(X - u)/g(X)) keeps its
    relative precision as u -> 0.
    """
    if u <= 0.0:
        return 0.0, 0.0
    if u >= X:
        return -math.inf, -math.inf
    if kappa > 0:
        sX, cX = math.sin(X), math.cos(X)
        su, cu = math.sin(u), math.cos(u)
        s, c = sX * cu - cX * su, cX * cu + sX * su
        if s <= 0.0:
            return -math.inf, -math.inf
        dg = -2.0 * math.sin(0.5 * u) ** 2 - su * cX / sX
        log_dg = math.log1p(dg) if dg > -0.5 else math.log(s / sX)
        if dg > -0.5 and _sin_series(N, c) and _sin_series(N, cX):
            return N * log_dg + math.log(_sin_2f1(N, s, c) / _sin_2f1(N, sX, cX)), log_dg
        return _log_int_sin(N, s, c) - _log_int_sin(N, sX, cX), log_dg
    tX, tu = math.tanh(X), math.tanh(u)
    dg = 2.0 * math.sinh(0.5 * u) ** 2 - math.sinh(u) / tX
    if dg <= -0.5:
        log_dg = _log_sinh(X - u) - _log_sinh(X)
        return _log_int_sinh(N, X - u) - _log_int_sinh(N, X), log_dg
    log_dg = math.log1p(dg)
    t = (tX - tu) / (1.0 - tX * tu)
    log_t = math.log1p(-tu / tX) - math.log1p(-tX * tu)
    return (N - 1.0) * log_dg + log_t + math.log(_sinh_2f1(N, t) / _sinh_2f1(N, tX)), log_dg


def _log_head(N: float, kappa: float, X: float, u: float, log_G: float) -> float:
    """log int_{X-u}^X g^(N-1) for 0 < u <= X, given log_G = log G(X).

    As 1 - v this cancels when most of the mass lies below X - u, which
    happens past pi/2 (kappa > 0, lam < 0: the profile peaks inside the
    ray).  There the integral is taken on the mirror side theta -> pi - theta,
    where G is small, or split at pi/2 into two complements
    B(N/2, 1/2) / 2 * I_{cos^2}(1/2, N/2).
    """
    if kappa > 0 and X > _HALF_PI:
        theta = X - u
        s, c = math.sin(theta), math.cos(theta)
        sX, cX = math.sin(X), math.cos(X)
        if c < 0.0:
            return _log_sub(_log_int_sin(N, s, -c), _log_int_sin(N, sX, -cX))
        a = 0.5 * N
        return _log_half_beta(N) + math.log(betainc(0.5, a, c * c) + betainc(0.5, a, cX * cX))
    return log_G + _log_sub(0.0, _log_ratio(N, kappa, X, u)[0])


def _log_growth(N: float, cc: CurvatureClass, u: float) -> float:
    """log int_0^u s^(N-1) for 0 < u <= C, outside the horospherical case."""
    m = N - 1.0
    kappa, lam = cc.kappa, cc.lam
    if kappa == 0.0:
        if lam == 0.0:
            return math.log(u)
        if lam < 0.0:
            # ((1 - lam u)^N - 1) / (-lam N)
            return _log_expm1(N * math.log1p(-lam * u)) - math.log(-lam * N)
        # ball of radius C = 1/lam: C (1 - (1 - u/C)^N) / N
        c = 1.0 / lam
        lo = N * math.log1p(-u / c) if u < c else -math.inf
        return math.log(c / N) + _log_sub(0.0, lo)
    k = math.sqrt(abs(kappa))
    if cc.is_ball:
        k, X = _rim(cc)
        log_G, log_g = _log_rim(N, kappa, X)
        return _log_head(N, kappa, X, k * u, log_G) - m * log_g - math.log(k)
    if lam == -k:
        # s = e^(k t) exactly
        return _log_expm1(m * k * u) - math.log(m * k)
    if lam < -k:
        # s = sinh(theta0 + k t) / sinh(theta0), increasing
        theta0 = math.atanh(k / -lam)
        return (_log_sub(_log_int_sinh(N, theta0 + k * u), _log_int_sinh(N, theta0))
                - m * _log_sinh(theta0) - math.log(k))
    # |lam| < k: s = cosh(theta0 + k t) / cosh(theta0); int_0^w cosh^m is odd in w
    theta0 = -math.atanh(lam / k)
    hi = theta0 + k * u

    def signed(w):
        return (1.0 if w > 0 else -1.0), (_log_int_cosh(N, abs(w)) if w else -math.inf)

    (s_hi, l_hi), (s_lo, l_lo) = signed(hi), signed(theta0)
    if s_lo < 0 <= s_hi:
        log_mass = float(np.logaddexp(l_hi, l_lo))
    elif s_hi > 0:
        log_mass = _log_sub(l_hi, l_lo)
    else:
        log_mass = _log_sub(l_lo, l_hi)
    return log_mass - m * math.log(math.cosh(theta0)) - math.log(k)


def _check_N(N) -> float:
    N = float(N)
    if not (N > 1 and math.isfinite(N)):
        raise DomainError(f"N must be finite and exceed 1, got {N}")
    return N


def _require_ball(cc: CurvatureClass) -> None:
    if not cc.is_ball:
        raise DomainError(f"v is defined only in the ball regime, got {cc.regime}")


def s_growth(N: float, cc: CurvatureClass, r: float) -> float:
    """Weighted volume growth int_0^r max(s,0)^(N-1) dt.

    The integrand clamps to zero past the comparison radius, so the
    result is constant for r beyond it.  ``r = inf`` is allowed whenever
    the improper integral converges (ball or horospherical regime).
    """
    N = _check_N(N)
    r = float(r)
    if not r >= 0:
        raise DomainError(f"r must be >= 0, got {r}")
    upper = min(r, c_radius(cc))
    if cc.regime is Regime.HOROSPHERICAL:
        # s = e^(-lam t): the growth is (1 - e^(-(N-1) lam r)) / ((N-1) lam)
        rate = (N - 1.0) * cc.lam
        return -math.expm1(-rate * upper) / rate
    if math.isinf(upper):
        raise DomainError(
            "improper growth integral diverges outside the ball and "
            "horospherical regimes"
        )
    if upper == 0.0:
        return 0.0
    log_val = _log_growth(N, cc, upper)
    return math.exp(log_val) if log_val < _LOG_HUGE else math.inf


def v_ball(N: float, cc: CurvatureClass, r: float) -> float:
    """Normalized tail volume of the comparison ball at inradius r.

    v(r) = int_r^C s^(N-1) / int_0^C s^(N-1), strictly decreasing from
    v(0) = 1 to v(C) = 0.  Requires the ball regime and r in [0, C].
    """
    N = _check_N(N)
    _require_ball(cc)
    c = c_radius(cc)
    r = float(r)
    if not -1e-12 <= r <= c * (1.0 + 1e-12):
        raise DomainError(f"r={r} outside [0, {c}]")
    r = min(max(r, 0.0), c)
    if cc.kappa == 0.0:
        log_v = N * math.log1p(-r / c) if r < c else -math.inf
    else:
        k, X = _rim(cc)
        log_v = _log_ratio(N, cc.kappa, X, k * r)[0]
    return min(math.exp(log_v), 1.0)


def _newton(f, x: float, lo: float, hi: float) -> float:
    """Root of a decreasing f in [lo, hi], given as x -> (f(x), f'(x)).

    Newton steps, each of which also shrinks the bracket; a step that
    leaves the bracket, or a slope lost to underflow, is replaced by
    bisection, so the iteration ends even where f is flat at rounding
    level.  On the concave maps solved here Newton steps land inside the
    bracket once the iterate is right of the root.
    """
    for _ in range(_NEWTON_MAX_STEPS):
        fx, slope = f(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            lo = x
        else:
            hi = x
        x_new = x - fx / slope if slope < 0.0 else math.nan
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= _NEWTON_RTOL * abs(x_new):
            return x_new
        x = x_new
    return x


def v_inverse(N: float, cc: CurvatureClass, eta: float) -> float:
    """Unique r in [0, C] with v(r) = eta.

    kappa = 0: r = C (1 - eta^(1/N)).  A curved ball solves
    log G(X - k r) - log G(X) = log eta, whose left side is concave in r
    because G integrates a log-concave power.  The start is betaincinv
    for kappa > 0 when eta I_{sin^2 X}(N/2, 1/2) is a normal float, and
    otherwise the bracket end k r = X (1 - (eta min(1, g(X)/X)^(N-1))^(1/N)),
    where v <= eta.  Newton steps on the exact forward map, whose slope
    is -k g^(N-1) / G, then converge to rounding level.
    """
    N = _check_N(N)
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    _require_ball(cc)
    c = c_radius(cc)
    if eta == 1.0:
        return 0.0
    if eta == 0.0:
        return c
    log_eta = math.log(eta)
    if cc.kappa == 0.0:
        return c * -math.expm1(log_eta / N)
    kappa = cc.kappa
    m = N - 1.0
    k, X = _rim(cc)
    log_G, log_g = _log_rim(N, kappa, X)
    u_hi = X * -math.expm1((log_eta + m * min(0.0, log_g - math.log(X))) / N)
    u0 = u_hi
    if kappa > 0:
        a = 0.5 * N
        log_T = log_eta + log_G - _log_half_beta(N)
        if log_T >= 0.0:
            c2 = betaincinv(0.5, a, min(math.expm1(log_T), 1.0))
            u0 = X - _HALF_PI - math.asin(math.sqrt(c2))
        elif log_T > _LOG_TINY:
            u0 = X - math.asin(math.sqrt(betaincinv(a, 0.5, math.exp(log_T))))
        if not 0.0 < u0 <= u_hi:
            u0 = u_hi

    def f(u):
        log_v, log_dg = _log_ratio(N, kappa, X, u)
        return log_v - log_eta, -math.exp(m * (log_g + log_dg) - log_G - log_v)

    return min(_newton(f, u0, 0.0, u_hi) / k, c)


def _require_admissible(ic: InfiniteCurvature) -> None:
    if not ic.admissible:
        raise DomainError(
            f"(K, Lam) = ({ic.K}, {ic.Lam}) has divergent Gaussian weight; "
            "need K > 0, or K = 0 with Lam > 0"
        )


def _log_gaussian_tail(K: float, Lam: float, r: float) -> float:
    """log S(r) with S = erfc(z(r)) / erfc(z0), z = (K r + Lam) / sqrt(2K).

    erfc is taken through erfcx(z) = e^(z^2) erfc(z) on z >= 0 (DLMF 7.2),
    and e^(z0^2 - z^2) is written as e^(-r (K r / 2 + Lam)), so the
    ratio neither underflows nor cancels.
    """
    if K == 0.0:
        return -Lam * r
    root = math.sqrt(2.0 * K)
    z0 = Lam / root
    z = (K * r + Lam) / root
    if z0 >= 0.0:
        return math.log(erfcx(z) / erfcx(z0)) - r * (0.5 * K * r + Lam)
    if z < 0.0:
        return math.log(erfc(z) / erfc(z0))
    return math.log(erfcx(z)) - z * z - math.log(erfc(z0))


def gaussian_tail(ic: InfiniteCurvature, r: float) -> float:
    """Tail mass int_r^inf w / int_0^inf w of the Gaussian-type weight.

    Strictly decreasing with S(0) = 1.  For K = 0 the weight is a pure
    exponential and the tail is exp(-Lam r) exactly.
    """
    _require_admissible(ic)
    r = float(r)
    if not (r >= 0 and math.isfinite(r)):
        raise DomainError(f"r must be finite and >= 0, got {r}")
    return min(math.exp(_log_gaussian_tail(ic.K, ic.Lam, r)), 1.0)


def gaussian_tail_inverse(ic: InfiniteCurvature, eta: float) -> float:
    """Unique r >= 0 with gaussian_tail(ic, r) = eta.

    The start is z = erfcinv(eta erfc(z0)) when that product is a normal
    float, and otherwise the upper bracket where the Gaussian factor
    alone reaches eta (erfcx decreases, so S lies below that factor);
    Newton steps on the concave log S, whose slope is
    -sqrt(2K/pi) / erfcx(z), then converge to rounding level.
    """
    _require_admissible(ic)
    eta = float(eta)
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    if eta == 1.0:
        return 0.0
    K, Lam = ic.K, ic.Lam
    log_eta = math.log(eta)
    if K == 0.0:
        return -log_eta / Lam
    root = math.sqrt(2.0 * K)
    disc = math.sqrt(Lam * Lam - 2.0 * K * log_eta)
    # root of K r^2 / 2 + Lam r = -log eta, in the form without cancellation
    r_hi = -2.0 * log_eta / (Lam + disc) if Lam > 0 else (disc - Lam) / K
    r0 = r_hi
    p = eta * erfc(Lam / root)
    if p >= _TINY:
        r0 = min(max((root * erfcinv(p) - Lam) / K, 0.0), r_hi)
    slope_scale = math.sqrt(2.0 * K / math.pi)

    def f(r):
        z = (K * r + Lam) / root
        return _log_gaussian_tail(K, Lam, r) - log_eta, -slope_scale / erfcx(z)

    return _newton(f, r0, 0.0, r_hi)

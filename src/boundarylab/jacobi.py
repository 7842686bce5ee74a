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
  x = pi/2 (lam < 0).  Short of pi/2 it is
  sin^N x / N * 2F1(1/2, N/2; N/2 + 1; sin^2 x) (DLMF 8.17.7); near pi/2
  it is the complement of B(N/2, 1/2) / 2 * I_{cos^2 x}(1/2, N/2).  Each
  side takes the continued fraction of DLMF 8.17.22 where it converges
  fast, summed backward; B(N/2, 1/2) comes from ``math.gamma``.
* kappa = 0: v(r) = (1 - r/C)^N and v^-1(eta) = C (1 - eta^(1/N)).
* kappa < 0, ball: s = sinh(k (C - t)) / sinh(k C), and int_0^w sinh^(N-1)
  = sinh^(N-1) w tanh w / N * 2F1(1, 1/2; N/2 + 1; tanh^2 w) (DLMF 15,
  the Pfaff transform 15.8.1 of 8.17.7 at imaginary angle), the 2F1
  factor again the continued fraction of DLMF 8.17.22.  Below N = 10,
  past w = 3/2, the integral is continued by the binomial series of
  sinh^(N-1) in w itself, since every form in tanh^2 w loses digits as
  tanh^2 w -> 1.
* kappa < 0 outside the ball (growth only): the same sinh form, an exact
  exponential, or int cosh^(N-1) by its 2F1 series (DLMF 15.2.1) and a
  binomial series.
* horospherical: s = e^(-lam t), so int_0^inf s^(N-1) = 1 / ((N-1) lam).
* Gaussian: S(r) = erfc(z) / erfc(z0) with z = (K r + Lam) / sqrt(2K),
  computed through the scaled erfcx (DLMF 7.2); K = 0 gives e^(-Lam r).
  ``erfcx`` is e^(z^2) erfc(z) on ``math.erfc`` with z^2 split exactly
  while erfc(z) is a normal float, and Laplace's continued fraction
  (DLMF 7.9.2) beyond.

Each inverse solves log(tail mass) = log eta, whose left side is concave,
from a start: for kappa > 0 the leading term of Temme's uniform
asymptotic inversion of the incomplete beta function, an inverse of erfc
(the standard library's inverse normal CDF, imported at a process's first
inversion); for kappa < 0 a step from r = 0, where the forward map and its
derivatives are known; for the Gaussian tail the erfc inverse itself; and
an analytic bracket end where these fail.  The derivatives of the log
tail mass follow from its slope by a Riccati equation, so each step is of
sixth order at the cost of one forward evaluation, and one or two steps
usually reach rounding level; bisection is the safeguard.  No quadrature
runs here; the adaptive quadrature these forms replaced is the oracle of
``tests/test_jacobi_oracle.py``.

Every kernel runs on ``math``, ``statistics`` and numpy alone: this module
imports no SciPy, whose ``scipy.special`` costs more to import than numpy.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from ._numpy import np
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
    "ball_kernel",
    "ball_tail",
    "ball_inverse",
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
_LOG_HUGE = math.log(sys.float_info.max)
_LOG_HALF_SQRT_PI = math.log(0.5 * math.sqrt(math.pi))

# The sixth-order steps on the exact forward maps take one or two
# evaluations from the starts used here; the cap leaves room for the
# bisection safeguard to halve a bracket down to rounding level from any
# start.
_NEWTON_MAX_STEPS = 200
_NEWTON_RTOL = 4.0 * sys.float_info.epsilon
_CF_MAX_TERMS = 100000
_LOG_EPS = math.log(sys.float_info.epsilon)
# past this contraction ``_beta_cf`` would need more than 64 pairs of terms
_CF_RHO_MAX = math.exp(_LOG_EPS / 128.0)
# Below N = 10 the sinh continued fraction serves up to this angle, where
# it takes about 20 pairs of terms; past it, as tanh^2 w nears 1, it needs
# ever more and loses the digits of 1 - tanh^2 w, and ``_sinh_2f1_far``
# serves (6 ulps at most)
_SINH_SPLIT = 1.5


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
        if not 2 <= self.n <= sys.float_info.max:
            raise DomainError(f"dimension must be >= 2 and within the float range, got {self.n}")

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

        kappa > 0:  cos(sqrt(kappa) t) - (lam/sqrt(kappa)) sin(sqrt(kappa) t)
        kappa = 0:  1 - lam t
        kappa < 0:  cosh(sqrt(|kappa|) t) - (lam/sqrt(|kappa|)) sinh(sqrt(|kappa|) t)

    Vectorized in ``t``; ``t`` must be >= 0.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("profile argument t must be >= 0")
    kappa = float(kappa)
    lam = float(lam)
    # sin(k t) / k and sinh(k t) / k tend to t, so a near-flat profile keeps
    # the digits of 1 - lam t however small |kappa| is
    if kappa > 0:
        rk = math.sqrt(kappa)
        out = np.cos(rk * t) - lam * (np.sin(rk * t) / rk)
    elif kappa == 0:
        out = 1.0 - lam * t
    else:
        # as e^{-k t} + (1 - lam/k) sinh(k t), so that the horospherical case
        # decays exactly instead of cancelling inf - inf
        rk = math.sqrt(-kappa)
        c = 1.0 - lam / rk
        with np.errstate(over="ignore"):
            out = np.exp(-rk * t) if c == 0.0 else np.exp(-rk * t) + c * np.sinh(rk * t)
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
        return math.atan2(rk, lam) / rk
    if kappa == 0:
        return 1.0 / lam
    rk = math.sqrt(-kappa)
    return math.log1p(2.0 * rk / (lam - rk)) / (2.0 * rk)  # atanh(k / lam) / k


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

def _square(x: float) -> tuple[float, float]:
    """(x * x, e) with x^2 = x * x + e exactly: Dekker's product, which
    splits x into two 26-bit halves whose products round exactly."""
    hi = _SPLIT * x
    hi -= hi - x
    lo = x - hi
    square = x * x
    return square, ((hi * hi - square) + 2.0 * hi * lo) + lo * lo


def _log_sinh(w: float) -> float:
    if w < 20.0:
        return math.log(math.sinh(w))
    return w - _LOG2 + math.log1p(-math.exp(-2.0 * w))


def _log_add(a: float, b: float) -> float:
    """log(e^a + e^b)."""
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi)) if lo > -math.inf else hi


def _sin_series(N: float, c: float) -> bool:
    """Whether theta with cos theta = c lies where the continued fraction
    of I_{sin^2}(N/2, 1/2) converges fast: sin^2 < (a + 1) / (a + 5/2).
    On the rest of [0, pi/2] that of I_{cos^2}(1/2, N/2) does."""
    return c >= 0.0 and c * c > 1.5 / (0.5 * N + 2.5)


def _log_half_beta(N: float) -> float:
    """log B(N/2, 1/2) / 2 = log int_0^(pi/2) sin^(N-1).

    Below a = N/2 = 50 it is log(Gamma(a) / Gamma(a + 1/2) * sqrt(pi) / 2)
    on ``math.gamma``, whose quotient keeps the relative precision that a
    difference of two log-gammas loses.  Beyond,
    log B(a, 1/2) = log Gamma(1/2) - log(Gamma(a + 1/2) / Gamma(a)) comes
    from the asymptotic series of the ratio (DLMF 5.11), whose next term is
    below 1e-18 at a = 50.
    """
    a = 0.5 * N
    if a < 50.0:
        return math.log(math.gamma(a) / math.gamma(a + 0.5)) + _LOG_HALF_SQRT_PI
    log_ratio = (0.5 * math.log(a) - 1.0 / (8.0 * a) + 1.0 / (192.0 * a**3)
                 - 1.0 / (640.0 * a**5) + 17.0 / (14336.0 * a**7))
    return _LOG_HALF_SQRT_PI - log_ratio


def _beta_cf(a: float, b: float, x: float, extra_pairs: float = 0.0) -> float:
    """The continued fraction h of DLMF 8.17.22, I_x(a, b) =
    x^a (1-x)^b / (a B(a, b)) * h; it converges fast for
    x < (a + 1) / (a + b + 2).

    Its partial numerators tend to -x/4, so its tails tend to
    t = (1 + sqrt(1 - x)) / 2 and contract by rho = x / (1 + sqrt(1 - x))^2
    per term there.  It is summed backward from t over log(eps) / (2 log rho)
    pairs of terms plus ``extra_pairs`` (for early partial numerators above
    the limit), which leaves about an ulp where the products of the modified
    Lentz method leave 5 to 10.  Where that count passes 64 (x near 1) the
    number of pairs is the one at which Lentz's method converges.
    """
    root = math.sqrt(1.0 - x)
    rho = x / (1.0 + root) ** 2
    if rho <= _CF_RHO_MAX:
        pairs = math.ceil(_LOG_EPS / (2.0 * math.log(rho)) + extra_pairs) if rho > 0.0 else 1
    else:
        pairs = _lentz_pairs(a, b, x)
    t = 0.5 * (1.0 + root)
    ab = a + b
    m = float(pairs)
    while m:
        am = a + m
        a2m = am + m
        t = 1.0 - am * (ab + m) * x / (a2m * (a2m + 1.0) * t)
        t = 1.0 + m * (b - m) * x / ((a2m - 1.0) * a2m * t)
        m -= 1.0
    return 1.0 / (1.0 - ab * x / ((a + 1.0) * t))


def _lentz_pairs(a: float, b: float, x: float) -> int:
    """Pairs of terms after which the modified Lentz method for
    ``_beta_cf`` converges; ``or _TINY`` keeps a vanishing partial
    denominator from dividing by zero."""
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0) or _TINY)
    for m in range(1, _CF_MAX_TERMS):
        even = m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m))
        d = 1.0 / (1.0 + even * d or _TINY)
        c = 1.0 + even / c or _TINY
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))
        d = 1.0 / (1.0 + odd * d or _TINY)
        c = 1.0 + odd / c or _TINY
        if abs(d * c - 1.0) <= _NEWTON_RTOL:
            break
    return m


def _sin_2f1(N: float, s: float, c: float) -> float:
    """2F1(1/2, N/2; N/2 + 1; sin^2) = cos * h(N/2, 1/2, sin^2) (DLMF 8.17.7
    against 8.17.22), where ``_sin_series(N, cos)`` holds."""
    return c * _beta_cf(0.5 * N, 0.5, s * s)


def _log_sin_parts(N: float, s: float, c: float, log_half_beta: float) -> tuple[float, float]:
    """(log int_0^theta, log int_theta^(pi/2)) of sin^(N-1) for theta in
    (0, pi/2], s = sin theta, c = cos theta; the two add up to
    B(N/2, 1/2) / 2 = e^log_half_beta.

    One continued fraction, on its fast side, gives one part and the other
    is the complement: where ``_sin_series`` holds the lower part is
    sin^N / N * 2F1(1/2, N/2; N/2 + 1; sin^2) (DLMF 8.17.7), and elsewhere
    the upper part is B(N/2, 1/2) / 2 * I_{cos^2}(1/2, N/2)
    = cos sin^N h(1/2, N/2, cos^2) (DLMF 8.17.22).
    """
    if s == 0.0:
        return -math.inf, log_half_beta
    if _sin_series(N, c):
        lower = N * math.log(s) - math.log(N) + math.log(_sin_2f1(N, s, c))
        return lower, _log_sub(log_half_beta, lower)
    # the fraction's early partial numerators, near N c^2 / (8m), exceed its
    # limit -c^2/4 and take up to 2 + 1.5 N c^2 pairs more; sin^N is taken
    # as (1 - c^2)^(N/2), which keeps the relative digits of c
    x = c * c
    upper = (math.log(c * _beta_cf(0.5, 0.5 * N, x, 2.0 + 1.5 * N * x)) + 0.5 * N * math.log1p(-x)
             if c > 0.0 else -math.inf)
    return _log_sub(log_half_beta, upper), upper


def _log_int_sin(N: float, s: float, c: float, log_half_beta: float) -> float:
    """log int_0^theta sin^(N-1) for theta in (0, pi), s = sin theta, c = cos theta.
    Past pi/2 it is B(N/2, 1/2) / 2 plus the upper part at pi - theta."""
    if c >= 0.0:
        return _log_sin_parts(N, s, c, log_half_beta)[0]
    return _log_add(log_half_beta, _log_sin_parts(N, s, -c, log_half_beta)[1])


def _sinh_2f1(N: float, w: float, t: float) -> float:
    """2F1(1, 1/2; N/2 + 1; tanh^2 w) for w > 0, t = tanh w.

    It is h(N/2, (1-N)/2, tanh^2) (DLMF 8.17.8 against 8.17.22).  From
    N = 10 the continued fraction holds 2e-14 for every w.  Below, every
    form in tanh^2 loses digits as tanh^2 -> 1 (the 2F1 then varies like
    (1 - tanh^2)^((N-1)/2), and tanh^2 rounds to 1 from w = 19), so past
    w = 3/2 the integral is continued in w itself (``_sinh_2f1_far``).
    """
    if N >= 10.0 or w <= _SINH_SPLIT:
        return _beta_cf(0.5 * N, 0.5 * (1.0 - N), t * t)
    return _sinh_2f1_far(N, w)


def _sinh_2f1_far(N: float, w: float) -> float:
    """``_sinh_2f1`` below N = 10 for w past the split w_s = 3/2.

    The 2F1 is N G(w) / (sinh^m w tanh w) with m = N - 1 and
    G(w) = int_0^w sinh^m = G(w_s) + int_{w_s}^w, and sinh^m = 2^-m e^(m theta)
    (1 - e^(-2 theta))^m integrates by the binomial series term by term.
    Over sinh^m w = 2^-m e^(m w) (1 - q)^m, q = e^(-2w), term j of the
    second integral is (-1)^j binom(m, j) (e^(-2jw) - e^(-2j w_s - m d)) / x
    with x = m - 2j and d = w - w_s, written through expm1 on whichever
    side keeps it finite.  The terms fall like e^(-3j) and end at j = m
    for an integer m.  The alternating sum loses at most coth^m(w_s) < 2.5
    in relative precision.
    """
    m = N - 1.0
    ws = _SINH_SPLIT
    ts, qs = math.tanh(ws), math.exp(-2.0 * ws)
    d = w - ws
    q = math.exp(-2.0 * w)
    damp = math.exp(-m * d)
    total, coef, power, power_split = 0.0, 1.0, 1.0, 1.0
    for j in range(_CF_MAX_TERMS):
        x = m - 2.0 * j
        if x > 0.0:
            term = power * -math.expm1(-x * d) / x
        elif x < 0.0:
            term = power_split * damp * math.expm1(x * d) / x
        else:
            term = power * d
        total += coef * term
        if j > m and abs(coef * term) <= 1e-17 * total:
            break
        coef *= (j - m) / (j + 1.0)
        power *= q
        power_split *= qs
    head = _sinh_2f1(N, ws, ts) * ts / N * math.exp(m * (_log_sinh(ws) - _log_sinh(w)))
    return N / math.tanh(w) * (head + total * math.exp(-m * math.log1p(-q)))


def _log_int_sinh(N: float, w: float) -> float:
    """log int_0^w sinh^(N-1) for w > 0:
    sinh^(N-1) w tanh w / N * 2F1(1, 1/2; N/2 + 1; tanh^2 w), which is
    DLMF 8.17.7 at imaginary angle after the Pfaff transformation (DLMF
    15.8.1); the 2F1 factor lies in [1, N/(N-1)]."""
    t = math.tanh(w)
    return (N - 1.0) * _log_sinh(w) + math.log(t / N) + math.log(_sinh_2f1(N, w, t))


def _log_int_cosh(N: float, w: float) -> float:
    """log int_0^w cosh^(N-1) for w > 0.

    Up to w = 1/2: tanh w * 2F1(1/2, (N+1)/2; 3/2; tanh^2 w) (DLMF 15.2.1),
    of positive terms, summed with the total rescaled in range.  Beyond:
    cosh^m = 2^-m sum_j binom(m, j) e^((m - 2j) theta) integrates term by
    term; with e^(-2 theta) <= 1/e the terms are positive up to j = m and
    negligible after m + 60.  Both series run on ``math`` floats.
    """
    m = N - 1.0
    w1 = min(w, 0.5)
    t = math.tanh(w1)
    z, b = t * t, 0.5 * (N + 1.0)
    term, rest, shift = 1.0, 0.0, 0.0  # the terms after the first sum to rest e^shift
    for k in range(int(2.0 * b * z / (1.0 - z) + 10.0 * math.sqrt(b * z) / (1.0 - z) + 60.0)):
        term *= (k + 0.5) * (k + b) * z / ((k + 1.5) * (k + 1.0))
        rest += term
        if rest > 1e250:
            shift, term, rest = shift + math.log(rest), term / rest, 1.0
    head = math.log(t) + _log_add(0.0, shift + math.log(rest) if rest else -math.inf)
    if w == w1:
        return head
    # the summands peak at j = m q / (1 + q), q = e^(-2w) <= 1/e, with a
    # width of order sqrt(m); 12 widths each side leave e^-300 out
    q = math.exp(-2.0 * w)
    peak = m * q / (1.0 + q)
    reach = 12.0 * math.sqrt(m) + 60.0
    # binom(m, j) = 0 past an integer m
    stop = min(math.floor(m) + 61.0, math.ceil(peak + reach), m + 1.0 if m == math.floor(m) else math.inf)
    span, log_gamma_m = w - w1, math.lgamma(m + 1.0)
    terms = []  # (log |summand|, sign of Gamma(m - j + 1))
    for j in range(int(max(0.0, math.floor(peak - reach))), int(stop)):
        beta = m - 2.0 * j
        # int_{w1}^{w} e^(beta theta) d theta, written without cancellation
        log_int = math.log(span) if beta == 0.0 else (
            max(beta * w, beta * w1) + math.log(-math.expm1(-abs(beta) * span) / abs(beta)))
        terms.append((log_gamma_m - math.lgamma(j + 1.0) - math.lgamma(m - j + 1.0) + log_int,
                      1.0 if m - j + 1.0 > 0.0 else (-1.0) ** math.ceil(j - m - 1.0)))
    top = max(x for x, _ in terms)
    tail = top + math.log(math.fsum(sg * math.exp(x - top) for x, sg in terms)) - m * _LOG2
    return _log_add(head, tail)


def _log_expm1(y: float) -> float:
    """log(e^y - 1) for y > 0."""
    return math.log(math.expm1(y)) if y < 40.0 else y + math.log1p(-math.exp(-y))


def _log_sub(hi: float, lo: float) -> float:
    """log(e^hi - e^lo) for lo <= hi (lo may be -inf)."""
    return hi + math.log(-math.expm1(lo - hi)) if lo < hi else -math.inf


class BallKernel(NamedTuple):
    """One comparison ball, prepared once for any number of tails and
    inverses: N, the class, the radius C and, at the rim angle X = k C of a
    curved ball, sin X and cos X (kappa > 0) or tanh X (kappa < 0), log G(X),
    log g(X), the 2F1 factor of the series form (None where that form does
    not serve) and, for kappa > 0, log B(N/2, 1/2) / 2; nan where unused."""

    N: float
    cc: CurvatureClass
    C: float
    k: float = math.nan
    X: float = math.nan
    sin: float = math.nan
    cos: float = math.nan
    tanh: float = math.nan
    log_G: float = math.nan
    log_g: float = math.nan
    f: float | None = None
    log_half_beta: float = math.nan


def ball_kernel(N: float, cc: CurvatureClass) -> BallKernel:
    """Validate (N, cc) and prepare its ball; ``DomainError`` unless it has one."""
    N, C = _check_N(N), c_radius(cc)
    if not math.isfinite(C):
        raise DomainError(f"({cc.kappa}, {cc.lam}) does not admit a comparison ball of finite radius")
    if cc.kappa == 0.0:
        return BallKernel(N, cc, C)
    if N > 1e12:  # past it the rim's terms lose the quantile's digits: 5e-10 off at N = 1e13
        raise DomainError(f"the curved ball kernel is accurate only up to 1e12, not at dimension N={N:g}")
    k = math.sqrt(abs(cc.kappa))
    if cc.kappa > 0:
        X = _HALF_PI - math.atan(cc.lam / k)
    else:
        # X = atanh(k / lam) = log1p(2k / (lam - k)) / 2, with lam - k taken as
        # (lam^2 + kappa) / (lam + k) and lam^2 split exactly, so that a pair
        # near the horospherical line keeps the digits of lam - k
        square, square_error = _square(cc.lam)
        X = 0.5 * math.log1p(2.0 * k / ((square + cc.kappa + square_error) / (cc.lam + k)))
    if not X > 0.0:  # lam / sqrt|kappa| past about 1e16 (kappa > 0) or lam^2 overflowing
        raise DomainError(f"({cc.kappa}, {cc.lam}): the rim angle sqrt|kappa| C of the "
                          "comparison ball rounds to 0")
    if cc.kappa > 0:
        s, c = math.sin(X), math.cos(X)
        try:  # from N of about 1e50 on, a factor leaves the float range
            log_half_beta = _log_half_beta(N)
            if _sin_series(N, c):
                f = _sin_2f1(N, s, c)
                log_G = N * math.log(s) - math.log(N) + math.log(f)
            else:
                f, log_G = None, _log_int_sin(N, s, c, log_half_beta)
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"the ball kernel overflows at dimension N={N:g}") from None
        return BallKernel(N, cc, C, k, X, s, c, math.nan, log_G, math.log(s), f, log_half_beta)
    t = math.tanh(X)
    f = _sinh_2f1(N, X, t)
    log_g = _log_sinh(X)
    log_G = (N - 1.0) * log_g + math.log(t / N) + math.log(f)
    return BallKernel(N, cc, C, k, X, math.nan, math.nan, t, log_G, log_g, f)


def _log_ratio(rim: BallKernel, u: float) -> tuple[float, float]:
    """(log G(X - u) / G(X), log g(X - u) / g(X)) for 0 <= u <= X.

    The second is log1p of g(X - u)/g(X) - 1 by the addition theorem,
    so the dominant power term (N - 1) log(g(X - u)/g(X)) keeps its
    relative precision as u -> 0.
    """
    if u <= 0.0:
        return 0.0, 0.0
    N, X = rim.N, rim.X
    if u >= X:
        return -math.inf, -math.inf
    if rim.cc.kappa > 0:
        sX, cX = rim.sin, rim.cos
        su, cu = math.sin(u), math.cos(u)
        s, c = sX * cu - cX * su, cX * cu + sX * su
        if s <= 0.0:
            return -math.inf, -math.inf
        dg = -2.0 * math.sin(0.5 * u) ** 2 - su * cX / sX
        log_dg = math.log1p(dg) if dg > -0.5 else math.log(s / sX)
        if dg > -0.5 and rim.f is not None and _sin_series(N, c):
            return N * log_dg + math.log(_sin_2f1(N, s, c) / rim.f), log_dg
        return _log_int_sin(N, s, c, rim.log_half_beta) - rim.log_G, log_dg
    tX, tu = rim.tanh, math.tanh(u)
    dg = 2.0 * math.sinh(0.5 * u) ** 2 - math.sinh(u) / tX
    if dg <= -0.5:
        return _log_int_sinh(N, X - u) - rim.log_G, _log_sinh(X - u) - rim.log_g
    log_dg = math.log1p(dg)
    t = (tX - tu) / (1.0 - tX * tu)
    log_t = math.log1p(-tu / tX) - math.log1p(-tX * tu)
    return ((N - 1.0) * log_dg + log_t + math.log(_sinh_2f1(N, X - u, t) / rim.f), log_dg)


def _log_head(rim: BallKernel, u: float) -> float:
    """log int_{X-u}^X g^(N-1) for 0 < u <= X.

    As 1 - v this cancels when most of the mass lies below X - u, which
    happens past pi/2 (kappa > 0, lam < 0: the profile peaks inside the
    ray).  There the integral is taken on the mirror side theta -> pi - theta,
    where G is small, or split at pi/2 into two upper parts.
    """
    N, X = rim.N, rim.X
    if rim.cc.kappa > 0 and X > _HALF_PI:
        theta = max(X - u, 0.0)
        s, c = math.sin(theta), math.cos(theta)
        mirror = _log_sin_parts(N, rim.sin, -rim.cos, rim.log_half_beta)
        if c < 0.0:
            return _log_sub(_log_sin_parts(N, s, -c, rim.log_half_beta)[0], mirror[0])
        return _log_add(_log_sin_parts(N, s, c, rim.log_half_beta)[1], mirror[1])
    return rim.log_G + _log_sub(0.0, _log_ratio(rim, u)[0])


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
    if cc.is_ball:
        rim = ball_kernel(N, cc)
        return _log_head(rim, rim.k * u) - m * rim.log_g - math.log(rim.k)
    k = math.sqrt(abs(kappa))
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
        log_mass = _log_add(l_hi, l_lo)
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
    v(0) = 1 to v(C) = 0.  Requires the ball regime and r in [0, C];
    ``ball_tail`` takes many r on one ``ball_kernel``.
    """
    return ball_tail(ball_kernel(N, cc), r)


def ball_tail(kernel: BallKernel, r: float) -> float:
    """``v_ball`` on a prepared kernel."""
    c, r = kernel.C, float(r)
    if not -1e-12 <= r <= c * (1.0 + 1e-12):
        raise DomainError(f"r={r} outside [0, {c}]")
    r = min(max(r, 0.0), c)
    if kernel.cc.kappa == 0.0:
        log_v = kernel.N * math.log1p(-r / c) if r < c else -math.inf
    else:
        log_v = _log_ratio(kernel, kernel.k * r)[0]
    return min(math.exp(log_v), 1.0)


def _taylor_step(fx: float, p0: float, q: tuple[float, float, float, float]) -> tuple[float, float]:
    """(step, error) towards the root of f = log W - const from a point
    where f = fx, W' = -w, the slope is p0 = -w/W < 0 and q = w'/w has the
    Taylor coefficients q = (Q_0, ..., Q_3).

    Since p' = p (q - p), these give the Taylor coefficients of f to fifth
    order, and the step goes to the root of that polynomial by series
    reversion; ``error`` is its last term, which bounds the error of the
    step where the terms fall geometrically.  Far from the root
    (|f'' f / f'^2| > 0.2) the step is Newton's and the error the step.
    """
    q0, q1, q2, q3 = q
    # Taylor coefficients P_k of p, then c_k = f^(k) / (k! f')
    p1 = p0 * (q0 - p0)
    p2 = 0.5 * (p0 * (q1 - p1) + p1 * (q0 - p0))
    p3 = (p0 * (q2 - p2) + p1 * (q1 - p1) + p2 * (q0 - p0)) / 3.0
    p4 = 0.25 * (p0 * (q3 - p3) + p1 * (q2 - p2) + p2 * (q1 - p1) + p3 * (q0 - p0))
    c2, c3, c4, c5 = p1 / (2.0 * p0), p2 / (3.0 * p0), p3 / (4.0 * p0), p4 / (5.0 * p0)
    e = -fx / p0
    if abs(c2 * e) > 0.2:
        return e, e
    # products rather than powers, which raise where a product overflows to inf
    c22, e2 = c2 * c2, e * e
    error = (14.0 * c22 * c22 - 21.0 * c22 * c3 + 6.0 * c2 * c4 + 3.0 * c3 * c3 - c5) * e2 * e2 * e
    return e * (1.0 + e * (-c2 + e * (2.0 * c22 - c3 + e * (5.0 * c2 * (c3 - c22) - c4)))) + error, error


def _newton(f, x: float, lo: float, hi: float) -> float:
    """Root of a decreasing f = log W - const in [lo, hi], where W' = -w.

    ``f(x)`` returns f(x), its slope p = -w/W and the Taylor coefficients
    (Q_0, ..., Q_3) of q = w'/w at x, and each step is ``_taylor_step``:
    of sixth order, it reaches rounding level from a start within 1e-3 in
    one evaluation.  Each step also shrinks the bracket; one that leaves
    it, or a slope lost to underflow, is replaced by bisection, so the
    iteration ends even where f is flat at rounding level.  The iteration
    ends, before the bracket moves, once the step's error is below
    rounding level relative to x.
    """
    for _ in range(_NEWTON_MAX_STEPS):
        fx, p0, q = f(x)
        if fx == 0.0:
            return x
        step = math.nan
        if p0 < 0.0:
            step, error = _taylor_step(fx, p0, q)
            if abs(error) <= _NEWTON_RTOL * abs(x + step):
                return x + step
        if fx > 0.0:
            lo = x
        else:
            hi = x
        x_new = x + step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= _NEWTON_RTOL * abs(x_new):
            return x_new
        x = x_new
    return x


def _sin_start(N: float, T: float) -> float:
    """theta with int_0^theta sin^(N-1) = T B(N/2, 1/2) / 2, approximately,
    for a normal float T < 2: the leading term of N. M. Temme's uniform
    asymptotic inversion (J. Comput. Appl. Math. 41, 1992, 145-157).

    With Z^2 = -2 log sin theta, Z of the sign of pi/2 - theta, and
    mu = N - 1/2, sin^(N-1) d theta = -e^(-mu Z^2 / 2) (1 - Z^4/48 + ...) dZ,
    so T = erfc(Z sqrt(mu / 2)) up to O(1 / mu); ``_newton`` takes the rest.
    """
    Z = _erfc_inverse(T) * math.sqrt(2.0 / (N - 0.5))
    # pi/2 - theta = 2 asin(sqrt((1 - sin theta) / 2)) keeps its digits near pi/2
    return _HALF_PI - math.copysign(2.0 * math.asin(math.sqrt(-0.5 * math.expm1(-0.5 * Z * Z))), Z)


def v_inverse(N: float, cc: CurvatureClass, eta: float) -> float:
    """Unique r in [0, C] with v(r) = eta.

    kappa = 0: r = C (1 - eta^(1/N)).  A curved ball solves
    log G(X - u) - log G(X) = log eta in u = k r, whose left side is
    concave because G integrates a log-concave power.  So the root lies
    below the tangent's root u = -log eta G(X) / g(X)^(N-1), and below
    X (1 - (eta min(1, g(X)/X)^(N-1))^(1/N)), where v <= eta.  The start is
    ``_sin_start`` (one erfc inverse) for kappa > 0 where eta G(X) /
    (B(N/2, 1/2) / 2) is a normal float, and for kappa < 0 a ``_taylor_step``
    from u = 0, where the forward map is 0 and its derivatives come from the
    rim; the lesser bound where that start falls outside the bounds.  The
    steps of ``_newton`` on the exact forward map, whose slope is
    -g^(N-1) / G and whose higher derivatives follow from the slope, then
    converge to rounding level.  ``ball_inverse`` takes many eta on one kernel.
    """
    return ball_inverse(ball_kernel(N, cc), eta)


def ball_inverse(kernel: BallKernel, eta: float) -> float:
    """``v_inverse`` on a prepared kernel."""
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    if eta == 1.0:
        return 0.0
    if eta == 0.0:
        return kernel.C
    N, log_eta = kernel.N, math.log(eta)
    if kernel.cc.kappa == 0.0:
        return kernel.C * -math.expm1(log_eta / N)
    m = N - 1.0
    X, log_G, log_g = kernel.X, kernel.log_G, kernel.log_g
    u_hi = X * -math.expm1((log_eta + m * min(0.0, log_g - math.log(X))) / N)
    tangent = math.log(-log_eta) + log_G - m * log_g
    if tangent < _LOG_HUGE:
        u_hi = min(u_hi, math.exp(tangent))
    # w = g(X - u)^(N-1): q = w'/w = m r with r = -g'/g at X - u and r' = sign - r^2
    sign, g_over_slope = (-1.0, math.tan) if kernel.cc.kappa > 0 else (1.0, math.tanh)

    def q_series(u):
        r0 = -1.0 / g_over_slope(X - u)
        r1 = sign - r0 * r0
        r2 = -r0 * r1
        r3 = -(2.0 * r0 * r2 + r1 * r1) / 3.0
        return m * r0, m * r1, m * r2, m * r3

    def f(u):
        log_v, log_dg = _log_ratio(kernel, u)
        # at the rim (u = X) the profile vanishes, f has no slope and q a pole
        return (log_v - log_eta, -math.exp(m * (log_g + log_dg) - log_G - log_v),
                q_series(u) if u < X else None)

    if kernel.cc.kappa > 0:
        T = math.exp(log_eta + log_G - kernel.log_half_beta)
        u0 = X - _sin_start(N, T) if _TINY <= T < 2.0 else u_hi
    else:
        # f = -log eta at u = 0, with the slope -g(X)^(N-1) / G(X)
        u0 = _taylor_step(-log_eta, -math.exp(m * log_g - log_G), q_series(0.0))[0]
    if not 0.0 < u0 <= u_hi:
        u0 = u_hi

    try:  # from N of about 1e20 on, the forward map leaves the float range
        return min(_newton(f, u0, 0.0, u_hi), X) / kernel.k
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"the ball quantile overflows at dimension N={N:g}") from None


# ---------------------------------------------------------------------------
# the Gaussian regime
# ---------------------------------------------------------------------------

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2 = math.sqrt(2.0)
_ERFC_NORMAL = 26.5  # erfc(26.5) = 3.4e-307 is still a normal float
_LAPLACE_TERMS = 8  # from z = 26.5 on, 6 terms of the fraction reach 1 ulp

def erfcx(z: float) -> float:
    """The scaled complementary error function e^(z^2) erfc(z) (DLMF 7.2).

    While erfc(z) is a normal float (z < 26.5) this is the product itself,
    with z^2 split exactly so that the exponent keeps its digits; it is
    inf where the product overflows (z < -26.6287).  Beyond, it is
    Laplace's continued fraction (DLMF 7.9.2)
    sqrt(pi) erfcx(z) = 1 / (z + (1/2) / (z + 1 / (z + (3/2) / (z + ...)))),
    evaluated backward.  Both agree with 40 digits to 3 ulps.
    """
    if z < _ERFC_NORMAL:
        square, error = _square(z)
        if square > _LOG_HUGE:
            return math.inf
        return math.exp(square) * math.erfc(z) * (1.0 + error)
    t = z
    for k in range(_LAPLACE_TERMS, 0, -1):
        t = z + 0.5 * k / t
    return 1.0 / (_SQRT_PI * t)


@functools.cache
def _inverse_normal_cdf():
    """``statistics.NormalDist().inv_cdf``, imported at the first call, since
    ``statistics`` loads ``fractions`` and ``decimal`` (3-5 ms cold)."""
    from statistics import NormalDist
    return NormalDist().inv_cdf


def _erfc_inverse(p: float) -> float:
    """z with erfc(z) = p, for a normal float p in (0, 2).

    erfc(z) = 2 Phi(-z sqrt(2)), and Phi^-1 is Wichura's AS 241 (Appl.
    Statist. 37, 1988), within 1e-15 relative of erfc^-1 on this range.
    """
    return -_inverse_normal_cdf()(0.5 * p) / _SQRT_2


def _require_admissible(ic: InfiniteCurvature) -> None:
    if not ic.admissible:
        raise DomainError(
            f"(K, Lam) = ({ic.K}, {ic.Lam}) has divergent Gaussian weight; "
            "need K > 0, or K = 0 with Lam > 0"
        )


def _log_gaussian_tail(K: float, Lam: float, r: float) -> float:
    """log S(r) with S = erfc(z(r)) / erfc(z0), z = (K r + Lam) / sqrt(2K).

    The ratio itself while erfc(z) is a normal float.  Past that, erfc is
    taken through erfcx(z) = e^(z^2) erfc(z) (DLMF 7.2), and for z0 >= 0
    e^(z0^2 - z^2) is written as e^(-r (K r / 2 + Lam)), so the ratio
    neither underflows nor cancels.
    """
    if K == 0.0:
        return -Lam * r
    root = math.sqrt(2.0 * K)
    z0 = Lam / root
    z = (K * r + Lam) / root
    if z < _ERFC_NORMAL:
        return math.log(math.erfc(z) / math.erfc(z0))
    if z0 >= 0.0:
        return math.log(erfcx(z) / erfcx(z0)) - r * (0.5 * K * r + Lam)
    return math.log(erfcx(z)) - z * z - math.log(math.erfc(z0))


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

    The start is z = erfc^-1(eta erfc(z0)) (``_erfc_inverse``, the
    standard library's inverse normal CDF) when that product is a normal
    float, and otherwise the upper bracket where the Gaussian factor alone
    reaches eta (erfcx decreases, so S lies below that factor); the steps
    of ``_newton`` on the concave log S, whose slope is
    -sqrt(2K/pi) / erfcx(z) and whose weight has w'/w = -(K r + Lam), then
    converge to rounding level.
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
    p = eta * math.erfc(Lam / root)
    if p >= _TINY:
        r0 = min(max((root * _erfc_inverse(p) - Lam) / K, 0.0), r_hi)
    slope_scale = math.sqrt(2.0 * K / math.pi)

    def f(r):
        z = (K * r + Lam) / root
        # q = w'/w = -(K r + Lam) for the weight w = e^(-K r^2 / 2 - Lam r)
        return (_log_gaussian_tail(K, Lam, r) - log_eta, -slope_scale / erfcx(z),
                (-z * root, -K, 0.0, 0.0))

    return _newton(f, r0, 0.0, r_hi)

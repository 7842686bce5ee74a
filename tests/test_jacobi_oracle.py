"""Oracles for the closed-form comparison kernels.

Two references, each independent of the closed forms in ``jacobi``:

* the adaptive-quadrature route those forms replaced: ``quad`` of the
  clamped profile power for v, brentq over it for the inverse, and
  ``quad`` of the Gaussian weight for S.  ``epsabs=0`` makes quad judge
  tail mass relatively.
* 40-digit incomplete beta functions from mpmath, for large N and points
  deep in the tail, where double-precision quadrature cannot resolve the
  answer.  An inverse is checked by one 40-digit Newton step from the
  float result, whose error is quadratic in ours.

The tolerance is a relative difference of 1e-12 plus 32 ulps times the
condition number of the quantity checked: |d log r / d log eta| for an
inverse and |d log v / d log r| for v.  The condition term matters only
as eta -> 1, where a relative ulp of eta moves r by a relative
eta / (1 - eta) ulps, and for v deep in the tail at large N.
"""

import inspect
import itertools
import json
import math
import os
import statistics
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from boundarylab import jacobi
from boundarylab.jacobi import c_radius, classify, classify_infinite

EPS = np.finfo(float).eps
REL = 1e-12


def within(value, ref, cond):
    return abs(value - ref) <= (REL + 32 * EPS * cond) * abs(ref)


def inverse_cond(eta):
    """Bound on |d log r / d log eta| for the inverse of a log-concave
    tail: concavity gives |r (log v)'(r)| >= |log v(r)|."""
    return 1.0 / -math.log(eta)


# ---------------------------------------------------------------------------
# reference 1: the quadrature route
# ---------------------------------------------------------------------------

def quad_v_ball(N, cc, r):
    c = c_radius(cc)

    def f(t):
        return jacobi.s_profile_clamped(cc, t) ** (N - 1.0)

    num, _ = quad(f, r, c, epsabs=0.0, epsrel=1e-13, limit=400)
    den, _ = quad(f, 0.0, c, epsabs=0.0, epsrel=1e-13, limit=400)
    return num / den


def quad_v_inverse(N, cc, eta):
    return brentq(lambda r: quad_v_ball(N, cc, r) - eta, 0.0, c_radius(cc),
                  xtol=1e-300, rtol=4 * EPS)


def quad_gaussian_tail(ic, r):
    def w(t):
        return math.exp(-0.5 * ic.K * t * t - ic.Lam * t)

    num, _ = quad(w, r, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    den, _ = quad(w, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return num / den


# ---------------------------------------------------------------------------
# reference 2: 40-digit incomplete beta functions
# ---------------------------------------------------------------------------

mp.mp.dps = 40


class MpBall:
    """The ball kernels of a float (kappa, lam) in 40 digits.

    With rim angle X = k C the profile is g(X - k t) / g(X), and
    G(theta) = int_0^theta g^(N-1) is an incomplete beta function:
    B_{sin^2}(N/2, 1/2) / 2 for g = sin (reflected past pi/2) and
    B_{tanh^2}(N/2, (1-N)/2) / 2 for g = sinh (substitute tanh^2 theta).
    These are other identities than the library's and another, arbitrary
    precision, implementation; 40-digit quadrature agrees with them.
    """

    def __init__(self, N, kappa, lam):
        self.N = mp.mpf(N)
        self.m = self.N - 1
        self.kappa = kappa
        kappa, lam = mp.mpf(kappa), mp.mpf(lam)
        if kappa > 0:
            self.k = mp.sqrt(kappa)
            self.X = mp.pi / 2 - mp.atan(lam / self.k)
            self.g = mp.sin
        elif kappa == 0:
            self.k = lam
            self.X = mp.mpf(1)
            self.g = lambda x: x
        else:
            self.k = mp.sqrt(-kappa)
            self.X = mp.atanh(self.k / lam)
            self.g = mp.sinh
        self.C = self.X / self.k
        self.log_total = mp.log(self.G(self.X))

    def G(self, theta):
        theta = max(theta, 0)
        a = self.N / 2
        if self.kappa > 0:
            half = self.mirror(theta)
            return half if theta <= mp.pi / 2 else mp.beta(a, 0.5) - half
        if self.kappa == 0:
            return theta ** self.N / self.N
        return mp.betainc(a, (1 - self.N) / 2, 0, mp.tanh(theta) ** 2) / 2

    def mirror(self, theta):
        """G(min(theta, pi - theta)) for g = sin.  Within 2/N of
        cos^2 = 0 the series at sin^2 converges slowly, and there the
        complement in cos^2 is a small part of the half beta function."""
        a = self.N / 2
        c2 = mp.cos(theta) ** 2
        if c2 >= min(0.5, 2 / self.N):
            return mp.betainc(a, 0.5, 0, 1 - c2) / 2
        return (mp.beta(a, 0.5) - mp.betainc(0.5, a, 0, c2)) / 2

    def s(self, t):
        return self.g(self.X - self.k * t) / self.g(self.X)

    def log_v(self, r):
        return mp.log(self.G(self.X - self.k * r)) - self.log_total

    def growth(self, u):
        theta = max(self.X - self.k * u, 0)
        if self.kappa > 0 and theta > mp.pi / 2:
            # both ends past pi/2: the mirror side keeps the digits
            mass = self.mirror(theta) - self.mirror(self.X)
        else:
            mass = self.G(self.X) - self.G(theta)
        return mass / (self.k * self.g(self.X) ** self.m)

    def dlog_v(self, r, log_v):
        """d log v / dr = -s(r)^(N-1) / int_r^C s^(N-1)."""
        tail = mp.exp(log_v + self.log_total) / (self.k * self.g(self.X) ** self.m)
        return -self.s(r) ** self.m / tail


def check_ball_mp(N, kappa, lam, eta):
    """v_inverse against one 40-digit Newton step from its result, and
    v_ball at that point against 40 digits."""
    ball = MpBall(N, kappa, lam)
    cc = classify(kappa, lam)
    r = jacobi.v_inverse(N, cc, eta)
    r_mp = mp.mpf(r)
    log_v = ball.log_v(r_mp)
    slope = ball.dlog_v(r_mp, log_v)
    ref = r_mp - (log_v - mp.log(eta)) / slope
    cond = float(1 / abs(ref * slope))
    assert within(r, float(ref), cond), (r, float(ref), cond)
    cond = float(abs(r_mp * slope))
    assert within(jacobi.v_ball(N, cc, r), float(mp.exp(log_v)), cond)


def mp_gaussian(K, Lam, r):
    """(S(r), d log S/dr) in 40 digits."""
    K, Lam, r = mp.mpf(K), mp.mpf(Lam), mp.mpf(r)
    root = mp.sqrt(2 * K)
    z = (K * r + Lam) / root
    S = mp.erfc(z) / mp.erfc(Lam / root)
    return S, -mp.sqrt(2 * K / mp.pi) * mp.exp(-z * z) / mp.erfc(z)


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

etas = st.floats(min_value=1e-6, max_value=1.0, exclude_max=True)
# the quadrature ratio carries ~1e-15 of noise, which decides where v
# crosses eta once 1 - eta is that small
quad_etas = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
positive_curvature = st.floats(0.05, 4.0)


@st.composite
def ball_pairs(draw, regime):
    if regime == "sphere-convex":
        return draw(positive_curvature), draw(st.floats(0.0, 4.0))
    if regime == "sphere-concave":
        return draw(positive_curvature), draw(st.floats(-4.0, -0.01))
    if regime == "flat":
        return 0.0, draw(st.floats(0.05, 4.0))
    kappa = -draw(positive_curvature)
    return kappa, math.sqrt(-kappa) * draw(st.floats(1.001, 6.0))


REGIMES = ["sphere-convex", "sphere-concave", "flat", "hyperbolic"]


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestAgainstQuadrature:
    """Inverses at moderate N, which double-precision quadrature resolves.

    v itself is checked only against mpmath: near C at N close to 1 the
    integrand's derivative is singular, and quad drifts by 1e-8 where
    the closed form agrees with 40 digits to 5e-11 (condition 9e5); the
    inverse is insensitive to that drift.
    """

    @pytest.mark.parametrize("regime", REGIMES)
    @settings(max_examples=12)
    @given(data=st.data(), N=st.floats(1.01, 30.0), eta=quad_etas)
    def test_inverse(self, regime, data, N, eta):
        kappa, lam = data.draw(ball_pairs(regime))
        cc = classify(kappa, lam)
        r = jacobi.v_inverse(N, cc, eta)
        ref = quad_v_inverse(N, cc, eta)
        assert within(r, ref, inverse_cond(eta)), (r, ref)

    @settings(max_examples=20)
    @given(K=st.floats(0.05, 5.0), Lam=st.floats(-3.0, 3.0), eta=quad_etas)
    def test_gaussian(self, K, Lam, eta):
        ic = classify_infinite(K, Lam)
        r = jacobi.gaussian_tail_inverse(ic, eta)
        assert within(jacobi.gaussian_tail(ic, r), quad_gaussian_tail(ic, r), 1.0)
        ref = brentq(lambda t: quad_gaussian_tail(ic, t) - eta, 0.0, 2.0 * r + 1.0,
                     xtol=1e-300, rtol=4 * EPS)
        assert within(r, ref, inverse_cond(eta)), (r, ref)


class TestAgainstMpmath:
    """N up to 1000 and eta down to 1e-6, in 40 digits."""

    @pytest.mark.parametrize("regime", REGIMES)
    @settings(max_examples=25)
    @given(data=st.data(), N=st.floats(1.01, 1000.0), eta=etas)
    def test_inverse_and_forward(self, regime, data, N, eta):
        check_ball_mp(N, *data.draw(ball_pairs(regime)), eta)

    @pytest.mark.parametrize(
        "N,kappa,lam,eta",
        [
            (200.0, 1.0, 0.5, 0.5),      # betaincinv alone is 1e-6 off here
            (1000.0, 1.0, 0.5, 0.5),     # sin^N underflows outside log space
            (1000.0, -1.0, 3.0, 0.5),    # sinh^N and 2F1 route underflows
            (1000.0, 1.0, 3.0, 1e-6),    # the whole ball mass is below 1e-300
            (1000.0, 1.0, -0.5, 1e-6),   # reflected past pi/2
            (1000.0, -1.0, 3.0, 0.99),   # r << C: the start of the ray keeps precision
            (1.01, -1.0, 1.01, 1e-6),    # near-horospherical rim, N near 1
            (1.01, -0.05, 0.22383, 0.9947),  # rim at w = 3.8, past the split of _sinh_2f1
            (2.29, -0.46, 0.68, 3.7e-159),   # the bracket end rounds onto the rim
            (1.002, 24.0, 87.8, 4.4e-210),
            (1000.0, 0.0, 1.0, 1e-6),
        ],
    )
    def test_named_cases(self, N, kappa, lam, eta):
        check_ball_mp(N, kappa, lam, eta)

    @pytest.mark.parametrize("kappa,lam", [(1.0, 0.4), (1.0, -0.4), (0.0, 0.4), (-1.0, 1.7)])
    @pytest.mark.parametrize("N", [1.01, 7.0, 1000.0])
    @pytest.mark.parametrize("frac", [1e-3, 0.3, 1.0])
    def test_growth(self, kappa, lam, N, frac):
        ball = MpBall(N, kappa, lam)
        u = min(float(ball.C) * frac, float(ball.C))
        ref = float(ball.growth(mp.mpf(u)))
        assert within(jacobi.s_growth(N, classify(kappa, lam), u), ref, 1.0)

    @settings(max_examples=60)
    @given(K=st.floats(1e-3, 10.0), Lam=st.floats(-40.0, 40.0), eta=etas)
    def test_gaussian(self, K, Lam, eta):
        ic = classify_infinite(K, Lam)
        r = jacobi.gaussian_tail_inverse(ic, eta)
        S, slope = mp_gaussian(K, Lam, r)
        ref = r - (mp.log(S) - mp.log(eta)) / slope
        assert within(r, float(ref), float(1 / abs(ref * slope)))
        assert within(jacobi.gaussian_tail(ic, r), float(S), float(abs(r * slope)))


# outside the ball regimes with |lam| < sqrt(-kappa), s = cosh(theta0 + k t) / cosh(theta0):
# the 2F1 series alone (w <= 1/2), the binomial series past it, an integer
# N - 1, theta0 + k t crossing 0, and a 2F1 sum past 1e250 at N = 6000
COSH_CASES = [(3.5, -1.0, 0.5, 2.0), (3.5, -1.0, 0.5, 0.1), (1.01, -1.0, 0.3, 0.2),
              (3.0, -2.0, -1.0, 1.5), (40.0, -0.5, 0.1, 3.0), (1000.0, -1.0, 0.5, 0.3),
              (2.0, -1.0, 0.0, 5.0), (7.5, -4.0, 1.9, 0.05), (6000.0, -1.0, 0.6, 1.0)]


def test_cosh_growth_runs_on_math_and_matches_mpmath():
    """``s_growth`` in the cosh regime sums its series on ``math``: in a
    fresh process it loads no numpy, and each value agrees with a 40-digit
    quadrature within the oracle tolerance, at condition number N: the
    power N - 1 scales the rounding of the profile."""
    src = os.path.dirname(os.path.dirname(jacobi.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import json, sys\nfrom boundarylab import jacobi\n"
            f"values = [jacobi.s_growth(N, jacobi.classify(k, l), r) for N, k, l, r in {COSH_CASES!r}]\n"
            "print(json.dumps([values, 'numpy' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    values, numpy_loaded = json.loads(proc.stdout)
    assert not numpy_loaded
    for (N, kappa, lam, r), value in zip(COSH_CASES, values):
        k = mp.sqrt(-mp.mpf(kappa))
        theta0 = -mp.atanh(mp.mpf(lam) / k)
        ref = mp.quad(lambda t: (mp.cosh(theta0 + k * t) / mp.cosh(theta0)) ** (N - 1), [0, r / 2, r])
        assert within(value, float(ref), N), (N, kappa, lam, r, value, float(ref))


def mp_growth_outside(N, kappa, lam, r):
    """int_0^r s^(N-1) in 40 digits where the profile grows without a zero:
    s = 1 (kappa = 0 = lam), 1 - lam t (kappa = 0 > lam), e^(k t) (lam = -k)
    and sinh(theta0 + k t) / sinh(theta0) (lam < -k), k = sqrt(-kappa)."""
    N, lam, r = mp.mpf(N), mp.mpf(lam), mp.mpf(r)
    if kappa == 0.0:
        return r if lam == 0 else ((1 - lam * r) ** N - 1) / (-lam * N)
    k = mp.sqrt(-mp.mpf(kappa))
    if lam == -k:
        return mp.expm1((N - 1) * k * r) / ((N - 1) * k)
    theta0 = mp.atanh(k / -lam)
    return mp.quad(lambda t: (mp.sinh(theta0 + k * t) / mp.sinh(theta0)) ** (N - 1), [0, r / 2, r])


@pytest.mark.parametrize("kappa,lam", [(0.0, 0.0), (0.0, -0.5), (-1.0, -1.0), (-2.25, -1.5),
                                       (-1.0, -3.0)])
@pytest.mark.parametrize("N", [1.01, 3.5, 40.0])
@pytest.mark.parametrize("r", [1e-3, 0.7, 5.0])
def test_growth_outside_the_ball_regimes(kappa, lam, N, r):
    """``s_growth`` where the profile grows (kappa = 0 with lam <= 0, and
    kappa < 0 with lam <= -sqrt(-kappa)) against its closed forms or, for the
    sinh profile, a 40-digit quadrature, at condition number N."""
    assert jacobi.classify(kappa, lam).regime is jacobi.Regime.NONE
    ref = float(mp_growth_outside(N, kappa, lam, r))
    assert within(jacobi.s_growth(N, classify(kappa, lam), r), ref, N), ref


class TestHorospherical:
    @pytest.mark.parametrize("N", [1.01, 3.0, 1000.0])
    def test_improper_growth_closed_form(self, N):
        cc = classify(-2.0, math.sqrt(2.0))
        assert jacobi.s_growth(N, cc, math.inf) == pytest.approx(
            1.0 / ((N - 1.0) * math.sqrt(2.0)), rel=1e-14
        )


def test_no_quadrature_in_the_library():
    assert "scipy.integrate" not in inspect.getsource(jacobi)


# ---------------------------------------------------------------------------
# erfcx and the start of the Gaussian inverse
# ---------------------------------------------------------------------------

def mp_erfcx(z):
    z = mp.mpf(z)
    return mp.exp(z * z) * mp.erfc(z)


def _around(*points):
    return [float(np.nextafter(z, d)) for z in points for d in (-math.inf, math.inf)]


# the product e^(z^2) erfc(z) runs below 26.5, Laplace's fraction from there on
ERFCX_POINTS = [*np.linspace(-26.5, 26.5, 213), *np.geomspace(26.5, 1e6, 60),
                *_around(0.0, 26.5), 0.0]


class TestErfcx:
    """``jacobi.erfcx`` against 40 digits, and at its overflow edge."""

    def test_grid_and_branch_edges(self):
        for z in ERFCX_POINTS:
            ref = mp_erfcx(z)
            assert abs(jacobi.erfcx(z) - ref) <= 4 * EPS * ref, z

    @settings(max_examples=300)
    @given(z=st.floats(-26.5, 1e6))
    def test_against_mpmath(self, z):
        ref = mp_erfcx(z)
        assert abs(jacobi.erfcx(z) - ref) <= 4 * EPS * ref

    def test_overflow_edge(self):
        """inf exactly where scipy's erfcx overflows; never OverflowError."""
        from scipy.special import erfcx

        for z in np.linspace(-26.64, -26.62, 401):
            value = jacobi.erfcx(float(z))
            assert math.isinf(value) == math.isinf(erfcx(z)), z
            if not math.isinf(value):
                assert abs(value - mp_erfcx(z)) <= 4 * EPS * mp_erfcx(z)
        for z in (-26.7, -27.0, -40.0, -1e300, -math.inf):
            assert jacobi.erfcx(z) == math.inf

    @pytest.mark.parametrize("K,Lam,eta", [
        (0.001, -3.0, 0.25),   # the slope's erfcx overflows at the start
        (0.001, -40.0, 1e-6),
        (1e-3, 40.0, 0.5),     # z past the product's range: Laplace's fraction
        (10.0, -40.0, 0.999),
    ])
    def test_gaussian_inverse_at_the_edges(self, K, Lam, eta):
        ic = classify_infinite(K, Lam)
        r = jacobi.gaussian_tail_inverse(ic, eta)
        S, slope = mp_gaussian(K, Lam, r)
        ref = r - (mp.log(S) - mp.log(eta)) / slope
        assert within(r, float(ref), float(1 / abs(ref * slope)))
        assert within(jacobi.gaussian_tail(ic, r), float(S), float(abs(r * slope)))


def test_erfc_inverse_start():
    """The start is within 2e-15 relative of erfc^-1 for every normal p in
    (0, 2), from the far tail through p near 2."""
    tiny = np.finfo(float).tiny
    ps = [*np.geomspace(tiny, 1.0, 400), *np.linspace(0.01, 1.99, 199),
          *(2.0 - np.geomspace(1e-15, 1e-2, 60))]
    for p in ps:
        p = float(p)
        z = jacobi._erfc_inverse(p)
        ref = mp.findroot(lambda t: mp.erfc(t) - p, mp.mpf(z))
        assert abs(z - ref) <= 2e-15 * abs(ref) + 1e-15, p


def test_gaussian_inverse_evaluation_count(monkeypatch):
    """Forward evaluations per inverse over the comparison-sandwich ranges:
    the closed-form start leaves one Newton step in most cases (a start at
    the bracket end r_hi would need six)."""
    forward = jacobi._log_gaussian_tail
    calls = []
    monkeypatch.setattr(jacobi, "_log_gaussian_tail",
                        lambda *args: calls.append(args) or forward(*args))
    counts = []
    for K, Lam, eta in itertools.product(np.linspace(0.1, 3.0, 9), np.linspace(-1.5, 2.0, 9),
                                         np.linspace(0.05, 0.95, 9)):
        before = len(calls)
        jacobi.gaussian_tail_inverse(classify_infinite(K, Lam), eta)
        counts.append(len(calls) - before)
    assert statistics.median(counts) <= 2


def test_v_inverse_evaluation_count(monkeypatch):
    """Forward evaluations per curved-ball inverse over kappa in [0.05, 3],
    lam in [-1.5, 2], N in [1.5, 60], eta in [0.02, 0.98], and over balls
    of negative curvature: the starts leave one sixth-order step in most
    cases."""
    forward = jacobi._log_ratio
    calls = []
    monkeypatch.setattr(jacobi, "_log_ratio", lambda *args: calls.append(args) or forward(*args))
    rng = np.random.default_rng(11)
    for sign in (1.0, -1.0):
        counts = []
        for _ in range(600):
            kappa = sign * rng.uniform(0.05, 3.0)
            lam = (rng.uniform(-1.5, 2.0) if sign > 0
                   else math.sqrt(-kappa) * rng.uniform(1.001, 4.0))
            before = len(calls)
            jacobi.v_inverse(rng.uniform(1.5, 60.0), classify(kappa, lam), rng.uniform(0.02, 0.98))
            counts.append(len(calls) - before)
        assert statistics.median(counts) <= 2
        assert max(counts) <= 8


def test_ball_inverse_at_the_rim_takes_no_evaluation(monkeypatch):
    """6,000 random curved-ball inverses, eta log-uniform down to 1e-300 and N up to
    1e12: the 363 roots within rounding of the rim C, which bisection took 40-51
    forward evaluations to close, are C without one, and the others take at most 3,
    except 56 with kappa < 0 and eta below 1e-10, whose start from u = 0 lands far
    from the root: they take 4-11."""
    forward = jacobi._log_ratio
    calls = []
    monkeypatch.setattr(jacobi, "_log_ratio", lambda *args: calls.append(args) or forward(*args))
    rng = np.random.default_rng(2030)
    at_rim = 0
    for _ in range(6000):
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        kappa = sign * rng.uniform(0.05, 3.0)
        lam = rng.uniform(-1.5, 2.0) if sign > 0 else math.sqrt(-kappa) * rng.uniform(1.001, 4.0)
        N = math.exp(rng.uniform(math.log(1.5), math.log(1e12)))
        eta = math.exp(rng.uniform(math.log(1e-300), 0.0))
        kernel = jacobi.ball_kernel(N, classify(kappa, lam))
        before = len(calls)
        r = jacobi.ball_inverse(kernel, eta)
        count = len(calls) - before
        if count == 0:
            at_rim += 1
            assert r == kernel.C
        assert count <= (3 if kappa > 0.0 or eta > 1e-10 else 11), (kappa, lam, N, eta)
    assert at_rim == 363

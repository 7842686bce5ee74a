"""Tests for the comparison kernels."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from boundarylab import jacobi
from boundarylab.errors import DomainError
from boundarylab.jacobi import (
    Regime,
    c_radius,
    classify,
    classify_infinite,
    gaussian_tail,
    gaussian_tail_inverse,
    s_growth,
    s_profile,
    v_ball,
    v_inverse,
)


def rk4_profile(kappa, lam, ts):
    """Fourth-order integration of s'' + kappa s = 0, s(0)=1, s'(0)=-lam.

    Independent oracle for the closed forms; vectorized over parameter
    arrays (kappa, lam may be 1-d of the same length).
    """
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    y = np.stack([np.ones_like(kappa), -lam])  # rows: s, s'
    h = ts[1] - ts[0]
    out = np.empty((ts.size,) + kappa.shape)
    out[0] = y[0]

    def deriv(y):
        return np.stack([y[1], -kappa * y[0]])

    for i in range(1, ts.size):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * h * k1)
        k3 = deriv(y + 0.5 * h * k2)
        k4 = deriv(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i] = y[0]
    return out


class TestClassify:
    def test_positive_kappa_is_ball(self):
        assert classify(1.0, 0.0).is_ball

    def test_flat_negative_mean_curvature_is_none(self):
        assert classify(0.0, -1.0).regime is Regime.NONE

    def test_horospherical_detection(self):
        assert classify(-1.0, 1.0).regime is Regime.HOROSPHERICAL

    def test_horospherical_tolerance(self):
        assert classify(-1.0, 1.0 + 1e-13).regime is Regime.HOROSPHERICAL
        assert classify(-1.0, 1.0 + 1e-9).is_ball

    def test_convex_ball_refinement(self):
        assert classify(1.0, 0.5).is_convex_ball
        assert classify(1.0, -0.5).regime is Regime.BALL
        assert not classify(1.0, -0.5).is_convex_ball

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            classify(math.nan, 0.0)
        with pytest.raises(DomainError):
            classify(0.0, math.inf)


class TestProfile:
    def test_flat_case(self):
        assert s_profile(0.0, 1.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_horospherical_exponential(self):
        assert s_profile(-1.0, 1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_cosine_case(self):
        assert s_profile(1.0, 0.0, math.pi / 3) == pytest.approx(0.5, rel=1e-12)

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            s_profile(1.0, 0.0, -0.1)

    def test_ode_consistency(self):
        """Closed forms agree with a fourth-order integrator to 1e-8."""
        rng = np.random.default_rng(20240817)
        kappas = rng.uniform(-4.0, 4.0, size=100)
        lams = rng.uniform(-4.0, 4.0, size=100)
        horizon = np.empty(100)
        for i, (k, l) in enumerate(zip(kappas, lams)):
            horizon[i] = min(c_radius(classify(k, l)), 10.0)
        T = float(horizon.max())
        ts = np.linspace(0.0, T, 10001)
        ode = rk4_profile(kappas, lams, ts)
        for i, (k, l) in enumerate(zip(kappas, lams)):
            mask = ts <= horizon[i]
            closed = np.asarray(s_profile(k, l, ts[mask]))
            np.testing.assert_allclose(
                ode[mask, i], closed, rtol=1e-8, atol=1e-8
            )

    def test_positive_before_radius_zero_at_radius(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            kappa = rng.uniform(-4, 4)
            lam = rng.uniform(-4, 4)
            cc = classify(kappa, lam)
            if not cc.is_ball:
                continue
            c = c_radius(cc)
            ts = np.linspace(0.0, c * (1 - 1e-9), 64)
            assert np.all(np.asarray(s_profile(kappa, lam, ts)) > 0)
            assert abs(s_profile(kappa, lam, c)) < 1e-9


class TestCRadius:
    def test_flat(self):
        assert c_radius(classify(0.0, 2.0)) == pytest.approx(0.5, rel=1e-15)

    def test_spherical(self):
        assert c_radius(classify(1.0, 0.0)) == pytest.approx(math.pi / 2, rel=1e-12)

    def test_hyperbolic(self):
        assert c_radius(classify(-1.0, 2.0)) == pytest.approx(
            0.5 * math.log(3.0), rel=1e-12
        )

    def test_infinite_outside_ball_regime(self):
        assert c_radius(classify(-1.0, 1.0)) == math.inf
        assert c_radius(classify(0.0, -1.0)) == math.inf

    @pytest.mark.parametrize(
        "kappa,lam", [(1.0, 0.0), (-1.0, 2.0), (0.7, -0.4), (2.5, 1.3), (-0.3, 0.9)]
    )
    def test_matches_bisection_on_profile(self, kappa, lam):
        from scipy.optimize import brentq

        cc = classify(kappa, lam)
        c = c_radius(cc)
        # bracket the first zero from below by stepping until the sign flips
        t0 = 0.0
        step = c / 64.0
        while s_profile(kappa, lam, t0 + step) > 0:
            t0 += step
        root = brentq(lambda t: s_profile(kappa, lam, t), t0, t0 + step, xtol=1e-13)
        assert root == pytest.approx(c, abs=1e-10)


class TestGrowth:
    def test_flat_quadratic(self):
        cc = classify(0.0, 1.0)
        assert s_growth(2.0, cc, 0.5) == pytest.approx(0.375, abs=1e-10)

    def test_horospherical_improper(self):
        cc = classify(-1.0, 1.0)
        for N in (2.0, 3.5, 11.0):
            assert s_growth(N, cc, math.inf) == pytest.approx(
                1.0 / (N - 1.0), rel=1e-10
            )

    def test_clamped_past_radius(self):
        cc = classify(0.0, 1.0)
        assert s_growth(2.0, cc, 5.0) == pytest.approx(s_growth(2.0, cc, 1.0), abs=1e-12)
        assert s_growth(2.0, cc, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_monotone_nondecreasing(self):
        cc = classify(1.0, -0.5)
        rs = np.linspace(0.0, 2 * c_radius(cc), 40)
        vals = [s_growth(3.0, cc, r) for r in rs]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_divergent_improper_rejected(self):
        with pytest.raises(DomainError):
            s_growth(2.0, classify(0.0, -1.0), math.inf)

    def test_bad_N_rejected(self):
        with pytest.raises(DomainError):
            s_growth(1.0, classify(1.0, 0.0), 1.0)


class TestBallFunction:
    def test_flat_power_form(self):
        # v for the flat profile is (1 - lam r)^n
        cc = classify(0.0, 0.5)
        assert v_ball(2.0, cc, 1.0) == pytest.approx(0.25, abs=1e-10)

    def test_endpoints(self):
        cc = classify(1.0, 0.3)
        assert v_ball(3.0, cc, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert v_ball(3.0, cc, c_radius(cc)) == pytest.approx(0.0, abs=1e-12)

    def test_spherical_against_quadrature_oracle(self):
        cc = classify(1.0, 0.0)
        num, _ = quad(lambda t: math.cos(t) ** 2, math.pi / 4, math.pi / 2)
        den, _ = quad(lambda t: math.cos(t) ** 2, 0.0, math.pi / 2)
        assert v_ball(3.0, cc, math.pi / 4) == pytest.approx(num / den, abs=1e-10)
        # (pi/8 - 1/4) / (pi/4) = 1/2 - 1/pi
        assert num / den == pytest.approx(0.5 - 1.0 / math.pi, abs=1e-12)
        assert num / den == pytest.approx(0.181690, abs=1e-6)

    def test_rejects_outside_regime_or_range(self):
        with pytest.raises(DomainError):
            v_ball(2.0, classify(-1.0, 1.0), 0.1)
        with pytest.raises(DomainError):
            v_ball(2.0, classify(0.0, 1.0), 1.5)


class TestBallInverse:
    def test_flat_closed_form(self):
        cc = classify(0.0, 0.5)
        assert v_inverse(2.0, cc, 0.25) == pytest.approx(1.0, abs=1e-10)

    def test_endpoint_inversion(self):
        cc = classify(1.0, 0.2)
        assert v_inverse(2.5, cc, 1.0) == 0.0
        assert v_inverse(2.5, cc, 0.0) == pytest.approx(c_radius(cc), rel=1e-12)

    def test_bisection_oracle_high_dimension(self):
        n, kappa, eta = 50, 1.0, 0.5
        cc = classify(kappa / n, 0.0)
        r = v_inverse(n, cc, eta)
        lo, hi = 0.0, c_radius(cc)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if v_ball(n, cc, mid) > eta:
                lo = mid
            else:
                hi = mid
        assert r == pytest.approx(0.5 * (lo + hi), abs=1e-8)

    def test_roundtrip_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            kappa = rng.uniform(-2, 2)
            lam = rng.uniform(-2, 2)
            cc = classify(kappa, lam)
            if not cc.is_ball:
                continue
            N = rng.uniform(1.5, 8.0)
            eta = rng.uniform(0.02, 0.98)
            r = v_inverse(N, cc, eta)
            assert v_ball(N, cc, r) == pytest.approx(eta, abs=1e-8)
            r0 = rng.uniform(0.0, c_radius(cc))
            assert v_inverse(N, cc, v_ball(N, cc, r0)) == pytest.approx(r0, abs=1e-8)


class TestGaussianTail:
    def test_pure_exponential(self):
        ic = classify_infinite(0.0, 2.0)
        assert gaussian_tail(ic, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
        # quadrature oracle for the analytic branch
        num, _ = quad(lambda t: math.exp(-2 * t), 1.0, np.inf)
        den, _ = quad(lambda t: math.exp(-2 * t), 0.0, np.inf)
        assert gaussian_tail(ic, 1.0) == pytest.approx(num / den, rel=1e-9)

    def test_full_mass_at_zero(self):
        assert gaussian_tail(classify_infinite(3.0, -1.0), 0.0) == pytest.approx(1.0)

    def test_half_normal_median(self):
        ic = classify_infinite(1.0, 0.0)
        r = gaussian_tail_inverse(ic, 0.5)
        assert r == pytest.approx(0.674490, abs=1e-6)
        # error-function oracle
        from math import erfc, sqrt

        assert erfc(r / sqrt(2.0)) == pytest.approx(0.5, abs=1e-10)

    def test_admissibility(self):
        assert classify_infinite(0.0, -1.0).admissible is False
        assert classify_infinite(-0.5, 3.0).admissible is False
        with pytest.raises(DomainError):
            gaussian_tail(classify_infinite(0.0, 0.0), 1.0)

    def test_strictly_decreasing_and_K_monotone(self):
        rs = np.linspace(0.0, 3.0, 13)
        for Lam in (-1.0, 0.0, 1.5):
            vals1 = [gaussian_tail(classify_infinite(0.5, Lam), r) for r in rs]
            vals2 = [gaussian_tail(classify_infinite(2.0, Lam), r) for r in rs]
            assert np.all(np.diff(vals1) < 0)
            # larger K concentrates harder: smaller tails everywhere
            assert np.all(np.asarray(vals1) >= np.asarray(vals2) - 1e-12)

    def test_inverse_roundtrip(self):
        ic = classify_infinite(2.0, -0.7)
        for eta in (0.05, 0.3, 0.8, 1.0):
            r = gaussian_tail_inverse(ic, eta)
            assert gaussian_tail(ic, r) == pytest.approx(eta, abs=1e-10)


class TestTwist:
    def test_effective_pair_classifies(self):
        tp = jacobi.TwistParams(3, 0.0, 1.0, 0.5)
        eff = tp.effective()
        assert eff.kappa == pytest.approx(0.0)
        assert eff.lam == pytest.approx(math.exp(-1.0))
        assert eff.is_ball

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            jacobi.TwistParams(1, 0.0, 1.0, 0.0)


class TestInputContract:
    """Non-finite N, r and eta raise DomainError instead of a silent value."""

    @pytest.mark.parametrize("N", [math.nan, math.inf])
    def test_nonfinite_N(self, N):
        cc = classify(1.0, 0.5)
        with pytest.raises(DomainError):
            v_ball(N, cc, 0.1)
        with pytest.raises(DomainError):
            v_inverse(N, cc, 0.5)
        with pytest.raises(DomainError):
            s_growth(N, cc, 0.1)

    def test_nan_radius(self):
        cc = classify(1.0, 0.5)
        with pytest.raises(DomainError):
            v_ball(3.0, cc, math.nan)
        with pytest.raises(DomainError):
            s_growth(3.0, cc, math.nan)
        with pytest.raises(DomainError):
            gaussian_tail(classify_infinite(1.0, 0.0), math.nan)

    def test_nonfinite_gaussian_radius(self):
        with pytest.raises(DomainError):
            gaussian_tail(classify_infinite(1.0, 0.0), math.inf)

    def test_nan_eta(self):
        with pytest.raises(DomainError):
            v_inverse(3.0, classify(1.0, 0.5), math.nan)
        with pytest.raises(DomainError):
            gaussian_tail_inverse(classify_infinite(1.0, 0.0), math.nan)

    def test_improper_growth_still_allowed(self):
        assert s_growth(3.0, classify(1.0, 0.0), math.inf) == pytest.approx(
            s_growth(3.0, classify(1.0, 0.0), math.pi / 2), rel=1e-14
        )

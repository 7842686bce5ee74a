"""Tests for sequence sweeps, distribution laws, and classification."""

import json
import math

import numpy as np
import pytest

from boundarylab import jacobi
from boundarylab.asymptotics import (
    SequenceSpec,
    Verdict,
    classify_concentration,
    distribution_law,
    euclid_ball_sweep,
    hemisphere_sweep,
    warped_sweep,
)
from boundarylab.errors import DomainError
from boundarylab.models import ModelSpace, boundary_screen
from boundarylab.screens import ks_distance


class TestHemisphereSweep:
    def test_limit_is_half_gaussian_quantile(self):
        report = hemisphere_sweep(1.0, 0.5, [8, 16])
        assert report.rows[0].limit == pytest.approx(0.674490, abs=1e-6)

    def test_gap_shrinks(self):
        report = hemisphere_sweep(1.0, 0.5, [100, 400])
        assert report.gaps[1] < report.gaps[0]

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            hemisphere_sweep(1.0, 0.5, [1, 2])

    def test_monotone_gap_across_etas(self):
        ns = [8, 16, 32, 64]
        for eta in (0.25, 0.5, 0.75):
            gaps = hemisphere_sweep(1.0, eta, ns).gaps
            assert np.all(np.diff(gaps) < 0)

    def test_monotone_gap_from_n4_midrange(self):
        # from n = 4 the gap decreases monotonically for eta in [0.15, 0.9];
        # at eta = 0.1 the finite-n value crosses its limit near n = 8 and
        # the absolute gap dips before settling, so monotonicity starts later
        ns = [4, 8, 16, 32, 64]
        for eta in np.arange(0.15, 0.95, 0.05):
            gaps = hemisphere_sweep(1.0, float(eta), ns).gaps
            assert np.all(np.diff(gaps) < 0), f"eta={eta}: {gaps}"
        late = hemisphere_sweep(1.0, 0.1, [16, 32, 64, 128]).gaps
        assert np.all(np.diff(late) < 0)


class TestEuclidBallSweep:
    def test_limit(self):
        report = euclid_ball_sweep(1.0, math.exp(-1.0), [4, 8])
        assert report.rows[0].limit == pytest.approx(1.0, rel=1e-12)

    def test_n_equals_one_row(self):
        report = euclid_ball_sweep(2.0, 0.3, [1])
        assert report.rows[0].value == pytest.approx((1 - 0.3) / 2.0, rel=1e-12)

    def test_cross_check_against_quadrature(self):
        report = euclid_ball_sweep(1.0, 0.5, [2, 8, 32, 128])
        assert report.extras["cross_check_max"] < 1e-9

    def test_expansion_rate(self):
        # n(1 - eta^(1/n)) = a - a^2/(2n) + O(1/n^2) with a = log(1/eta):
        # the flat-ball value approaches its limit from below
        report = euclid_ball_sweep(1.0, 0.5, [1000])
        gap = report.rows[0].value - report.rows[0].limit
        assert -3e-4 < gap < 0.0
        assert abs(gap) == pytest.approx(math.log(2.0) ** 2 / 2000.0, rel=0.01)


class TestWarpedSweep:
    def test_values_and_limit(self):
        report = warped_sweep(-1.0, 0.5, [2, 4])
        assert report.rows[0].value == pytest.approx(2 * math.log(2.0), rel=1e-12)
        assert report.rows[0].limit == pytest.approx(math.log(2.0), rel=1e-12)

    def test_strictly_above_limit(self):
        report = warped_sweep(-2.0, 0.3, [2, 3, 5, 9, 17])
        assert np.all(report.values > report.rows[0].limit)
        assert np.all(np.diff(report.values) < 0)


class TestDistributionLaw:
    def test_self_distance_zero(self):
        s = boundary_screen(ModelSpace.exponential(1.0))
        assert ks_distance(s, s) == 0.0

    def test_warped_law_exact_form(self):
        # finite-n screen is exponential with rate (n-1) lam / n
        finite, ks = distribution_law("warped", -1.0, 10)
        limit = boundary_screen(ModelSpace.exponential(1.0))
        # analytic KS between exponentials with rates a > b:
        # max |e^{-bt} - e^{-at}| at t* = log(a/b)/(a-b)
        a, b = 0.9, 1.0
        t_star = math.log(b / a) / (b - a)
        want = abs(math.exp(-a * t_star) - math.exp(-b * t_star))
        assert ks == pytest.approx(want, abs=1e-6)
        assert ks_distance(finite, limit) == pytest.approx(ks, abs=1e-12)

    def test_doubling_decreases_euclid(self):
        ks_vals = [distribution_law("euclid_ball", 1.0, n)[1] for n in (5, 10, 20, 40)]
        assert np.all(np.diff(ks_vals) < 0)

    def test_doubling_decreases_hemisphere(self):
        ks_vals = [distribution_law("hemisphere", 1.0, n)[1] for n in (8, 16, 32)]
        assert np.all(np.diff(ks_vals) < 0)

    def test_bad_family(self):
        with pytest.raises(DomainError):
            distribution_law("torus", 1.0, 4)


class TestClassify:
    def test_euclid_slow_decay_concentrates(self):
        spec = SequenceSpec(
            "euclid_ball",
            {"lambda": {"kind": "power", "coef": 1.0, "exp": -0.5}},
            [4, 8, 16, 32],
        )
        report = classify_concentration(spec, 0.5)
        assert report.verdict is Verdict.CONCENTRATES_TO_ZERO
        assert np.all(np.diff(report.values) < 0)

    def test_euclid_critical_schedule_bounded(self):
        spec = SequenceSpec(
            "euclid_ball",
            {"lambda": {"kind": "power", "coef": 1.0, "exp": -1.0}},
            [4, 8, 16, 32],
        )
        report = classify_concentration(spec, 0.5)
        assert report.verdict is Verdict.BOUNDED_AWAY

    def test_general_ball_nonconvex_bounded(self):
        spec = SequenceSpec(
            "general_ball",
            {"kappa": 1.0, "lambda": -0.5},
            [2, 4, 8, 16],
        )
        report = classify_concentration(spec, 0.5)
        assert report.verdict is Verdict.BOUNDED_AWAY
        # values indeed level off above the regime floor
        assert report.values[-1] > 0.1

    def test_general_ball_convex_concentrates(self):
        spec = SequenceSpec(
            "general_ball", {"kappa": 1.0, "lambda": 0.5}, [2, 4, 8, 16]
        )
        report = classify_concentration(spec, 0.5)
        assert report.verdict is Verdict.CONCENTRATES_TO_ZERO
        assert report.values[-1] < report.values[0]

    def test_weighted_gauss_family(self):
        spec = SequenceSpec(
            "weighted_warped_gauss",
            {"kappa": {"kind": "const", "value": -1.0}, "delta": 0.3},
            [2, 4, 8, 16, 32],
        )
        report = classify_concentration(spec, 0.4)
        assert report.verdict is Verdict.CONCENTRATES_TO_ZERO
        assert np.all(np.diff(report.values) < 0)

    def test_table_schedule_non_monotone_inconclusive(self):
        spec = SequenceSpec(
            "euclid_ball",
            {"lambda": {"kind": "table", "values": {2: 1.0, 4: 3.0, 8: 0.2}}},
            [2, 4, 8],
        )
        report = classify_concentration(spec, 0.5)
        assert report.verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("values, verdict", [
        ({2: 1.0, 4: 1.0, 8: 1.0}, Verdict.CONCENTRATES_TO_ZERO),  # driver 2, 4, 8: a 4x rise
        ({2: 1.0, 4: 0.51, 8: 0.26}, Verdict.BOUNDED_AWAY),        # 2, 2.04, 2.08: at most 1.05x
        ({2: 1.0, 4: 0.5, 8: 0.2}, Verdict.BOUNDED_AWAY),          # 2, 2, 1.6: nonincreasing
        ({2: 1.0, 4: 1.0, 8: 0.5}, Verdict.INCONCLUSIVE),          # 2, 4, 4: a 2x rise
    ])
    def test_table_schedule_driver_trend(self, values, verdict):
        """A table schedule has no exponent, so the verdict follows the trend
        of the driver n * lambda over the sequence."""
        spec = SequenceSpec("euclid_ball", {"lambda": {"kind": "table", "values": values}},
                            [2, 4, 8])
        assert classify_concentration(spec, 0.5).verdict is verdict

    def test_schedule_regime_violation_names_n(self):
        spec = SequenceSpec(
            "warped",
            {"kappa": {"kind": "table", "values": {2: -1.0, 4: 1.0}}},
            [2, 4],
        )
        with pytest.raises(DomainError, match="n=4"):
            classify_concentration(spec, 0.5)

    def test_from_json(self):
        spec = SequenceSpec.from_json(
            '{"family": "euclid_ball", '
            '"schedule": {"kind": "power", "coef": 1.0, "exp": -0.5}, '
            '"n": [4, 8]}'
        )
        assert "lambda" in spec.schedule
        report = classify_concentration(spec, 0.5)
        assert report.verdict is Verdict.CONCENTRATES_TO_ZERO

    @pytest.mark.parametrize("text, match", [("{", "bad sweep config JSON"),
                                             ("not json", "bad sweep config JSON"),
                                             ("[4, 8]", "JSON object"), ("1", "JSON object")])
    def test_from_json_rejects_non_objects(self, text, match):
        with pytest.raises(DomainError, match=match):
            SequenceSpec.from_json(text)


class TestStructuralBounds:
    def test_convex_ball_dominated_by_hemisphere(self):
        # positive curvature with lam >= 0 concentrates at least as fast
        for n in (2, 4, 8, 16, 32, 64):
            for eta in (0.2, 0.5, 0.8):
                with_lam = jacobi.v_inverse(float(n), jacobi.classify(1.0, 0.7), eta)
                without = jacobi.v_inverse(float(n), jacobi.classify(1.0, 0.0), eta)
                assert with_lam <= without + 1e-10

    def test_horospherical_upper_bound(self):
        # kappa < 0, lam > sqrt(|kappa|): dominated by the warped model value
        for n in (2, 4, 8, 32):
            for eta in (0.25, 0.5, 0.75):
                ball = jacobi.v_inverse(float(n), jacobi.classify(-1.0, 1.4), eta)
                horo = math.log(1.0 / eta) / ((n - 1) * 1.0)
                assert ball <= horo + 1e-10

    def test_sweep_values_nonincreasing_in_eta(self):
        etas = [0.1, 0.3, 0.5, 0.7, 0.9]
        for maker in (
            lambda e: hemisphere_sweep(1.0, e, [8, 16]),
            lambda e: euclid_ball_sweep(1.0, e, [8, 16]),
            lambda e: warped_sweep(-1.0, e, [8, 16]),
        ):
            vals = np.array([maker(e).values for e in etas])
            assert np.all(np.diff(vals, axis=0) <= 1e-12)

    def test_report_serialization(self):
        report = euclid_ball_sweep(1.0, 0.5, [2, 4])
        blob = json.loads(report.to_json())
        assert blob["verdict"] == "converges_to_limit"
        assert report.to_csv().splitlines()[0] == "n,value,limit,gap"


def test_hemisphere_limit_is_the_half_gaussian_quantile():
    # P[T >= r] = erfc(r sqrt(kappa / 2)) on the half-Gaussian ray
    import mpmath

    for kappa in (0.3, 1.0, 7.5):
        for eta in (1e-6, 0.1, 0.5, 0.9):
            limit = hemisphere_sweep(kappa, eta, [2]).rows[0].limit
            z = mpmath.findroot(lambda x: mpmath.erfc(x) - eta, 1.0)
            assert limit == pytest.approx(float(z * mpmath.sqrt(2 / mpmath.mpf(kappa))),
                                          rel=1e-12)

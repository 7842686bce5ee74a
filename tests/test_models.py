"""Tests for the model catalog, comparison bounds, and volume audits."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from boundarylab import jacobi, models, screens
from boundarylab.errors import DomainError, RegimeError
from boundarylab.models import (
    FiniteN,
    Infinite,
    ModelSpace,
    Twisted,
    boundary_screen,
    closed_form_obs_inradius,
    comparison_bound,
    generate_admissible_finite,
    generate_admissible_infinite,
    model_from_json,
    normalization_audit,
    volume_ratio_audit,
)


class TestBoundaryScreen:
    def test_exponential_density(self):
        s = boundary_screen(ModelSpace.exponential(1.0))
        ts = np.linspace(0.0, 5.0, 21)
        np.testing.assert_allclose(s.pdf(ts), np.exp(-ts), rtol=1e-12)

    def test_flat_ball_density(self):
        s = boundary_screen(ModelSpace.ball(2, 0.0, 0.5))
        ts = np.linspace(0.0, 2.0, 21)
        np.testing.assert_allclose(s.pdf(ts), 1.0 - ts / 2.0, atol=1e-10)
        assert s.upper_support == pytest.approx(2.0)

    def test_warped_is_exponential(self):
        s = boundary_screen(ModelSpace.warped(3, -1.0))
        ts = np.linspace(0.0, 4.0, 11)
        np.testing.assert_allclose(s.pdf(ts), 2.0 * np.exp(-2.0 * ts), rtol=1e-12)

    def test_gauss_example_mass_is_one(self):
        m = ModelSpace.weighted_warped_gauss(3, -1.0, 0.0)
        assert normalization_audit(m) == pytest.approx(1.0, abs=1e-10)

    def test_exp_example_mass_is_one(self):
        m = ModelSpace.weighted_warped_exp(3, 7.5, -0.49)
        assert normalization_audit(m) == pytest.approx(1.0, abs=1e-10)

    def test_invariant_violations_rejected(self):
        with pytest.raises(DomainError):
            ModelSpace.ball(2, -1.0, 1.0)  # horospherical, not ball
        with pytest.raises(DomainError):
            ModelSpace.warped(3, 1.0)
        with pytest.raises(DomainError):
            ModelSpace.half_gaussian(0.0, 1.0)
        with pytest.raises(DomainError):
            ModelSpace.exponential(-1.0)
        with pytest.raises(DomainError):
            ModelSpace.weighted_warped_exp(3, 2.0, -1.0)  # N < n


class TestClosedForms:
    def test_warped(self):
        m = ModelSpace.warped(3, -1.0)
        assert closed_form_obs_inradius(m, 0.5) == pytest.approx(
            0.5 * math.log(2.0), rel=1e-12
        )

    def test_flat_ball_power_form(self):
        # (n / (n lam)) (1 - eta^{1/n}) with n=2, lam = 1/2
        m = ModelSpace.ball(2, 0.0, 0.5)
        assert closed_form_obs_inradius(m, 0.25) == pytest.approx(1.0, abs=1e-10)

    def test_eta_one_is_zero(self):
        for m in (
            ModelSpace.ball(3, 1.0, 0.0),
            ModelSpace.exponential(2.0),
            ModelSpace.half_gaussian(1.0, -0.5),
            ModelSpace.weighted_warped_gauss(4, -0.25, 0.3),
        ):
            assert closed_form_obs_inradius(m, 1.0) == 0.0

    def test_eta_out_of_range(self):
        with pytest.raises(DomainError):
            closed_form_obs_inradius(ModelSpace.exponential(1.0), 0.0)
        with pytest.raises(DomainError):
            closed_form_obs_inradius(ModelSpace.exponential(1.0), 1.2)

    def test_pipeline_consistency_spot(self):
        cases = [
            ModelSpace.ball(3, 1.0, 0.2),
            ModelSpace.ball(2, -1.0, 1.5),
            ModelSpace.warped(4, -0.81),
            ModelSpace.half_gaussian(2.0, -1.0),
            ModelSpace.exponential(0.7),
            ModelSpace.weighted_warped_exp(2, 6.0, -0.36),
            ModelSpace.weighted_warped_gauss(3, -1.0, 0.4),
        ]
        for m in cases:
            s = boundary_screen(m)
            for eta in (0.1, 0.5, 0.9):
                assert screens.obs_inradius(s, eta) == pytest.approx(
                    closed_form_obs_inradius(m, eta), abs=1e-8
                )


class TestComparisonBound:
    def test_finite_ball_equals_model_value(self):
        cc = jacobi.classify(1.0, 0.3)
        n = 4
        bound = comparison_bound(FiniteN(float(n), cc), 0.4)
        assert bound == pytest.approx(
            closed_form_obs_inradius(ModelSpace.ball(n, 1.0, 0.3), 0.4), rel=1e-10
        )

    def test_infinite_exponential(self):
        ic = jacobi.classify_infinite(0.0, 2.0)
        assert comparison_bound(Infinite(ic), math.exp(-2.0)) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_twisted_endpoint(self):
        tp = jacobi.TwistParams(3, 0.0, 1.0, 0.5)
        assert comparison_bound(Twisted(tp), 1.0) == 0.0
        want = jacobi.v_inverse(3.0, jacobi.classify(0.0, math.exp(-1.0)), 0.5)
        assert comparison_bound(Twisted(tp), 0.5) == pytest.approx(want, rel=1e-10)

    def test_twisted_horospherical_branch(self):
        tp = jacobi.TwistParams(3, -1.0, 1.0, 0.25)
        want = math.log(2.0) / (2.0 * math.exp(-0.5))
        assert comparison_bound(Twisted(tp), 0.5) == pytest.approx(want, rel=1e-12)

    def test_uncovered_regimes_raise(self):
        with pytest.raises(RegimeError):
            comparison_bound(FiniteN(3.0, jacobi.classify(0.0, -1.0)), 0.5)
        with pytest.raises(RegimeError):
            comparison_bound(Twisted(jacobi.TwistParams(3, 1.0, -0.5, 0.0)), 0.5)
        with pytest.raises(RegimeError):
            comparison_bound(Infinite(jacobi.classify_infinite(0.0, -1.0)), 0.5)


class TestVolumeRatioAudit:
    def test_ball_model_saturates(self):
        cc = jacobi.classify(1.0, 0.0)
        c = jacobi.c_radius(cc)
        t = np.linspace(0.0, c * (1 - 1e-9), 4001)
        density = models.RadialDensity(t, np.cos(t) ** 2 + 1e-300)
        for r, R in [(0.2, 0.9), (0.5, 1.2), (1.0, 1.5)]:
            audit = volume_ratio_audit(density, FiniteN(3.0, cc), r, R)
            assert audit.satisfied
            assert audit.lhs == pytest.approx(audit.rhs, abs=2e-6)

    def test_gauss_example_matches_infinite_comparison(self):
        m = ModelSpace.weighted_warped_gauss(3, -1.0, 0.0)
        a = m.gauss_rate
        t = np.linspace(0.0, 10.0, 4001)
        density = models.RadialDensity(t, np.exp(-0.5 * a * (t + 1.0) ** 2))
        ic = jacobi.classify_infinite(a, a)
        for r, R in [(0.3, 1.0), (0.5, 2.0)]:
            audit = volume_ratio_audit(density, Infinite(ic), r, R)
            assert audit.satisfied
            assert audit.lhs == pytest.approx(audit.rhs, rel=2e-6)

    def test_exact_gaussian_density_saturates(self):
        t = np.linspace(0.0, 12.0, 6001)
        density = models.RadialDensity(t, np.exp(-0.5 * t * t - t))
        audit = volume_ratio_audit(
            density, Infinite(jacobi.classify_infinite(1.0, 1.0)), 0.5, 1.5
        )
        assert audit.satisfied
        assert audit.lhs == pytest.approx(audit.rhs, rel=2e-6)

    def test_bad_radii_rejected(self):
        t = np.linspace(0.0, 1.0, 64)
        density = models.RadialDensity(t, np.ones_like(t))
        with pytest.raises(DomainError):
            volume_ratio_audit(density, Infinite(jacobi.classify_infinite(1.0, 0.0)), 0.0, 1.0)
        with pytest.raises(DomainError):
            volume_ratio_audit(density, Infinite(jacobi.classify_infinite(1.0, 0.0)), 0.5, 0.2)


class TestAdmissibleGenerators:
    def test_ratio_bound_surrogate(self):
        """theta(t2)/theta(t1) <= w(t2)/w(t1) for the generated densities."""
        rng = np.random.default_rng(101)
        ic = jacobi.classify_infinite(1.0, 0.5)
        for _ in range(10):
            d = generate_admissible_infinite(ic, rng)
            w = np.exp(-0.5 * ic.K * d.t**2 - ic.Lam * d.t)
            ratio = d.theta / w
            assert np.all(np.diff(ratio) <= 1e-12 * ratio[:-1].max())

    def test_ratio_bound_surrogate_finite(self):
        """theta / s^(N-1) nonincreasing for finite-dimensional draws."""
        rng = np.random.default_rng(102)
        cc = jacobi.classify(1.0, 0.3)
        for _ in range(10):
            d = models.generate_admissible_finite(4.0, cc, rng)
            base = np.asarray(jacobi.s_profile_clamped(cc, d.t)) ** 3.0
            ratio = d.theta / base
            assert np.all(np.diff(ratio) <= 1e-12 * ratio[:-1].max())

    def test_screen_sandwich_finite(self):
        rng = np.random.default_rng(55)
        cc = jacobi.classify(1.0, 0.1)
        for _ in range(10):
            d = generate_admissible_finite(4.0, cc, rng)
            s = d.screen()
            for eta in (0.1, 0.5, 0.9):
                assert screens.obs_inradius(s, eta) <= comparison_bound(
                    FiniteN(4.0, cc), eta
                ) + 1e-9

    def test_screen_sandwich_infinite(self):
        rng = np.random.default_rng(56)
        ic = jacobi.classify_infinite(0.0, 1.0)
        for _ in range(10):
            d = generate_admissible_infinite(ic, rng)
            s = d.screen()
            for eta in (0.1, 0.5, 0.9):
                assert screens.obs_inradius(s, eta) <= comparison_bound(
                    Infinite(ic), eta
                ) + 1e-9

    def test_overflowing_near_flat_ball_is_refused_before_numpy_warns(self):
        # the radius 1e151 overflows s^(N-1), and inf * exp(-E) = inf * 0 is nan
        cc = jacobi.classify(6.176192060920335e-302, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=r"s\^\(N-1\) overflows"):
                generate_admissible_finite(8.0, cc, np.random.default_rng(0), points=1201)

    def test_volume_audit_passes_on_generated(self):
        rng = np.random.default_rng(57)
        cc = jacobi.classify(-1.0, 2.0)
        for _ in range(5):
            d = generate_admissible_finite(3.0, cc, rng)
            T = d.t[-1]
            audit = volume_ratio_audit(d, FiniteN(3.0, cc), 0.3 * T, 0.8 * T)
            assert audit.satisfied


class TestSerialization:
    def test_roundtrip_all_tags(self):
        cases = [
            ModelSpace.ball(3, 1.0, 0.5),
            ModelSpace.warped(4, -2.0),
            ModelSpace.half_gaussian(1.0, -0.5),
            ModelSpace.exponential(2.0),
            ModelSpace.weighted_warped_exp(2, 5.0, -1.0),
            ModelSpace.weighted_warped_gauss(3, -1.0, 0.5),
        ]
        for m in cases:
            m2 = model_from_json(m.to_json())
            assert m2 == m

    def test_bad_tag_rejected(self):
        with pytest.raises(DomainError):
            model_from_json('{"tag": "torus"}')

    def test_bad_params_rejected(self):
        with pytest.raises(DomainError):
            model_from_json('{"tag": "ball", "n": 3}')

    @pytest.mark.parametrize("text", ["{", "", "not json", '{"tag": "ball",}'])
    def test_not_json(self, text):
        with pytest.raises(DomainError, match="bad model JSON"):
            model_from_json(text)


class TestRadialDensityContract:
    @pytest.mark.parametrize("where, bad", [
        ("theta", math.nan), ("theta", math.inf), ("t", math.nan), ("t", math.inf),
    ])
    def test_nonfinite_input_rejected(self, where, bad):
        t = np.linspace(0.0, 1.0, 64)
        theta = np.ones_like(t)
        (t if where == "t" else theta)[-1] = bad
        with pytest.raises(DomainError):
            models.RadialDensity(t, theta)


@st.composite
def catalog_models(draw):
    """A random model of every catalog tag, inside its regime."""
    tag = draw(st.sampled_from(list(models._FIELDS)))
    n = draw(st.integers(2, 12))
    kappa_neg = -draw(st.floats(0.05, 3.0))
    if tag == "ball":
        kappa = draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(st.floats(0.05, 3.0))
        lam = (draw(st.floats(-2.0, 3.0)) if kappa > 0
               else math.sqrt(-kappa) + draw(st.floats(0.01, 3.0)))
        return ModelSpace.ball(n, kappa, lam)
    if tag == "warped":
        return ModelSpace.warped(n, kappa_neg)
    if tag == "half_gaussian":
        return ModelSpace.half_gaussian(draw(st.floats(0.05, 4.0)), draw(st.floats(-2.0, 3.0)))
    if tag == "exponential":
        return ModelSpace.exponential(draw(st.floats(0.05, 5.0)))
    if tag == "weighted_warped_exp":
        return ModelSpace.weighted_warped_exp(n, n + draw(st.floats(0.0, 6.0)), kappa_neg)
    return ModelSpace.weighted_warped_gauss(n, kappa_neg, draw(st.floats(-0.5, 0.7)))


@settings(max_examples=80)
@given(m=catalog_models(), eta=st.floats(0.01, 0.99))
def test_screen_pipeline_equals_closed_form(m, eta):
    closed = closed_form_obs_inradius(m, eta)
    piped = screens.obs_inradius(boundary_screen(m), eta)
    assert piped == pytest.approx(closed, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# kernels held by models and comparison kinds
# ---------------------------------------------------------------------------

@st.composite
def comparison_kinds(draw):
    """(kind, direct) over the five regimes: a finite-N ball of each sign of
    kappa, the horospherical case, a twisted ball and an infinite kind with
    K > 0 or K = 0; ``direct(eta)`` is the jacobi call the bound makes."""
    regime = draw(st.sampled_from(["ball", "horospherical", "twisted", "gaussian", "exp"]))
    N = draw(st.floats(1.2, 60.0))
    # |kappa| down to the least subnormal, where a ball's rim angle rounds to 0
    size = st.one_of(st.floats(0.05, 3.0), st.sampled_from([5e-324, 1e-40, 1e-20]))
    if regime == "ball":
        kappa = draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(size)
        lam = (draw(st.floats(-2.0, 3.0)) if kappa > 0
               else math.sqrt(-kappa) + draw(st.floats(0.01, 3.0)))
        cc = jacobi.classify(kappa, lam)
        return FiniteN(N, cc), lambda eta: jacobi.v_inverse(N, cc, eta)
    if regime == "horospherical":
        kappa = -draw(st.floats(0.05, 3.0))
        rate = (N - 1) * math.sqrt(-kappa)
        return (FiniteN(N, jacobi.classify(kappa, math.sqrt(-kappa))),
                lambda eta: math.log(1.0 / eta) / rate)
    if regime == "twisted":
        kappa = draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(size)
        lam = (math.sqrt(-kappa) if kappa < 0 else 0.0) + draw(st.floats(0.01, 2.0))
        tp = jacobi.TwistParams(draw(st.integers(2, 8)), kappa, lam, draw(st.floats(-0.5, 0.7)))
        return Twisted(tp), lambda eta: jacobi.v_inverse(float(tp.n), tp.effective(), eta)
    K = draw(st.floats(0.05, 3.0)) if regime == "gaussian" else 0.0
    ic = jacobi.classify_infinite(K, draw(st.floats(-1.5, 2.0) if K else st.floats(0.1, 3.0)))
    return Infinite(ic), lambda eta: jacobi.gaussian_tail_inverse(ic, eta)


def _outcome(f, *args):
    """f(*args), or the type and text of the error it raises."""
    try:
        return f(*args)
    except (DomainError, RegimeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150)
@given(case=comparison_kinds(), etas=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4))
def test_held_comparison_kernel_equals_direct_call(case, etas):
    """Every bound of one kind, the first and the later ones, is bitwise the
    kernel call with nothing held, or raises the same error; the kind
    compares, hashes and prints as a fresh one."""
    kind, direct = case
    fresh = type(kind)(*(getattr(kind, f.name) for f in dataclasses.fields(kind)))
    for eta in etas:
        assert _outcome(comparison_bound, kind, eta) == _outcome(direct, eta)
    assert kind == fresh and hash(kind) == hash(fresh) and repr(kind) == repr(fresh)
    assert dataclasses.fields(kind) == dataclasses.fields(fresh)


@settings(max_examples=80)
@given(m=catalog_models(), eta=st.floats(0.01, 0.99))
def test_held_model_kernel(m, eta):
    """The closed form and the boundary screen read the model's kernel and
    agree bitwise; equality, hashing, repr, JSON and ``replace`` see the
    parameters alone."""
    assert closed_form_obs_inradius(m, eta) == screens.obs_inradius(boundary_screen(m), eta)
    twin = model_from_json(m.to_json())
    assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
    assert twin.to_json() == m.to_json()
    assert "_screen" not in repr(m) and [f.name for f in dataclasses.fields(m)] == [
        "tag", "n", "N", "kappa", "lam", "K", "Lam", "delta"]
    copy = dataclasses.replace(m)
    assert copy == m and closed_form_obs_inradius(copy, eta) == closed_form_obs_inradius(m, eta)


def test_replace_rebuilds_the_held_kernel():
    m = ModelSpace.ball(3, 1.0, 0.2)
    moved = dataclasses.replace(m, lam=0.5)
    assert moved == ModelSpace.ball(3, 1.0, 0.5) != m
    assert closed_form_obs_inradius(moved, 0.3) == closed_form_obs_inradius(
        ModelSpace.ball(3, 1.0, 0.5), 0.3)
    kind = FiniteN(4.0, jacobi.classify(1.0, 0.3))
    comparison_bound(kind, 0.4)
    other = dataclasses.replace(kind, N=6.0)
    assert comparison_bound(other, 0.4) == jacobi.v_inverse(6.0, kind.cc, 0.4)


@pytest.mark.parametrize("kind, error, message", [
    (FiniteN(3.0, jacobi.classify(-1.0, 0.5)), RegimeError,
     "no comparison available for regime none at N=3.0"),
    (FiniteN(math.inf, jacobi.classify(1.0, 0.5)), DomainError,
     "N must be finite and exceed 1, got inf"),
    (FiniteN(1, jacobi.classify(1.0, 0.5)), DomainError, "N must be finite and exceed 1, got 1"),
    (Twisted(jacobi.TwistParams(3, 1.0, -0.5, 0.1)), RegimeError,
     "twisted comparison needs the convex-ball regime or the horospherical case, got ball"),
    (Infinite(jacobi.classify_infinite(0.0, -1.0)), RegimeError,
     r"no comparison available for \(K, Lam\) = \(0.0, -1.0\)"),
])
def test_out_of_regime_kind_raises_at_each_call(kind, error, message):
    """Construction succeeds; every bound raises the same error."""
    for _ in range(2):
        with pytest.raises(error, match=f"^{message}$"):
            comparison_bound(kind, 0.5)


@pytest.mark.parametrize("eta", [1.0, 0.5])
def test_ball_whose_rim_angle_rounds_to_zero_is_a_domain_error(eta):
    """At kappa = 5e-324, lam = 1 the rim angle pi/2 - atan(lam / sqrt(kappa))
    rounds to 0: every bound raises DomainError, at eta = 1 too."""
    cc = jacobi.classify(5e-324, 1.0)
    for call in (lambda: jacobi.v_inverse(2.0, cc, eta),
                 lambda: comparison_bound(FiniteN(2.0, cc), eta),
                 lambda: comparison_bound(Twisted(jacobi.TwistParams(2, 5e-324, 1.0, 0.0)), eta)):
        with pytest.raises(DomainError, match="rim angle"):
            call()

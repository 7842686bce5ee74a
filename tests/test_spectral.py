"""Tests for the weighted eigensolver, scanner, packings, and audits."""

import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boundarylab import screens, spectral
from boundarylab._integrate import cumulative_simpson, pl_cell
from boundarylab.errors import DomainError
from boundarylab.models import ModelSpace, RadialDensity
from boundarylab.spectral import (
    Endpoint,
    RadialProblem,
    audit_inequalities,
    buser_ledoux_coefficient,
    dirichlet_spectrum,
    generate_log_concave_problem,
    gradient_sup,
    interval_bsep,
    inradius,
    isoperimetric_constant,
    problem_screen,
    rayleigh,
    truncated_ray_problem,
    universal_constant,
)


def uniform_problem(m=2001, L=1.0, right=Endpoint.DIRICHLET, flags=False):
    t = np.linspace(0.0, L, m)
    return RadialProblem(
        t, np.ones_like(t), right_bc=right,
        nonneg_ricci_f=flags, nonneg_mean_curv=flags,
    )


def shooting_first_eigenvalue(Lam, L, steps=4000):
    """RK4 shooting oracle for u'' - Lam u' + nu u = 0, u(0)=0, u'(L)=0.

    Integrates the IVP u(0)=0, u'(0)=1 for trial nu and bisects on the
    terminal slope.  This is the operator -(theta u')'/theta for
    theta = exp(-Lam t) in unreduced form.
    """
    h = L / steps

    def terminal_slope(nu):
        y = np.array([0.0, 1.0])

        def f(y):
            return np.array([y[1], Lam * y[1] - nu * y[0]])

        for _ in range(steps):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return y[1]

    # scan upward for the first sign change of the terminal slope
    lo = Lam * Lam / 4.0 + 1e-9
    step = 0.25 * (math.pi / L) ** 2
    flo = terminal_slope(lo)
    hi = lo + step
    while terminal_slope(hi) * flo > 0:
        lo, flo = hi, terminal_slope(hi)
        hi += step
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if terminal_slope(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSpectrum:
    def test_uniform_dirichlet_dirichlet(self):
        p = uniform_problem()
        nu = dirichlet_spectrum(p, 5).eigenvalues
        want = (np.arange(1, 6) * math.pi) ** 2
        np.testing.assert_allclose(nu, want, rtol=1e-3)
        assert nu[0] == pytest.approx(9.8696, rel=1e-3)

    def test_uniform_dirichlet_neumann(self):
        p = uniform_problem(right=Endpoint.NEUMANN)
        nu = dirichlet_spectrum(p, 5).eigenvalues
        want = ((np.arange(1, 6) - 0.5) * math.pi) ** 2
        np.testing.assert_allclose(nu, want, rtol=1e-3)
        assert nu[0] == pytest.approx(2.4674, rel=1e-3)

    def test_truncated_exponential_ray(self):
        p = truncated_ray_problem(ModelSpace.exponential(2.0), points=4001, length=40.0)
        nu1 = dirichlet_spectrum(p, 1).eigenvalues[0]
        oracle = shooting_first_eigenvalue(2.0, 40.0)
        assert nu1 == pytest.approx(oracle, rel=1e-3)
        # approaches Lam^2 / 4 = 1 as the truncation grows
        assert nu1 == pytest.approx(1.0, rel=1e-2)
        assert "truncated" in p.note

    def test_second_order_convergence(self):
        errs = []
        for m in (251, 501, 1001):
            p = uniform_problem(m)
            nu1 = dirichlet_spectrum(p, 1).eigenvalues[0]
            errs.append(abs(nu1 - math.pi**2))
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    def test_error_estimate_reported(self):
        p = uniform_problem(2001)
        res = dirichlet_spectrum(p, 3)
        # the estimate maxes over the requested eigenvalues; k=3 dominates
        true_err = abs(res.eigenvalues[2] - 9 * math.pi**2) / (9 * math.pi**2)
        assert res.estimated_discretization_error == pytest.approx(true_err, rel=0.2)

    def test_theta_scaling_invariance(self):
        t = np.linspace(0.0, 1.0, 501)
        theta = np.exp(-t)
        p1 = RadialProblem(t, theta)
        p2 = RadialProblem(t, 7.5 * theta)
        nu1 = dirichlet_spectrum(p1, 4).eigenvalues
        nu2 = dirichlet_spectrum(p2, 4).eigenvalues
        np.testing.assert_allclose(nu1, nu2, rtol=1e-12)

    def test_resolution_guard(self):
        with pytest.raises(DomainError):
            dirichlet_spectrum(uniform_problem(31), 10)

    def test_positive_theta_required(self):
        t = np.linspace(0.0, 1.0, 32)
        with pytest.raises(DomainError):
            RadialProblem(t, np.concatenate([[0.0], np.ones(31)]))

    def test_one_dirichlet_end_required(self):
        t = np.linspace(0.0, 1.0, 32)
        with pytest.raises(DomainError):
            RadialProblem(
                t, np.ones_like(t),
                left_bc=Endpoint.NEUMANN, right_bc=Endpoint.NEUMANN,
            )


class TestRayleigh:
    def test_exact_eigenfunction(self):
        p = uniform_problem(4001)
        phi = np.sin(math.pi * p.grid)
        assert rayleigh(p, phi) == pytest.approx(math.pi**2, rel=1e-6)

    def test_parabola(self):
        p = uniform_problem(4001)
        phi = p.grid * (1.0 - p.grid)
        assert rayleigh(p, phi) == pytest.approx(10.0, rel=1e-6)

    def test_minmax_lower_bound(self):
        rng = np.random.default_rng(42)
        p = uniform_problem(501)
        nu1 = dirichlet_spectrum(p, 1).eigenvalues[0]
        t = p.grid
        for _ in range(50):
            coef = rng.normal(size=4)
            phi = sum(
                c * np.sin((j + 1) * math.pi * t) for j, c in enumerate(coef)
            ) + rng.normal() * t * (1 - t)
            if np.abs(phi).max() < 1e-12:
                continue
            assert rayleigh(p, phi) >= nu1 * (1.0 - 1e-6)

    def test_weighted_minmax(self):
        rng = np.random.default_rng(43)
        t = np.linspace(0.0, 2.0, 801)
        p = RadialProblem(t, np.exp(-1.3 * t), right_bc=Endpoint.NEUMANN)
        nu1 = dirichlet_spectrum(p, 1).eigenvalues[0]
        for _ in range(20):
            phi = rng.normal(size=t.size)
            phi[0] = 0.0
            assert rayleigh(p, phi) >= nu1 * (1.0 - 1e-6)

    def test_rejects_bad_phi(self):
        p = uniform_problem(64)
        with pytest.raises(DomainError):
            rayleigh(p, np.ones_like(p.grid))  # nonzero at Dirichlet ends
        with pytest.raises(DomainError):
            rayleigh(p, np.zeros_like(p.grid))


class TestIsoperimetric:
    def test_uniform_two_sided(self):
        p = uniform_problem(2001)
        assert isoperimetric_constant(p) == pytest.approx(2.0, rel=1e-6)

    def test_exponential_ray_equals_rate(self):
        p = truncated_ray_problem(ModelSpace.exponential(2.0), points=4001, length=20.0)
        assert isoperimetric_constant(p) == pytest.approx(2.0, rel=1e-3)

    def test_scaling(self):
        t = np.linspace(0.0, 1.0, 1001)
        theta = 1.0 + 0.5 * np.sin(3 * t)
        p1 = RadialProblem(t, theta)
        c = 2.5
        p2 = RadialProblem(c * t, theta)
        assert isoperimetric_constant(p2) == pytest.approx(
            isoperimetric_constant(p1) / c, rel=1e-6
        )

    def test_union_of_two_intervals_never_beats_single(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0.0, 1.0, 41)
        theta = np.exp(rng.normal(size=41) * 0.3 + 1.0)
        p = RadialProblem(t, theta)
        best_single = isoperimetric_constant(p)
        cum = p._cum_at
        idx = range(1, 40)
        best_union = math.inf
        import itertools

        for a1, b1, a2, b2 in itertools.combinations(idx, 4):
            per = theta[a1] + theta[b1] + theta[a2] + theta[b2]
            mass = (cum(t[b1]) - cum(t[a1])) + (cum(t[b2]) - cum(t[a2]))
            if mass > 0:
                best_union = min(best_union, per / mass)
        assert best_union >= best_single - 1e-9


class TestIntervalBsep:
    def test_single_set_matches_screen(self):
        p = uniform_problem(501, right=Endpoint.NEUMANN)
        s = problem_screen(p)
        for eta in (0.2, 0.5, 0.8):
            assert interval_bsep(p, [eta]) == pytest.approx(
                screens.bsep_single(s, eta), abs=1e-9
            )

    def test_two_sided_uniform(self):
        # mass eta in the middle of [0,1] with both ends boundary:
        # best interval has width eta centered, distance (1 - eta) / 2
        p = uniform_problem(501)
        for eta in (0.25, 0.5):
            assert interval_bsep(p, [eta]) == pytest.approx(
                (1.0 - eta) / 2.0, abs=1e-8
            )

    def test_two_sets_uniform_neumann(self):
        # [D, D+l1] and [2D+l1, 2D+l1+l2] with l_i = eta_i: feasible iff
        # 2D + eta1 + eta2 <= 1, so BSep = (1 - eta1 - eta2) / 2
        p = uniform_problem(501, right=Endpoint.NEUMANN)
        assert interval_bsep(p, [0.2, 0.2]) == pytest.approx(0.3, abs=1e-8)

    def test_overfull_masses_give_zero(self):
        p = uniform_problem(64)
        assert interval_bsep(p, [0.7, 0.7]) == 0.0
        assert interval_bsep(p, [1.5]) == 0.0
        # masses summing to exactly 1 leave no gap: 0, not the packing's slack
        t = np.linspace(0.0, 1.0, 101)
        q = RadialProblem(t, np.exp(-t))
        assert interval_bsep(q, [1.0]) == 0.0
        assert interval_bsep(q, [0.5, 0.5]) == 0.0

    @pytest.mark.parametrize("etas", [[math.nan], [math.inf], [0.2, math.nan], [-math.inf]])
    def test_non_finite_masses_raise(self, etas):
        with pytest.raises(DomainError, match="all masses must be finite"):
            interval_bsep(uniform_problem(64), etas)

    @pytest.mark.parametrize("eta", [1e-6, 1e-12, 1e-15, 1e-300])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("left, right", [
        (Endpoint.DIRICHLET, Endpoint.DIRICHLET),
        (Endpoint.DIRICHLET, Endpoint.NEUMANN),
        (Endpoint.NEUMANN, Endpoint.DIRICHLET),
    ])
    def test_tiny_masses_on_uniform_theta(self, left, right, k, eta):
        # k sets of length eta L and k + 1 gaps (k with a Neumann end) fill L
        # plus the end slack 1e-12 L; a Dirichlet-Neumann packing's last set
        # also starts before L, k gaps and k - 1 sets in.  No set's mass is
        # read back, which would fall short once eta L nears the table's rounding
        t = np.linspace(0.0, 1.0, 2001)
        p = RadialProblem(t, np.ones_like(t), left_bc=left, right_bc=right)
        gaps = k + 1 if left is Endpoint.DIRICHLET and right is Endpoint.DIRICHLET else k
        want = (1.0 + 1e-12 - k * eta) / gaps
        if right is Endpoint.NEUMANN:
            want = min(want, (1.0 - (k - 1) * eta) / gaps)
        assert abs(interval_bsep(p, [eta] * k) - want) <= 4.0 * math.ulp(1.0)


class TestUniversalConstant:
    def test_stationary_point_and_sup(self):
        t_star, sup = gradient_sup()
        assert t_star == pytest.approx(1.25643, abs=1e-5)
        assert sup == pytest.approx(0.63817, abs=1e-5)

    def test_coefficient(self):
        # product of 2 sqrt(pi) / (sqrt(1 + 2^(1/3)) (1 + 4^(2/3))) with the sup
        front = 2 * math.sqrt(math.pi) / (
            math.sqrt(1 + 2 ** (1 / 3)) * (1 + 4 ** (2 / 3))
        )
        _, sup = gradient_sup()
        assert buser_ledoux_coefficient() == pytest.approx(front * sup, rel=1e-12)
        assert buser_ledoux_coefficient() == pytest.approx(0.4275366, abs=1e-6)

    def test_constant_range(self):
        C = universal_constant()
        assert 695.0 <= C <= 705.0

    def test_golden_section_oracle(self):
        # independent golden-section maximization of (1 - e^{-t}) / sqrt(t)
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        f = lambda t: (1.0 - math.exp(-t)) / math.sqrt(t)  # noqa: E731
        a, b = 0.1, 5.0
        c, d = b - gr * (b - a), a + gr * (b - a)
        for _ in range(200):
            if f(c) > f(d):
                b, d = d, c
                c = b - gr * (b - a)
            else:
                a, c = c, d
                d = a + gr * (b - a)
        t_star, sup = gradient_sup()
        assert 0.5 * (a + b) == pytest.approx(t_star, abs=1e-6)
        assert f(0.5 * (a + b)) == pytest.approx(sup, abs=1e-10)

    def test_stationary_point_to_rounding(self):
        import mpmath

        with mpmath.workdps(40):
            root = mpmath.findroot(lambda t: mpmath.exp(-t) * (2 * t + 1) - 1, 1.25)
            assert abs(gradient_sup()[0] - root) <= 2 * np.spacing(float(root))


class TestAudits:
    def test_li_yau_equality_on_uniform(self):
        p = uniform_problem(2001, flags=True)
        report = audit_inequalities(p, 5, [0.5])
        li = [e for e in report.entries if e.name == "li_yau"][0]
        assert li.passed
        assert li.lhs == pytest.approx(li.rhs, rel=1e-2)

    def test_uniform_obs_numbers(self):
        p = uniform_problem(2001, flags=True)
        report = audit_inequalities(p, 5, [0.5])
        obs = [e for e in report.entries if e.name == "obs_inradius_eigen"][0]
        assert obs.lhs == pytest.approx(0.25, abs=1e-6)
        assert obs.rhs == pytest.approx(2.0 / (math.pi * math.sqrt(0.5)), rel=1e-3)
        assert obs.passed

    def test_cheeger_equality_on_exponential_ray(self):
        p = truncated_ray_problem(ModelSpace.exponential(2.0), points=4001, length=40.0)
        report = audit_inequalities(p, 1, [])
        ch = [e for e in report.entries if e.name == "cheeger"][0]
        assert ch.passed
        assert ch.lhs == pytest.approx(ch.rhs, rel=1e-2)

    def test_generated_problems_pass_everything(self):
        rng = np.random.default_rng(12345)
        for _ in range(10):
            p = generate_log_concave_problem(rng, points=1601)
            report = audit_inequalities(p, 5, [0.3, 0.6])
            bad = [e for e in report.entries if not e.passed]
            assert not bad, f"violations: {bad}"

    def test_improved_cheeger_weaker_than_cheeger_at_k1(self):
        # 8 sqrt(2) nu1 / sqrt(nu1) >= 2 sqrt(nu1): the audited form holds
        # with a constant to spare whenever the plain bound does
        p = uniform_problem(1001)
        report = audit_inequalities(p, 1, [])
        plain = [e for e in report.entries if e.name == "cheeger"][0]
        improved = [e for e in report.entries if e.name == "improved_cheeger"][0]
        assert improved.rhs >= plain.rhs * (8.0 * math.sqrt(2.0) / 2.0) * (1 - 1e-12)
        assert improved.passed

    def test_flag_gated_entries_absent_without_flags(self):
        p = uniform_problem(1001, flags=False)
        names = {e.name for e in audit_inequalities(p, 2, [0.5]).entries}
        assert "li_yau" not in names
        assert "buser_ledoux" not in names
        assert "cheeger" in names

    def test_report_serialization(self):
        import json

        p = uniform_problem(501, flags=True)
        report = audit_inequalities(p, 2, [0.5])
        blob = json.loads(report.to_json())
        assert blob["entries"]
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "name,k,eta,lhs,rhs,relation,margin,passed"


class TestProblemIO:
    def test_csv_roundtrip(self):
        t = np.linspace(0.0, 2.0, 33)
        p = RadialProblem(
            t, np.exp(-t), right_bc=Endpoint.NEUMANN,
            nonneg_ricci_f=True, nonneg_mean_curv=True, note="hello",
        )
        p2 = RadialProblem.from_csv(p.to_csv())
        np.testing.assert_allclose(p2.grid, p.grid)
        np.testing.assert_allclose(p2.theta, p.theta)
        assert p2.right_bc is Endpoint.NEUMANN
        assert p2.nonneg_ricci_f and p2.nonneg_mean_curv
        assert p2.note == "hello"

    def test_bad_file_rejected(self):
        with pytest.raises(DomainError):
            RadialProblem.from_csv("t,theta\n0,1\n")
        with pytest.raises(DomainError):
            RadialProblem.from_csv("# {}\nwrong,header\n0,1\n")

    def test_inradius_conventions(self):
        assert inradius(uniform_problem(64)) == pytest.approx(0.5)
        assert inradius(uniform_problem(64, right=Endpoint.NEUMANN)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the cumulative-mass primitive and its array callers
# ---------------------------------------------------------------------------

@st.composite
def pl_problems(draw, bcs=(Endpoint.DIRICHLET, Endpoint.DIRICHLET)):
    """Random problem on a uniform or a nonuniform grid of 16-80 points."""
    n = draw(st.integers(16, 80))
    if draw(st.booleans()):
        grid = np.linspace(0.0, draw(st.floats(0.05, 20.0)), n)
    else:
        steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=n - 1, max_size=n - 1))
        grid = np.concatenate([[0.0], np.cumsum(steps)])
    theta = np.exp(draw(st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n)))
    return RadialProblem(grid, theta, left_bc=bcs[0], right_bc=bcs[1])


def _probe_points(p, draw):
    """Knots, cell midpoints, random interior points, and clamped points."""
    g, L = p.grid, p.length
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    return np.concatenate([
        g, 0.5 * (g[1:] + g[:-1]), L * np.asarray(inner),
        [-1.0, -1e-300, 0.0, -0.0, L, np.nextafter(L, np.inf), 1.5 * L + 3.0],
    ])


def _cum_at_oracle(p, x):
    """The one mass at a scalar x in numpy scalars: the cell's table increment
    times the trapezoid share 2 w u - a u^2 below x, a = 2 w - 1, in the
    form that pl_cell takes for its sign of a and its side of u = 1/4."""
    g, th, cum = p.grid, p.theta, p._cum
    x = min(max(float(x), 0.0), p.length)
    i = min(int(np.searchsorted(g, x, side="right")) - 1, g.size - 2)
    u = (x - g[i]) / (g[i + 1] - g[i])
    w = th[i] / (th[i] + th[i + 1])
    a = 2.0 * w - 1.0
    v = 1.0 - u
    if a <= 0.0:
        share = u * (2.0 * w - a * u)
    elif u < 0.25:
        share = min(u + a * (u - u * u), 1.0 - 0.75 * ((1.0 - a) + a * 0.75))
    else:
        share = 1.0 - v * ((1.0 - a) + a * v)
    return float(min(cum[i] + (cum[i + 1] - cum[i]) * share, cum[i + 1]))


class TestCumulativeMassPrimitive:
    @settings(max_examples=50)
    @given(data=st.data())
    def test_array_equals_scalar_calls(self, data):
        p = data.draw(pl_problems())
        xs = _probe_points(p, data.draw)
        arr = p._cum_at(xs)
        scalar = np.array([p._cum_at(float(x)) for x in xs])
        oracle = np.array([_cum_at_oracle(p, x) for x in xs])
        assert arr.shape == xs.shape
        assert np.all(arr == scalar) and np.all(scalar == oracle)

    @settings(max_examples=50)
    @given(data=st.data())
    def test_radial_density_mass_matches_problem(self, data):
        p = data.draw(pl_problems())
        d = RadialDensity(p.grid, p.theta)
        xs = _probe_points(p, data.draw)
        assert np.all(d.mass(0.0, xs) == p.mass(0.0, xs))
        assert all(d.mass(0.0, float(x)) == p.mass(0.0, float(x)) for x in xs)

    def test_clamped_ends(self):
        p = uniform_problem(101, L=2.0)
        assert p._cum_at(-5.0) == 0.0
        assert np.all(p._cum_at(np.array([2.0, 7.0])) == p._cum_at(2.0))
        assert p.mass(0.0, p.length) == pytest.approx(2.0, rel=1e-14)


def _screen_oracle(p):
    """problem_screen's knots and CDF, built point by point from p.mass: with
    both ends Dirichlet, the sorted half-grids and their mirror images, less
    each knot within 1e-6 of the least grid step of the next."""
    L, total = p.length, p.total_mass
    if p.left_bc is Endpoint.DIRICHLET and p.right_bc is Endpoint.DIRICHLET:
        g = [float(t) for t in p.grid]
        knots = sorted([t for t in g if t < L / 2] + [L - t for t in g if t > L / 2] + [L / 2])
        tol = 1e-6 * min(b - a for a, b in zip(g, g[1:]))
        rs = np.array([r for r, after in zip(knots, knots[1:] + [math.inf]) if after - r > tol])
        F = np.array([(p.mass(0.0, r) + p.mass(L - r, L)) / total for r in rs])
    elif p.right_bc is Endpoint.NEUMANN:
        rs = p.grid
        F = np.array([p.mass(0.0, r) / total for r in rs])
    else:
        rs = L - p.grid[::-1]
        F = np.array([p.mass(L - r, L) / total for r in rs])
    F = np.minimum(F, 1.0)
    F[-1] = 1.0
    return rs, F


class TestProblemScreenEquivalence:
    @pytest.mark.parametrize("bcs", [
        (Endpoint.DIRICHLET, Endpoint.DIRICHLET),
        (Endpoint.DIRICHLET, Endpoint.NEUMANN),
        (Endpoint.NEUMANN, Endpoint.DIRICHLET),
    ])
    @given(data=st.data())
    def test_equals_pointwise_oracle(self, bcs, data):
        p = data.draw(pl_problems(bcs))
        s = problem_screen(p)
        rs, F = _screen_oracle(p)
        assert np.array_equal(s.t, rs)
        assert np.array_equal(s.F, F) and np.all(np.diff(F) >= 0.0)

    @pytest.mark.parametrize("spike, left, right", [
        # the quadratic odd-node weights made the knot table dip after the first node
        (2, Endpoint.DIRICHLET, Endpoint.NEUMANN),
        # the PL mass over [0, L] exceeds the table's total
        (16, Endpoint.NEUMANN, Endpoint.DIRICHLET),
    ])
    def test_rough_density_on_a_coarse_grid(self, spike, left, right):
        t = np.linspace(0.0, 1.0, 17)
        theta = np.ones_like(t)
        theta[1], theta[spike] = math.exp(-2.0), math.exp(3.0)
        s = problem_screen(RadialProblem(t, theta, left_bc=left, right_bc=right))
        assert np.all(np.diff(s.F) >= 0) and s.F[0] >= 0 and s.F[-1] == 1.0


def _interval_bsep_oracle(p, etas):
    """interval_bsep as a fixed 60-step bisection that recomputes masses."""
    import itertools

    etas = [float(e) for e in etas]
    if sum(etas) >= 1.0:
        return 0.0
    total = p.total_mass
    left_b = p.left_bc is Endpoint.DIRICHLET
    right_b = p.right_bc is Endpoint.DIRICHLET

    def feasible(D):
        for perm in set(itertools.permutations(etas)):
            pos = D if left_b else 0.0
            end, ok = pos, True
            for eta in perm:
                if pos >= p.length:
                    ok = False
                    break
                target = p._cum_at(pos) + eta * total
                if target > total * (1.0 + 1e-12):
                    ok = False
                    break
                b = p._mass_inverse(min(target, total))
                end, pos = b, b + D
            if ok and end <= p.length - (D if right_b else 0.0) + 1e-12 * p.length:
                return True
        return False

    lo, hi = 0.0, p.length
    if not feasible(lo):
        return 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _feasible(p, etas, D):
    """The separation D is feasible: a greedy left-packing of the masses in
    some order fits, reading every mass through the one mass."""
    total, L = p.total_mass, p.length
    left_b = p.left_bc is Endpoint.DIRICHLET
    right_b = p.right_bc is Endpoint.DIRICHLET
    for perm in set(itertools.permutations(etas)):
        pos = end = D if left_b else 0.0
        ok = True
        for eta in perm:
            target = p._cum_at(pos) + eta * total
            if pos >= L or target > total * (1.0 + 1e-12):
                ok = False
                break
            b = p._mass_inverse(min(target, total))
            end, pos = b, b + D
        if ok and end <= L - (D if right_b else 0.0) + 1e-12 * L:
            return True
    return False


def _above(p, D):
    """A separation just above D, past the rounding of the packing."""
    return D * (1.0 + 1e-12) + 1e-15 * p.length


def _smooth_problem(kind, rng, points=2001):
    """A problem of the audit's shapes: log-concave with a Neumann right end,
    smooth two-Dirichlet, or uniform."""
    if kind == "log_concave":
        return generate_log_concave_problem(rng, points=points)
    L = float(rng.uniform(0.6, 3.0))
    t = np.linspace(0.0, L, points)
    if kind == "uniform":
        return RadialProblem(t, np.ones_like(t))
    knots = np.linspace(0.0, L, int(rng.integers(4, 9)))
    return RadialProblem(t, np.exp(np.interp(t, knots, rng.uniform(-1.0, 1.0, knots.size))))


SMOOTH_KINDS = ["log_concave", "uniform", "two_dirichlet"]


class TestIntervalBsepEquivalence:
    @pytest.mark.parametrize("bcs", [
        (Endpoint.DIRICHLET, Endpoint.DIRICHLET),
        (Endpoint.DIRICHLET, Endpoint.NEUMANN),
        (Endpoint.NEUMANN, Endpoint.DIRICHLET),
    ])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_is_the_supremum(self, bcs, data):
        p = data.draw(pl_problems(bcs))
        etas = data.draw(st.lists(st.floats(0.02, 0.45), min_size=1, max_size=3))
        D = interval_bsep(p, etas)
        assert D == 0.0 or _feasible(p, etas, D)
        assert not _feasible(p, etas, _above(p, D))

    @pytest.mark.parametrize("kind", SMOOTH_KINDS)
    def test_equals_the_bisection_on_smooth_problems(self, kind):
        rng = np.random.default_rng(SMOOTH_KINDS.index(kind))
        for _ in range(3):
            p = _smooth_problem(kind, rng)
            for eta in rng.uniform(0.1, 0.3, size=2):
                for etas in ([eta], [eta, eta], [eta, 0.5 * eta, eta]):
                    assert interval_bsep(p, etas) == pytest.approx(
                        _interval_bsep_oracle(p, etas), rel=1e-13)

    def test_no_masses_reach_the_far_end(self):
        # every D is feasible: the last midpoint rounds onto the untested L
        p = uniform_problem(64, right=Endpoint.NEUMANN)
        assert interval_bsep(p, []) == _interval_bsep_oracle(p, []) == 1.0


class TestIntervalBsepProperties:
    @pytest.mark.parametrize("bcs", [
        (Endpoint.DIRICHLET, Endpoint.DIRICHLET),
        (Endpoint.DIRICHLET, Endpoint.NEUMANN),
        (Endpoint.NEUMANN, Endpoint.DIRICHLET),
    ])
    @settings(max_examples=30)
    @given(data=st.data(), c=st.floats(0.1, 10.0))
    def test_scaling_the_grid_scales_the_distance(self, bcs, data, c):
        # the packing's end slack is relative to L, so only the rounding of
        # c * grid moves D off c D
        p = data.draw(pl_problems(bcs))
        etas = data.draw(st.lists(st.floats(0.02, 0.45), min_size=1, max_size=3))
        q = RadialProblem(c * p.grid, p.theta, left_bc=p.left_bc, right_bc=p.right_bc)
        D, scaled = interval_bsep(p, etas), interval_bsep(q, etas)
        assert abs(scaled - c * D) <= 1e-12 * c * D + 1e-15 * q.length

    @pytest.mark.parametrize("bcs", [
        (Endpoint.DIRICHLET, Endpoint.DIRICHLET),
        (Endpoint.DIRICHLET, Endpoint.NEUMANN),
        (Endpoint.NEUMANN, Endpoint.DIRICHLET),
    ])
    @pytest.mark.parametrize("c", [0.25, 4.0])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_power_of_two_scaling_is_exact(self, bcs, c, data):
        # grid, knot table, masses, their inverse and every packing scale by c exactly
        p = data.draw(pl_problems(bcs))
        etas = data.draw(st.lists(st.floats(0.02, 0.45), min_size=1, max_size=3))
        q = RadialProblem(c * p.grid, p.theta, left_bc=p.left_bc, right_bc=p.right_bc)
        assert interval_bsep(q, etas) == c * interval_bsep(p, etas)

    @pytest.mark.parametrize("bcs", [
        (Endpoint.DIRICHLET, Endpoint.DIRICHLET),
        (Endpoint.DIRICHLET, Endpoint.NEUMANN),
        (Endpoint.NEUMANN, Endpoint.DIRICHLET),
    ])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_nonincreasing_in_each_mass_and_the_number_of_sets(self, bcs, data):
        p = data.draw(pl_problems(bcs))
        etas = data.draw(st.lists(st.floats(0.02, 0.3), min_size=1, max_size=3))
        i = data.draw(st.integers(0, len(etas) - 1))
        grow = data.draw(st.floats(1.0, 3.0))
        D = interval_bsep(p, etas)
        heavier = etas[:i] + [etas[i] * grow] + etas[i + 1:]
        more = etas + [data.draw(st.floats(0.02, 0.3))]
        assert interval_bsep(p, heavier) <= _above(p, D)
        assert interval_bsep(p, more) <= _above(p, D)


def _invert_mass_oracle(p, target):
    """The closed-form inverse of the one mass with numpy scalars."""
    if target <= 0.0:
        return 0.0
    k = int(p._cum.searchsorted(target))
    if k == p._cum.size:
        return p.length
    t0, t1, c0 = p.grid[k - 1], p.grid[k], p._cum[k - 1]
    F = (target - c0) / (p._cum[k] - c0)
    w = p.theta[k - 1] / (p.theta[k - 1] + p.theta[k])
    d = w + math.sqrt(max(w * w + (1.0 - 2.0 * w) * F, 0.0))
    return float(min(t0 + (t1 - t0) * F / d, t1))


def _numpy_scalar_bsep(p, etas):
    """interval_bsep with every mass read as a numpy scalar: the same Pegasus
    root finding, operation for operation."""
    etas = [float(e) for e in etas]
    if sum(etas) >= 1.0:
        return 0.0
    L, total, perms = p.length, p.total_mass, set(itertools.permutations(etas))
    left_b, right_b = (bc is Endpoint.DIRICHLET for bc in (p.left_bc, p.right_bc))
    mass = functools.partial(_cum_at_oracle, p)

    def overshoot(D):
        feasible, least = False, math.inf
        for perm in perms:
            pos = end = D if left_b else 0.0
            fits, target = True, 0.0
            for eta in perm:
                target = mass(pos) + eta * total
                end = _invert_mass_oracle(p, min(target, total))
                fits = fits and pos < L and target <= total * (1.0 + 1e-12)
                pos = end + D
            over = end - (L - D + 1e-12 * L) if right_b else target - total * (1.0 + 1e-12)
            feasible, least = feasible or (fits and over <= 0.0), min(least, over)
        return feasible, least

    lo, hi = 0.0, (L + 1e-12 * L * right_b) / max(len(etas) - 1 + left_b + right_b, 1)
    (ok_lo, f_lo), (ok_hi, f_hi) = overshoot(lo), overshoot(hi)
    if not ok_lo or ok_hi:
        return hi if ok_lo else 0.0
    unit, falsi, moved = math.ulp(L if right_b else total), True, None
    while math.nextafter(lo, hi) < hi:
        x = 0.5 * (lo + hi)
        if falsi and f_lo <= 0.0 < f_hi:
            w = max(-f_lo, unit) / (max(-f_lo, unit) + f_hi)
            y = min(max(lo + (hi - lo) * w, lo + 2.0 * math.ulp(lo)), hi - 2.0 * math.ulp(hi))
            x = y if lo < y < hi else x
        ok, f = overshoot(x)
        old = f_lo if ok else f_hi
        falsi = abs(f) <= max(0.5 * abs(old), 4.0 * unit)
        scale = (old / (old + f) if old + f else 0.5) if moved is ok else 1.0
        lo, f_lo, hi, f_hi = (x, f, hi, f_hi * scale) if ok else (lo, f_lo * scale, x, f)
        moved = ok
    return lo


def _quadratic_weights_dip(p):
    """On this uniform grid, a Simpson table whose odd nodes took the weights
    (5, 8, -1)/12 of the interpolating quadratic would dip: a left share of
    a panel below 0 or above the panel."""
    y = p.theta
    e = y.size - 1 - (y.size - 1) % 2
    y0, y1, y2 = y[0:e:2], y[1:e:2], y[2:e + 1:2]
    return bool(np.any((5.0 * y0 + 8.0 * y1 < y2) | (y0 > 8.0 * y1 + 5.0 * y2)))


def _rough_problems(bcs):
    """Forty rough densities on coarse uniform grids."""
    rng = np.random.default_rng(600)
    for _ in range(40):
        t = np.linspace(0.0, float(rng.uniform(0.5, 5.0)), int(rng.integers(16, 41)))
        yield RadialProblem(t, np.exp(rng.uniform(-6.0, 6.0, t.size)),
                            left_bc=bcs[0], right_bc=bcs[1])


class TestIntervalBsepBitwise:
    """The packings run in plain floats on memoryviews: every distance is
    bitwise the numpy-scalar packer's."""

    @pytest.mark.parametrize("kind", SMOOTH_KINDS)
    def test_audit_shapes(self, kind):
        rng = np.random.default_rng(500 + SMOOTH_KINDS.index(kind))
        for points in (2001, 20001):
            p = _smooth_problem(kind, rng, points)
            for eta in rng.uniform(0.1, 0.3, size=2):
                for k in (1, 2, 3):
                    assert interval_bsep(p, [eta] * k) == _numpy_scalar_bsep(p, [eta] * k)

    @pytest.mark.parametrize("bcs", [
        (Endpoint.DIRICHLET, Endpoint.DIRICHLET),
        (Endpoint.DIRICHLET, Endpoint.NEUMANN),
        (Endpoint.NEUMANN, Endpoint.DIRICHLET),
    ])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_pl_problems(self, bcs, data):
        p = data.draw(pl_problems(bcs))
        etas = data.draw(st.lists(st.floats(0.02, 0.45), min_size=1, max_size=3))
        assert interval_bsep(p, etas) == _numpy_scalar_bsep(p, etas)

    @pytest.mark.parametrize("bcs", [
        (Endpoint.DIRICHLET, Endpoint.DIRICHLET),
        (Endpoint.DIRICHLET, Endpoint.NEUMANN),
        (Endpoint.NEUMANN, Endpoint.DIRICHLET),
    ])
    def test_rough_tables(self, bcs):
        rough = 0
        for p in _rough_problems(bcs):
            rough += _quadratic_weights_dip(p)
            for etas in ([0.1], [0.2, 0.1], [0.15, 0.15, 0.15]):
                assert interval_bsep(p, etas) == _numpy_scalar_bsep(p, etas)
        assert rough >= 10


class TestIntervalBsepEvaluations:
    """Packings per call, counted as mass inversions over the sets of every
    order: the bisection took about 56."""

    @staticmethod
    def _packings(p, etas):
        calls = []
        inverse = spectral._invert_mass
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_invert_mass", lambda *a: calls.append(1) or inverse(*a))
            interval_bsep(p, etas)
        return len(calls) / (len(etas) * len(set(itertools.permutations(etas))))

    @pytest.mark.parametrize("kind", SMOOTH_KINDS)
    def test_audit_shapes_take_at_most_20(self, kind):
        rng = np.random.default_rng(100 + SMOOTH_KINDS.index(kind))
        worst = 0.0
        for points in (2001, 2001, 2001, 2001, 20001):
            p = _smooth_problem(kind, rng, points)
            for eta in rng.uniform(0.1, 0.3, size=2):
                for k in (1, 2, 3):
                    worst = max(worst, self._packings(p, [eta] * k))
        assert worst <= 20

    @pytest.mark.parametrize("bcs", [
        (Endpoint.DIRICHLET, Endpoint.DIRICHLET),
        (Endpoint.DIRICHLET, Endpoint.NEUMANN),
        (Endpoint.NEUMANN, Endpoint.DIRICHLET),
    ])
    @settings(max_examples=50)
    @given(data=st.data())
    def test_rough_problems_take_at_most_100(self, bcs, data):
        p = data.draw(pl_problems(bcs))
        etas = data.draw(st.lists(st.floats(0.02, 0.45), min_size=1, max_size=3))
        assert self._packings(p, etas) <= 100

    @pytest.mark.parametrize("kind", SMOOTH_KINDS)
    def test_each_call_packs_both_bracket_ends(self, kind):
        # an inlined inverse would count 0 here and pass the bounds above
        rng = np.random.default_rng(200 + SMOOTH_KINDS.index(kind))
        p = _smooth_problem(kind, rng)
        for eta in rng.uniform(0.1, 0.3, size=2):
            for k in (1, 2, 3):
                assert self._packings(p, [eta] * k) >= 2

    @pytest.mark.parametrize("kind", SMOOTH_KINDS)
    def test_audit_entries_equal_the_public_calls(self, kind):
        p = _smooth_problem(kind, np.random.default_rng(400 + SMOOTH_KINDS.index(kind)))
        entries = [e for e in audit_inequalities(p, 3, [0.15, 0.25]).entries
                   if e.name == "bsep_eigen"]
        assert len(entries) == 6
        assert all(e.lhs == interval_bsep(p, [e.eta] * e.k) for e in entries)


# ---------------------------------------------------------------------------
# closed-form mass inverse, Dinkelbach scan, exact isoperimetric polish
# ---------------------------------------------------------------------------

ALL_BCS = [
    (Endpoint.DIRICHLET, Endpoint.DIRICHLET),
    (Endpoint.DIRICHLET, Endpoint.NEUMANN),
    (Endpoint.NEUMANN, Endpoint.DIRICHLET),
]


def _isoperimetric_oracle(p):
    """isoperimetric_constant as it was written with a dense ratio matrix
    and bounded Brent polishes (``minimize_scalar``)."""
    from scipy.optimize import minimize_scalar

    def ratio(a, b, th_a, th_b):
        m = p.mass(a, b)
        return math.inf if m <= 0 else (th_a + th_b) / m

    def two_sided(a, b):
        return ratio(a, b, p.theta_at(a), p.theta_at(b))

    def brent(f, lo, hi):
        return float(minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                     options={"xatol": 1e-12}).x)

    t, L = p.grid, p.length
    stride = max(1, t.size // 600)
    cand = t[::stride]
    if cand[-1] != t[-1]:
        cand = np.append(cand, t[-1])
    th = np.interp(cand, t, p.theta)
    cum = p._cum_at(cand)
    mass = cum[None, :] - cum[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (th[:, None] + th[None, :]) / mass
    r[mass <= 0] = math.inf
    i, j = np.unravel_index(np.argmin(r), r.shape)
    best = float(r[i, j])
    a, b = float(cand[i]), float(cand[j])
    span = float(cand[1] - cand[0])
    for _ in range(3):
        a = brent(lambda x: two_sided(x, b), max(0.0, a - 2 * span), min(b, a + 2 * span))
        b = brent(lambda x: two_sided(a, x), max(a, b - 2 * span), min(L, b + 2 * span))
    best = min(best, two_sided(a, b))
    for touch, bc, m in (
        (lambda x: ratio(x, L, p.theta_at(x), 0.0), p.right_bc, p._cum_at(L) - cum),
        (lambda x: ratio(0.0, x, 0.0, p.theta_at(x)), p.left_bc, cum - p._cum_at(0.0)),
    ):
        if bc is not Endpoint.NEUMANN:
            continue
        with np.errstate(divide="ignore"):
            vals = np.where(m > 0, th / m, math.inf)
        k = int(np.argmin(vals))
        x0 = float(cand[k])
        x = brent(touch, max(0.0, x0 - 2 * span), min(L, x0 + 2 * span))
        best = min(best, float(vals[k]), touch(x))
    return best


class TestMassInverse:
    @pytest.mark.parametrize("bcs", ALL_BCS)
    @settings(max_examples=50)
    @given(data=st.data())
    def test_inverts_the_mass_on_tables_that_do_not_dip(self, bcs, data):
        p = data.draw(pl_problems(bcs))
        assume(np.diff(p._cum).min() > 0.0)
        tiny = np.finfo(float).tiny  # subnormal masses carry no relative precision
        for m in p._cum_at(_probe_points(p, data.draw)):
            assert p._cum_at(p._mass_inverse(float(m))) == pytest.approx(m, rel=1e-13, abs=tiny)


def _assert_one_mass(p, xs):
    """The one mass of p: nondecreasing on the sorted probes xs, the knot
    table at every knot, the cell's table increment at its right knot
    (within the rounding of adding it), and inverted by _mass_inverse."""
    m = p._cum_at(np.sort(xs))
    assert np.all(np.diff(m) >= 0.0)
    g, th, cum = (memoryview(a) for a in (p.grid, p.theta, p._cum))
    assert np.array_equal(p._cum_at(p.grid[:-1]), p._cum[:-1])
    left = np.array([pl_cell(g[k], k - 1, g, th, cum) for k in range(1, len(g))])
    assert np.all(np.abs(left - p._cum[1:]) <= np.spacing(p._cum[1:]))
    for x in np.nextafter(p.grid[1:], -math.inf):  # the float below each knot
        k = int(np.searchsorted(p.grid, x, side="right"))
        gap = (p.grid[k] - x) * max(th[k - 1], th[k]) * 2.0  # the mass over it
        assert p._cum[k] - gap - 2 * np.spacing(p._cum[k]) <= p._cum_at(x) <= p._cum[k]
    tiny = np.finfo(float).tiny  # subnormal masses carry no relative precision
    for target in m[::max(1, m.size // 200)]:
        got = p._cum_at(p._mass_inverse(float(target)))
        assert got == pytest.approx(target, rel=1e-13, abs=tiny)


class TestOneMass:
    """One continuous, nondecreasing mass that equals the knot table at the
    knots, on tables where quadratic odd-node weights used to dip too."""

    @settings(max_examples=100)
    @given(data=st.data())
    def test_pl_problems(self, data):
        p = data.draw(pl_problems())
        dense = np.linspace(0.0, p.length, 4001)
        _assert_one_mass(p, np.concatenate([_probe_points(p, data.draw), dense]))

    def test_rough_tables(self):
        rough = 0
        for p in _rough_problems(ALL_BCS[0]):
            rough += _quadratic_weights_dip(p)
            _assert_one_mass(p, np.linspace(-0.1, p.length + 0.1, 20001))
        assert rough >= 10

    def test_spike_after_the_first_node(self):
        # quadratic weights put the first odd knot 0.073 below the knot at 0
        t = np.linspace(0.0, 1.0, 17)
        theta = np.ones_like(t)
        theta[1], theta[2] = math.exp(-2.0), math.exp(3.0)
        p = RadialProblem(t, theta)
        assert _quadratic_weights_dip(p) and np.diff(p._cum).min() > 0.0
        _assert_one_mass(p, np.linspace(0.0, 1.0, 200_001))

    @pytest.mark.parametrize("rate", [0.0, 1.0, -1.0])
    def test_relative_precision_near_the_first_knot(self, rate):
        # the mass of a tiny first piece of a cell keeps its relative digits,
        # whether theta is flat, falls or rises there
        t = np.arange(16.0)
        p = RadialProblem(t, np.exp(-rate * t))
        w = 1.0 / (1.0 + math.exp(-rate))
        for x in (1e-3, 1e-10, 3e-61):
            exact = p._cum[1] * x * (2.0 * w - (2.0 * w - 1.0) * x)
            assert p._cum_at(x) == pytest.approx(exact, rel=4e-16)
            assert p._mass_inverse(exact) == pytest.approx(x, rel=4e-16)

    @pytest.mark.parametrize("n", [4001, 16001, 64001, 1_000_001])
    @pytest.mark.parametrize("L", [1.0, 2.0, 5.0, 40.0])
    def test_linspace_grids_take_simpson(self, n, L):
        # a 1e-12 relative test of the steps once gave these the trapezoid
        t = np.linspace(0.0, L, n)
        y = np.exp(-t / L)
        y0, y1, y2 = y[0:-1:2], y[1::2], y[2::2]
        panels = (t[2::2] - t[0:-1:2]) * ((y0 + 4.0 * y1 + y2) / 6.0)
        simpson = np.zeros(n)
        simpson[2::2] = np.cumsum(panels)
        simpson[1::2] = simpson[0:-1:2] + panels * ((y0 + y1) / (y0 + 2.0 * y1 + y2))
        assert np.all(np.abs(cumulative_simpson(y, t) - simpson) <= 4.0 * np.spacing(simpson))
        # a graded grid takes the same rule, exact on a quadratic
        g = t * (1.0 + t / L)
        exact = g + g * g / (2.0 * L) + g ** 3 / L ** 2
        table = cumulative_simpson(1.0 + g / L + 3.0 * (g / L) ** 2, g)
        assert np.all(np.abs(table[2::2] - exact[2::2]) <= 1e-13 * exact[2::2])

    def test_panels_lie_within_half_and_three_halves_of_their_trapezoid(self):
        # each panel is its trapezoid T less the quadratic's bend, limited to
        # [-T/2, T/2]; equal steps never reach the limit, log-normal ones do
        rng = np.random.default_rng(601)
        limited = {"uniform": 0, "log-normal": 0}
        for p in _rough_problems(ALL_BCS[0]):
            steps = np.exp(rng.normal(0.0, 1.5, p.grid.size - 1))
            for kind, t in (("uniform", p.grid), ("log-normal", np.append(0.0, np.cumsum(steps)))):
                y, h = p.theta, np.diff(t)
                cell = 0.5 * h * (y[1:] + y[:-1])
                table = cumulative_simpson(y, t)
                # a difference of two entries carries the rounding of both
                rise, ulps = np.diff(table), 4.0 * np.spacing(table[1:])
                assert np.all((0.5 * cell - ulps <= rise) & (rise <= 1.5 * cell + ulps))
                e = y.size - 1 - (y.size - 1) % 2
                h0, h1, y0, y1, y2 = h[0:e:2], h[1:e:2], y[0:e:2], y[1:e:2], y[2:e + 1:2]
                T = cell[0:e:2] + cell[1:e:2]
                bend = (h0 * h0 - h0 * h1 + h1 * h1) / 6.0 * ((y2 - y1) / h1 - (y1 - y0) / h0)
                limited[kind] += int(np.sum(np.abs(bend) > 0.5 * T))
                panel = T - np.clip(bend, -0.5 * T, 0.5 * T)
                error = np.abs(table[2:e + 1:2] - table[0:e:2] - panel)
                assert np.all(error <= ulps[1:e:2] + 1e-14 * panel)
        assert limited["uniform"] == 0 and limited["log-normal"] >= 1

    def test_two_dirichlet_screen_merges_mirrored_knots(self):
        # L - t and the grid knot near it differ by rounding: one knot each
        p = uniform_problem(200_001, L=2.0)
        s = problem_screen(p)
        assert s.t.size == 100_001 and np.diff(s.t).min() > 0.99e-5


class TestExactIsoperimetric:
    @pytest.mark.parametrize("bcs", ALL_BCS)
    @settings(max_examples=50)
    @given(data=st.data())
    def test_dinkelbach_equals_the_dense_scan(self, bcs, data):
        p = data.draw(pl_problems(bcs))
        th, cum = p.theta, p._cum_at(p.grid)
        mass = cum[None, :] - cum[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (th[:, None] + th[None, :]) / mass
        r[mass <= 0] = math.inf
        value, i, j = spectral._dinkelbach(th, cum)
        assert i < j
        assert value == r.min() == r[i, j]

    @pytest.mark.parametrize("bcs", ALL_BCS)
    @settings(max_examples=30)
    @given(data=st.data())
    def test_never_above_the_brent_polish(self, bcs, data):
        p = data.draw(pl_problems(bcs))
        assert isoperimetric_constant(p) <= _isoperimetric_oracle(p) * (1.0 + 1e-9)

    @pytest.mark.parametrize("bcs", ALL_BCS)
    @settings(max_examples=30)
    @given(data=st.data())
    def test_interior_points_never_beat_the_knots(self, bcs, data):
        # on a cell theta is linear and the mass rises at r theta, so
        # theta +- lam M is monotone or concave there and least at an end
        p = data.draw(pl_problems(bcs))
        u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)))
        g = p.grid
        xs = np.unique(np.append((g[:-1, None] + np.diff(g)[:, None] * u).ravel(), g))
        th = np.interp(xs, g, p.theta)
        th[0] *= bcs[0] is Endpoint.DIRICHLET
        th[-1] *= bcs[1] is Endpoint.DIRICHLET
        dense, _, _ = spectral._dinkelbach(th, p._cum_at(xs))
        assert dense >= isoperimetric_constant(p) * (1.0 - 1e-12)

    @pytest.mark.parametrize("seed, ends", [
        (10, "DN"), (10, "ND"), (22, "DN"), (45, "DN"), (52, "DD"), (52, "ND"),
        (31, "DN"), (249, "DD")])
    def test_graded_grids_meet_the_dense_scan(self, seed, ends):
        # log-normal steps: the scan spans differ widely, so a polish window
        # sized by one span can fall short of the best set
        rng = np.random.default_rng(seed)
        t = np.concatenate(([0.0], np.cumsum(np.exp(rng.normal(0.0, 1.0, 2000)))))
        t *= 3.0 / t[-1]
        theta = np.exp(np.interp(t, np.linspace(0.0, 3.0, 6), rng.uniform(-4.0, 4.0, 6)))
        bcs = ALL_BCS[["DD", "DN", "ND"].index(ends)]
        p = RadialProblem(t, theta, left_bc=bcs[0], right_bc=bcs[1])
        # every knot and 7 interior points per cell, a Neumann end at no perimeter
        xs = np.append((t[:-1, None] + np.diff(t)[:, None] * np.arange(8) / 8).ravel(), t[-1])
        th = np.interp(xs, p.grid, p.theta)
        th[0] *= bcs[0] is Endpoint.DIRICHLET
        th[-1] *= bcs[1] is Endpoint.DIRICHLET
        dense, _, _ = spectral._dinkelbach(th, p._cum_at(xs))
        assert isoperimetric_constant(p) <= dense * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# input contract: non-finite grids and densities
# ---------------------------------------------------------------------------

class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_theta_rejected(self, bad):
        t = np.linspace(0.0, 1.0, 33)
        theta = np.ones_like(t)
        theta[7] = bad
        with pytest.raises(DomainError):
            RadialProblem(t, theta)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_rejected(self, bad):
        t = np.linspace(0.0, 1.0, 33)
        t[-1] = bad
        with pytest.raises(DomainError):
            RadialProblem(t, np.ones_like(t))

    @pytest.mark.parametrize("scale", [5e-324, 1e-322, 1e308])
    def test_mass_beyond_the_float_range_rejected(self, scale):
        # 5e-324 left NaN knots, 1e-322 a total of 0 and 1e308 an infinite table
        t = np.linspace(0.0, 1.0, 2001)
        theta = np.full(t.size, scale)
        with pytest.raises(DomainError, match="floating-point range"):
            RadialProblem(t, theta, right_bc=Endpoint.NEUMANN)
        with pytest.raises(DomainError, match="floating-point range"):
            RadialDensity(t, theta)

    def test_csv_with_nan_theta_rejected(self):
        p = uniform_problem(33)
        text = p.to_csv().replace("\n0.5,1\n", "\n0.5,nan\n")
        assert "nan" in text
        with pytest.raises(DomainError):
            RadialProblem.from_csv(text)


class TestCsvParsing:
    def test_roundtrip_is_exact(self):
        rng = np.random.default_rng(3)
        t = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-4, 1.0, 500))])
        p = RadialProblem(t, np.exp(rng.normal(size=t.size) * 5))
        p2 = RadialProblem.from_csv(p.to_csv())
        assert np.array_equal(p2.grid, p.grid) and np.array_equal(p2.theta, p.theta)

    @pytest.mark.parametrize("row", ["0.5", "0.5,1,2", "0.5,x", "", "0.5;1"])
    def test_malformed_row_rejected(self, row):
        lines = uniform_problem(33).to_csv().splitlines()
        lines[10] = row
        with pytest.raises(DomainError, match="bad CSV row"):
            RadialProblem.from_csv("\n".join(lines) + "\n")

    def test_quoted_fields_accepted(self):
        p = uniform_problem(33)
        lines = p.to_csv().splitlines()
        lines[5] = ",".join(f'"{v}"' for v in lines[5].split(","))
        p2 = RadialProblem.from_csv("\n".join(lines))
        assert np.array_equal(p2.grid, p.grid)

    def test_header_without_rows_rejected(self):
        with pytest.raises(DomainError):
            RadialProblem.from_csv("# {}\nt,theta\n")


# ---------------------------------------------------------------------------
# eigen accuracy: the exact discrete spectrum of the scheme, not the PDE's
# ---------------------------------------------------------------------------

BC_PAIRS = {
    "dd": (Endpoint.DIRICHLET, Endpoint.DIRICHLET),
    "dn": (Endpoint.DIRICHLET, Endpoint.NEUMANN),
    "nd": (Endpoint.NEUMANN, Endpoint.DIRICHLET),
}


def _mp_pencil(p):
    """Stiffness diagonal, off-diagonal and mass of the scheme's pencil over
    the kept nodes, in mpmath from the float grid and density."""
    import mpmath

    t = [mpmath.mpf(float(x)) for x in p.grid]
    th = [mpmath.mpf(float(x)) for x in p.theta]
    n = len(t)
    h = [t[i + 1] - t[i] for i in range(n - 1)]
    w = [(th[i] + th[i + 1]) / 2 / h[i] for i in range(n - 1)]
    dual = [h[0] / 2] + [(h[i - 1] + h[i]) / 2 for i in range(1, n - 1)] + [h[-1] / 2]
    keep = range(int(p.left_bc is Endpoint.DIRICHLET), n - int(p.right_bc is Endpoint.DIRICHLET))
    diag = [(w[i - 1] if i > 0 else 0) + (w[i] if i < n - 1 else 0) for i in keep]
    off = [w[i] for i in list(keep)[:-1]]
    return diag, off, [th[i] * dual[i] for i in keep]


def _mp_count_below(pencil, x):
    """Eigenvalues of the pencil below x: negative pivots of S - x M."""
    import mpmath

    diag, off, mass = pencil
    count, d = 0, None
    for i in range(len(diag)):
        d_i = diag[i] - x * mass[i] - (off[i - 1] ** 2 / d if i else 0)
        if d_i == 0:
            d_i = mpmath.mpf(10) ** -mpmath.mp.dps
        count += d_i < 0
        d = d_i
    return count


def _mp_eigenvalues(p, k, dps=50):
    """First k eigenvalues of the pencil by Sturm bisection at dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        pencil = _mp_pencil(p)
        diag, off, mass = pencil
        top = max((diag[i] + 2 * max(off, default=0)) / mass[i] for i in range(len(diag)))
        vals = []
        for j in range(1, k + 1):
            lo, hi = mpmath.mpf(0), top
            while hi - lo > mpmath.mpf(10) ** (-dps // 2) * hi:
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if _mp_count_below(pencil, mid) >= j else (mid, hi)
            vals.append(float((lo + hi) / 2))
        return np.array(vals)


class TestExactDiscreteSpectrum:
    """The solver returns the scheme's own eigenvalues to near rounding;
    Sturm bisection on the formed tridiagonal lost eps / h^2 of them."""

    @pytest.mark.parametrize("points", [2001, 20001, 200001])
    @pytest.mark.parametrize("pair", sorted(BC_PAIRS))
    def test_uniform_closed_form(self, points, pair):
        left, right = BC_PAIRS[pair]
        t = np.linspace(0.0, 1.0, points)
        p = RadialProblem(t, np.full(points, 2.5), left_bc=left, right_bc=right)
        h, j = 1.0 / (points - 1), np.arange(1, 6)
        shift = 0.0 if pair == "dd" else 0.5
        want = 4.0 / h**2 * np.sin((j - shift) * math.pi * h / 2.0) ** 2
        nu = dirichlet_spectrum(p, 5).eigenvalues
        np.testing.assert_allclose(nu, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("weight", ["flat", "exp"])
    @pytest.mark.parametrize("right", [Endpoint.DIRICHLET, Endpoint.NEUMANN])
    def test_graded_grid_against_mpmath(self, weight, right):
        # cells from 1e-9 to 0.17: the formed tridiagonal spans 18 decades
        t = (np.arange(33) / 32.0) ** 6
        theta = np.ones_like(t) if weight == "flat" else np.exp(-3.0 * t)
        p = RadialProblem(t, theta, right_bc=right)
        nu = dirichlet_spectrum(p, 8).eigenvalues
        np.testing.assert_allclose(nu, _mp_eigenvalues(p, 8), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("scale", [1e-320, 1e-300, 1e300, 1e307])
    @pytest.mark.parametrize("pair", ["dd", "dn"])
    def test_density_scale_at_the_ends_of_the_float_range(self, scale, pair):
        # nu does not change when theta is scaled; the formed tridiagonal
        # overflowed or underflowed at these scales
        left, right = BC_PAIRS[pair]
        t = np.linspace(0.0, 1.0, 2001)
        p = RadialProblem(t, np.full(t.size, scale), left_bc=left, right_bc=right)
        q = RadialProblem(t, np.ones(t.size), left_bc=left, right_bc=right)
        np.testing.assert_allclose(dirichlet_spectrum(p, 3).eigenvalues,
                                   dirichlet_spectrum(q, 3).eigenvalues, rtol=1e-12, atol=0.0)

    def test_richardson_estimate_tracks_true_error(self):
        # with exact solves the coarse/fine difference is the discretization
        # error alone; rounding no longer swamps it at 200k points
        points = 200001
        t = np.linspace(0.0, 1.0, points)
        res = dirichlet_spectrum(RadialProblem(t, np.ones(points)), 5)
        h, j = 1.0 / (points - 1), np.arange(1, 6)
        discrete = 4.0 / h**2 * np.sin(j * math.pi * h / 2.0) ** 2
        true_err = float(np.max(np.abs(discrete - (j * math.pi) ** 2) / (j * math.pi) ** 2))
        assert res.estimated_discretization_error == pytest.approx(true_err, rel=0.2)

    @settings(max_examples=200)
    @given(
        points=st.integers(17, 64),
        grading=st.sampled_from([1.0, 2.0, 4.0, 6.0]),
        sd=st.floats(0.0, 3.0),
        z=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
        pair=st.sampled_from(sorted(BC_PAIRS)),
        k_frac=st.floats(0.0, 1.0),
    )
    def test_property_against_mpmath(self, points, grading, sd, z, pair, k_frac):
        left, right = BC_PAIRS[pair]
        t = 1.5 * np.linspace(0.0, 1.0, points) ** grading
        log_theta = np.interp(t, np.linspace(0.0, 1.5, 6), sd * np.asarray(z))
        p = RadialProblem(t, np.exp(log_theta), left_bc=left, right_bc=right)
        k = 1 + int(k_frac * (min(12, (points - 1) // 4) - 1))
        _assert_within_1e9(p, dirichlet_spectrum(p, k).eigenvalues)

    @settings(max_examples=100)
    @given(
        points=st.integers(17, 64),
        grading=st.sampled_from([1.0, 2.0, 4.0, 6.0]),
        sd=st.floats(0.0, 3.0),
        z=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
        pair=st.sampled_from(sorted(BC_PAIRS)),
        k_frac=st.floats(0.0, 1.0),
    )
    def test_root_finding_property_against_mpmath(self, points, grading, sd, z, pair, k_frac):
        # the path for k above the Lanczos range, and for any Lanczos result
        # the count rejects, up to the resolution guard
        left, right = BC_PAIRS[pair]
        t = 1.5 * np.linspace(0.0, 1.0, points) ** grading
        log_theta = np.interp(t, np.linspace(0.0, 1.5, 6), sd * np.asarray(z))
        p = RadialProblem(t, np.exp(log_theta), left_bc=left, right_bc=right)
        k = 1 + int(k_frac * ((points - 1) // 4 - 1))
        _assert_within_1e9(p, spectral._roots(p, spectral._chain(p), k))

    @pytest.mark.parametrize("pair", sorted(BC_PAIRS))
    def test_uniform_closed_form_at_the_resolution_guard(self, pair):
        # k = m / 4 on 2001 points; the uniform grid puts whole eigenvalues of
        # sub-chains on the spectrum, which the in-order recount resolves
        left, right = BC_PAIRS[pair]
        t = np.linspace(0.0, 1.0, 2001)
        p = RadialProblem(t, np.ones(2001), left_bc=left, right_bc=right)
        j = np.arange(1, 501)
        shift = 0.0 if pair == "dd" else 0.5
        want = 4.0 * 2000.0**2 * np.sin((j - shift) * math.pi / 4000.0) ** 2
        np.testing.assert_allclose(dirichlet_spectrum(p, 500).eigenvalues, want, rtol=1e-12, atol=0.0)

    def test_large_k_agrees_with_lanczos(self):
        t = np.linspace(0.0, 1.0, 2001)
        p = RadialProblem(t, np.exp(-t))
        nu = dirichlet_spectrum(p, 70).eigenvalues
        assert np.all(np.diff(nu) > 0)
        np.testing.assert_allclose(nu[:12], spectral._lanczos(p, 12), rtol=1e-12, atol=0.0)

    def test_graded_grid_at_the_resolution_guard_against_mpmath(self):
        t = (np.arange(81) / 80.0) ** 3
        p = RadialProblem(t, np.exp(-3.0 * t), right_bc=Endpoint.NEUMANN)
        np.testing.assert_allclose(dirichlet_spectrum(p, 20).eigenvalues,
                                   _mp_eigenvalues(p, 20, dps=30), rtol=1e-12, atol=0.0)

    def test_near_degenerate_pair(self):
        # two wells joined by a neck of density e^-30: nu_1 and nu_2 agree to
        # 3e-13 and read as one Lanczos value; the count finds the second
        t = np.linspace(0.0, 1.0, 41)
        p = RadialProblem(t, np.exp(-30.0 * (np.abs(np.arange(41) - 20) <= 4)))
        want = _mp_eigenvalues(p, 4)
        assert want[1] / want[0] - 1 < 1e-12
        np.testing.assert_allclose(dirichlet_spectrum(p, 2).eigenvalues, want[:2], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(dirichlet_spectrum(p, 4).eigenvalues, want, rtol=1e-12, atol=0.0)
        nu = audit_inequalities(p, 2, []).meta["eigenvalues"]
        np.testing.assert_allclose(nu, want[:2], rtol=1e-12, atol=0.0)

    def test_spectrum_beyond_double_precision(self):
        # a thin neck joins the Dirichlet end to the bulk of the mass:
        # nu_1 ~ 4e-13 while nu_2 is O(1), past what Lanczos on K resolves
        t = np.linspace(0.0, 1.0, 41)
        p = RadialProblem(t, np.exp(np.where(t < 0.5, -30.0, 0.0)), right_bc=Endpoint.NEUMANN)
        np.testing.assert_allclose(dirichlet_spectrum(p, 3).eigenvalues,
                                   _mp_eigenvalues(p, 3, dps=30), rtol=1e-12, atol=0.0)

    def test_root_finding_within_its_measured_bound(self):
        # cyclic-reduction counts err within 3e-12 of nu_5 here (a pivot
        # cancels by 7e4, below the in-order recount's 1e6), so root finding
        # returns nu_5 9.4e-13 off a 50-digit Sturm count, Lanczos 9e-16 off
        t = 2.0 * np.linspace(0.0, 1.0, 97) ** 2
        z = [-0.5967, 1.2499, -3.2689, 0.1951, 2.0306, -0.2473]
        p = RadialProblem(t, np.exp(np.interp(t, np.linspace(0.0, 2.0, 6), z)))
        nu = dirichlet_spectrum(p, 6).eigenvalues
        eps = np.finfo(float).eps
        _assert_within(p, nu, spectral._ROOT_TOL + 2.0 * math.sqrt(97) * eps * nu / nu[0] + 16 * eps)
        _assert_within(p, spectral._roots(p, spectral._chain(p), 6), np.full(6, 1e-12))

    def test_cyclic_reduction_counts_match_the_in_order_ones(self):
        rng = np.random.default_rng(5)
        t = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 300)]))
        p = RadialProblem(t, np.exp(rng.normal(0.0, 2.0, t.size)), right_bc=Endpoint.NEUMANN)
        chain = spectral._chain(p)
        x = np.geomspace(1e-2, 1e7, 200)
        neg, logdet = spectral._counts(chain, x)
        for xi, n, ld in zip(x, neg, logdet):
            n_ref, ld_ref = spectral._in_order(chain, float(xi))
            assert n == n_ref
            assert ld == pytest.approx(ld_ref, rel=1e-9, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        points=st.one_of(st.integers(17, 200), st.sampled_from([2001, 4001])),
        grading=st.sampled_from([1.0, 2.0, 3.0]),
        sd=st.floats(0.0, 3.0),
        z=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
        pair=st.sampled_from(sorted(BC_PAIRS)),
        rel=st.sampled_from([1e-3, 1e-9, 1e-12]),
    )
    def test_one_shift_count_equals_the_batch_count(self, points, grading, sd, z, pair, rel):
        # the certificate's count-only elimination and the root finder's batch
        # read the same pivots: equal counts on both sides of each eigenvalue
        left, right = BC_PAIRS[pair]
        t = 2.0 * np.linspace(0.0, 1.0, points) ** grading
        log_theta = np.interp(t, np.linspace(0.0, 2.0, 6), sd * np.asarray(z))
        p = RadialProblem(t, np.exp(log_theta), left_bc=left, right_bc=right)
        chain = spectral._chain(p)
        nu = spectral._eigenvalues(p, min(6, (points - 1) // 4))
        x = np.concatenate([nu * (1.0 - rel), nu * (1.0 + rel)])
        batch = spectral._counts(chain, x)[0]
        assert [spectral._count(chain, float(xi)) for xi in x] == batch.tolist()

    def test_one_shift_count_falls_back_to_the_in_order_count(self, monkeypatch):
        # every nonzero ratio is suspect, so both counts come from _in_order
        rng = np.random.default_rng(5)
        t = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 300)]))
        p = RadialProblem(t, np.exp(rng.normal(0.0, 2.0, t.size)), right_bc=Endpoint.NEUMANN)
        chain = spectral._chain(p)
        nu = spectral._eigenvalues(p, 4)
        x = np.concatenate([nu * (1.0 - 1e-9), nu * (1.0 + 1e-9)])
        monkeypatch.setattr(spectral, "_SUSPECT", 1e300)
        recounts, in_order = [], spectral._in_order
        monkeypatch.setattr(spectral, "_in_order", lambda *a: recounts.append(a) or in_order(*a))
        counts = [spectral._count(chain, float(xi)) for xi in x]
        assert counts == [0, 1, 2, 3, 1, 2, 3, 4] and len(recounts) == x.size
        assert counts == spectral._counts(chain, x)[0].tolist() and len(recounts) == 2 * x.size


def _assert_within_1e9(p, nu):
    """nu_j is within 1e-9 of the j-th eigenvalue."""
    _assert_within(p, nu, np.full(len(nu), 1e-9))


def _assert_within(p, nu, rel):
    """nu_j is within rel_j of the j-th eigenvalue iff a 50-digit Sturm count
    puts j - 1 eigenvalues below nu_j (1 - rel_j) and j below nu_j (1 + rel_j)."""
    import mpmath

    with mpmath.workdps(50):
        pencil = _mp_pencil(p)
        for j, (v, e) in enumerate(zip(nu, rel), 1):
            assert _mp_count_below(pencil, mpmath.mpf(v) * (1 - mpmath.mpf(e))) <= j - 1
            assert _mp_count_below(pencil, mpmath.mpf(v) * (1 + mpmath.mpf(e))) >= j


class TestNoUnconvergedEigenvalues:
    @pytest.mark.parametrize("length, points", [(1e-160, 2001), (1e-300, 40)])
    def test_lower_bound_past_the_float_range_raises(self, length, points):
        # the root finder's lower bound 1 / trace(K) underflowed to a division by zero
        p = RadialProblem(np.linspace(0.0, length, points), np.ones(points))
        with pytest.raises(DomainError, match="floating-point range"):
            dirichlet_spectrum(p, 2)
        with pytest.raises(DomainError, match="floating-point range"):
            audit_inequalities(p, 2, [0.5])

    def test_eigenvalues_near_the_top_of_the_float_range(self):
        # nu scales as 1 / L^2; root finding's geometric mean overflowed here
        p = RadialProblem(np.linspace(0.0, 1e-150, 2001), np.ones(2001))
        np.testing.assert_allclose(spectral._roots(p, spectral._chain(p), 2),
                                   dirichlet_spectrum(uniform_problem(2001), 2).eigenvalues * 1e300,
                                   rtol=1e-12, atol=0.0)

    def test_lanczos_cap_hands_over_to_root_finding(self, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_ITER", 4)
        j = np.arange(1, 6)
        want = 4.0 * 2000.0**2 * np.sin(j * math.pi / 4000.0) ** 2
        np.testing.assert_allclose(dirichlet_spectrum(uniform_problem(2001), 5).eigenvalues,
                                   want, rtol=1e-12, atol=0.0)

    def test_lanczos_takes_no_more_steps_than_nodes(self, monkeypatch):
        # theta spans e^-120 to e^120 on 40 points, so Lanczos on the 38 kept
        # nodes never vouches for its values; past 38 steps it would only
        # repeat a dense eigensolve of T until _MAX_ITER
        t = np.linspace(0.0, 1.0, 40)
        p = RadialProblem(t, np.exp(np.random.default_rng(10).uniform(-120.0, 120.0, 40)))
        counts = _count_green_applies(monkeypatch)
        nu = dirichlet_spectrum(p, 2).eigenvalues
        assert counts[40] <= 38
        np.testing.assert_allclose(nu, spectral._roots(p, spectral._chain(p), 2),
                                   rtol=1e-12, atol=0.0)

    def test_root_finding_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_ITER", 4)
        monkeypatch.setattr(spectral, "_MAX_SWEEPS", 2)
        with pytest.raises(DomainError, match="did not resolve"):
            dirichlet_spectrum(uniform_problem(2001), 5)

    def test_theta_beyond_the_float_range_raises(self):
        t = np.linspace(0.0, 1.0, 201)
        p = RadialProblem(t, np.where(t < 0.5, 1e-200, 1e200))
        with pytest.raises(DomainError, match="floating-point range"):
            dirichlet_spectrum(p, 2)


# ---------------------------------------------------------------------------
# two-grid start: large grids seed Lanczos with a coarse grid's Ritz vectors
# ---------------------------------------------------------------------------

def _count_green_applies(monkeypatch) -> dict:
    """Green's applies per grid size from here on, keyed by the grid's point count."""
    counts = {}
    green = spectral._green

    def counting(p, *pencil):
        apply, sm = green(p, *pencil)

        def counted(x):
            counts[p.grid.size] = counts.get(p.grid.size, 0) + 1
            return apply(x)

        return counted, sm

    monkeypatch.setattr(spectral, "_green", counting)
    return counts


class TestTwoGridStart:
    @pytest.mark.parametrize("grading", [1.0, 2.0])
    @pytest.mark.parametrize("pair", sorted(BC_PAIRS))
    def test_nonuniform_grids_against_root_finding(self, monkeypatch, pair, grading):
        # 4001 points keep 251 coarse nodes: a lowered threshold lets this
        # small grid take the two-grid start
        monkeypatch.setattr(spectral, "_COARSE_MIN", 200)
        left, right = BC_PAIRS[pair]
        rng = np.random.default_rng(13)
        t = 2.0 * np.linspace(0.0, 1.0, 4001) ** grading
        log_theta = np.interp(t, np.linspace(0.0, 2.0, 7), rng.uniform(-2.0, 2.0, 7))
        p = RadialProblem(t, np.exp(log_theta), left_bc=left, right_bc=right)
        counts = _count_green_applies(monkeypatch)
        nu = spectral._lanczos(p, 5)
        assert set(counts) == {251, 4001}
        want = spectral._roots(p, spectral._chain(p), 5)
        np.testing.assert_allclose(nu, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(dirichlet_spectrum(p, 5).eigenvalues, want, rtol=1e-12, atol=0.0)

    def test_near_degenerate_pair_falls_back_to_the_count(self, monkeypatch):
        # two equal wells joined by a neck of density e^-30, symmetric about
        # the middle node: the odd modes are those of the left half with a
        # Dirichlet middle, the even ones those with a Neumann middle, and the
        # first of each agree to 1e-12; Lanczos reads them as one, and the
        # count hands the solve to root finding
        monkeypatch.setattr(spectral, "_COARSE_MIN", 200)
        t = np.arange(4001) / 4000.0
        theta = np.exp(-30.0 * (np.abs(np.arange(4001) - 2000) <= 400))
        p = RadialProblem(t, theta)
        half = RadialProblem(t[:2001], theta[:2001])
        odd = dirichlet_spectrum(half, 2).eigenvalues
        even = dirichlet_spectrum(replace(half, right_bc=Endpoint.NEUMANN), 2).eigenvalues
        want = np.sort(np.concatenate([odd, even]))
        assert want[1] / want[0] - 1 < 1e-12
        counts = _count_green_applies(monkeypatch)
        roots, root_find = [], spectral._roots
        monkeypatch.setattr(spectral, "_roots", lambda *a: roots.append(a) or root_find(*a))
        np.testing.assert_allclose(spectral._eigenvalues(p, 4), want, rtol=1e-12, atol=0.0)
        assert set(counts) == {251, 4001} and len(roots) == 1

    @pytest.mark.parametrize("kind", ["log_concave", "uniform"])
    def test_fine_applies_at_200k_points(self, monkeypatch, kind):
        # from the seeded random start the fine grid took 21 to 24 applies
        if kind == "uniform":
            p = uniform_problem(200001)
        else:
            p = generate_log_concave_problem(np.random.default_rng(21), points=200001)
        counts = _count_green_applies(monkeypatch)
        assert spectral._lanczos(p, 5) is not None
        assert counts[200001] <= 12
        assert set(counts) == {12501, 200001}

    def test_small_grids_keep_the_random_start(self, monkeypatch):
        counts = _count_green_applies(monkeypatch)
        spectral._lanczos(uniform_problem(2001), 5)
        assert set(counts) == {2001}


class TestCertifiedLanczos:
    """Lanczos values are returned once their residual intervals are disjoint,
    their Kato-Temple bound is at most 2^-44 of each and a count in the gap
    above the k-th agrees."""

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.one_of(st.integers(33, 401), st.sampled_from([2001, 4001, 20001])),
        grading=st.sampled_from([1.0, 2.0, 3.0]),
        sd=st.floats(0.0, 2.0),
        z=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
        pair=st.sampled_from(sorted(BC_PAIRS)),
        k=st.integers(1, spectral._LANCZOS_K),
    )
    def test_property_within_the_certified_bound(self, points, grading, sd, z, pair, k):
        left, right = BC_PAIRS[pair]
        k = min(k, (points - 1) // 4)
        t = 2.0 * np.linspace(0.0, 1.0, points) ** grading
        log_theta = np.interp(t, np.linspace(0.0, 2.0, 6), sd * np.asarray(z))
        p = RadialProblem(t, np.exp(log_theta), left_bc=left, right_bc=right)
        nu = spectral._lanczos(p, k)
        if nu is None:
            # a handover to root finding is allowed only where the count's
            # shift, at most a fifth of the way down, can meet nu_{k+1}
            ref = spectral._roots(p, spectral._chain(p), k + 1)
            assert ref[k] < 1.25 * ref[k - 1]
            return
        # the truncation bound, the rounding of the Green's applies (a prefix
        # sum carries about 2 sqrt(n) additions, each eps of mu_1) and that
        # of the pencil's own entries
        eps = np.finfo(float).eps
        rel = spectral._ROOT_TOL + 2.0 * math.sqrt(points) * eps * nu / nu[0] + 16 * eps
        if points <= 401:
            _assert_within(p, nu, rel)
        else:  # and root finding's own 1e-13
            want = spectral._roots(p, spectral._chain(p), k)
            assert np.all(np.abs(nu - want) <= (rel + 1e-13) * want)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_start_checks_where_it_can_pass(self, monkeypatch, seed):
        # from a random start no k = 5 solve is accepted before step 17: the
        # checks at steps 12 and 15 were dense eigensolves that could not pass
        p = generate_log_concave_problem(np.random.default_rng(seed), points=2001)
        calls, genuine = [], spectral._genuine
        monkeypatch.setattr(spectral, "_genuine", lambda *a: calls.append(a) or genuine(*a))
        assert spectral._lanczos(p, 5) is not None
        assert len(calls) <= 2

    def test_the_last_step_is_checked(self):
        # on 40 kept nodes k = 10 is accepted only at step 40, which the
        # random start's spacing (checks at 35 and 38) would step over
        t = 2.0 * np.linspace(0.0, 1.0, 42) ** 2
        z = [-0.0855, -0.3381, -0.3788, 0.7586, 1.0579, -0.8425]
        p = RadialProblem(t, np.exp(np.interp(t, np.linspace(0.0, 2.0, 6), z)))
        nu = spectral._lanczos(p, 10)
        assert nu is not None
        eps = np.finfo(float).eps
        _assert_within(p, nu, spectral._ROOT_TOL + 2.0 * math.sqrt(40) * eps * nu / nu[0] + 16 * eps)

    def test_count_in_the_gap_hands_over_to_root_finding(self, monkeypatch):
        # a start vector even about the middle of a symmetric problem never
        # meets the odd modes: Lanczos certifies nu_1, nu_3 and nu_5 as three
        # disjoint values, and the count at the shift above them finds five
        p = uniform_problem(2001)
        monkeypatch.setattr(spectral, "_start", lambda p, k, sm: (sm / np.linalg.norm(sm), False))
        j = np.arange(1, 6)
        want = 4.0 * 2000.0**2 * np.sin(j * math.pi / 4000.0) ** 2
        mu, shift = spectral._krylov(p, 3)
        np.testing.assert_allclose(1.0 / mu, want[::2], rtol=1e-12, atol=0.0)
        assert spectral._counts(spectral._chain(p), np.array([1.0 / shift]))[0][0] == 5
        assert spectral._lanczos(p, 3) is None
        roots, root_find = [], spectral._roots
        monkeypatch.setattr(spectral, "_roots", lambda *a: roots.append(a) or root_find(*a))
        np.testing.assert_allclose(spectral._eigenvalues(p, 3), want[:3], rtol=1e-12, atol=0.0)
        assert len(roots) == 1

    def test_lagging_next_ritz_value_keeps_lanczos(self):
        # the two-grid start carries only k vectors, so the 17th Ritz value
        # lags far below mu_17 = mu_16 / 1.129; a count a fifth of the way
        # down to it finds 17 eigenvalues and would hand the solve over
        p = uniform_problem(20001)
        j = np.arange(1, 17)
        want = 4.0 * 20000.0**2 * np.sin(j * math.pi / 40000.0) ** 2
        np.testing.assert_allclose(spectral._lanczos(p, 16), want, rtol=1e-12, atol=0.0)

    def test_rounding_that_bars_the_bound_hands_over_at_once(self, monkeypatch):
        # a rounding term of 2e-8 mu_1 squared exceeds 2^-44 mu_5 gap_5 on
        # the uniform grid, so no number of steps certifies nu_5: Lanczos
        # gives up once its residuals reach that term, not at the step cap
        monkeypatch.setattr(spectral, "_SPREAD", 1e6)
        p = uniform_problem(2001)
        counts = _count_green_applies(monkeypatch)
        assert spectral._krylov(p, 5) is None
        assert counts[2001] <= 40
        roots, root_find = [], spectral._roots
        monkeypatch.setattr(spectral, "_roots", lambda *a: roots.append(a) or root_find(*a))
        j = np.arange(1, 6)
        want = 4.0 * 2000.0**2 * np.sin(j * math.pi / 4000.0) ** 2
        np.testing.assert_allclose(spectral._eigenvalues(p, 5), want, rtol=1e-12, atol=0.0)
        assert len(roots) == 1


@functools.cache
def _above_the_threshold():
    """A fixed generated problem on 20,001 points, which takes the two-grid
    start, and its first eigenvalue."""
    p = generate_log_concave_problem(np.random.default_rng(8), points=20001)
    return p, dirichlet_spectrum(p, 1).eigenvalues[0]


def _admissible_phi(p, seed, sweeps):
    """A random grid function, zero at the Dirichlet ends, after ``sweeps``
    power steps of the Green's operator: more sweeps bring it toward the
    first eigenfunction, and its Rayleigh quotient down toward nu_1."""
    apply, sm = spectral._green(p)
    x = sm * np.random.default_rng(seed).standard_normal(sm.size)
    for _ in range(sweeps):
        x = apply(x)
        x /= np.linalg.norm(x)
    phi = np.zeros(p.grid.size)
    lo = int(p.left_bc is Endpoint.DIRICHLET)
    phi[lo:lo + sm.size] = x / sm
    return phi


class TestRayleighAtLeastNu1:
    """Min-max: the Rayleigh quotient of every admissible phi is >= nu_1."""

    @settings(max_examples=60)
    @given(
        points=st.integers(17, 400),
        grading=st.sampled_from([1.0, 2.0, 4.0]),
        sd=st.floats(0.0, 3.0),
        z=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
        pair=st.sampled_from(sorted(BC_PAIRS)),
        seed=st.integers(0, 2**32 - 1),
        sweeps=st.integers(0, 40),
    )
    def test_generated_problems(self, points, grading, sd, z, pair, seed, sweeps):
        left, right = BC_PAIRS[pair]
        t = 1.5 * np.linspace(0.0, 1.0, points) ** grading
        log_theta = np.interp(t, np.linspace(0.0, 1.5, 6), sd * np.asarray(z))
        p = RadialProblem(t, np.exp(log_theta), left_bc=left, right_bc=right)
        nu1 = dirichlet_spectrum(p, 1).eigenvalues[0]
        assert rayleigh(p, _admissible_phi(p, seed, sweeps)) >= nu1 * (1.0 - 1e-9)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), sweeps=st.integers(0, 40))
    def test_a_problem_above_the_two_grid_threshold(self, seed, sweeps):
        p, nu1 = _above_the_threshold()
        assert rayleigh(p, _admissible_phi(p, seed, sweeps)) >= nu1 * (1.0 - 1e-9)

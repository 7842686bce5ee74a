"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import math

import numpy as np
import pytest

from boundarylab import jacobi, models, screens, spectral
from boundarylab.asymptotics import (
    distribution_law,
    euclid_ball_sweep,
    hemisphere_sweep,
)
from boundarylab.graphs import BoundaryGraph, bsep_k, graph_screen
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
    generate_admissible_twisted,
    normalization_audit,
)
from boundarylab.screens import (
    AtomScreen,
    GridScreen,
    ObsBounds,
    bsep_single,
    closed_screen,
    ks_distance,
    obs_inradius,
    part_inradius,
    scale,
)
from boundarylab.spectral import (
    Endpoint,
    RadialProblem,
    audit_inequalities,
    dirichlet_spectrum,
    generate_log_concave_problem,
    gradient_sup,
    isoperimetric_constant,
    truncated_ray_problem,
    universal_constant,
)


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {name}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {name}")


def random_ball_pair(rng):
    while True:
        kappa = float(rng.uniform(-2.0, 2.0))
        lam = float(rng.uniform(-1.5, 2.0))
        cc = jacobi.classify(kappa, lam)
        if cc.is_ball:
            return cc


def test_criterion_01_model_closed_forms():
    """Closed-form ObsInRad agrees with the screen pipeline to 1e-8."""
    rng = np.random.default_rng(2024_01)
    eta_grid = np.arange(0.05, 0.96, 0.05)

    def draw_models(tag):
        for _ in range(20):
            eta = float(rng.choice(eta_grid))
            if tag == "ball":
                cc = random_ball_pair(rng)
                n = int(rng.integers(2, 9))
                yield ModelSpace.ball(n, cc.kappa, cc.lam), eta
            elif tag == "warped":
                yield ModelSpace.warped(int(rng.integers(2, 9)),
                                        float(rng.uniform(-3.0, -0.1))), eta
            elif tag == "half_gaussian":
                yield ModelSpace.half_gaussian(float(rng.uniform(0.2, 3.0)),
                                               float(rng.uniform(-1.5, 2.0))), eta
            elif tag == "exponential":
                yield ModelSpace.exponential(float(rng.uniform(0.2, 3.0))), eta
            elif tag == "weighted_warped_exp":
                n = int(rng.integers(2, 6))
                N = float(n + rng.uniform(0.0, 6.0))
                yield ModelSpace.weighted_warped_exp(n, N,
                                                     float(rng.uniform(-2.0, -0.2))), eta
            else:
                yield ModelSpace.weighted_warped_gauss(
                    int(rng.integers(2, 6)),
                    float(rng.uniform(-2.0, -0.2)),
                    float(rng.uniform(-0.5, 0.7)),
                ), eta

    with criterion(1, "model closed forms match the screen pipeline (1e-8)"):
        worst = 0.0
        for tag in ("ball", "warped", "half_gaussian", "exponential",
                    "weighted_warped_exp", "weighted_warped_gauss"):
            for m, eta in draw_models(tag):
                closed = closed_form_obs_inradius(m, eta)
                piped = obs_inradius(boundary_screen(m), eta)
                worst = max(worst, abs(closed - piped))
        assert worst <= 1e-8, f"worst pipeline deviation {worst}"


def test_criterion_02_flat_ball_reproduction():
    """(n/lam)(1 - eta^(1/n)) matches jacobi.v_inverse, a second evaluation
    of the same closed form, to 1e-9 and approaches its limit at the stated
    O(1/n) rate."""
    with criterion(2, "flat-ball closed form vs v_inverse evaluation and rate"):
        for lam in (1.0, 0.5):
            for eta in (0.25, 0.5, 0.75):
                ns = [2 ** j for j in range(1, 10)]  # 2 .. 512
                report = euclid_ball_sweep(lam, eta, ns)
                assert report.extras["cross_check_max"] <= 1e-9
                a = math.log(1.0 / eta)
                for row in report.rows:
                    if row.n >= 32:
                        assert row.gap <= 1.1 * a * a / (2.0 * row.n * lam)


def test_criterion_03_hemisphere_trend():
    """Hemisphere sweep gap decreases monotonically and lands below 5e-3."""
    with criterion(3, "hemisphere sweep converges to the half-Gaussian quantile"):
        ns = [2 ** j for j in range(3, 10)]  # 8 .. 512
        for eta in (0.25, 0.5, 0.75):
            gaps = hemisphere_sweep(1.0, eta, ns).gaps
            assert np.all(np.diff(gaps) < 0), f"gap not monotone at eta={eta}: {gaps}"
            assert gaps[-1] < 5e-3


def test_criterion_04_distribution_laws():
    """KS distances to the limit screens fall along doubling n, below 0.01."""
    with criterion(4, "distribution laws: KS to the limit decreasing, < 0.01 at n=256"):
        for family, param in (("hemisphere", 1.0), ("euclid_ball", 1.0),
                              ("warped", -1.0)):
            ks = [distribution_law(family, param, n)[1]
                  for n in (16, 32, 64, 128, 256)]
            assert np.all(np.diff(ks) < 0), f"{family}: {ks}"
            assert ks[-1] < 0.01, f"{family}: KS(256) = {ks[-1]}"


def test_criterion_05_spectral_solver():
    """Analytic spectra within 0.1% at m=2000; Richardson ratio in [3.5, 4.5]."""
    with criterion(5, "spectral solver accuracy and second-order convergence"):
        t = np.linspace(0.0, 1.0, 2001)
        dd = RadialProblem(t, np.ones_like(t))
        dn = RadialProblem(t, np.ones_like(t), right_bc=Endpoint.NEUMANN)
        nu_dd = dirichlet_spectrum(dd, 5).eigenvalues
        nu_dn = dirichlet_spectrum(dn, 5).eigenvalues
        ks = np.arange(1, 6)
        np.testing.assert_allclose(nu_dd, (ks * math.pi) ** 2, rtol=1e-3)
        np.testing.assert_allclose(nu_dn, ((ks - 0.5) * math.pi) ** 2, rtol=1e-3)
        errs = []
        for m in (251, 501, 1001):
            tt = np.linspace(0.0, 1.0, m)
            nu = dirichlet_spectrum(RadialProblem(tt, np.ones_like(tt)), 1).eigenvalues[0]
            errs.append(abs(nu - math.pi**2))
        for a, b in zip(errs, errs[1:]):
            assert 3.5 <= a / b <= 4.5, f"Richardson ratios {errs}"


def test_criterion_06_inequality_audits():
    """Zero violations on 50 admissible densities; extremal near-equalities."""
    with criterion(6, "inequality audits: 50 admissible densities, extremal fixtures"):
        rng = np.random.default_rng(2024_06)
        for _ in range(50):
            p = generate_log_concave_problem(rng, points=1601)
            report = audit_inequalities(p, 5, [0.3, 0.6])
            bad = [e for e in report.entries if not e.passed]
            assert not bad, f"violations: {bad[:3]}"
        # Li-Yau equality on the uniform two-sided interval
        t = np.linspace(0.0, 1.0, 2001)
        uni = RadialProblem(t, np.ones_like(t),
                            nonneg_ricci_f=True, nonneg_mean_curv=True)
        rep = audit_inequalities(uni, 5, [0.5])
        li = [e for e in rep.entries if e.name == "li_yau"][0]
        assert li.passed and abs(li.lhs - li.rhs) <= 0.01 * li.rhs
        # Cheeger equality on the truncated exponential ray
        ray = truncated_ray_problem(ModelSpace.exponential(2.0),
                                    points=4001, length=40.0)
        iso = isoperimetric_constant(ray)
        nu1 = dirichlet_spectrum(ray, 1).eigenvalues[0]
        assert abs(iso - 2.0 * math.sqrt(nu1)) <= 0.01 * iso
        assert iso <= 2.0 * math.sqrt(nu1) + 1e-6


def test_criterion_07_universal_constant():
    """C in [695, 705]; inner sup and stationary point to 1e-4, with a
    golden-section oracle."""
    with criterion(7, "universal constant and its inner maximization"):
        C = universal_constant()
        assert 695.0 <= C <= 705.0
        t_star, sup = gradient_sup()
        assert abs(sup - 0.63817) <= 1e-4
        assert abs(t_star - 1.25643) <= 1e-4
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        f = lambda t: (1.0 - math.exp(-t)) / math.sqrt(t)  # noqa: E731
        a, b = 0.1, 5.0
        c, d = b - gr * (b - a), a + gr * (b - a)
        for _ in range(120):
            if f(c) > f(d):
                b, d = d, c
                c = b - gr * (b - a)
            else:
                a, c = c, d
                d = a + gr * (b - a)
        assert abs(0.5 * (a + b) - t_star) <= 1e-4
        assert abs(f(0.5 * (a + b)) - sup) <= 1e-6


def test_criterion_08_comparison_sandwich():
    """Screen ObsInRad <= comparison bound on 100 densities per regime."""
    rng = np.random.default_rng(2024_08)
    etas = np.arange(0.1, 0.95, 0.1)

    def check(density, kind):
        s = density.screen()
        for eta in etas:
            lhs = obs_inradius(s, float(eta))
            rhs = comparison_bound(kind, float(eta))
            assert lhs <= rhs + 1e-9, f"{lhs} > {rhs} at eta={eta} for {kind}"

    with criterion(8, "comparison sandwich across five curvature regimes"):
        for _ in range(100):
            cc = random_ball_pair(rng)
            N = float(rng.uniform(1.5, 10.0))
            check(generate_admissible_finite(N, cc, rng, points=1201),
                  FiniteN(N, cc))
        for _ in range(100):
            kappa = float(rng.uniform(-4.0, -0.1))
            cc = jacobi.classify(kappa, math.sqrt(-kappa))
            N = float(rng.uniform(1.5, 10.0))
            check(generate_admissible_finite(N, cc, rng, points=1201),
                  FiniteN(N, cc))
        for _ in range(100):
            while True:
                kappa = float(rng.uniform(-2.0, 2.0))
                lam = float(rng.uniform(0.0, 2.0))
                if jacobi.classify(kappa, lam).is_convex_ball:
                    break
            tp = jacobi.TwistParams(int(rng.integers(2, 7)), kappa, lam,
                                    float(rng.uniform(-0.5, 0.7)))
            check(generate_admissible_twisted(tp, rng, points=1201), Twisted(tp))
        for _ in range(100):
            ic = jacobi.classify_infinite(float(rng.uniform(0.1, 3.0)),
                                          float(rng.uniform(-1.5, 2.0)))
            check(generate_admissible_infinite(ic, rng, points=1201), Infinite(ic))
        for _ in range(100):
            ic = jacobi.classify_infinite(0.0, float(rng.uniform(0.2, 3.0)))
            check(generate_admissible_infinite(ic, rng, points=1201), Infinite(ic))


def _random_graph(rng, n):
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.2, 2.0))))
    for _ in range(int(rng.integers(0, n))):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.append((u, v, float(rng.uniform(0.2, 2.0))))
    k = int(rng.integers(1, max(2, n // 3) + 1))
    boundary = rng.choice(n, size=k, replace=False).tolist()
    w = rng.dirichlet(np.ones(n))
    return BoundaryGraph(n, edges, boundary, w)


def test_criterion_09_discrete_brute_force():
    """Superlevel value equals 2^V enumeration on 200 graphs; greedy k=2
    never exceeds exact k=2."""
    rng = np.random.default_rng(2024_09)
    with criterion(9, "graph separation: brute-force equality and greedy bound"):
        for _ in range(200):
            n = int(rng.integers(4, 16))
            g = _random_graph(rng, n)
            eta = float(rng.uniform(0.05, 0.95))
            # vectorized enumeration over all nonempty vertex subsets
            masks = np.arange(1, 1 << n, dtype=np.int64)
            bits = (masks[:, None] >> np.arange(n)) & 1
            masses = bits.astype(float) @ g.measure
            minrho = np.where(bits == 1, g.rho[None, :], np.inf).min(axis=1)
            feasible = masses >= eta
            brute = float(minrho[feasible].max()) if feasible.any() else 0.0
            assert bsep_k(g, [eta]) == brute
            if n <= 12:
                etas2 = [float(rng.uniform(0.08, 0.35)) for _ in range(2)]
                exact = bsep_k(g, etas2, mode="exact")
                greedy = bsep_k(g, etas2, mode="greedy")
                assert greedy <= exact + 1e-12


def test_criterion_10_scaling_identity():
    """part/bsep/obs all commute with metric scaling to 1e-12 relative."""
    rng = np.random.default_rng(2024_10)

    def random_screen(i):
        kind = i % 3
        if kind == 0:
            m = int(rng.integers(6, 30))
            ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, size=m))])
            F = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 1.0, size=m))])
            F /= F[-1]
            return GridScreen(ts, F)
        if kind == 1:
            m = int(rng.integers(3, 12))
            ts = np.sort(rng.uniform(0.0, 4.0, size=m))
            return AtomScreen(ts, rng.dirichlet(np.ones(m)))
        return closed_screen("exponential", rate=float(rng.uniform(0.3, 3.0)))

    with criterion(10, "scaling identity for all three invariants (1e-12)"):
        for i in range(50):
            s = random_screen(i)
            eta = float(rng.uniform(0.05, 0.95))
            xi = float(rng.uniform(0.05, 0.95))
            for c in (0.5, 2.0, 10.0):
                sc = scale(s, c)
                for fn, arg in ((part_inradius, xi), (bsep_single, eta)):
                    a, b = fn(sc, arg), c * fn(s, arg)
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
                oa, ob = obs_inradius(sc, eta), obs_inradius(s, eta)
                if isinstance(ob, ObsBounds):
                    assert oa.lower == pytest.approx(c * ob.lower, rel=1e-12, abs=1e-12)
                    assert oa.upper == pytest.approx(c * ob.upper, rel=1e-12, abs=1e-12)
                else:
                    assert oa == pytest.approx(c * ob, rel=1e-12, abs=1e-12)


def test_criterion_11_weighted_examples():
    """Constructed weighted warped densities have unit mass; the
    exponential-type example matches its logarithmic closed form."""
    rng = np.random.default_rng(2024_11)
    with criterion(11, "weighted warped examples: unit mass and closed form"):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            N = float(n + rng.uniform(0.0, 8.0))
            kappa = float(rng.uniform(-3.0, -0.1))
            m1 = ModelSpace.weighted_warped_exp(n, N, kappa)
            assert abs(normalization_audit(m1) - 1.0) <= 1e-8
            m2 = ModelSpace.weighted_warped_gauss(
                n, kappa, float(rng.uniform(-0.5, 0.7))
            )
            assert abs(normalization_audit(m2) - 1.0) <= 1e-8
            eta = float(rng.uniform(0.05, 0.95))
            lam = math.sqrt(-kappa)
            want = math.log(1.0 / eta) / ((N - 1) * lam)
            got = obs_inradius(boundary_screen(m1), eta)
            assert abs(got - want) <= 1e-8

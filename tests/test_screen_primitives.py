"""Screens answered from exact primitives.

* ``ks_distance`` is exact: it equals analytic distances, a refined scan
  of the exact CDFs on the law pairs of ``distribution_law``, a dense
  exact scan where a peaked density crosses a grid's twice, and a
  brute-force pass over the merged knots of two atom screens.
* A closed screen has one CDF: its scans (``cdf_fast``, ``_sides``,
  ``to_csv``) read the exact ``cdf`` bitwise.
* ``AtomScreen`` answers every query from its cumulative tables; the
  references are exact rational sums of its masses (``fractions``).
* A ball screen's density reads its normaliser off the kernel, and agrees
  with the profile power over ``jacobi.s_growth`` that it replaces.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from boundarylab import jacobi
from boundarylab.asymptotics import _canonical, distribution_law
from boundarylab.models import boundary_screen
from boundarylab.screens import AtomScreen, GridScreen, closed_screen, ks_distance, ky_fan_zero

EPS = np.finfo(float).eps

# the benchmark's law pairs, then criterion 04's fifteen
LAW_PAIRS = [("hemisphere", 0.534, 4), ("hemisphere", 0.534, 16),
             ("euclid_ball", 1.832, 4), ("euclid_ball", 1.832, 16)]
LAW_PAIRS += [(family, param, n) for family, param in
              (("hemisphere", 1.0), ("euclid_ball", 1.0), ("warped", -1.0))
              for n in (16, 32, 64, 128, 256)]


def law_screens(family, param, n):
    fam = _canonical(family, param)
    return (boundary_screen(fam.model(n, {fam.primary: param / n**fam.order})),
            boundary_screen(fam.limit(param)))


def refined_exact_scan(s1, s2, points=2049):
    """sup |F1 - F2| from the exact ``cdf`` on a uniform scan plus the support
    ends, each local maximum then refined by bounded Brent minimization."""
    hi = max(s1.scan_upper(), s2.scan_upper())
    ends = [s.upper_support for s in (s1, s2) if math.isfinite(s.upper_support)]
    ts = np.unique(np.concatenate([np.linspace(0.0, hi, points), ends]))
    gap = np.array([abs(s1.cdf(t) - s2.cdf(t)) for t in ts.tolist()])
    best = float(gap.max())
    peaks = np.flatnonzero((gap[1:-1] >= gap[:-2]) & (gap[1:-1] >= gap[2:]) &
                           (gap[1:-1] >= 0.5 * best)) + 1
    for i in peaks:
        res = minimize_scalar(lambda t: -abs(s1.cdf(t) - s2.cdf(t)), method="bounded",
                              bounds=(ts[i - 1], ts[i + 1]), options={"xatol": 1e-10 * hi})
        best = max(best, -float(res.fun))
    return best


class TestExactKS:
    @pytest.mark.parametrize("family,param,n", LAW_PAIRS)
    def test_law_pairs_equal_a_refined_exact_cdf_scan(self, family, param, n):
        finite, limit = law_screens(family, param, n)
        assert ks_distance(finite, limit) == pytest.approx(refined_exact_scan(finite, limit),
                                                           rel=1e-10)

    def test_warped_law_is_the_analytic_distance(self):
        # rates 0.9 and 1: the gap peaks at t = 10 log(10/9), where it is 0.9^9 0.1
        assert abs(distribution_law("warped", -1.0, 10)[1] - 0.9**9 * 0.1) <= 1e-14

    @pytest.mark.parametrize("s1,s2,want", [
        # exponentials of rates 1 and 2: the gap peaks at log 2, inside the ray
        (closed_screen("exponential", rate=1.0), closed_screen("exponential", rate=2.0), 0.25),
        # a grid against a closed screen: t/2 - (1 - e^-t) is least at log 2
        (GridScreen([0.0, 2.0], [0.0, 1.0]), closed_screen("exponential", rate=1.0),
         (1.0 - math.log(2.0)) / 2.0),
        # an atom against a closed screen: the jump at 1/2 leaves e^(-1/2)
        (AtomScreen([0.5], [1.0]), closed_screen("exponential", rate=1.0), math.exp(-0.5)),
        (closed_screen("uniform", width=1.0), closed_screen("uniform", width=2.0), 0.5),
    ])
    def test_analytic_distances(self, s1, s2, want):
        assert ks_distance(s1, s2) == pytest.approx(want, rel=1e-12)
        assert ks_distance(s2, s1) == pytest.approx(want, rel=1e-12)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_atom_screens_equal_the_one_sided_gaps_at_every_knot(self, data):
        def atoms():
            t = data.draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20))
            p = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(t),
                                            max_size=len(t))))
            return AtomScreen(t, p / p.sum())

        a, b = atoms(), atoms()
        want = max(max(abs(a.cdf(t) - b.cdf(t)), abs(a.cdf_left(t) - b.cdf_left(t)))
                   for t in np.concatenate([a.t, b.t]).tolist())
        assert ks_distance(a, b) == want

    def test_a_peaked_density_crossing_a_grid_twice_in_one_cell(self):
        # the crossings, 0.012 either side of the mode, share a 0.04-wide coarse
        # cell unless the mode is a knot, and plain regula falsi stalls at
        # x = 5.00119, where g = 0.09999
        K = 1.0 / 0.003**2
        grid = GridScreen([0.0, 10.0], [0.0, 1.0])
        peak = closed_screen("half_gaussian", K=K, Lam=-K * 5.01953125)
        ts = np.linspace(4.99, 5.03, 40_001)
        dense = float(np.abs(grid.cdf_fast(ts) - peak.cdf_fast(ts)).max())
        assert dense > 0.5007408
        assert ks_distance(grid, peak) >= dense - 1e-12
        assert ks_distance(peak, grid) >= dense - 1e-12


CLOSED_SCREENS = [
    ("uniform", {"width": 2.5}),
    ("exponential", {"rate": 1.0}),
    ("ball", {"N": 3.0, "kappa": 1.0, "lam": -0.5}),  # its density peaks inside
    ("ball", {"N": 4.0, "kappa": 0.0, "lam": 0.5}),
    ("ball", {"N": 4.0, "kappa": -1.0, "lam": 1.5}),
    ("ball", {"N": 1.05, "kappa": 1.0, "lam": 0.2}),  # an unbounded slope at the rim
    ("half_gaussian", {"K": 1.0, "Lam": -40.0}),
]


@pytest.mark.parametrize("family,params", CLOSED_SCREENS)
def test_closed_screen_scans_read_the_exact_cdf(family, params):
    s = closed_screen(family, **params)
    ts = np.linspace(0.0, 1.2 * s.scan_upper(), 301)
    exact = np.array([s.cdf(t) for t in ts.tolist()])
    assert np.array_equal(s.cdf_fast(ts), exact)
    left, right = s._sides(ts)
    assert np.array_equal(left, exact) and np.array_equal(right, exact)
    rows = [line.split(",") for line in s.to_csv(n=65).splitlines()[1:]]
    t, F = np.array(rows, dtype=float).T
    assert np.array_equal(F, [s.cdf(x) for x in t.tolist()])


def exact_sum(p):
    return sum(Fraction(x) for x in p.tolist())


def exact_tail(s, j):
    """Exact mass of the atoms j, j + 1, ... of an atom screen."""
    return exact_sum(s.p[j:])


def exact_bsep(s, eta):
    tail = Fraction(0)
    for j in range(s.t.size - 1, -1, -1):
        tail += Fraction(float(s.p[j]))
        if tail >= Fraction(eta):
            return float(s.t[j])
    return 0.0


def exact_ky_fan(s):
    edges = [0.0, *s.t.tolist(), math.inf]
    for j in range(s.t.size + 1):
        a, b = edges[j], edges[j + 1]
        v = exact_tail(s, int(np.searchsorted(s.t, a, side="right")))
        if v <= Fraction(a):
            return a
        if b == math.inf or v < Fraction(b):
            return float(v)
    raise AssertionError("the tail reaches 0 past the last atom")


class TestAtomTables:
    @pytest.mark.parametrize("eta,want", [(0.8, 2.0), (0.9, 1.0), (1.0, 0.0)])
    def test_eta_equal_to_a_partial_sum_ties(self, eta, want):
        # 8, 9 and 10 masses of 0.1 hold exactly 0.8, at least 0.9 and at
        # least 1.0 as floats, while np.cumsum from the top reads 0.7999999999999999
        assert AtomScreen(range(10), [0.1] * 10).bsep(eta) == want

    @pytest.mark.parametrize("mass,count", [(0.1, 10), (0.2, 5), (1 / 3, 3), (0.05, 20),
                                            (0.01, 100), (1 / 7, 7), (0.02, 50)])
    def test_ties_at_every_partial_sum(self, mass, count):
        s = AtomScreen(range(count), [mass] * count)
        etas = {round(k * mass, 12) for k in range(1, count + 1)}
        etas |= {float(np.sum(s.p[j:])) for j in range(count)}
        for eta in sorted(e for e in etas if e <= 1.0):
            assert s.bsep(eta) == exact_bsep(s, eta), eta
        assert ky_fan_zero(s) == pytest.approx(exact_ky_fan(s), rel=2 * EPS)

    def test_unsorted_tied_atoms_merge_in_input_order(self):
        """Tied locations merge to one atom whose mass is the sum of theirs
        taken in input order, atoms of zero mass drop out, and the tables
        equal those of the merged atoms given sorted."""
        rng = np.random.default_rng(30)
        for _ in range(20):
            t = rng.choice([0.0, 0.5, 1.25, 2.0, 3.5], size=40)
            p = rng.random(40) ** 3 * (rng.random(40) < 0.9)
            p /= p.sum()
            merged = {}
            for ti, pi in zip(t.tolist(), p.tolist()):
                merged[ti] = merged.get(ti, 0.0) + pi
            keys = sorted(k for k, m in merged.items() if m > 0.0)
            s, ref = AtomScreen(t, p), AtomScreen(keys, [merged[k] for k in keys])
            assert s.t.tolist() == keys and s.p.tolist() == [merged[k] for k in keys]
            for table in ("_cum", "_top", "_top_err"):
                assert np.array_equal(getattr(s, table), getattr(ref, table)), table

    @settings(max_examples=60)
    @given(t=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40),
           data=st.data(), eta=st.floats(0.001, 1.0), probe=st.floats(-1.0, 11.0))
    def test_queries_against_exact_sums(self, t, data, eta, probe):
        p = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(t), max_size=len(t))))
        if p.sum() == 0.0:
            p[0] = 1.0
        s = AtomScreen(t, p / p.sum())
        assert s.bsep(eta) == exact_bsep(s, eta)
        assert ky_fan_zero(s) == pytest.approx(exact_ky_fan(s), rel=2 * EPS)
        below, upto = np.searchsorted(s.t, probe), np.searchsorted(s.t, probe, side="right")
        tol = s.t.size * EPS  # np.cumsum rounds once per atom
        assert s.cdf(probe) == pytest.approx(float(exact_sum(s.p[:upto])), abs=tol)
        assert s.cdf_left(probe) == pytest.approx(float(exact_sum(s.p[:below])), abs=tol)
        assert s.tail_closed(probe) == pytest.approx(float(exact_tail(s, below)), rel=EPS)
        assert s.tail_open(probe) == pytest.approx(float(exact_tail(s, upto)), rel=EPS)
        cum = np.cumsum(s.p)
        assert s.quantile(eta) == s.t[min(np.searchsorted(cum, eta), s.t.size - 1)]


@pytest.mark.parametrize("kappa,lam", [(1.0, 0.4), (1.0, -0.4), (0.0, 0.4), (-1.0, 1.7)])
@pytest.mark.parametrize("N", [1.05, 7.0, 1000.0])
def test_ball_density_normaliser_read_off_the_kernel(kappa, lam, N):
    """The density agrees with s^(N-1) / s_growth(N, cc, C), the route it
    replaces, to 32 N ulps: the power N - 1 scales the profile's rounding."""
    cc = jacobi.classify(kappa, lam)
    s = closed_screen("ball", N=N, kappa=kappa, lam=lam)
    t = np.linspace(0.0, 0.9 * s.upper_support, 31)
    ref = jacobi.s_profile_clamped(cc, t) ** (N - 1.0) / jacobi.s_growth(N, cc, s.upper_support)
    np.testing.assert_allclose(s.pdf(t), ref, rtol=32 * N * EPS)
    assert s.pdf(s.upper_support) == 0.0 and s.pdf(1.1 * s.upper_support) == 0.0

"""Properties of the observable inscribed radius over generated screens of
every kind: grid, atom and closed (catalog) screens.

ObsInRad is nonincreasing in eta, and it lies in the enclosure

    part_inradius(s, 1 - eta)  <=  ObsInRad  <=  bsep_single(s, eta).

When a screen does not declare full support, ``obs_inradius`` returns that
enclosure as ``ObsBounds``: both of its ends must then be monotone, and its
lower end may not pass its upper one.

The comparison sandwich ObsInRad <= comparison_bound holds over generated
admissible densities in each of the five regimes of criterion 08.

Scaling a problem's grid by c scales every audit entry by a power of c: the
isoperimetric constant and the Cheeger-type bounds by 1/c, eigenvalues by
1/c^2, and the radii and separation distances by c.  Under c = 1/4 and
c = 4 every float is scaled exactly, so each entry must be too.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from test_screens import closed_screens
from test_spectral import pl_problems

from boundarylab import jacobi, models
from boundarylab.errors import DomainError
from boundarylab.screens import (
    AtomScreen,
    GridScreen,
    ObsBounds,
    bsep_single,
    obs_inradius,
    part_inradius,
)
from boundarylab.spectral import Endpoint, RadialProblem, audit_inequalities


@st.composite
def grid_screens(draw):
    """Knot gaps of 0.05 to 1, CDF increments that may be 0 (a flat stretch,
    so no full support) and an optional atom at 0."""
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=30))
    incr = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                         min_size=len(gaps), max_size=len(gaps)))
    F = np.cumsum([draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))), *incr])
    assume(F[-1] > 0.0)
    return GridScreen(np.cumsum([0.0, *gaps]), F / F[-1])


@st.composite
def atom_screens(draw):
    """Up to 30 atoms on [0, 10], repeated locations allowed."""
    t = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30))
    p = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(t), max_size=len(t))))
    return AtomScreen(t, p / p.sum())


SCREENS = {"grid": grid_screens, "atoms": atom_screens, "closed": closed_screens}


def enclosure(s, eta):
    out = obs_inradius(s, eta)
    return tuple(out) if isinstance(out, ObsBounds) else (out, out)


@pytest.mark.parametrize("kind", list(SCREENS))
@settings(max_examples=60)
@given(data=st.data(), etas=st.lists(st.floats(0.001, 1.0), min_size=2, max_size=2))
def test_obs_inradius_is_nonincreasing_in_eta(kind, data, etas):
    s = data.draw(SCREENS[kind]())
    small, large = sorted(etas)
    (lo_small, hi_small), (lo_large, hi_large) = enclosure(s, small), enclosure(s, large)
    assert lo_large <= lo_small and hi_large <= hi_small


@pytest.mark.parametrize("kind", list(SCREENS))
@settings(max_examples=60)
@given(data=st.data(), eta=st.floats(0.001, 0.999))
def test_obs_inradius_lies_between_part_inradius_and_bsep(kind, data, eta):
    s = data.draw(SCREENS[kind]())
    lo, hi = enclosure(s, eta)
    # 1 - eta is rounded, so on a full-support screen the quantile may pass
    # bsep_single(s, eta), the same radius by another route, by an ulp or two
    assert part_inradius(s, 1.0 - eta) <= lo + 1e-12
    assert lo <= hi <= bsep_single(s, eta)


def _admissible(regime, draw):
    """(density, comparison kind) of one regime of criterion 08, its
    parameters and the generator's seed drawn by hypothesis."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if regime == "infinite":
        ic = jacobi.classify_infinite(draw(st.floats(0.1, 3.0)), draw(st.floats(-1.5, 2.0)))
        return models.generate_admissible_infinite(ic, rng, points=1201), models.Infinite(ic)
    if regime == "infinite-flat":
        ic = jacobi.classify_infinite(0.0, draw(st.floats(0.2, 3.0)))
        return models.generate_admissible_infinite(ic, rng, points=1201), models.Infinite(ic)
    if regime == "twisted":
        kappa, lam = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 2.0))
        assume(jacobi.classify(kappa, lam).is_convex_ball)
        tp = jacobi.TwistParams(draw(st.integers(2, 6)), kappa, lam, draw(st.floats(-0.5, 0.7)))
        return models.generate_admissible_twisted(tp, rng, points=1201), models.Twisted(tp)
    if regime == "ball":
        cc = jacobi.classify(draw(st.floats(-2.0, 2.0)), draw(st.floats(-1.5, 2.0)))
        assume(cc.is_ball)
    else:  # horospherical
        kappa = draw(st.floats(-4.0, -0.1))
        cc = jacobi.classify(kappa, math.sqrt(-kappa))
    N = draw(st.floats(1.5, 10.0))
    return models.generate_admissible_finite(N, cc, rng, points=1201), models.FiniteN(N, cc)


@pytest.mark.parametrize("regime", ["ball", "horospherical", "twisted", "infinite", "infinite-flat"])
@settings(max_examples=60)
@given(data=st.data(), eta=st.floats(0.01, 0.99))
def test_comparison_sandwich_over_generated_admissible_densities(regime, data, eta):
    """obs_inradius(density.screen(), eta) <= comparison_bound(kind, eta).

    Near-flat balls (a radius in the thousands, or one that rounds to 0)
    are beyond the generators, which raise ``DomainError`` there; such
    draws hold no density to test."""
    try:
        density, kind = _admissible(regime, data.draw)
    except DomainError:
        reject()
    assert obs_inradius(density.screen(), eta) <= models.comparison_bound(kind, eta) + 1e-9


# the power of c by which each audit entry's lhs, rhs and margin scale
AUDIT_SCALING = {"cheeger": -1, "improved_cheeger": -1, "buser_ledoux": -1, "li_yau": -2,
                 "universal_ratio": -2, "obs_inradius_eigen": 1, "bsep_eigen": 1}


@pytest.mark.parametrize("bcs", [
    (Endpoint.DIRICHLET, Endpoint.DIRICHLET),
    (Endpoint.DIRICHLET, Endpoint.NEUMANN),
    (Endpoint.NEUMANN, Endpoint.DIRICHLET),
])
@pytest.mark.parametrize("flags", [False, True])
@settings(max_examples=12)
@given(data=st.data())
def test_every_audit_entry_scales_exactly_with_the_grid(bcs, flags, data):
    p = data.draw(pl_problems(bcs))
    k_max = data.draw(st.integers(1, 3))  # the resolution guard allows k <= m/4, m >= 14
    etas = data.draw(st.lists(st.floats(0.02, 0.9), min_size=1, max_size=3))

    def audit(c):
        q = RadialProblem(c * p.grid, p.theta, left_bc=p.left_bc, right_bc=p.right_bc,
                          nonneg_ricci_f=flags, nonneg_mean_curv=flags)
        return audit_inequalities(q, k_max, etas).entries

    parent = audit(1.0)
    for c in (0.25, 4.0):
        scaled = audit(c)
        assert [(f.name, f.k, f.eta) for f in scaled] == [(e.name, e.k, e.eta) for e in parent]
        for e, f in zip(parent, scaled):
            factor = c ** AUDIT_SCALING[e.name]
            assert (f.lhs, f.rhs, f.margin) == (factor * e.lhs, factor * e.rhs, factor * e.margin)
            assert f.passed == e.passed

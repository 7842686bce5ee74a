"""Tests for screen invariants and the quantile conventions."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from boundarylab._integrate import cumulative_simpson
from boundarylab.errors import DomainError
from boundarylab.screens import (
    AtomScreen,
    GridScreen,
    ObsBounds,
    bsep_single,
    closed_screen,
    ks_distance,
    ky_fan_zero,
    obs_inradius,
    part_inradius,
    scale,
    screen_from_json,
)
from boundarylab.screens import _bracket


def uniform_grid_screen(width=1.0, m=401):
    ts = np.linspace(0.0, width, m)
    return GridScreen(ts, ts / width)


def random_grid_screen(rng, m=None):
    m = m or rng.integers(8, 40)
    ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, size=m))])
    incr = rng.uniform(0.0, 1.0, size=m)
    F = np.concatenate([[0.0], np.cumsum(incr)])
    F /= F[-1]
    return GridScreen(ts, F)


@st.composite
def any_screens(draw):
    """An atom screen, a grid screen (an atom at 0 or none) or a closed screen
    of any family, scaled."""
    kind = draw(st.sampled_from(["atoms", "grid", "closed"]))
    if kind == "closed":
        return scale(draw(closed_screens()), draw(st.floats(0.05, 20.0)))
    m = draw(st.integers(1, 30))
    steps = st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)
    mass = np.array(draw(steps)) + 1e-3
    t = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=m, max_size=m)))
    if kind == "atoms":
        return AtomScreen(t, mass / mass.sum())
    # t as the gaps between knots, mass as the CDF's rise over each
    F = np.cumsum(np.concatenate([[draw(st.sampled_from([0.0, 0.3]))], mass]))
    return GridScreen(np.concatenate([[0.0], np.cumsum(t + 1e-3)]), F / F[-1])


class TestPartInradius:
    def test_exponential_quantile(self):
        s = closed_screen("exponential", rate=1.0)
        eta = math.exp(-1.0)
        assert part_inradius(s, 1.0 - eta) == pytest.approx(1.0, abs=1e-10)

    def test_empty_set_for_nonpositive_mass(self):
        s = uniform_grid_screen()
        assert part_inradius(s, 0.0) == 0.0
        assert part_inradius(s, -3.0) == 0.0

    def test_uniform_quantile(self):
        assert part_inradius(uniform_grid_screen(), 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_overfull_mass_rejected(self):
        with pytest.raises(DomainError):
            part_inradius(uniform_grid_screen(), 1.1)


class TestBsep:
    def test_exponential(self):
        s = closed_screen("exponential", rate=1.0)
        assert bsep_single(s, math.exp(-1.0)) == pytest.approx(1.0, abs=1e-10)

    def test_fallback_above_one(self):
        assert bsep_single(uniform_grid_screen(), 1.5) == 0.0

    def test_flat_ball_matches_v_inverse(self):
        from boundarylab.jacobi import classify, v_inverse

        s = closed_screen("ball", N=2.0, kappa=0.0, lam=0.5)
        want = v_inverse(2.0, classify(0.0, 0.5), 0.25)
        assert want == pytest.approx(1.0, abs=1e-10)
        assert bsep_single(s, 0.25) == pytest.approx(1.0, abs=1e-9)

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(DomainError):
            bsep_single(uniform_grid_screen(), 0.0)


class TestObsInradius:
    def test_exponential_full_support(self):
        s = closed_screen("exponential", rate=2.0)
        for eta in (0.1, 0.5, 0.9):
            assert obs_inradius(s, eta) == pytest.approx(
                math.log(1.0 / eta) / 2.0, abs=1e-10
            )

    def test_zero_above_mass_one(self):
        s = closed_screen("exponential", rate=1.0)
        assert obs_inradius(s, 1.5) == 0.0
        assert obs_inradius(s, 1.0) == 0.0

    def test_half_gaussian_median(self):
        s = closed_screen("half_gaussian", K=1.0, Lam=0.0)
        assert obs_inradius(s, 0.5) == pytest.approx(0.674490, abs=1e-6)

    def test_interval_without_full_support(self):
        s = AtomScreen([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
        out = obs_inradius(s, 0.25)
        assert isinstance(out, ObsBounds)
        assert out.lower <= out.upper
        assert out.upper == bsep_single(s, 0.25)
        assert out.lower == part_inradius(s, 0.75)

    def test_monotone_nonincreasing_in_eta(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = random_grid_screen(rng)
            etas = np.linspace(0.05, 0.95, 10)
            vals = [bsep_single(s, e) for e in etas]
            assert np.all(np.diff(vals) <= 1e-12)


class TestKyFan:
    def test_point_mass_at_zero(self):
        assert ky_fan_zero(AtomScreen([0.0], [1.0])) == 0.0

    def test_uniform(self):
        assert ky_fan_zero(uniform_grid_screen()) == pytest.approx(0.5, abs=1e-10)

    def test_exponential_fixed_point(self):
        root = brentq(lambda e: math.exp(-e) - e, 0.0, 1.0, xtol=1e-13)
        s = closed_screen("exponential", rate=1.0)
        assert ky_fan_zero(s) == pytest.approx(root, abs=1e-9)
        assert root == pytest.approx(0.567143, abs=1e-6)

    def test_atom_walk(self):
        s = AtomScreen([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
        assert ky_fan_zero(s) == pytest.approx(2.0 / 3.0, abs=1e-12)

    @settings(max_examples=150)
    @given(s=any_screens())
    @example(s=closed_screen("ball", N=4.0, kappa=1.0, lam=0.3))
    @example(s=closed_screen("half_gaussian", K=1.0, Lam=-0.5))
    @example(s=AtomScreen([0.0, 1.0], [1.0, 1e-13]))
    @example(s=AtomScreen([0.0, 1.0], [1.0, 1e-300]))
    @example(s=AtomScreen([0.0, 1.0], [1.0, 5e-324]))
    def test_least_float_that_passes(self, s):
        """The value passes, P[T > eps] <= eps, and the float below it fails."""
        eps = ky_fan_zero(s)
        assert s.tail_open(eps) <= eps
        below = math.nextafter(eps, 0.0)
        assert eps == 0.0 or s.tail_open(below) > below

    @pytest.mark.parametrize("s, most", [
        (closed_screen("ball", N=4.0, kappa=1.0, lam=0.3), 20),
        (closed_screen("half_gaussian", K=1.0, Lam=-0.5), 20),
        (AtomScreen([0.0, 1.0], [1.0, 1e-13]), 12),
        (AtomScreen([0.0, 1.0], [1.0, 1e-300]), 12),
        (AtomScreen([0.0, 1.0], [1.0, 5e-324]), 12),
    ])
    def test_tail_calls(self, s, most):
        # bisection at the arithmetic midpoint took 54-55 exact tails on a closed
        # screen, and about 53 + log2(1/eps) on a small value: 1,075 at 5e-324
        calls = []
        tail = s.tail_open
        s.tail_open = lambda eps: calls.append(eps) or tail(eps)
        ky_fan_zero(s)
        assert len(calls) <= most

    def test_mass_just_above_one(self):
        # the masses sum to 1 + 2^-52 and all sit past it: P[T > 0] is the value
        s = AtomScreen([5.0, 6.0], [0.5, 0.5 + 2.0 ** -52])
        assert s.tail_open(0.0) == 1.0000000000000002
        assert ky_fan_zero(s) == 1.0000000000000002

    def test_exponential_is_the_omega_constant(self):
        # e^-eps = eps at eps = W(1)
        s = closed_screen("exponential", rate=1.0)
        assert ky_fan_zero(s) == float(mpmath.lambertw(1)) == 0.5671432904097838

    def test_scaling_monotone_above_one(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            s = random_grid_screen(rng)
            cs = [1.0, 1.5, 2.5, 4.0, 8.0]
            vals = [ky_fan_zero(scale(s, c)) for c in cs]
            assert np.all(np.diff(vals) >= -1e-12)


def _thresholds(lo, hi):
    """Points t in (lo, hi] across the non-negative doubles: the bracket's ends,
    the least subnormal and normal doubles, 1e-300, and any float between."""
    special = [math.nextafter(lo, hi), hi, 5e-324, 2.2250738585072014e-308, 1e-300, 0.3]
    return (st.sampled_from([t for t in special if lo < t <= hi])
            | st.floats(math.nextafter(lo, hi), hi))


class TestBracket:
    """The one root finder of ky_fan_zero, interval_bsep and ks_distance."""

    # values the predicate's side comes with: its sign only, the distance to the
    # threshold, and the distance cubed, which is flat there and 0 within 1e-108
    VALUES = {
        "sign": lambda d: math.copysign(1.0, d),
        "distance": lambda d: d,
        "cube": lambda d: math.copysign(min(abs(d), 1e100) ** 3, d),
    }

    @given(data=st.data())
    def test_adjacent_floats_around_any_threshold(self, data):
        lo, hi = data.draw(st.sampled_from([(0.0, 1.0), (0.0, 4.0), (0.0, 1e300), (1e-300, 0.5)]))
        t = data.draw(_thresholds(lo, hi))
        value = self.VALUES[data.draw(st.sampled_from(sorted(self.VALUES)))]
        upper = data.draw(st.booleans())
        calls = []

        def f(x):
            calls.append(x)
            assert len(calls) <= 2 * 64 + 2
            return x >= t, value(x - t)

        x = _bracket(f, lo, hi, f(lo)[1], f(hi)[1], upper=upper)
        other = math.nextafter(x, 0.0 if upper else math.inf)
        assert (x >= t) is upper and (other >= t) is not upper

    def test_a_flat_value_near_a_subnormal_threshold_takes_the_most(self):
        # the cubed distance underflows to 0 from 1e-108 on: regula falsi
        # creeps, and bisection on the bit patterns finishes from the 65th step
        calls = []

        def f(x):
            calls.append(x)
            assert len(calls) <= 2 * 64 + 2
            return x >= 1e-320, self.VALUES["cube"](x - 1e-320)

        assert _bracket(f, 0.0, 1e300, f(0.0)[1], f(1e300)[1], upper=True) == 1e-320
        assert len(calls) > 100


class TestScale:
    def test_exponential_rate_halves(self):
        s = scale(closed_screen("exponential", rate=1.0), 2.0)
        ref = closed_screen("exponential", rate=0.5)
        ts = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(s.cdf_fast(ts), ref.cdf_fast(ts), atol=1e-9)

    def test_identity(self):
        s = uniform_grid_screen()
        s1 = scale(s, 1.0)
        assert bsep_single(s1, 0.3) == bsep_single(s, 0.3)

    def test_invariants_scale_linearly(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            s = random_grid_screen(rng)
            c = rng.choice([0.5, 2.0, 3.0, 10.0])
            sc = scale(s, c)
            eta = rng.uniform(0.05, 0.95)
            a, b = bsep_single(sc, eta), c * bsep_single(s, eta)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
            a, b = part_inradius(sc, eta), c * part_inradius(s, eta)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            scale(uniform_grid_screen(), 0.0)


class TestKS:
    def test_self_distance_zero(self):
        s = uniform_grid_screen()
        assert ks_distance(s, s) == 0.0

    def test_two_uniforms(self):
        a = uniform_grid_screen(1.0)
        b = uniform_grid_screen(2.0)
        assert ks_distance(a, b) == pytest.approx(0.5, abs=1e-9)

    def test_ball_vs_exponential_dense_oracle(self):
        ball = closed_screen("ball", N=10.0, kappa=0.0, lam=0.1)
        expo = closed_screen("exponential", rate=1.0)
        got = ks_distance(ball, expo)
        ts = np.linspace(0.0, 10.0, 1_000_001)
        oracle = float(np.abs(ball.cdf_fast(ts) - expo.cdf_fast(ts)).max())
        assert got == pytest.approx(oracle, abs=1e-5)

    def test_atom_jump_detected(self):
        atoms = AtomScreen([0.5], [1.0])
        unif = uniform_grid_screen()
        # just below the atom: |F1 - F2| = |0 - 0.5| = 0.5; above: |1 - 0.5|
        assert ks_distance(atoms, unif) == pytest.approx(0.5, abs=1e-9)

    def test_atoms_vs_atoms_exact(self):
        a = AtomScreen([0.0, 1.0], [0.5, 0.5])
        b = AtomScreen([0.5, 1.5], [0.5, 0.5])
        # on [0, 0.5): |0.5 - 0| = 0.5; on [1, 1.5): |1 - 0.5| = 0.5
        assert ks_distance(a, b) == pytest.approx(0.5, abs=1e-12)


class TestQuantileDuality:
    def test_continuous_strictly_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = random_grid_screen(rng)
            if not s.full_support:
                continue
            for eta in rng.uniform(0.05, 0.95, size=6):
                assert part_inradius(s, 1.0 - eta) == pytest.approx(
                    bsep_single(s, eta), abs=1e-9
                )

    def test_sandwich_lemmas(self):
        """obs <= bsep always; bsep(eta) <= obs(eta') for eta > eta'."""
        rng = np.random.default_rng(13)
        for _ in range(10):
            s = random_grid_screen(rng)
            eta, etap = 0.4, 0.25
            out = obs_inradius(s, eta)
            upper = out.upper if isinstance(out, ObsBounds) else out
            assert upper <= bsep_single(s, eta) + 1e-12
            if s.full_support:
                assert bsep_single(s, eta) <= obs_inradius(s, etap) + 1e-12


class TestGridAtomAtZero:
    """A grid screen with F[0] > 0 holds an atom at 0: F(0-) = 0 while
    F(0) = F[0], so the closed tail is 1 at 0 and the open one 1 - F[0]."""

    s = GridScreen([0.0, 1.0, 2.0], [0.25, 0.75, 1.0])

    @pytest.mark.parametrize("t, left", [(-1.0, 0.0), (0.0, 0.0), (0.5, 0.5), (1.0, 0.75),
                                         (2.0, 1.0), (3.0, 1.0)])
    def test_cdf_left(self, t, left):
        assert self.s.cdf_left(t) == left
        assert self.s._sides(np.array([t]))[0][0] == left

    @pytest.mark.parametrize("r, tail", [(-1.0, 1.0), (0.0, 1.0), (0.5, 0.5), (1.0, 0.25),
                                         (2.0, 0.0), (3.0, 0.0)])
    def test_tail_closed(self, r, tail):
        assert self.s.tail_closed(r) == tail

    @pytest.mark.parametrize("eps, tail", [(-1.0, 1.0), (0.0, 0.75), (0.5, 0.5), (1.0, 0.25),
                                           (2.0, 0.0), (3.0, 0.0)])
    def test_tail_open(self, eps, tail):
        assert self.s.tail_open(eps) == tail
        assert self.s.cdf(eps) == 1.0 - tail


class TestDominance:
    def test_monotone_contraction_on_grid(self):
        """Pushforward under a 1-Lipschitz nondecreasing map with psi(0)=0
        shrinks both quantile invariants."""
        rng = np.random.default_rng(31)
        for _ in range(15):
            s = random_grid_screen(rng)
            slopes = rng.uniform(0.0, 1.0, size=s.t.size - 1)
            psi = np.concatenate([[0.0], np.cumsum(slopes * np.diff(s.t))])
            # strictly increasing knots are required: nudge flat spots
            psi = np.maximum.accumulate(psi) + 1e-12 * np.arange(psi.size)
            pushed = GridScreen(psi - psi[0], s.F.copy())
            for q in rng.uniform(0.05, 0.95, size=4):
                assert part_inradius(pushed, q) <= part_inradius(s, q) + 1e-10
                assert bsep_single(pushed, q) <= bsep_single(s, q) + 1e-10

    def test_arbitrary_contraction_on_atoms(self):
        """Nonmonotone 1-Lipschitz maps with psi(0)=0 on atom screens."""
        rng = np.random.default_rng(37)
        for _ in range(15):
            m = rng.integers(3, 12)
            ts = np.sort(rng.uniform(0.0, 5.0, size=m))
            ts[0] = 0.0
            p = rng.dirichlet(np.ones(m))
            s = AtomScreen(ts, p)
            # random 1-Lipschitz psi: partial sums of slopes in [-1, 1], clamped >= 0
            slopes = rng.uniform(-1.0, 1.0, size=m - 1)
            psi = np.concatenate([[0.0], np.cumsum(slopes * np.diff(ts))])
            psi = np.maximum(psi, 0.0)  # clamping keeps 1-Lipschitz, psi(0)=0
            pushed = AtomScreen(psi, p)
            for q in rng.uniform(0.05, 0.95, size=4):
                assert part_inradius(pushed, q) <= part_inradius(s, q) + 1e-12
                assert bsep_single(pushed, q) <= bsep_single(s, q) + 1e-12


class TestSerialization:
    def test_grid_roundtrip(self):
        s = uniform_grid_screen(2.0, 11)
        s2 = screen_from_json(s.to_json())
        assert isinstance(s2, GridScreen)
        np.testing.assert_allclose(s2.t, s.t)
        np.testing.assert_allclose(s2.F, s.F)

    def test_atoms_roundtrip(self):
        s = AtomScreen([0.0, 1.0, 3.0], [0.2, 0.3, 0.5])
        s2 = screen_from_json(s.to_json())
        np.testing.assert_allclose(s2.t, s.t)
        np.testing.assert_allclose(s2.p, s.p)

    def test_closed_roundtrip_with_scale(self):
        s = scale(closed_screen("exponential", rate=2.0), 3.0)
        blob = json.loads(s.to_json())
        assert blob["kind"] == "closed"
        assert blob["scale"] == 3.0
        s2 = screen_from_json(s.to_json())
        assert bsep_single(s2, 0.5) == pytest.approx(bsep_single(s, 0.5), rel=1e-10)

    def test_csv_export_has_header(self):
        text = uniform_grid_screen(1.0, 5).to_csv(n=11)
        lines = text.strip().splitlines()
        assert lines[0] == "t,F"
        assert len(lines) > 10

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            screen_from_json('{"kind": "mystery"}')


class TestValidation:
    def test_grid_must_reach_one(self):
        with pytest.raises(DomainError):
            GridScreen([0.0, 1.0], [0.0, 0.9])

    def test_grid_monotone_knots(self):
        with pytest.raises(DomainError):
            GridScreen([0.0, 0.0, 1.0], [0.0, 0.5, 1.0])

    def test_atom_mass_must_sum_to_one(self):
        with pytest.raises(DomainError):
            AtomScreen([0.0, 1.0], [0.5, 0.4])

    def test_density_must_normalize(self):
        from boundarylab.screens import DensityScreen

        with pytest.raises(DomainError):
            DensityScreen(lambda t: np.full_like(np.asarray(t, float), 0.5), 1.0)


class TestNonFiniteInput:
    """NaN passes every ordered comparison, so each entry point and
    constructor checks finiteness itself."""

    @staticmethod
    def _screens():
        return {
            "grid": uniform_grid_screen(),
            "atoms": AtomScreen([0.0, 1.0, 2.0], [0.25, 0.25, 0.5]),
            "density": closed_screen("exponential", rate=1.0),
            "ball": closed_screen("ball", N=4.0, kappa=1.0, lam=0.3),
            "grid_atom": GridScreen([0.0, 1.0, 2.0], [0.25, 0.75, 1.0]),
        }

    @pytest.mark.parametrize("query", ["cdf", "cdf_left", "tail_closed", "tail_open"])
    @pytest.mark.parametrize("kind", ["grid", "atoms", "density", "ball", "grid_atom"])
    def test_queries_refuse_nan(self, kind, query):
        with pytest.raises(DomainError, match="NaN"):
            getattr(self._screens()[kind], query)(math.nan)

    @pytest.mark.parametrize("kind", ["grid", "atoms", "density", "ball", "grid_atom"])
    def test_queries_read_infinities_as_limits(self, kind):
        s = self._screens()[kind]
        queries = (s.cdf, s.cdf_left, s.tail_closed, s.tail_open)
        assert [q(-math.inf) for q in queries] == [0.0, 0.0, 1.0, 1.0]
        assert [q(math.inf) for q in queries] == [1.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["grid", "atoms", "density"])
    def test_obs_inradius(self, kind, bad):
        with pytest.raises(DomainError, match="finite"):
            obs_inradius(self._screens()[kind], bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_bsep_single_on_atoms(self, bad):
        with pytest.raises(DomainError, match="finite"):
            bsep_single(self._screens()["atoms"], bad)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    @pytest.mark.parametrize("kind", ["grid", "density"])
    def test_part_inradius(self, kind, bad):
        with pytest.raises(DomainError, match="finite"):
            part_inradius(self._screens()[kind], bad)

    def test_scale_factor(self):
        with pytest.raises(DomainError, match="finite"):
            scale(uniform_grid_screen(), math.inf)

    @pytest.mark.parametrize("t, F", [
        ([0.0, math.nan, 1.0], [0.0, 0.5, 1.0]),
        ([0.0, 0.5, math.inf], [0.0, 0.5, 1.0]),
        ([0.0, 0.5, 1.0], [0.0, math.nan, 1.0]),
    ])
    def test_grid_screen(self, t, F):
        with pytest.raises(DomainError, match="finite"):
            GridScreen(t, F)

    @pytest.mark.parametrize("t, p", [
        ([0.0, math.nan], [0.5, 0.5]),
        ([0.0, math.inf], [0.5, 0.5]),
        ([0.0, 1.0], [math.nan, 1.0]),
    ])
    def test_atom_screen(self, t, p):
        with pytest.raises(DomainError, match="finite"):
            AtomScreen(t, p)

    def test_grid_json_with_nan_knot(self):
        with pytest.raises(DomainError, match="finite"):
            screen_from_json('{"kind": "grid", "t": [0, NaN, 1], "F": [0, 0.5, 1]}')



# ---------------------------------------------------------------------------
# closed catalog screens
# ---------------------------------------------------------------------------

FAMILY_PARAMS = {
    "uniform": {"width": 2.0},
    "exponential": {"rate": 1.5},
    "ball": {"N": 3.0, "kappa": 1.0, "lam": 0.2},
    "half_gaussian": {"K": 1.0, "Lam": 0.5},
}
FAMILY_PARAM_NAMES = [(f, name) for f, params in FAMILY_PARAMS.items() for name in params]
# parameters whose value 0 stays inside the family's domain
ZERO_IN_DOMAIN = {("ball", "kappa"), ("ball", "lam"), ("half_gaussian", "K"),
                  ("half_gaussian", "Lam")}


class TestClosedScreenParameters:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family, name", FAMILY_PARAM_NAMES)
    def test_nonfinite_refused(self, family, name, bad):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            closed_screen(family, **{**FAMILY_PARAMS[family], name: bad})

    @pytest.mark.parametrize("family, name", FAMILY_PARAM_NAMES)
    def test_zero(self, family, name):
        params = {**FAMILY_PARAMS[family], name: 0.0}
        if (family, name) in ZERO_IN_DOMAIN:
            assert 0.0 < obs_inradius(closed_screen(family, **params), 0.5) < math.inf
        else:
            with pytest.raises(DomainError):
                closed_screen(family, **params)

    @pytest.mark.parametrize("family, params", [
        ("ball", {"N": 3.0, "kappa": -1.0, "lam": 1.0}),  # horospherical: no ball
        ("ball", {"N": 3.0, "kappa": 0.0, "lam": 1e-320}),  # radius overflows
        ("half_gaussian", {"K": 0.0, "Lam": -1.0}),  # divergent weight
        ("exponential", {"rate": -1.0}),
        ("uniform", {"width": 2.0, "bogus": 1.0}),
        ("ball", {"N": 3.0, "kappa": 1.0}),
        ("exponential", {"rate": "one"}),
        ("torus", {}),
    ])
    def test_out_of_domain_refused(self, family, params):
        with pytest.raises(DomainError):
            closed_screen(family, **params)

    def test_no_finite_quantile(self):
        s = closed_screen("exponential", rate=1e-320)
        with pytest.raises(DomainError, match=r"^the exponential screen has no finite "
                                              r"quantile at eta=0.5$"):
            obs_inradius(s, 0.5)
        with pytest.raises(DomainError, match="no finite quantile at eta=0.0"):
            part_inradius(closed_screen("exponential", rate=1.0), 1.0)

    def test_far_gaussian_mode_against_mpmath(self):
        # Lam^2 / 2K > 709: e^(-Lam t) and the erfcx normalizer both overflow;
        # the law is N(40, 1) conditioned on t >= 0
        s = closed_screen("half_gaussian", K=1.0, Lam=-40.0)
        with mpmath.workdps(30):
            z = mpmath.erfc(-40 / mpmath.sqrt(2))
            for t in np.linspace(35.0, 45.0, 41):
                x = (mpmath.mpf(t) - 40) / mpmath.sqrt(2)
                tail = mpmath.erfc(x) / z
                assert s.tail_closed(t) == pytest.approx(float(tail), rel=1e-14)
                assert s.cdf(t) == pytest.approx(float(1 - tail), rel=1e-14, abs=1e-16)
                pdf = mpmath.sqrt(2 / mpmath.pi) * mpmath.exp(-x * x) / z
                assert s.pdf(t) == pytest.approx(float(pdf), rel=1e-13)
        assert s.quantile(0.5) == pytest.approx(40.0, rel=1e-15)

    @pytest.mark.parametrize("N, kappa, lam", [(1e4, 1.0, -0.5), (1e5, 1.0, -0.5),
                                               (1e4, 4.0, -3.0), (1e5, 4.0, -3.0)])
    def test_ball_pdf_past_a_right_rim_angle(self, N, kappa, lam):
        # the rim angle X passes pi/2, so g(X) = sin X < 1 = g at the mode: neither
        # g(X - k t)^(N-1) / g(X)^(N-1) nor G(X) / g(X)^(N-1) stays in the float range
        s = closed_screen("ball", N=N, kappa=kappa, lam=lam)
        assert s.kernel.X > 0.5 * math.pi
        mode, h = s._breaks()[1], 1e-6
        pdf = s.pdf(mode)
        assert math.isfinite(pdf) and pdf > 0.0
        slope = (s.tail_closed(mode - h) - s.tail_closed(mode + h)) / (2.0 * h)
        assert pdf == pytest.approx(slope, rel=1e-6)
        assert np.isfinite(s.pdf(np.linspace(0.0, s.upper_support, 101))).all()

    def test_bounded_support_ends_quantiles(self):
        s = scale(closed_screen("ball", N=3.0, kappa=1.0, lam=0.2), 2.0)
        assert part_inradius(s, 1.0) == s.upper_support
        assert s.cdf(s.upper_support) == 1.0 and s.tail_closed(s.upper_support) == 0.0


class TestScreenFromJson:
    CLOSED = {"kind": "closed", "family": "exponential", "params": {"rate": 1}}

    @pytest.mark.parametrize("c", [-2.0, 0.0, math.nan, math.inf])
    def test_scale_is_checked(self, c):
        with pytest.raises(DomainError, match="scale factor"):
            screen_from_json(json.dumps({**self.CLOSED, "scale": c}))

    def test_not_an_object(self):
        with pytest.raises(DomainError, match="JSON object"):
            screen_from_json("[1]")

    @pytest.mark.parametrize("text", ["{", "", "not json", '{"kind": "grid",}'])
    def test_not_json(self, text):
        with pytest.raises(DomainError, match="bad screen JSON"):
            screen_from_json(text)

    def test_unknown_family_parameter(self):
        blob = {**self.CLOSED, "params": {"rate": 1, "bogus": 2}}
        with pytest.raises(DomainError, match="bogus"):
            screen_from_json(json.dumps(blob))

    def test_missing_family_parameter(self):
        with pytest.raises(DomainError, match="rate"):
            screen_from_json(json.dumps({**self.CLOSED, "params": {}}))

    def test_grid_without_knots(self):
        with pytest.raises(DomainError, match="'t'"):
            screen_from_json('{"kind": "grid"}')

    @pytest.mark.parametrize("blob", [
        {"kind": "closed", "params": {"rate": 1}},
        {"kind": "closed", "family": "exponential", "params": [1]},
        {"kind": "closed", "family": "exponential", "params": {"rate": 1}, "scale": "2"},
        {"kind": "atoms", "t": [0.0]},
    ])
    def test_malformed_fields(self, blob):
        with pytest.raises(DomainError):
            screen_from_json(json.dumps(blob))

    def test_closed_roundtrip_keeps_support_flag(self):
        s = scale(closed_screen("ball", N=4, kappa=-1.0, lam=1.5), 0.5)
        s.full_support = False
        s2 = screen_from_json(s.to_json())
        assert s2.to_json() == s.to_json()
        assert obs_inradius(s2, 0.3) == obs_inradius(s, 0.3)


def _density_screen_oracle(weight, upper):
    """(pdf, cdf, quantile) of the density proportional to ``weight`` on
    [0, upper], by the quadrature route that catalog screens took before
    their closed forms: the weight normalized by ``quad``, a 32,769-point
    Simpson table up to a cutoff found by doubling with ``quad``, each point
    query corrected by ``quad`` over its table cell, and each quantile a
    ``brentq`` root of that CDF."""
    z, _ = quad(weight, 0.0, upper, epsabs=1e-14, epsrel=1e-13, limit=200)

    def pdf(t):
        return weight(np.asarray(t, dtype=float)) / z

    hi = upper if math.isfinite(upper) else 1.0
    while math.isinf(upper) and quad(pdf, hi, np.inf, epsabs=1e-14, limit=200)[0] >= 1e-13:
        hi *= 2.0
    ts = np.linspace(0.0, hi, (1 << 15) + 1)
    table = cumulative_simpson(pdf(ts), ts)

    def cdf(t):
        if t <= 0.0:
            return 0.0
        if t >= hi:
            if math.isfinite(upper):
                return 1.0
            return 1.0 - quad(pdf, t, np.inf, epsabs=1e-14, limit=200)[0]
        i = int(np.searchsorted(ts, t, side="right")) - 1
        return min(1.0, table[i] + quad(pdf, ts[i], t, epsabs=1e-14, limit=50)[0])

    def quantile(xi):
        i = int(np.searchsorted(table, xi, side="left"))
        lo, up = ts[max(i - 2, 0)], ts[min(i + 1, ts.size - 1)]
        return brentq(lambda r: cdf(r) - xi, lo, up, xtol=1e-14, rtol=8.9e-16)

    return pdf, cdf, quantile


def _profile(kappa, lam):
    """The Jacobi profile s'' + kappa s = 0, s(0) = 1, s'(0) = -lam."""
    k = math.sqrt(abs(kappa))
    if kappa > 0:
        return lambda t: np.cos(k * t) - lam / k * np.sin(k * t)
    if kappa == 0:
        return lambda t: 1.0 - lam * t
    return lambda t: np.cosh(k * t) - lam / k * np.sinh(k * t)


def _ball_weight(N, kappa, lam):
    s = _profile(kappa, lam)
    return lambda t: np.maximum(s(t), 0.0) ** (N - 1.0)


# name -> (family, parameters, scale, weight on the unit scale)
ORACLE_CASES = {
    "uniform": ("uniform", {"width": 2.5}, 1.0, lambda t: np.ones_like(t)),
    "exponential": ("exponential", {"rate": 1.5}, 1.0, lambda t: np.exp(-1.5 * t)),
    "half_gaussian": ("half_gaussian", {"K": 1.3, "Lam": -0.7}, 1.0,
                      lambda t: np.exp(-0.65 * t * t + 0.7 * t)),
    "half_gaussian_K0": ("half_gaussian", {"K": 0.0, "Lam": 0.8}, 1.0,
                         lambda t: np.exp(-0.8 * t)),
    "ball_kappa_pos": ("ball", {"N": 3.0, "kappa": 1.0, "lam": 0.2}, 1.0,
                       _ball_weight(3.0, 1.0, 0.2)),
    "ball_kappa_pos_concave": ("ball", {"N": 6.0, "kappa": 2.0, "lam": -0.5}, 1.0,
                               _ball_weight(6.0, 2.0, -0.5)),
    "ball_flat": ("ball", {"N": 5.0, "kappa": 0.0, "lam": 0.5}, 1.0,
                  _ball_weight(5.0, 0.0, 0.5)),
    "ball_kappa_neg": ("ball", {"N": 4.0, "kappa": -1.0, "lam": 1.5}, 1.0,
                       _ball_weight(4.0, -1.0, 1.5)),
    "scaled_exponential": ("exponential", {"rate": 1.5}, 0.4, lambda t: np.exp(-1.5 * t)),
    "scaled_ball": ("ball", {"N": 3.0, "kappa": 1.0, "lam": 0.2}, 2.5,
                    _ball_weight(3.0, 1.0, 0.2)),
    "scaled_half_gaussian": ("half_gaussian", {"K": 1.3, "Lam": -0.7}, 3.0,
                             lambda t: np.exp(-0.65 * t * t + 0.7 * t)),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_closed_screen_matches_the_quadrature_oracle(case):
    family, params, c, weight = ORACLE_CASES[case]
    s = scale(closed_screen(family, **params), c)
    pdf, cdf, quantile = _density_screen_oracle(lambda t: weight(t / c), s.upper_support)
    for xi in (0.02, 0.2, 0.5, 0.8, 0.98):
        r = quantile(xi)
        assert s.quantile(xi) == pytest.approx(r, abs=1e-9)
        assert s.bsep(1.0 - xi) == pytest.approx(r, abs=1e-9)
        assert s.cdf(r) == pytest.approx(cdf(r), abs=1e-9)
        assert s.tail_closed(r) == pytest.approx(1.0 - cdf(r), abs=1e-9)
    ts = np.linspace(0.0, quantile(0.999), 9)
    np.testing.assert_allclose(s.pdf(ts), pdf(ts), rtol=1e-9, atol=1e-12)


@st.composite
def closed_screens(draw):
    family = draw(st.sampled_from(list(FAMILY_PARAMS)))
    if family == "uniform":
        return closed_screen("uniform", width=draw(st.floats(0.1, 10.0)))
    if family == "exponential":
        return closed_screen("exponential", rate=draw(st.floats(0.1, 5.0)))
    if family == "half_gaussian":
        K = draw(st.one_of(st.just(0.0), st.floats(0.05, 4.0)))
        Lam = draw(st.floats(0.1, 3.0) if K == 0.0 else st.floats(-2.0, 3.0))
        return closed_screen("half_gaussian", K=K, Lam=Lam)
    kappa = draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(st.floats(0.05, 3.0))
    lam = (draw(st.floats(-2.0, 3.0)) if kappa > 0
           else math.sqrt(-kappa) + draw(st.floats(0.01, 3.0)))
    return closed_screen("ball", N=draw(st.floats(1.5, 50.0)), kappa=kappa, lam=lam)


class TestClosedScreenProperties:
    @settings(max_examples=60)
    @given(s=closed_screens(), c=st.floats(0.1, 10.0), eta=st.floats(0.01, 0.99),
           xi=st.floats(0.01, 0.99))
    def test_invariants_scale_by_c(self, s, c, eta, xi):
        sc = scale(s, c)
        for fn, arg in ((part_inradius, xi), (bsep_single, eta), (obs_inradius, eta)):
            assert fn(sc, arg) == pytest.approx(c * fn(s, arg), rel=1e-12, abs=1e-12)

    @settings(max_examples=60)
    @given(s=closed_screens(), xi=st.floats(0.01, 0.99))
    def test_cdf_inverts_quantile(self, s, xi):
        assert s.cdf(s.quantile(xi)) == pytest.approx(xi, abs=1e-12)

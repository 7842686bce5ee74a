"""Tests for screen invariants and the quantile conventions."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

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

    def test_scaling_monotone_above_one(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            s = random_grid_screen(rng)
            cs = [1.0, 1.5, 2.5, 4.0, 8.0]
            vals = [ky_fan_zero(scale(s, c)) for c in cs]
            assert np.all(np.diff(vals) >= -1e-12)


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
        }

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


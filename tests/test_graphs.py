"""Tests for boundary graphs: distances, screens, separation, trends."""

import heapq
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundarylab import graphs, screens
from boundarylab.errors import DomainError
from boundarylab.graphs import (
    BoundaryGraph,
    bsep_k,
    concentration_equivalence_check,
    graph_screen,
    lipschitz_screen,
    rho_boundary,
)


def path_graph(n, boundary=(0,), lengths=None, measure=None):
    lengths = lengths or [1.0] * (n - 1)
    edges = [(i, i + 1, lengths[i]) for i in range(n - 1)]
    measure = measure if measure is not None else np.ones(n) / n
    return BoundaryGraph(n, edges, boundary, measure)


def random_graph(rng, n=None, ensure_interior=True):
    n = int(n or rng.integers(4, 13))
    # random spanning tree plus extra edges
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.2, 2.0))))
    for _ in range(int(rng.integers(0, n))):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v), float(rng.uniform(0.2, 2.0))))
    n_boundary = int(rng.integers(1, max(2, n // 3) + 1))
    boundary = list(rng.choice(n, size=n_boundary, replace=False))
    w = rng.exponential(size=n) + 1e-3
    return BoundaryGraph(n, edges, boundary, w / w.sum())


def brute_force_bsep1(g, eta):
    """2^V enumeration of all vertex subsets."""
    best = 0.0
    for mask in range(1, 1 << g.n):
        idx = [v for v in range(g.n) if mask >> v & 1]
        if g.measure[idx].sum() >= eta:
            best = max(best, float(g.rho[idx].min()))
    return best


def brute_force_bsep2(g, eta1, eta2):
    """Exhaustive pairs of disjoint subsets."""
    d = g.dist
    best = 0.0
    masks = [m for m in range(1, 1 << g.n)]
    for m1 in masks:
        idx1 = [v for v in range(g.n) if m1 >> v & 1]
        if g.measure[idx1].sum() < eta1:
            continue
        rest = [v for v in range(g.n) if not m1 >> v & 1]
        for r in range(1, 1 << len(rest)):
            idx2 = [rest[j] for j in range(len(rest)) if r >> j & 1]
            if g.measure[idx2].sum() < eta2:
                continue
            val = min(
                float(g.rho[idx1].min()),
                float(g.rho[idx2].min()),
                float(d[np.ix_(idx1, idx2)].min()),
            )
            best = max(best, val)
    return best


def _numpy_scalar_dijkstra(g, sources):
    """Dijkstra on an ndarray of distances, one numpy scalar at a time."""
    dist = np.full(g.n, math.inf)
    heap = [(0.0, s) for s in sources]
    dist[list(sources)] = 0.0
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in g.adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def _two_set_whole_table(g, etas, D):
    """The two-set search of the exact mode over every first-set mask at once."""
    below = D * (1.0 - 1e-12)
    ok = np.nonzero(g.rho >= below)[0]
    close = g.dist[np.ix_(ok, ok)] < below
    np.fill_diagonal(close, False)
    near = close.astype(np.int64).T @ (np.int64(1) << np.arange(ok.size, dtype=np.int64))
    mass = graphs._subset_fold(np.add, g.measure[ok])
    near_of = graphs._subset_fold(np.bitwise_or, near)
    first_eta, second_eta = sorted((eta * (1.0 - 1e-12) for eta in etas), reverse=True)
    first = np.flatnonzero(mass >= first_eta)
    return bool(np.any(mass[(1 << ok.size) - 1 & ~(first | near_of[first])] >= second_eta))


class TestRho:
    def test_path_single_boundary(self):
        g = path_graph(3)
        np.testing.assert_allclose(rho_boundary(g), [0.0, 1.0, 2.0])

    def test_path_two_sided(self):
        g = path_graph(4, boundary=(0, 3))
        np.testing.assert_allclose(rho_boundary(g), [0.0, 1.0, 1.0, 0.0])

    def test_matches_per_source_minimum(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            g = random_graph(rng)
            per_source = np.min(
                [g._dijkstra([b]) for b in g.boundary], axis=0
            )
            np.testing.assert_allclose(g.rho, per_source, atol=1e-12)

    def test_distances_equal_a_numpy_scalar_dijkstra(self):
        # the same additions and comparisons on numpy scalars: bitwise equal
        rng = np.random.default_rng(79)
        for _ in range(20):
            g = random_graph(rng, n=int(rng.integers(4, 40)))
            assert isinstance(g.rho, np.ndarray) and g.rho.dtype == np.float64
            assert isinstance(g.dist, np.ndarray) and g.dist.shape == (g.n, g.n)
            assert np.array_equal(g.rho, _numpy_scalar_dijkstra(g, g.boundary))
            for u in range(g.n):
                assert np.array_equal(g.dist[u], _numpy_scalar_dijkstra(g, [u]))

    def test_one_lipschitz_along_edges(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            g = random_graph(rng)
            for u, v, w in g.edges:
                assert abs(g.rho[u] - g.rho[v]) <= w + 1e-12

    def test_disconnected_rejected(self):
        with pytest.raises(DomainError):
            BoundaryGraph(4, [(0, 1, 1.0)], [0], [0.25] * 4)


class TestGraphScreen:
    def test_path_atoms(self):
        s = graph_screen(path_graph(3))
        np.testing.assert_allclose(s.t, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(s.p, [1 / 3] * 3)

    def test_bsep_superlevel(self):
        s = graph_screen(path_graph(3))
        assert screens.bsep_single(s, 1 / 3) == pytest.approx(2.0)

    def test_ky_fan(self):
        s = graph_screen(path_graph(3))
        assert screens.ky_fan_zero(s) == pytest.approx(2 / 3)


class TestBsepK:
    def test_k1_equals_screen_value(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            g = random_graph(rng)
            eta = float(rng.uniform(0.05, 0.95))
            assert bsep_k(g, [eta]) == screens.bsep_single(graph_screen(g), eta)

    def test_k1_matches_brute_force(self):
        rng = np.random.default_rng(18)
        for _ in range(15):
            g = random_graph(rng, n=int(rng.integers(4, 9)))
            eta = float(rng.uniform(0.05, 0.95))
            assert bsep_k(g, [eta]) == pytest.approx(brute_force_bsep1(g, eta), abs=1e-12)

    def test_eta_above_one_is_zero(self):
        assert bsep_k(path_graph(4), [1.5]) == 0.0
        assert bsep_k(path_graph(4), [0.3, 1.2], mode="exact") == 0.0

    def test_path_two_sets_exact(self):
        # path 0..4, boundary {0}, uniform: Omega1={2}, Omega2={4} gives
        # min(d=2, rho=2, rho=4) = 2; enumeration confirms the optimum
        g = path_graph(5)
        got = bsep_k(g, [0.2, 0.2], mode="exact")
        assert got == pytest.approx(brute_force_bsep2(g, 0.2, 0.2), abs=1e-12)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_exact_k2_matches_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            g = random_graph(rng, n=int(rng.integers(4, 8)))
            e1, e2 = rng.uniform(0.1, 0.4, size=2)
            want = brute_force_bsep2(g, float(e1), float(e2))
            got = bsep_k(g, [float(e1), float(e2)], mode="exact")
            assert got == pytest.approx(want, abs=1e-12)

    def test_two_set_blocks_equal_the_whole_table(self):
        # from 17 vertices the first-set masks span several blocks; at D = 0
        # masses summing past 1 scan every block and fail
        rng = np.random.default_rng(21)
        for n in (17, 18, 20):
            g = random_graph(rng, n=n)
            for etas in ([0.45, 0.5], [0.5, 0.55], [0.3, 0.69]):
                assert graphs._exact_feasible(g, etas, 0.0) is _two_set_whole_table(g, etas, 0.0)
            cand = graphs._candidate_values(g)
            for D in cand[:: max(1, cand.size // 6)]:
                etas = [float(e) for e in rng.uniform(0.05, 0.4, size=2)]
                want = _two_set_whole_table(g, etas, float(D))
                assert graphs._exact_feasible(g, etas, float(D)) is want

    def test_two_set_search_peak_memory(self):
        # 20 vertices at D = 0: the scan adds at most half of the mass and
        # conflict tables it reads, 8 MB each
        g = random_graph(np.random.default_rng(99), n=20)
        g.rho, g.dist  # built before the trace
        tracemalloc.start()
        try:
            graphs._exact_feasible(g, [0.2, 0.2], 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2 * 8 * 2**20

    def test_exact_k3_small(self):
        g = path_graph(7)
        got = bsep_k(g, [1 / 7, 1 / 7, 1 / 7], mode="exact")
        # sets {2}, {4}, {6}: value 2
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_greedy_never_exceeds_exact(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            g = random_graph(rng, n=int(rng.integers(4, 11)))
            etas = list(rng.uniform(0.08, 0.3, size=2))
            exact = bsep_k(g, etas, mode="exact")
            greedy = bsep_k(g, etas, mode="greedy")
            assert greedy <= exact + 1e-12

    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_masses_raise(self, mode, bad):
        # NaN fails every comparison and inf exceeds 1: neither may pass for an overfull list
        with pytest.raises(DomainError, match="mass thresholds must be finite"):
            bsep_k(path_graph(4), [0.2, bad], mode=mode)

    def test_no_set_is_empty(self):
        # path 0-1-2-3, boundary {0}, uniform: two single vertices reach 1; an
        # empty set is within an absolute 1e-12 of the mass 1e-13, not a relative one
        g = path_graph(4)
        for mode in ("exact", "greedy"):
            assert bsep_k(g, [1e-13, 1e-13], mode=mode) == 1.0

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), log_c=st.floats(-13.0, 13.0),
           etas=st.lists(st.floats(0.05, 0.4), min_size=2, max_size=3))
    def test_scaling_the_lengths_scales_the_distance(self, seed, log_c, etas):
        # every slack is relative to D, eta or r, so only rounding moves c D
        g = random_graph(np.random.default_rng(seed), n=int(seed % 6) + 4)
        c = 10.0 ** log_c
        scaled = BoundaryGraph(g.n, [(u, v, c * w) for u, v, w in g.edges], g.boundary, g.measure)
        for mode in ("exact", "greedy"):
            D = bsep_k(g, etas, mode=mode)
            assert abs(bsep_k(scaled, etas, mode=mode) - c * D) <= 1e-12 * c * D

    def test_exact_guard(self):
        g = path_graph(25)
        with pytest.raises(DomainError):
            bsep_k(g, [0.1, 0.1], mode="exact")


class TestLipschitzScreen:
    def test_rho_is_admissible(self):
        g = path_graph(4, boundary=(0, 3))
        s = lipschitz_screen(g, g.rho)
        s2 = graph_screen(g)
        np.testing.assert_allclose(s.t, s2.t)
        np.testing.assert_allclose(s.p, s2.p)

    def test_halved_rho_halves_invariants(self):
        g = path_graph(5)
        s = lipschitz_screen(g, g.rho / 2.0)
        full = graph_screen(g)
        for eta in (0.2, 0.5):
            assert screens.bsep_single(s, eta) == pytest.approx(
                screens.bsep_single(full, eta) / 2.0
            )

    def test_violations_named(self):
        g = path_graph(3)
        with pytest.raises(DomainError, match="edge"):
            lipschitz_screen(g, np.array([0.0, 2.0, 2.5]))
        with pytest.raises(DomainError, match="vertex 0"):
            lipschitz_screen(g, np.array([0.5, 1.0, 1.5]))
        with pytest.raises(DomainError, match="nonnegative"):
            lipschitz_screen(g, np.array([0.0, -0.5, 0.0]))

    def test_lower_bounds_obs_inradius(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            g = random_graph(rng, n=int(rng.integers(4, 9)))
            # random admissible phi: shrink rho by random edge-respecting factors
            phi = g.rho * rng.uniform(0.0, 1.0)
            s = lipschitz_screen(g, phi)
            eta = float(rng.uniform(0.1, 0.9))
            assert screens.part_inradius(s, 1 - eta) <= bsep_k(g, [eta]) + 1e-12

    def test_monotone_chain(self):
        """bsep at a larger mass never exceeds the upper observable bound
        at a smaller one."""
        rng = np.random.default_rng(29)
        for _ in range(30):
            g = random_graph(rng)
            s = graph_screen(g)
            eta = float(rng.uniform(0.3, 0.9))
            etap = eta * float(rng.uniform(0.2, 0.9))
            upper = screens.obs_inradius(s, etap).upper
            assert screens.bsep_single(s, eta) <= upper + 1e-12


class TestTrendReport:
    def test_exponential_refinement_concentrates(self):
        # path discretizations of exponential rays with growing rates
        rng = np.random.default_rng(3)
        seq = []
        for k in (1, 2, 4, 8):
            n = 12
            ts = np.linspace(0.0, 6.0 / k, n)
            w = np.exp(-k * ts)
            seq.append(
                path_graph(
                    n,
                    lengths=list(np.diff(ts)),
                    measure=w / w.sum(),
                )
            )
        report = concentration_equivalence_check(seq, r=0.5, eta=0.3)
        masses = [row.boundary_mass for row in report.rows]
        assert masses[-1] > masses[0]
        assert masses[-1] > 0.9
        uppers = [row.obs_upper for row in report.rows]
        assert uppers[-1] < uppers[0]

    def test_constant_sequence_is_flat(self):
        g = path_graph(6)
        report = concentration_equivalence_check([g, g, g], r=1.0, eta=0.4)
        for key in ("obs_upper", "bsep", "boundary_mass"):
            vals = [getattr(row, key) for row in report.rows]
            assert max(vals) == min(vals)

    def test_bounded_away_when_mass_stalls(self):
        # flat-ball style paths with n * lam bounded: mass near boundary stalls
        seq = []
        for n in (4, 8, 16):
            ts = np.linspace(0.0, 1.0, n)
            seq.append(path_graph(n, lengths=list(np.diff(ts)), measure=np.ones(n) / n))
        report = concentration_equivalence_check(seq, r=0.25, eta=0.3)
        masses = [row.boundary_mass for row in report.rows]
        assert max(masses) < 0.5

    def test_report_serialization(self):
        report = concentration_equivalence_check([path_graph(4)], r=1.0, eta=0.5)
        blob = json.loads(report.to_json())
        assert blob["rows"] and "asymptotic" in blob["note"]
        assert report.to_csv().splitlines()[0] == "index,obs_lower,obs_upper,bsep,boundary_mass"


class TestSerialization:
    def test_roundtrip(self):
        g = path_graph(4, boundary=(0, 3))
        g2 = BoundaryGraph.from_json(g.to_json())
        assert g2.n == g.n
        assert g2.boundary == g.boundary
        np.testing.assert_allclose(g2.measure, g.measure)
        np.testing.assert_allclose(g2.rho, g.rho)

    def test_missing_field_rejected(self):
        with pytest.raises(DomainError):
            BoundaryGraph.from_json('{"vertices": 2, "edges": []}')

    def test_rho_csv(self):
        text = path_graph(3).rho_csv()
        assert text.splitlines()[0] == "vertex,rho"
        assert len(text.splitlines()) == 4

    def test_validation_errors(self):
        with pytest.raises(DomainError):
            BoundaryGraph(3, [(0, 1, 1.0), (1, 2, -1.0)], [0], [1 / 3] * 3)
        with pytest.raises(DomainError):
            BoundaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], [], [1 / 3] * 3)
        with pytest.raises(DomainError):
            BoundaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], [0], [0.5, 0.5, 0.5])

    @pytest.mark.parametrize("bad", [0.9, True])
    def test_vertex_ids_are_integers_not_truncated(self, bad):
        """A float or boolean id is refused where int() would make it vertex 0
        or 1, as the graph documents refuse it; numpy integers still serve."""
        with pytest.raises(DomainError, match="vertex id must be an integer"):
            BoundaryGraph(3, [(bad, 1, 1.0), (1, 2, 1.0)], [0], [1 / 3] * 3)
        with pytest.raises(DomainError, match="vertex id must be an integer"):
            BoundaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], [bad], [1 / 3] * 3)
        g = BoundaryGraph(3, [(np.int64(0), np.int32(1), 1.0), (1, 2, 1.0)], [np.uint8(2)],
                          [1 / 3] * 3)
        assert g.edges[0][:2] == (0, 1) and g.boundary == [2]
        assert all(type(u) is int for e in g.edges for u in e[:2]) and type(g.boundary[0]) is int


class TestNonFiniteInput:
    """NaN fails no ``w <= 0`` test and JSON's 1e400 parses to inf, so the
    constructor requires finite edge lengths and measure weights."""

    @pytest.mark.parametrize("length", ["NaN", "Infinity", "1e400"])
    def test_edge_length(self, length):
        text = ('{"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, %s]], '
                '"boundary": [0], "measure": [0.25, 0.25, 0.5]}' % length)
        with pytest.raises(DomainError, match="finite positive length"):
            BoundaryGraph.from_json(text)

    def test_measure_weight(self):
        with pytest.raises(DomainError, match="finite"):
            BoundaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], [0], [0.5, 0.5, math.nan])


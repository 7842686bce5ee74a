"""Finite metric measure spaces with boundary as weighted graphs.

A ``BoundaryGraph`` is a connected weighted graph with a distinguished
nonempty boundary vertex set and a vertex probability measure.  Distances
are shortest-path; the distance-to-boundary function is computed by
multi-source Dijkstra and drives atom screens, boundary separation
distances (exact by enumeration at a candidate separation, or greedy
with a witnessed family), and the concentration trend report.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import asdict, dataclass, field

from . import _text, screens
from ._numpy import np
from .errors import DomainError

__all__ = [
    "BoundaryGraph",
    "rho_boundary",
    "graph_screen",
    "bsep_k",
    "lipschitz_screen",
    "concentration_equivalence_check",
    "TrendRow",
    "TrendReport",
]

_EXACT_VERTEX_GUARD = 20


def _vertex(x) -> int:
    """A vertex id, which the graph documents type as an integer: a float or a
    boolean is refused, not truncated."""
    if not _text.is_index(x):
        raise DomainError(f"graph vertex id must be an integer, got {x!r}")
    return int(x)


class BoundaryGraph:
    """Weighted graph with boundary vertices and a probability measure."""

    def __init__(self, vertices: int, edges, boundary, measure):
        n = _text.check(_text.INTEGER, vertices, "graph vertex count")
        if n < 1:
            raise DomainError("graph needs at least one vertex")
        # the measure fixes n before n adjacency lists are built
        measure = np.asarray(measure, dtype=float)
        if measure.shape != (n,):
            raise DomainError(f"measure must have one weight per vertex ({n})")
        self.n = n
        self.edges = []
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for e in edges:
            u, v, w = _vertex(e[0]), _vertex(e[1]), float(e[2])
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u}, {v}) references a missing vertex")
            if not 0 < w < math.inf:  # also rejects NaN
                raise DomainError(
                    f"edge ({u}, {v}) must have finite positive length, got {w}"
                )
            self.edges.append((u, v, w))
            adj[u].append((v, w))
            adj[v].append((u, w))
        self.adj = adj
        self.boundary = sorted({_vertex(b) for b in boundary})
        if not self.boundary:
            raise DomainError("boundary vertex set must be nonempty")
        if self.boundary[0] < 0 or self.boundary[-1] >= n:
            raise DomainError("boundary references a missing vertex")
        if not np.isfinite(measure).all():
            raise DomainError("measure weights must be finite")
        if np.any(measure < 0):
            raise DomainError("measure weights must be >= 0")
        if abs(measure.sum() - 1.0) > 1e-12:
            raise DomainError("measure weights must sum to 1 within 1e-12")
        self.measure = measure
        self._check_connected()
        self._rho: np.ndarray | None = None
        self._dist: np.ndarray | None = None

    def _check_connected(self):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v, _ in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != self.n:
            raise DomainError("graph must be connected")

    # -- distances -------------------------------------------------------
    def _dijkstra(self, sources) -> list[float]:
        dist = [math.inf] * self.n  # Python floats: numpy scalars one at a time are slow
        heap = []
        for s in sources:
            dist[s] = 0.0
            heap.append((0.0, s))
        heapq.heapify(heap)
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self.adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    @property
    def rho(self) -> np.ndarray:
        """Distance to the boundary vertex set, per vertex."""
        if self._rho is None:
            self._rho = np.array(self._dijkstra(self.boundary))
        return self._rho

    @property
    def dist(self) -> np.ndarray:
        """All-pairs shortest-path matrix (built on demand)."""
        if self._dist is None:
            self._dist = np.empty((self.n, self.n))
            for u in range(self.n):
                self._dist[u] = self._dijkstra([u])
        return self._dist

    # -- serialization -----------------------------------------------------
    def to_json(self) -> str:
        values = (self.n, [list(e) for e in self.edges], self.boundary, self.measure.tolist())
        return _text.dumps(dict(zip(_text.GRAPH, values)))

    @classmethod
    def from_json(cls, text: str) -> "BoundaryGraph":
        return cls(**_text.read(_text.GRAPH, text, "graph"))

    def rho_csv(self) -> str:
        return _text.csv_text(("vertex", "rho"), (range(self.n), self.rho))


def rho_boundary(g: BoundaryGraph) -> np.ndarray:
    """Multi-source shortest-path distance to the boundary set."""
    return g.rho.copy()


def graph_screen(g: BoundaryGraph) -> screens.AtomScreen:
    """Pushforward of the vertex measure under distance-to-boundary."""
    return screens.AtomScreen(g.rho, g.measure)


def lipschitz_screen(g: BoundaryGraph, phi) -> screens.AtomScreen:
    """Pushforward under an admissible test function.

    phi must be nonnegative, vanish on the boundary, and satisfy the
    edgewise Lipschitz bound; violations are reported with the offending
    vertex or edge.  The partial inscribed radius of the result at mass
    1 - eta lower-bounds the graph's observable inscribed radius.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (g.n,):
        raise DomainError(f"phi must assign one value per vertex ({g.n})")
    bad = np.nonzero(phi < 0)[0]
    if bad.size:
        raise DomainError(f"phi must be nonnegative; vertex {bad[0]} has {phi[bad[0]]}")
    for b in g.boundary:
        if phi[b] != 0.0:
            raise DomainError(f"phi must vanish on the boundary; vertex {b} has {phi[b]}")
    for u, v, w in g.edges:
        if abs(phi[u] - phi[v]) > w * (1.0 + 1e-12):
            raise DomainError(
                f"phi violates the Lipschitz bound on edge ({u}, {v}): "
                f"|{phi[u]} - {phi[v]}| > {w}"
            )
    return screens.AtomScreen(phi, g.measure)


# ---------------------------------------------------------------------------
# boundary separation distances
# ---------------------------------------------------------------------------

def _candidate_values(g: BoundaryGraph) -> np.ndarray:
    """Achievable separation values: boundary distances and pairwise distances."""
    vals = set(np.asarray(g.rho, dtype=float).tolist())
    d = g.dist
    iu = np.triu_indices(g.n, k=1)
    vals.update(d[iu].tolist())
    vals.add(0.0)
    return np.array(sorted(v for v in vals if math.isfinite(v)))


def _subset_fold(op, values: np.ndarray) -> np.ndarray:
    """op folded over the members of every subset mask of the index set: each
    bit b extends the table of the masks below it by values[b]."""
    out = np.zeros(1 << values.size, dtype=values.dtype)
    for b, value in enumerate(values):
        op(out[:1 << b], value, out=out[1 << b:2 << b])
    return out


def _exact_feasible(g: BoundaryGraph, etas, D: float) -> bool:
    """Can k sets of the given masses sit pairwise >= D apart and >= D
    from the boundary?  Exact subset enumeration with conflict masks."""
    below = D * (1.0 - 1e-12)  # D less a rounding slack relative to D
    ok = np.nonzero(g.rho >= below)[0]
    if ok.size == 0:
        return False
    w = g.measure[ok]
    sub = g.dist[np.ix_(ok, ok)]
    close = sub < below
    np.fill_diagonal(close, False)
    m = ok.size
    weights = (np.int64(1) << np.arange(m, dtype=np.int64))
    near = close.astype(np.int64).T @ weights  # per-vertex conflict bitmask
    mass = _subset_fold(np.add, w)
    near_of = _subset_fold(np.bitwise_or, near)
    full = (1 << m) - 1
    etas = sorted((eta * (1.0 - 1e-12) for eta in etas), reverse=True)  # the masses needed

    def rec(avail: int, needs) -> bool:
        eta = needs[0]
        if len(needs) == 1:
            return mass[avail] >= eta
        # enumerate submasks of avail as the next set
        sub_mask = avail
        while sub_mask:
            if mass[sub_mask] >= eta:
                rest = avail & ~(sub_mask | near_of[sub_mask])
                if rec(rest, needs[1:]):
                    return True
            sub_mask = (sub_mask - 1) & avail
        return False

    if len(etas) == 2:
        # vectorized: for every first-set mask, take all remaining allowed mass,
        # 2^16 masks at a time so the temporaries stay small
        for lo in range(0, full + 1, 1 << 16):
            cand = np.flatnonzero(mass[lo:lo + (1 << 16)] >= etas[0]) + lo
            avail = full & ~(cand | near_of[cand])
            if np.any(mass[avail] >= etas[1]):
                return True
        return False
    return rec(full, etas)


def _greedy_family(g: BoundaryGraph, etas, D: float):
    """Greedy witnessed family at target separation D, or None.

    Vertices are scanned in decreasing rho order; a vertex joins a set
    when it conflicts with no other set, preferring the set with the
    largest remaining mass deficit.
    """
    k = len(etas)
    order = np.argsort(-g.rho, kind="stable")
    groups: list[list[int]] = [[] for _ in range(k)]
    masses = np.zeros(k)
    d = g.dist
    below = D * (1.0 - 1e-12)  # D less a rounding slack relative to D
    for v in order:
        if g.rho[v] < below:
            continue
        conflicts = [gi for gi in range(k) if groups[gi] and d[v, groups[gi]].min() < below]
        if len(conflicts) > 1:
            continue
        # the one set it conflicts with, else the one with the largest mass deficit
        gi = conflicts[0] if conflicts else int(np.argmax(np.asarray(etas) - masses))
        groups[gi].append(int(v))
        masses[gi] += g.measure[v]
    # match achieved masses to requested ones (sorted greedily)
    achieved = sorted(masses, reverse=True)
    needed = sorted(etas, reverse=True)
    if all(a >= b * (1.0 - 1e-12) for a, b in zip(achieved, needed)) and all(groups):
        return groups
    return None


def _family_value(g: BoundaryGraph, groups) -> float:
    """Exact separation value of a witnessed family."""
    d = g.dist
    val = math.inf
    for gi, grp in enumerate(groups):
        val = min(val, float(g.rho[grp].min()))
        for gj in range(gi + 1, len(groups)):
            val = min(val, float(d[np.ix_(grp, groups[gj])].min()))
    return val


def bsep_k(g: BoundaryGraph, etas, mode: str = "exact") -> float:
    """Boundary separation distance for k mass thresholds.

    k = 1 is always exact: the optimal set is a superlevel set of the
    boundary distance.  For k >= 2, ``exact`` enumerates vertex subsets
    (guarded to graphs with at most 20 vertices) over the finite grid of
    achievable separation values, while ``greedy`` returns the exact
    value of a witnessed family, hence a true lower bound.
    """
    etas = [float(e) for e in etas]
    if not etas:
        raise DomainError("need at least one mass threshold")
    screens._require_finite("mass thresholds", np.array(etas))
    if any(e <= 0 for e in etas):
        raise DomainError("mass thresholds must be positive")
    if any(e > 1.0 for e in etas):
        return 0.0
    if len(etas) == 1:
        return screens.bsep_single(graph_screen(g), etas[0])
    if mode not in ("exact", "greedy"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "exact":
        if g.n > _EXACT_VERTEX_GUARD:
            raise DomainError(f"exact mode enumerates subsets; graph has {g.n} > "
                              f"{_EXACT_VERTEX_GUARD} vertices")
        cand = _candidate_values(g).tolist()
        if _exact_feasible(g, etas, cand[-1]):
            return cand[-1]
        # feasibility is monotone and cand[0] = 0 feasible: the first infeasible one, less one
        i = bisect.bisect_left(cand, True, 1, len(cand) - 1,
                               key=lambda D: not _exact_feasible(g, etas, D))
        return cand[i - 1]
    for D in _candidate_values(g)[::-1]:
        family = _greedy_family(g, etas, float(D))
        if family is not None:
            return _family_value(g, family)
    return 0.0


# ---------------------------------------------------------------------------
# concentration trend report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrendRow:
    index: int
    obs_lower: float
    obs_upper: float
    bsep: float
    boundary_mass: float


@dataclass
class TrendReport:
    """Three trend lines for a sequence of graphs.

    Concentration toward the boundary means: the observable-inscribed-
    radius enclosure and the separation distance fall while the mass of
    the r-neighborhood of the boundary rises toward 1.  Any finite
    sequence only exhibits a trend; this report never issues a verdict.
    """

    r: float
    eta: float
    rows: list[TrendRow] = field(default_factory=list)
    note: str = (
        "trend report over a finite sequence; the concentration criterion "
        "is asymptotic and is not decided here"
    )

    def to_json(self) -> str:
        return _text.dumps({"r": self.r, "eta": self.eta, "note": self.note,
                            "rows": [asdict(row) for row in self.rows]})

    def to_csv(self) -> str:
        return _text.records_csv(TrendRow, self.rows)


def concentration_equivalence_check(seq, r: float, eta: float) -> TrendReport:
    """Trend lines behind the three equivalent concentration criteria."""
    if r <= 0:
        raise DomainError(f"r must be positive, got {r}")
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    report = TrendReport(r=float(r), eta=float(eta))
    for i, g in enumerate(seq):
        s = graph_screen(g)
        out = screens.obs_inradius(s, eta)  # bounds: an atom screen never has full support
        bmass = float(g.measure[g.rho <= r * (1.0 + 1e-12)].sum())
        report.rows.append(
            TrendRow(i, out.lower, out.upper, screens.bsep_single(s, eta), bmass)
        )
    return report

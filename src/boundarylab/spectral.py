"""Weighted Sturm-Liouville spectra and eigenvalue-inequality audits.

The operator is u -> -(theta u')' / theta on an interval [0, L] with a
positive weight theta and Dirichlet/Neumann endpoint conditions, the 1D
radial reduction of the weighted Laplacian.  A finite-volume scheme on
the (possibly nonuniform) grid yields a symmetric tridiagonal pencil
(S, M) whose discrete Rayleigh quotient is exactly the quadrature used by
:func:`rayleigh` (both read ``_cells``), so min-max holds.  S is never
formed, so no eigenvalue loses the eps/h^2 that Sturm bisection on the
formed tridiagonal pays.  Small k: Lanczos without a stored basis, with
the Cullum-Willoughby filter, on the exact inverse of the pencil (the
Green's operator M^{1/2} S^{-1} M^{1/2}, applied by cumulative sums over
the face resistances) in O(n) memory and no more steps than kept nodes.
On large grids it starts from the prolonged Ritz vectors of a coarse grid
(a two-grid start), which about halves its steps at 200k points.  Its values
are kept once their residual intervals are disjoint, each one's Kato-Temple
term is at most 2^-44 of it, and an exact count just below the k-th puts k
eigenvalues below; they carry that 2^-44 plus the applies' rounding, a term
fitted on random problems, 2 sqrt(n) eps nu_j / nu_1 (5e-12 for nu_5 = 25
nu_1 at 200k points).  Otherwise, and for larger k, the k smallest are
root-found on those counts, bracketed to the same 2^-44.  A count is the
inertia of S - x M by cyclic reduction over the face conductances
(:func:`_pivots`), about 1e-13 relative for every eigenvalue, small or
large, and up to 1.8e-12 on 900 random problems of 17-401 points.

The module also computes the Dirichlet isoperimetric constant by
Dinkelbach's method over every pair of knots, boundary separation
distances by exact 1D packing and the distance-to-boundary screen, and
audits every eigenvalue inequality of the theory from these and the
spectrum.  Knots suffice: on a cell theta is linear with slope s and the
mass M rises at r theta (r > 0), so theta +- lam M has second derivative
+- lam r s; wherever it is convex its slope s +- lam r theta has the sign
of s, so on every cell it is monotone or concave and least at an end.
All of them read one continuous, nondecreasing mass
(``_integrate.pl_cumulative``): the screen as an array, the isoperimetric
constant at its knots, the packing once per set in plain floats beside
the mass's closed-form inverse (``_integrate._invert_mass``).
Its knot table has one rule on every grid, uniform or graded
(``_integrate.cumulative_simpson``): the quadratic through each two-cell
panel's nodes, its bend limited so that every cell takes 1/2 to 3/2 of its
trapezoid.
"""

from __future__ import annotations

import csv
import enum
import itertools
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING

from . import _text, screens
from ._integrate import _invert_mass, cumulative_simpson, pl_cell, pl_cumulative, pl_density
from ._numpy import np
from .errors import DomainError

if TYPE_CHECKING:
    from .models import ModelSpace

__all__ = [
    "Endpoint",
    "RadialProblem",
    "SpectrumResult",
    "AuditEntry",
    "AuditReport",
    "dirichlet_spectrum",
    "rayleigh",
    "isoperimetric_constant",
    "interval_bsep",
    "problem_screen",
    "inradius",
    "audit_inequalities",
    "gradient_sup",
    "buser_ledoux_coefficient",
    "universal_constant",
    "truncated_ray_problem",
    "generate_log_concave_problem",
]


def __getattr__(name):
    # ``boundary_screen`` stays reachable as ``spectral.boundary_screen`` but
    # resolves on access, so that importing spectral leaves models unloaded
    if name == "boundary_screen":
        from .models import boundary_screen

        return boundary_screen
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Endpoint(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class RadialProblem:
    """Gridded weighted density on [0, L] with endpoint condition tags.

    ``curvature_flags = (nonneg_ricci_f, nonneg_mean_curv)`` must be set
    truthfully by the caller; they gate the curvature-dependent audits.
    In the 1D reduction they mean: log(theta) concave on (0, L), and
    theta nonincreasing at each Dirichlet (boundary) end.
    """

    grid: np.ndarray
    theta: np.ndarray
    left_bc: Endpoint = Endpoint.DIRICHLET
    right_bc: Endpoint = Endpoint.DIRICHLET
    nonneg_ricci_f: bool = False
    nonneg_mean_curv: bool = False
    note: str = ""

    def __post_init__(self):
        grid, theta, cum = pl_density(self.grid, self.theta, min_points=16)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "theta", theta)
        if self.left_bc is not Endpoint.DIRICHLET and self.right_bc is not Endpoint.DIRICHLET:
            raise DomainError("at least one endpoint must be Dirichlet")
        object.__setattr__(self, "_cum", cum)

    # -- geometry -------------------------------------------------------
    @property
    def length(self) -> float:
        return float(self.grid[-1])

    @property
    def total_mass(self) -> float:
        return float(self._cum[-1])

    def mass(self, a, b):
        """Integral of theta over [a, b] (piecewise-linear density);
        a and b are floats or arrays."""
        return self._cum_at(b) - self._cum_at(a)

    def _cum_at(self, x):
        return pl_cumulative(x, self.grid, self.theta, self._cum)

    def theta_at(self, x: float) -> float:
        return float(np.interp(x, self.grid, self.theta))

    def _mass_inverse(self, target: float) -> float:
        """:func:`_invert_mass` on this problem's grid, density and table."""
        return _invert_mass(*map(memoryview, (self.grid, self.theta, self._cum)), target)

    # -- serialization: CSV body with a JSON comment header --------------
    def to_csv(self) -> str:
        fields = {key: getattr(self, key) for key in _text.PROBLEM_HEADER}
        header = _text.dumps({**fields, "left_bc": self.left_bc.value,
                              "right_bc": self.right_bc.value})
        return _text.csv_text(("t", "theta"), (self.grid, self.theta), f"# {header}\n")

    @classmethod
    def from_csv(cls, text: str) -> "RadialProblem":
        lines = text.strip().splitlines()
        if not lines or not lines[0].startswith("#"):
            raise DomainError("problem file must start with a JSON header comment")
        options = _text.read(_text.PROBLEM_HEADER, lines[0][1:].strip(), "problem header")
        options.update(left_bc=Endpoint(options["left_bc"]), right_bc=Endpoint(options["right_bc"]))
        if len(lines) < 2 or next(csv.reader(lines[1:2])) != ["t", "theta"]:
            raise DomainError("expected a 't,theta' CSV header row")
        body = lines[2:]
        try:
            data = np.loadtxt(body, delimiter=",", quotechar='"', comments=None,
                              ndmin=2) if body else np.empty((0, 2))
        except ValueError as exc:
            raise DomainError(f"bad CSV row: {exc}") from None
        if data.shape != (len(body), 2):  # loadtxt skips blank lines
            raise DomainError("bad CSV row: every row needs exactly t,theta")
        return cls(data[:, 0], data[:, 1], **options)


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray
    grid_size: int
    estimated_discretization_error: float

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", ev)
        if ev[0] <= 0:
            raise DomainError(f"first eigenvalue must be positive, got {ev[0]}")
        if np.any(np.diff(ev) < -1e-12 * np.abs(ev[:-1])):
            raise DomainError("eigenvalues must ascend")


def _cells(grid, theta):
    """Cell widths, face densities and dual-cell widths of the scheme."""
    h = np.diff(grid)
    dual = np.empty(grid.size)
    dual[1:-1] = 0.5 * (h[1:] + h[:-1])
    dual[0] = 0.5 * h[0]
    dual[-1] = 0.5 * h[-1]
    return h, 0.5 * (theta[1:] + theta[:-1]), dual


# Lanczos on the Green's operator; constants, not options
_SEED = 20170605        # fixed start vector, so outputs are deterministic
_RESOLVED = 1e-9        # a Ritz value below 1 / _RESOLVED rounding floors is noise
_CLUSTER_TOL = 2e-9     # Ritz values this close, relative, are copies of one eigenvalue
# a simple value this close to an eigenvalue of T-hat is spurious; far below
# _CLUSTER_TOL / 2, so of two unmerged copies the one T-hat does not hug survives
_MATCH_TOL = 1e-12
_ROUNDING = 8.0         # the filter's floor in units of eps * mu_1: the matvec rounding
_SPREAD = 2.0           # each r_i's rounding term in units of sqrt(n) eps mu_1: fitted, not a bound
_SHIFT = 0.2            # mu_s lies at most this share of the way to the next Ritz value
_MAX_ITER = 1000
_BLOCK = 1024
_STRIDE = 16            # the two-grid start's coarse grid keeps every _STRIDE-th node,
_COARSE_MIN = 800       # and is used from this many: the measured break-even (BENCH_13.json)
# eigenvalue counts and the root finder; constants, not options
_LANCZOS_K = 16         # larger k is root-found: on 2k points the cheaper from here on
_ROOT_TOL = 2.0 ** -44  # a root is returned once its bracket is this narrow, relative
_MAX_SWEEPS = 100
_SUSPECT = 1e-6         # a pivot below this share of its terms is recounted in order
_CHUNK = 1 << 18        # shifts times nodes per batch of counts (2 MB arrays)
_EPS = 2.0 ** -52       # machine epsilon of a double


def _cumsum(z: np.ndarray) -> np.ndarray:
    """Prefix sums.  Up to 2 _BLOCK (2,048) entries one sequential sum, so
    each carries up to n additions; beyond, blocked, so each carries up to
    _BLOCK within its block plus n / _BLOCK block totals (1,219 at 200,001)."""
    n = z.size
    if n <= 2 * _BLOCK:
        return np.cumsum(z)
    nb = n // _BLOCK
    cut = nb * _BLOCK
    out = np.empty(n)
    body = out[:cut].reshape(nb, _BLOCK)
    np.cumsum(z[:cut].reshape(nb, _BLOCK), axis=1, out=body)
    body[1:] += np.cumsum(body[:-1, -1])[:, None]
    np.cumsum(z[cut:], out=out[cut:])
    out[cut:] += body[-1, -1]
    return out


def _pencil(p: RadialProblem):
    """Cell widths, face densities and kept nodes' masses, theta scaled to its
    maximum (nu is unchanged): the one build :func:`_chain` and :func:`_green` read."""
    theta = p.theta / p.theta.max()
    h, th_face, dual = _cells(p.grid, theta)
    lo = int(p.left_bc is Endpoint.DIRICHLET)
    return h, th_face, (theta * dual)[lo:p.grid.size - int(p.right_bc is Endpoint.DIRICHLET)]


def _chain(p: RadialProblem, pencil=None):
    """The pencil as a chain of the kept nodes: the conductances theta_face / h
    between neighbours, the conductance from a node to a Dirichlet end (its
    ground term), and the masses."""
    h, th_face, mass = pencil or _pencil(p)
    w = th_face / h
    if not (np.all(np.isfinite(w)) and w.min() > 0.0 and mass.min() > 0.0):
        raise DomainError("theta spans more than the solver's floating-point range")
    lo = int(p.left_bc is Endpoint.DIRICHLET)
    ground = np.zeros(mass.size)
    ground[0] += lo * w[0]
    ground[-1] += (lo + mass.size < p.grid.size) * w[-1]
    return w[lo:lo + mass.size - 1], ground, mass


def _pivots(chain, x):
    """Each level's pivots d of S - x M under cyclic reduction and the ratios
    odd / d, last the one node left (ratio 0), for one shift x or a column of
    shifts (a row each); the caller may overwrite d.  Eliminating every
    other node leaves a chain of the same form: the new conductance is the
    series c_l c_r / d and each neighbour's ground term gains c gamma / d, so
    no stiffness sum is ever differenced and the counts keep the relative
    accuracy of the conductances and masses."""
    c, ground, mass = chain
    g = ground - x * mass
    while g.shape[-1] > 1:
        cl, cr, odd = c[..., 0::2], c[..., 1::2], g[..., 1::2]
        nr = cr.shape[-1]
        d = odd + cl
        d[..., :nr] += cr
        q = odd / d
        c = cr / d[..., :nr]
        c *= cl[..., :nr]
        yield d, q
        even = g[..., 0::2].copy()  # contiguous: strided levels cost more at 200k nodes
        even[..., :odd.shape[-1]] += np.multiply(cl, q, out=d)
        even[..., 1:nr + 1] += np.multiply(cr, q[..., :nr], out=d[..., :nr])
        g = even
    yield g, np.zeros_like(g)


def _in_order(chain, x: float):
    """The count and log|det| of :func:`_counts` at one shift, by elimination
    in node order in plain floats: a pivot that nearly cancels makes the
    next one large, and the series ratio c a / q stays accurate through it."""
    c, ground, mass = (v.tolist() for v in chain)
    neg, logdet = 0, 0.0
    a = ground[0] - x * mass[0]
    for ci, gi, mi in zip(c, ground[1:], mass[1:]):
        q = a + ci
        if q == 0.0:
            q = -_EPS * ci
        neg += q < 0.0
        logdet += math.log(abs(q))
        a = ci * (a / q) + (gi - x * mi)
    return neg + (a < 0.0), logdet + (math.log(abs(a)) if a else -math.inf)


def _count(chain, x: float) -> int:
    """Eigenvalues of the pencil below one shift x: :func:`_counts` without log|det|."""
    neg, big = 0, 0.0
    with np.errstate(all="ignore"):
        for d, q in _pivots(chain, x):
            neg += np.count_nonzero(d < 0.0)
            big = max(big, np.abs(q).max())
    return neg if big <= 1.0 / _SUSPECT else _in_order(chain, x)[0]


def _counts(chain, x: np.ndarray):
    """Eigenvalues of the pencil below each shift x, and log|det(S - x M)|; a
    shift where a pivot nearly cancelled is recounted in order."""
    neg = np.empty(x.size, dtype=int)
    logdet = np.empty(x.size)
    step = max(1, _CHUNK // len(chain[1]))
    with np.errstate(all="ignore"):
        for s in range(0, x.size, step):
            part = slice(s, s + step)
            n = ld = big = 0
            for d, q in _pivots(chain, x[part, None]):
                n = n + np.count_nonzero(d < 0.0, axis=1)
                big = np.maximum(big, np.abs(q).max(axis=1))
                ld = ld + np.log(np.abs(d, out=d), out=d).sum(axis=1)
            neg[part], logdet[part] = n, ld
            for i in s + np.flatnonzero(~(big <= 1.0 / _SUSPECT)):
                neg[i], logdet[i] = _in_order(chain, float(x[i]))
    if np.isnan(logdet).any():
        raise DomainError("theta spans more than the solver's floating-point range")
    return neg, logdet


def _roots(p: RadialProblem, chain, k: int) -> np.ndarray:
    """The k smallest eigenvalues by root finding on the counts.

    Every shift brackets every eigenvalue: nu_j lies above the shifts with
    fewer than j eigenvalues below and at or below the rest.  A bracket
    holding one eigenvalue is narrowed by the Illinois variant of regula
    falsi on det(S - x M), which changes sign once inside; any other by
    geometric bisection.  The first shifts fall between the eigenvalues of
    the uniform grid of the same size.
    """
    c, ground, mass = chain
    # bounds: Gershgorin above, nu_1 >= 1 / trace(K) below, where the diagonal
    # of S^-1 is the parallel resistance to the two ends
    with np.errstate(divide="ignore", over="ignore"):
        root_m = np.sqrt(mass)
        off = c / (root_m[:-1] * root_m[1:])
        row = ground / mass
        row[:-1] += c / mass[:-1] + off
        row[1:] += c / mass[1:] + off
        end = 1.0 / ground[[0, -1]]
        r = _cumsum(1.0 / c)
        left = end[0] + np.concatenate(([0.0], r))
        right = end[1] + (r[-1] - np.concatenate(([0.0], r)))
        low = float(0.5 / np.sum(mass / (1.0 / left + 1.0 / right)))
    top = float(row.max())
    if not 0.0 < low <= top < math.inf:
        raise DomainError("theta spans more than the solver's floating-point range")
    j = np.arange(1, k + 1)
    h = p.length / (p.grid.size - 1)
    half = 0.0 if len(ground) == p.grid.size - 2 else 0.5
    # uniform-grid eigenvalue j sits at index j - half; shift between j and j + 1
    mid = (2.0 / h * np.sin((j + 0.5 - half) * math.pi * h / (2.0 * p.length))) ** 2
    x = np.concatenate(([low], mid, [top]))
    a, b = np.zeros(k), np.full(k, math.inf)
    na, nb = np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    la, lb = np.zeros(k), np.zeros(k)
    moved = np.zeros(k, dtype=int)  # the end that moved last: -1 a, 1 b
    for _ in range(_MAX_SWEEPS):
        neg, logdet = _counts(chain, x)
        o = np.argsort(x, kind="stable")
        xs, ns, ls = x[o], np.maximum.accumulate(neg[o]), logdet[o]
        pos = np.searchsorted(ns, j)  # the first shift with j eigenvalues below
        up, dn = np.minimum(pos, x.size - 1), np.maximum(pos - 1, 0)
        mb = (pos < x.size) & (xs[up] < b)
        ma = (pos > 0) & (xs[dn] > a)
        # Illinois: when one end moves twice running, halve the other's value
        la[mb & ~ma & (moved == 1)] -= math.log(2.0)
        lb[ma & ~mb & (moved == -1)] -= math.log(2.0)
        moved = mb.astype(int) - ma.astype(int)
        b[mb], nb[mb], lb[mb] = xs[up[mb]], ns[up[mb]], ls[up[mb]]
        a[ma], na[ma], la[ma] = xs[dn[ma]], ns[dn[ma]], ls[dn[ma]]
        live = np.flatnonzero(b - a > _ROOT_TOL * b)
        if live.size == 0:
            return 0.5 * (a + b)
        lo, hi = a[live], b[live]
        x = np.sqrt(lo) * np.sqrt(hi)
        single = (na[live] == live) & (nb[live] == live + 1)
        with np.errstate(over="ignore"):
            falsi = lo + (hi - lo) / (1.0 + np.exp(lb[live] - la[live]))
        pad = 0.25 * _ROOT_TOL * hi
        x = np.clip(np.where(single, falsi, x), lo + pad, hi - pad)
    raise DomainError(f"root finding did not resolve k={k} eigenvalues in {_MAX_SWEEPS} sweeps")


def _green(p: RadialProblem, pencil=None):
    """Apply K = M^{1/2} S^{-1} M^{1/2}, the exact inverse of the scaled pencil.

    S^{-1} is the discrete Green's function of the finite-volume scheme,
    built from the face resistances r_f = h_f / theta_face by cumulative
    sums; S itself is never formed.  Returns apply and the mass roots
    M^{1/2} of the kept nodes.
    """
    h, th_face, mass = pencil or _pencil(p)
    r = h / th_face
    sm = np.sqrt(mass)
    left_d = p.left_bc is Endpoint.DIRICHLET
    if left_d and p.right_bc is Endpoint.DIRICHLET:
        # G_ij = R_i Rbar_j / R for i <= j, with R_i = sum_{f<i} r_f and
        # Rbar_j = sum_{f>=j} r_f: a prefix sum plus a strict suffix sum
        R = _cumsum(r)
        Rbar = _cumsum(r[::-1])[::-1]
        s = 1.0 / math.sqrt(R[-1])
        a = sm * R[:-1] * s
        c = sm * Rbar[1:] * s

        def apply(x):
            y = c * _cumsum(a * x)
            y[:-1] += a[:-1] * _cumsum((c * x)[:0:-1])[::-1]
            return y

        return apply, sm
    # Neumann-Dirichlet is the mirror image of Dirichlet-Neumann
    ms, r = (sm, r) if left_d else (sm[::-1], r[::-1])

    def apply(x):
        # face f carries the mass beyond it (a suffix sum), and u is the
        # resistance-weighted prefix sum of those fluxes
        return ms * _cumsum(r * _cumsum((ms * x)[::-1])[::-1])

    if left_d:
        return apply, sm
    return (lambda x: apply(x[::-1])[::-1]), sm


def _genuine(alpha, beta, k, n):
    """The k largest genuine Ritz values of the Lanczos tridiagonal T of K on
    n nodes, their eigenvectors in T and the shift mu_s of the count that
    checks them; None while not accepted, False once steps cannot help.

    The filter of Cullum and Willoughby (1985): Ritz values closer than
    _CLUSTER_TOL are copies of one eigenvalue (ghosts left by lost
    orthogonality) and count once; a simple Ritz value that is also an
    eigenvalue of T-hat (T without its first row and column) is spurious.
    Both tolerances scale with the Ritz value, never below the rounding
    floor of the matvec.  An eigenvalue of K lies within r_i of each kept
    theta_i: its residual bound plus the applies' rounding 2 sqrt(n) eps mu_1
    (fitted on random problems, not a bound on :func:`_cumsum`'s additions).
    The values are accepted when the intervals theta_i +- r_i are disjoint
    and above mu_s, so a count of k eigenvalues above mu_s puts one in each,
    and each Kato-Temple bound r_i^2 / gap_i (Kato 1949; Parlett 1998,
    10.3), gap_i from theta_i to the neighbouring intervals or mu_s, is at
    most _ROOT_TOL theta_i.  Once every residual bound is below the rounding,
    more steps cannot shrink them.
    """
    m = len(alpha)
    T = np.diag(alpha)
    off = np.arange(m - 1)
    T[off, off + 1] = T[off + 1, off] = beta[:m - 1]
    theta, s = np.linalg.eigh(T)
    that = np.linalg.eigvalsh(T[1:, 1:])
    floor = _ROUNDING * _EPS * theta[-1]
    rounding = _SPREAD * math.sqrt(n) * _EPS * theta[-1]
    res = abs(beta[m - 1]) * np.abs(s[-1])
    kept, r = [], []
    i = m - 1
    while i >= 0 and len(kept) < k:
        if floor > _RESOLVED * theta[i]:  # the rest is rounding noise
            return None
        j = best = i
        while j > 0 and theta[j] - theta[j - 1] <= _CLUSTER_TOL * theta[j]:
            j -= 1
        bound = res[i]
        if j < i:  # copies: the best-resolved one, bounded by their spread
            best = j + int(np.argmin(res[j:i + 1]))
            bound = min(res[best], theta[i] - theta[j])
        elif np.any(np.abs(that - theta[i]) <= max(_MATCH_TOL * theta[i], floor)):
            i -= 1  # spurious
            continue
        kept.append(best)
        r.append(bound + rounding)
        i = j - 1
    if len(kept) < k:
        return None
    mu, r = theta[kept], np.array(r)
    # mu_s: twice the k-th's Kato-Temple need below it, at most _SHIFT of the way down
    shift = mu[-1] - 2.0 * max(r[-1], r[-1] * r[-1] / (_ROOT_TOL * mu[-1]))
    far = mu[-1] - _SHIFT * (mu[-1] - (theta[i] if i >= 0 else 0.0))
    below = np.append(mu[1:] + r[1:], shift)  # bounds on the neighbouring eigenvalues
    gap = np.minimum(mu - below, np.append(math.inf, mu[:-1] - r[:-1]) - mu)
    if shift >= far and np.all(mu - r > below) and np.all(r * r <= _ROOT_TOL * mu * gap):
        return mu, s[:, kept], shift
    return False if np.all(r <= 2.0 * rounding) else None


def _start(p: RadialProblem, k: int, sm: np.ndarray):
    """Unit start vector of Lanczos on K, given the mass roots ``sm``, and
    whether it is the two-grid one (Xu & Zhou, Math. Comp. 70, 2001): where
    every _STRIDE-th node plus the last makes _COARSE_MIN nodes and 8k cells,
    the sum of that coarsening's k Ritz vectors as nodal values, zero at
    Dirichlet ends, interpolated to the fine nodes and scaled by M^{1/2}.
    Elsewhere, or if the coarse run fails, a seeded random vector.
    """
    n = p.grid.size
    nodes = np.append(np.arange(0, n - 1, _STRIDE), n - 1)
    if nodes.size >= _COARSE_MIN and 8 * k <= nodes.size - 1:
        coarse = replace(p, grid=p.grid[nodes], theta=p.theta[nodes])
        u = _krylov(coarse, k, ritz=True)
        if u is not None:
            lo = int(p.left_bc is Endpoint.DIRICHLET)
            full = np.zeros(nodes.size)
            full[lo:lo + u.size] = u
            v = sm * np.interp(p.grid[lo:lo + sm.size], coarse.grid, full)
            norm = float(np.linalg.norm(v))
            if 0.0 < norm < math.inf:
                return v / norm, True
    v = np.random.default_rng(_SEED).standard_normal(sm.size)
    return v / np.linalg.norm(v), False


def _lanczos(p: RadialProblem, k: int) -> np.ndarray | None:
    """The k smallest eigenvalues nu = 1/mu from the k largest mu of K, or
    None where Lanczos cannot vouch for them: :func:`_krylov`'s accepted
    values, once a count puts exactly k eigenvalues below the shift 1 / mu_s.
    Two eigenvalues closer than _CLUSTER_TOL read as one, and one the start
    vector barely meets can lag; the count catches both."""
    pencil = _pencil(p)
    found = _krylov(p, k, pencil=pencil)
    if found is None:
        return None
    mu, shift = found
    return 1.0 / mu if _count(_chain(p, pencil), 1.0 / shift) == k else None


def _krylov(p: RadialProblem, k: int, ritz: bool = False, pencil=None):
    """Lanczos on K: the k largest genuine Ritz values of :func:`_genuine`
    and their count's shift mu_s, or None.

    Three-term Lanczos without a stored basis: O(n) working memory.  Large
    grids start from :func:`_start`'s two-grid vector and check from step
    k + 2 at every step; from a random start, which took at least 10k / 3
    steps in 5,051 measured runs (``BENCH_27.json``), from step 3k + 3 + k // 4
    every 2 + m // 32 steps.  With ``ritz`` the basis is kept, and the sum of
    the k Ritz vectors as nodal values M^{-1/2} y is returned instead.
    """
    # a theta spanning more than the floating-point range overflows here
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        apply, sm = _green(p, pencil)
        v, two_grid = _start(p, k, sm)
        v_prev = np.zeros(sm.size)
        alpha, beta, basis = [], [], []
        b = 0.0
        # a check costs a dense eigensolve of T, about 3-4 Green's applies at 2k points
        check = k + 2 if two_grid else 3 * k + 3 + k // 4
        last = min(_MAX_ITER, sm.size)  # no more steps than nodes, and the last is checked
        for m in range(1, last + 1):
            if ritz:
                basis.append(v)
            w = apply(v)
            w -= b * v_prev
            a = float(w @ v)
            w -= a * v
            b = float(np.linalg.norm(w))
            if not math.isfinite(a + b):
                return None
            alpha.append(a)
            beta.append(b)
            if m >= check or m == last or b == 0.0:
                found = _genuine(alpha, beta, k, sm.size)
                if found:
                    mu, s, shift = found
                    return s.sum(axis=1) @ np.array(basis) / sm if ritz else (mu, shift)
                if found is False or b == 0.0:  # or an invariant subspace short of k
                    return None
                check = m + (1 if two_grid else 2 + m // 32)
            v_prev, v = v, w / b
    return None


def _eigenvalues(p: RadialProblem, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the pencil, each to 2^-44 plus rounding.

    Small k: Lanczos on the Green's operator, checked by a count in the
    gap above its k-th value; anything else: root finding on the counts.
    """
    nu = _lanczos(p, k) if k <= _LANCZOS_K else None
    return _roots(p, _chain(p), k) if nu is None else nu


def _spectrum(p: RadialProblem, k: int) -> SpectrumResult:
    """The checked solve that dirichlet_spectrum and the audit share."""
    m = p.grid.size - 1
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > m / 4:
        raise DomainError(f"resolution guard: k={k} exceeds m/4 with m={m}")
    return SpectrumResult(_eigenvalues(p, k), p.grid.size, math.nan)


def dirichlet_spectrum(p: RadialProblem, k: int) -> SpectrumResult:
    """First k eigenvalues of the weighted operator with the declared BCs.

    The eigenvalues of the pencil that :func:`rayleigh` evaluates (both read
    ``_cells``, so min-max holds), for any k up to the resolution guard m/4,
    to 2^-44 (5.7e-14) relative plus rounding: for Lanczos values a fitted
    2 sqrt(n) eps nu_j / nu_1, for root-found ones the counts' rounding, about
    1e-13 and measured up to 1.8e-12 (module docstring).  Lanczos on a grid
    of 12,770 points or more starts from a coarse grid's Ritz vectors, and
    from a random start it first checks near step 3.3k; both change its
    cost, not its accuracy or the count that checks it.  Never returned
    unconverged: a theta beyond the
    floating-point range, or root finding that outruns its sweep cap, raise
    DomainError.  The scheme is second-order accurate: halving the grid
    spacing cuts the discretization error about fourfold.  The reported
    error estimate Richardson-extrapolates a coarsened solve when the grid
    size allows it.
    """
    res = _spectrum(p, k)
    m = p.grid.size - 1
    if m % 2 == 0 and m // 2 >= 16 and k <= m // 8:
        coarse = replace(p, grid=p.grid[::2], theta=p.theta[::2])
        cvals = _eigenvalues(coarse, k)
        vals = res.eigenvalues
        err = float(np.max(np.abs(cvals - vals) / np.abs(vals)) / 3.0)
        res = replace(res, estimated_discretization_error=err)
    return res


def rayleigh(p: RadialProblem, phi) -> float:
    """Rayleigh quotient int theta phi'^2 / int theta phi^2.

    Uses exactly the discrete quadratic forms of the eigensolver, so the
    value is >= the first computed eigenvalue for every admissible phi.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != p.grid.shape:
        raise DomainError("phi must be a grid function")
    tol = 1e-12 * max(1.0, float(np.abs(phi).max()))
    phi = phi.copy()
    for idx, bc in ((0, p.left_bc), (-1, p.right_bc)):
        if bc is Endpoint.DIRICHLET:
            if abs(phi[idx]) > tol:
                raise DomainError("phi must vanish at Dirichlet endpoints")
            phi[idx] = 0.0
    if not np.any(phi != 0.0):
        raise DomainError("phi must not vanish identically")
    h, th_face, dual = _cells(p.grid, p.theta)
    num = float(np.sum(th_face * np.diff(phi) ** 2 / h))
    den = float(np.sum(p.theta * dual * phi**2))
    if den == 0.0:
        raise DomainError("phi has zero weighted mass")
    return num / den


# ---------------------------------------------------------------------------
# isoperimetric constant
# ---------------------------------------------------------------------------

def _dinkelbach(th: np.ndarray, cum: np.ndarray):
    """Minimum of (th[i] + th[j]) / (cum[j] - cum[i]) over i < j with positive
    mass, as (value, i, j), in O(c) per iteration.

    Dinkelbach's method for fractional programs (Management Science 13,
    1967): at the ratio lam of some pair, the minimum over i < j of
    th[i] + lam cum[i] + th[j] - lam cum[j] is negative exactly when some
    pair has a smaller ratio, and a pair attaining it is the next one.  A
    running minimum over i finds it; lam falls strictly, so the iteration
    ends on the minimum of the candidates up to the rounding of
    th + lam * cum, about ulp(lam * cum[-1]): a pair whose objective is
    negative by less than that is never taken.
    """
    i, j = 0, th.size - 1  # the whole interval: cum[0] = 0 < cum[-1]
    lam = (th[i] + th[j]) / (cum[j] - cum[i])
    while True:
        left = th + lam * cum
        jj = int(np.argmin(np.minimum.accumulate(left[:-1]) + (th[1:] - lam * cum[1:]))) + 1
        ii = int(np.argmin(left[:jj]))
        mass = cum[jj] - cum[ii]
        if not mass > 0.0:
            return float(lam), i, j
        r = (th[ii] + th[jj]) / mass
        if not r < lam:
            return float(lam), i, j
        lam, i, j = r, ii, jj


def isoperimetric_constant(p: RadialProblem) -> float:
    """Infimum of relative perimeter over mass for interior candidate sets.

    Candidates are single subintervals; an endpoint carrying a Neumann
    tag is a symmetry center rather than boundary, so sets may touch it
    with no perimeter contribution there.  Two-interval unions never beat
    the best single interval (mediant inequality), so the family is exact.
    Dinkelbach's method runs over every pair of knots, a Neumann end at zero
    perimeter, and knots suffice: on a cell theta is linear with slope s and
    the mass M rises at r theta (r > 0, the cell's table increment over its
    trapezoid), so theta +- lam M has second derivative +- lam r s.  Where
    it is convex its slope s +- lam r theta has the sign of s, so on every
    cell it is monotone or concave and least at an end.  The value is exact
    up to the rounding that :func:`_dinkelbach` states.
    """
    th = p.theta.copy()
    th[0] *= p.left_bc is Endpoint.DIRICHLET
    th[-1] *= p.right_bc is Endpoint.DIRICHLET
    return _dinkelbach(th, p._cum)[0]


# ---------------------------------------------------------------------------
# screens, packings, inradius
# ---------------------------------------------------------------------------

def inradius(p: RadialProblem) -> float:
    """Inscribed radius of the interval with its boundary reading."""
    if p.left_bc is Endpoint.DIRICHLET and p.right_bc is Endpoint.DIRICHLET:
        return 0.5 * p.length
    return p.length


_KNOT_MERGE = 1e-6  # two screen knots closer than this share of the least grid step are one


def problem_screen(p: RadialProblem) -> screens.GridScreen:
    """Pushforward of the normalized density under distance-to-boundary: the
    one mass at each knot.  With both ends Dirichlet the knots are the two
    half-grids merged, the later kept of two within ``_KNOT_MERGE`` of the
    least grid step (a mirrored knot L - t and a grid knot differ by rounding)."""
    L, total = p.length, p.total_mass
    if p.left_bc is Endpoint.DIRICHLET and p.right_bc is Endpoint.DIRICHLET:
        g = p.grid
        rs = np.concatenate((g[g < L / 2], L - g[g > L / 2][::-1], [L / 2]))
        rs.sort(kind="stable")  # three sorted runs
        rs = rs[np.diff(rs, append=math.inf) > _KNOT_MERGE * np.diff(g).min()]
        F = (p.mass(0.0, rs) + p.mass(L - rs, L)) / total
    elif p.right_bc is Endpoint.NEUMANN:
        rs, F = p.grid, p._cum / total
    else:  # boundary on the right: rho = L - t
        rs = L - p.grid[::-1]
        F = p.mass(L - rs, L) / total
    F = np.minimum(F, 1.0, out=F)  # float jitter past the total
    F[-1] = 1.0
    return screens.GridScreen(rs, F, full_support=True)


def interval_bsep(p: RadialProblem, etas) -> float:
    """Exact boundary separation distance of the interval problem.

    In 1D the optimal family consists of intervals in some order (convex
    hulls preserve masses, gaps, and boundary distances), so a greedy
    left-packing per mass permutation decides feasibility of a candidate
    separation D.  Each set reads the one mass (``_cum_at``) once, at its
    start, in plain floats, and ends where the mass's closed-form inverse
    puts its target; it fits if it starts before L and its target is at
    most the total plus 1e-12 of it.  The supremum is the largest feasible
    float: ``screens._bracket`` on the least overshoot, Pegasus-weighted
    (Dowell & Jarratt, BIT 12, 1972).  The last set may end 1e-12 L past
    L - D, so D scales with the grid.  Masses must be finite and positive;
    from 1 in sum on the distance is 0: the sets leave no gap of mass.
    """
    etas = [float(e) for e in etas]
    screens._require_finite("all masses", np.array(etas))
    if any(e <= 0 for e in etas):
        raise DomainError("all masses must be positive")
    if sum(etas) >= 1.0:
        return 0.0
    grid, theta, cum = map(memoryview, (p.grid, p.theta, p._cum))
    L, total, last, perms = grid[-1], cum[-1], len(grid) - 1, set(itertools.permutations(etas))
    left_b, right_b = (bc is Endpoint.DIRICHLET for bc in (p.left_bc, p.right_bc))

    def mass(x: float) -> float:
        return pl_cell(min(x, L), min(bisect_right(grid, x), last) - 1, grid, theta, cum)

    # (infeasible, least overshoot): finite, since targets past the total are clamped
    def overshoot(D: float) -> tuple[bool, float]:
        feasible, least = False, math.inf
        for perm in perms:
            pos = end = D if left_b else 0.0
            fits, target = True, 0.0
            for eta in perm:
                target = mass(pos) + eta * total
                end = _invert_mass(grid, theta, cum, min(target, total))
                fits = fits and pos < L and target <= total * (1.0 + 1e-12)
                pos = end + D
            over = end - (L - D + 1e-12 * L) if right_b else target - total * (1.0 + 1e-12)
            feasible, least = feasible or (fits and over <= 0.0), min(least, over)
        return not feasible, least

    # the sets take room, so D * (number of gaps) is below L, plus the end slack
    # at a Dirichlet right end, on every feasible packing
    lo, hi = 0.0, (L + 1e-12 * L * right_b) / max(len(etas) - 1 + left_b + right_b, 1)
    (over_lo, f_lo), (over_hi, f_hi) = overshoot(lo), overshoot(hi)
    if over_lo or not over_hi:
        return 0.0 if over_lo else hi
    return screens._bracket(overshoot, lo, hi, f_lo, f_hi)


# ---------------------------------------------------------------------------
# universal constants
# ---------------------------------------------------------------------------

def gradient_sup() -> tuple[float, float]:
    """Stationary point and value of sup_{t>0} (1 - e^{-t}) / sqrt(t).

    The derivative vanishes where e^{-t} (2t + 1) = 1.
    """
    t_star = 1.25
    for _ in range(4):  # Newton; quadratic convergence reaches rounding by step 4
        e = math.exp(-t_star)
        t_star -= (e * (2.0 * t_star + 1.0) - 1.0) / (e * (1.0 - 2.0 * t_star))
    return t_star, (1.0 - math.exp(-t_star)) / math.sqrt(t_star)


def buser_ledoux_coefficient() -> float:
    """Coefficient a in the lower bound I >= a sqrt(nu_1)."""
    _, sup = gradient_sup()
    return 2.0 * math.sqrt(math.pi) / (
        math.sqrt(1.0 + 2.0 ** (1.0 / 3.0)) * (1.0 + 4.0 ** (2.0 / 3.0))
    ) * sup


def universal_constant() -> float:
    """Constant C with nu_k <= C k^2 nu_1 under nonnegative flags.

    Chaining I <= 8 sqrt(2) k nu_1 / sqrt(nu_k) with I >= a sqrt(nu_1)
    gives C = (8 sqrt(2) / a)^2.
    """
    a = buser_ledoux_coefficient()
    return (8.0 * math.sqrt(2.0) / a) ** 2


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditEntry:
    name: str
    k: int | None
    eta: float | None
    lhs: float
    rhs: float
    relation: str  # "<=" or ">="
    margin: float
    passed: bool


@dataclass
class AuditReport:
    entries: list[AuditEntry] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> str:
        return _text.dumps({"meta": self.meta, "entries": [asdict(e) for e in self.entries]})

    def to_csv(self) -> str:
        return _text.records_csv(AuditEntry, self.entries)


def _entry(name, k, eta, lhs, rhs, relation) -> AuditEntry:
    lhs, rhs = float(lhs), float(rhs)
    tol = 1e-6 * max(1.0, abs(lhs), abs(rhs))
    margin = rhs - lhs if relation == "<=" else lhs - rhs
    return AuditEntry(name, k, eta, lhs, rhs, relation, margin, bool(margin >= -tol))


def audit_inequalities(p: RadialProblem, k_max: int, etas) -> AuditReport:
    """Evaluate every applicable eigenvalue inequality on the problem.

    Unconditional: the Cheeger upper bound, its higher-eigenvalue
    improvement, and the separation/observable bounds from the spectrum.
    Gated on both curvature flags: the Buser-Ledoux lower bound, the
    Li-Yau inradius bound, and the universal k^2 ratio bound.  Failures are
    report entries, never exceptions.

    The separations are :func:`interval_bsep` packings of k sets of mass
    eta.  A positive density's screen has full support, so the observable
    inscribed radius is the k = 1 packing itself (0 from eta = 1 on); no
    screen is built.
    """
    etas = [float(e) for e in etas]
    spec = _spectrum(p, k_max)
    nu = spec.eigenvalues
    iso = isoperimetric_constant(p)
    flags = p.nonneg_ricci_f and p.nonneg_mean_curv
    report = AuditReport(meta={
        "grid_size": p.grid.size,
        "length": p.length,
        "left_bc": p.left_bc.value,
        "right_bc": p.right_bc.value,
        "curvature_flags": flags,
        "isoperimetric_constant": iso,
        "eigenvalues": nu.tolist(),
        "inradius": inradius(p),
        "note": p.note,
    })
    add = report.entries.append
    add(_entry("cheeger", None, None, iso, 2.0 * math.sqrt(nu[0]), "<="))
    for k in range(1, k_max + 1):
        add(_entry(
            "improved_cheeger", k, None,
            iso, 8.0 * math.sqrt(2.0) * k * nu[0] / math.sqrt(nu[k - 1]), "<=",
        ))
    if flags:
        a = buser_ledoux_coefficient()
        add(_entry("buser_ledoux", None, None, iso, a * math.sqrt(nu[0]), ">="))
        add(_entry(
            "li_yau", None, None,
            nu[0], math.pi**2 / (2.0 * inradius(p)) ** 2, ">=",
        ))
        C = universal_constant()
        for k in range(1, k_max + 1):
            add(_entry("universal_ratio", k, None, nu[k - 1], C * k * k * nu[0], "<="))
    for eta in etas:
        seps = [interval_bsep(p, [eta] * k) for k in range(1, min(k_max, 3) + 1)]
        root = math.sqrt(eta)  # apart from sqrt(nu), since nu eta can underflow to 0
        add(_entry("obs_inradius_eigen", None, eta, seps[0], 2.0 / (math.sqrt(nu[0]) * root), "<="))
        for k, sep in enumerate(seps, 1):
            add(_entry("bsep_eigen", k, eta, sep, 2.0 / (math.sqrt(nu[k - 1]) * root), "<="))
    return report


# ---------------------------------------------------------------------------
# problem builders
# ---------------------------------------------------------------------------

def truncated_ray_problem(
    model: ModelSpace, points: int = 2001, tail_mass: float = 1e-8,
    length: float | None = None,
) -> RadialProblem:
    """Radial problem for a noncompact ray model, truncated with a
    Neumann right end.  The default length leaves tail mass below 1e-8;
    the spectrum then carries the truncation as a caveat note."""
    # the only use of ``models`` here: spectrum and audit never load it
    # (nor, through it, jacobi)
    from . import models

    s = models.boundary_screen(model)
    if length is None:
        length = s.quantile(1.0 - tail_mass)
    t = np.linspace(0.0, float(length), points)
    theta = np.asarray(s.pdf(t), dtype=float)
    theta = np.maximum(theta, theta.max() * 1e-280)  # a density that underflows stays positive
    return RadialProblem(
        t, theta,
        left_bc=Endpoint.DIRICHLET, right_bc=Endpoint.NEUMANN,
        note=f"ray truncated at L={length:g}; spectra carry truncation error",
    )


def generate_log_concave_problem(rng, points: int = 1601) -> RadialProblem:
    """Random problem with truthful nonnegative curvature flags.

    -(log theta)' is a nondecreasing nonnegative random step-spline, so
    log(theta) is concave and theta nonincreasing from the boundary; both
    flags hold.  Both-ends-Dirichlet problems with flags force a constant
    density in 1D, so the generator emits boundary-at-zero problems.
    """
    L = float(rng.uniform(0.6, 3.0))
    t = np.linspace(0.0, L, points)
    knots = np.linspace(0.0, L, int(rng.integers(3, 8)))
    increments = rng.uniform(0.0, 1.2, size=knots.size)
    increments[0] = rng.uniform(0.1, 0.8)  # strictly positive slope at 0
    eps_knots = np.cumsum(increments)
    eps = np.interp(t, knots, eps_knots)
    E = cumulative_simpson(eps, t)
    return RadialProblem(
        t, np.exp(-E),
        left_bc=Endpoint.DIRICHLET, right_bc=Endpoint.NEUMANN,
        nonneg_ricci_f=True, nonneg_mean_curv=True,
    )

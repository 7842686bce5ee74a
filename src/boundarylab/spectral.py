"""Weighted Sturm-Liouville spectra and eigenvalue-inequality audits.

The operator is u -> -(theta u')' / theta on an interval [0, L] with a
positive weight theta and Dirichlet/Neumann endpoint conditions, the 1D
radial reduction of the weighted Laplacian.  A finite-volume scheme on
the (possibly nonuniform) grid yields a symmetric tridiagonal pencil
whose discrete Rayleigh quotient coincides exactly with the quadrature
used by :func:`rayleigh`, so min-max holds at machine precision.

The module also scans the Dirichlet isoperimetric constant, computes
boundary separation distances of the interval by exact 1D packing, and
audits every eigenvalue inequality of the theory.  The distance-to-boundary
screen and the isoperimetric scan are array evaluations of one cumulative-mass
primitive (``_integrate.pl_cumulative``); bisections and polishes call it per scalar.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np
import scipy
from scipy.linalg import eigh_tridiagonal

from . import screens
from ._integrate import cumulative_auto, pl_cumulative, pl_density
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
        """Smallest x with cumulative mass >= target (PL density, Newton-polished)."""
        cum = self._cum
        if target <= 0.0:
            return 0.0
        if target >= cum[-1]:
            return self.length
        i = int(np.searchsorted(cum, target, side="left")) - 1
        i = max(0, min(i, self.grid.size - 2))
        x = float(np.interp(target, cum[i:i + 2], self.grid[i:i + 2]))
        for _ in range(2):
            x -= (self._cum_at(x) - target) / max(self.theta_at(x), 1e-300)
            x = min(max(x, self.grid[i]), self.grid[i + 1])
        return x

    # -- serialization: CSV body with a JSON comment header --------------
    def to_csv(self) -> str:
        header = {
            "left_bc": self.left_bc.value,
            "right_bc": self.right_bc.value,
            "nonneg_ricci_f": self.nonneg_ricci_f,
            "nonneg_mean_curv": self.nonneg_mean_curv,
            "note": self.note,
        }
        buf = io.StringIO()
        buf.write("# " + json.dumps(header) + "\n")
        buf.write("t,theta\n")
        for t, th in zip(self.grid, self.theta):
            buf.write(f"{t:.17g},{th:.17g}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "RadialProblem":
        lines = text.strip().splitlines()
        if not lines or not lines[0].startswith("#"):
            raise DomainError("problem file must start with a JSON header comment")
        try:
            header = json.loads(lines[0][1:].strip())
        except json.JSONDecodeError as exc:
            raise DomainError(f"bad JSON header: {exc}") from None
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
        return cls(
            data[:, 0],
            data[:, 1],
            left_bc=Endpoint(header.get("left_bc", "dirichlet")),
            right_bc=Endpoint(header.get("right_bc", "dirichlet")),
            nonneg_ricci_f=bool(header.get("nonneg_ricci_f", False)),
            nonneg_mean_curv=bool(header.get("nonneg_mean_curv", False)),
            note=header.get("note", ""),
        )


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


def _cells(p: RadialProblem):
    """Cell widths, face densities and dual-cell widths of the scheme."""
    h = np.diff(p.grid)
    dual = np.empty(p.grid.size)
    dual[1:-1] = 0.5 * (h[1:] + h[:-1])
    dual[0] = 0.5 * h[0]
    dual[-1] = 0.5 * h[-1]
    return h, 0.5 * (p.theta[1:] + p.theta[:-1]), dual


def _pencil(p: RadialProblem):
    """Stiffness/mass quadratic forms of the finite-volume scheme.

    Returns (keep, S_diag, S_off, M_diag) over the kept nodes; Dirichlet
    endpoint nodes are eliminated, a Neumann endpoint keeps a half cell.
    """
    h, th_face, dual = _cells(p)
    w = th_face / h  # face conductances
    n = p.grid.size
    lo = 1 if p.left_bc is Endpoint.DIRICHLET else 0
    hi = n - 1 if p.right_bc is Endpoint.DIRICHLET else n
    keep = np.arange(lo, hi)
    S_diag = np.zeros(n)
    np.add.at(S_diag, np.arange(n - 1), w)
    np.add.at(S_diag, np.arange(1, n), w)
    S_diag = S_diag[keep]
    S_off = w[keep[:-1]]  # faces between consecutive kept nodes
    M_diag = (p.theta * dual)[keep]
    return keep, S_diag, S_off, M_diag


def _eigenvalues(p: RadialProblem, k: int) -> np.ndarray:
    keep, S_diag, S_off, M_diag = _pencil(p)
    d = S_diag / M_diag
    e = S_off / np.sqrt(M_diag[:-1] * M_diag[1:])
    vals = eigh_tridiagonal(
        d, e, select="i", select_range=(0, k - 1), eigvals_only=True
    )
    return np.asarray(vals, dtype=float)


def dirichlet_spectrum(p: RadialProblem, k: int) -> SpectrumResult:
    """First k eigenvalues of the weighted operator with the declared BCs.

    Second-order accurate: halving the grid spacing cuts the error about
    fourfold.  The reported error estimate Richardson-extrapolates a
    coarsened solve when the grid size allows it.
    """
    m = p.grid.size - 1
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > m / 4:
        raise DomainError(f"resolution guard: k={k} exceeds m/4 with m={m}")
    vals = _eigenvalues(p, k)
    err = math.nan
    if m % 2 == 0 and m // 2 >= 16 and k <= m // 8:
        coarse = replace(p, grid=p.grid[::2], theta=p.theta[::2])
        cvals = _eigenvalues(coarse, k)
        err = float(np.max(np.abs(cvals - vals) / np.abs(vals)) / 3.0)
    return SpectrumResult(vals, p.grid.size, err)


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
    h, th_face, dual = _cells(p)
    num = float(np.sum(th_face * np.diff(phi) ** 2 / h))
    den = float(np.sum(p.theta * dual * phi**2))
    if den == 0.0:
        raise DomainError("phi has zero weighted mass")
    return num / den


# ---------------------------------------------------------------------------
# isoperimetric constant
# ---------------------------------------------------------------------------

def _ratio_two_sided(p: RadialProblem, a: float, b: float) -> float:
    m = p.mass(a, b)
    if m <= 0:
        return math.inf
    return (p.theta_at(a) + p.theta_at(b)) / m

def _ratio_touch_right(p: RadialProblem, a: float) -> float:
    m = p.mass(a, p.length)
    return math.inf if m <= 0 else p.theta_at(a) / m

def _ratio_touch_left(p: RadialProblem, b: float) -> float:
    m = p.mass(0.0, b)
    return math.inf if m <= 0 else p.theta_at(b) / m


def isoperimetric_constant(p: RadialProblem) -> float:
    """Infimum of relative perimeter over mass for interior candidate sets.

    Candidates are single subintervals; an endpoint carrying a Neumann
    tag is a symmetry center rather than boundary, so sets may touch it
    with no perimeter contribution there.  Two-interval unions never beat
    the best single interval (mediant inequality), so the family is exact.
    A grid scan is polished by bounded scalar minimization per endpoint.
    """
    t = p.grid
    stride = max(1, t.size // 600)
    cand = t[::stride]
    if cand[-1] != t[-1]:
        cand = np.append(cand, t[-1])
    th = np.interp(cand, t, p.theta)
    cum = p._cum_at(cand)
    mass = cum[None, :] - cum[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (th[:, None] + th[None, :]) / mass
    ratio[mass <= 0] = math.inf
    i, j = np.unravel_index(np.argmin(ratio), ratio.shape)
    best = float(ratio[i, j])
    a, b = float(cand[i]), float(cand[j])
    # coordinate polish of (a, b)
    span = float(cand[1] - cand[0]) if cand.size > 1 else p.length
    for _ in range(3):
        res = scipy.optimize.minimize_scalar(
            lambda x: _ratio_two_sided(p, x, b),
            bounds=(max(0.0, a - 2 * span), min(b, a + 2 * span)),
            method="bounded", options={"xatol": 1e-12},
        )
        a = float(res.x)
        res = scipy.optimize.minimize_scalar(
            lambda x: _ratio_two_sided(p, a, x),
            bounds=(max(a, b - 2 * span), min(p.length, b + 2 * span)),
            method="bounded", options={"xatol": 1e-12},
        )
        b = float(res.x)
    best = min(best, _ratio_two_sided(p, a, b))
    # sets touching a Neumann end; the masses are p.mass(x, L) and p.mass(0, x)
    for touch, bc, mass in (
        (_ratio_touch_right, p.right_bc, p._cum_at(p.length) - cum),
        (_ratio_touch_left, p.left_bc, cum - p._cum_at(0.0)),
    ):
        if bc is not Endpoint.NEUMANN:
            continue
        with np.errstate(divide="ignore"):
            vals = np.where(mass > 0, th / mass, math.inf)
        k = int(np.argmin(vals))
        best = min(best, float(vals[k]))
        x0 = float(cand[k])
        res = scipy.optimize.minimize_scalar(
            lambda x: touch(p, x),
            bounds=(max(0.0, x0 - 2 * span), min(p.length, x0 + 2 * span)),
            method="bounded", options={"xatol": 1e-12},
        )
        best = min(best, float(touch(p, float(res.x))))
    return best


# ---------------------------------------------------------------------------
# screens, packings, inradius
# ---------------------------------------------------------------------------

def inradius(p: RadialProblem) -> float:
    """Inscribed radius of the interval with its boundary reading."""
    if p.left_bc is Endpoint.DIRICHLET and p.right_bc is Endpoint.DIRICHLET:
        return 0.5 * p.length
    return p.length


def problem_screen(p: RadialProblem) -> screens.GridScreen:
    """Pushforward of the normalized density under distance-to-boundary."""
    L, total = p.length, p.total_mass
    if p.left_bc is Endpoint.DIRICHLET and p.right_bc is Endpoint.DIRICHLET:
        rs = np.unique(np.concatenate([
            p.grid[p.grid <= L / 2], L - p.grid[p.grid >= L / 2], [L / 2],
        ]))
        F = (p.mass(0.0, rs) + p.mass(L - rs, L)) / total
    elif p.right_bc is Endpoint.NEUMANN:
        rs, F = p.grid, p._cum / total
    else:  # boundary on the right: rho = L - t
        rs = L - p.grid[::-1]
        F = p.mass(L - rs, L) / total
    # guard float jitter, and Simpson knot tables that dip for a rough theta
    F = np.maximum.accumulate(np.minimum(F, 1.0, out=F), out=F)
    F[-1] = 1.0
    return screens.GridScreen(rs, F, full_support=True)


def interval_bsep(p: RadialProblem, etas) -> float:
    """Exact boundary separation distance of the interval problem.

    In 1D the optimal family consists of intervals in some order (convex
    hulls preserve masses, gaps, and boundary distances), so a greedy
    left-packing per mass permutation decides feasibility of a candidate
    separation D, and bisection finds the supremum.
    """
    etas = [float(e) for e in etas]
    if any(e <= 0 for e in etas):
        raise DomainError("all masses must be positive")
    if any(e > 1 for e in etas) or sum(etas) > 1.0:
        return 0.0
    total = p.total_mass
    left_b = p.left_bc is Endpoint.DIRICHLET
    right_b = p.right_bc is Endpoint.DIRICHLET
    perms = set(itertools.permutations(etas))

    def feasible(D: float) -> bool:
        for perm in perms:
            pos = end = D if left_b else 0.0
            for eta in perm:
                if pos >= p.length:
                    break
                c_pos = p._cum_at(pos)
                target = c_pos + eta * total
                if target > total * (1.0 + 1e-12):
                    break
                b = p._mass_inverse(min(target, total))
                if p._cum_at(b) - c_pos < eta * total * (1.0 - 1e-9):
                    break
                end, pos = b, b + D
            else:
                if end <= p.length - (D if right_b else 0.0) + 1e-12:
                    return True
        return False

    lo, hi = 0.0, p.length
    if not feasible(lo):
        return 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        # a midpoint on a tested end fixes the bracket (hi = L is untested)
        if mid == lo or (mid == hi and hi < p.length):
            break
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# universal constants
# ---------------------------------------------------------------------------

def gradient_sup() -> tuple[float, float]:
    """Stationary point and value of sup_{t>0} (1 - e^{-t}) / sqrt(t).

    The derivative vanishes where e^{-t} (2t + 1) = 1.
    """
    t_star = scipy.optimize.brentq(lambda t: math.exp(-t) * (2.0 * t + 1.0) - 1.0, 0.5, 3.0,
                                   xtol=1e-14, rtol=8.9e-16)
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
        return json.dumps({"meta": self.meta, "entries": [asdict(e) for e in self.entries]})

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("name,k,eta,lhs,rhs,relation,margin,passed\n")
        for e in self.entries:
            k = "" if e.k is None else e.k
            eta = "" if e.eta is None else f"{e.eta:.17g}"
            buf.write(
                f"{e.name},{k},{eta},{e.lhs:.17g},{e.rhs:.17g},"
                f"{e.relation},{e.margin:.17g},{e.passed}\n"
            )
        return buf.getvalue()


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
    Li-Yau inradius bound, and the universal k^2 ratio bound.  Failures
    are report entries, never exceptions.
    """
    etas = [float(e) for e in etas]
    spec = dirichlet_spectrum(p, k_max)
    nu = spec.eigenvalues
    iso = isoperimetric_constant(p)
    scr = problem_screen(p)
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
        add(_entry(
            "obs_inradius_eigen", None, eta,
            screens.obs_inradius(scr, eta), 2.0 / math.sqrt(nu[0] * eta), "<=",
        ))
        for k in range(1, min(k_max, 3) + 1):
            add(_entry(
                "bsep_eigen", k, eta,
                interval_bsep(p, [eta] * k), 2.0 / math.sqrt(nu[k - 1] * eta), "<=",
            ))
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
    # (nor, through it, jacobi and scipy.special)
    from . import models

    s = models.boundary_screen(model)
    if length is None:
        length = s.quantile(1.0 - tail_mass)
    t = np.linspace(0.0, float(length), points)
    theta = np.asarray(s.pdf(t), dtype=float)
    theta = np.maximum(theta, theta[theta > 0].min() * 1e-280)
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
    E = cumulative_auto(eps, t)
    return RadialProblem(
        t, np.exp(-E),
        left_bc=Endpoint.DIRICHLET, right_bc=Endpoint.NEUMANN,
        nonneg_ricci_f=True, nonneg_mean_curv=True,
    )

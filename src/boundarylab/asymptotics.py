"""Sequence sweeps: distribution laws, critical scale orders, classification.

Three canonical sweeps track the observable inscribed radius of model
sequences toward their infinite-dimensional limits (hemispheres to the
half-Gaussian ray, Euclidean balls and horospherical warped products to
the exponential ray).  ``classify_concentration`` decides whether a
parametrized family concentrates at the boundary from the analytic
driver criterion (n kappa_n or n lambda_n growing without bound), with
the numeric value trend reported alongside but never overriding it.
"""

from __future__ import annotations

import enum
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import jacobi, screens
from .errors import DomainError
from .models import ModelSpace, boundary_screen

__all__ = [
    "Verdict",
    "SweepRow",
    "SweepReport",
    "Schedule",
    "SequenceSpec",
    "hemisphere_sweep",
    "euclid_ball_sweep",
    "warped_sweep",
    "distribution_law",
    "classify_concentration",
]


class Verdict(enum.Enum):
    CONVERGES_TO_LIMIT = "converges_to_limit"
    CONCENTRATES_TO_ZERO = "concentrates_to_zero"
    BOUNDED_AWAY = "bounded_away"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SweepRow:
    n: int
    value: float
    limit: float
    gap: float


@dataclass
class SweepReport:
    rows: list[SweepRow] = field(default_factory=list)
    verdict: Verdict = Verdict.INCONCLUSIVE
    extras: dict = field(default_factory=dict)

    def add(self, n: int, value: float, limit: float):
        gap = abs(value - limit) if math.isfinite(limit) else math.nan
        self.rows.append(SweepRow(int(n), float(value), float(limit), gap))

    @property
    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.rows])

    @property
    def gaps(self) -> np.ndarray:
        return np.array([r.gap for r in self.rows])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,value,limit,gap\n")
        for r in self.rows:
            buf.write(f"{r.n},{r.value:.17g},{r.limit:.17g},{r.gap:.17g}\n")
        return buf.getvalue()

    def to_json(self) -> str:
        def _j(x):
            return None if isinstance(x, float) and math.isnan(x) else x

        return json.dumps(
            {
                "verdict": self.verdict.value,
                "extras": self.extras,
                "rows": [
                    {"n": r.n, "value": r.value, "limit": _j(r.limit), "gap": _j(r.gap)}
                    for r in self.rows
                ],
            }
        )


def _numeric_trend(values: np.ndarray) -> str:
    """Last-quartile to first-quartile mean ratio, classified."""
    if values.size < 2:
        return "flat"
    q = max(1, values.size // 4)
    first = float(np.mean(values[:q]))
    last = float(np.mean(values[-q:]))
    if first == 0.0:
        return "flat"
    ratio = last / first
    if ratio < 0.5:
        return "decreasing"
    if ratio > 2.0:
        return "increasing"
    return "flat"


def hemisphere_sweep(kappa: float, eta: float, n_values) -> SweepReport:
    """Observable inscribed radii of the hemisphere-like balls with
    curvature kappa/n, approaching the half-Gaussian quantile."""
    if not kappa > 0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    # the lower (1 - eta)-quantile of the half-Gaussian screen, in closed form
    limit = jacobi.gaussian_tail_inverse(jacobi.classify_infinite(kappa, 0.0), eta)
    report = SweepReport(verdict=Verdict.CONVERGES_TO_LIMIT)
    for n in n_values:
        if n < 2:
            raise DomainError(f"sweep needs n >= 2, got {n}")
        value = jacobi.v_inverse(float(n), jacobi.classify(kappa / n, 0.0), eta)
        report.add(n, value, limit)
    report.extras["numeric_trend_of_gap"] = _numeric_trend(report.gaps)
    return report


def euclid_ball_sweep(lam: float, eta: float, n_values) -> SweepReport:
    """Closed-form flat-ball values (n/lam)(1 - eta^(1/n)) with the
    exponential-ray limit.  ``cross_check_max`` is the largest difference
    from ``jacobi.v_inverse`` on the same flat ball, which evaluates the
    same closed form as C (1 - e^(log(eta)/n)) through expm1, so it
    measures rounding only.  The quadrature reference for the ball
    kernels is the oracle test ``tests/test_jacobi_oracle.py``."""
    if not lam > 0:
        raise DomainError(f"lam must be positive, got {lam}")
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    limit = math.log(1.0 / eta) / lam
    report = SweepReport(verdict=Verdict.CONVERGES_TO_LIMIT)
    worst = 0.0
    for n in n_values:
        if n < 1:
            raise DomainError(f"sweep needs n >= 1, got {n}")
        value = (n / lam) * (1.0 - eta ** (1.0 / n))
        if n >= 2:
            cross = jacobi.v_inverse(float(n), jacobi.classify(0.0, lam / n), eta)
            worst = max(worst, abs(cross - value))
        report.add(n, value, limit)
    report.extras["cross_check_max"] = worst
    report.extras["numeric_trend_of_gap"] = _numeric_trend(report.gaps)
    return report


def warped_sweep(kappa: float, eta: float, n_values) -> SweepReport:
    """Horospherical warped products under the 1/n schedule: values
    n log(1/eta) / ((n-1) lam) decreasing to the exponential limit."""
    if not kappa < 0:
        raise DomainError(f"kappa must be negative, got {kappa}")
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    lam = math.sqrt(-kappa)
    limit = math.log(1.0 / eta) / lam
    report = SweepReport(verdict=Verdict.CONVERGES_TO_LIMIT)
    for n in n_values:
        if n < 2:
            raise DomainError(f"sweep needs n >= 2, got {n}")
        report.add(n, n * math.log(1.0 / eta) / ((n - 1) * lam), limit)
    report.extras["numeric_trend_of_gap"] = _numeric_trend(report.gaps)
    return report


def distribution_law(family: str, param: float, n: int):
    """Finite-n boundary screen and its KS distance to the limit law.

    family: "hemisphere" (limit half-Gaussian), "euclid_ball" or
    "warped" (limit exponential).  Returns (screen, ks).
    """
    if n < 2:
        raise DomainError(f"distribution law needs n >= 2, got {n}")
    if family == "hemisphere":
        if not param > 0:
            raise DomainError("hemisphere law needs kappa > 0")
        finite = boundary_screen(ModelSpace.ball(n, param / n, 0.0))
        limit = boundary_screen(ModelSpace.half_gaussian(param, 0.0))
    elif family == "euclid_ball":
        if not param > 0:
            raise DomainError("flat-ball law needs lam > 0")
        finite = boundary_screen(ModelSpace.ball(n, 0.0, param / n))
        limit = boundary_screen(ModelSpace.exponential(param))
    elif family == "warped":
        if not param < 0:
            raise DomainError("warped law needs kappa < 0")
        lam = math.sqrt(-param)
        finite = boundary_screen(ModelSpace.warped(n, param / n**2))
        limit = boundary_screen(ModelSpace.exponential(lam))
    else:
        raise DomainError(f"unknown distribution-law family {family!r}")
    return finite, screens.ks_distance(finite, limit)


# ---------------------------------------------------------------------------
# classification of parametrized sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Per-parameter schedule n -> value: power law, constant, or table."""

    kind: str
    coef: float = 1.0
    exp: float = 0.0
    values: dict | None = None

    def __call__(self, n: int) -> float:
        if self.kind == "power":
            return self.coef * float(n) ** self.exp
        if self.kind == "const":
            return self.coef
        if self.kind == "table":
            key = n if n in self.values else str(n)
            if key not in self.values:
                raise DomainError(f"schedule table has no entry for n={n}")
            return float(self.values[key])
        raise DomainError(f"unknown schedule kind {self.kind!r}")

    @property
    def is_analytic(self) -> bool:
        return self.kind in ("power", "const")

    @property
    def exponent(self) -> float:
        return self.exp if self.kind == "power" else 0.0

    @classmethod
    def from_json(cls, obj) -> "Schedule":
        if isinstance(obj, (int, float)):
            return cls("const", coef=float(obj))
        kind = obj.get("kind")
        if kind == "power":
            return cls("power", coef=float(obj["coef"]), exp=float(obj["exp"]))
        if kind == "const":
            return cls("const", coef=float(obj.get("value", obj.get("coef", 0.0))))
        if kind == "table":
            return cls("table", values=dict(obj["values"]))
        raise DomainError(f"unknown schedule kind {kind!r}")


_FAMILY_PARAMS = {
    "hemisphere": ("kappa",),
    "euclid_ball": ("lambda",),
    "warped": ("kappa",),
    "general_ball": ("kappa", "lambda"),
    "weighted_warped_exp": ("kappa", "N"),
    "weighted_warped_gauss": ("kappa", "delta"),
}
_PRIMARY_PARAM = {
    "hemisphere": "kappa",
    "euclid_ball": "lambda",
    "warped": "kappa",
    "weighted_warped_exp": "kappa",
    "weighted_warped_gauss": "kappa",
}


@dataclass
class SequenceSpec:
    family: str
    schedule: dict
    n_values: list

    def __post_init__(self):
        if self.family not in _FAMILY_PARAMS:
            raise DomainError(
                f"unknown family {self.family!r}; expected one of "
                f"{sorted(_FAMILY_PARAMS)}"
            )
        sched = {}
        raw = self.schedule
        if isinstance(raw, dict) and "kind" in raw:
            # a single schedule applies to the family's primary parameter
            if self.family not in _PRIMARY_PARAM:
                raise DomainError(
                    f"family {self.family!r} needs per-parameter schedules"
                )
            sched[_PRIMARY_PARAM[self.family]] = Schedule.from_json(raw)
        else:
            for name, obj in dict(raw).items():
                sched[name] = Schedule.from_json(obj)
        for name in _FAMILY_PARAMS[self.family]:
            if name not in sched:
                if self.family == "weighted_warped_exp" and name == "N":
                    sched[name] = Schedule("power", coef=1.0, exp=1.0)  # N_n = n
                elif self.family == "weighted_warped_gauss" and name == "delta":
                    sched[name] = Schedule("const", coef=0.0)
                else:
                    raise DomainError(
                        f"family {self.family!r} needs a schedule for {name!r}"
                    )
        self.schedule = sched
        self.n_values = [int(n) for n in self.n_values]
        if not self.n_values:
            raise DomainError("need at least one n")

    @classmethod
    def from_json(cls, text: str) -> "SequenceSpec":
        obj = json.loads(text) if isinstance(text, str) else dict(text)
        for key in ("family", "schedule", "n"):
            if key not in obj:
                raise DomainError(f"sweep config missing field {key!r}")
        return cls(obj["family"], obj["schedule"], obj["n"])


def _sequence_value(family: str, n: int, params: dict, eta: float) -> float:
    if family == "hemisphere":
        kappa = params["kappa"]
        if kappa <= 0:
            raise DomainError(f"hemisphere schedule needs kappa > 0 at n={n}")
        return jacobi.v_inverse(float(n), jacobi.classify(kappa, 0.0), eta)
    if family == "euclid_ball":
        lam = params["lambda"]
        if lam <= 0:
            raise DomainError(f"flat-ball schedule needs lambda > 0 at n={n}")
        return (1.0 - eta ** (1.0 / n)) / lam
    if family == "warped":
        kappa = params["kappa"]
        if kappa >= 0:
            raise DomainError(f"warped schedule needs kappa < 0 at n={n}")
        return math.log(1.0 / eta) / ((n - 1) * math.sqrt(-kappa))
    if family == "general_ball":
        cc = jacobi.classify(params["kappa"], params["lambda"])
        if not cc.is_ball:
            raise DomainError(
                f"({params['kappa']}, {params['lambda']}) leaves the ball "
                f"regime at n={n}"
            )
        return jacobi.v_inverse(float(n), cc, eta)
    if family == "weighted_warped_exp":
        kappa, N = params["kappa"], params["N"]
        if kappa >= 0:
            raise DomainError(f"needs kappa < 0 at n={n}")
        if N < n:
            raise DomainError(f"effective dimension N={N} < n={n}")
        return math.log(1.0 / eta) / ((N - 1) * math.sqrt(-kappa))
    if family == "weighted_warped_gauss":
        kappa, delta = params["kappa"], params["delta"]
        if kappa >= 0:
            raise DomainError(f"needs kappa < 0 at n={n}")
        a = (n - 1) * math.sqrt(-kappa) * math.exp(-2.0 * delta)
        return jacobi.gaussian_tail_inverse(jacobi.classify_infinite(a, a), eta)
    raise DomainError(f"unknown family {family!r}")  # pragma: no cover


def _driver(family: str, n: int, params: dict) -> float:
    if family == "hemisphere":
        return n * params["kappa"]
    if family == "euclid_ball":
        return n * params["lambda"]
    if family in ("warped", "general_ball"):
        if family == "general_ball" and params["kappa"] > 0:
            return n * params["kappa"]
        kappa = params["kappa"]
        lam = math.sqrt(-kappa) if kappa < 0 else params.get("lambda", 0.0)
        return n * lam
    if family == "weighted_warped_exp":
        return params["N"] * math.sqrt(-params["kappa"])
    if family == "weighted_warped_gauss":
        return n * math.sqrt(-params["kappa"]) * math.exp(-2.0 * params["delta"])
    raise DomainError(f"unknown family {family!r}")  # pragma: no cover


def _driver_exponent(spec: SequenceSpec) -> float | None:
    """Exponent of the analytic driver in n, when the schedules allow it."""
    s = spec.schedule
    if not all(v.is_analytic for v in s.values()):
        return None
    f = spec.family
    if f == "hemisphere":
        return 1.0 + s["kappa"].exponent
    if f == "euclid_ball":
        return 1.0 + s["lambda"].exponent
    if f == "warped":
        return 1.0 + 0.5 * s["kappa"].exponent
    if f == "weighted_warped_exp":
        return s["N"].exponent + 0.5 * s["kappa"].exponent
    if f == "weighted_warped_gauss":
        if s["delta"].kind != "const":
            return None  # the delta tilt is exponential, not a power
        return 1.0 + 0.5 * s["kappa"].exponent
    if f == "general_ball":
        if s["kappa"].kind == "const" and s["lambda"].kind == "const":
            return None  # handled by the fixed-parameter regime rule
        return None
    return None


def classify_concentration(spec: SequenceSpec, eta: float) -> SweepReport:
    """Evaluate the sequence and issue the analytic concentration verdict.

    The verdict follows the driver criterion (the n-weighted curvature
    scale growing without bound); the numeric value trend is reported in
    the extras and never overrides it.  Non-monotone driver trends with
    no analytic form are inconclusive.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    report = SweepReport()
    drivers = []
    for n in spec.n_values:
        params = {name: sched(n) for name, sched in spec.schedule.items()}
        value = _sequence_value(spec.family, n, params, eta)
        drivers.append(_driver(spec.family, n, params))
        report.add(n, value, math.nan)
    drivers = np.array(drivers)
    report.extras["driver"] = drivers.tolist()
    report.extras["numeric_trend_of_values"] = _numeric_trend(report.values)

    if spec.family == "general_ball" and all(
        v.kind == "const" for v in spec.schedule.values()
    ):
        cc = jacobi.classify(
            spec.schedule["kappa"](spec.n_values[0]),
            spec.schedule["lambda"](spec.n_values[0]),
        )
        verdict = (
            Verdict.CONCENTRATES_TO_ZERO if cc.is_convex_ball else Verdict.BOUNDED_AWAY
        )
    else:
        q = _driver_exponent(spec)
        if q is not None:
            if q > 1e-12:
                verdict = Verdict.CONCENTRATES_TO_ZERO
            else:
                verdict = Verdict.BOUNDED_AWAY
        else:
            diffs = np.diff(drivers)
            if np.all(diffs >= -1e-12 * np.abs(drivers[:-1])):
                if drivers[-1] >= 4.0 * drivers[0]:
                    verdict = Verdict.CONCENTRATES_TO_ZERO
                elif drivers[-1] <= 1.05 * drivers[0]:
                    verdict = Verdict.BOUNDED_AWAY
                else:
                    verdict = Verdict.INCONCLUSIVE
            elif np.all(diffs <= 1e-12 * np.abs(drivers[:-1])):
                verdict = Verdict.BOUNDED_AWAY
            else:
                verdict = Verdict.INCONCLUSIVE
    report.verdict = verdict
    if verdict is Verdict.CONCENTRATES_TO_ZERO:
        rows = [SweepRow(r.n, r.value, 0.0, abs(r.value)) for r in report.rows]
        report.rows = rows
    return report

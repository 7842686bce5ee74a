"""Sequence sweeps: distribution laws, critical scale orders, classification.

Each sequence family is one ``_FAMILIES`` record (schedules, catalog model
at n, analytic driver and its exponent), and every value is the closed
form of its model at n.  Three canonical families also have a limit, and
one sweep body tracks them there (hemispheres to the half-Gaussian ray,
Euclidean balls and horospherical warped products to the exponential
ray).  ``classify_concentration`` decides whether a parametrized family
concentrates at the boundary from the analytic driver criterion (n kappa_n
or n lambda_n growing without bound), with the numeric value trend
reported alongside but never overriding it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

from . import _text, jacobi, screens
from ._numpy import np
from .errors import DomainError
from .models import ModelSpace, boundary_screen, closed_form_obs_inradius

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
    "run_config",
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
        return _text.records_csv(SweepRow, self.rows)

    def to_json(self) -> str:
        def _j(x):
            return None if math.isnan(x) else x

        return _text.dumps({
            "verdict": self.verdict.value,
            "extras": self.extras,
            "rows": [{"n": r.n, "value": r.value, "limit": _j(r.limit), "gap": _j(r.gap)}
                     for r in self.rows],
        })


def _numeric_trend(values) -> str:
    """Last-quartile to first-quartile mean ratio, classified.  Plain sums:
    the lists are short, and ``np.mean`` costs microseconds per call."""
    if len(values) < 2:
        return "flat"
    q = max(1, len(values) // 4)
    first = float(sum(values[:q])) / q
    last = float(sum(values[-q:])) / q
    if first == 0.0:
        return "flat"
    ratio = last / first
    if ratio < 0.5:
        return "decreasing"
    if ratio > 2.0:
        return "increasing"
    return "flat"


def _flat_ball_power(n: int, lam: float, eta: float) -> float:
    """(n / lam)(1 - eta^(1/n)): the flat ball of dimension n and mean curvature
    lam / n; at n = 1 the interval [0, 1/lam], which no catalog model is."""
    value = (n / lam) * (1.0 - eta ** (1.0 / n)) if lam > 0 else math.nan
    if not math.isfinite(value):
        raise DomainError(f"the flat ball needs lambda > 0 and a finite radius, got {lam}")
    return value


def _dimensions(n_values) -> list[int]:
    listed = isinstance(n_values, (list, tuple, range))
    if not (listed and all(map(_text.is_index, n_values))):
        raise DomainError(f"n must be a list of integers, got {n_values!r}")
    return [int(n) for n in n_values]


def _canonical(family: str, param: float) -> "_Family":
    """The canonical family's record, once its parameter has the right sign."""
    fam = _FAMILIES.get(family)
    if fam is None or fam.limit is None:
        raise DomainError(f"unknown distribution-law family {family!r}")
    if not fam.sign * param > 0:
        sign = "positive" if fam.sign > 0 else "negative"
        raise DomainError(f"{fam.primary} must be {sign}, got {param}")
    return fam


def _sweep(family: str, param: float, eta: float, n_values) -> SweepReport:
    """Closed-form values of a canonical family's model at each n against its
    limit.  A power form also serves n = 1, and ``cross_check_max`` is its
    largest difference from the closed form: rounding only."""
    fam = _canonical(family, param)
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    limit = closed_form_obs_inradius(fam.limit(param), eta)
    report = SweepReport(verdict=Verdict.CONVERGES_TO_LIMIT)
    worst = 0.0
    model, name, order = fam.model, fam.primary, fam.order
    for n in _dimensions(n_values):
        if n < 2 and not (n == 1 and fam.power):
            raise DomainError(f"sweep needs n >= {1 if fam.power else 2}, got {n}")
        if n == 1:
            value = fam.power(n, param, eta)
        else:
            value = closed_form_obs_inradius(model(n, {name: param / n**order}), eta)
            if fam.power:
                worst = max(worst, abs(value - fam.power(n, param, eta)))
        report.add(n, value, limit)
    if fam.power:
        report.extras["cross_check_max"] = worst
    report.extras["numeric_trend_of_gap"] = _numeric_trend([r.gap for r in report.rows])
    return report


def hemisphere_sweep(kappa: float, eta: float, n_values) -> SweepReport:
    """Observable inscribed radii of the hemisphere-like balls with
    curvature kappa/n, approaching the half-Gaussian quantile."""
    return _sweep("hemisphere", kappa, eta, n_values)


def euclid_ball_sweep(lam: float, eta: float, n_values) -> SweepReport:
    """Flat balls of mean curvature lam/n, approaching the exponential-ray
    limit; the n = 1 row is the interval (1 - eta)/lam.  The quadrature
    reference for the ball kernels is ``tests/test_jacobi_oracle.py``."""
    return _sweep("euclid_ball", lam, eta, n_values)


def warped_sweep(kappa: float, eta: float, n_values) -> SweepReport:
    """Horospherical warped products under the 1/n schedule: values
    n log(1/eta) / ((n-1) lam) decreasing to the exponential limit."""
    return _sweep("warped", kappa, eta, n_values)


def distribution_law(family: str, param: float, n: int):
    """Finite-n boundary screen and its KS distance to the limit law.

    family: "hemisphere" (limit half-Gaussian), "euclid_ball" or
    "warped" (limit exponential).  Returns (screen, ks).
    """
    if n < 2:
        raise DomainError(f"distribution law needs n >= 2, got {n}")
    fam = _canonical(family, param)
    finite = boundary_screen(fam.model(n, {fam.primary: param / n**fam.order}))
    return finite, screens.ks_distance(finite, boundary_screen(fam.limit(param)))


# ---------------------------------------------------------------------------
# classification of parametrized sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Per-parameter schedule n -> value: power law, constant, or table."""

    kind: str
    coef: float = 1.0
    exp: float = 0.0
    value: float = 0.0
    values: dict | None = None

    def __call__(self, n: int) -> float:
        if self.kind == "power":
            if n < 1:  # float(n) ** exp would be complex or divide by zero
                raise DomainError(f"a power schedule needs n >= 1, got n={n}")
            try:
                return self.coef * float(n) ** self.exp
            except OverflowError:
                raise DomainError(f"the power schedule overflows at n={n}") from None
        if self.kind == "const":
            return self.value
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
        if _text.is_number(obj):
            return cls("const", value=float(obj))
        if not isinstance(obj, dict):
            raise DomainError(f"a schedule is a number or an object, got {obj!r}")
        obj = dict(obj)
        kind = obj.pop("kind", None)
        if not isinstance(kind, str) or kind not in _text.SCHEDULES:
            raise DomainError(f"unknown schedule kind {kind!r}")
        return cls(kind, **_text.read(_text.SCHEDULES[kind], obj, "schedule"))


@dataclass(frozen=True)
class _Family:
    """A sequence family: schedule names, the one a single schedule drives,
    omissible schedules, the model at n, the analytic driver, its exponent
    in n (None without a power law) and the flat ball's power form.  A
    canonical family sweeps primary / n^order, of sign ``sign``, to ``limit``."""

    params: tuple
    model: Callable
    driver: Callable
    exponent: Callable = lambda s: None
    primary: str | None = None
    defaults: dict = field(default_factory=dict)
    power: Callable | None = None
    limit: Callable | None = None
    order: int = 1
    sign: float = 1.0


_FAMILIES = {
    "hemisphere": _Family(
        ("kappa",), lambda n, p: ModelSpace.ball(n, p["kappa"], 0.0),
        lambda n, p: n * p["kappa"], lambda s: 1.0 + s["kappa"].exponent, primary="kappa",
        limit=lambda kappa: ModelSpace.half_gaussian(kappa, 0.0)),
    "euclid_ball": _Family(
        ("lambda",), lambda n, p: ModelSpace.ball(n, 0.0, p["lambda"]),
        lambda n, p: n * p["lambda"], lambda s: 1.0 + s["lambda"].exponent, primary="lambda",
        power=_flat_ball_power, limit=ModelSpace.exponential),
    "warped": _Family(
        ("kappa",), lambda n, p: ModelSpace.warped(n, p["kappa"]),
        lambda n, p: n * math.sqrt(-p["kappa"]), lambda s: 1.0 + 0.5 * s["kappa"].exponent,
        primary="kappa", limit=lambda kappa: ModelSpace.exponential(math.sqrt(-kappa)),
        order=2, sign=-1.0),
    # no exponent: constant schedules follow the regime rule, others the driver trend
    "general_ball": _Family(
        ("kappa", "lambda"), lambda n, p: ModelSpace.ball(n, p["kappa"], p["lambda"]),
        lambda n, p: n * (p["kappa"] if p["kappa"] > 0 else
                          math.sqrt(-p["kappa"]) if p["kappa"] < 0 else p["lambda"])),
    "weighted_warped_exp": _Family(
        ("kappa", "N"), lambda n, p: ModelSpace.weighted_warped_exp(n, p["N"], p["kappa"]),
        lambda n, p: p["N"] * math.sqrt(-p["kappa"]),
        lambda s: s["N"].exponent + 0.5 * s["kappa"].exponent, primary="kappa",
        defaults={"N": Schedule("power", coef=1.0, exp=1.0)}),  # N_n = n
    "weighted_warped_gauss": _Family(
        ("kappa", "delta"),
        lambda n, p: ModelSpace.weighted_warped_gauss(n, p["kappa"], p["delta"]),
        lambda n, p: n * math.sqrt(-p["kappa"]) * math.exp(-2.0 * p["delta"]),
        # a varying delta tilts the driver exponentially, not by a power
        lambda s: 1.0 + 0.5 * s["kappa"].exponent if s["delta"].kind == "const" else None,
        primary="kappa", defaults={"delta": Schedule("const", value=0.0)}),
}


@dataclass
class SequenceSpec:
    family: str
    schedule: dict
    n_values: list

    def __post_init__(self):
        fam = _FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if fam is None:
            raise DomainError(f"unknown family {self.family!r}; "
                              f"expected one of {sorted(_FAMILIES)}")
        raw = self.schedule
        if isinstance(raw, dict) and "kind" in raw:
            if fam.primary is None:
                raise DomainError(f"family {self.family!r} needs per-parameter schedules")
            raw = {fam.primary: raw}
        if not isinstance(raw, dict):
            raise DomainError(f"schedule must be an object, got {raw!r}")
        sched = {**fam.defaults, **{name: Schedule.from_json(obj) for name, obj in raw.items()}}
        if set(sched) != set(fam.params):
            raise DomainError(f"family {self.family!r} takes schedules for {fam.params}, "
                              f"got {tuple(raw)}")
        self.schedule = sched
        self.n_values = _dimensions(self.n_values)
        if not self.n_values:
            raise DomainError("need at least one n")

    @classmethod
    def from_json(cls, text: str) -> "SequenceSpec":
        cfg = _config(text)
        return cls(cfg["family"], cfg["schedule"], cfg["n"])


def _config(text: str) -> dict:
    cfg = _text.read_object(text, "sweep config")
    # family and n go first, each refused with the message it has always had
    if not isinstance(cfg.get("family"), str):
        raise DomainError("sweep config needs a 'family' field")
    if not cfg.get("n"):
        raise DomainError("sweep config needs an 'n' list")
    _dimensions(cfg["n"])
    return _text.read(_text.SWEEP_CONFIG, cfg, "sweep config")


def run_config(text: str) -> tuple[str, SweepReport]:
    """The family a sweep config names and its report: the classification of
    its schedule, or the canonical sweep of its family's parameter."""
    cfg = _config(text)
    family, eta, n_values = cfg["family"], cfg["eta"], cfg["n"]
    if cfg["schedule"] is not None:
        return family, classify_concentration(SequenceSpec(family, cfg["schedule"], n_values), eta)
    fam = _FAMILIES.get(family)
    if fam is None or fam.limit is None:
        raise DomainError(f"family {family!r} needs a 'schedule' (classification) or must "
                          "be one of hemisphere/euclid_ball/warped (canonical sweep)")
    if cfg[fam.primary] is None:
        raise DomainError(f"sweep config JSON missing field {fam.primary!r}")
    return family, _sweep(family, cfg[fam.primary], eta, n_values)


def _sequence_value(family: str, n: int, params: dict, eta: float) -> float:
    """Closed-form value of the family's model at n; errors name n."""
    fam = _FAMILIES[family]
    try:
        if n == 1 and fam.power:
            return fam.power(n, params[fam.primary], eta)
        return closed_form_obs_inradius(fam.model(n, params), eta)
    except DomainError as exc:
        raise DomainError(f"{family} schedule at n={n}: {exc}") from None


def classify_concentration(spec: SequenceSpec, eta: float) -> SweepReport:
    """Evaluate the sequence and issue the analytic concentration verdict.

    The verdict follows the driver criterion (the n-weighted curvature
    scale growing without bound); the numeric value trend is reported in
    the extras and never overrides it.  Non-monotone driver trends with
    no analytic form are inconclusive.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    fam = _FAMILIES[spec.family]
    report = SweepReport()
    drivers = []
    for n in spec.n_values:
        params = {name: sched(n) for name, sched in spec.schedule.items()}
        report.add(n, _sequence_value(spec.family, n, params, eta), math.nan)
        drivers.append(fam.driver(n, params))
    report.extras["driver"] = drivers
    report.extras["numeric_trend_of_values"] = _numeric_trend([r.value for r in report.rows])

    # the exponent of the analytic driver in n, when the schedules allow it
    s = spec.schedule
    q = fam.exponent(s) if all(v.is_analytic for v in s.values()) else None
    if spec.family == "general_ball" and all(v.kind == "const" for v in s.values()):
        cc = jacobi.classify(s["kappa"](spec.n_values[0]), s["lambda"](spec.n_values[0]))
        verdict = (
            Verdict.CONCENTRATES_TO_ZERO if cc.is_convex_ball else Verdict.BOUNDED_AWAY
        )
    elif q is not None:
        verdict = Verdict.CONCENTRATES_TO_ZERO if q > 1e-12 else Verdict.BOUNDED_AWAY
    else:
        steps = list(zip(drivers, drivers[1:]))
        if all(b - a >= -1e-12 * abs(a) for a, b in steps):
            if drivers[-1] >= 4.0 * drivers[0]:
                verdict = Verdict.CONCENTRATES_TO_ZERO
            elif drivers[-1] <= 1.05 * drivers[0]:
                verdict = Verdict.BOUNDED_AWAY
            else:
                verdict = Verdict.INCONCLUSIVE
        elif all(b - a <= 1e-12 * abs(a) for a, b in steps):
            verdict = Verdict.BOUNDED_AWAY
        else:
            verdict = Verdict.INCONCLUSIVE
    report.verdict = verdict
    if verdict is Verdict.CONCENTRATES_TO_ZERO:
        report.rows = [SweepRow(r.n, r.value, 0.0, abs(r.value)) for r in report.rows]
    return report

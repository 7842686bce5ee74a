"""The four benchmark workloads: seeded inputs, tasks and their checks.

A workload builds a pool of rounds from its seed during set-up.  A round
is a fixed mix of tasks (the same kinds in the same proportions every
round); parameters that set a task's cost are stratified across the
rounds of the pool (in comparison-sandwich they follow a plan shared by
all seeds), so two seeds give mixes of nearly equal cost.  A task
is ``(kind, payload)``; ``run_task`` executes it against the public API
and raises ``CheckFailed`` when an output is wrong.

Every call into boundarylab goes through a module attribute
(``models.comparison_bound``, not an imported name), so the wrappers that
``tracer.instrument`` installs see it.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout

import numpy as np

from boundarylab import asymptotics, graphs, jacobi, models, screens, spectral

NAMES = ("comparison-sandwich", "spectral-audit", "graph-separation", "cli-cold")

# rounds generated per seed; a run makes two or more whole passes over them
POOL_ROUNDS = {"comparison-sandwich": 4, "spectral-audit": 4,
               "graph-separation": 1, "cli-cold": 1}

# Tail percentile per workload: the highest ladder step (stats.LADDER) that
# keeps at least ten samples beyond it at every task count a 20 s run sees
# on the reference machine, traced runs included (2 vCPUs; two or more
# passes over the pool: 128-256, 112-224, 128-192 and 32 tasks).  Fixed
# here rather than picked per run, so that a
# faster program, which completes more tasks, is measured at the same
# percentile.
TAIL_PERCENTILE = {"comparison-sandwich": 90.0, "spectral-audit": 90.0,
                   "graph-separation": 75.0, "cli-cold": 50.0}

ETAS9 = [round(0.1 * i, 1) for i in range(1, 10)]


class CheckFailed(Exception):
    """A task's output violated the property the workload checks."""


def check(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def _strata(rng, r, pool, lo, hi):
    """Value in [lo, hi] for round r: a golden-ratio sequence with jitter,
    so the rounds of any prefix of the pool spread evenly over the range."""
    return lo + (hi - lo) * ((0.6180339887498949 * r + rng.uniform() / pool) % 1.0)


# ---------------------------------------------------------------------------
# comparison-sandwich
# ---------------------------------------------------------------------------

def _ball_pair(rng, sign):
    if sign > 0:
        return jacobi.classify(float(rng.uniform(0.1, 2.0)), float(rng.uniform(-1.5, 2.0)))
    kappa = float(rng.uniform(-2.0, -0.1))
    return jacobi.classify(kappa, math.sqrt(-kappa) + float(rng.uniform(0.1, 2.0)))


def _catalog_model(rng, tag):
    if tag == "ball":
        cc = _ball_pair(rng, 1 if rng.uniform() < 0.5 else -1)
        return models.ModelSpace.ball(int(rng.integers(2, 9)), cc.kappa, cc.lam)
    if tag == "warped":
        return models.ModelSpace.warped(int(rng.integers(2, 9)), float(rng.uniform(-3.0, -0.1)))
    if tag == "half_gaussian":
        return models.ModelSpace.half_gaussian(float(rng.uniform(0.2, 3.0)),
                                               float(rng.uniform(-1.5, 2.0)))
    if tag == "exponential":
        return models.ModelSpace.exponential(float(rng.uniform(0.2, 3.0)))
    if tag == "weighted_warped_exp":
        n = int(rng.integers(2, 6))
        return models.ModelSpace.weighted_warped_exp(n, float(n + rng.uniform(0.0, 6.0)),
                                                     float(rng.uniform(-2.0, -0.2)))
    return models.ModelSpace.weighted_warped_gauss(int(rng.integers(2, 6)),
                                                   float(rng.uniform(-2.0, -0.2)),
                                                   float(rng.uniform(-0.5, 0.7)))


_CATALOG_TAGS = ("ball", "warped", "half_gaussian", "exponential",
                 "weighted_warped_exp", "weighted_warped_gauss")


def _sandwich_round(rng, r, pool, workdir, warm=False):
    """16 tasks: 13 admissible densities across the five regimes (one with
    N in (10, 50]), two closed-form-vs-pipeline checks, one sweep or law.

    Sorted by cost, a round runs from near-free tasks (horospherical,
    K=0, closed forms) to balls of 0.1-1 s; with 13 densities rather than
    the 15 of a five-by-three layout the median falls among the 60-120 ms
    densities instead of in the gap below them."""
    tasks = []
    # the parameters that set a density task's cost (N, kappa, lambda, the
    # twist, K and Lambda) come from a per-round plan that is the same for
    # every seed; the seed draws the densities, the catalog models and the
    # sweeps.  Seeds then differ in their inputs but not in the work, which
    # runs on different seeds must compare: with the plan moved by 2% of
    # each range per seed, the p90 of two seeds differed by 15%.
    plan = np.random.default_rng([r, int(warm), 0x5A17])

    def density(kind, dens):
        tasks.append(("density", {"density": dens, "kind": kind}))

    # N near 1.5 costs the most (the integrand's endpoint singularity), so
    # every round takes one N from each fifth of [1.5, 10], rotating which
    # curvature sign gets which fifth
    for i, sign in enumerate((1, 1, 1, -1, -1)):
        cc = _ball_pair(plan, sign)
        N = 1.5 + 8.5 * (((i + r) % 5) + plan.uniform()) / 5
        density(models.FiniteN(N, cc), models.generate_admissible_finite(N, cc, rng, points=1201))
    cc = _ball_pair(plan, 1 if r % 2 else -1)
    N = _strata(plan, r, pool, 10.0, 50.0)
    density(models.FiniteN(N, cc), models.generate_admissible_finite(N, cc, rng, points=1201))
    kappa = float(plan.uniform(-4.0, -0.1))
    cc = jacobi.classify(kappa, math.sqrt(-kappa))
    N = float(plan.uniform(1.5, 10.0))
    density(models.FiniteN(N, cc), models.generate_admissible_finite(N, cc, rng, points=1201))
    for _ in range(3):
        while True:
            kappa, lam = float(plan.uniform(-2.0, 2.0)), float(plan.uniform(0.0, 2.0))
            if jacobi.classify(kappa, lam).is_convex_ball:
                break
        tp = jacobi.TwistParams(int(plan.integers(2, 7)), kappa, lam,
                                float(plan.uniform(-0.5, 0.7)))
        density(models.Twisted(tp), models.generate_admissible_twisted(tp, rng, points=1201))
    for _ in range(2):
        ic = jacobi.classify_infinite(float(plan.uniform(0.1, 3.0)),
                                      float(plan.uniform(-1.5, 2.0)))
        density(models.Infinite(ic), models.generate_admissible_infinite(ic, rng, points=1201))
    ic = jacobi.classify_infinite(0.0, float(plan.uniform(0.2, 3.0)))
    density(models.Infinite(ic), models.generate_admissible_infinite(ic, rng, points=1201))
    for j in range(2):
        tag = _CATALOG_TAGS[(2 * r + j) % len(_CATALOG_TAGS)]
        tasks.append(("closed", {"model": _catalog_model(rng, tag),
                                 "eta": float(rng.choice(np.arange(0.05, 0.96, 0.05)))}))
    if r % 2 == 0:
        tasks.append(("sweep", {"kappa": float(rng.uniform(0.5, 2.0)),
                                "eta": float(rng.uniform(0.3, 0.7)), "n": [4, 8, 16]}))
    else:
        family = ("hemisphere", "euclid_ball", "warped")[(r // 2) % 3]
        param = float(rng.uniform(0.5, 2.0)) * (-1.0 if family == "warped" else 1.0)
        tasks.append(("law", {"family": family, "param": param, "n": [4, 16]}))
    return tasks


def _run_density(p):
    s = p["density"].screen()
    for eta in ETAS9:
        lhs = screens.obs_inradius(s, eta)
        rhs = models.comparison_bound(p["kind"], eta)
        check(lhs <= rhs + 1e-9, f"sandwich broken at eta={eta}: {lhs} > {rhs}")


def _run_closed(p):
    m, eta = p["model"], p["eta"]
    closed = models.closed_form_obs_inradius(m, eta)
    piped = screens.obs_inradius(models.boundary_screen(m), eta)
    check(abs(closed - piped) <= 1e-8, f"{m.tag}: closed {closed} vs pipeline {piped}")


def _run_sweep(p):
    rep = asymptotics.hemisphere_sweep(p["kappa"], p["eta"], p["n"])
    gaps = np.abs(rep.gaps)
    check(np.all(np.isfinite(rep.values)) and gaps[-1] < gaps[0],
          f"hemisphere gap does not shrink: {gaps}")


def _run_law(p):
    ks = [asymptotics.distribution_law(p["family"], p["param"], n)[1] for n in p["n"]]
    check(all(0.0 <= k <= 1.0 for k in ks) and ks[1] < ks[0],
          f"{p['family']} law does not approach its limit: {ks}")


# ---------------------------------------------------------------------------
# spectral-audit
# ---------------------------------------------------------------------------

def _two_dirichlet(rng, points):
    L = float(rng.uniform(0.6, 3.0))
    t = np.linspace(0.0, L, points)
    knots = np.linspace(0.0, L, int(rng.integers(4, 9)))
    log_theta = np.interp(t, knots, rng.uniform(-1.0, 1.0, size=knots.size))
    return spectral.RadialProblem(t, np.exp(log_theta))


def _uniform(points):
    t = np.linspace(0.0, 1.0, points)
    return spectral.RadialProblem(t, np.ones_like(t), nonneg_ricci_f=True,
                                  nonneg_mean_curv=True)


def _spectral_round(rng, r, pool, workdir, warm=False):
    """14 audits: ten at 2k points, three at 20k, one at 200k.  The median
    falls in the middle of the six 2k two-Dirichlet audits, the p90 among
    the 20k ones."""
    tasks = []
    plan = ([("dn", 2001)] * 4 + [("dd", 2001)] * 3 + [("uniform", 2001)] * 3
            + [("dn", 20001), ("dd", 20001), ("uniform", 20001), ("dn", 200001)])
    for kind, points in plan:
        points = 2001 if warm else points
        if kind == "dn":
            p = spectral.generate_log_concave_problem(rng, points=points)
        elif kind == "dd":
            p = _two_dirichlet(rng, points)
        else:
            p = _uniform(points)
        etas = sorted(float(e) for e in rng.uniform(0.1, 0.3, size=2))
        tasks.append((kind, {"problem": p, "etas": etas}))
    return tasks


def _spectrum_cells(m: int, k: int) -> int:
    """Cells solved by dirichlet_spectrum, counting its coarse Richardson solve."""
    coarse = m % 2 == 0 and m // 2 >= 16 and k <= m // 8
    return m + (m // 2 if coarse else 0)


def _run_audit(kind, p, counters):
    prob, k = p["problem"], 5
    rep = spectral.audit_inequalities(prob, k, p["etas"])
    counters["spectral.cells"] = counters.get("spectral.cells", 0) + _spectrum_cells(
        prob.grid.size - 1, k)
    bad = [e.name for e in rep.entries if not e.passed]
    check(not bad, f"{kind} audit at {prob.grid.size} points violated {bad}")
    if kind == "uniform":
        nu = np.asarray(rep.meta["eigenvalues"])
        exact = (math.pi * np.arange(1, k + 1)) ** 2
        err = float(np.max(np.abs(nu - exact) / exact))
        check(err <= 1e-3, f"uniform spectrum off (pi k)^2 by {err}")


# ---------------------------------------------------------------------------
# graph-separation
# ---------------------------------------------------------------------------

def random_graph(rng, n):
    """Connected boundary graph in the shape of the acceptance generator."""
    edges = []
    for v in range(1, n):
        edges.append([int(rng.integers(0, v)), v, float(rng.uniform(0.2, 2.0))])
    for _ in range(int(rng.integers(0, n))):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.append([u, v, float(rng.uniform(0.2, 2.0))])
    k = int(rng.integers(1, max(2, n // 3) + 1))
    boundary = sorted(int(b) for b in rng.choice(n, size=k, replace=False))
    return {"vertices": n, "edges": edges, "boundary": boundary,
            "measure": rng.dirichlet(np.ones(n)).tolist()}


def _atom_screen_data(rng, m):
    return {"t": np.sort(rng.gamma(float(rng.uniform(1.5, 3.0)), 1.0, size=m)),
            "p": rng.dirichlet(np.ones(m))}


def _graph_round(rng, r, pool, workdir, warm=False):
    """64 tasks: 60 bundles of six graphs with 15-20 vertices, one exact
    search down to the full 2^19-subset table, one greedy k=2 at 100-120
    vertices, one 1000-vertex distance task and one pair of 20k-atom
    screens.  The bundles are about 0.1 s each and the other four 0.5-2 s,
    so the median and the p75 fall well inside the bundle group, and the
    input-dependent cost of the greedy and exact searches is a small share
    of a round."""
    tasks = []
    for _ in range(2 if warm else 60):
        tasks.append(("small", [{"graph": random_graph(rng, n),
                                 "etas2": [float(e) for e in rng.uniform(0.08, 0.35, 2)],
                                 "etas3": [float(e) for e in rng.uniform(0.08, 0.25, 3)]}
                                for n in range(15, 21)]))
    # one boundary vertex and masses summing to 1: the search descends to
    # the smallest separation, where all 19 other vertices are candidates
    full = random_graph(rng, 14 if warm else 20)
    full["boundary"] = full["boundary"][:1]
    tasks.append(("exact", {"graph": full, "etas": [0.5, 0.5]}))
    medium, large, atoms = (30, 60, 500) if warm else (
        int(_strata(rng, r, pool, 100, 120)), 1000, 20000)
    tasks.append(("greedy", {"graph": random_graph(rng, medium),
                             "etas": [float(e) for e in rng.uniform(0.08, 0.35, 2)]}))
    tasks.append(("large", {"graph": random_graph(rng, large),
                            "eta": float(rng.uniform(0.1, 0.6))}))
    tasks.append(("atoms", {"a": _atom_screen_data(rng, atoms),
                            "b": _atom_screen_data(rng, atoms),
                            "eta": float(rng.uniform(0.1, 0.6))}))
    return tasks


def _graph(d):
    return graphs.BoundaryGraph(d["vertices"], d["edges"], d["boundary"], d["measure"])


# Exact enumeration grows like 2^m (k=2) or 3^m (k=3) in the vertices left
# at the separation: at 16 vertices k=3 already ranges from 2 ms to 0.15 s,
# at 20 up to more than 10 s, which no run of a few seconds averages out.
# The bundles therefore compare greedy with exact on their 15-vertex graph;
# the "exact" task covers the 20-vertex worst case once per round.
EXACT_MAX_VERTICES = 15


def _run_small(bundle):
    for p in bundle:
        g = _graph(p["graph"])
        for etas in (p["etas2"], p["etas3"]):
            greedy = graphs.bsep_k(g, etas, mode="greedy")
            check(greedy >= 0.0, f"negative greedy value {greedy}")
            if g.n <= EXACT_MAX_VERTICES:
                exact = graphs.bsep_k(g, etas, mode="exact")
                check(greedy <= exact + 1e-12, f"greedy {greedy} > exact {exact} at {etas}")


def _run_exact(p):
    g = _graph(p["graph"])
    value = graphs.bsep_k(g, p["etas"], mode="exact")
    # the boundary vertex carries mass, so no two sets of total mass 1 avoid it
    check(value == 0.0, f"exact value {value} for masses summing to 1")


def _run_greedy(p):
    g = _graph(p["graph"])
    value = graphs.bsep_k(g, p["etas"], mode="greedy")
    upper = screens.bsep_single(graphs.graph_screen(g), sum(p["etas"]))
    check(0.0 <= value <= upper + 1e-12, f"greedy {value} above bsep_single(sum) {upper}")


def _run_large(p):
    g = _graph(p["graph"])
    d = g.dist
    rho = graphs.rho_boundary(g)
    check(np.allclose(d, d.T, rtol=0, atol=1e-12) and not d.diagonal().any(),
          "distance matrix is not a symmetric zero-diagonal matrix")
    check(np.allclose(rho, d[:, g.boundary].min(axis=1), rtol=1e-12, atol=0),
          "rho differs from the all-pairs distance to the boundary")
    _check_screen(graphs.graph_screen(g), p["eta"])


def _check_screen(s, eta):
    obs = screens.obs_inradius(s, eta)
    lo, hi = (obs.lower, obs.upper) if isinstance(obs, screens.ObsBounds) else (obs, obs)
    part = screens.part_inradius(s, 1.0 - eta)
    bsep = screens.bsep_single(s, eta)
    check(part <= lo + 1e-12 and hi <= bsep + 1e-12, f"enclosure broken: {part} {obs} {bsep}")
    kf = screens.ky_fan_zero(s)
    check(0.0 <= kf <= 1.0 and s.tail_open(kf) <= kf + 1e-12, f"Ky Fan value {kf} invalid")


def _run_atoms(p):
    a = screens.AtomScreen(p["a"]["t"], p["a"]["p"])
    b = screens.AtomScreen(p["b"]["t"], p["b"]["p"])
    for s in (a, b):
        _check_screen(s, p["eta"])
    ks = screens.ks_distance(a, b)
    probe = np.linspace(0.0, max(a.scan_upper(), b.scan_upper()), 257)
    floor = float(np.max(np.abs(a.cdf_fast(probe) - b.cdf_fast(probe))))
    check(floor - 1e-12 <= ks <= 1.0, f"KS distance {ks} below the probed gap {floor}")


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

def _cli_round(rng, r, pool, workdir, warm=False):
    """16 commands, each a fresh ``python -m boundarylab.cli`` process."""
    def path(name):
        return os.path.join(workdir, f"r{r}-{name}")

    files = {
        "p200k.csv": spectral.generate_log_concave_problem(
            rng, points=2001 if warm else 200001).to_csv(),
        "p2k.csv": _two_dirichlet(rng, 2001).to_csv(),
        "graph.json": json.dumps(random_graph(rng, 60)),
        "small.json": json.dumps(random_graph(rng, 14)),
        "hemi.json": json.dumps({"family": "hemisphere", "kappa": float(rng.uniform(0.5, 2.0)),
                                 "eta": 0.5, "n": [4, 8, 16]}),
        "classify.json": json.dumps({
            "family": "euclid_ball", "eta": float(rng.uniform(0.3, 0.7)), "n": [4, 8, 16, 32],
            "schedule": {"kind": "power", "coef": float(rng.uniform(0.5, 2.0)), "exp": -0.5}}),
    }
    cc = _ball_pair(rng, 1)
    eta = [f"{e:.6f}" for e in rng.uniform(0.1, 0.9, 2)]
    e2 = [v for e in eta for v in ("--eta", e)]
    tp_kappa, tp_lam = float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.0, 1.5))
    cmds = [
        (["model", "--tag", "ball", "--n", str(int(rng.integers(2, 9))), "--kappa",
          repr(cc.kappa), "--lambda", repr(cc.lam), *e2], "model_report"),
        (["--format", "csv", "model", "--tag", "half_gaussian", "--K",
          repr(float(rng.uniform(0.2, 3.0))), "--lambda", repr(float(rng.uniform(-1.0, 2.0))),
          *e2], None),
        (["compare", "--regime", "finite", "--N", repr(float(rng.uniform(2.0, 8.0))),
          "--kappa", repr(cc.kappa), "--lambda", repr(cc.lam), *e2], "compare_report"),
        (["compare", "--regime", "twisted", "--n", str(int(rng.integers(2, 7))), "--kappa",
          repr(tp_kappa), "--lambda", repr(tp_lam), "--delta",
          repr(float(rng.uniform(-0.5, 0.7))), *e2], "compare_report"),
        (["--format", "csv", "compare", "--regime", "infinite", "--K",
          repr(float(rng.uniform(0.1, 3.0))), "--lambda", repr(float(rng.uniform(-1.0, 2.0))),
          *e2], None),
        (["spectrum", "--file", path("p2k.csv"), "--k", "5"], "spectrum_report"),
        (["--format", "csv", "spectrum", "--file", path("p2k.csv"), "--k", "5"], None),
        (["audit", "--file", path("p200k.csv"), "--k", "5", *e2], "audit_report"),
        (["--format", "csv", "audit", "--file", path("p2k.csv"), "--k", "3", *e2], None),
        (["graph", "rho", "--file", path("graph.json")], "graph_rho_report"),
        (["--format", "csv", "graph", "rho", "--file", path("graph.json")], None),
        (["graph", "screen", "--file", path("graph.json")], "screen"),
        (["graph", "bsep", "--file", path("small.json"), "--mode", "exact", "--eta", "0.2",
          "--eta", "0.3"], "graph_bsep_report"),
        (["--format", "csv", "graph", "bsep", "--file", path("small.json"), "--mode", "greedy",
          "--eta", "0.2", "--eta", "0.3"], None),
        (["sweep", "--config", path("hemi.json")], "sweep_report"),
        (["--format", "csv", "sweep", "--config", path("classify.json")], None),
    ]
    tasks = [("cli", {"argv": argv, "schema": schema, "files": files if i == 0 else {},
                      "paths": {name: path(name) for name in files} if i == 0 else {}})
             for i, (argv, schema) in enumerate(cmds)]
    return tasks


def command_name(argv):
    return next(a for a in argv if not a.startswith("-") and a not in ("csv", "json"))


def write_cli_files(rounds):
    for rnd in rounds:
        for _, p in rnd:
            for name, text in p["files"].items():
                with open(p["paths"][name], "w") as fh:
                    fh.write(text)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_output(argv, text):
    """Strict JSON for json output, a list of rows for csv."""
    if "csv" in argv:
        return [line.split(",") for line in text.strip().splitlines()]
    return json.loads(text, parse_constant=_reject_constant)


class SchemaChecker:
    """Validates CLI JSON against the schemas shipped in the package."""

    def __init__(self, src_dir):
        import jsonschema

        base = os.path.join(src_dir, "boundarylab", "schemas")
        with open(os.path.join(base, "reports.schema.json")) as fh:
            root = json.load(fh)
        self._validators = {
            name: jsonschema.Draft7Validator({**d, "definitions": root["definitions"]})
            for name, d in root["definitions"].items()
        }
        with open(os.path.join(base, "screen.schema.json")) as fh:
            self._validators["screen"] = jsonschema.Draft7Validator(json.load(fh))

    def validate(self, name, blob):
        errors = list(self._validators[name].iter_errors(blob))
        check(not errors, f"{name}: {errors[0].message if errors else ''}")


def same_numbers(a, b, rtol=1e-12):
    """Equal structure, with numbers (or numeric CSV cells) equal to rtol."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_numbers(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_numbers(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, str) and isinstance(b, str):
        try:
            a, b = float(a), float(b)
        except ValueError:
            return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
        return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))
    return a == b


def run_cli(argv, env, tracer=None):
    """One fresh CLI process; returns (exit code, stdout, stderr, wall seconds).

    With a tracer the child is ``cli_child.py``, which records its own
    spans (import, then every layer) into a file read back here.
    """
    if tracer is None:
        cmd = [sys.executable, "-m", "boundarylab.cli", *argv]
    else:
        spans_path = os.path.join(env["PERFBENCH_TMP"], f"spans-{os.getpid()}.json")
        env = {**env, "PERFBENCH_SPANS": spans_path}
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_child.py"), *argv]
        wall = tracer.open(tracer.intern(f"cli.{command_name(argv)}.wall"))
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=170)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(wall)
        with open(spans_path) as fh:
            child = json.load(fh)
        os.remove(spans_path)
        base = len(tracer.start)
        for name, start, end, parent, outer in child:
            tracer.add(name, start, end, wall if parent < 0 else base + parent, outer)
    return proc.returncode, proc.stdout, proc.stderr, elapsed


def inprocess(argv):
    from boundarylab import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue(), time.perf_counter() - t0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_ROUNDS = {"comparison-sandwich": _sandwich_round, "spectral-audit": _spectral_round,
           "graph-separation": _graph_round, "cli-cold": _cli_round}


def build(name, seed, workdir=None):
    """The pool of rounds for one seed."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    pool = POOL_ROUNDS[name]
    return [_ROUNDS[name](rng, r, pool, workdir) for r in range(pool)]


def build_warmup(name, seed, workdir=None):
    """One round of the same kinds at small sizes, from its own stream."""
    rng = np.random.default_rng([seed, NAMES.index(name), 1])
    return _ROUNDS[name](rng, 0, 1, workdir, warm=True)


def run_task(kind, payload, counters, ctx):
    """Execute one task; raises on an error or a failed check."""
    if kind == "density":
        _run_density(payload)
    elif kind == "closed":
        _run_closed(payload)
    elif kind == "sweep":
        _run_sweep(payload)
    elif kind == "law":
        _run_law(payload)
    elif kind in ("dn", "dd", "uniform"):
        _run_audit(kind, payload, counters)
    elif kind == "small":
        _run_small(payload)
    elif kind == "exact":
        _run_exact(payload)
    elif kind == "greedy":
        _run_greedy(payload)
    elif kind == "large":
        _run_large(payload)
    elif kind == "atoms":
        _run_atoms(payload)
    elif kind == "cli":
        argv = payload["argv"]
        code, out, err, wall = run_cli(argv, ctx["env"], ctx.get("tracer"))
        ctx["walls"].setdefault(command_name(argv), []).append(1e3 * wall)
        check(code == 0, f"{' '.join(argv)} exited {code}: {err.strip()[-200:]}")
        parsed = parse_output(argv, out)
        if payload["schema"]:
            ctx["schemas"].validate(payload["schema"], parsed)
        ctx["outputs"].append((tuple(argv), parsed))
    else:
        raise ValueError(f"unknown task kind {kind!r}")


def verify_cli_outputs(ctx):
    """Compare each subprocess output with ``cli.main`` run in-process.

    Returns (failures, {command: [in-process ms]}).
    """
    reference, inproc, failures = {}, {}, []
    for argv, parsed in ctx["outputs"]:
        if argv not in reference:
            code, out, secs = inprocess(argv)
            inproc.setdefault(command_name(argv), []).append(1e3 * secs)
            reference[argv] = parse_output(argv, out) if code == 0 else None
        if not same_numbers(parsed, reference[argv]):
            failures.append(f"{' '.join(argv)}: subprocess output differs from in-process")
    return failures, inproc

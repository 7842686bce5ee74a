"""One benchmark worker: a fresh process that sets up and runs one workload.

``run.py`` starts this file with BLAS/OpenMP threads pinned to 1 and
``src/`` on ``PYTHONPATH``.  Set-up is: import boundarylab, build the
seed's inputs, run one task of each kind as warm-up.  With ``--setup-only``
the worker stops there.  Otherwise it runs whole passes over the seed's
pool of rounds in a closed loop (one task at a time, each followed by a
host-speed calibration sample, see ``calib.py``) for about ``--seconds``,
then a short pass over a held-out seed's inputs, and prints one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

T_START = time.perf_counter()

SETUP, WARM, POST = -2, -3, -4  # tracer task tags outside the timed phase
HELDOUT_OFFSET = 1_000_003      # held-out seed = seed + this
HELDOUT_SHARE = 0.05            # of --seconds spent on the held-out pass
MIN_PASSES = 2                  # over the pool, however long they take
CAL_WARM = 20                   # calibration samples run and dropped before timing
MAX_FAILURE_LOGS = 5


class Runner:
    """Runs tasks one at a time, timing each and counting failures.

    A task that raises, or whose check fails, is counted in ``failed``
    and logged; the run goes on.  ``execute`` is ``workloads.run_task``.
    """

    def __init__(self, tracer, ctx, execute, calibrate=False):
        self.tracer = tracer
        self.ctx = ctx
        self.execute = execute
        self.calibrate = calibrate
        self.counters = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cal_ms = []  # with calibrate: a calib.sample() after each task
        if calibrate:
            import calib

            self.sample = calib.sample

    def run(self, kind, payload, task_id):
        tr = self.tracer
        self.attempted += 1
        if tr is not None:
            tr.task = task_id
            root_span = tr.open(tr.intern(f"bench.{kind}"))
        t0 = time.perf_counter()
        try:
            self.execute(kind, payload, self.counters, self.ctx)
        except Exception as exc:  # the boundary of one task: count, log, go on
            if self.fail(f"{kind}: {exc!r}"):
                traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        if tr is not None:
            tr.close(root_span)
        if self.calibrate:
            self.cal_ms.append(self.sample())
        return dt

    def fail(self, msg):
        """Count a failure; keep the message (and return True) for the first few."""
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_LOGS:
            self.failures.append(msg)
            return True
        return False


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import boundarylab  # noqa: F401
    t_import = time.perf_counter()

    import numpy as np
    import scipy

    import calib
    import stats
    import workloads

    tr = None
    if args.trace:
        import tracer as tracer_mod

        tr = tracer_mod.Tracer()
        tr.task = SETUP
        tr.add("setup.import", T_START, t_import, -1)
        originals = tracer_mod.instrument(tr)

    def phase(name):
        if tr is None:
            return None
        tr.task = SETUP
        i = tr.open(tr.intern(name))
        tr.task = WARM
        return i

    def end_phase(i):
        if tr is not None:
            tr.close(i)

    # relative to the checkout root, the working directory of every
    # process here, so the CLI arguments (and the digest) depend on the
    # seed alone
    tmp = os.path.join(os.environ["PERFBENCH_TMP"], f"{args.workload}-{args.seed}")
    dirs = {k: os.path.join(tmp, k) for k in ("main", "warm", "held")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    cli_cold = args.workload == "cli-cold"
    try:
        span = phase("setup.inputs")
        rounds = workloads.build(args.workload, args.seed, dirs["main"])
        warm_round = workloads.build_warmup(args.workload, args.seed, dirs["warm"])
        if cli_cold:
            workloads.write_cli_files(rounds + [warm_round])
        digest = stats.digest(rounds)
        t_inputs = time.perf_counter()
        end_phase(span)

        ctx = {"env": dict(os.environ), "tracer": tr, "walls": {}, "outputs": [],
               "schemas": workloads.SchemaChecker("src") if cli_cold else None}
        span = phase("setup.warmup")
        warm = Runner(tr, {**ctx, "walls": {}, "outputs": []}, workloads.run_task)
        first = {}
        for kind, payload in warm_round:
            first.setdefault(kind, payload)
        for kind, payload in first.items():
            warm.run(kind, payload, WARM)
        t_ready = time.perf_counter()
        end_phase(span)
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.failures}")
        setup = {"ready": t_ready, "import_s": t_import - T_START,
                 "inputs_s": t_inputs - t_import, "warmup_s": t_ready - t_inputs}
        if args.setup_only:
            return {"setup": setup}

        models_mod = sys.modules["boundarylab.models"]
        cache = (originals["models.boundary_screen"] if tr is not None
                 else models_mod.boundary_screen).cache_info
        info0 = cache()
        runner = Runner(tr, ctx, workloads.run_task, calibrate=True)
        calib.block(CAL_WARM)
        latencies = []
        # whole passes over the pool keep the set of tasks exact, so runs
        # of two or three passes share their percentiles; stop at the pass
        # boundary nearest to --seconds, after at least MIN_PASSES
        t_begin = time.perf_counter()
        passes = 0
        while True:
            for rnd in rounds:
                for kind, payload in rnd:
                    latencies.append(runner.run(kind, payload, len(latencies)))
            passes += 1
            spent = time.perf_counter() - t_begin
            if passes >= MIN_PASSES and spent + 0.5 * spent / passes >= args.seconds:
                break
        elapsed = time.perf_counter() - t_begin
        info1 = cache()
        walls, ctx["walls"] = ctx["walls"], {}

        # held-out seed: same generators, inputs never used while tuning
        held = workloads.build(args.workload, args.seed + HELDOUT_OFFSET, dirs["held"])
        if cli_cold:
            workloads.write_cli_files(held[:1])
        held_times = []
        t_held = time.perf_counter()
        for kind, payload in held[0]:
            held_times.append(runner.run(kind, payload, POST))
            if time.perf_counter() - t_held >= HELDOUT_SHARE * args.seconds:
                break
        inproc = {}
        if cli_cold:
            if tr is not None:
                tr.task = POST
            bad, inproc = workloads.verify_cli_outputs(ctx)
            for msg in bad:
                runner.fail(msg)

        who = resource.RUSAGE_CHILDREN if cli_cold else resource.RUSAGE_SELF
        raw_ms = 1e3 * np.asarray(latencies)
        # each task scaled by the host speed around it (calib.py)
        lat_ms = raw_ms * calib.local_factors(runner.cal_ms[:len(latencies)])
        p, tail_ms, beyond = stats.tail(lat_ms, workloads.TAIL_PERCENTILE[args.workload])
        out = {
            "setup": setup,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "failures": runner.failures,
            "timed": {"tasks": len(latencies), "passes": passes, "elapsed_s": elapsed,
                      "tasks_per_s": len(latencies) / (1e-3 * float(lat_ms.sum())),
                      "task_p50_ms": float(np.median(lat_ms)),
                      "task_tail_ms": tail_ms, "tail_percentile": p, "tail_beyond": beyond,
                      "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
                      "raw_task_p50_ms": float(np.median(raw_ms)),
                      "raw_tasks_per_s": len(latencies) / (1e-3 * raw_ms.sum()),
                      "cal_median_ms": float(np.median(runner.cal_ms[:len(latencies)]))},
            "digest": digest,
            "heldout": {"seed": args.seed + HELDOUT_OFFSET, "digest": stats.digest(held),
                        "tasks": len(held_times),
                        "tasks_per_s": len(held_times) / max(sum(held_times), 1e-12)},
            "cache": {"hits": info1.hits - info0.hits, "misses": info1.misses - info0.misses},
            "counters": runner.counters,
            "walls_ms": walls,
            "inproc_ms": inproc,
            "stamp": {"python": platform.python_version(), "numpy": np.__version__,
                      "scipy": scipy.__version__},
        }
        if tr is not None:
            out["trace"] = layer_metrics(tr, out)
            np.savez_compressed(os.path.join(os.path.dirname(os.environ["PERFBENCH_TMP"]),
                                             f"spans-{args.workload}.npz"),
                                names=np.array(tr.names), **tr.to_arrays())
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def layer_metrics(tr, out):
    """Per-name span summary over the timed phase plus the set-up spans."""
    import numpy as np

    import tracer as tracer_mod

    def keep(task):
        return (task >= 0) | (task == SETUP)

    table = tracer_mod.summarize(tr, keep)
    layers = {}
    for name, row in table.items():
        layer = tracer_mod.layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + row["self_ms"]

    def count(child, parents):
        return tracer_mod.count_under(tr, child, parents, keep)

    def per(numerator, name):
        calls = table.get(name, {}).get("calls", 0)
        return numerator / calls if calls else 0.0

    cells = out["counters"].get("spectral.cells", 0)
    spec_ms = table.get("spectral.dirichlet_spectrum", {}).get("total_ms", 0.0)
    hits, misses = out["cache"]["hits"], out["cache"]["misses"]
    density_quantiles = sum(table.get(f"screens.DensityScreen.{q}", {}).get("calls", 0)
                            for q in ("quantile", "bsep"))
    derived = {
        "jacobi.v_ball_per_inverse": per(count("jacobi.v_ball", ("jacobi.v_inverse",)),
                                         "jacobi.v_inverse"),
        "jacobi.gaussian_tail_per_inverse": per(
            count("jacobi.gaussian_tail", ("jacobi.gaussian_tail_inverse",)),
            "jacobi.gaussian_tail_inverse"),
        "screens.density_cdf_per_quantile": (
            count("screens.DensityScreen.cdf", ("screens.DensityScreen.quantile",
                                                "screens.DensityScreen.bsep"))
            / density_quantiles if density_quantiles else 0.0),
        "models.boundary_screen.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "spectral.cells_per_s": cells / (spec_ms / 1e3) if spec_ms else 0.0,
        "setup.import_ms": 1e3 * out["setup"]["import_s"],
        "setup.inputs_ms": 1e3 * out["setup"]["inputs_s"],
        "setup.warmup_ms": 1e3 * out["setup"]["warmup_s"],
        "traced.tasks_per_s": out["timed"]["tasks_per_s"],
    }
    for cmd, ms in out["walls_ms"].items():
        derived[f"cli.{cmd}.wall_ms"] = float(np.median(ms))
    for cmd, ms in out["inproc_ms"].items():
        derived[f"cli.{cmd}.inproc_ms"] = float(np.median(ms))
    for layer, ms in layers.items():
        derived[f"layer.{layer}.self_ms"] = ms
    return {"table": table, "derived": derived}


if __name__ == "__main__":
    result = main()
    sys.stdout.write(json.dumps(result) + "\n")

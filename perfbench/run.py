"""boundarylab benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload comparison-sandwich --seed 1 --seconds 20 --trace 0

Each workload runs in fresh worker processes (``worker.py``) with
BLAS/OpenMP threads pinned to 1.  Set-up is timed in ``SETUP_SAMPLES``
fresh workers and reported as the median; one more worker runs the timed
phase.  Times are scaled to a reference host speed (``calib.py``).  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer metrics from a run with span
wrappers installed.  Every run is appended to ``.perfbench/records.jsonl``
for ``compare.py``.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
SETUP_CAL = 10  # calibration samples between set-up samples
DEADLINE_S = 170.0
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
# graph-separation runs on request but is not in BENCHMARK.json: on a shared
# 2-vCPU host its run-to-run spread exceeded the bounds (see README.md)
WORKLOADS = ("comparison-sandwich", "spectral-audit", "graph-separation", "cli-cold")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def src_stamp(root):
    """Line count of src/**/*.py and the git commit when there is one."""
    lines = 0
    for base, _, files in os.walk(os.path.join(root, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    lines += fh.read().count(b"\n")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"src_lines": lines, "git_commit": commit or "unavailable (not a git checkout)"}


def start_worker(args, env, root, setup_only, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("worker exceeded the run deadline")
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["setup"]["ready"] - t0


def main(argv=None):
    deadline = time.perf_counter() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "boundarylab", "__init__.py")):
        fail("run from the repository root: src/boundarylab is missing")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(os.path.join(out_dir, "tmp"), exist_ok=True)
    env = {**os.environ, **THREAD_PIN, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join(
               p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p),
           "PERFBENCH_TMP": os.path.join(".perfbench", "tmp")}

    os.environ.update(THREAD_PIN)  # before numpy loads BLAS, for the calibration here
    import calib  # numpy and scipy: imported once the checkout is known to be whole

    calib.block(2 * SETUP_CAL)  # warm-up, dropped

    # each set-up sample is scaled by the host speed measured just before
    # and just after it (calib.py); the timed phase runs in a worker of its own
    raw_setups, setups, blocks = [], [], [calib.block(SETUP_CAL)]
    for _ in range(SETUP_SAMPLES):
        _, s = start_worker(args, env, root, True, deadline)
        blocks.append(calib.block(SETUP_CAL))
        raw_setups.append(s)
        setups.append(s * calib.REF_MS / statistics.median(blocks[-2] + blocks[-1]))
    res, _ = start_worker(args, env, root, False, deadline)

    timed = res["timed"]
    if args.trace:
        wanted = spec["per_layer"]
        table, derived = res["trace"]["table"], res["trace"]["derived"]
    else:
        wanted = spec["end_to_end"]
        derived = {**timed, "setup_s": statistics.median(setups)}
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in derived:
            value = derived[name]
        else:  # <layer>.<fn>.{calls,total_ms,self_ms} from the span table
            fn, field = name.rsplit(".", 1)
            value = table.get(fn, {}).get(field, 0)
        metrics[name] = {"value": value, "unit": m["unit"]}

    stamp = {**res["stamp"], **src_stamp(root), "nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)), "blas_threads": THREAD_PIN}
    record = {"time": time.time(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "digest": res["digest"],
              "heldout": res["heldout"], "attempted": res["attempted"],
              "failed": res["failed"], "setup_samples_s": setups,
              "raw_setup_samples_s": raw_setups,
              "setup_cal_median_ms": statistics.median(sum(blocks, [])),
              "raw": {k: timed[k] for k in ("raw_tasks_per_s", "raw_task_p50_ms",
                                            "cal_median_ms")},
              "tail": {"percentile": timed["tail_percentile"], "beyond": timed["tail_beyond"],
                       "samples": timed["tasks"]},
              "metrics": {k: v["value"] for k, v in metrics.items()}, "stamp": stamp}
    report(args, res, metrics, record)
    if args.trace:
        with open(os.path.join(out_dir, f"trace-{args.workload}.json"), "w") as fh:
            json.dump(res["trace"], fh, indent=1, sort_keys=True)
    with open(os.path.join(out_dir, "records.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def report(args, res, metrics, record):
    """Human-readable lines before the result line."""
    import calib

    timed = res["timed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"digest {res['digest'][:16]}  held-out digest {res['heldout']['digest'][:16]}")
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    print(f"timed phase: {timed['tasks']} tasks in {timed['passes']} passes over the pool, "
          f"{timed['elapsed_s']:.2f} s; held-out seed {res['heldout']['seed']}: "
          f"{res['heldout']['tasks']} tasks, {res['heldout']['tasks_per_s']:.3f}/s")
    print(f"host speed: calibration kernel {timed['cal_median_ms']:.3f} ms in the timed "
          f"phase, {record['setup_cal_median_ms']:.3f} ms at set-up (reference "
          f"{calib.REF_MS} ms); unscaled: {timed['raw_tasks_per_s']:.4g} tasks/s, "
          f"p50 {timed['raw_task_p50_ms']:.4g} ms, set-up "
          f"{statistics.median(record['raw_setup_samples_s']):.4g} s")
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} tasks)")
    for msg in res["failures"]:
        print(f"  failure: {msg}")
    for name, m in metrics.items():
        extra = ""
        if name == "task_tail_ms":
            extra = (f"  (p{timed['tail_percentile']:g} of {timed['tasks']} samples, "
                     f"{timed['tail_beyond']} beyond)")
        print(f"{name:48s} {m['value']:.6g} {m['unit']}{extra}")
    if args.trace:
        layers = {k.split(".")[1]: v for k, v in res["trace"]["derived"].items()
                  if k.startswith("layer.")}
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        print("self time by layer: " + ", ".join(f"{k} {v:.0f} ms" for k, v in ranked))


if __name__ == "__main__":
    main()

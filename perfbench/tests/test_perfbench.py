"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import calib
import stats
import tracer
import worker
import workloads
from conftest import BENCH, ROOT


# -- tail percentile ---------------------------------------------------------

def test_tail_picks_highest_percentile_with_ten_beyond():
    xs = list(range(1, 101))  # p95 has 5 beyond, p90 has 10
    p, value, beyond = stats.tail(xs)
    assert (p, beyond) == (90.0, 10)
    assert value == pytest.approx(90.5)  # Harrell-Davis: 0.9 * (n + 1)


def test_tail_moves_up_the_ladder_with_more_samples():
    p, _, beyond = stats.tail(np.arange(1000.0))
    assert (p, beyond) == (99.0, 10)
    p, _, beyond = stats.tail(np.arange(1009.0))
    assert p == 99.0 and beyond >= 10


def test_tail_counts_samples_strictly_beyond():
    xs = [1.0] * 30 + [5.0] * 9  # nine beyond at every step: fall back to p50
    p, value, beyond = stats.tail(xs)
    assert (p, beyond) == (50.0, 9) and value == pytest.approx(1.0, abs=1e-2)
    p, value, beyond = stats.tail(xs + [6.0])
    # the p90 estimate sits just below the tied fives, so all ten count
    assert (p, beyond) == (90.0, 10) and 1.0 < value < 5.0


def test_tail_at_a_fixed_percentile_reports_samples_beyond():
    p, value, beyond = stats.tail(np.arange(1.0, 51.0), 90.0)
    assert (p, beyond) == (90.0, 5)
    assert value == pytest.approx(45.5, abs=1e-4)
    assert set(workloads.TAIL_PERCENTILE) == set(workloads.NAMES)
    assert set(workloads.TAIL_PERCENTILE.values()) <= set(stats.LADDER)


def test_tail_moves_smoothly_across_a_gap_between_task_costs():
    fast, slow = [100.0] * 160, [500.0] * 32
    base = stats.tail(fast + slow, 90.0)[1]
    nudged = stats.tail(fast + slow[:-1] + [480.0], 90.0)[1]
    # one slow sample 4% faster moves the estimate by far less than 4%
    assert abs(nudged - base) / base < 0.01


def test_tail_falls_back_to_median_when_too_few_samples():
    p, value, beyond = stats.tail([3.0, 1.0, 2.0, 5.0, 4.0])
    assert (p, value, beyond) == (50.0, 3.0, 2)


# -- self time ---------------------------------------------------------------

def test_self_time_is_duration_minus_children():
    tr = tracer.Tracer()
    root = tr.add("a.root", 0.0, 10.0, -1)
    child = tr.add("b.child", 1.0, 3.0, root)
    tr.add("b.child", 4.0, 8.0, root)
    tr.add("c.leaf", 1.5, 2.0, child)
    a = tr.to_arrays()
    own = tracer.self_times(a["start"], a["end"], a["parent"])
    np.testing.assert_allclose(own, [10.0 - 2.0 - 4.0, 2.0 - 0.5, 4.0, 0.5])
    table = tracer.summarize(tr)
    assert table["b.child"]["calls"] == 2
    assert table["b.child"]["total_ms"] == pytest.approx(6000.0)
    assert table["b.child"]["self_ms"] == pytest.approx(5500.0)


def test_live_spans_nest_and_recursion_counts_once():
    tr = tracer.Tracer()

    def fact(n):
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = tr.wrap(fact, "x.fact")
    outer = tr.open(tr.intern("a.outer"))
    assert wrapped(4) == 24
    tr.close(outer)
    table = tracer.summarize(tr)
    a = tr.to_arrays()
    dur = a["end"] - a["start"]
    assert table["x.fact"]["calls"] == 4
    assert table["x.fact"]["total_ms"] == pytest.approx(1e3 * dur[1])
    own = tracer.self_times(a["start"], a["end"], a["parent"])
    assert own.sum() == pytest.approx(dur[0])


def test_instrument_rebinds_imported_names_and_keeps_cache_info():
    code = (
        "import tracer\n"
        "from boundarylab import asymptotics, models, spectral\n"
        "orig = models.boundary_screen\n"
        "tr = tracer.Tracer(); originals = tracer.instrument(tr)\n"
        "assert originals['models.boundary_screen'] is orig\n"
        "assert spectral.boundary_screen is models.boundary_screen is asymptotics.boundary_screen\n"
        "assert models.boundary_screen is not orig\n"
        "m = models.ModelSpace.exponential(1.5)\n"
        "spectral.truncated_ray_problem(m); models.boundary_screen(m)\n"
        "info = orig.cache_info()\n"
        "assert (info.hits, info.misses) == (1, 1), info\n"
        "assert models.boundary_screen.cache_info() == info\n"
        "names = set(tr.names)\n"
        "assert {'models.boundary_screen', 'spectral.truncated_ray_problem'} <= names\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([BENCH, os.path.join(ROOT, "src")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


# -- failed tasks --------------------------------------------------------------

def test_failed_task_is_counted_and_run_continues():
    def execute(kind, payload, counters, ctx):
        if kind == "bad-check":
            workloads.check(False, "deliberately wrong output")
        if kind == "raises":
            raise ValueError("deliberate error")

    runner = worker.Runner(None, {}, execute)
    for kind in ("ok", "bad-check", "raises", "ok"):
        assert runner.run(kind, None, 0) >= 0.0
    assert (runner.attempted, runner.failed) == (4, 2)
    assert len(runner.failures) == 2
    assert "deliberately wrong output" in runner.failures[0]


def test_cli_numbers_compare_at_relative_tolerance():
    a = {"rows": [{"eta": 0.5, "bound": 1.0}], "note": "x"}
    assert workloads.same_numbers(a, {"rows": [{"eta": 0.5, "bound": 1.0 + 1e-13}], "note": "x"})
    assert not workloads.same_numbers(a, {"rows": [{"eta": 0.5, "bound": 1.0 + 1e-9}],
                                          "note": "x"})
    assert workloads.same_numbers([["t", "F"], ["0.1", "2"]], [["t", "F"], ["0.1", "2.0"]])
    with pytest.raises(ValueError):
        workloads.parse_output(["model"], '{"x": NaN}')


# -- input digest --------------------------------------------------------------

def _digest_in_fresh_process(name, seed):
    code = (f"import stats, workloads\n"
            f"print(stats.digest(workloads.build({name!r}, {seed}, 'tmpdir')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([BENCH, os.path.join(ROOT, "src")])}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120,
                         capture_output=True, text=True)
    return out.stdout.strip()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_digest_is_stable_across_invocations(name):
    first = _digest_in_fresh_process(name, 7)
    assert first == _digest_in_fresh_process(name, 7)
    assert first != stats.digest(workloads.build(name, 8, "tmpdir"))


def test_digest_sees_a_changed_input():
    rounds = workloads.build("spectral-audit", 3)
    before = stats.digest(rounds)
    rounds[0][0][1]["etas"][0] += 1e-15
    assert stats.digest(rounds) != before


# -- host-speed scaling and planned parameters ----------------------------------

def test_local_factors_use_the_median_of_the_samples_around_each_task():
    cal = [6.0, 6.0, 12.0, 6.0, 6.0, 12.0, 12.0, 12.0]
    f = calib.local_factors(cal, window=3)
    # the lone slow sample is outvoted; the slow stretch at the end is not
    np.testing.assert_allclose(f, calib.REF_MS / np.array([6, 6, 6, 6, 6, 12, 12, 12.0]))
    assert calib.sample() > 0.0


def test_seeds_share_the_sandwich_plan_but_not_the_densities():
    a, b = (workloads.build("comparison-sandwich", seed)[1] for seed in (1, 2))
    dens = [(pa["kind"], pb["kind"], pa["density"], pb["density"])
            for (ka, pa), (kb, pb) in zip(a, b) if ka == kb == "density"]
    assert len(dens) == 13
    assert all(ka == kb for ka, kb, _, _ in dens)
    assert all(stats.digest(da) != stats.digest(db) for _, _, da, db in dens)

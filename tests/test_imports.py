"""Import footprint: a fresh process loads only the layers its command
uses, and no command loads SciPy.

Each check runs in a new interpreter and reads ``sys.modules``, so it does
not depend on timing.  Interpreter start plus import is most of a CLI
command's wall time, and each of the four SciPy submodules below costs
more to import than numpy does.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import boundarylab
from boundarylab.spectral import Endpoint, RadialProblem

LAYERS = ("asymptotics", "graphs", "jacobi", "models", "screens", "spectral")
SCIPY_HEAVY = ("scipy.special", "scipy.linalg", "scipy.optimize", "scipy.integrate")

GRAPH = {
    "vertices": 4,
    "edges": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 2.0], [0, 3, 1.5]],
    "boundary": [0],
    "measure": [0.1, 0.2, 0.3, 0.4],
}


def loaded_after(code: str) -> set[str]:
    """Names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(boundarylab.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_after_commands(tmp_path, *argvs) -> set[str]:
    """``sys.modules`` after ``cli.main`` runs each argv in one fresh process.

    A module absent after the last command was absent after every one.
    """
    (tmp_path / "graph.json").write_text(json.dumps(GRAPH))
    t = np.linspace(0.0, 1.0, 65)
    problem = RadialProblem(t, np.exp(-t), right_bc=Endpoint.NEUMANN)
    (tmp_path / "problem.csv").write_text(problem.to_csv())
    argvs = [["--out", str(tmp_path / "out.txt"),
              *(str(tmp_path / a) if a in ("graph.json", "problem.csv") else a for a in argv)]
             for argv in argvs]
    return loaded_after(
        "from boundarylab import cli\n"
        f"for argv in {argvs!r}:\n"
        "    code = cli.main(argv)\n"
        "    if code:\n"
        "        raise SystemExit(f'{argv}: exit code {code}')"
    )


def test_cli_import_loads_no_layer_and_no_heavy_scipy():
    mods = loaded_after("import boundarylab.cli")
    assert not {f"boundarylab.{layer}" for layer in LAYERS} & mods
    assert not set(SCIPY_HEAVY) & mods


def test_graph_commands_load_no_heavy_scipy(tmp_path):
    mods = loaded_after_commands(
        tmp_path,
        ["graph", "rho", "--file", "graph.json"],
        ["--format", "csv", "graph", "screen", "--file", "graph.json"],
        ["graph", "bsep", "--file", "graph.json", "--eta", "0.2", "--eta", "0.3"],
        ["graph", "bsep", "--file", "graph.json", "--mode", "greedy", "--eta", "0.2",
         "--eta", "0.3"],
    )
    assert not set(SCIPY_HEAVY) & mods


def test_compare_loads_no_linalg_optimize_or_integrate(tmp_path):
    mods = loaded_after_commands(
        tmp_path,
        ["compare", "--regime", "finite", "--N", "3", "--kappa", "1", "--lambda", "0.5"],
        ["compare", "--regime", "twisted", "--n", "3", "--kappa", "0.5", "--lambda", "1",
         "--delta", "0.2"],
        ["compare", "--regime", "infinite", "--K", "1", "--lambda", "0.5"],
    )
    assert not {"scipy.linalg", "scipy.optimize", "scipy.integrate"} & mods


def test_spectrum_loads_no_optimize_or_integrate(tmp_path):
    mods = loaded_after_commands(tmp_path, ["spectrum", "--file", "problem.csv", "--k", "3"])
    assert not {"scipy.optimize", "scipy.integrate", "boundarylab.models"} & mods


def test_layers_resolve_on_first_access():
    loaded_after(
        "import sys, boundarylab\n"
        "assert 'boundarylab.spectral' not in sys.modules\n"
        "assert boundarylab.spectral is sys.modules['boundarylab.spectral']\n"
        "from boundarylab import graphs\n"
        "assert graphs is sys.modules['boundarylab.graphs']\n"
        "assert 'boundarylab.models' not in sys.modules\n"
        "from boundarylab import models\n"
        "assert boundarylab.spectral.boundary_screen is models.boundary_screen\n"
    )


def test_star_import_binds_every_public_name():
    mods = loaded_after(
        "from boundarylab import *\n"
        "import boundarylab\n"
        "for name in boundarylab.__all__:\n"
        "    assert globals()[name] is getattr(boundarylab, name), name\n"
    )
    assert {f"boundarylab.{layer}" for layer in LAYERS} <= mods


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_layer"):
        boundarylab.no_such_layer
    assert not hasattr(boundarylab, "cli_helpers")


def test_spectrum_loads_no_linalg(tmp_path):
    mods = loaded_after_commands(tmp_path, ["spectrum", "--file", "problem.csv", "--k", "3"])
    assert "scipy.linalg" not in mods


def test_half_gaussian_model_and_hemisphere_sweep_load_no_integrate_or_optimize(tmp_path):
    config = tmp_path / "hemisphere.json"
    config.write_text(json.dumps({"family": "hemisphere", "kappa": 1.0, "eta": 0.3,
                                  "n": [2, 5, 20]}))
    mods = loaded_after_commands(
        tmp_path,
        ["model", "--tag", "half_gaussian", "--K", "1", "--lam", "0.5", "--eta", "0.2"],
        ["sweep", "--config", str(config)],
    )
    assert not {"scipy.integrate", "scipy.optimize"} & mods


def test_audit_loads_no_heavy_scipy(tmp_path):
    t = np.linspace(0.0, 1.0, 65)
    flagged = RadialProblem(t, np.exp(-t), right_bc=Endpoint.NEUMANN,
                            nonneg_ricci_f=True, nonneg_mean_curv=True)
    (tmp_path / "flagged.csv").write_text(flagged.to_csv())
    mods = loaded_after_commands(
        tmp_path,
        ["audit", "--file", "problem.csv", "--k", "3", "--eta", "0.2"],
        ["audit", "--file", str(tmp_path / "flagged.csv"), "--k", "3", "--eta", "0.2"],
    )
    assert not set(SCIPY_HEAVY) & mods


def test_catalog_screens_load_no_integrate_optimize_or_linalg():
    mods = loaded_after(
        "from boundarylab import screens\n"
        "for family, params in [('uniform', {'width': 2.0}), ('exponential', {'rate': 1.5}),\n"
        "                       ('ball', {'N': 3.0, 'kappa': 1.0, 'lam': 0.2}),\n"
        "                       ('half_gaussian', {'K': 1.0, 'Lam': 0.5})]:\n"
        "    s = screens.closed_screen(family, **params)\n"
        "    for fn in (screens.obs_inradius, screens.part_inradius, screens.bsep_single):\n"
        "        fn(s, 0.3)\n"
    )
    assert not {"scipy.integrate", "scipy.optimize", "scipy.linalg"} & mods


def test_screen_invariants_load_no_scipy():
    """The Ky Fan distance bisects on the open tail, so it needs SciPy no more
    than the other invariants of a closed ball screen or a grid screen do."""
    mods = loaded_after(
        "from boundarylab import screens\n"
        "ball = screens.closed_screen('ball', N=4.0, kappa=1.0, lam=0.3)\n"
        "grid = screens.GridScreen([0.0, 1.0, 2.0], [0.25, 0.75, 1.0])\n"
        "for s in (ball, grid):\n"
        "    screens.ky_fan_zero(s), screens.obs_inradius(s, 0.3), screens.bsep_single(s, 0.3)\n"
        "screens.ks_distance(ball, grid)\n"
    )
    assert not {m for m in mods if m == "scipy" or m.startswith("scipy.")}


def test_jacobi_loads_no_special():
    """Every kernel, the curved ones of both signs and the growth outside a
    ball included, runs without importing SciPy at all."""
    mods = loaded_after(
        "from boundarylab import jacobi\n"
        "for N, kappa, lam in [(3.0, 1.0, 0.5), (4.5, 2.0, -1.0), (40.0, 0.5, 0.2), (2.5, -1.0, 1.5),\n"
        "                      (1.01, -0.05, 0.22383), (12.0, -2.0, 3.0), (3.0, 0.0, 1.0)]:\n"
        "    cc = jacobi.classify(kappa, lam)\n"
        "    r = jacobi.v_inverse(N, cc, 0.3)\n"
        "    jacobi.v_ball(N, cc, r), jacobi.s_growth(N, cc, 0.5 * r)\n"
        "for kappa, lam in [(-1.0, 0.5), (-1.0, -2.0), (-1.0, -1.0), (0.0, -1.0)]:\n"
        "    jacobi.s_growth(3.5, jacobi.classify(kappa, lam), 2.0)\n"
        "ic = jacobi.classify_infinite(1.0, 0.5)\n"
        "jacobi.gaussian_tail(ic, jacobi.gaussian_tail_inverse(ic, 0.3))\n"
    )
    assert not {m for m in mods if m == "scipy" or m.startswith("scipy.")}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_flat_and_gaussian_commands_load_no_special(tmp_path, fmt):
    classify = tmp_path / "classify.json"
    classify.write_text(json.dumps({
        "family": "euclid_ball", "eta": 0.4, "n": [4, 8, 16, 32],
        "schedule": {"kind": "power", "coef": 1.0, "exp": -0.5}}))
    warped = tmp_path / "warped.json"
    warped.write_text(json.dumps({"family": "warped", "kappa": -1.0, "eta": 0.3,
                                  "n": [2, 4, 8]}))
    mods = loaded_after_commands(
        tmp_path,
        ["--format", fmt, "model", "--tag", "half_gaussian", "--K", "1", "--lam", "0.5",
         "--eta", "0.2"],
        ["--format", fmt, "model", "--tag", "half_gaussian", "--K", "0.5", "--lam", "-1",
         "--eta", "0.7"],
        ["--format", fmt, "compare", "--regime", "infinite", "--K", "1", "--lambda", "0.5"],
        ["--format", fmt, "compare", "--regime", "infinite", "--K", "2", "--lambda", "-1.5",
         "--eta", "0.1", "--eta", "0.9"],
        ["--format", fmt, "sweep", "--config", str(classify)],
        ["--format", fmt, "sweep", "--config", str(warped)],
    )
    assert "scipy.special" not in mods


def test_curved_commands_load_no_special(tmp_path):
    hemisphere = tmp_path / "hemisphere.json"
    hemisphere.write_text(json.dumps({"family": "hemisphere", "kappa": 1.0, "eta": 0.3,
                                      "n": [2, 5, 20]}))
    mods = loaded_after_commands(
        tmp_path,
        ["model", "--tag", "ball", "--n", "3", "--kappa", "1", "--lambda", "0.5",
         "--eta", "0.2", "--eta", "0.7"],
        ["--format", "csv", "model", "--tag", "ball", "--n", "4", "--kappa", "-1",
         "--lambda", "1.5", "--eta", "0.3"],
        ["compare", "--regime", "finite", "--N", "5.9", "--kappa", "1.8", "--lambda", "0.4"],
        ["--format", "csv", "compare", "--regime", "finite", "--N", "2.5", "--kappa", "-0.5",
         "--lambda", "1.2"],
        ["compare", "--regime", "twisted", "--n", "6", "--kappa", "0.3", "--lambda", "0.4",
         "--delta", "0.07"],
        ["sweep", "--config", str(hemisphere)],
    )
    assert "scipy.special" not in mods


def test_no_command_loads_scipy(tmp_path):
    """Every kind of command the cold-CLI benchmark runs, in one process:
    SciPy is imported only by the library's independent checks
    (``normalization_audit`` and ``volume_ratio_audit``), which no command
    calls."""
    hemisphere = tmp_path / "hemisphere.json"
    hemisphere.write_text(json.dumps({"family": "hemisphere", "kappa": 1.0, "eta": 0.5,
                                      "n": [4, 8, 16]}))
    classify = tmp_path / "classify.json"
    classify.write_text(json.dumps({
        "family": "euclid_ball", "eta": 0.4, "n": [4, 8, 16, 32],
        "schedule": {"kind": "power", "coef": 1.0, "exp": -0.5}}))
    mods = loaded_after_commands(
        tmp_path,
        ["model", "--tag", "ball", "--n", "5", "--kappa", "1.2", "--lambda", "-0.3",
         "--eta", "0.2", "--eta", "0.6"],
        ["--format", "csv", "model", "--tag", "half_gaussian", "--K", "0.8", "--lambda",
         "-0.2", "--eta", "0.2"],
        ["compare", "--regime", "finite", "--N", "4.5", "--kappa", "1.2", "--lambda", "-0.3",
         "--eta", "0.2", "--eta", "0.6"],
        ["compare", "--regime", "twisted", "--n", "3", "--kappa", "0.8", "--lambda", "0.9",
         "--delta", "0.1"],
        ["--format", "csv", "compare", "--regime", "infinite", "--K", "2", "--lambda", "-0.5"],
        ["spectrum", "--file", "problem.csv", "--k", "3"],
        ["audit", "--file", "problem.csv", "--k", "3", "--eta", "0.2", "--eta", "0.5"],
        ["graph", "rho", "--file", "graph.json"],
        ["graph", "screen", "--file", "graph.json"],
        ["graph", "bsep", "--file", "graph.json", "--mode", "exact", "--eta", "0.2"],
        ["--format", "csv", "graph", "bsep", "--file", "graph.json", "--mode", "greedy",
         "--eta", "0.2", "--eta", "0.3"],
        ["sweep", "--config", str(hemisphere)],
        ["--format", "csv", "sweep", "--config", str(classify)],
    )
    assert not {m for m in mods if m == "scipy" or m.startswith("scipy.")}


SCALAR_COMMANDS = ("model", "compare", "sweep")


def test_scalar_commands_load_no_numpy_and_every_command_keeps_its_output(tmp_path):
    """Every golden CLI case in every format, in one fresh process: the
    ``model``, ``compare`` and ``sweep`` cases run first and leave numpy
    unloaded; then ``spectrum``, ``audit`` and ``graph`` load it through the
    package's deferred handle.  Every output equals, byte for byte, that of
    ``cli.main`` run in this process, where numpy is loaded."""
    from test_golden_cli import CASES, FORMATS, run_case, write_inputs

    write_inputs(tmp_path)
    groups = [[(name, fmt) for name in CASES for fmt in FORMATS
               if (CASES[name][0][0] in SCALAR_COMMANDS) == scalar] for scalar in (True, False)]
    argvs = [[["--format", fmt, *(a.replace("{dir}", str(tmp_path)) for a in CASES[name][0])]
              for name, fmt in group] for group in groups]
    (tmp_path / "argvs.json").write_text(json.dumps(argvs))
    loaded_after(
        "import contextlib, io, json, sys\n"
        "from boundarylab.cli import main\n"
        "report = []\n"
        f"for group in json.loads(open({str(tmp_path / 'argvs.json')!r}).read()):\n"
        "    for argv in group:\n"
        "        out, err = io.StringIO(), io.StringIO()\n"
        "        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "            code = main(argv)\n"
        "        report.append({'code': code, 'stdout': out.getvalue(), 'stderr': err.getvalue()})\n"
        "    report.append('numpy' in sys.modules)\n"
        f"open({str(tmp_path / 'report.json')!r}, 'w').write(json.dumps(report))\n"
    )
    report = json.loads((tmp_path / "report.json").read_text())
    scalar, rest = groups
    assert scalar and rest and report[len(scalar)] is False and report[-1] is True
    for (name, fmt), got in zip(scalar + rest, report[:len(scalar)] + report[len(scalar) + 1:-1]):
        assert got == run_case(name, fmt, tmp_path), f"{name}.{fmt}"


def test_numpy_handle_becomes_numpy_at_first_use():
    """The deferred handle turns into a plain module on its first attribute
    load, so later loads cost what they cost on numpy itself."""
    loaded_after(
        "import sys, types\n"
        "from boundarylab._numpy import np\n"
        "assert 'numpy' not in sys.modules and type(np) is not types.ModuleType\n"
        "assert np.float64(2.0) == 2.0\n"
        "import numpy\n"
        "assert type(np) is types.ModuleType\n"
        "assert np.ndarray is numpy.ndarray and np.linalg is numpy.linalg\n"
        "assert np.__name__ == 'numpy' and np.__version__ == numpy.__version__\n"
    )
    loaded_after(
        "import types, numpy\n"
        "from boundarylab._numpy import np\n"
        "assert type(np) is not types.ModuleType\n"
        "assert np.ndarray is numpy.ndarray and type(np) is types.ModuleType\n"
    )


def test_library_scalar_calls_load_no_numpy():
    """The README example, and a catalog screen of every family with its
    invariants, run on ``math`` scalars alone."""
    mods = loaded_after(
        "from boundarylab import jacobi, models, screens\n"
        "m = models.ModelSpace.ball(3, 1.0, 0.2)\n"
        "assert screens.obs_inradius(models.boundary_screen(m), 0.5) == "
        "models.closed_form_obs_inradius(m, 0.5)\n"
        "models.comparison_bound(models.Infinite(jacobi.classify_infinite(1.0, 0.0)), 0.5)\n"
        "for family, params in [('uniform', {'width': 2.0}), ('exponential', {'rate': 1.5}),\n"
        "                       ('ball', {'N': 3.0, 'kappa': 1.0, 'lam': 0.2}),\n"
        "                       ('half_gaussian', {'K': 1.0, 'Lam': 0.5})]:\n"
        "    s = screens.closed_screen(family, **params)\n"
        "    for fn in (screens.obs_inradius, screens.part_inradius, screens.bsep_single):\n"
        "        fn(s, 0.3)\n"
    )
    assert "numpy" not in mods


STATISTICS = ("statistics", "fractions", "decimal")


def test_statistics_loads_at_the_first_kernel_inversion(tmp_path):
    """``jacobi`` takes erfc^-1 from ``statistics``, which loads ``fractions``
    and ``decimal``, at its first inversion: importing ``jacobi`` and the
    commands that invert no kernel load none of the three, and a curved-ball
    model loads ``statistics``."""
    assert not set(STATISTICS) & loaded_after("import boundarylab.jacobi")
    mods = loaded_after_commands(
        tmp_path,
        ["spectrum", "--file", "problem.csv", "--k", "3"],
        ["audit", "--file", "problem.csv", "--k", "3", "--eta", "0.2"],
        ["graph", "rho", "--file", "graph.json"],
        ["graph", "bsep", "--file", "graph.json", "--eta", "0.2"],
        ["model", "--tag", "exponential", "--lambda", "0.7"],
    )
    assert not set(STATISTICS) & mods
    mods = loaded_after_commands(
        tmp_path, ["model", "--tag", "ball", "--n", "3", "--kappa", "1", "--lambda", "0.2"])
    assert "statistics" in mods

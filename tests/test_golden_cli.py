"""Golden CLI matrix: every command, model tag, comparison regime, sweep and
classification family and error case, each in all three formats, against
outputs recorded in ``golden_cli.json``.

A case matches when its exit code, its standard error and the text between
the numbers of its standard output are unchanged, every number agrees to
1e-12 relative, JSON objects keep their key order and JSON reports still
validate against their schemas.  Rerecord with
``PYTHONPATH=src python tests/test_golden_cli.py [case ...]`` only when an
output is meant to change: named cases alone are rerecorded, in every
format, and each number that moved is printed; with no name, every case.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from boundarylab.cli import main
from boundarylab.spectral import Endpoint, RadialProblem

GOLDEN = Path(__file__).with_name("golden_cli.json")
FORMATS = ("json", "csv", "svg")
REL = 1e-12

GRAPH = {
    "vertices": 5,
    "edges": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 2.0], [0, 3, 1.5], [3, 4, 0.75]],
    "boundary": [0],
    "measure": [0.1, 0.2, 0.3, 0.25, 0.15],
}

SWEEPS = {
    "hemisphere": {"family": "hemisphere", "kappa": 1.0, "eta": 0.3, "n": [2, 5, 20, 80]},
    "euclid_ball": {"family": "euclid_ball", "lambda": 1.5, "eta": 0.5, "n": [1, 2, 8, 32]},
    "warped": {"family": "warped", "kappa": -2.0, "eta": 0.4, "n": [2, 3, 9, 17]},
    "classify_hemisphere": {"family": "hemisphere", "eta": 0.5, "n": [2, 4, 8, 16],
                            "schedule": {"kind": "power", "coef": 1.0, "exp": -0.5}},
    "classify_euclid_ball": {"family": "euclid_ball", "eta": 0.5, "n": [1, 4, 8, 16, 32],
                             "schedule": {"kind": "power", "coef": 1.0, "exp": -0.5}},
    "classify_warped": {"family": "warped", "eta": 0.3, "n": [2, 4, 8],
                        "schedule": {"kind": "const", "value": -1.0}},
    "classify_general_ball": {"family": "general_ball", "eta": 0.5, "n": [2, 4, 8, 16],
                              "schedule": {"kappa": 1.0, "lambda": 0.5}},
    "classify_weighted_warped_exp": {
        "family": "weighted_warped_exp", "eta": 0.4, "n": [2, 4, 8],
        "schedule": {"kappa": {"kind": "power", "coef": -1.0, "exp": -1.0}}},
    "classify_weighted_warped_gauss": {
        "family": "weighted_warped_gauss", "eta": 0.4, "n": [2, 4, 8, 16, 32],
        "schedule": {"kappa": {"kind": "const", "value": -1.0}, "delta": 0.3}},
    "classify_table": {"family": "euclid_ball", "eta": 0.5, "n": [2, 4, 8],
                       "schedule": {"lambda": {"kind": "table",
                                               "values": {"2": 1.0, "4": 3.0, "8": 0.2}}}},
    "no_family": {"eta": 0.5, "n": [2, 4]},
    "unknown_family": {"family": "torus", "kappa": 1.0, "n": [2, 4]},
    "no_n": {"family": "hemisphere", "kappa": 1.0},
    "small_n": {"family": "hemisphere", "kappa": 1.0, "n": [1, 4]},
    "bad_sign": {"family": "warped", "kappa": 1.0, "n": [2, 4]},
    "bad_schedule_kind": {"family": "euclid_ball", "n": [2, 4],
                          "schedule": {"kind": "spline"}},
}

# case name -> (argv, schema of the JSON report or None); "{dir}" is the
# directory holding the input files
CASES = {
    "model_ball": (["model", "--tag", "ball", "--n", "3", "--kappa", "1", "--lambda", "0.2",
                    "--eta", "0.1", "--eta", "0.5", "--eta", "0.9"], "model_report"),
    "model_ball_horo": (["model", "--tag", "ball", "--n", "2", "--kappa", "-1",
                         "--lambda", "1.5", "--eta", "0.3", "--eta", "0.7"], "model_report"),
    "model_flat_ball": (["model", "--tag", "ball", "--n", "2", "--kappa", "0",
                         "--lambda", "0.5", "--eta", "0.25", "--eta", "1"], "model_report"),
    "model_warped": (["model", "--tag", "warped", "--n", "4", "--kappa", "-0.81",
                      "--eta", "0.2", "--eta", "0.7"], "model_report"),
    "model_half_gaussian": (["model", "--tag", "half_gaussian", "--K", "2", "--lambda", "-1",
                             "--eta", "0.1", "--eta", "0.5"], "model_report"),
    "model_exponential": (["model", "--tag", "exponential", "--lambda", "0.7"], "model_report"),
    "model_weighted_warped_exp": (["model", "--tag", "weighted_warped_exp", "--n", "2",
                                   "--N", "6", "--kappa", "-0.36", "--eta", "0.4"],
                                  "model_report"),
    "model_weighted_warped_gauss": (["model", "--tag", "weighted_warped_gauss", "--n", "3",
                                     "--kappa", "-1", "--delta", "0.4", "--eta", "0.1",
                                     "--eta", "0.9"], "model_report"),
    "model_descriptor": (["model", "--descriptor",
                          '{"tag": "weighted_warped_gauss", "n": 4, "kappa": -0.25, '
                          '"delta": 0.3}', "--eta", "0.6"], "model_report"),
    "compare_finite_ball": (["compare", "--regime", "finite", "--N", "4", "--kappa", "1",
                             "--lambda", "0.3", "--eta", "0.4", "--eta", "0.8"],
                            "compare_report"),
    "compare_finite_horospherical": (["compare", "--regime", "finite", "--N", "3.5",
                                      "--kappa", "-1", "--lambda", "1", "--eta", "0.25"],
                                     "compare_report"),
    "compare_twisted_convex": (["compare", "--regime", "twisted", "--n", "3", "--kappa", "0",
                                "--lambda", "1", "--delta", "0.5", "--eta", "0.5",
                                "--eta", "1"], "compare_report"),
    "compare_twisted_horospherical": (["compare", "--regime", "twisted", "--n", "3",
                                       "--kappa", "-1", "--lambda", "1", "--delta", "0.25"],
                                      "compare_report"),
    "compare_infinite_gauss": (["compare", "--regime", "infinite", "--K", "1",
                                "--lambda", "0.5", "--eta", "0.2", "--eta", "0.6"],
                               "compare_report"),
    "compare_infinite_exponential": (["compare", "--regime", "infinite", "--K", "0",
                                      "--lambda", "2", "--eta", "0.3"], "compare_report"),
    "compare_uncovered": (["compare", "--regime", "finite", "--N", "3", "--kappa", "0",
                           "--lambda", "-1", "--eta", "0.5"], None),
    "compare_twisted_uncovered": (["compare", "--regime", "twisted", "--n", "3",
                                   "--kappa", "1", "--lambda", "-0.5", "--delta", "0"], None),
    "compare_infinite_uncovered": (["compare", "--regime", "infinite", "--K", "0",
                                    "--lambda", "-1"], None),
    "spectrum": (["spectrum", "--file", "{dir}/problem.csv", "--k", "3"], "spectrum_report"),
    "audit": (["audit", "--file", "{dir}/problem.csv", "--k", "3", "--eta", "0.3",
               "--eta", "0.6"], "audit_report"),
    "graph_rho": (["graph", "rho", "--file", "{dir}/graph.json"], "graph_rho_report"),
    "graph_screen": (["graph", "screen", "--file", "{dir}/graph.json"], "screen"),
    "graph_bsep": (["graph", "bsep", "--file", "{dir}/graph.json", "--eta", "0.2",
                    "--eta", "0.3"], "graph_bsep_report"),
    **{f"sweep_{name}": (["sweep", "--config", f"{{dir}}/{name}.json"],
                         None if name in ("no_family", "unknown_family", "no_n", "small_n",
                                          "bad_sign", "bad_schedule_kind")
                         else "sweep_report")
       for name in SWEEPS},
    "error_model_missing_flag": (["model", "--tag", "ball", "--n", "2"], None),
    "error_model_unknown_tag": (["model", "--tag", "torus", "--lambda", "1"], None),
    "error_model_no_tag": (["model", "--lambda", "1"], None),
    "error_model_bad_descriptor": (["model", "--descriptor", '{"tag": "torus"}'], None),
    "error_model_descriptor_fields": (["model", "--descriptor",
                                       '{"tag": "exponential", "rate": 1}'], None),
    "error_model_out_of_domain": (["model", "--tag", "warped", "--n", "3", "--kappa", "1"],
                                  None),
    "error_model_eta": (["model", "--tag", "exponential", "--lambda", "1", "--eta", "0"],
                        None),
    "error_compare_missing_flag": (["compare", "--regime", "infinite", "--lambda", "1"], None),
    "error_compare_nonfinite_N": (["compare", "--regime", "finite", "--N", "inf",
                                   "--kappa", "1", "--lambda", "0.5"], None),
    "error_spectrum_missing_file": (["spectrum", "--file", "/nonexistent/problem.csv"], None),
    "error_graph_bad_file": (["graph", "rho", "--file", "{dir}/bad_graph.json"], None),
}


def write_inputs(directory: Path) -> None:
    t = np.linspace(0.0, 1.0, 201)
    problem = RadialProblem(t, np.exp(-t), right_bc=Endpoint.NEUMANN,
                            nonneg_ricci_f=True, nonneg_mean_curv=True, note="golden")
    (directory / "problem.csv").write_text(problem.to_csv())
    (directory / "graph.json").write_text(json.dumps(GRAPH))
    (directory / "bad_graph.json").write_text('{"vertices": 2}')
    for name, cfg in SWEEPS.items():
        (directory / f"{name}.json").write_text(json.dumps(cfg))


def run_case(name: str, fmt: str, directory: Path) -> dict:
    argv = [a.replace("{dir}", str(directory)) for a in CASES[name][0]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", fmt, *argv])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=REL, abs_tol=0.0)


def _same_json(got, want, where="$"):
    """Recursive comparison of ``object_pairs_hook=list`` parses."""
    if isinstance(want, list) and want and isinstance(want[0], tuple):
        assert [k for k, _ in got] == [k for k, _ in want], f"key order at {where}"
        for (k, g), (_, w) in zip(got, want):
            _same_json(g, w, f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"length at {where}"
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert type(got) is type(want) and _close(got, want), f"{where}: {got} != {want}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _same_text(got: str, want: str):
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    assert len(g) == len(w), "number count differs"
    for i, (a, b) in enumerate(zip(g, w)):
        if i % 2:
            assert _close(float(a), float(b)), f"number {i // 2}: {a} != {b}"
        else:
            assert a == b, f"text differs: {a!r} != {b!r}"


def _pairs(text: str):
    return json.loads(text, object_pairs_hook=lambda pairs: [tuple(p) for p in pairs])


def _validator(schema: str):
    root = resources.files("boundarylab") / "schemas"
    if schema == "screen":
        return jsonschema.Draft7Validator(json.loads((root / "screen.schema.json").read_text()))
    reports = json.loads((root / "reports.schema.json").read_text())
    return jsonschema.Draft7Validator(
        {**reports["definitions"][schema], "definitions": reports["definitions"]})


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def test_golden_file_covers_the_matrix(golden):
    assert sorted(golden) == sorted(f"{name}.{fmt}" for name in CASES for fmt in FORMATS)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", list(CASES))
def test_golden_cli(name, fmt, golden, inputs):
    want = golden[f"{name}.{fmt}"]
    got = run_case(name, fmt, inputs)
    assert got["code"] == want["code"]
    assert got["stderr"] == want["stderr"]
    if want["code"] != 0:
        assert got["stdout"] == ""
        return
    if fmt == "json":
        _same_json(_pairs(got["stdout"]), _pairs(want["stdout"]))
        schema = CASES[name][1]
        if schema is not None:
            _validator(schema).validate(json.loads(got["stdout"]))
    else:
        _same_text(got["stdout"], want["stdout"])


if __name__ == "__main__":
    import sys

    names = sys.argv[1:]
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases: {', '.join(unknown)}")
    old = json.loads(GOLDEN.read_text())
    record = dict(old) if names else {}
    pairs = [(name, fmt) for name in names or CASES for fmt in FORMATS]
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for name, fmt in pairs:
            key = f"{name}.{fmt}"
            record[key] = run_case(name, fmt, Path(tmp))
            was = old.get(key, {}).get("stdout", "")
            for a, b in zip(_NUMBER.findall(was), _NUMBER.findall(record[key]["stdout"])):
                if float(a) != float(b):
                    print(f"{key}: {a} -> {b}")
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(pairs)} cases to {GOLDEN}")

"""CLI tests: commands, formats, determinism, exit codes, schemas."""

import copy
import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boundarylab.cli import main
from boundarylab.spectral import Endpoint, RadialProblem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _schema(name):
    path = resources.files("boundarylab") / "schemas" / name
    return json.loads(path.read_text())


def _report_validator(definition):
    root = _schema("reports.schema.json")
    return jsonschema.Draft7Validator(
        {**root["definitions"][definition], "definitions": root["definitions"]}
    )


@pytest.fixture
def problem_file(tmp_path):
    t = np.linspace(0.0, 1.0, 2001)
    p = RadialProblem(t, np.ones_like(t), nonneg_ricci_f=True, nonneg_mean_curv=True)
    path = tmp_path / "interval.csv"
    path.write_text(p.to_csv())
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    blob = {
        "vertices": 3,
        "edges": [[0, 1, 1.0], [1, 2, 1.0]],
        "boundary": [0],
        "measure": [1 / 3, 1 / 3, 1 / 3],
    }
    path = tmp_path / "path.json"
    path.write_text(json.dumps(blob))
    return str(path)


class TestModel:
    def test_exponential_value(self, capsys):
        code, out, _ = run(
            capsys, "model", "--tag", "exponential", "--lambda", "1", "--eta", "0.5"
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["rows"][0]["obs_inradius"] == pytest.approx(math.log(2.0), rel=1e-10)
        _report_validator("model_report").validate(blob)

    def test_eta_one_is_zero(self, capsys):
        code, out, _ = run(
            capsys, "model", "--tag", "exponential", "--lambda", "2", "--eta", "1"
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["obs_inradius"] == 0.0

    def test_flat_ball_fixture(self, capsys):
        code, out, _ = run(
            capsys, "model", "--tag", "ball", "--n", "2", "--kappa", "0",
            "--lambda", "0.5", "--eta", "0.25",
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["obs_inradius"] == pytest.approx(1.0, abs=1e-9)

    def test_bad_descriptor_exits_2(self, capsys):
        code, _, err = run(capsys, "model", "--descriptor", '{"tag": "torus"}')
        assert code == 2
        assert "error" in err

    def test_missing_param_exits_2(self, capsys):
        code, _, err = run(capsys, "model", "--tag", "ball", "--n", "2")
        assert code == 2
        assert "--kappa" in err

    def test_gauss_rate_overflow_exits_2(self, capsys):
        # the Gaussian rate (n-1) lam e^(-2 delta) raised OverflowError
        code, out, err = run(capsys, "model", "--tag", "weighted_warped_gauss", "--n", "3",
                             "--kappa", "-1", "--delta", "-400")
        assert code == 2
        assert out == ""
        assert err == "error: e^(-2 delta) overflows at delta=-400.0\n"

    def test_csv_has_header(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "model", "--tag", "exponential",
            "--lambda", "1", "--eta", "0.3", "--eta", "0.6",
        )
        assert code == 0
        assert out.splitlines()[0] == "eta,obs_inradius"
        assert len(out.splitlines()) == 3


@pytest.mark.parametrize("argv, message", [
    (["model", "--tag", "ball", "--n", "2", "--kappa", "0"], "model tag 'ball' needs --lambda"),
    (["model", "--tag", "weighted_warped_exp", "--n", "3", "--kappa", "1"],
     "model tag 'weighted_warped_exp' needs --N"),
    (["compare", "--regime", "finite", "--N", "3", "--kappa", "0"],
     "regime 'finite' needs --lambda"),
    (["compare", "--regime", "twisted", "--n", "3", "--kappa", "0", "--lambda", "1"],
     "regime 'twisted' needs --delta"),
    (["compare", "--regime", "infinite", "--lambda", "1"], "regime 'infinite' needs --K"),
])
def test_missing_flag_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


class TestCompare:
    def test_infinite_exponential(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--regime", "infinite", "--K", "0",
            "--lambda", "2", "--eta", str(math.exp(-2.0)),
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["rows"][0]["bound"] == pytest.approx(1.0, rel=1e-10)
        _report_validator("compare_report").validate(blob)

    def test_uncovered_regime_exits_3(self, capsys):
        code, _, err = run(
            capsys, "compare", "--regime", "finite", "--N", "3",
            "--kappa", "0", "--lambda", "-1", "--eta", "0.5",
        )
        assert code == 3
        assert "no comparison" in err

    def test_twisted(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--regime", "twisted", "--n", "3",
            "--kappa", "0", "--lambda", "1", "--delta", "0.5", "--eta", "1",
        )
        assert code == 0
        assert json.loads(out)["rows"][0]["bound"] == 0.0

    @pytest.mark.parametrize("N,kappa", [("inf", "1"), ("nan", "1"), ("inf", "-0.25")])
    def test_nonfinite_N_exits_2(self, capsys, N, kappa):
        code, out, err = run(
            capsys, "compare", "--regime", "finite", "--N", N,
            "--kappa", kappa, "--lambda", "0.5", "--eta", "0.5",
        )
        assert code == 2
        assert out == ""
        assert "N must be finite" in err


class TestSpectrum:
    def test_uniform_interval(self, capsys, problem_file):
        code, out, _ = run(capsys, "spectrum", "--file", problem_file, "--k", "3")
        assert code == 0
        blob = json.loads(out)
        want = [(k * math.pi) ** 2 for k in (1, 2, 3)]
        np.testing.assert_allclose(blob["eigenvalues"], want, rtol=1e-3)
        _report_validator("spectrum_report").validate(blob)

    def test_csv_format(self, capsys, problem_file):
        code, out, _ = run(
            capsys, "--format", "csv", "spectrum", "--file", problem_file, "--k", "2"
        )
        assert code == 0
        assert out.splitlines()[0] == "k,eigenvalue"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "spectrum", "--file", "/nonexistent.csv")
        assert code == 2


class TestAudit:
    def test_all_pass_with_li_yau_near_equality(self, capsys, problem_file):
        code, out, _ = run(
            capsys, "audit", "--file", problem_file, "--k", "5", "--eta", "0.5"
        )
        assert code == 0
        blob = json.loads(out)
        _report_validator("audit_report").validate(blob)
        assert all(e["passed"] for e in blob["entries"])
        li = [e for e in blob["entries"] if e["name"] == "li_yau"][0]
        assert abs(li["margin"]) <= 0.01 * li["rhs"]

    def test_csv_format(self, capsys, problem_file):
        code, out, _ = run(
            capsys, "--format", "csv", "audit", "--file", problem_file, "--k", "2"
        )
        assert code == 0
        assert out.splitlines()[0] == "name,k,eta,lhs,rhs,relation,margin,passed"


class TestGraph:
    def test_rho(self, capsys, graph_file):
        code, out, _ = run(capsys, "graph", "rho", "--file", graph_file)
        assert code == 0
        blob = json.loads(out)
        assert blob["rho"] == [0.0, 1.0, 2.0]
        _report_validator("graph_rho_report").validate(blob)

    def test_rho_csv(self, capsys, graph_file):
        code, out, _ = run(capsys, "--format", "csv", "graph", "rho", "--file", graph_file)
        assert code == 0
        assert out.splitlines()[0] == "vertex,rho"

    def test_bsep(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "graph", "bsep", "--file", graph_file, "--eta", str(1 / 3)
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["value"] == pytest.approx(2.0)
        _report_validator("graph_bsep_report").validate(blob)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_bsep_non_finite_eta_exits_2(self, capsys, graph_file, bad):
        code, out, err = run(capsys, "graph", "bsep", "--file", graph_file,
                             "--eta", "0.2", "--eta", bad)
        assert (code, out) == (2, "")
        assert "mass thresholds must be finite" in err

    def test_screen_schema(self, capsys, graph_file):
        code, out, _ = run(capsys, "graph", "screen", "--file", graph_file)
        assert code == 0
        jsonschema.Draft7Validator(_schema("screen.schema.json")).validate(json.loads(out))

    def test_bad_graph_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": 2}')
        code, _, err = run(capsys, "graph", "rho", "--file", str(bad))
        assert code == 2


class TestSweep:
    def test_euclid_gap_shrinks(self, capsys, tmp_path):
        cfg = tmp_path / "euclid.json"
        cfg.write_text(json.dumps({
            "family": "euclid_ball", "lambda": 1.0, "eta": 0.5,
            "n": [4, 8, 16, 32],
        }))
        code, out, _ = run(capsys, "--format", "csv", "sweep", "--config", str(cfg))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,value,limit,gap"
        gaps = [float(line.split(",")[3]) for line in lines[1:]]
        assert gaps[-1] < gaps[0]

    def test_classification_config(self, capsys, tmp_path):
        cfg = tmp_path / "classify.json"
        cfg.write_text(json.dumps({
            "family": "euclid_ball",
            "schedule": {"kind": "power", "coef": 1.0, "exp": -0.5},
            "eta": 0.5,
            "n": [4, 8, 16, 32],
        }))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        blob = json.loads(out)
        assert blob["verdict"] == "concentrates_to_zero"
        _report_validator("sweep_report").validate(blob)

    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"family": "euclid_ball"}')
        code, _, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2


class TestDeterminismAndSvg:
    def test_byte_identical_runs(self, capsys, problem_file, tmp_path):
        cfg = tmp_path / "h.json"
        cfg.write_text(json.dumps({
            "family": "hemisphere", "kappa": 1.0, "eta": 0.5, "n": [8, 16],
        }))
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "--format", "csv", "sweep", "--config", str(cfg))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "audit", "--file", problem_file, "--k", "3")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_svg_output(self, capsys, tmp_path):
        out_path = tmp_path / "chart.svg"
        code, _, _ = run(
            capsys, "--format", "svg", "--out", str(out_path),
            "model", "--tag", "exponential", "--lambda", "1",
            "--eta", "0.2", "--eta", "0.5", "--eta", "0.8",
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        code, out, _ = run(
            capsys, "--out", str(out_path),
            "model", "--tag", "exponential", "--lambda", "1", "--eta", "0.5",
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["rows"]

    def test_seed_flag_accepted(self, capsys, graph_file):
        code, _, _ = run(
            capsys, "--seed", "7", "graph", "bsep", "--file", graph_file,
            "--eta", "0.3", "--mode", "greedy",
        )
        assert code == 0

    def test_global_flags_after_subcommand(self, capsys, graph_file):
        before = run(capsys, "--format", "csv", "graph", "rho", "--file", graph_file)
        after = run(capsys, "graph", "rho", "--file", graph_file, "--format", "csv")
        assert before == after
        assert after[0] == 0
        assert after[1].splitlines()[0] == "vertex,rho"

    def test_unwritable_out_exits_2(self, capsys):
        code, _, err = run(
            capsys, "--out", "/nonexistent_dir/x.json",
            "model", "--tag", "exponential", "--lambda", "1",
        )
        assert code == 2
        assert "error" in err


class TestNonFiniteProblemFile:
    @pytest.mark.parametrize("command", ["spectrum", "audit"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_theta_exits_2(self, capsys, tmp_path, command, bad):
        t = np.linspace(0.0, 1.0, 65)
        text = RadialProblem(t, np.ones_like(t)).to_csv()
        text = text.replace("\n0.5,1\n", f"\n0.5,{bad}\n")
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, out, err = run(capsys, command, "--file", str(path), "--k", "2")
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestNonFiniteGraphFile:
    @pytest.mark.parametrize("command", [["rho"], ["bsep", "--eta", "0.5"]])
    @pytest.mark.parametrize("edge, measure", [
        ("NaN", "0.5"), ("1e400", "0.5"), ("1.0", "NaN"),
    ])
    def test_nonfinite_graph_exits_2(self, capsys, tmp_path, command, edge, measure):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, %s]], '
            '"boundary": [0], "measure": [0.25, 0.25, %s]}' % (edge, measure)
        )
        code, out, err = run(capsys, "graph", command[0], "--file", str(path), *command[1:])
        assert code == 2
        assert out == ""
        assert "finite" in err



class TestUnresolvedSpectrumExits2:
    @pytest.mark.parametrize("command", ["spectrum", "audit"])
    def test_theta_beyond_the_float_range(self, capsys, tmp_path, command):
        t = np.linspace(0.0, 1.0, 41)
        p = RadialProblem(t, np.where(t < 0.5, 1e-200, 1e200))
        path = tmp_path / "wide.csv"
        path.write_text(p.to_csv())
        code, out, err = run(capsys, command, "--file", str(path), "--k", "2")
        assert code == 2
        assert out == ""
        assert "floating-point range" in err

    @pytest.mark.parametrize("command", ["spectrum", "audit"])
    def test_iteration_caps(self, capsys, monkeypatch, problem_file, command):
        from boundarylab import spectral

        monkeypatch.setattr(spectral, "_MAX_ITER", 4)
        monkeypatch.setattr(spectral, "_MAX_SWEEPS", 2)
        code, out, err = run(capsys, command, "--file", problem_file, "--k", "3")
        assert code == 2
        assert out == ""
        assert "did not resolve" in err


# ---------------------------------------------------------------------------
# derandomized fuzz of the problem-file commands
# ---------------------------------------------------------------------------

_SCALES = [5e-324, 1e-322, 1e-320, 1e-300, 1e-150, 1.0, 1e150, 1e300, 1e307, 1e308]
_LENGTHS = [1e-300, 1e-200, 1e-160, 1e-155, 1e-150, 1e-3, 1.0, 1e150, 1e300]
_ETAS = [0.0, 1.0, 2.0, math.nan, math.inf, 1e-300, 0.1, 0.5, 0.9]


def _not_strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(["spectrum", "audit"]),
       n=st.integers(16, 64), scale=st.sampled_from(_SCALES), length=st.sampled_from(_LENGTHS),
       grading=st.sampled_from([1.0, 3.0]),
       ends=st.tuples(*[st.sampled_from(["dirichlet", "neumann"])] * 2), flags=st.booleans(),
       k=st.integers(0, 20), etas=st.lists(st.sampled_from(_ETAS), max_size=3))
def test_problem_file_fuzz(capsys, tmp_path, data, command, n, scale, length, grading, ends,
                           flags, k, etas):
    """Every run of spectrum and audit on a problem file, flat or rough, at
    the ends of the float range, exits 0 with strict JSON or 2 with a
    message; pytest turns any RuntimeWarning into an error."""
    rough = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n) | st.just([0.0] * n))
    t = length * np.linspace(0.0, 1.0, n) ** grading
    with np.errstate(over="ignore"):
        theta = scale * np.exp(rough)
    rows = "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in zip(t, theta))
    path = tmp_path / "fuzz.csv"
    header = json.dumps({"left_bc": ends[0], "right_bc": ends[1],
                         "nonneg_ricci_f": flags, "nonneg_mean_curv": flags})
    path.write_text(f"# {header}\nt,theta\n{rows}")
    argv = [command, "--file", str(path), "--k", str(k)]
    if command == "audit":
        argv += [arg for eta in etas for arg in ("--eta", repr(eta))]
    code, out, err = run(capsys, *argv)
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_not_strict)
    else:
        assert out == "" and err.startswith("error: ")


# ---------------------------------------------------------------------------
# derandomized fuzz of sweep configuration files
# ---------------------------------------------------------------------------

# family -> parameter -> values in its domain at every n (a warped kappa is
# negative); "sphere" is no family
_NEGATIVE = [-4.0, -1.0, -0.5]
_SWEEP_PARAMS = {
    "hemisphere": {"kappa": [0.5, 1.0, 2.0]}, "euclid_ball": {"lambda": [0.5, 1.0, 3.0]},
    "warped": {"kappa": _NEGATIVE},
    "general_ball": {"kappa": [-1.0, 0.0, 1.0], "lambda": [1.5, 2.0]},
    "weighted_warped_exp": {"kappa": _NEGATIVE, "N": [2.0, 5.0]},
    "weighted_warped_gauss": {"kappa": _NEGATIVE, "delta": [-0.3, 0.0, 0.3]},
    "sphere": {"kappa": [1.0]},
}
_SWEEP_NS = [2, 3, 5, 8, 40, 1000, 10**6]
_SWEEP_ODD = [0.0, -1.0, 1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf, "1", None, True,
              [1.0], {}, [], [0, 3], [1, 2], [2, -1], [2.5], [True], 3]


def _schedules(values):
    """A schedule over ``values``: a number, a power law, a constant or a
    table over every n drawn."""
    good = st.sampled_from(values)
    return st.one_of(
        good,
        st.builds(lambda c, e: {"kind": "power", "coef": c, "exp": e},
                  good, st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])),
        st.builds(lambda v: {"kind": "const", "value": v}, good),
        st.lists(good, min_size=len(_SWEEP_NS), max_size=len(_SWEEP_NS)).map(
            lambda vs: {"kind": "table", "values": dict(zip(map(str, _SWEEP_NS), vs))}),
    )


_SCHEDULES = {family: {name: _schedules(values) for name, values in params.items()}
              for family, params in _SWEEP_PARAMS.items()}


@st.composite
def sweep_configs(draw):
    """A valid canonical sweep or classification of one family, with up to
    two fields, at any depth, dropped or replaced by an odd value."""
    family = draw(st.sampled_from(sorted(_SWEEP_PARAMS)))
    params = _SWEEP_PARAMS[family]
    config = {"family": family, "eta": draw(st.sampled_from([0.1, 0.5, 0.9])),
              "n": sorted(draw(st.sets(st.sampled_from(_SWEEP_NS), min_size=1, max_size=5)))}
    if len(params) == 1 and draw(st.booleans()):
        (name, values), = params.items()
        config[name] = draw(st.sampled_from(values))
    else:
        config["schedule"] = {name: draw(s) for name, s in _SCHEDULES[family].items()}
    for _ in range(draw(st.integers(0, 2))):
        target = config
        while True:
            key = draw(st.sampled_from(sorted(target)))
            if not (isinstance(target[key], dict) and target[key] and draw(st.booleans())):
                break
            target = target[key]
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(st.sampled_from(_SWEEP_ODD))
    return config


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=sweep_configs())
def test_sweep_config_fuzz(capsys, tmp_path, config):
    """Every sweep over a configuration file with fields of any family,
    schedule, n list and eta, non-finite, wrong-typed or missing, exits 0
    with strict JSON, 2 with a message, or 3 for a curvature pair with no
    comparison regime."""
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_not_strict)
    else:
        assert out == "" and err.startswith("error: ")



# ---------------------------------------------------------------------------
# derandomized fuzz of model and compare arguments and of graph files
# ---------------------------------------------------------------------------

# valid runs of every model tag and comparison regime
_ARGV_BASES = [
    ["model", "--tag", "ball", "--n", "3", "--kappa", "1", "--lambda", "0.2", "--eta", "0.1",
     "--eta", "0.9"],
    ["model", "--tag", "ball", "--n", "2", "--kappa", "-1", "--lambda", "1.5", "--eta", "0.3"],
    ["model", "--tag", "warped", "--n", "4", "--kappa", "-0.81", "--eta", "0.2"],
    ["model", "--tag", "half_gaussian", "--K", "2", "--lambda", "-1", "--eta", "0.5"],
    ["model", "--tag", "exponential", "--lambda", "0.7", "--eta", "0.4"],
    ["model", "--tag", "weighted_warped_exp", "--n", "2", "--N", "6", "--kappa", "-0.36",
     "--eta", "0.4"],
    ["model", "--tag", "weighted_warped_gauss", "--n", "3", "--kappa", "-1", "--delta", "0.4",
     "--eta", "0.9"],
    ["model", "--descriptor", '{"tag": "warped", "n": 4, "kappa": -0.25}', "--eta", "0.6"],
    ["compare", "--regime", "finite", "--N", "4", "--kappa", "1", "--lambda", "0.3",
     "--eta", "0.4"],
    ["compare", "--regime", "finite", "--N", "3.5", "--kappa", "-1", "--lambda", "1"],
    ["compare", "--regime", "twisted", "--n", "3", "--kappa", "0", "--lambda", "1",
     "--delta", "0.5", "--eta", "0.5"],
    ["compare", "--regime", "infinite", "--K", "1", "--lambda", "0.5", "--eta", "0.2"],
    ["compare", "--regime", "infinite", "--K", "0", "--lambda", "2", "--eta", "0.3"],
]
_ARGV_ODD = ["nan", "inf", "-inf", "-1", "0", "-0", "5e-324", "1e-320", "1e-300", "1e308",
             "-1e308", "1e999", "1e12", "1e13", "2.5", "3", "abc", "", "{}", '{"tag": 3}']


@st.composite
def odd_argvs(draw):
    """A valid model or compare run with one or two values, the tag, regime and
    descriptor among them, replaced by an odd one."""
    argv = list(draw(st.sampled_from(_ARGV_BASES)))
    values = [i for i in range(1, len(argv)) if argv[i - 1].startswith("--")]
    for i in draw(st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True)):
        argv[i] = draw(st.sampled_from(_ARGV_ODD))
    return argv


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=odd_argvs())
def test_model_and_compare_argument_fuzz(capsys, argv):
    """Every model and compare run with non-finite, wrong-typed, subnormal or
    out-of-range values exits 0 with strict JSON, 2 with a message (argparse's
    usage line first for an unparsable flag) or 3 for a pair with no regime."""
    code, out, err = run(capsys, *argv)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_not_strict)
    else:
        assert out == "" and err


_GRAPH = {"vertices": 4, "edges": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 2.0], [0, 3, 1.5]],
          "boundary": [0], "measure": [0.1, 0.2, 0.3, 0.4]}
_GRAPH_ODD = [math.nan, math.inf, -math.inf, -1.0, 0.0, 5e-324, 1e-320, 1e308, -1, 4, 10**6,
              2.5, "1", None, True, [], {}, [0, 1], [[0, 1]], [0, 1, 2, 3], [1.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 5e-324, 1.0]]


@st.composite
def odd_graphs(draw):
    """The valid four-vertex graph with up to two fields, or entries of its
    lists at any depth, replaced by an odd value."""
    graph = json.loads(json.dumps(_GRAPH))
    for _ in range(draw(st.integers(0, 2))):
        target, key = graph, draw(st.sampled_from(sorted(graph)))
        while isinstance(target[key], list) and target[key] and draw(st.booleans()):
            target, key = target[key], draw(st.integers(0, len(target[key]) - 1))
        target[key] = copy.deepcopy(draw(st.sampled_from(_GRAPH_ODD)))
    return graph


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=odd_graphs(), command=st.sampled_from(["rho", "screen", "bsep"]),
       mode=st.sampled_from(["exact", "greedy"]),
       etas=st.lists(st.sampled_from(["0.2", "0.3", "0.45", "1", "0", "-0.1", "nan", "inf",
                                      "1e-320", "5e-324", "2", "abc"]), max_size=3))
def test_graph_file_fuzz(capsys, tmp_path, graph, command, mode, etas):
    """Every graph command on a graph file with non-finite, wrong-typed,
    subnormal or out-of-range fields, or with such masses, exits 0 with strict
    JSON or 2 with a message (argparse's usage line first for an unparsable
    mass)."""
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    argv = ["graph", command, "--file", str(path), "--mode", mode]
    code, out, err = run(capsys, *argv, *(arg for eta in etas for arg in ("--eta", eta)))
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_not_strict)
    else:
        assert out == "" and err

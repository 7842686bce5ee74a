"""Input contracts: non-finite results, sweep configs and strict JSON.

Each case here printed ``Infinity`` with exit 0, printed a negative radius,
or ended in a traceback before the closed forms and the sweep configs were
checked.
"""

import json
import math

import pytest

from boundarylab import asymptotics, models
from boundarylab.cli import main
from boundarylab.errors import DomainError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def sweep(capsys, tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    return run(capsys, "sweep", "--config", str(path))


@pytest.mark.parametrize("argv", [
    ["compare", "--regime", "infinite", "--K", "0", "--lambda", "1e-320"],
    ["model", "--tag", "exponential", "--lambda", "1e-320"],
    ["model", "--tag", "ball", "--n", "2", "--kappa", "0", "--lambda", "1e-320"],
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_nonfinite_result_exits_2(capsys, argv, fmt):
    code, out, err = run(capsys, "--format", fmt, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_nonfinite_sweep_exits_2(capsys, tmp_path, fmt):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"family": "euclid_ball", "lambda": 1e-320, "eta": 0.5,
                                "n": [2, 4]}))
    code, out, err = run(capsys, "--format", fmt, "sweep", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_closed_form_refuses_an_infinite_radius():
    with pytest.raises(DomainError, match="no finite quantile"):
        models.closed_form_obs_inradius(models.ModelSpace.exponential(1e-320), 0.5)


class TestSweepConfig:
    def _exits_2(self, capsys, tmp_path, config, *needles):
        code, out, err = sweep(capsys, tmp_path, config)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        for needle in needles:
            assert needle in err
        return err

    def test_canonical_missing_kappa(self, capsys, tmp_path):
        self._exits_2(capsys, tmp_path, {"family": "hemisphere", "n": [2, 4]}, "'kappa'")

    def test_canonical_missing_lambda(self, capsys, tmp_path):
        self._exits_2(capsys, tmp_path, {"family": "euclid_ball", "n": [2, 4]}, "'lambda'")

    def test_non_numeric_parameter(self, capsys, tmp_path):
        self._exits_2(capsys, tmp_path, {"family": "warped", "kappa": "minus one",
                                         "n": [2, 4]}, "'kappa'")

    def test_non_numeric_eta(self, capsys, tmp_path):
        self._exits_2(capsys, tmp_path, {"family": "warped", "kappa": -1.0, "eta": "half",
                                         "n": [2, 4]}, "'eta'")

    def test_non_numeric_schedule(self, capsys, tmp_path):
        self._exits_2(capsys, tmp_path, {"family": "euclid_ball", "n": [2, 4],
                                         "schedule": {"lambda": "one"}})

    @pytest.mark.parametrize("family", ["hemisphere", "general_ball"])
    def test_n_as_a_string(self, capsys, tmp_path, family):
        config = {"family": family, "kappa": 1.0, "n": "48"}
        if family == "general_ball":
            config["schedule"] = {"kappa": 1.0, "lambda": 0.5}
        self._exits_2(capsys, tmp_path, config, "'48'")

    def test_config_not_an_object(self, capsys, tmp_path):
        self._exits_2(capsys, tmp_path, "[1, 2, 3]", "JSON object")

    @pytest.mark.parametrize("family, schedule, n", [
        ("warped", {"kind": "const", "value": -1.0}, 1),
        ("weighted_warped_exp", {"kind": "const", "value": -1.0}, 1),
        ("euclid_ball", {"kind": "const", "value": 1.0}, 0),
        ("warped", {"kind": "const", "value": -1.0}, 0),
        ("euclid_ball", {"kind": "const", "value": -1.0}, 1),
        ("euclid_ball", {"kind": "const", "value": 1e-320}, 1),
    ])
    def test_classification_names_the_n_at_fault(self, capsys, tmp_path, family, schedule, n):
        config = {"family": family, "schedule": schedule, "n": [n, 4]}
        self._exits_2(capsys, tmp_path, config, f"n={n}")


def test_report_holding_inf_refuses_to_serialize(capsys, monkeypatch, tmp_path):
    report = asymptotics.SweepReport()
    report.add(2, math.inf, math.nan)
    with pytest.raises(ValueError):
        report.to_json()
    # the CLI turns a non-finite value that reaches its JSON writer into exit 2
    monkeypatch.setattr(asymptotics, "classify_concentration", lambda spec, eta: report)
    code, out, err = sweep(capsys, tmp_path, {"family": "warped", "n": [2],
                                              "schedule": {"kind": "const", "value": -1.0}})
    assert (code, out) == (2, "")
    assert "not finite" in err


def test_model_with_an_infinite_parameter_exits_2(capsys):
    code, out, err = run(capsys, "model", "--tag", "exponential", "--lambda", "inf")
    assert (code, out) == (2, "")
    assert "not finite" in err


@pytest.mark.parametrize("descriptor", ["[1]", '"exponential"', "3", '{"tag": []}', '{"tag": 1}'])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_descriptor_not_an_object_with_a_tag_exits_2(capsys, descriptor, fmt):
    with pytest.raises(DomainError):
        models.model_from_json(descriptor)
    code, out, err = run(capsys, "--format", fmt, "model", "--descriptor", descriptor)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("build, argv", [
    (lambda: models.ModelSpace.exponential(math.inf), ["--tag", "exponential", "--lambda", "inf"]),
    (lambda: models.ModelSpace.half_gaussian(math.inf, 1.0),
     ["--tag", "half_gaussian", "--K", "inf", "--lambda", "1"]),
    (lambda: models.ModelSpace.half_gaussian(1.0, -math.inf),
     ["--tag", "half_gaussian", "--K", "1", "--lambda=-inf"]),
    (lambda: models.ModelSpace.warped(3, -math.inf), ["--tag", "warped", "--n", "3", "--kappa=-inf"]),
    (lambda: models.ModelSpace.weighted_warped_exp(3, math.inf, -1.0),
     ["--tag", "weighted_warped_exp", "--n", "3", "--N", "inf", "--kappa", "-1"]),
    (lambda: models.ModelSpace.weighted_warped_gauss(3, -math.inf, 0.1),
     ["--tag", "weighted_warped_gauss", "--n", "3", "--kappa=-inf", "--delta", "0.1"]),
    (lambda: models.ModelSpace.weighted_warped_gauss(3, -1.0, math.inf),
     ["--tag", "weighted_warped_gauss", "--n", "3", "--kappa", "-1", "--delta", "inf"]),
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_catalog_refuses_infinite_parameters(capsys, build, argv, fmt):
    with pytest.raises(DomainError, match="not finite"):
        build()
    code, out, err = run(capsys, "--format", fmt, "model", *argv, "--eta", "0.5")
    assert (code, out) == (2, "")
    assert "not finite" in err

"""Table-driven checks over every model tag and every sequence family.

A new model tag or sequence family is one table entry plus one sample here;
the first test of each group fails until the sample exists.
"""

import json
import math

import pytest

from boundarylab import asymptotics, models, screens
from boundarylab.cli import main

MODEL_SAMPLES = {
    "ball": {"n": 3, "kappa": 1.0, "lam": 0.2},
    "warped": {"n": 4, "kappa": -0.81},
    "half_gaussian": {"K": 2.0, "Lam": -1.0},
    "exponential": {"Lam": 0.7},
    "weighted_warped_exp": {"n": 2, "N": 6.0, "kappa": -0.36},
    "weighted_warped_gauss": {"n": 3, "kappa": -1.0, "delta": 0.4},
}

# constant schedules inside each family's regime, valid for n in N_VALUES
FAMILY_SAMPLES = {
    "hemisphere": {"kappa": 1.0},
    "euclid_ball": {"lambda": 1.5},
    "warped": {"kappa": -1.0},
    "general_ball": {"kappa": 1.0, "lambda": 0.5},
    "weighted_warped_exp": {"kappa": -1.0, "N": 16.0},
    "weighted_warped_gauss": {"kappa": -1.0, "delta": 0.3},
}
N_VALUES = [2, 4, 8, 16]


def test_every_model_tag_has_a_sample():
    assert list(MODEL_SAMPLES) == list(models._FIELDS)


@pytest.mark.parametrize("tag", list(MODEL_SAMPLES))
def test_descriptor_round_trip(tag):
    m = getattr(models.ModelSpace, tag)(**MODEL_SAMPLES[tag])
    assert list(json.loads(m.to_json())) == ["tag", *models._FIELDS[tag]]
    assert models.model_from_json(m.to_json()) == m


@pytest.mark.parametrize("tag", list(MODEL_SAMPLES))
def test_model_flags_build_the_classmethod_model(tag, capsys):
    m = getattr(models.ModelSpace, tag)(**MODEL_SAMPLES[tag])
    flags = []
    for name in models._FIELDS[tag]:
        flag = "--lambda" if name in ("lam", "Lam") else f"--{name}"
        flags += [flag, str(MODEL_SAMPLES[tag][name])]
    assert main(["model", "--tag", tag, *flags, "--eta", "0.3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["model"] == json.loads(m.to_json())
    assert blob["rows"][0]["obs_inradius"] == models.closed_form_obs_inradius(m, 0.3)


def test_every_sequence_family_has_a_sample():
    assert list(FAMILY_SAMPLES) == list(asymptotics._FAMILIES)


@pytest.mark.parametrize("family", list(FAMILY_SAMPLES))
def test_constant_schedule_classifies(family):
    spec = asymptotics.SequenceSpec(family, FAMILY_SAMPLES[family], N_VALUES)
    report = asymptotics.classify_concentration(spec, 0.4)
    assert report.verdict in set(asymptotics.Verdict)
    assert [r.n for r in report.rows] == N_VALUES
    assert all(math.isfinite(v) and v > 0 for v in report.values)
    assert len(report.extras["driver"]) == len(N_VALUES)
    json.loads(report.to_json())


def test_classification_keeps_the_interval_row():
    spec = asymptotics.SequenceSpec("euclid_ball", {"kind": "const", "value": 2.0}, [1, 2])
    report = asymptotics.classify_concentration(spec, 0.3)
    assert report.rows[0].value == pytest.approx((1 - 0.3) / 2.0, rel=1e-15)


@pytest.mark.parametrize("family", ["hemisphere", "euclid_ball", "warped"])
def test_canonical_sweep_and_law_share_the_model_at_n(family):
    param = FAMILY_SAMPLES[family][asymptotics._FAMILIES[family].primary]
    sweep = getattr(asymptotics, f"{family}_sweep")(param, 0.4, [8])
    finite, _ = asymptotics.distribution_law(family, param, 8)
    assert screens.obs_inradius(finite, 0.4) == pytest.approx(sweep.rows[0].value, abs=1e-8)

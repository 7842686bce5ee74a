"""One field table per input document: the reader, the JSON Schema and the
constructors share it.

Every document a reader takes (a problem header, a graph, a model descriptor,
a screen, a schedule and a sweep config) has a table in ``_text``: field ->
JSON type, with a default when the field may be left out.  ``_text.read``
checks a document against its table; the JSON Schema built here from the same
table must refuse exactly the documents ``read`` refuses, under the stricter
rules the readers keep: an integer is a JSON integer literal and a number is
never a boolean.  The shipped ``screen.schema.json`` is the schema built from
the screen tables; rewrite it with ``PYTHONPATH=src python
tests/test_document_tables.py`` only when a screen table changes.
"""

import json
import re
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from boundarylab import _text, asymptotics, graphs, jacobi, models, screens, spectral
from boundarylab.cli import main
from boundarylab.errors import DomainError

SCREEN_SCHEMA = Path(str(resources.files("boundarylab") / "schemas" / "screen.schema.json"))


def schema(title: str, tables: dict, tag: str | None = None) -> dict:
    """The Draft-7 JSON Schema of the documents ``read`` takes with ``tables``,
    or, given a ``tag``, of a document whose ``tag`` field names its table."""
    def closed(table):
        return {"type": "object", "properties": table, "additionalProperties": False,
                "required": [key for key, kind in table.items() if "default" not in kind]}

    body = closed(tables) if tag is None else {"type": "object", "required": [tag], "oneOf": [
        closed({tag: {"const": name}, **table}) for name, table in tables.items()]}
    return {"$schema": "http://json-schema.org/draft-07/schema#", "title": title, **body}


def _integer(checker, x):
    return isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _number(checker, x):
    return isinstance(x, float) or _integer(checker, x)


# Draft 7 counts 3.0 as an integer, and an int of any size as an integer and a
# number; the readers do not
STRICT = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine_many(
        {"integer": _integer, "number": _number}))


def _problem_text(header) -> str:
    t = np.linspace(0.0, 1.0, 21)
    body = spectral.RadialProblem(t, np.ones_like(t)).to_csv().split("\n", 1)[1]
    return f"# {json.dumps(header)}\n{body}"


# kind -> (table or tag tables, tag, what, the real reader, valid documents)
KINDS = {
    "problem header": (_text.PROBLEM_HEADER, None, "problem header",
                       lambda doc: spectral.RadialProblem.from_csv(_problem_text(doc)),
                       [{"left_bc": "dirichlet", "right_bc": "neumann", "nonneg_ricci_f": True,
                         "nonneg_mean_curv": False, "note": "x"}, {}]),
    "graph": (_text.GRAPH, None, "graph", graphs.BoundaryGraph.from_json,
              [{"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 2]], "boundary": [0],
                "measure": [0.25, 0.25, 0.5]}]),
    "model": (_text.MODELS, "tag", "model", models.model_from_json, [
        {"tag": "ball", "n": 3, "kappa": 1, "lam": 0.2},
        {"tag": "warped", "n": 4, "kappa": -0.81},
        {"tag": "half_gaussian", "K": 2.0, "Lam": -1.0},
        {"tag": "exponential", "Lam": 0.7},
        {"tag": "weighted_warped_exp", "n": 2, "N": 6.5, "kappa": -0.36},
        {"tag": "weighted_warped_gauss", "n": 3, "kappa": -1.0, "delta": 0.4}]),
    "screen": (_text.SCREENS, "kind", "screen", screens.screen_from_json, [
        {"kind": "grid", "t": [0.0, 1.0, 2], "F": [0.0, 0.5, 1.0], "full_support": False},
        {"kind": "atoms", "t": [0.0, 1.5], "p": [0.25, 0.75]},
        {"kind": "closed", "family": "exponential", "params": {"rate": 2}, "scale": 1.5,
         "full_support": True}]),
    "schedule": (_text.SCHEDULES, "kind", "schedule", asymptotics.Schedule.from_json, [
        {"kind": "power", "coef": 1.0, "exp": -0.5},
        {"kind": "const", "value": 2},
        {"kind": "table", "values": {"2": 1.0, "4": 3}}]),
    "sweep config": (_text.SWEEP_CONFIG, None, "sweep config",
                     lambda doc: asymptotics.run_config(json.dumps(doc)), [
        {"family": "hemisphere", "kappa": 1.0, "eta": 0.3, "n": [2, 4]},
        {"family": "euclid_ball", "lambda": 1.5, "n": [1, 2]},
        {"family": "general_ball", "schedule": {"kappa": 1.0, "lambda": 0.5}, "n": [2, 4]},
        {"family": "euclid_ball", "eta": 0.5, "n": [2, 4],
         "schedule": {"kind": "power", "coef": 1.0, "exp": -0.5}}]),
}

ODD = [True, False, None, 3.0, -0.0, 2.5, 3, 0, -7, 10**400, -10**400, "x", "", "3", [], [1],
       [1.5], [True], ["a"], [0, 1, 1.0], [[0, 1, 1.0]], [None], {}, {"a": 1}, {"a": "b"},
       {"a": True}, {"kind": "const", "value": 1}, [{}]]


def _replaced(value, path, new):
    """A copy of ``value`` with the item at ``path`` (keys and indices) set to ``new``."""
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new) if path[1:] else new
    return copy


def _paths(value, path=()):
    """The paths to every list item and object value inside ``value``."""
    items = enumerate(value) if isinstance(value, list) else (
        value.items() if isinstance(value, dict) else ())
    for key, item in items:
        yield (*path, key)
        yield from _paths(item, (*path, key))


def _mutants(doc: dict, fields):
    """``doc`` with each field (listed or present) or each item inside one set
    to each odd value, with each field removed, and with an unknown field added."""
    for path in dict.fromkeys([*((key,) for key in fields), *_paths(doc)]):
        for value in ODD:
            yield _replaced(doc, path, value)
    for key in doc:
        yield {k: v for k, v in doc.items() if k != key}
    yield {**doc, "unknown": 1}


def _documents():
    for kind, (tables, tag, _, _, docs) in KINDS.items():
        for doc in docs:
            fields = (tables if tag is None else {tag: None, **tables[doc[tag]]})
            for mutant in _mutants(doc, fields):
                yield kind, mutant


def _read(kind: str, doc: dict):
    """``_text.read`` on ``doc`` with the table its tag names; a DomainError
    when the tag names none."""
    tables, tag, what = KINDS[kind][:3]
    if tag is None:
        return _text.read(tables, doc, what)
    rest = dict(doc)
    name = rest.pop(tag, None)
    if not isinstance(name, str) or name not in tables:
        raise DomainError(f"unknown {what} {tag} {name!r}")
    return _text.read(tables[name], rest, what)


VALIDATORS = {kind: STRICT(schema(kind, tables, tag))
              for kind, (tables, tag, *_) in KINDS.items()}
DOCUMENTS = list(_documents())


def test_mutation_corpus_covers_every_kind():
    assert len(DOCUMENTS) >= 3000
    assert {kind for kind, _ in DOCUMENTS} == set(KINDS)


def test_reader_and_schema_refuse_the_same_documents():
    """``read`` refuses a mutant exactly when the strict Draft-7 validator of
    the schema built from the same table does.  The document's reader refuses
    every mutant ``read`` refuses, and raises nothing but DomainError on any."""
    disagree = []
    for kind, doc in DOCUMENTS:
        try:
            _read(kind, doc)
            typed = True
        except DomainError:
            typed = False
        if typed != VALIDATORS[kind].is_valid(doc):
            disagree.append((kind, doc))
            continue
        try:
            KINDS[kind][3](doc)
        except DomainError:
            continue
        assert typed, (kind, doc)
    assert disagree == []


def test_valid_documents_are_read():
    for kind, (_, _, _, reader, docs) in KINDS.items():
        for doc in docs:
            assert VALIDATORS[kind].is_valid(doc)
            reader(doc)


def test_shipped_screen_schema_is_built_from_the_screen_tables():
    assert json.loads(SCREEN_SCHEMA.read_text()) == schema("screen", _text.SCREENS, "kind")


def exits_2(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err.startswith("error:")
    return out.err


@pytest.mark.parametrize("build, needle", [
    (lambda: graphs.BoundaryGraph(3.7, [(0, 1, 1.0), (1, 2, 1.0)], [0], [1 / 3] * 3),
     "vertex count"),
    (lambda: graphs.BoundaryGraph(True, [], [0], [1.0]), "vertex count"),
    (lambda: models.ModelSpace.ball(3.7, 1, 0.2), "'n'"),
    (lambda: models.ModelSpace.warped(3, "-1"), "'kappa'"),
    (lambda: models.ModelSpace.exponential(True), "'Lam'"),
    (lambda: screens.closed_screen("exponential", rate=True), "parameters"),
    (lambda: screens.closed_screen("uniform", width="2"), "parameters"),
])
def test_constructors_refuse_arguments_of_the_wrong_type(build, needle):
    """Each once truncated to an integer or read True as 1."""
    with pytest.raises(DomainError, match=needle):
        build()


def test_closed_screen_round_trip_keeps_its_parameters():
    s = screens.closed_screen("exponential", rate=2)
    assert screens.screen_from_json(s.to_json()).to_json() == s.to_json()


@pytest.mark.parametrize("text", [
    json.dumps({"vertices": 3.7, "edges": [[0, 1, 1.0]], "boundary": [0], "measure": [0.5, 0.5]}),
    json.dumps({"vertices": 2, "edges": [[0, 1, 1.0]], "boundary": [0], "measure": [0.5, 0.5],
                "weights": [1]}),
])
def test_graph_of_the_wrong_vertex_type_or_an_unknown_field_exits_2(capsys, tmp_path, text):
    path = tmp_path / "graph.json"
    path.write_text(text)
    exits_2(capsys, "graph", "rho", "--file", str(path))


@pytest.mark.parametrize("header, needle", [
    ({"rigth_bc": "neumann"}, "unknown field 'rigth_bc'"),
    ({"left_bc": "neumann", "right_bc": "dirichlet", "notes": ""}, "unknown field 'notes'"),
])
def test_problem_header_with_an_unknown_field_exits_2(capsys, tmp_path, header, needle):
    """A misspelt field once read as its default: Dirichlet at both ends."""
    with pytest.raises(DomainError, match=needle):
        spectral.RadialProblem.from_csv(_problem_text(header))
    path = tmp_path / "problem.csv"
    path.write_text(_problem_text(header))
    assert needle in exits_2(capsys, "spectrum", "--file", str(path))


@pytest.mark.parametrize("blob, needle", [
    ({"kind": "closed", "family": "exponential", "params": {"rate": 1.0}, "scael": 3},
     "unknown field 'scael'"),
    ({"kind": "atoms", "t": [0.0], "p": [1.0], "full_support": True},
     "unknown field 'full_support'"),
])
def test_screen_with_an_unknown_field_is_refused(blob, needle):
    with pytest.raises(DomainError, match=needle):
        screens.screen_from_json(json.dumps(blob))


@pytest.mark.parametrize("descriptor, needle", [
    ({"tag": "exponential", "Lam": 1.0, "n": 3}, "unexpected keyword argument 'n'"),
    ({"tag": "ball", "n": 10**30, "kappa": 1, "lam": 0.2}, "dimension N=1e+30"),
    ({"tag": "ball", "n": 10**300, "kappa": 1, "lam": 0.2}, "dimension N=1e+300"),
    ({"tag": "ball", "n": 10**20, "kappa": 1, "lam": -0.5}, "dimension N=1e+20"),
    *(({"tag": "ball", "n": 10**e, "kappa": kappa, "lam": 1.5}, f"dimension N=1e+{e}")
      for e in (13, 16, 18) for kappa in (1, -1)),
    ({"tag": "warped", "n": 10**400, "kappa": -1}, "must be an integer"),
])
def test_model_descriptor_with_an_unknown_field_or_a_huge_dimension_exits_2(
        capsys, descriptor, needle):
    """A dimension of 10^30 once ended in an OverflowError traceback, and a
    curved ball past 10^12 read a silently wrong radius."""
    text = json.dumps(descriptor)
    with pytest.raises(DomainError, match=re.escape(needle)):
        models.closed_form_obs_inradius(models.model_from_json(text), 0.5)
    assert needle in exits_2(capsys, "model", "--descriptor", text)


@pytest.mark.parametrize("argv", [
    ["--regime", "finite", "--N", "1e300", "--kappa", "1", "--lambda", "0.2"],
    ["--regime", "twisted", "--n", str(10**30), "--kappa", "1", "--lambda", "0.2",
     "--delta", "0"],
    ["--regime", "twisted", "--n", str(10**400), "--kappa", "1", "--lambda", "0.2",
     "--delta", "0"],
])
def test_comparison_at_a_huge_dimension_exits_2(capsys, argv):
    assert "dimension" in exits_2(capsys, "compare", *argv)


@pytest.mark.parametrize("N", ["1e13", "1e16", "1e18"])
@pytest.mark.parametrize("kappa", ["1", "-1"])
def test_curved_comparison_ball_past_1e12_exits_2(capsys, kappa, N):
    # N * bound once read 0.00143 at N = 1e18 for kappa = -1, 300 times low
    argv = ["--regime", "finite", "--N", N, "--kappa", kappa, "--lambda", "1.5", "--eta", "0.5"]
    assert f"dimension N={float(N):g}" in exits_2(capsys, "compare", *argv)


def test_curved_balls_at_1e12_keep_their_values():
    # n times the radius runs to its O(1/n) limit, log(2) / lam for the model
    model = models.ModelSpace.ball(10**12, 1.0, 0.2)
    assert 1e12 * models.closed_form_obs_inradius(model, 0.5) == pytest.approx(
        3.465735902683702, rel=1e-14)
    kind = models.FiniteN(1e12, jacobi.classify(-1.0, 1.5))
    assert 1e12 * models.comparison_bound(kind, 0.5) == pytest.approx(0.4620981203739348, rel=1e-14)


@pytest.mark.parametrize("config, needle", [
    ({"family": "general_ball", "schedule": {"kappa": {"kind": "const"}, "lambda": 0.5},
      "n": [2, 4]}, "missing field 'value'"),
    ({"family": "euclid_ball", "schedule": {"kind": "const", "coef": 1.0}, "n": [2, 4]},
     "missing field 'value'"),
    ({"family": "euclid_ball", "schedule": {"kind": "const", "value": 1.0, "coef": 1.0},
      "n": [2, 4]}, "unknown field 'coef'"),
    ({"family": "euclid_ball", "schedule": {"kind": "power", "coef": 1.0, "exp": -0.5,
                                            "extra": 0}, "n": [2, 4]}, "unknown field 'extra'"),
    ({"family": "euclid_ball", "schedule": {"lambda": 1.0, "kappa": 1.0}, "n": [2, 4]},
     "takes schedules for"),
    ({"family": "hemisphere", "kappa": 1.0, "n": [2, 4], "etta": 0.3}, "unknown field 'etta'"),
])
def test_schedule_without_its_value_or_with_an_unknown_field_exits_2(
        capsys, tmp_path, config, needle):
    """A bare const once read as 0: general_ball exited 0 with the verdict
    concentrates_to_zero."""
    with pytest.raises(DomainError, match=needle):
        asymptotics.run_config(json.dumps(config))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert needle in exits_2(capsys, "sweep", "--config", str(path))


if __name__ == "__main__":
    built = schema("screen", _text.SCREENS, "kind")
    SCREEN_SCHEMA.write_text(json.dumps(built, indent=2) + "\n")
    print(f"wrote {SCREEN_SCHEMA}")

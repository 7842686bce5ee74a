"""Input contracts of the documents the CLI reads: graphs, problem CSV
headers, model descriptors, screens and sweep configs.

A field of the wrong JSON type is a ``DomainError`` that names the field,
and the CLI exits 2 with ``error: ...`` on stderr and nothing on stdout.
Each case here is one that a reader without type checks ends in a
traceback (exit 1), truncates to an integer, or takes through ``bool()`` or
``float()`` as some other value.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from boundarylab import asymptotics, graphs, models, screens, spectral
from boundarylab.cli import main
from boundarylab.errors import DomainError

GRAPH = {"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]], "boundary": [0],
         "measure": [0.25, 0.25, 0.5]}


def exits_2(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err.startswith("error:")
    return out.err


@pytest.mark.parametrize("text", [
    "1",
    "null",
    json.dumps({**GRAPH, "vertices": "x"}),
    json.dumps({**GRAPH, "vertices": 3.2}),
    json.dumps({**GRAPH, "vertices": True}),
    json.dumps({**GRAPH, "edges": [[0]]}),
    json.dumps({**GRAPH, "edges": [["a", 1, 1]]}),
    json.dumps({**GRAPH, "edges": [[0.9, 1, 1], [1, 2, 1.0]]}),
    json.dumps({**GRAPH, "edges": [[0, 1, True], [1, 2, 1.0]]}),
    json.dumps({**GRAPH, "edges": 5}),
    json.dumps({**GRAPH, "boundary": 0}),
    json.dumps({**GRAPH, "boundary": "ab"}),
    json.dumps({**GRAPH, "measure": "ab"}),
    json.dumps({**GRAPH, "measure": [0.25, "0.25", 0.5]}),
])
def test_malformed_graph_document_exits_2(capsys, tmp_path, text):
    with pytest.raises(DomainError):
        graphs.BoundaryGraph.from_json(text)
    path = tmp_path / "graph.json"
    path.write_text(text)
    exits_2(capsys, "graph", "rho", "--file", str(path))


def test_graph_measure_is_checked_before_the_adjacency_lists():
    """A vertex count the measure does not match is refused before the
    constructor builds one list per vertex.  The check runs in a child
    process capped at 1 GiB of address space, so a constructor that built
    the lists first fails there with MemoryError instead of exhausting the host."""
    code = (
        "import json, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from boundarylab import graphs\n"
        "from boundarylab.errors import DomainError\n"
        f"doc = json.dumps({{**{GRAPH!r}, 'vertices': 10**12}})\n"
        "try:\n"
        "    graphs.BoundaryGraph.from_json(doc)\n"
        "except DomainError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(graphs.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert "one weight per vertex" in proc.stdout, proc.stderr


def _problem_text(header: str) -> str:
    t = np.linspace(0.0, 1.0, 21)
    body = spectral.RadialProblem(t, np.ones_like(t)).to_csv().split("\n", 1)[1]
    return f"# {header}\n{body}"


@pytest.mark.parametrize("header, field", [
    ("[1]", "JSON object"),
    ('{"left_bc": "robin"}', "'left_bc'"),
    ('{"right_bc": 1, "left_bc": "dirichlet"}', "'right_bc'"),
    ('{"nonneg_ricci_f": "no"}', "'nonneg_ricci_f'"),
    ('{"nonneg_mean_curv": 1}', "'nonneg_mean_curv'"),
    ('{"note": 5}', "'note'"),
    ('{"note": [1]}', "'note'"),
])
def test_malformed_problem_header_exits_2(capsys, tmp_path, header, field):
    text = _problem_text(header)
    with pytest.raises(DomainError, match=field):
        spectral.RadialProblem.from_csv(text)
    path = tmp_path / "problem.csv"
    path.write_text(text)
    assert field in exits_2(capsys, "audit", "--file", str(path), "--k", "1")


def test_problem_header_fields_are_read():
    p = spectral.RadialProblem.from_csv(_problem_text(
        '{"left_bc": "neumann", "right_bc": "dirichlet", "nonneg_ricci_f": true, "note": "x"}'))
    assert (p.left_bc, p.right_bc) == (spectral.Endpoint.NEUMANN, spectral.Endpoint.DIRICHLET)
    assert (p.nonneg_ricci_f, p.nonneg_mean_curv, p.note) == (True, False, "x")


@pytest.mark.parametrize("descriptor, field", [
    ({"tag": "ball", "n": "x", "kappa": 1.0, "lam": 0.2}, "'n'"),
    ({"tag": "ball", "n": 3.7, "kappa": 1.0, "lam": 0.2}, "'n'"),
    ({"tag": "ball", "n": True, "kappa": 1.0, "lam": 0.2}, "'n'"),
    ({"tag": "ball", "n": 3, "kappa": "1", "lam": 0.2}, "'kappa'"),
    ({"tag": "exponential", "Lam": True}, "'Lam'"),
    ({"tag": "weighted_warped_gauss", "n": 3, "kappa": -1.0, "delta": None}, "'delta'"),
])
def test_model_descriptor_field_of_the_wrong_type_exits_2(capsys, descriptor, field):
    with pytest.raises(DomainError, match=field):
        models.model_from_json(json.dumps(descriptor))
    assert field in exits_2(capsys, "model", "--descriptor", json.dumps(descriptor))


@pytest.mark.parametrize("blob, field", [
    ({"kind": "grid", "t": "ab", "F": [0.0, 1.0]}, "'t'"),
    ({"kind": "grid", "t": [0.0, 1.0], "F": [0.0, True]}, "'F'"),
    ({"kind": "grid", "t": [0.0, 1.0], "F": [0.5, 1.0], "full_support": "no"}, "'full_support'"),
    ({"kind": "atoms", "t": [0.0], "p": "1"}, "'p'"),
    ({"kind": "closed", "family": "exponential", "params": "ab"}, "'params'"),
    ({"kind": "closed", "family": "exponential", "params": {"rate": True}}, "'params'"),
    ({"kind": "closed", "family": 1, "params": {"rate": 1.0}}, "'family'"),
    ({"kind": "closed", "family": "exponential", "params": {"rate": 1.0},
      "full_support": 0}, "'full_support'"),
])
def test_screen_field_of_the_wrong_type_is_a_domain_error(blob, field):
    with pytest.raises(DomainError, match=field):
        screens.screen_from_json(json.dumps(blob))


def test_grid_screen_support_flag_is_read():
    """A declared flag decides whether ObsInRad is a point or an enclosure."""
    blob = {"kind": "grid", "t": [0.0, 1.0, 2.0], "F": [0.0, 0.5, 1.0]}
    point = screens.screen_from_json(json.dumps({**blob, "full_support": True}))
    assert isinstance(screens.obs_inradius(point, 0.5), float)
    enclosed = screens.screen_from_json(json.dumps({**blob, "full_support": False}))
    assert isinstance(screens.obs_inradius(enclosed, 0.5), screens.ObsBounds)


@pytest.mark.parametrize("config, field", [
    ({"family": "hemisphere", "kappa": True, "n": [2, 4]}, "'kappa'"),
    ({"family": "hemisphere", "kappa": 1.0, "eta": False, "n": [2, 4]}, "'eta'"),
    ({"family": "hemisphere", "kappa": 1.0, "n": [True, 4]}, "n must be"),
    ({"family": "euclid_ball", "n": [True, 4],
      "schedule": {"kind": "power", "coef": 1.0, "exp": -0.5}}, "n must be"),
    ({"family": "euclid_ball", "n": [2, 4],
      "schedule": {"kind": "power", "coef": True, "exp": -0.5}}, "'coef'"),
    ({"family": "euclid_ball", "n": [2, 4],
      "schedule": {"kind": "power", "coef": 1.0, "exp": "-0.5"}}, "'exp'"),
    ({"family": "euclid_ball", "n": [2, 4], "schedule": {"kind": "const", "value": "1"}},
     "'value'"),
    ({"family": "euclid_ball", "n": [2, 4], "schedule": {"kind": "table", "values": [1]}},
     "'values'"),
    ({"family": "euclid_ball", "n": [2, 4],
      "schedule": {"kind": "table", "values": {"2": 1.0, "4": None}}}, "'values'"),
    ({"family": "euclid_ball", "n": [2, 4], "schedule": {"lambda": True}}, "True"),
])
def test_sweep_config_field_of_the_wrong_type_exits_2(capsys, tmp_path, config, field):
    if "schedule" in config:
        with pytest.raises(DomainError, match=field):
            asymptotics.SequenceSpec.from_json(json.dumps(config))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert field in exits_2(capsys, "sweep", "--config", str(path))


def test_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_bytes(b'{"vertices": \xff}')
    assert "cannot read" in exits_2(capsys, "graph", "rho", "--file", str(path))


@pytest.mark.parametrize("read", [graphs.BoundaryGraph.from_json, models.model_from_json,
                                  screens.screen_from_json, asymptotics.SequenceSpec.from_json])
def test_json_nested_past_the_recursion_limit_is_a_domain_error(read):
    with pytest.raises(DomainError, match="JSON"):
        read("[" * 100_000 + "]" * 100_000)


def test_problem_header_nested_past_the_recursion_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "problem.csv"
    path.write_text(_problem_text("[" * 100_000 + "]" * 100_000))
    assert "problem header" in exits_2(capsys, "spectrum", "--file", str(path))


@pytest.mark.parametrize("n, exp, needle", [
    ([1, 0, 8], -0.5, "n=0"),
    ([1, -1, 8], -0.5, "n=-1"),
    ([1, 4, 8], 10**30, "overflows at n=4"),
])
def test_power_schedule_outside_its_domain_exits_2(capsys, tmp_path, n, exp, needle):
    """n^exp is complex at n < 0, divides by zero at n = 0 and overflows for a
    huge exponent; each is an input error that names the n at fault."""
    config = {"family": "euclid_ball", "n": n,
              "schedule": {"kind": "power", "coef": 1.0, "exp": exp}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert needle in exits_2(capsys, "sweep", "--config", str(path))

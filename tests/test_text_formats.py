"""Text formats: every library writer's bytes, and one module that owns them.

Each writer runs on fixed inputs whose numbers take no library arithmetic
that could round differently on another platform, and its text must equal
the text recorded in ``text_formats.json``.  The golden CLI matrix compares
numbers to 1e-12 only, so these bytes are pinned here.  Rerecord with
``PYTHONPATH=src python tests/test_text_formats.py`` only when a format is
meant to change.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import boundarylab
from boundarylab import asymptotics, graphs, models, screens, spectral
from boundarylab.cli import main

RECORD = Path(__file__).with_name("text_formats.json")

GRAPH = {
    "vertices": 5,
    "edges": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 2.0], [0, 3, 1.5], [3, 4, 0.1]],
    "boundary": [0],
    "measure": [0.1, 0.2, 0.3, 0.25, 0.15],
}


MODELS = [
    {"tag": "ball", "n": 3, "kappa": 1, "lam": 0.2},
    {"tag": "warped", "n": 4, "kappa": -0.81},
    {"tag": "half_gaussian", "K": 2.0, "Lam": -1.0},
    {"tag": "exponential", "Lam": 0.7},
    {"tag": "weighted_warped_exp", "n": 2, "N": 6.5, "kappa": -0.36},
    {"tag": "weighted_warped_gauss", "n": 3, "kappa": -1.0, "delta": 0.4},
]


def _problem():
    t = np.concatenate([[0.0], np.cumsum(np.linspace(1e-3, 0.1, 40))])
    theta = 1.0 / (1.0 + t) ** 3
    return spectral.RadialProblem(t, theta, right_bc=spectral.Endpoint.NEUMANN,
                                  nonneg_ricci_f=True, note="a \"quoted\" note, with commas")


def _audit():
    entries = [
        spectral.AuditEntry("cheeger", None, None, 0.1, 1.0 / 3.0, "<=", 1.0 / 3.0 - 0.1, True),
        spectral.AuditEntry("bsep_eigen", 2, 0.3, 2.0 ** 0.5, 1e-17, ">=", 2.0 ** 0.5 - 1e-17,
                            True),
        spectral.AuditEntry("li_yau", 1, None, -0.0, 5e-324, "<=", 5e-324, False),
    ]
    return spectral.AuditReport(entries, {"grid_size": 41, "eta": [0.3, 0.7], "note": ""})


def _sweep(limit):
    report = asymptotics.SweepReport(verdict=asymptotics.Verdict.CONVERGES_TO_LIMIT)
    for n, value in ((2, 0.7), (5, 1.0 / 3.0), (80, 1e300)):
        report.add(n, value, limit)
    report.extras["numeric_trend_of_gap"] = "flat"
    return report


def _trend():
    report = graphs.TrendReport(r=0.25, eta=0.5)
    report.rows.append(graphs.TrendRow(0, 0.1, 2.0 / 3.0, 1e-9, 0.45))
    report.rows.append(graphs.TrendRow(1, 0.0, 0.3, 1.0 / 7.0, 1.0))
    return report


def _grid():
    return screens.GridScreen([0.0, 0.3, 1.0, 2.5], [0.1, 0.4, 0.9, 1.0])


def _atoms():
    return screens.AtomScreen([0.0, 0.7, 1.0 / 3.0], [0.2, 0.5, 0.3])


def _closed():
    return screens.scale(screens.closed_screen("uniform", width=3.0), 0.7)


def _cli(*argv, tmp_dir):
    argv = [a.replace("{dir}", str(tmp_dir)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


WRITERS = {
    "problem.csv": lambda d: _problem().to_csv(),
    "audit.json": lambda d: _audit().to_json(),
    "audit.csv": lambda d: _audit().to_csv(),
    "sweep.json": lambda d: _sweep(0.5).to_json(),
    "sweep.csv": lambda d: _sweep(0.5).to_csv(),
    "sweep_without_limit.json": lambda d: _sweep(math.nan).to_json(),
    "sweep_without_limit.csv": lambda d: _sweep(math.nan).to_csv(),
    "trend.json": lambda d: _trend().to_json(),
    "trend.csv": lambda d: _trend().to_csv(),
    "graph.json": lambda d: graphs.BoundaryGraph.from_json(json.dumps(GRAPH)).to_json(),
    "graph_rho.csv": lambda d: graphs.BoundaryGraph.from_json(json.dumps(GRAPH)).rho_csv(),
    "grid_screen.json": lambda d: _grid().to_json(),
    "grid_screen.csv": lambda d: _grid().to_csv(n=7),
    "atom_screen.json": lambda d: _atoms().to_json(),
    "atom_screen.csv": lambda d: _atoms().to_csv(n=5),
    "closed_screen.json": lambda d: _closed().to_json(),
    "closed_screen.csv": lambda d: _closed().to_csv(n=9),
    "ball_screen.json": lambda d: screens.closed_screen("ball", N=4, kappa=-1.0,
                                                        lam=1.5).to_json(),
    **{f"model_{blob['tag']}.json": (lambda blob: lambda d: models.model_from_json(
        json.dumps(blob)).to_json())(blob) for blob in MODELS},
    "cli_graph_rho.json": lambda d: _cli("graph", "rho", "--file", "{dir}/graph.json",
                                         tmp_dir=d),
    "cli_graph_rho.csv": lambda d: _cli("--format", "csv", "graph", "rho", "--file",
                                        "{dir}/graph.json", tmp_dir=d),
    "cli_graph_bsep.json": lambda d: _cli("graph", "bsep", "--file", "{dir}/graph.json",
                                          "--eta", "0.2", "--eta", "0.25", tmp_dir=d),
    "cli_graph_bsep.csv": lambda d: _cli("--format", "csv", "graph", "bsep", "--file",
                                         "{dir}/graph.json", "--eta", "0.2", tmp_dir=d),
    "cli_graph_screen.csv": lambda d: _cli("--format", "csv", "graph", "screen", "--file",
                                           "{dir}/graph.json", tmp_dir=d),
}


def _render(directory: Path) -> dict:
    (directory / "graph.json").write_text(json.dumps(GRAPH))
    return {name: write(directory) for name, write in WRITERS.items()}


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    return _render(tmp_path_factory.mktemp("text_formats"))


def test_record_covers_every_writer():
    assert sorted(json.loads(RECORD.read_text())) == sorted(WRITERS)


@pytest.mark.parametrize("name", list(WRITERS))
def test_writer_bytes_unchanged(name, rendered):
    assert rendered[name] == json.loads(RECORD.read_text())[name]


def test_only_the_text_module_writes_json_or_the_float_format():
    """The format is defined once: no other module calls ``json.dumps`` or
    writes the 17-digit float format."""
    src = Path(boundarylab.__file__).parent
    pattern = re.compile(r"json\.dumps\(|\.17g")
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if path.name != "_text.py" and pattern.search(path.read_text())]
    assert offenders == []
    assert pattern.search((src / "_text.py").read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = _render(Path(tmp))
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} writers to {RECORD}")

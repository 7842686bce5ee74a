"""Command-line front end.

Commands: model | compare | spectrum | audit | graph | sweep, with global
flags --format {json,csv,svg}, --out PATH, --seed N (accepted, read by no
command).  Outputs are deterministic (byte-identical across runs); exit
codes are 0 on success, 2 on input errors, 3 when the curvature data has no
comparison regime.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import _text
from .errors import DomainError, RegimeError

# Each command imports its own layer modules: a fresh process then loads
# only what it runs.  The package needs numpy alone, and model, compare and
# sweep run on math scalars and load no numpy either: the package imports it
# at the first array it builds (boundarylab._numpy), which only spectrum,
# audit and graph do.  Interpreter start plus import is most of a command's
# wall time.

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REGIME = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def svg_line_chart(xs, ys, xlabel: str, ylabel: str, title: str) -> str:
    """Minimal deterministic SVG polyline chart."""
    W, H, ML, MB, MT, MR = 640, 400, 70, 50, 30, 20
    pairs = [(x, y) for x, y in zip(map(float, xs), map(float, ys))
             if math.isfinite(x) and math.isfinite(y)] or [(0.0, 0.0)]
    xs, ys = zip(*pairs)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return ML + (x - x0) / (x1 - x0) * (W - ML - MR)

    def sy(y):
        return H - MB - (y - y0) / (y1 - y0) * (H - MB - MT)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pairs)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{ML}" y1="{H - MB}" x2="{W - MR}" y2="{H - MB}" stroke="black"/>',
        f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H - MB}" stroke="black"/>',
        f'<text x="{W // 2}" y="{H - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{H // 2}" font-size="12" transform="rotate(-90 18 {H // 2})" '
        f'text-anchor="middle">{ylabel}</text>',
        f'<text x="{ML}" y="{H - MB + 16}" font-size="10" text-anchor="middle">{_fmt(x0)}</text>',
        f'<text x="{W - MR}" y="{H - MB + 16}" font-size="10" text-anchor="middle">{_fmt(x1)}</text>',
        f'<text x="{ML - 6}" y="{H - MB}" font-size="10" text-anchor="end">{_fmt(y0)}</text>',
        f'<text x="{ML - 6}" y="{MT + 4}" font-size="10" text-anchor="end">{_fmt(y1)}</text>',
        f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def _write(args, to_json, to_csv, to_svg=None) -> int:
    """Emit the rendering ``--format`` selects; each is a zero-argument
    callable, and ``svg`` falls back to the CSV when there is no chart."""
    text = {"json": to_json, "svg": to_svg or to_csv}.get(args.format, to_csv)()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return EXIT_OK


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _flags(args, owner: str, names) -> list:
    """The values of the flags for ``names``, each read from its dest (``Lam``,
    ``lambda`` and ``Lambda`` all arrive as ``--lambda``, whose dest is ``lam``);
    ``DomainError("<owner> needs --flag")`` for the first missing one."""
    values = []
    for name in names:
        dest = "lam" if name in ("Lam", "lambda", "Lambda") else name
        if getattr(args, dest) is None:
            raise DomainError(f"{owner} needs --{'lambda' if dest == 'lam' else dest}")
        values.append(getattr(args, dest))
    return values


def _write_table(args, blob, names, columns, chart=None) -> int:
    """Write ``blob()`` as JSON, ``columns`` under ``names`` as CSV and, given a
    ``chart`` (y label, title), the second column against the first as SVG."""
    return _write(args, lambda: _text.dumps(blob()), lambda: _text.csv_text(names, columns),
                  chart and (lambda: svg_line_chart(*columns[:2], names[0], *chart)))


def _model_from_args(args):
    from . import models

    if args.descriptor:
        return models.model_from_json(args.descriptor)
    if not args.tag:
        raise DomainError("need --tag or --descriptor")
    if args.tag not in models._FIELDS:
        raise DomainError(f"unknown tag {args.tag!r}")
    return getattr(models.ModelSpace, args.tag)(
        *_flags(args, f"model tag {args.tag!r}", models._FIELDS[args.tag]))


def cmd_model(args) -> int:
    from . import models

    m = _model_from_args(args)
    etas = args.eta or [0.5]
    names = ("eta", "obs_inradius")
    columns = (etas, [models.closed_form_obs_inradius(m, eta) for eta in etas])
    upper = models.boundary_screen(m).upper_support
    return _write_table(
        args,
        lambda: {
            "model": json.loads(m.to_json()),
            "upper_support": upper if math.isfinite(upper) else "inf",
            "rows": [dict(zip(names, row)) for row in zip(*columns)],
        },
        names, columns, ("observable inscribed radius", f"model {m.tag}"),
    )


def cmd_compare(args) -> int:
    from . import models

    etas = args.eta or [0.5]
    fields, build = models.REGIMES[args.regime]
    values = _flags(args, f"regime {args.regime!r}", fields)
    kind = build(*values)
    params = dict(zip(fields, values))
    names, columns = ("eta", "bound"), (etas, [models.comparison_bound(kind, eta) for eta in etas])
    rows = [dict(zip(names, row)) for row in zip(*columns)]
    return _write_table(args, lambda: {"regime": args.regime, "params": params, "rows": rows},
                        names, columns, ("comparison bound", f"{args.regime} comparison"))


def cmd_spectrum(args) -> int:
    from . import spectral

    p = spectral.RadialProblem.from_csv(_read_file(args.file))
    res = spectral.dirichlet_spectrum(p, args.k)
    err = res.estimated_discretization_error
    return _write_table(
        args,
        lambda: {
            "eigenvalues": res.eigenvalues.tolist(),
            "grid_size": res.grid_size,
            "estimated_discretization_error": None if math.isnan(err) else err,
            "note": p.note,
        },
        ("k", "eigenvalue"), (range(1, res.eigenvalues.size + 1), res.eigenvalues),
        ("eigenvalue", "Dirichlet spectrum"),
    )


def cmd_audit(args) -> int:
    from . import spectral

    p = spectral.RadialProblem.from_csv(_read_file(args.file))
    report = spectral.audit_inequalities(p, args.k, args.eta or [0.5])
    margins = [e.margin for e in report.entries]
    return _write(
        args, report.to_json, report.to_csv,
        lambda: svg_line_chart(range(len(margins)), margins,
                               "entry", "margin", "inequality audit margins"),
    )


def cmd_graph(args) -> int:
    from . import graphs

    g = graphs.BoundaryGraph.from_json(_read_file(args.file))
    if args.subcommand == "rho":
        return _write(args, lambda: _text.dumps({"rho": g.rho.tolist()}), g.rho_csv)
    if args.subcommand == "screen":
        s = graphs.graph_screen(g)
        return _write(args, s.to_json, s.to_csv)
    if args.subcommand == "bsep":
        etas = args.eta or [0.5]
        value = graphs.bsep_k(g, etas, mode=args.mode)
        return _write_table(args, lambda: {"etas": etas, "mode": args.mode, "value": value},
                            ("mode", "value"), ([args.mode], [value]))
    raise DomainError(f"unknown graph subcommand {args.subcommand!r}")


def cmd_sweep(args) -> int:
    from . import asymptotics

    family, report = asymptotics.run_config(_read_file(args.config))
    return _write(
        args, report.to_json, report.to_csv,
        lambda: svg_line_chart([r.n for r in report.rows], [r.value for r in report.rows],
                               "n", "value", f"{family} sweep"),
    )


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="boundarylab",
        description="boundary-concentration invariants: models, spectra, audits, sweeps",
    )
    ap.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    ap.add_argument("--out", default=None, help="write output to this path")
    ap.add_argument("--seed", type=int, default=0,
                    help="accepted; no command reads it, so it changes no output")
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # subcommand-level omission from clobbering a value parsed at the root
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "svg"),
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    # the parameters of models and comparison regimes
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--n", type=int, default=None)
    params.add_argument("--N", type=float, default=None)
    params.add_argument("--kappa", type=float, default=None)
    params.add_argument("--lambda", dest="lam", type=float, default=None)
    params.add_argument("--K", type=float, default=None)
    params.add_argument("--delta", type=float, default=None)
    params.add_argument("--eta", type=float, action="append")

    p = sub.add_parser("model", parents=[common, params],
                       help="closed-form invariants of a catalog model")
    p.add_argument("--tag", default=None)
    p.add_argument("--descriptor", default=None, help="model JSON descriptor")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("compare", parents=[common, params],
                       help="comparison upper bound for ObsInRad")
    p.add_argument("--regime", required=True, choices=("finite", "twisted", "infinite"))
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("spectrum", parents=[common], help="Dirichlet spectrum of a radial problem")
    p.add_argument("--file", required=True)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("audit", parents=[common], help="eigenvalue-inequality audit of a radial problem")
    p.add_argument("--file", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--eta", type=float, action="append")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("graph", parents=[common], help="boundary-graph analysis")
    p.add_argument("subcommand", choices=("rho", "screen", "bsep"))
    p.add_argument("--file", required=True)
    p.add_argument("--eta", type=float, action="append")
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("sweep", parents=[common], help="sequence sweep or concentration classification")
    p.add_argument("--config", required=True, help="JSON sweep configuration")
    p.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes
        return EXIT_INPUT if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

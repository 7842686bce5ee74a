"""Command-line front end.

Commands: model | compare | spectrum | audit | graph | sweep, with
global flags --format {json,csv,svg}, --out PATH, --seed N.  Outputs are
deterministic (byte-identical across runs); exit codes are 0 on success,
2 on input errors, 3 when the curvature data has no comparison regime.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import DomainError, RegimeError

# Each command imports its own layer modules: a fresh process then loads
# only what it runs (``graph`` none of scipy.special/linalg/optimize/integrate,
# ``compare`` no scipy.linalg); interpreter start plus import is most of a
# command's wall time.

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REGIME = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def svg_line_chart(xs, ys, xlabel: str, ylabel: str, title: str) -> str:
    """Minimal deterministic SVG polyline chart."""
    W, H, ML, MB, MT, MR = 640, 400, 70, 50, 30, 20
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    good = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[good], ys[good]
    if xs.size == 0:
        xs = ys = np.array([0.0])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return ML + (x - x0) / (x1 - x0) * (W - ML - MR)

    def sy(y):
        return H - MB - (y - y0) / (y1 - y0) * (H - MB - MT)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
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


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _need(args, owner: str, *names):
    """Raise ``DomainError("<owner> needs --flag")`` for the first missing flag."""
    for name in names:
        if getattr(args, name) is None:
            flag = {"lam": "--lambda"}.get(name, f"--{name}")
            raise DomainError(f"{owner} needs {flag}")


def _model_from_args(args):
    from . import models

    if args.descriptor:
        return models.model_from_json(args.descriptor)
    if not args.tag:
        raise DomainError("need --tag or --descriptor")
    tag = args.tag
    owner = f"model tag {tag!r}"
    if tag == "ball":
        _need(args, owner, "n", "kappa", "lam")
        return models.ModelSpace.ball(args.n, args.kappa, args.lam)
    if tag == "warped":
        _need(args, owner, "n", "kappa")
        return models.ModelSpace.warped(args.n, args.kappa)
    if tag == "half_gaussian":
        _need(args, owner, "K", "lam")
        return models.ModelSpace.half_gaussian(args.K, args.lam)
    if tag == "exponential":
        _need(args, owner, "lam")
        return models.ModelSpace.exponential(args.lam)
    if tag == "weighted_warped_exp":
        _need(args, owner, "n", "N", "kappa")
        return models.ModelSpace.weighted_warped_exp(args.n, args.N, args.kappa)
    if tag == "weighted_warped_gauss":
        _need(args, owner, "n", "kappa", "delta")
        return models.ModelSpace.weighted_warped_gauss(args.n, args.kappa, args.delta)
    raise DomainError(f"unknown tag {tag!r}")


def cmd_model(args) -> int:
    from . import jacobi, models

    m = _model_from_args(args)
    etas = args.eta or [0.5]
    rows = [
        {"eta": eta, "obs_inradius": models.closed_form_obs_inradius(m, eta)}
        for eta in etas
    ]
    # the support of the boundary screen: the comparison radius of a ball
    upper = jacobi.c_radius(jacobi.classify(m.kappa, m.lam)) if m.tag == "ball" else math.inf
    if args.format == "json":
        _emit(args, json.dumps({
            "model": json.loads(m.to_json()),
            "upper_support": upper if math.isfinite(upper) else "inf",
            "rows": rows,
        }))
    elif args.format == "csv":
        body = "eta,obs_inradius\n" + "".join(
            f"{r['eta']:.17g},{r['obs_inradius']:.17g}\n" for r in rows
        )
        _emit(args, body)
    else:
        _emit(args, svg_line_chart(
            [r["eta"] for r in rows], [r["obs_inradius"] for r in rows],
            "eta", "observable inscribed radius", f"model {m.tag}",
        ))
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import jacobi, models

    etas = args.eta or [0.5]
    owner = f"regime {args.regime!r}"
    if args.regime == "finite":
        _need(args, owner, "N", "kappa", "lam")
        kind = models.FiniteN(args.N, jacobi.classify(args.kappa, args.lam))
        params = {"N": args.N, "kappa": args.kappa, "lambda": args.lam}
    elif args.regime == "twisted":
        _need(args, owner, "n", "kappa", "lam", "delta")
        kind = models.Twisted(jacobi.TwistParams(args.n, args.kappa, args.lam, args.delta))
        params = {"n": args.n, "kappa": args.kappa, "lambda": args.lam, "delta": args.delta}
    elif args.regime == "infinite":
        _need(args, owner, "K", "lam")
        kind = models.Infinite(jacobi.classify_infinite(args.K, args.lam))
        params = {"K": args.K, "Lambda": args.lam}
    else:
        raise DomainError(f"unknown regime {args.regime!r}")
    rows = [{"eta": eta, "bound": models.comparison_bound(kind, eta)} for eta in etas]
    if args.format == "json":
        _emit(args, json.dumps({"regime": args.regime, "params": params, "rows": rows}))
    elif args.format == "csv":
        _emit(args, "eta,bound\n" + "".join(
            f"{r['eta']:.17g},{r['bound']:.17g}\n" for r in rows
        ))
    else:
        _emit(args, svg_line_chart(
            [r["eta"] for r in rows], [r["bound"] for r in rows],
            "eta", "comparison bound", f"{args.regime} comparison",
        ))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from . import spectral

    p = spectral.RadialProblem.from_csv(_read_file(args.file))
    res = spectral.dirichlet_spectrum(p, args.k)
    err = res.estimated_discretization_error
    if args.format == "json":
        _emit(args, json.dumps({
            "eigenvalues": res.eigenvalues.tolist(),
            "grid_size": res.grid_size,
            "estimated_discretization_error": None if math.isnan(err) else err,
            "note": p.note,
        }))
    elif args.format == "csv":
        _emit(args, "k,eigenvalue\n" + "".join(
            f"{i + 1},{v:.17g}\n" for i, v in enumerate(res.eigenvalues)
        ))
    else:
        _emit(args, svg_line_chart(
            np.arange(1, res.eigenvalues.size + 1), res.eigenvalues,
            "k", "eigenvalue", "Dirichlet spectrum",
        ))
    return EXIT_OK


def cmd_audit(args) -> int:
    from . import spectral

    p = spectral.RadialProblem.from_csv(_read_file(args.file))
    report = spectral.audit_inequalities(p, args.k, args.eta or [0.5])
    if args.format == "json":
        _emit(args, report.to_json())
    elif args.format == "csv":
        _emit(args, report.to_csv())
    else:
        margins = [e.margin for e in report.entries]
        _emit(args, svg_line_chart(
            np.arange(len(margins)), margins,
            "entry", "margin", "inequality audit margins",
        ))
    return EXIT_OK


def cmd_graph(args) -> int:
    from . import graphs

    g = graphs.BoundaryGraph.from_json(_read_file(args.file))
    if args.subcommand == "rho":
        if args.format == "json":
            _emit(args, json.dumps({"rho": g.rho.tolist()}))
        else:
            _emit(args, g.rho_csv())
    elif args.subcommand == "screen":
        s = graphs.graph_screen(g)
        if args.format == "json":
            _emit(args, s.to_json())
        else:
            _emit(args, s.to_csv())
    elif args.subcommand == "bsep":
        etas = args.eta or [0.5]
        value = graphs.bsep_k(g, etas, mode=args.mode)
        if args.format == "json":
            _emit(args, json.dumps({"etas": etas, "mode": args.mode, "value": value}))
        else:
            _emit(args, "mode,value\n" + f"{args.mode},{value:.17g}\n")
    else:
        raise DomainError(f"unknown graph subcommand {args.subcommand!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from . import asymptotics

    cfg = json.loads(_read_file(args.config))
    family = cfg.get("family")
    if family is None:
        raise DomainError("sweep config needs a 'family' field")
    eta = float(cfg.get("eta", 0.5))
    if "schedule" in cfg:
        spec = asymptotics.SequenceSpec.from_json(json.dumps(cfg))
        report = asymptotics.classify_concentration(spec, eta)
    else:
        ns = cfg.get("n")
        if not ns:
            raise DomainError("sweep config needs an 'n' list")
        if family == "hemisphere":
            report = asymptotics.hemisphere_sweep(float(cfg["kappa"]), eta, ns)
        elif family == "euclid_ball":
            report = asymptotics.euclid_ball_sweep(float(cfg["lambda"]), eta, ns)
        elif family == "warped":
            report = asymptotics.warped_sweep(float(cfg["kappa"]), eta, ns)
        else:
            raise DomainError(
                f"family {family!r} needs a 'schedule' (classification) or must "
                "be one of hemisphere/euclid_ball/warped (canonical sweep)"
            )
    if args.format == "json":
        _emit(args, report.to_json())
    elif args.format == "csv":
        _emit(args, report.to_csv())
    else:
        _emit(args, svg_line_chart(
            [r.n for r in report.rows], [r.value for r in report.rows],
            "n", "value", f"{family} sweep",
        ))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="boundarylab",
        description="boundary-concentration invariants: models, spectra, audits, sweeps",
    )
    ap.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    ap.add_argument("--out", default=None, help="write output to this path")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized subroutines (outputs stay deterministic)")
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # subcommand-level omission from clobbering a value parsed at the root
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "svg"),
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", parents=[common],
                       help="closed-form invariants of a catalog model")
    p.add_argument("--tag", default=None)
    p.add_argument("--descriptor", default=None, help="model JSON descriptor")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", type=float, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--K", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eta", type=float, action="append")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("compare", parents=[common], help="comparison upper bound for ObsInRad")
    p.add_argument("--regime", required=True, choices=("finite", "twisted", "infinite"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", type=float, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--K", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eta", type=float, action="append")
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
    except (DomainError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

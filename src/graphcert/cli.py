"""Command-line interface.

Subcommands:
  certify     full certificate-gated run: graph + config -> report JSON
  bands       report scoped to the centrality bands section
  cluster     report scoped to the clustering region
  stability   report scoped to the selection-stability certificate
  fairness    report scoped to fairness feasibility
  filtration  report scoped to the filtration envelope
  simulate    Monte Carlo coverage validation of a declared model
  example-sbm emit the worked n=200 two-block instance and its certificates

Exit codes: 0 = report produced (refusals included), 1 = invalid input,
2 = internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .errors import GraphCertError
from .io import load_edge_list, load_model_json, model_to_dict
from .models import two_block_sbm, two_block_spectrum
from .protocol import (
    config_from_dict,
    report_to_json,
    run_protocol,
)
from .simulation import ALL_CLAIMS, CoverageConfig, coverage_experiment

_SCOPED = {
    "bands": "centrality_bands",
    "cluster": "cluster",
    "stability": "stability",
    "fairness": "fairness",
    "filtration": "filtration",
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="edge-list file (u<TAB>v per line)")
    p.add_argument("--config", required=True, help="protocol config JSON")
    p.add_argument("--alpha", type=float, default=None, help="override config alpha")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--n", type=int, default=None, help="node count override")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcert",
        description="Certificate-gated confidence regions for spectral graph objects",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("certify", *_SCOPED):
        p = sub.add_parser(name)
        _add_common(p)

    sim = sub.add_parser("simulate")
    sim.add_argument("--model", required=True, help="model spec JSON")
    sim.add_argument("--k", type=int, default=None, help="embedding dimension")
    sim.add_argument("--reps", type=int, default=200)
    sim.add_argument("--alpha", type=float, default=0.1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--claims",
        default="all",
        choices=("all",) + ALL_CLAIMS,
    )
    sim.add_argument("--out", default=None)
    sim.add_argument("--format", choices=("json", "csv"), default="json")

    ex = sub.add_parser("example-sbm")
    ex.add_argument("--out", default=None)
    ex.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _flatten(obj, prefix="", rows=None):
    if rows is None:
        rows = []
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(val, f"{prefix}{key}.", rows)  # dotted paths; lists index numerically
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, val in enumerate(seq):
            _flatten(val, f"{prefix}{i}.", rows)
    else:
        key = prefix[:-1] if prefix.endswith(".") else prefix
        if isinstance(obj, float):
            rows.append((key, format(obj, ".17g")))
        else:
            rows.append((key, str(obj)))
    return rows


def _to_csv(doc: dict) -> str:
    rows = _flatten(doc)
    return "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"


def _emit(doc: dict, out, fmt: str) -> None:
    text = report_to_json(doc) + "\n" if fmt == "json" else _to_csv(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_report(args, scope=None) -> int:
    A = load_edge_list(args.graph, n=args.n)
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg_dict = json.load(fh)
    if args.alpha is not None:
        cfg_dict["alpha"] = args.alpha
    config = config_from_dict(cfg_dict)
    report = run_protocol(A, config)
    doc = report.to_dict()
    if scope is not None:
        doc["outputs"] = {
            key: val for key, val in doc["outputs"].items() if key == scope
        }
        doc["refusals"] = [r for r in doc["refusals"] if r["output"] == scope]
    _emit(doc, args.out, args.format)
    return 0


def _run_simulate(args) -> int:
    model = load_model_json(args.model)
    k = args.k
    if k is None:
        spec = model.spec
        if hasattr(spec, "B"):
            k = int(np.asarray(spec.B).shape[0])
        else:
            raise ValueError("--k is required for non-block models")
    claims = ALL_CLAIMS if args.claims == "all" else (args.claims,)
    config = CoverageConfig(k=k, alpha=args.alpha, claims=claims)
    result = coverage_experiment(model, config, args.reps, args.seed)
    _emit(result.to_dict(), args.out, args.format)
    return 0


def _run_example(args) -> int:
    n, p, q = 200, 0.3, 0.1
    model = two_block_sbm(n, p, q)
    spectrum = two_block_spectrum(n, p, q)
    m = n // 2
    beta = Fraction(1, 4) / Fraction(int(round(spectrum.lam1 * 10)), 10)
    doc = {
        "model": model_to_dict(model),
        "certificates": {
            "d_max": spectrum.lam1,
            "gap": spectrum.gap2,
            "spectrum": {
                "lam1": spectrum.lam1,
                "lam2": spectrum.lam2,
                "bulk": spectrum.lam_rest,
                "bulk_multiplicity": n - 2,
            },
            "clustering_margin": 2.0 / math.sqrt(n),
            "katz_beta": float(beta),
            "katz_beta_exact": f"{beta.numerator}/{beta.denominator}",
            "katz_modulus": float(4 * beta),
        },
        "config": {
            "k": 2,
            "alpha": 0.05,
            "envelope": {"d_max": spectrum.lam1, "gap": spectrum.gap2},
            "centrality": {
                "kind": "katz",
                "beta": float(beta),
                "domain_certified": True,
            },
            "clustering": {
                "delta": 2.0 / math.sqrt(n),
                "centers": [
                    [1.0 / math.sqrt(n), 1.0 / math.sqrt(n)],
                    [1.0 / math.sqrt(n), -1.0 / math.sqrt(n)],
                ],
            },
            "selection_m": 5,
        },
        "notes": [
            "equal-two-block instance: n=200, within 3/10, between 1/10",
            "expected subspace radius exceeds 1 at conventional alpha: "
            "valid but flagged non-informative",
        ],
    }
    _emit(doc, args.out, args.format)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "certify":
            return _run_report(args)
        if args.command in _SCOPED:
            return _run_report(args, scope=_SCOPED[args.command])
        if args.command == "simulate":
            return _run_simulate(args)
        if args.command == "example-sbm":
            return _run_example(args)
        parser.error(f"unknown command {args.command!r}")
    except (np.linalg.LinAlgError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (GraphCertError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

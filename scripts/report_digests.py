"""Print one sha256 line per report and coverage JSON of a fixed corpus.

    PYTHONPATH=src python3 scripts/report_digests.py > digests.txt

The corpus covers every certificate route and output block of
``run_protocol``, the coverage harness's main modes, and ``graphcert
certify`` end to end: for two of the configs the sampled graph is written
as an edge-list file and the report file the CLI writes is digested, so the
edge-list reader and the report writer are covered too. ``kmeans_k3``
clusters the top-3 embedding into three groups, so K-means is digested
with more than two clusters as well. Two checkouts
whose lines all agree write byte-identical results on it. graphcert is
imported from whatever ``PYTHONPATH`` names; run the script once per
checkout and ``diff`` the outputs. It uses only long-standing public API
(``config_from_dict``, ``run_protocol``, ``report_to_json``,
``CoverageConfig``, ``coverage_experiment``, ``cli.main``), so it also runs
on older checkouts. Each line is ``<sha256>  <artifact name>``; to compare
the artifacts themselves, import the script and iterate ``artifacts()``.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from graphcert.cli import main as cli_main

from graphcert.models import Envelope, sample_adjacency, two_block_sbm, two_block_spectrum
from graphcert.protocol import config_from_dict, report_to_json, run_protocol
from graphcert.simulation import CoverageConfig, coverage_experiment

P_IN, P_OUT = 0.3, 0.1
T_GRID = [-0.1, 0.0, 0.05, 0.2]
REPORT_SIZES = (200, 600)
REPORT_SEEDS = (1, 2)
COVERAGE_SEEDS = (1, 2, 3)
COVERAGE_REPLICATIONS = 6
CLI_CONFIGS = ("usvt_eigenvector_kmeans", "declared_katz_centers")


def _report_configs(n: int) -> dict:
    """Config documents by name for the two-block SBM at size n."""
    spec = two_block_spectrum(n, P_IN, P_OUT)
    d_max, gap = spec.lam1, spec.gap2
    delta = 2.0 / math.sqrt(n)
    centre = 1.0 / math.sqrt(n)
    centers = [[centre, centre], [centre, -centre]]
    groups = [i % 2 for i in range(n)]
    targets = [((7 * i) % 11) / 10.0 for i in range(n)]
    katz = {"kind": "katz", "beta": 1.0 / (4.0 * d_max), "domain_certified": True}
    eigenvector = {"kind": "eigenvector", "gamma": 0.9 * (spec.lam1 - spec.lam2),
                   "domain_certified": True}
    labels = [0] * (n // 2) + [1] * (n // 2)
    return {
        "declared_katz_centers": {
            "k": 2, "alpha": 0.05,
            "envelope": {"d_max": d_max, "gap": gap},
            "centrality": katz,
            "clustering": {"delta": delta, "centers": centers, "c_row": 0.01},
            "selection_m": 5,
            "fairness": {"groups": groups, "targets": targets, "tau": 2.0, "epsilon": 0.8},
            "filtration": {"t_grid": T_GRID},
        },
        "usvt_eigenvector_kmeans": {
            "k": 2, "alpha": 0.05,
            "envelope": {"d_max": d_max},
            "usvt": {"threshold_scale": 2.02, "eps_p": n / 100.0},
            "centrality": eigenvector,
            "clustering": {"delta": delta, "c_row": 5.0},
            "selection_m": 5,
            "fairness": {"groups": groups, "targets": targets, "tau": 0.5, "epsilon": 0.2},
            "filtration": {"t_grid": T_GRID},
        },
        "parametric_katz_no_c_row": {
            "k": 2, "alpha": 0.1,
            "envelope": {"d_max": d_max},
            "parametric_spec": {"type": "sbm", "labels": labels,
                                "B": [[P_IN, P_OUT], [P_OUT, P_IN]]},
            "centrality": {"kind": "katz", "beta": 1.0 / (4.0 * d_max)},
            "clustering": {"delta": delta},
            "selection_m": 3,
            "filtration": {"t_grid": T_GRID},
        },
        "parametric_eigenvector": {
            "k": 2, "alpha": 0.1,
            "envelope": {"d_max": d_max},
            "parametric_spec": {"type": "sbm", "labels": labels,
                                "B": [[P_IN, P_OUT], [P_OUT, P_IN]]},
            "centrality": {"kind": "eigenvector"},
            "selection_m": 3,
        },
        "no_gap_route": {
            "k": 2, "alpha": 0.05,
            "envelope": {"d_max": d_max},
            "centrality": katz,
            "clustering": {"delta": delta, "c_row": 0.01},
            "selection_m": 5,
            "filtration": {"t_grid": T_GRID},
        },
        "declared_centers_no_c_row": {
            "k": 2, "alpha": 0.05,
            "envelope": {"d_max": d_max, "gap": 1.0},
            "clustering": {"delta": delta, "centers": centers},
        },
        "kmeans_k3": {
            "k": 3, "alpha": 0.05,
            "envelope": {"d_max": d_max, "gap": 1.0},
            "clustering": {"delta": delta},
        },
        "katz_refused_at_observation": {
            "k": 2, "alpha": 0.05,
            "envelope": {"d_max": d_max, "gap": gap},
            "centrality": {"kind": "katz", "beta": 0.5, "domain_certified": True},
            "selection_m": 5,
            "fairness": {"groups": groups, "targets": targets, "tau": 2.0, "epsilon": 0.8},
        },
        "bare": {"k": 2},
    }


def _coverage_configs() -> dict:
    """Coverage configs by name for the n=200 worked instance."""
    return {
        "oracle": CoverageConfig(k=2, alpha=0.1),
        "oracle_c_row": CoverageConfig(k=2, alpha=0.1, c_row=0.01),
        "declared_gap": CoverageConfig(k=2, alpha=0.1, envelope=Envelope(d_max=45.0, gap=18.0)),
        "declared_no_gap": CoverageConfig(k=2, alpha=0.1, envelope=Envelope(d_max=45.0)),
        "empty_envelope_no_audits": CoverageConfig(
            k=2, alpha=0.1, envelope=Envelope(), audit_inequalities=False
        ),
        "katz_beta_0.5": CoverageConfig(k=2, alpha=0.1, katz_beta=0.5),
        "katz_beta_near_domain_edge": CoverageConfig(k=2, alpha=0.1, katz_beta=1 / (2 * 39.9)),
        "deviation_only_no_audits": CoverageConfig(
            k=2, alpha=0.1, claims=("deviation",), audit_inequalities=False
        ),
        "no_audits": CoverageConfig(k=2, alpha=0.1, audit_inequalities=False),
    }


def _edge_list(A) -> str:
    """The graph as edge-list text, one "u<TAB>v" line per pair u < v."""
    rows, cols = np.triu(A.A, 1).nonzero()
    return "".join(f"{u}\t{v}\n" for u, v in zip(rows.tolist(), cols.tolist()))


def _cli_report(workdir: Path, name: str, doc: dict, A) -> str:
    """The report ``graphcert certify`` writes for graph A and config doc."""
    graph, config, out = (workdir / f"{name}.{ext}" for ext in ("tsv", "json", "report.json"))
    graph.write_text(_edge_list(A), encoding="utf-8")
    config.write_text(json.dumps(doc), encoding="utf-8")
    code = cli_main(["certify", "--graph", str(graph), "--config", str(config), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"graphcert certify exited {code} on {name}")
    return out.read_text(encoding="utf-8")


def artifacts():
    """Yield ``(name, text)`` for every artifact of the corpus, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        for n in REPORT_SIZES:
            model = two_block_sbm(n, P_IN, P_OUT)
            docs = _report_configs(n)
            configs = {name: config_from_dict(doc) for name, doc in docs.items()}
            for seed in REPORT_SEEDS:
                A = sample_adjacency(model, seed)
                for name, config in configs.items():
                    yield f"report/n{n}/seed{seed}/{name}", run_protocol(A, config).to_json()
                for name in CLI_CONFIGS:
                    text = _cli_report(Path(tmp), f"n{n}_seed{seed}_{name}", docs[name], A)
                    yield f"cli/n{n}/seed{seed}/{name}", text
    model = two_block_sbm(200, P_IN, P_OUT)
    for name, config in _coverage_configs().items():
        for seed in COVERAGE_SEEDS:
            result = coverage_experiment(model, config, COVERAGE_REPLICATIONS, seed)
            yield f"coverage/{name}/seed{seed}", report_to_json(result.to_dict())


def main() -> None:
    for name, text in artifacts():
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}")


if __name__ == "__main__":
    main()

"""Print one sha256 line per report and coverage JSON of a fixed corpus.

    PYTHONPATH=src python3 scripts/report_digests.py > digests.txt

The corpus covers every certificate route and output block of
``run_protocol`` and the coverage harness's main modes, so two checkouts
whose lines all agree write byte-identical results on it. graphcert is
imported from whatever ``PYTHONPATH`` names; run the script once per
checkout and ``diff`` the outputs. It uses only long-standing public API
(``config_from_dict``, ``run_protocol``, ``report_to_json``,
``CoverageConfig``, ``coverage_experiment``), so it also runs on older
checkouts. Each line is ``<sha256>  <artifact name>``.
"""

from __future__ import annotations

import hashlib
import math

from graphcert.models import Envelope, sample_adjacency, two_block_sbm, two_block_spectrum
from graphcert.protocol import config_from_dict, report_to_json, run_protocol
from graphcert.simulation import CoverageConfig, coverage_experiment

P_IN, P_OUT = 0.3, 0.1
T_GRID = [-0.1, 0.0, 0.05, 0.2]
REPORT_SIZES = (200, 600)
REPORT_SEEDS = (1, 2)
COVERAGE_SEEDS = (1, 2, 3)
COVERAGE_REPLICATIONS = 6


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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    for n in REPORT_SIZES:
        model = two_block_sbm(n, P_IN, P_OUT)
        configs = {name: config_from_dict(doc) for name, doc in _report_configs(n).items()}
        for seed in REPORT_SEEDS:
            A = sample_adjacency(model, seed)
            for name, config in configs.items():
                print(f"{_sha(run_protocol(A, config).to_json())}  report/n{n}/seed{seed}/{name}")
    model = two_block_sbm(200, P_IN, P_OUT)
    for name, config in _coverage_configs().items():
        for seed in COVERAGE_SEEDS:
            result = coverage_experiment(model, config, COVERAGE_REPLICATIONS, seed)
            print(f"{_sha(report_to_json(result.to_dict()))}  coverage/{name}/seed{seed}")


if __name__ == "__main__":
    main()

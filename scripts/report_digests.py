"""Print one sha256 line per report and coverage JSON of a fixed corpus.

    PYTHONPATH=src python3 scripts/report_digests.py > digests.txt

The corpus covers every certificate route and output block of
``run_protocol``, the coverage harness's main modes, and ``graphcert
certify`` end to end: for two of the configs the sampled graph is written
as an edge-list file and the report file the CLI writes is digested, so the
edge-list reader and the report writer are covered too. One more CLI
artifact spells its graph file with CRLF line ends, a blank line and
reversed pairs, so the reader's general tokenizer is digested as well; its
report equals that of the canonical file of the same graph. ``kmeans_k3``
clusters the top-3 embedding into three groups, so K-means is digested
with more than two clusters as well, and ``parametric_disassortative``
declares a spec whose exact 2-gap is 0, so its D2 refusal is digested.
``fairness_fallback`` sets one report's fairness tolerance 1e-9 above the
band slack r/tau that report shows, below the sigmoid floor, so the
optimizer's least-violation branch is digested too (``certified`` false).
Six more configs reach the D3 outcomes the others do not: a Katz spec
outside its domain, Katz and eigenvector declarations that are not
certified, a declared gamma of 0, a band whose modulus overflows, and
``selection_m`` without a centrality block. The USVT artifacts cover both
reads of the 2-gap of ``P_hat``: ``usvt_eigenvector_kmeans`` at n = 600
clips no entry, so the gap is the certified Rayleigh-Ritz read of the
operator on the kept pairs; at n = 200 an entry clips, and
``usvt_one_kept_pair`` sets the threshold between the two outliers, so
only lambda_1 is kept (k > p): both take the reduction of the
materialized ``P_hat``. Every report at n = 600, and two at n = 2000
(seed 1), ``declared_katz_centers`` and ``parametric_eigenvector``, take
the Krylov route of the observed spectrum (``KrylovSpectrum``, from
``protocol.KRYLOV_N0`` nodes on): one Lanczos run, a certified top-pair
read started at its Ritz vectors, lambda_{k+1} bracketed by one Cholesky,
and Katz by conjugate gradients; a parametric config also reduces its
parametric P. The n = 600 USVT reports read their kept pairs from the
same certified read, with one more Cholesky proving that no eigenvalue
lies at or below -thr. Every other report is smaller than ``KRYLOV_N0``,
so its observed spectrum is the one Householder reduction. The corpus
has 107 artifacts.
Two checkouts whose lines all agree write byte-identical results on it.
An artifact's bytes are its report as ``report_to_json`` writes it: the
standard library's JSON encoder, 2-space indent, each real in its shortest
round-trip spelling. Checkouts older than that writer spell reals with 17
significant digits, so every digest differs from theirs although no
value does; ``--compare`` (below) tells the two apart.
graphcert is imported from whatever ``PYTHONPATH`` names, and only where
the corpus is built; run the script once per checkout and ``diff`` the
outputs. It uses only long-standing public API (``config_from_dict``,
``run_protocol``, ``report_to_json``, ``CoverageConfig``,
``coverage_experiment``, ``cli.main``), so it also runs on older
checkouts. Each line is ``<sha256>  <artifact name>``.

To compare the artifacts themselves under the results contract, dump each
checkout's artifacts and compare the two directories:

    PYTHONPATH=src python3 scripts/report_digests.py --dump before/
    PYTHONPATH=src python3 scripts/report_digests.py --dump after/
    python3 scripts/report_digests.py --compare before/ after/

The contract: reals agree within 1e-9 relative, and every other leaf
(flags, counts, labels, strings, refusals, selected sets) is equal. The
compare prints one line per moved leaf, naming the artifact and the path
to the leaf, and nothing when no leaf moved; it exits 1 when some leaf
moved or some artifact is missing on one side. The compare reads only the
JSON files and imports no graphcert, so it runs from any checkout, with or
without ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

P_IN, P_OUT = 0.3, 0.1
T_GRID = [-0.1, 0.0, 0.05, 0.2]
REPORT_SIZES = (200, 600)
REPORT_SEEDS = (1, 2)
# (n, seed, configs) of the reports on the Krylov route
LARGE_REPORTS = (2000, 1, ("declared_katz_centers", "parametric_eigenvector"))
COVERAGE_SEEDS = (1, 2, 3)
COVERAGE_REPLICATIONS = 6
CLI_CONFIGS = ("usvt_eigenvector_kmeans", "declared_katz_centers")
# (n, seed, config) of the one CLI artifact whose graph file is not canonical
NONCANONICAL_CLI = (200, 1, "declared_katz_centers")
# (n, seed, config) of the one report re-run with its fairness tolerance just
# above the band slack, and by how much
FAIRNESS_FALLBACK = (200, 1, "declared_katz_centers")
FALLBACK_MARGIN = 1e-9
REAL_RTOL = 1e-9  # the results contract: reals agree within this relative distance


def _report_configs(n: int) -> dict:
    """Config documents by name for the two-block SBM at size n."""
    from graphcert.models import two_block_spectrum

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
        # a threshold midway between the population's two outliers keeps
        # lambda_1 alone: k = 2 lies beyond the kept pairs, so P_hat's gap is
        # read from its own reduction, not from the Rayleigh-Ritz read
        "usvt_one_kept_pair": {
            "k": 2, "alpha": 0.05,
            "envelope": {"d_max": d_max},
            "usvt": {"threshold_scale": (spec.lam1 + spec.lam2) / 2.0 / math.sqrt(spec.lam1),
                     "eps_p": n / 100.0},
            "clustering": {"delta": delta, "c_row": 5.0},
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
        # lambda_2 = lambda_3 = -0.1 with multiplicity n - 2: the parametric
        # 2-gap is exactly 0, so D2 is refused
        "parametric_disassortative": {
            "k": 2, "alpha": 0.1,
            "envelope": {"d_max": d_max},
            "parametric_spec": {"type": "sbm", "labels": labels,
                                "B": [[P_OUT, P_IN], [P_IN, P_OUT]]},
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
        # one config per D3 outcome the configs above do not reach
        "katz_parametric_outside_domain": {
            "k": 2, "alpha": 0.05,
            "envelope": {"d_max": d_max},
            "parametric_spec": {"type": "sbm", "labels": labels,
                                "B": [[P_IN, P_OUT], [P_OUT, P_IN]]},
            "centrality": {"kind": "katz", "beta": 0.5},
            "selection_m": 5,
        },
        "katz_not_certified": {
            "k": 2, "alpha": 0.05,
            "envelope": {"d_max": d_max, "gap": gap},
            "centrality": {"kind": "katz", "beta": 1.0 / (4.0 * d_max)},
            "selection_m": 5,
            "fairness": {"groups": groups, "targets": targets, "tau": 2.0, "epsilon": 0.8},
        },
        "eigenvector_gamma_zero": {
            "k": 2, "alpha": 0.05,
            "envelope": {"d_max": d_max},
            "centrality": {"kind": "eigenvector", "gamma": 0.0, "domain_certified": True},
            "selection_m": 5,
        },
        "eigenvector_gamma_not_certified": {
            "k": 2, "alpha": 0.05,
            "envelope": {"d_max": d_max},
            "centrality": {"kind": "eigenvector", "gamma": eigenvector["gamma"]},
            "selection_m": 5,
        },
        "selection_without_centrality": {
            "k": 2, "alpha": 0.05,
            "envelope": {"d_max": d_max},
            "selection_m": 5,
        },
        # the modulus 2/gamma overflows to infinity: the band is refused at D3
        "eigenvector_band_overflows": {
            "k": 2, "alpha": 0.05,
            "envelope": {"d_max": d_max},
            "centrality": {"kind": "eigenvector", "gamma": 1e-308, "domain_certified": True},
            "selection_m": 5,
            "fairness": {"groups": groups, "targets": targets, "tau": 2.0, "epsilon": 0.8},
        },
    }


def _coverage_configs() -> dict:
    """Coverage configs by name for the n=200 worked instance."""
    from graphcert.models import Envelope
    from graphcert.simulation import CoverageConfig

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


def _noncanonical_edge_list(A) -> str:
    """The same graph spelled otherwise: a blank first line, CRLF line ends
    and every pair reversed ("v<TAB>u", v > u)."""
    rows, cols = np.triu(A.A, 1).nonzero()
    return "\r\n" + "".join(f"{v}\t{u}\r\n" for u, v in zip(rows.tolist(), cols.tolist()))


def _cli_report(workdir: Path, name: str, doc: dict, edge_list: str) -> str:
    """The report ``graphcert certify`` writes for the edge-list text and
    config doc."""
    from graphcert.cli import main as cli_main

    graph, config, out = (workdir / f"{name}.{ext}" for ext in ("tsv", "json", "report.json"))
    graph.write_text(edge_list, encoding="utf-8")
    config.write_text(json.dumps(doc), encoding="utf-8")
    code = cli_main(["certify", "--graph", str(graph), "--config", str(config), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"graphcert certify exited {code} on {name}")
    return out.read_text(encoding="utf-8")


def fairness_fallback_report(A, doc: dict, report_json: str) -> str:
    """The report of ``doc`` on A with the fairness tolerance set
    ``FALLBACK_MARGIN`` above the band slack r/tau of ``report_json``, the
    report of ``doc`` itself. No threshold pair meets a tolerance that far
    below the sigmoid floor exactly, so the optimizer's least-violation
    point is reported, uncertified."""
    from graphcert.protocol import config_from_dict, run_protocol

    half_width = json.loads(report_json)["outputs"]["centrality_bands"]["half_width"]
    fairness = dict(doc["fairness"])
    fairness["epsilon"] = half_width / fairness["tau"] + FALLBACK_MARGIN
    return run_protocol(A, config_from_dict({**doc, "fairness": fairness})).to_json()


def artifacts():
    """Yield ``(name, text)`` for every artifact of the corpus, in a fixed order."""
    from graphcert.models import sample_adjacency, two_block_sbm
    from graphcert.protocol import config_from_dict, report_to_json, run_protocol
    from graphcert.simulation import coverage_experiment

    with tempfile.TemporaryDirectory() as tmp:
        for n in REPORT_SIZES:
            model = two_block_sbm(n, P_IN, P_OUT)
            docs = _report_configs(n)
            configs = {name: config_from_dict(doc) for name, doc in docs.items()}
            for seed in REPORT_SEEDS:
                A = sample_adjacency(model, seed)
                for name, config in configs.items():
                    text = run_protocol(A, config).to_json()
                    yield f"report/n{n}/seed{seed}/{name}", text
                    if (n, seed, name) == FAIRNESS_FALLBACK:
                        yield (f"report/n{n}/seed{seed}/{name}/fairness_fallback",
                               fairness_fallback_report(A, docs[name], text))
                for name in CLI_CONFIGS:
                    text = _cli_report(Path(tmp), f"n{n}_seed{seed}_{name}", docs[name],
                                       _edge_list(A))
                    yield f"cli/n{n}/seed{seed}/{name}", text
                if (n, seed) == NONCANONICAL_CLI[:2]:
                    name = NONCANONICAL_CLI[2]
                    text = _cli_report(Path(tmp), f"n{n}_seed{seed}_{name}_crlf", docs[name],
                                       _noncanonical_edge_list(A))
                    yield f"cli/n{n}/seed{seed}/{name}/crlf_blank_reversed", text
    n, seed, names = LARGE_REPORTS
    A = sample_adjacency(two_block_sbm(n, P_IN, P_OUT), seed)
    docs = _report_configs(n)
    for name in names:
        text = run_protocol(A, config_from_dict(docs[name])).to_json()
        yield f"report/n{n}/seed{seed}/{name}", text
    model = two_block_sbm(200, P_IN, P_OUT)
    for name, config in _coverage_configs().items():
        for seed in COVERAGE_SEEDS:
            result = coverage_experiment(model, config, COVERAGE_REPLICATIONS, seed)
            yield f"coverage/{name}/seed{seed}", report_to_json(result.to_dict())


def dump(directory: Path, items) -> None:
    """Write each ``(name, text)`` to ``directory/<name>.json``."""
    for name, text in items:
        path = Path(directory) / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _moved_leaves(a, b, path: str = ""):
    """Yield ``(path, a, b)`` for each leaf that breaks the results contract."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [key for key in b if key not in a]:
            if key not in a or key not in b:
                yield f"{path}/{key}", a.get(key, "<absent>"), b.get(key, "<absent>")
            else:
                yield from _moved_leaves(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _moved_leaves(x, y, f"{path}/{i}")
    elif {type(a), type(b)} <= {int, float} and float in {type(a), type(b)}:
        # an integral real reads back as float ("20.0") from the shortest
        # round-trip spelling, but as int from older checkouts' 17-digit one
        # ("20", and "-0" for -0.0); accepting either type keeps dumps of
        # older checkouts comparable with new ones
        if not (a == b or (math.isnan(a) and math.isnan(b))
                or abs(a - b) <= REAL_RTOL * max(abs(a), abs(b))):
            yield path or "/", a, b
    elif type(a) is not type(b) or a != b:
        yield path or "/", a, b


def compare(dir_a: Path, dir_b: Path) -> list:
    """Lines naming every artifact and leaf that moved from dir_a to dir_b."""
    dirs = (Path(dir_a), Path(dir_b))
    names = sorted({p.relative_to(d).as_posix() for d in dirs for p in d.rglob("*.json")})
    lines = []
    for name in names:
        pa, pb = (d / name for d in dirs)
        if not (pa.exists() and pb.exists()):
            lines.append(f"{name}: only in {dirs[0] if pa.exists() else dirs[1]}")
            continue
        a = json.loads(pa.read_text(encoding="utf-8"))
        b = json.loads(pb.read_text(encoding="utf-8"))
        lines.extend(f"{name}: {leaf}: {x!r} -> {y!r}" for leaf, x, y in _moved_leaves(a, b))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--dump", metavar="DIR", type=Path,
                      help="write each artifact to DIR/<name>.json")
    mode.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"), type=Path,
                      help="list the artifacts and leaves that moved from DIR_A to DIR_B")
    args = parser.parse_args(argv)
    if args.compare:
        lines = compare(*args.compare)
        for line in lines:
            print(line)
        return 1 if lines else 0
    if args.dump:
        dump(args.dump, artifacts())
        return 0
    for name, text in artifacts():
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs drawn from a seed, one op, its check.

Every workload draws all of its inputs in ``setup`` from the workload seed,
one fresh input per timed op plus input 0 for the warm-up, so no cache
across calls can serve a timed op. ``prepare`` turns input i into the
argument of the op outside the timed region; ``op`` is the timed call into
graphcert's public API; ``check`` returns a list of problems (empty when
the output is correct); ``digest`` gives the bytes that must repeat exactly
when the same input is certified twice.

Graphs are equal two-block SBMs (within 0.3, between 0.1), the README's
worked instance at other sizes. They are drawn here with numpy, not with
graphcert's sampler, so that a change to the program cannot change its
inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import graphcert.cli
import graphcert.models
import graphcert.protocol
import graphcert.simulation
from graphcert.concentration import davis_kahan_radius, deviation_quantile_from_envelope
from graphcert.inference import katz_modulus, rounding_error_bound
from graphcert.linalg import frobenius_subspace_bound, weyl_gap_certificate

P_IN, P_OUT = 0.3, 0.1
ALL_OUTPUTS = ("subspace", "centrality_bands", "stability", "cluster", "fairness", "filtration")
T_GRID = [0.05, 0.1, 0.2]


class GraphStore:
    """Packed upper triangles of seeded two-block SBM graphs."""

    def __init__(self, seed: int, n: int, count: int):
        self.n = n
        self.iu = np.triu_indices(n, k=1)
        same = (self.iu[0] < n // 2) == (self.iu[1] < n // 2)
        prob = np.where(same, P_IN, P_OUT)
        self.packed = [
            np.packbits(np.random.default_rng([seed, i]).random(prob.size) < prob)
            for i in range(count)
        ]

    def bits(self, i: int) -> np.ndarray:
        return np.unpackbits(self.packed[i], count=self.iu[0].size).astype(bool)

    def dense(self, i: int) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=np.int8)
        A[self.iu] = self.bits(i)
        A += A.T
        return A

    def edge_list(self, i: int) -> str:
        keep = self.bits(i)
        u, v = self.iu[0][keep].tolist(), self.iu[1][keep].tolist()
        return "".join(f"{a}\t{b}\n" for a, b in zip(u, v))

    def digest(self, h) -> None:
        for p in self.packed:
            h.update(p.tobytes())


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return obj.dtype.kind not in "fc" or bool(np.isfinite(obj).all())
    if isinstance(obj, (float, np.floating)):
        return math.isfinite(obj)
    return True


class _Certify:
    """Shared set-up facts and report check of the two certify workloads."""

    name = ""
    size = 0
    cap = 0
    constants = {"p": P_IN, "q": P_OUT, "k": 2, "alpha": 0.05, "selection_m": 5}
    expected_refusals: tuple = ()

    def __init__(self, n=None):
        self.n = int(n or self.size)
        self.spectrum = graphcert.models.two_block_spectrum(self.n, P_IN, P_OUT)
        self.d_max = self.spectrum.lam1
        self.delta = 2.0 / math.sqrt(self.n)
        self.c_row = 0.01

    @property
    def expected_outputs(self) -> tuple:
        refused = {out for out, _ in self.expected_refusals}
        return tuple(o for o in ALL_OUTPUTS if o not in refused)

    def check_report(self, doc: dict) -> list:
        """Outputs and refusals as expected, every real finite, and the
        radii and half-width equal to their recomputation from the public
        formulas."""
        outs = doc["outputs"]
        refusals = [(r["output"], r["reason"]) for r in doc["refusals"]]
        problems = []
        if sorted(outs) != sorted(self.expected_outputs):
            problems.append(f"outputs {sorted(outs)} != {sorted(self.expected_outputs)}")
        if refusals != list(self.expected_refusals):
            problems.append(f"refusals {refusals} != {list(self.expected_refusals)}")
        if doc["n"] != self.n or len(outs.get("cluster", {}).get("labels", [])) != self.n:
            problems.append("report n or label count differs from the input graph")
        if not _all_finite(doc):
            problems.append("non-finite real in report")
        if problems:
            return problems
        k, n, alpha = doc["k"], doc["n"], doc["alpha"]
        q = deviation_quantile_from_envelope(self.d_max, n, alpha).q
        gap = self.certified_gap(doc)
        r = davis_kahan_radius(q, gap).radius
        mean_square = math.ceil(16.0 * frobenius_subspace_bound(r, k) / self.delta**2)
        rb = rounding_error_bound(self.c_row * r, self.delta, n)
        hamming = min(mean_square, 0 if rb.exact else rb.hamming_bound, n)
        for key, got, want in (
            ("deviation_quantile", doc["deviation_quantile"], q),
            ("certificates.gap", doc["certificates"]["gap"], gap),
            ("subspace.radius", outs["subspace"]["radius"], r),
            ("cluster.hamming_radius", outs["cluster"]["hamming_radius"], hamming),
            ("centrality_bands.half_width", outs["centrality_bands"]["half_width"],
             self.modulus() * q),
            ("filtration.eta", outs["filtration"]["eta"], self.c_row * r),
        ):
            if got != want:
                problems.append(f"{key}: report {got!r} != recomputed {want!r}")
        return problems


class CertifyDense(_Certify):
    """One op: ``protocol.run_protocol`` on a fresh n=2000 graph, declared
    envelope route, every block enabled and every output open."""

    name = "certify_dense_n2000"
    size = 2000
    cap = 24
    kernel_baseline = {"eigh": 3, "eigvalsh": 2, "solve": 1, "svd": 3, "eigsh": 0}

    def setup(self, seed: int, workdir: Path) -> None:
        n = self.n
        self.gap = self.spectrum.gap2
        self.beta = 1.0 / (4.0 * self.d_max)
        rng = np.random.default_rng([seed, 1 << 20])
        groups = rng.permutation(np.arange(n) % 2)
        centre = 1.0 / math.sqrt(n)
        self.config_doc = {
            "k": 2,
            "alpha": 0.05,
            "envelope": {"d_max": self.d_max, "gap": self.gap},
            "centrality": {"kind": "katz", "beta": self.beta, "domain_certified": True},
            "clustering": {"delta": self.delta, "centers": [[centre, centre], [centre, -centre]],
                           "c_row": self.c_row},
            "selection_m": 5,
            "fairness": {"groups": groups.tolist(), "targets": rng.random(n).tolist(),
                         "tau": 2.0, "epsilon": 0.8},
            "filtration": {"t_grid": T_GRID},
        }
        self.config = graphcert.protocol.config_from_dict(self.config_doc)
        self.graphs = GraphStore(seed, n, self.cap + 1)

    def input_digest(self) -> str:
        h = hashlib.sha256(json.dumps(self.config_doc, sort_keys=True).encode())
        self.graphs.digest(h)
        return h.hexdigest()

    def prepare(self, i: int):
        return graphcert.models.AdjacencyMatrix(n=self.n, A=self.graphs.dense(i))

    def op(self, A):
        return graphcert.protocol.run_protocol(A, self.config)

    def modulus(self) -> float:
        return katz_modulus(self.beta)

    def certified_gap(self, doc: dict) -> float:
        return self.gap

    def check(self, report) -> list:
        return self.check_report(report.to_dict())

    def digest(self, report) -> bytes:
        return report.to_json().encode()


class CliUsvt(_Certify):
    """One op: ``graphcert certify`` in-process on a fresh n=1000 edge-list
    file, USVT gap route, eigenvector centrality, K-means without centers;
    the fairness block is refused by design."""

    name = "cli_usvt_n1000"
    size = 1000
    cap = 32
    kernel_baseline = {"eigh": 5, "eigvalsh": 3, "solve": 0, "svd": 0, "eigsh": 0}
    expected_refusals = (("fairness", "insufficient_tolerance"),)

    def setup(self, seed: int, workdir: Path) -> None:
        n = self.n
        self.gamma = 0.9 * (self.spectrum.lam1 - self.spectrum.lam2)
        self.eps_p = n / 100.0
        rng = np.random.default_rng([seed, 1 << 20])
        self.config_doc = {
            "k": 2,
            "alpha": 0.05,
            "envelope": {"d_max": self.d_max},
            "usvt": {"threshold_scale": 2.02, "eps_p": self.eps_p},
            "centrality": {"kind": "eigenvector", "gamma": self.gamma, "domain_certified": True},
            "clustering": {"delta": self.delta, "c_row": self.c_row},
            "selection_m": 5,
            "fairness": {"groups": rng.permutation(np.arange(n) % 2).tolist(),
                         "targets": rng.random(n).tolist(), "tau": 0.5, "epsilon": 0.2},
            "filtration": {"t_grid": T_GRID},
        }
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config_doc), encoding="utf-8")
        self.out_path = workdir / "report.json"
        self.graphs = GraphStore(seed, n, self.cap + 1)

    def input_digest(self) -> str:
        h = hashlib.sha256(self.config_path.read_bytes())
        self.graphs.digest(h)
        return h.hexdigest()

    def prepare(self, i: int) -> list:
        """Write graph i as a new edge-list file (drawn in set-up, written
        just before its op) and clear the previous report."""
        graph_path = self.workdir / f"graph{i}.tsv"
        graph_path.write_text(self.graphs.edge_list(i), encoding="utf-8")
        self.out_path.unlink(missing_ok=True)
        return ["certify", "--graph", str(graph_path), "--config", str(self.config_path),
                "--out", str(self.out_path)]

    def op(self, argv):
        return graphcert.cli.main(argv)

    def modulus(self) -> float:
        return 2.0 / self.gamma

    def certified_gap(self, doc: dict) -> float:
        usvt = doc["diagnostics"]["usvt"]
        return weyl_gap_certificate(usvt["empirical_gap_of_denoised"], self.eps_p)

    def check(self, code) -> list:
        if code != 0:
            return [f"exit code {code}"]
        if not self.out_path.exists():
            return ["no report written"]
        return self.check_report(json.loads(self.out_path.read_text(encoding="utf-8")))

    def digest(self, code) -> bytes:
        return self.out_path.read_bytes()


class CoverageWorked:
    """One op: ``simulation.coverage_experiment`` on the README worked
    instance, every claim, audits on, oracle mode, a fresh base seed."""

    name = "coverage_worked_n200"
    size = 200
    cap = 400
    replications = 20
    expected_replications = replications
    constants = {"p": P_IN, "q": P_OUT, "k": 2, "alpha": 0.1, "mode": "oracle",
                 "replications_per_op": replications}
    kernel_baseline = {
        "eigh": replications + 1, "eigvalsh": 3 * replications + 1,
        "solve": replications + 1, "svd": 5 * replications, "eigsh": 0,
    }

    def __init__(self, n=None):
        self.n = int(n or self.size)

    def setup(self, seed: int, workdir: Path) -> None:
        self.model = graphcert.models.two_block_sbm(self.n, P_IN, P_OUT)
        self.config = graphcert.simulation.CoverageConfig(k=2, alpha=0.1)
        rng = np.random.default_rng([seed, 1 << 20])
        self.base_seeds = rng.integers(0, 2**31, size=self.cap + 1).tolist()

    def input_digest(self) -> str:
        return hashlib.sha256(json.dumps([self.n, self.base_seeds]).encode()).hexdigest()

    def prepare(self, i: int) -> int:
        return self.base_seeds[i]

    def op(self, base_seed):
        return graphcert.simulation.coverage_experiment(
            self.model, self.config, self.replications, base_seed
        )

    def check(self, result) -> list:
        """Zero audit violations, every claim evaluated, none refused, and
        every replication count as requested."""
        want = self.expected_replications
        problems = [
            f"audit {name}: {a.violations} violations"
            for name, a in result.audits.items() if a.violations != 0
        ]
        problems += [
            f"claim {name}: evaluated={c.evaluated} refused={c.refused} reps={c.replications}"
            for name, c in result.claims.items()
            if not c.evaluated or c.refused or c.replications != want
        ]
        if set(result.claims) != set(graphcert.simulation.ALL_CLAIMS):
            problems.append(f"claims {sorted(result.claims)} are not all claims")
        if result.replications != want:
            problems.append(f"replications {result.replications} != {want}")
        return problems

    def digest(self, result) -> bytes:
        return graphcert.protocol.report_to_json(result.to_dict()).encode()


WORKLOADS = {w.name: w for w in (CertifyDense, CoverageWorked, CliUsvt)}

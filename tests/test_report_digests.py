"""The results-contract checker of ``scripts/report_digests.py``."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphcert import config_from_dict, run_protocol, sample_adjacency, two_block_sbm

from conftest import fresh_python, full_config_doc

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report():
    """A report with every block, as the dict its JSON reads back to."""
    A = sample_adjacency(two_block_sbm(40, 0.5, 0.1), 3)
    return json.loads(run_protocol(A, config_from_dict(full_config_doc())).to_json())


def _dump_pair(digests, tmp_path, before, after):
    names = ("report/n40/seed3/full", "cli/n40/seed3/full", "cli/n40/seed3/full/crlf")
    for side, doc in (("a", before), ("b", after)):
        digests.dump(tmp_path / side, [(name, json.dumps(doc)) for name in names])
    return digests.compare(tmp_path / "a", tmp_path / "b")


def test_identical_directories_report_nothing(digests, report, tmp_path):
    assert _dump_pair(digests, tmp_path, report, report) == []
    assert digests.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0


def test_a_real_moved_by_1e8_is_reported(digests, report, tmp_path, capsys):
    moved = json.loads(json.dumps(report))
    radius = moved["outputs"]["subspace"]["radius"]
    moved["outputs"]["subspace"]["radius"] = radius * (1 + 1e-8)
    lines = _dump_pair(digests, tmp_path, report, moved)
    assert len(lines) == 3
    assert all("/outputs/subspace/radius" in line for line in lines)
    assert lines[0].startswith("cli/n40/seed3/full.json: ")
    assert digests.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == lines

    # within the contract: 1e-10 relative, and an integral real read back as int
    moved["outputs"]["subspace"]["radius"] = radius * (1 + 1e-10)
    assert _dump_pair(digests, tmp_path, report, moved) == []
    assert list(digests._moved_leaves(2, 2.0 * (1 + 1e-12))) == []


def test_a_relabelled_node_is_reported(digests, report, tmp_path):
    moved = json.loads(json.dumps(report))
    labels = moved["outputs"]["cluster"]["labels"]
    labels[7] = 1 - labels[7]
    lines = _dump_pair(digests, tmp_path, report, moved)
    leaf = f"/outputs/cluster/labels/7: {1 - labels[7]} -> {labels[7]}"
    assert len(lines) == 3 and all(line.endswith(leaf) for line in lines)


def test_flags_keys_and_missing_artifacts_are_reported(digests, report, tmp_path):
    assert list(digests._moved_leaves(True, 1)) == [("/", True, 1)]
    assert list(digests._moved_leaves({"a": 1}, {"b": 1})) == [
        ("/a", 1, "<absent>"), ("/b", "<absent>", 1)
    ]
    _dump_pair(digests, tmp_path, report, report)
    (tmp_path / "b" / "cli" / "n40" / "seed3" / "full.json").unlink()
    lines = digests.compare(tmp_path / "a", tmp_path / "b")
    assert lines == [f"cli/n40/seed3/full.json: only in {tmp_path / 'a'}"]


def test_compare_runs_without_graphcert_on_the_path(tmp_path):
    # two hand-written dump directories, compared by a fresh interpreter
    # with no PYTHONPATH, run outside the checkout: a real moved by 1e-12
    # keeps the contract, a changed label is one moved leaf
    before = {"outputs": {"subspace": {"radius": 0.25}, "cluster": {"labels": [0, 1, 1]}}}
    within = json.loads(json.dumps(before))
    within["outputs"]["subspace"]["radius"] *= 1 + 1e-12
    relabelled = json.loads(json.dumps(before))
    relabelled["outputs"]["cluster"]["labels"][2] = 0
    for side, doc in (("a", before), ("b", within), ("c", relabelled)):
        (tmp_path / side / "report").mkdir(parents=True)
        (tmp_path / side / "report" / "x.json").write_text(json.dumps(doc), encoding="utf-8")
    env = {key: val for key, val in os.environ.items() if key != "PYTHONPATH"}

    def compare(a, b):
        return subprocess.run(
            [sys.executable, str(SCRIPT), "--compare", str(tmp_path / a), str(tmp_path / b)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )

    kept, moved = compare("a", "b"), compare("a", "c")
    assert (kept.returncode, kept.stdout, kept.stderr) == (0, "", "")
    assert (moved.returncode, moved.stderr) == (1, "")
    assert moved.stdout.splitlines() == ["report/x.json: /outputs/cluster/labels/2: 1 -> 0"]


def guarded_artifacts(digests):
    """The corpus reports of two configs whose strings hold no computed real,
    at n = 600 and seed 1, as ``(name, text)``."""
    n, seed = 600, 1
    docs = digests._report_configs(n)
    A = sample_adjacency(two_block_sbm(n, digests.P_IN, digests.P_OUT), seed)
    return [
        (f"report/n{n}/seed{seed}/{name}", run_protocol(A, config_from_dict(docs[name])).to_json())
        for name in ("declared_katz_centers", "kmeans_k3")
    ]


_CHILD = f"""
import importlib.util, sys
from graphcert import config_from_dict, run_protocol, sample_adjacency, two_block_sbm
spec = importlib.util.spec_from_file_location("report_digests", sys.argv[1])
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)
{inspect.getsource(guarded_artifacts)}
digests.dump(sys.argv[2], guarded_artifacts(digests))
"""


def test_one_blas_thread_keeps_the_results_contract(digests, tmp_path):
    """Reports computed with one OpenBLAS thread keep the results contract.

    The ``declared_katz_centers`` and ``kmeans_k3`` corpus reports at
    n = 600, seed 1, are computed in a fresh interpreter with
    ``OPENBLAS_NUM_THREADS=1`` and in this one at the default thread count;
    the checker's compare finds no moved leaf between them.

    With one thread, 40 of the corpus's 107 artifacts move, and 27 of those
    keep the contract. The other 13 break it only through computed reals
    printed inside the ``flags.D2`` and ``flags.D3`` provenance strings
    and the refusal details (the spectral radius, or D3's repeated):
    ``report/n600/seed{1,2}/parametric_katz_no_c_row``,
    ``report/n600/seed{1,2}/parametric_eigenvector``,
    ``report/n600/seed{1,2}/katz_parametric_outside_domain``,
    ``report/n600/seed{1,2}/katz_refused_at_observation``,
    ``report/n600/seed{1,2}/usvt_eigenvector_kmeans``,
    ``cli/n600/seed{1,2}/usvt_eigenvector_kmeans`` and
    ``report/n2000/seed1/parametric_eigenvector``. The same 40 and 13 move
    whether the n = 600 USVT reports read their kept pairs from the Krylov
    route or from the reduction. They wait for the "reals out of free
    text" part of ROADMAP item 17 and are not run here.
    """
    digests.dump(tmp_path / "default", guarded_artifacts(digests))
    child = fresh_python("-c", _CHILD, str(SCRIPT), str(tmp_path / "one_thread"),
                         env={"OPENBLAS_NUM_THREADS": "1"})
    assert child.returncode == 0, child.stderr
    assert digests.compare(tmp_path / "default", tmp_path / "one_thread") == []
    assert len(list((tmp_path / "one_thread").rglob("*.json"))) == 2


def test_fairness_fallback_report_is_uncertified(digests):
    # a tolerance 1e-9 above the band slack sits below the sigmoid floor: no
    # grid point is exactly feasible, and the least-violation point is reported
    A = sample_adjacency(two_block_sbm(40, 0.5, 0.1), 3)
    doc = full_config_doc()
    text = run_protocol(A, config_from_dict(doc)).to_json()
    fairness = json.loads(digests.fairness_fallback_report(A, doc, text))["outputs"]["fairness"]
    assert fairness["effective_epsilon"] == pytest.approx(digests.FALLBACK_MARGIN, rel=1e-6)
    assert fairness["certified"] is False
    assert fairness["parity_gap_at_scores"] > fairness["effective_epsilon"]

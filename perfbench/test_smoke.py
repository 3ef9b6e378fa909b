"""Smoke test of the benchmark harness on small graphs (n=200).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload for a few ops, traced and untraced, and checks the
result line against BENCHMARK.json; checks that a wrong expected value is
counted as a failed op without ending the run; and checks that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
SMALL = ["--seed", "3", "--seconds", "1", "--n", "200"]


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--trace", str(trace), *SMALL)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    detail, result = json.loads(detail_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert detail["kernel_calls_differ_from_roadmap"] == {}
    else:
        assert detail["deterministic_report"] and len(detail["setup_runs_s"]) >= 3


WRONG = {
    "certify_dense_n2000": ("CertifyDense", "expected_refusals", (("fairness", "no_scores"),)),
    "coverage_worked_n200": ("CoverageWorked", "expected_replications", 21),
    "cli_usvt_n1000": ("CliUsvt", "expected_refusals", ()),
}


@pytest.mark.parametrize("workload", NAMES)
def test_a_wrong_expected_value_fails_ops_without_ending_the_run(
    workload, monkeypatch, capsys
):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    cls, attr, wrong = WRONG[workload]
    monkeypatch.setattr(getattr(workloads, cls), attr, wrong)
    assert run.main(["--workload", workload, "--trace", "0", *SMALL]) == 0
    *_, detail_line, result_line = capsys.readouterr().out.strip().splitlines()
    detail, result = json.loads(detail_line), json.loads(result_line)
    assert result["correct"] is False
    assert result["attempted"] >= 3 and result["failed"] == result["attempted"]
    assert detail["ops"]["failed_frac"] == 1.0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

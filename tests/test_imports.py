"""Which scipy modules each entry point loads.

``import graphcert`` loads numpy and ``scipy.linalg`` only, and so do
``run_protocol`` and the Monte Carlo harness; the filtration block imports
what it uses inside its body. ``tests/conftest.py`` already loads
``scipy.spatial`` in this process, so the steps run in one fresh
interpreter.
"""

import json

from conftest import fresh_python

# each step prints which of the watched modules sys.modules holds after it
_STEPS = r"""
import json, sys

WATCHED = ("scipy.optimize", "scipy.cluster", "scipy.spatial", "scipy.sparse",
           "scipy.sparse.csgraph")


def loaded(step):
    print(json.dumps([step, [m for m in WATCHED if m in sys.modules]]))


import graphcert, graphcert.cli
loaded("import")

from graphcert import (CoverageConfig, config_from_dict, coverage_experiment,
                       run_protocol, sample_adjacency, two_block_sbm)

model = two_block_sbm(60, 0.5, 0.1)
A = sample_adjacency(model, 7)
block = {"k": 2, "alpha": 0.05, "envelope": {"d_max": 20.0, "gap": 10.0},
         "clustering": {"delta": 0.2, "c_row": 0.05}, "centrality": {"kind": "katz", "beta": 0.01}}
report = run_protocol(A, config_from_dict(block))
assert "cluster" in report.outputs
loaded("run_protocol")

coverage_experiment(model, CoverageConfig(k=2, alpha=0.1), 3, base_seed=0)
loaded("coverage_experiment")

report = run_protocol(A, config_from_dict({**block, "filtration": {"t_grid": [0.1]}}))
assert "filtration" in report.outputs
loaded("filtration")
"""


def test_each_entry_point_loads_only_the_scipy_it_uses():
    proc = fresh_python("-c", _STEPS)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(json.loads(line) for line in proc.stdout.splitlines())
    assert loaded["import"] == []
    assert loaded["run_protocol"] == []
    assert loaded["coverage_experiment"] == []
    assert "scipy.cluster" in loaded["filtration"]
    assert "scipy.optimize" not in loaded["filtration"]

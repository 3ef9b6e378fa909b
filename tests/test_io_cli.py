import json
import math

import numpy as np
import pytest

import graphcert.io
from graphcert import GraphCertError, TooManyNodes
from graphcert.cli import main
from graphcert.io import (
    load_edge_list,
    matrix_from_csv,
    matrix_to_csv,
    model_from_dict,
    model_to_dict,
    parse_edge_list,
)
from graphcert.models import sample_adjacency


def test_parse_edge_list_roundtrip():
    A = parse_edge_list("0\t1\n1\t2\n")
    assert A.n == 3
    assert A.A[0, 1] == A.A[1, 0] == 1
    assert A.A[0, 2] == 0


def test_parse_edge_list_rejections():
    with pytest.raises(ValueError, match="self-loop"):
        parse_edge_list("0\t0\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_edge_list("0\t1\n1\t0\n")
    with pytest.raises(ValueError, match="u<TAB>v"):
        parse_edge_list("0 1\n")
    with pytest.raises(ValueError, match="integers"):
        parse_edge_list("a\tb\n")
    with pytest.raises(ValueError, match="nonnegative"):
        parse_edge_list("-1\t2\n")


def test_parse_edge_list_node_ceiling(monkeypatch):
    # the ceiling is checked before the n x n allocation; a small ceiling
    # lets a node id of 10^9 be refused without allocating anything large
    monkeypatch.setattr(graphcert.io, "MAX_NODES", 5)
    assert parse_edge_list("0\t4\n").n == 5
    with pytest.raises(TooManyNodes, match="dense-storage limit"):
        parse_edge_list("0\t1000000000\n")
    with pytest.raises(TooManyNodes):
        parse_edge_list("0\t1\n", n=6)
    assert issubclass(TooManyNodes, GraphCertError)


def test_edge_list_file_roundtrip(tmp_path, sbm200):
    A = sample_adjacency(sbm200, 9)
    lines = []
    for i in range(200):
        for j in range(i + 1, 200):
            if A.A[i, j]:
                lines.append(f"{i}\t{j}")
    path = tmp_path / "graph.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_edge_list(path)
    assert np.array_equal(loaded.A, A.A)


def test_matrix_csv_roundtrip(rng):
    M = rng.normal(size=(4, 6))
    back = matrix_from_csv(matrix_to_csv(M))
    assert np.array_equal(back, M)  # 17 significant digits round-trip exactly


def test_model_json_roundtrip(sbm200):
    doc = model_to_dict(sbm200)
    model = model_from_dict(doc)
    assert np.array_equal(model.P, sbm200.P)
    assert model.envelope.d_max == sbm200.envelope.d_max

    rdpg = model_from_dict(
        {"type": "rdpg", "X": [[0.6, 0.2], [0.5, 0.1], [0.4, 0.4]], "signature": [2, 0]}
    )
    assert rdpg.P.shape == (3, 3)
    dcsbm = model_from_dict(
        {
            "type": "dcsbm",
            "theta": [0.9, 0.8, 0.7, 0.6],
            "labels": [0, 0, 1, 1],
            "B": [[0.9, 0.2], [0.2, 0.8]],
        }
    )
    assert dcsbm.P[0, 1] == pytest.approx(0.9 * 0.8 * 0.9)


# ---------------------------------------------------------------------------
# CLI

def _write_graph(tmp_path, model, seed=1):
    A = sample_adjacency(model, seed)
    lines = [
        f"{i}\t{j}"
        for i in range(model.n)
        for j in range(i + 1, model.n)
        if A.A[i, j]
    ]
    path = tmp_path / "graph.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_config(tmp_path, n):
    config = {
        "k": 2,
        "alpha": 0.1,
        "envelope": {"d_max": 39.7, "gap": 20.0},
        "centrality": {"kind": "katz", "beta": 5 / 794, "domain_certified": True},
        "clustering": {
            "delta": 2 / math.sqrt(n),
            "centers": [
                [1 / math.sqrt(n), 1 / math.sqrt(n)],
                [1 / math.sqrt(n), -1 / math.sqrt(n)],
            ],
        },
        "selection_m": 4,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_cli_certify_writes_report(tmp_path, sbm200, capsys):
    graph = _write_graph(tmp_path, sbm200)
    config = _write_config(tmp_path, 200)
    out = tmp_path / "report.json"
    code = main(
        ["certify", "--graph", str(graph), "--config", str(config), "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["flags"]["D1"]["passed"] is True
    assert report["outputs"]["subspace"]["informative"] is False
    assert report["outputs"]["cluster"]["hamming_radius"] == 200


@pytest.mark.parametrize(
    "command,section",
    [
        ("bands", "centrality_bands"),
        ("cluster", "cluster"),
        ("stability", "stability"),
    ],
)
def test_cli_scoped_subcommands(tmp_path, sbm200, command, section):
    graph = _write_graph(tmp_path, sbm200)
    config = _write_config(tmp_path, 200)
    out = tmp_path / f"{command}.json"
    code = main(
        [command, "--graph", str(graph), "--config", str(config), "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert list(report["outputs"].keys()) == [section]


def test_cli_scoped_refusal_sections(tmp_path, sbm200):
    # fairness and filtration are not configured: scoped reports carry
    # empty outputs and only their own refusal entries
    graph = _write_graph(tmp_path, sbm200)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"k": 2, "envelope": {"d_max": 39.7, "gap": 20.0}}))
    out = tmp_path / "filt.json"
    code = main(
        ["filtration", "--graph", str(graph), "--config", str(bare), "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["outputs"] == {}


def test_cli_exit_code_zero_even_with_refusals(tmp_path, sbm200):
    graph = _write_graph(tmp_path, sbm200)
    config = tmp_path / "bare.json"
    config.write_text(json.dumps({"k": 2}), encoding="utf-8")
    out = tmp_path / "r.json"
    code = main(
        ["certify", "--graph", str(graph), "--config", str(config), "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["outputs"] == {}
    assert report["refusals"]


def test_cli_invalid_input_exit_code(tmp_path, capsys):
    bad_graph = tmp_path / "bad.tsv"
    bad_graph.write_text("0\t0\n", encoding="utf-8")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"k": 2}), encoding="utf-8")
    code = main(["certify", "--graph", str(bad_graph), "--config", str(config)])
    assert code == 1
    # a config without k is also invalid input
    graph = tmp_path / "g.tsv"
    graph.write_text("0\t1\n", encoding="utf-8")
    config.write_text(json.dumps({"alpha": 0.1}), encoding="utf-8")
    assert main(["certify", "--graph", str(graph), "--config", str(config)]) == 1


def test_cli_non_finite_certificate_exit_code(tmp_path, sbm200):
    # Python's json reads NaN; a NaN envelope must not become a radius
    graph = _write_graph(tmp_path, sbm200)
    config = tmp_path / "nan.json"
    config.write_text('{"k": 2, "envelope": {"d_max": NaN, "gap": 20.0}}', encoding="utf-8")
    out = tmp_path / "r.json"
    code = main(["certify", "--graph", str(graph), "--config", str(config), "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_cli_node_ceiling_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(graphcert.io, "MAX_NODES", 5)
    graph = tmp_path / "huge.tsv"
    graph.write_text("0\t1000000000\n", encoding="utf-8")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"k": 2}), encoding="utf-8")
    out = tmp_path / "r.json"
    code = main(["certify", "--graph", str(graph), "--config", str(config), "--out", str(out)])
    assert code == 1
    assert "dense-storage limit" in capsys.readouterr().err
    assert not out.exists()


def test_cli_alpha_override(tmp_path, sbm200):
    graph = _write_graph(tmp_path, sbm200)
    config = _write_config(tmp_path, 200)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["certify", "--graph", str(graph), "--config", str(config), "--out", str(out1)])
    main(
        ["certify", "--graph", str(graph), "--config", str(config),
         "--alpha", "0.5", "--out", str(out2)]
    )
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert r2["alpha"] == 0.5
    assert r2["outputs"]["subspace"]["radius"] < r1["outputs"]["subspace"]["radius"]


def test_cli_example_sbm_roundtrips_into_simulate(tmp_path):
    out = tmp_path / "example.json"
    assert main(["example-sbm", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["certificates"]["d_max"] == pytest.approx(39.7)
    assert doc["certificates"]["gap"] == pytest.approx(20.0)
    assert doc["certificates"]["katz_beta_exact"] == "5/794"

    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc["model"]), encoding="utf-8")
    sim_out = tmp_path / "sim.json"
    code = main(
        ["simulate", "--model", str(model_path), "--reps", "10", "--alpha", "0.2",
         "--seed", "3", "--claims", "deviation", "--out", str(sim_out)]
    )
    assert code == 0
    sim = json.loads(sim_out.read_text())
    assert sim["replications"] == 10
    assert sim["claims"]["deviation"]["coverage"] == 1.0


def test_cli_csv_format(tmp_path, sbm200):
    graph = _write_graph(tmp_path, sbm200)
    config = _write_config(tmp_path, 200)
    out = tmp_path / "report.csv"
    code = main(
        ["certify", "--graph", str(graph), "--config", str(config),
         "--out", str(out), "--format", "csv"]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("key,value\n")
    assert "flags.D1.passed,True" in text


def _write_two_block_40(tmp_path):
    from graphcert import two_block_sbm

    return _write_graph(tmp_path, two_block_sbm(40, 0.5, 0.1))


def test_cli_subnormal_gap_is_refused(tmp_path):
    graph = _write_two_block_40(tmp_path)
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "k": 2,
        "envelope": {"d_max": 10, "gap": 1e-320},
        "clustering": {"delta": 0.3, "c_row": 0.01},
        "filtration": {"t_grid": [0.1]},
    }), encoding="utf-8")
    out = tmp_path / "r.json"
    code = main(["certify", "--graph", str(graph), "--config", str(config), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "Infinity" not in text and "NaN" not in text
    report = json.loads(text)
    assert report["flags"]["D2"]["passed"] is False
    reasons = {r["output"]: r["reason"] for r in report["refusals"]}
    assert {reasons[o] for o in ("subspace", "cluster", "filtration")} == {"no_gap_certificate"}


def test_cli_nan_fairness_target_exit_code(tmp_path):
    graph = _write_two_block_40(tmp_path)
    config = tmp_path / "nan.json"
    doc = {"k": 2, "fairness": {"groups": [i % 2 for i in range(40)],
                                "targets": [0.5] * 40, "tau": 0.5, "epsilon": 0.2}}
    text = json.dumps(doc).replace("0.5, 0.5,", "NaN, 0.5,", 1)
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "r.json"
    code = main(["certify", "--graph", str(graph), "--config", str(config), "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_cli_overflowing_declared_centers_exit_code(tmp_path, capsys):
    # rows of an orthonormal basis have norm <= 1; centers far outside are
    # refused when the config is parsed, before any alignment overflows
    graph = _write_two_block_40(tmp_path)
    config = tmp_path / "centers.json"
    config.write_text(json.dumps({
        "k": 2,
        "envelope": {"d_max": 10, "gap": 5},
        "clustering": {"delta": 0.3, "centers": [[1e308, 1e308], [1e308, -1e308]]},
    }), encoding="utf-8")
    out = tmp_path / "r.json"
    code = main(["certify", "--graph", str(graph), "--config", str(config), "--out", str(out)])
    assert code == 1
    assert "row norm at most 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_declared_centers_closer_than_delta_exit_code(tmp_path, capsys):
    graph = _write_two_block_40(tmp_path)
    config = tmp_path / "centers.json"
    config.write_text(json.dumps({
        "k": 2,
        "envelope": {"d_max": 10, "gap": 5},
        "clustering": {"delta": 1.0, "centers": [[0.1, 0.0], [0.1, 0.001]]},
    }), encoding="utf-8")
    out = tmp_path / "r.json"
    code = main(["certify", "--graph", str(graph), "--config", str(config), "--out", str(out)])
    assert code == 1
    assert "closer than delta" in capsys.readouterr().err
    assert not out.exists()


def test_cli_certify_has_no_seed_flag(tmp_path, capsys):
    # a run on one observed graph samples nothing; only simulate takes a seed
    graph = _write_two_block_40(tmp_path)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"k": 2}), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--graph", str(graph), "--config", str(config), "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_cli_simulate_zero_replications_exit_code(tmp_path, capsys):
    from graphcert import two_block_sbm

    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_to_dict(two_block_sbm(40, 0.5, 0.1))), encoding="utf-8")
    out = tmp_path / "sim.json"
    code = main(["simulate", "--model", str(model), "--reps", "0", "--out", str(out)])
    assert code == 1
    assert "at least one replication" in capsys.readouterr().err
    assert not out.exists()

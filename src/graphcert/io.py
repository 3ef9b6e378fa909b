"""File formats: edge lists, dense CSV matrices, and model-spec JSON.

Edge lists are UTF-8 text with one "u<TAB>v" pair per line, 0-based node
ids, each undirected pair listed once. The loader symmetrizes and rejects
self-loops, duplicates, and malformed lines. Dense matrices use the
repo-wide CSV convention: one row per line, comma-separated decimals.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import TooManyNodes
from .models import (
    AdjacencyMatrix,
    DCSBMSpec,
    Envelope,
    ProbabilityModel,
    RDPGSpec,
    SBMSpec,
    build_probability_matrix,
)

__all__ = [
    "parse_edge_list",
    "load_edge_list",
    "matrix_to_csv",
    "matrix_from_csv",
    "model_from_dict",
    "model_to_dict",
    "load_model_json",
]

# Dense-storage ceiling: one float64 copy of a 20000-node adjacency matrix
# already takes 3.2 GB, and the pipeline holds several.
MAX_NODES = 20_000


def parse_edge_list(text: str, n: Optional[int] = None) -> AdjacencyMatrix:
    """Parse edge-list text into an adjacency matrix.

    ``n`` defaults to max node id + 1. Self-loops, duplicate pairs (in
    either order), negative ids, and non "u<TAB>v" lines are rejected, and
    a node count above :data:`MAX_NODES` raises :class:`TooManyNodes`
    before anything of size n^2 is allocated.
    """
    edges = []
    max_id = -1
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u<TAB>v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: node ids must be integers") from exc
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: node ids must be nonnegative")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at node {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append(key)
        max_id = max(max_id, u, v)
    size = n if n is not None else max_id + 1
    if size <= max_id:
        raise ValueError(f"declared n = {size} but saw node id {max_id}")
    if size > MAX_NODES:
        raise TooManyNodes(
            f"n = {size} exceeds the dense-storage limit of {MAX_NODES} nodes"
        )
    A = np.zeros((size, size), dtype=np.int8)
    for u, v in edges:
        A[u, v] = 1
        A[v, u] = 1
    return AdjacencyMatrix(n=size, A=A)


def load_edge_list(path: Union[str, Path], n: Optional[int] = None) -> AdjacencyMatrix:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"), n=n)


def matrix_to_csv(M: np.ndarray) -> str:
    """One row per line, comma-separated decimals (17 significant digits)."""
    M = np.asarray(M, dtype=float)
    return "\n".join(",".join(format(v, ".17g") for v in row) for row in M) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    rows = [
        [float(v) for v in line.split(",")]
        for line in text.splitlines()
        if line.strip()
    ]
    if not rows:
        return np.zeros((0, 0))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged CSV matrix")
    return np.asarray(rows, dtype=float)


def model_from_dict(d: dict) -> ProbabilityModel:
    """Build a probability model from its JSON document.

    Variants:
      {"type": "sbm",   "labels": [...], "B": [[...]]}
      {"type": "dcsbm", "theta": [...], "labels": [...], "B": [[...]]}
      {"type": "rdpg",  "X": [[...]], "signature": [p, q]}
    with an optional {"envelope": {"d_max": ..., "gap": ...}} block.
    """
    kind = d.get("type")
    if kind == "sbm":
        spec = SBMSpec.from_labels(d["labels"], np.asarray(d["B"], dtype=float))
    elif kind == "dcsbm":
        spec = DCSBMSpec(
            theta=np.asarray(d["theta"], dtype=float),
            labels=np.asarray(d["labels"], dtype=np.int64),
            B=np.asarray(d["B"], dtype=float),
        )
    elif kind == "rdpg":
        X = np.asarray(d["X"], dtype=float)
        sig = d.get("signature")
        spec = RDPGSpec(X=X, signature=tuple(sig) if sig else (X.shape[1], 0))
    else:
        raise ValueError(f"unknown model type {kind!r}")
    env = None
    if d.get("envelope") is not None:
        env = Envelope(d_max=d["envelope"].get("d_max"), gap=d["envelope"].get("gap"))
    return build_probability_matrix(spec, envelope=env)


def model_to_dict(model: ProbabilityModel) -> dict:
    spec = model.spec
    if isinstance(spec, SBMSpec):
        out = {
            "type": "sbm",
            "labels": [int(v) for v in spec.labels],
            "B": [[float(v) for v in row] for row in spec.B],
        }
    elif isinstance(spec, DCSBMSpec):
        out = {
            "type": "dcsbm",
            "theta": [float(v) for v in spec.theta],
            "labels": [int(v) for v in spec.labels],
            "B": [[float(v) for v in row] for row in spec.B],
        }
    elif isinstance(spec, RDPGSpec):
        out = {
            "type": "rdpg",
            "X": [[float(v) for v in row] for row in spec.X],
            "signature": list(spec.signature),
        }
    else:
        raise ValueError("model has no serializable spec")
    if model.envelope is not None:
        out["envelope"] = {"d_max": model.envelope.d_max, "gap": model.envelope.gap}
    return out


def load_model_json(path: Union[str, Path]) -> ProbabilityModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))

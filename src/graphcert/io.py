"""File formats: edge lists and declaration JSON.

Edge lists are UTF-8 text with one "u<TAB>v" pair per line, 0-based node
ids, each undirected pair listed once. The loader symmetrizes and rejects
self-loops, duplicates, and malformed lines. Declarations (model specs,
envelopes, protocol configs) are JSON objects whose keys are the fields of
the dataclass they build (:func:`from_json`).
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .errors import TooManyNodes
from .models import (
    AdjacencyMatrix,
    DCSBMSpec,
    ModelSpec,
    ProbabilityModel,
    RDPGSpec,
    SBMSpec,
    build_probability_matrix,
)

__all__ = [
    "parse_edge_list",
    "load_edge_list",
    "from_json",
    "to_json",
    "spec_from_dict",
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


# model type -> its spec class, whose fields are the keys of the type
_SPECS = {"sbm": SBMSpec, "dcsbm": DCSBMSpec, "rdpg": RDPGSpec}


def _json_object(obj, where: str) -> dict:
    """A copy of a JSON object without its null entries (null declares
    nothing, so the default applies); anything else is refused."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    return {key: val for key, val in obj.items() if val is not None}


def from_json(build: Callable, obj, where: str, readers: Optional[dict] = None):
    """``build(**obj)``: the keys of the JSON object are the parameters of
    ``build`` (a dataclass's fields), and ``readers`` maps a key to the reader
    ``read(value, key)`` of its nested object. A non-object, an unknown or a
    missing key, and a value ``build`` refuses with a bare TypeError or
    ValueError raise a ValueError naming ``where``; typed refusals pass."""
    kwargs = _json_object(obj, where)
    for key, read in (readers or {}).items():
        if key in kwargs:
            kwargs[key] = read(kwargs[key], key)
    try:
        inspect.signature(build).bind(**kwargs)  # names an unknown or a missing key
        return build(**kwargs)
    except (TypeError, ValueError) as exc:
        if type(exc) not in (TypeError, ValueError):
            raise
        raise ValueError(f"{where}: {exc}") from exc


def spec_from_dict(d, where: str = "model") -> ModelSpec:
    """Build a model spec from its JSON object: ``type`` picks the spec class
    and the other keys are its fields.

    Variants:
      {"type": "sbm",   "labels": [...], "B": [[...]]}
      {"type": "dcsbm", "theta": [...], "labels": [...], "B": [[...]]}
      {"type": "rdpg",  "X": [[...]], "signature": [p, q]}
    """
    d = _json_object(d, where)
    kind = d.pop("type", None)
    if kind not in _SPECS:
        raise ValueError(f"{where}: unknown model type {kind!r}")
    return from_json(_SPECS[kind], d, f"{kind} {where}")


def to_json(obj):
    """The JSON value :func:`from_json` and :func:`spec_from_dict` read back:
    a dataclass becomes an object of its non-null fields, headed by its
    ``type`` for a model spec, and tuples and arrays become lists."""
    if dataclasses.is_dataclass(obj):
        values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        out = {key: to_json(val) for key, val in values.items() if val is not None}
        kind = {cls: kind for kind, cls in _SPECS.items()}.get(type(obj))
        return out if kind is None else {"type": kind, **out}
    if isinstance(obj, tuple):
        return [to_json(v) for v in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def model_from_dict(d: dict) -> ProbabilityModel:
    """Build a probability model from its spec's JSON object (see
    :func:`spec_from_dict`)."""
    return build_probability_matrix(spec_from_dict(d))


def model_to_dict(model: ProbabilityModel) -> dict:
    if model.spec is None:
        raise ValueError("model has no serializable spec")
    return to_json(model.spec)


def load_model_json(path: Union[str, Path]) -> ProbabilityModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))

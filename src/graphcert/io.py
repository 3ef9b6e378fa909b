"""File formats: edge lists and declaration JSON.

Edge lists are UTF-8 text with one "u<TAB>v" pair per line, 0-based node
ids, each undirected pair listed once. The loader reads the whole list in
one vectorized pass (by byte arithmetic when the list is canonical),
symmetrizes, and rejects self-loops, duplicates, and malformed lines,
naming the first faulty line. Declarations (model specs, envelopes,
protocol configs) are JSON objects whose keys are the fields of the
dataclass they build (:func:`from_json`).
"""

from __future__ import annotations

import bisect
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

    Lines are those of ``str.splitlines`` (blank lines count in the line
    numbers), each stripped of surrounding whitespace; a node id is what
    Python's ``int()`` reads. ``n`` defaults to max node id + 1. The first
    faulty line in file order is refused: within a line, a shape other than
    "u<TAB>v", then a non-integer id, a negative id, a self-loop, and a pair
    listed before (in either order). After the lines, a declared ``n`` below
    1, an empty list without ``n``, a declared ``n`` not above every id, and
    a node count above :data:`MAX_NODES` are refused, the last with
    :class:`TooManyNodes` before anything of size n^2 is allocated.

    A canonical list (:func:`_canonical_ids`) is read by byte arithmetic;
    any other text by the general tokenizer (:func:`_general_ids`). Both
    feed the one fault tail below, so every refusal is worded in one place.
    """
    ids = _canonical_ids(text)
    if ids is not None:
        node, refused, rows, misshapen = int, None, np.arange(ids.size // 2), None
    else:
        ids, node, refused, rows, misshapen = _general_ids(text)
    u, v = ids.reshape(-1, 2).T
    # Every code in [0, MAX_NODES): fill A on the codes. Distinct pairs with
    # distinct ends set 2m entries, so a full count proves there is no
    # self-loop and no duplicate, and no sort is needed to name one.
    A = None
    if u.size and ids.min() >= 0 and ids.max() < MAX_NODES:
        A = _adjacency(int(ids.max()) + 1, u, v)
    if A is None or np.count_nonzero(A) < 2 * u.size:
        _refuse_faulty_line(u, v, rows, node)
    if refused is not None:
        raise ValueError(f"line {rows[u.size] + 1}: node ids must be integers") from refused
    if misshapen is not None:
        raise ValueError(misshapen)
    if n is not None and n < 1:
        raise ValueError(f"declared n = {n}, but a graph needs at least one node")
    if n is None and not u.size:
        raise ValueError("the edge list has no edges, so n must be declared")
    max_id = node(ids.max()) if u.size else -1
    size = n if n is not None else max_id + 1
    if size <= max_id:
        raise ValueError(f"declared n = {size} but saw node id {max_id}")
    if size > MAX_NODES:
        raise TooManyNodes(
            f"n = {size} exceeds the dense-storage limit of {MAX_NODES} nodes"
        )
    if A is None or len(A) != size:  # a declared n above max id + 1, or no edges
        A = _adjacency(size, u, v)
    return AdjacencyMatrix(n=size, A=A)


def _adjacency(size: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    A = np.zeros((size, size), dtype=np.int8)
    A[u, v] = 1
    A[v, u] = 1
    return A


def _refuse_faulty_line(u, v, rows, node) -> None:
    """Raise on the first pair with a negative id, a self-loop or a repeat
    of an earlier pair (in either order); ``rows`` are their line indices."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))  # stable: the first of equal pairs sorts first
    repeat = np.zeros(u.size, dtype=bool)
    repeat[order[1:]] = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
    faulty = (u < 0) | (v < 0) | (u == v) | repeat
    if faulty.any():
        i = int(np.argmax(faulty))
        where = f"line {rows[i] + 1}"
        if u[i] < 0 or v[i] < 0:
            raise ValueError(f"{where}: node ids must be nonnegative")
        if u[i] == v[i]:
            raise ValueError(f"{where}: self-loop at node {node(u[i])}")
        raise ValueError(f"{where}: duplicate edge {(node(lo[i]), node(hi[i]))}")


# The canonical form: ASCII digits, TAB and newline only, every line exactly
# "digits<TAB>digits" (no blank line, the final newline optional), and ids of
# at most 18 digits, so each fits int64 (10**18 - 1 < 2**63).
_CANONICAL_DIGITS = 18


def _canonical_ids(text: str) -> Optional[np.ndarray]:
    """The int64 ids of a canonical edge list in file order (u, v, u, v, ...),
    or None for any other text.

    One pass over the bytes: the separators are the bytes below "0", and
    they must alternate TAB, newline; each id is accumulated right-aligned,
    ``ids*10 + digit``, one loop step per digit position. ``int()`` reads a
    canonical id to the same number, and ``str.splitlines`` splits a
    canonical list at its newlines only, so the general tokenizer would
    read the same ids from the same lines.
    """
    data = text.encode("ascii", "replace")  # a non-ASCII character becomes "?"
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.max() > ord("9"):
        return None
    seps = np.flatnonzero(buf < ord("0"))
    width = np.diff(seps, prepend=-1) - 1  # digits before each separator
    if (
        seps.size % 2
        or not np.all(buf[seps[0::2]] == ord("\t"))
        or not np.all(buf[seps[1::2]] == ord("\n"))
        or width.min() < 1
        or width.max() > _CANONICAL_DIGITS
    ):
        return None
    ids = np.zeros(seps.size, dtype=np.int64)
    for back in range(int(width.max()), 0, -1):  # digit position from the right
        # an index left of the first id clips to 0; like every position left
        # of a shorter id, it is masked
        digit = buf.take(seps - back, mode="clip") - np.uint8(ord("0"))
        digit[width < back] = 0
        ids *= 10
        ids += digit
    return ids


def _general_ids(text: str) -> tuple:
    """``(codes, node, refused, rows, misshapen)`` of any edge-list text: the
    codes of the ids on the well-formed lines before the first misshapen
    one, ``node`` and ``refused`` as :func:`_node_ids` gives them, the line
    index of each pair, and the refusal of the first misshapen line (None
    when there is none)."""
    lines = text.splitlines()
    stripped = list(map(str.strip, lines))
    # Tabs per line, counted on the UTF-8 bytes: a tab or newline byte never
    # occurs inside a multibyte sequence, and no stripped line holds "\n".
    buf = np.frombuffer(
        "\n".join(stripped).encode("utf-8", "surrogatepass"), dtype=np.uint8
    )
    ends = np.flatnonzero(buf == ord("\n"))
    tabs = np.bincount(
        np.searchsorted(ends, np.flatnonzero(buf == ord("\t"))), minlength=len(lines)
    )
    rows = np.flatnonzero(np.diff(ends, prepend=-1, append=buf.size) > 1)
    misshapen = rows[tabs[rows] != 1]
    cut = int(misshapen[0]) if misshapen.size else len(lines)
    rows = rows[rows < cut]  # the well-formed lines before the first misshapen one
    tokens = "\t".join(filter(None, stripped[:cut])).split("\t") if rows.size else []
    codes, node, refused = _node_ids(tokens)
    fault = None
    if cut < len(lines):
        fault = f"line {cut + 1}: expected 'u<TAB>v', got {lines[cut]!r}"
    return codes, node, refused, rows, fault


def _node_ids(tokens: list) -> tuple:
    """``(codes, node, refused)``: int64 codes of the id tokens, ``node(code)``
    the id a code stands for, and the ValueError of the first token ``int()``
    refuses (None when it reads them all).

    All tokens are read by one ``np.array`` call, which applies ``int()``, so
    the codes are the ids. When that fails, the tokens before the refused
    one are read in whole lines, and an id outside int64 (refused later by
    the size checks) makes the codes ranks that keep the ids' order,
    equality and sign.
    """
    try:
        return np.array(tokens, dtype=np.int64), int, None
    except (ValueError, OverflowError):
        pass
    ids, refused = [], None
    for token in tokens:
        try:
            ids.append(int(token))
        except ValueError as exc:
            refused = exc
            break
    del ids[len(ids) - len(ids) % 2:]
    values = sorted(set(ids))
    zero = bisect.bisect_left(values, 0)
    rank = {value: i - zero for i, value in enumerate(values)}
    codes = np.array([rank[value] for value in ids], dtype=np.int64)
    return codes, lambda code: values[code + zero], refused


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

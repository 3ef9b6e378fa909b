"""The vectorized edge-list reader against the line-by-line reader it replaced.

``_line_loop_reader`` is the earlier ``io.parse_edge_list``, kept here as a
test oracle: for every input the two give the same matrix (bytes, dtype
and n) or raise the same exception type with the same message. The only
intended differences are two refusals the line loop lacked: a declared
n below 1, and an empty edge list without a declared n.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcert.io
from graphcert import TooManyNodes
from graphcert.cli import main
from graphcert.io import parse_edge_list
from graphcert.models import AdjacencyMatrix

NEW_N_REFUSAL = "a graph needs at least one node"
NEW_EMPTY_REFUSAL = "the edge list has no edges, so n must be declared"


def _line_loop_reader(text, n=None):
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
    if size > graphcert.io.MAX_NODES:
        raise TooManyNodes(
            f"n = {size} exceeds the dense-storage limit of {graphcert.io.MAX_NODES} nodes"
        )
    A = np.zeros((size, size), dtype=np.int8)
    for u, v in edges:
        A[u, v] = 1
        A[v, u] = 1
    return AdjacencyMatrix(n=size, A=A)


def _outcome(read, text, n):
    try:
        adj = read(text, n=n)
    except Exception as exc:  # the outcome under test is the exception itself
        return ("raises", type(exc), str(exc))
    return ("reads", adj.n, adj.A.dtype, adj.A.tobytes())


def _expected(text, n):
    """The line loop's outcome, with the two new refusals where they apply:
    once every line has passed (the loop read the graph or refused it for
    its size), a declared n below 1 and an empty list without n are
    refused."""
    outcome = _outcome(_line_loop_reader, text, n)
    line_fault = outcome[0] == "raises" and outcome[2].startswith("line ")
    if n is not None and n < 1 and not line_fault:
        return ("raises", ValueError, f"declared n = {n}, but {NEW_N_REFUSAL}")
    if n is None and outcome[:2] == ("reads", 0):
        return ("raises", ValueError, NEW_EMPTY_REFUSAL)
    return outcome


def _assert_same(text, n=None, max_nodes=None):
    with pytest.MonkeyPatch.context() as mp:
        if max_nodes is not None:
            mp.setattr(graphcert.io, "MAX_NODES", max_nodes)
        assert _outcome(parse_edge_list, text, n) == _expected(text, n)


# Pieces of small edge lists: ids as int() reads (or refuses) them, field
# separators, and every line separator str.splitlines knows.
IDS = [
    "0", "1", "2", "3", "4", "7", "+3", "1_0", " 2 ", "٣", "１", "-1", "-0", "00",
    "a", "", " ", "1.0", "0x1", "1__0", "9223372036854775807", "9223372036854775808",
    "-9223372036854775809", "18446744073709551616", "4611686018427387904",
]
FIELD_SEPS = ["\t", "\t", "\t", " ", "\t\t", " \t "]
LINE_SEPS = ["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029"]
BLANK = ["", " ", "\t", " \t ", "\u3000"]

line_text = st.one_of(
    st.tuples(st.sampled_from(IDS), st.sampled_from(FIELD_SEPS), st.sampled_from(IDS)).map(
        "".join
    ),
    st.sampled_from(BLANK),
    st.text(alphabet="0123\t -+_a", max_size=6),
)
edge_list_text = st.builds(
    lambda lines, seps, end: "".join(l + s for l, s in zip(lines, seps)) + end,
    st.lists(line_text, max_size=8),
    st.lists(st.sampled_from(LINE_SEPS), min_size=8, max_size=8),
    st.sampled_from(["", "\n", "\r\n"]),
)
declared_n = st.one_of(
    st.none(), st.integers(-3, 12), st.sampled_from([10**6, 2**63, 2**64 + 1])
)


@settings(max_examples=600)
@given(text=edge_list_text, n=declared_n, max_nodes=st.sampled_from([None, 3, 8]))
def test_reader_matches_line_loop(text, n, max_nodes):
    _assert_same(text, n, max_nodes)


@settings(max_examples=300)
@given(text=st.text(alphabet="0123\t\n\r -+_٣\x85", max_size=40), n=declared_n)
def test_reader_matches_line_loop_on_raw_text(text, n):
    _assert_same(text, n)


PINNED = {
    "crlf": "0\t1\r\n1\t2\r\n",
    "cr": "0\t1\r1\t2\r",
    "other_separators": "0\t1\x0b1\t2\x0c2\t3\x1c3\t4\x1d4\t5\x1e5\t6\x856\t7\u20287\t8\u20298\t9",
    "blank_lines_count": "\n\n0\t1\n \n\t\n1\t1\n",
    "whitespace_only": " \n\t\n\u3000\n",
    "empty": "",
    "spaces_around_ids": "  0 \t 1  \n",
    "plus_sign": "+3\t0\n",
    "underscore": "1_0\t0\n",
    "unicode_digits": "٣\t１\n",
    "negative": "0\t1\n-1\t2\n",
    "negative_zero": "-0\t1\n",
    "self_loop": "0\t1\n2\t2\n",
    "duplicate_same_order": "0\t1\n1\t2\n0\t1\n",
    "duplicate_reversed": "0\t1\n1\t2\n1\t0\n",
    "duplicate_via_spelling": "3\t1\n+1\t0_3\n",
    "format_then_int": "0\t1\n0 1\nx\t1\n",
    "int_then_format": "0\t1\nx\t1\n0 1\n",
    "int_then_negative": "x\t1\n-1\t1\n",
    "negative_then_self_loop": "-1\t0\n2\t2\n",
    "self_loop_then_duplicate": "0\t1\n3\t3\n1\t0\n",
    "duplicate_then_format": "0\t1\n1\t0\n0\t1\t2\n",
    "negative_self_loop_one_line": "-1\t-1\n",
    "three_fields": "0\t1\t2\n",
    "trailing_tab_stripped": "0\t1\t\n",
    "int64_max": "0\t9223372036854775807\n",
    "above_int64": "0\t9223372036854775808\n",
    "above_int64_then_int_fault": "0\t9223372036854775808\nx\t1\n",
    "above_int64_then_negative": "0\t18446744073709551616\n-1\t1\n",
    "above_int64_self_loop": "18446744073709551616\t18446744073709551616\n",
    "above_int64_duplicate": "0\t18446744073709551616\n18446744073709551616\t0\n",
    "below_int64_min": "-9223372036854775809\t1\n",
    "int_fault_after_above_int64": "1\t2\n2\t9223372036854775808\n3\t4\n1\ty\n",
    "too_many_digits": "0\t" + "1" * 5000 + "\n",
    "lone_surrogate_id": "0\t1\n\ud800\t1\n",
    "lone_surrogate_line": "0\t1\n\ud800\n",
}


@pytest.mark.parametrize("n", [None, 3, 10, 0, -2, 2**63])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_inputs_match_line_loop(name, n):
    _assert_same(PINNED[name], n)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_inputs_match_line_loop_small_ceiling(name):
    _assert_same(PINNED[name], None, max_nodes=5)
    _assert_same(PINNED[name], 6, max_nodes=5)


def test_accepted_id_syntax_and_line_numbers():
    A = parse_edge_list(" +3 \t1_0\n\n٣\t１\r\n")
    assert A.n == 11
    assert A.A[3, 10] == A.A[10, 3] == A.A[1, 3] == A.A[3, 1] == 1
    assert A.A.sum() == 4
    with pytest.raises(ValueError, match=r"^line 4: duplicate edge \(1, 3\)$"):
        parse_edge_list("1\t3\n\n \n3\t1\n")
    with pytest.raises(ValueError, match=r"^line 2: self-loop at node 18446744073709551616$"):
        parse_edge_list("0\t1\n18446744073709551616\t18446744073709551616\nx\ty\n")


def test_id_above_int64_is_refused_by_size():
    with pytest.raises(TooManyNodes, match="^n = 9223372036854775809 exceeds"):
        parse_edge_list("0\t9223372036854775808\n")
    with pytest.raises(ValueError, match="^declared n = 5 but saw node id 9223372036854775808$"):
        parse_edge_list("0\t9223372036854775808\n", n=5)


def test_new_refusals_name_the_problem():
    with pytest.raises(ValueError, match=f"^declared n = -2, but {NEW_N_REFUSAL}$"):
        parse_edge_list("", n=-2)
    with pytest.raises(ValueError, match=f"^declared n = 0, but {NEW_N_REFUSAL}$"):
        parse_edge_list("0\t1\n", n=0)
    with pytest.raises(ValueError, match=f"^{NEW_EMPTY_REFUSAL}$"):
        parse_edge_list("\n \n")
    assert parse_edge_list("\n", n=4).A.sum() == 0


@pytest.mark.parametrize("text, extra, message", [
    ("", [], NEW_EMPTY_REFUSAL),
    ("0\t1\n", ["--n", "-2"], NEW_N_REFUSAL),
])
def test_cli_new_refusals_exit_code(tmp_path, capsys, text, extra, message):
    graph = tmp_path / "graph.tsv"
    graph.write_text(text, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text('{"k": 1}', encoding="utf-8")
    assert main(["certify", "--graph", str(graph), "--config", str(config), *extra]) == 1
    assert message in capsys.readouterr().err


def test_realistic_edge_list_matches_line_loop():
    """A shuffled n=1000 two-block graph with half its pairs reversed."""
    rng = np.random.default_rng(2024)
    n = 1000
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where((iu < n // 2) == (ju < n // 2), 0.3, 0.1)
    keep = rng.random(iu.size) < prob
    pairs = np.stack([iu[keep], ju[keep]], axis=1)
    flip = rng.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip][:, ::-1]
    pairs = pairs[rng.permutation(len(pairs))]
    text = "".join(f"{u}\t{v}\n" for u, v in pairs.tolist())
    read = parse_edge_list(text)
    oracle = _line_loop_reader(text)
    assert read.n == oracle.n == n
    assert read.A.dtype == oracle.A.dtype
    assert np.array_equal(read.A, oracle.A)
    assert int(read.A.sum()) == 2 * len(pairs)


def _refuse_call(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refuse


def test_realistic_edge_list_takes_the_canonical_path(monkeypatch):
    """The n=1000 list above is canonical: it is read without the general
    tokenizer and, having no fault, without the sort that names one."""
    monkeypatch.setattr(graphcert.io, "_general_ids", _refuse_call("_general_ids"))
    monkeypatch.setattr(graphcert.io, "_refuse_faulty_line", _refuse_call("the lexsort"))
    test_realistic_edge_list_matches_line_loop()


def test_crlf_file_takes_the_canonical_path(tmp_path, monkeypatch):
    """load_edge_list reads in universal-newline mode, so a file written with
    CRLF line ends reaches the parser with newlines and is canonical."""
    graph = tmp_path / "graph.tsv"
    graph.write_bytes(b"0\t1\r\n1\t2\r\n2\t3\r\n")
    monkeypatch.setattr(graphcert.io, "_general_ids", _refuse_call("_general_ids"))
    read = graphcert.io.load_edge_list(graph)
    want = parse_edge_list("0\t1\n1\t2\n2\t3\n")
    assert (read.n, read.A.tobytes()) == (want.n, want.A.tobytes())


def test_duplicate_at_the_end_of_a_long_canonical_list_is_named(monkeypatch):
    """One repeated pair after 10k distinct ones: the count of A falls short
    by two, and the lexsort names the repeat's line."""
    rng = np.random.default_rng(7)
    iu, ju = np.triu_indices(200, k=1)
    pick = rng.choice(iu.size, size=10_000, replace=False)
    pairs = np.stack([iu[pick], ju[pick]], axis=1)
    u, v = pairs[4321].tolist()
    text = "".join(f"{a}\t{b}\n" for a, b in pairs.tolist()) + f"{v}\t{u}"
    sorts = []
    monkeypatch.setattr(graphcert.io, "_general_ids", _refuse_call("_general_ids"))
    refuse_faulty_line = graphcert.io._refuse_faulty_line
    monkeypatch.setattr(
        graphcert.io, "_refuse_faulty_line",
        lambda *args: sorts.append(1) or refuse_faulty_line(*args),
    )
    with pytest.raises(ValueError, match=rf"^line 10001: duplicate edge \({u}, {v}\)$"):
        parse_edge_list(text)
    assert sorts == [1]
    assert _outcome(parse_edge_list, text, None) == _expected(text, None)


# Canonical-alphabet ids: as the byte reader reads them (leading zeros, up
# to 18 digits) and, about one draw in twenty, as it hands them on (19
# digits, above int64, beyond int()'s 4300-digit limit).
LONG_IDS = [
    "9" * 18, "1" + "0" * 17, "0" * 17 + "5", "1" * 19, "9223372036854775807",
    "9223372036854775808", "9" * 19, "1" * 5000,
]
CANONICAL_IDS = st.builds(
    lambda pick, zeros, i, long: long if pick == 0 else "0" * zeros * (pick <= 3) + str(i),
    st.integers(0, 19), st.integers(1, 3), st.integers(0, 30), st.sampled_from(LONG_IDS),
)


@st.composite
def canonical_alphabet_text(draw):
    """Edge-list text over "0123456789\\t\\n": pairs, self-loops, repeats of an
    earlier pair in the same and in reversed order, blank lines and stray
    runs of the alphabet, with or without a final newline."""
    lines, pairs = [], []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(
            ["pair"] * 12 + ["self_loop", "repeat", "reversed", "blank", "stray"]
        ))
        if kind in ("repeat", "reversed") and pairs:
            u, v = draw(st.sampled_from(pairs))
            lines.append(f"{u}\t{v}" if kind == "repeat" else f"{v}\t{u}")
        elif kind == "self_loop":
            u = draw(CANONICAL_IDS)
            lines.append(f"{u}\t{u}")
        elif kind == "blank":
            lines.append("")
        elif kind == "stray":
            lines.append(draw(st.text(alphabet="0123456789\t", max_size=6)))
        else:
            pairs.append((draw(CANONICAL_IDS), draw(CANONICAL_IDS)))
            lines.append("\t".join(pairs[-1]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=600)
@given(
    text=canonical_alphabet_text(),
    n=st.one_of(st.none(), st.integers(-2, 40), st.just(20_001)),
    max_nodes=st.sampled_from([3, 8, 100]),
)
def test_canonical_alphabet_matches_line_loop(text, n, max_nodes):
    _assert_same(text, n, max_nodes)


@settings(max_examples=300)
@given(
    text=st.text(alphabet="0123456789\t\n", max_size=40),
    n=declared_n,
    max_nodes=st.sampled_from([3, 8, 100]),
)
def test_raw_canonical_alphabet_matches_line_loop(text, n, max_nodes):
    _assert_same(text, n, max_nodes)

"""Property tests: both ways into Graph agree, the file format round-trips,
and malformed edge lists and graph files are rejected without a traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_vertex_indices

from matdisc import FormatError, Graph, from_adjacency, read_graph, write_graph
from matdisc.cli import main
from matdisc.graphs import _vertex_indices

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def edge_lists(draw, max_n=12):
    """(n, pairs): a random simple graph on n <= max_n vertices whose edges
    come in random order, each in a random orientation."""
    n = draw(st.integers(1, max_n))
    slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(slots), unique=True)) if slots else []
    chosen = draw(st.permutations(chosen))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen),
                          max_size=len(chosen)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]


BAD_KINDS = ("loop", "out-of-range", "duplicate", "reversed", "non-pair",
             "non-integral")


@st.composite
def bad_edge_lists(draw):
    """(n, pairs, kind): a valid edge list with one bad pair inserted."""
    n, pairs = draw(edge_lists())
    kind = draw(st.sampled_from(BAD_KINDS))
    if kind in ("duplicate", "reversed"):
        hypothesis.assume(pairs)
        u, v = draw(st.sampled_from(pairs))
        bad = (u, v) if kind == "duplicate" else (v, u)
    elif kind == "loop":
        v = draw(st.integers(1, n))
        bad = (v, v)
    elif kind == "out-of-range":
        bad = (draw(st.sampled_from([-1, 0, n + 1, n + 7])),
               draw(st.integers(1, n)))
    elif kind == "non-pair":
        bad = draw(st.sampled_from([(), (1,), (1, 2, 3)]))
    else:
        bad = (draw(st.integers(1, n)) + 0.5, 1)
    at = draw(st.integers(0, len(pairs)))
    return n, pairs[:at] + [bad] + pairs[at:], kind


def _graph_text(n: int, pairs) -> str:
    lines = [f"graph {n} {len(pairs)}"] + [" ".join(map(str, p)) for p in pairs]
    return "\n".join(lines) + "\n"


@hypothesis.settings(deadline=None)
@hypothesis.given(edge_lists())
def test_pair_and_matrix_paths_agree(graph_input):
    n, pairs = graph_input
    g = Graph(n, pairs)
    assert g.edges == tuple(sorted((min(p), max(p)) for p in pairs))
    assert g.m == len(pairs)
    assert g.degrees.tolist() == [sum(v in p for p in pairs)
                                  for v in range(1, n + 1)]
    h = from_adjacency(g.adjacency)
    assert h.edges == g.edges and h.m == g.m
    assert np.array_equal(h.degrees, g.degrees)
    assert h.density() == g.density()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        write_graph(g, path)
        back = read_graph(path)
    assert back.n == n and back.edges == g.edges


@hypothesis.settings(deadline=None)
@hypothesis.given(bad_edge_lists())
def test_bad_pairs_rejected(bad_input):
    n, pairs, kind = bad_input
    with pytest.raises(ValueError):
        Graph(n, pairs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(_graph_text(n, pairs))
        with pytest.raises(FormatError):
            read_graph(path)


HEADERS = ("graph {n} {m}", "graph {n}", "graph {n} {m} 1", "graph 0 0",
           "graph -1 0", "graph {n} -1", "graph x {m}", "graph 1e3 {m}",
           "graph 1000000000 0", "graph 10001 {m}", "sym {n}", "", "graph")
PIECES = ("0", "1", "9", "-", "-1", ".", "5.5", "e", "nan", "inf", " ", "\n",
          "x", "graph", "99", "1e3", "\t", "\x00", "é", "2 1")


@st.composite
def graph_files(draw):
    """Text of a graph file: a header that may be malformed, and the edge
    list of a small graph after a few random insertions, deletions and
    replacements."""
    n, pairs = draw(edge_lists(max_n=8))
    header = draw(st.sampled_from(HEADERS)) if draw(st.booleans()) else HEADERS[0]
    header = header.format(n=n, m=len(pairs))
    body = "".join(f"{u} {v}\n" for u, v in pairs)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(body)))
        piece = draw(st.sampled_from(PIECES))
        action = draw(st.sampled_from(("insert", "delete", "replace")))
        if action == "insert":
            body = body[:at] + piece + body[at:]
        elif action == "delete":
            body = body[:at] + body[at + 1:]
        else:
            body = body[:at] + piece + body[at + len(piece):]
    return header + "\n" + body


@hypothesis.settings(deadline=None)
@hypothesis.given(graph_files())
def test_malformed_graph_files_never_raise(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "chung", "--input", str(path),
                         "--samples", "20"])
    assert code in (0, 2, 6)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1


#: labels that sit on or just past the edges of 1..n, or are not numbers
EDGE_LABELS = (0, 1, -1, 1.5, 0.0, -0.0, 1.0, float("nan"), float("inf"),
               -float("inf"), 1e300, -1e300, 2 ** 40)
DTYPES = (None, np.int8, np.uint8, np.int64, np.uint64, np.float16,
          np.float32, np.float64)


@st.composite
def label_arrays(draw):
    """(labels, n): a small list or array of vertex labels, mostly in
    range, with edge cases mixed in, cast to one of DTYPES when it fits."""
    n = draw(st.integers(0, 12))
    pieces = st.one_of(st.integers(-3, n + 3), st.sampled_from(EDGE_LABELS),
                       st.sampled_from((n, n + 1, n + 0.5, float(n))),
                       st.floats(-2.0, n + 2.0))
    labels = draw(st.lists(pieces, max_size=8))
    dtype = draw(st.sampled_from(DTYPES))
    if dtype is None:
        return labels, n
    with np.errstate(all="ignore"):
        try:
            arr = np.array(labels, dtype=dtype)
        except (OverflowError, ValueError):
            hypothesis.assume(False)
    if draw(st.booleans()) and arr.size % 2 == 0:
        arr = arr.reshape(-1, 2)
    return arr, n


def _indices_or_error(fn, labels, n):
    try:
        return fn(labels, n).tolist()
    except ValueError:
        return "rejected"


@hypothesis.settings(deadline=None, max_examples=400)
@hypothesis.given(label_arrays())
def test_label_check_matches_membership_reference(case):
    labels, n = case
    assert (_indices_or_error(_vertex_indices, labels, n)
            == _indices_or_error(reference_vertex_indices, labels, n))


@pytest.mark.parametrize("label", [0, 14, 1.5, 0.5, 13.5, float("nan"),
                                   float("inf"), -float("inf"), -1, 1e300])
def test_label_edge_cases_rejected(label):
    for labels in ([label], [1, label], np.array([2.0, label])):
        with pytest.raises(ValueError):
            _vertex_indices(labels, 13)
        with pytest.raises(ValueError):
            reference_vertex_indices(labels, 13)


def test_label_range_exact_beyond_narrow_dtypes():
    # 2**24 + 3 rounds up to 2**24 + 4 in float32, and 1000 overflows int8
    n = 2 ** 24 + 3
    with pytest.raises(ValueError):
        _vertex_indices(np.array([2 ** 24 + 4], dtype=np.float32), n)
    assert _vertex_indices(np.array([2 ** 24], dtype=np.float32), n).tolist() == [2 ** 24 - 1]
    assert _vertex_indices(np.array([5, 127], dtype=np.int8), 1000).tolist() == [4, 126]
    assert _vertex_indices(np.array([255], dtype=np.uint8), 300).tolist() == [254]
    with pytest.raises(ValueError):
        _vertex_indices(np.array([0], dtype=np.uint8), 300)

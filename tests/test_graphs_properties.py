"""Property tests: both ways into Graph agree, the file format round-trips,
and malformed edge lists and graph files are rejected without a traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from matdisc import FormatError, Graph, from_adjacency, read_graph, write_graph
from matdisc.cli import main

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

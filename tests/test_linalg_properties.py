"""Property tests: malformed sym files never raise a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from matdisc.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

HEADERS = ("sym {n}", "sym", "sym {n} 1", "sym 0", "sym -1", "sym x",
           "sym 1e3", "sym 1000000000", "graph {n} 0", "")
PIECES = ("0", "1", "9", "-", "-1", ".", "5.5", "e", "nan", "inf", "-inf",
          "1e308", "-1e308", "1e400", "1e-320", "1j", "0x1", "1_0", " ", "\n",
          "\t", "x", "sym", "\x00", "é", "2 1")


@st.composite
def sym_files(draw):
    """Text of a sym file: a header that may be malformed, and the rows of
    a small symmetric matrix after a few random insertions, deletions and
    replacements."""
    n = draw(st.integers(1, 5))
    entries = st.one_of(st.integers(-9, 9), st.floats(-1e3, 1e3))
    upper = draw(st.lists(entries, min_size=n * (n + 1) // 2,
                          max_size=n * (n + 1) // 2))
    at = {}
    for i in range(n):
        for j in range(i, n):
            at[i, j] = at[j, i] = upper.pop()
    header = draw(st.sampled_from(HEADERS)) if draw(st.booleans()) else HEADERS[0]
    header = header.format(n=n)
    body = "".join(" ".join(repr(at[i, j]) for j in range(n)) + "\n"
                   for i in range(n))
    for _ in range(draw(st.integers(0, 4))):
        at_char = draw(st.integers(0, len(body)))
        piece = draw(st.sampled_from(PIECES))
        action = draw(st.sampled_from(("insert", "delete", "replace")))
        if action == "insert":
            body = body[:at_char] + piece + body[at_char:]
        elif action == "delete":
            body = body[:at_char] + body[at_char + 1:]
        else:
            body = body[:at_char] + piece + body[at_char + len(piece):]
    return header + "\n" + body


@hypothesis.settings(deadline=None)
@hypothesis.given(sym_files())
def test_malformed_sym_files_never_raise(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path)])
    assert code in (0, 2)
    if code == 0:
        assert len(out.getvalue().splitlines()) == 1
        assert json.loads(out.getvalue())["results"]["kind"] == "matrix"
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1

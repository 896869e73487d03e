"""Property test: any bytes given as a matrix file end in a documented exit
code, with one JSON report on stdout or none, and never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from matdisc.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

#: both headers, malformed ones, orders past the cap and non-ASCII digits
HEADERS = (b"sym {n}", b"graph {n} {m}", b"sym", b"sym {n} 1", b"sym 0",
           b"sym -1", b"sym 10001", b"sym 99999999999999999999", b"graph 10001 0",
           "sym ٣".encode(), b"sym \xff3", b"\xef\xbb\xbfsym {n}", b"")
PIECES = (b"0", b"1", b"-1", b".", b"5.5", b"e", b"nan", b"inf", b"-inf",
          b"1e308", b"1e400", b" ", b"\n", b"\t", b"\r\n", b"x", b"\x00",
          b"\xff", b"\xc3", "١".encode(), "é".encode(), b"2 1",
          b"1_0", b"0x1")
COMMANDS = (
    ["analyze"],
    ["analyze", "--heuristic", "--seed", "1", "--iters", "2"],
    ["certify"],
    ["verify", "chung", "--samples", "20", "--input"],
    ["verify", "thomason", "--p", "0.3", "--mu", "1", "--samples", "20",
     "--input"],
)


@st.composite
def matrix_file_bytes(draw):
    """Bytes of a file: the rows of a small 0/1 or integer symmetric matrix
    under a header that may be malformed, with rows dropped (ragged or
    short files) and a few bytes inserted, deleted or replaced; or no
    bytes at all."""
    if draw(st.integers(0, 19)) == 0:
        return b""
    n = draw(st.integers(1, 5))
    entries = st.sampled_from((0, 1)) if draw(st.booleans()) else st.integers(-9, 9)
    upper = draw(st.lists(entries, min_size=n * (n + 1) // 2,
                          max_size=n * (n + 1) // 2))
    at = {}
    for i in range(n):
        for j in range(i, n):
            at[i, j] = at[j, i] = 0 if i == j and n > 1 else upper.pop()
    header = draw(st.sampled_from(HEADERS)) if draw(st.booleans()) else HEADERS[0]
    header = header.replace(b"{n}", str(n).encode()).replace(b"{m}", b"1")
    rows = [" ".join(str(at[i, j]) for j in range(n)).encode() + b"\n"
            for i in range(n)]
    if draw(st.booleans()):
        del rows[draw(st.integers(0, n - 1))]
    body = b"".join(rows)
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(body)))
        piece = draw(st.sampled_from(PIECES))
        action = draw(st.sampled_from(("insert", "delete", "replace")))
        if action == "insert":
            body = body[:pos] + piece + body[pos:]
        elif action == "delete":
            body = body[:pos] + body[pos + 1:]
        else:
            body = body[:pos] + piece + body[pos + len(piece):]
    return header + b"\n" + body


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(matrix_file_bytes(), st.sampled_from(COMMANDS))
def test_any_file_bytes_end_in_a_documented_exit(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + [str(path)])
    hypothesis.event(f"exit {code}")
    assert code in (0, 2, 3, 4, 5, 6)
    assert "Traceback" not in err.getvalue()
    if code in (0, 6):
        # one JSON report on one line, then the one-line summary
        assert len(out.getvalue().splitlines()) == 1
        assert set(json.loads(out.getvalue())) >= {"command", "results", "timing"}
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error: ", "i/o error: "))

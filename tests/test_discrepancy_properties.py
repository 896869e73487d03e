"""Property tests: the exact engine against the brute-force oracle."""

import numpy as np
import pytest

from conftest import naive_disc

from matdisc import SymmetricMatrix, disc_exact

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

KINDS = ("gauss", "small-int", "binary", "constant", "rank-1", "zero")


@st.composite
def small_matrices(draw):
    """Symmetric matrices with n <= 7; all kinds but gauss are full of ties."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(KINDS))
    if kind == "gauss":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m = rng.normal(size=(n, n))
        return (m + m.T) / 2.0
    if kind in ("small-int", "binary"):
        lo, hi = (-3, 3) if kind == "small-int" else (0, 1)
        upper = np.zeros((n, n))
        upper[np.triu_indices(n)] = draw(st.lists(
            st.integers(lo, hi), min_size=n * (n + 1) // 2,
            max_size=n * (n + 1) // 2))
        return upper + np.triu(upper, 1).T
    if kind == "constant":
        return np.full((n, n), float(draw(st.integers(-5, 5))))
    if kind == "rank-1":
        v = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                     dtype=float)
        return np.outer(v, v)
    return np.zeros((n, n))


#: the smallest xmask ties the maximum only within float error here, so a
#: first-exact-maximum rule reports another witness
TIED_BY_ROUNDING = np.array([
    [-1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, -2],
    [0, 0, 0, 0, -2, -1],
    [0, 0, -1, -2, 1, -3],
    [0, 0, -2, -1, -3, -2],
], dtype=float)


@hypothesis.settings(deadline=None)
@hypothesis.example(a=TIED_BY_ROUNDING, batch_bits=0, threads=1)
@hypothesis.given(a=small_matrices(), batch_bits=st.integers(0, 8),
                  threads=st.integers(1, 3))
def test_exact_equals_naive_disc(a, batch_bits, threads):
    want_val, want_x, want_y = naive_disc(a)
    got = disc_exact(SymmetricMatrix(a), threads=threads, batch_bits=batch_bits)
    assert got.value == pytest.approx(want_val, abs=1e-12)
    assert got.witness_X == want_x
    assert got.witness_Y == want_y

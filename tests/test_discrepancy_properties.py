"""Property tests: the exact engine against the brute-force oracle,
heuristic <= exact <= sigma1 of the centred matrix, and every link of
the sigma2 certificate on either disc."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest

from conftest import (
    naive_disc,
    naive_pair_table,
    reference_best_y_for_x,
    reference_subset_sums,
)

from matdisc import (
    SymmetricMatrix,
    certify_sigma2,
    disc1_graph,
    disc2_graph,
    disc_exact,
    disc_heuristic,
    disc_value_at,
    gnp_random_graph,
)
from matdisc import discrepancy
from matdisc.discrepancy import (
    _Batches,
    _best_y_for_x,
    _ExactScan,
    _prefix_extremes,
    _row_values,
    _subset_forms,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

KINDS = ("gauss", "small-int", "binary", "constant", "rank-1", "zero")


@st.composite
def small_matrices(draw, max_n=7):
    """Symmetric matrices with n <= max_n; all kinds but gauss are full of
    ties."""
    n = draw(st.integers(1, max_n))
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
@hypothesis.example(a=TIED_BY_ROUNDING, batch_bits=0, threads=3)
@hypothesis.given(a=small_matrices(), batch_bits=st.integers(0, 8),
                  threads=st.integers(1, 3))
def test_exact_equals_naive_disc(a, batch_bits, threads):
    want_val, want_x, want_y = naive_disc(a)
    got = disc_exact(SymmetricMatrix(a), threads=threads, batch_bits=batch_bits)
    assert got.value == pytest.approx(want_val, abs=1e-12)
    assert got.witness_X == want_x
    assert got.witness_Y == want_y


TABLE_KINDS = ("gauss", "small-int", "binary", "rank-1", "huge", "tiny")
SCALES = {"gauss": 1.0, "huge": 1e100, "tiny": 1e-100}


@st.composite
def table_rows(draw):
    """A symmetric n x n matrix and a batch size b <= n, b <= 10; 'huge'
    entries are Gaussian times 1e100, the largest size the search takes,
    and 'tiny' ones Gaussian times 1e-100."""
    b = draw(st.integers(0, 10))
    n = draw(st.integers(max(b, 1), 12))
    kind = draw(st.sampled_from(TABLE_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in SCALES:
        m = rng.normal(size=(n, n)) * SCALES[kind]
        return (m + m.T) / 2.0, b
    if kind == "rank-1":
        v = rng.integers(-3, 4, size=n).astype(float)
        return np.outer(v, v), b
    lo, hi = (-3, 3) if kind == "small-int" else (0, 1)
    upper = np.triu(rng.integers(lo, hi + 1, size=(n, n)).astype(float))
    return upper + np.triu(upper, 1).T, b


@hypothesis.settings(deadline=None)
@hypothesis.given(case=table_rows())
def test_subset_forms_of_gram_matrices(case):
    a, b = case
    ref = reference_subset_sums(a[:b])
    want = np.einsum("ij,ij->i", ref, ref)
    got = _subset_forms(a[:b] @ a[:b].T)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * want.max())


@hypothesis.settings(deadline=None)
@hypothesis.given(case=table_rows())
def test_sign_split_bound_covers_every_mask(case):
    """Every batch's float32 bound table entry of a mask X, over unit^2, is
    at least max(||s+||^2, ||s-||^2) / |X| (1 - GRID_RTOL) for X's column
    sums s from the full table, which is at least value(X)^2, each within
    the float64 parts' margin (n + 4) u n^3 max|M|^2, u = 2^-53, and the
    grid's absolute margin GRID_ATOL / unit^2. The entry is also within a
    relative GRID_RTOL of max(||lo+ + hh+||^2, ||lo- + hh-||^2) / |X| on
    X's float64 half-table rows, so the units keep it from overflowing
    or underflowing float32."""
    a, b = case
    n = len(a)
    batches = _Batches(n, b)
    scan = _ExactScan(a, batches)
    assert scan.unit * float(np.abs(a).max()) < 1.0
    margin = (n + 4) * 2.0 ** -53 * n ** 3 * float(np.abs(a).max()) ** 2
    grid_margin = margin + discrepancy.GRID_ATOL / scan.unit ** 2
    low = reference_subset_sums(a[:b])
    low_size = reference_subset_sums(np.ones((b, 1)))[:, 0]
    for h in batches.highs:
        rows, first = batches.part(h)
        high = a[rows].sum(axis=0)
        got = scan._bound2(scan.half_hi + high, rows.size)[first:]
        assert got.dtype == np.float32
        got = got.astype(np.float64) / scan.unit ** 2
        s = (low + high)[first:]
        size = (low_size + rows.size)[first:]
        pos, neg = np.maximum(s, 0.0), np.minimum(s, 0.0)
        split = np.maximum(np.einsum("ij,ij->i", pos, pos),
                           np.einsum("ij,ij->i", neg, neg))
        assert np.all(got >= split / size * (1.0 - discrepancy.GRID_RTOL)
                      - grid_margin)
        masks = np.arange(first, 1 << b)
        lo = scan.half_lo[masks & ((1 << scan.split) - 1)]
        hh = (scan.half_hi + high)[masks >> scan.split]
        parts = [np.maximum(sign * lo, 0.0) + np.maximum(sign * hh, 0.0)
                 for sign in (1.0, -1.0)]
        want = np.maximum(*(np.einsum("ij,ij->i", v, v) for v in parts)) / size
        assert np.all(np.abs(got - want) <= discrepancy.GRID_RTOL * want
                      + discrepancy.GRID_ATOL / scan.unit ** 2)
        srt = np.sort(s, axis=1)
        ext = np.maximum(np.abs(np.cumsum(srt, axis=1)),
                         np.abs(np.cumsum(srt[:, ::-1], axis=1)))
        value2 = (ext ** 2 / np.arange(1.0, n + 1.0)).max(axis=1) / size
        assert np.all(split / size >= value2 - margin)


@hypothesis.settings(deadline=None)
@hypothesis.given(b=st.integers(0, 10), kind=st.sampled_from(("graph", "signed")),
                  seed=st.integers(0, 2**32 - 1))
def test_subset_forms_of_non_gram_matrices(b, kind, seed):
    """1_X^T Q 1_X for symmetric integer Q that are not Gram matrices: A/2
    of a random graph, and signed entries full of ties (the diagonal
    too).  Every sum is a small multiple of 1/2, so the table is exact."""
    rng = np.random.default_rng(seed)
    if kind == "graph":
        upper = np.triu(rng.random((b, b)) < 0.5, 1).astype(float)
        Q = (upper + upper.T) / 2.0
    else:
        upper = np.triu(rng.integers(-3, 4, size=(b, b))).astype(float)
        Q = upper + np.triu(upper, 1).T
    ind = (np.arange(1 << b)[:, None] >> np.arange(b)) & 1
    want = np.diag(ind @ Q @ ind.T)
    assert np.array_equal(_subset_forms(Q), want)


@hypothesis.settings(deadline=None)
@hypothesis.given(case=table_rows())
def test_half_tables_match_full_table(case):
    a, b = case
    scan = _ExactScan(a, _Batches(len(a), b))
    split = scan.split
    assert split == (b + 1) // 2
    assert scan.half_lo.shape == (1 << split, a.shape[0])
    assert scan.half_hi.shape == (1 << (b - split), a.shape[0])
    ref = reference_subset_sums(a[:b])
    # Each half sums its rows in the full table's order, bit for bit.
    assert np.array_equal(scan.half_lo, ref[:1 << split])
    assert np.array_equal(scan.half_hi, ref[::1 << split])
    # Their sum adds the two parts in another order: within b ulps of
    # the sum of magnitudes, on each side.
    masks = np.arange(1 << b)
    got = scan.half_lo[masks & ((1 << split) - 1)] + scan.half_hi[masks >> split]
    scale = reference_subset_sums(np.abs(a[:b]))
    assert np.all(np.abs(got - ref) <= 2 * b * np.finfo(float).eps * scale)


@hypothesis.settings(deadline=None)
@hypothesis.example(a=TIED_BY_ROUNDING, batch_bits=0, threads=3)
@hypothesis.given(a=small_matrices(), batch_bits=st.integers(0, 8),
                  threads=st.integers(1, 3))
def test_exact_equals_naive_disc_in_small_blocks(a, batch_bits, threads):
    # Two seed blocks and three rows a chunk: the default sizes reach the
    # block seeds only past 64 masks a batch and a second chunk only past
    # 4096 surviving rows, beyond the oracle's reach.
    with mock.patch.object(discrepancy, "SEED_ROWS", 2), \
            mock.patch.object(discrepancy, "SCORE_ROWS", 3):
        got = disc_exact(SymmetricMatrix(a), threads=threads,
                         batch_bits=batch_bits)
    want_val, want_x, want_y = naive_disc(a)
    assert got.value == pytest.approx(want_val, abs=1e-12)
    assert got.witness_X == want_x
    assert got.witness_Y == want_y


@st.composite
def scalable_matrices(draw):
    """A symmetric n x n matrix, n <= 14, with entries below 2^32, and a
    batch size b <= n of at most 2^6 batches: Gaussian, or integer and
    rank-one ones full of ties."""
    n = draw(st.integers(2, 14))
    b = draw(st.integers(max(0, n - 6), n))
    kind = draw(st.sampled_from(("gauss", "small-int", "binary", "rank-1")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gauss":
        m = rng.normal(size=(n, n)) * 4.0
    elif kind == "rank-1":
        v = rng.integers(-3, 4, size=n).astype(float)
        m = np.outer(v, v)
    else:
        lo, hi = (-3, 3) if kind == "small-int" else (0, 1)
        m = rng.integers(lo, hi + 1, size=(n, n)).astype(float)
    return (m + m.T) / 2.0, b


@hypothesis.settings(deadline=None)
@hypothesis.given(case=scalable_matrices(), k=st.integers(0, 300))
def test_power_of_two_scaling_scales_the_exact_result(case, k):
    """disc(c A) = c disc(A) for c = 2^k, bit for bit, with the same
    witnesses and counts: c scales every float64 step exactly, and the
    grid's units absorb it. Only from disc >= 1 on, where the tie band
    TIE_RTOL max(1, value) is relative, does the tie rule scale too."""
    a, b = case
    base = disc_exact(SymmetricMatrix(a), batch_bits=b)
    hypothesis.assume(base.value >= 1.0)
    c = 2.0 ** k
    got = disc_exact(SymmetricMatrix(c * a), batch_bits=b)
    assert got.value == c * base.value
    assert (got.witness_X, got.witness_Y, got.evaluations, got.batches) == \
        (base.witness_X, base.witness_Y, base.evaluations, base.batches)


def _indices(mask, n):
    return np.array([j for j in range(n) if (mask >> j) & 1], dtype=np.intp)


def _same_y(M, xmask):
    """The witness pass, on X's indices, returns the indices of the
    oracle's ymask."""
    n = M.shape[0]
    got = _best_y_for_x(M, _indices(xmask, n))
    return got.dtype == np.intp and np.array_equal(
        got, _indices(reference_best_y_for_x(M, xmask), n))


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(case=table_rows(), xbits=st.integers(1, 2**12 - 1))
def test_witness_pass_matches_per_bit_search(case, xbits):
    """The presorted one-pass witness picks the ymask of one sort and two
    cumsums per bit, on integer, 0/1 and rank-one matrices full of ties
    as well as Gaussian ones."""
    a, _ = case
    M = a - a.mean()
    xmask = xbits & ((1 << a.shape[0]) - 1) or 1
    assert _same_y(M, xmask)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 24])
def test_witness_pass_on_constant_and_zero_matrices(n):
    """Every Y ties at value 0 (or at every size on a constant row), so
    the smallest ymask decides."""
    for M in (np.zeros((n, n)), np.full((n, n), 2.0), np.eye(n)):
        for xmask in (1, (1 << n) - 1, 1 << (n - 1), 0b101 & ((1 << n) - 1) or 1):
            assert _same_y(M, xmask)


@pytest.mark.parametrize("n", [64, 257])
@pytest.mark.parametrize("kind", ["gauss", "tied-int"])
def test_witness_pass_matches_per_bit_search_at_large_n(n, kind):
    """Past the property tests' sizes: X = {1}, X = V, every other vertex
    and one seeded random X, on Gaussian entries and on integer entries
    full of ties."""
    rng = np.random.default_rng(n)
    if kind == "gauss":
        a = rng.normal(size=(n, n))
    else:
        a = rng.integers(-2, 3, size=(n, n)).astype(float)
    a = np.triu(a) + np.triu(a, 1).T
    M = a - a.mean()
    random_x = sum(1 << int(j) for j in np.flatnonzero(rng.random(n) < 0.5))
    for xmask in (1, (1 << n) - 1, sum(1 << j for j in range(0, n, 2)),
                  random_x or 1):
        assert _same_y(M, xmask)


def _brute_extremes(values, axis):
    """(2,) + values.shape: the least and the largest sum over every
    subset of each size k along `axis`, k = 1..n at index k - 1."""
    rows = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    n = rows.shape[-1]
    out = np.empty((2,) + rows.shape)
    for idx in np.ndindex(rows.shape[:-1]):
        for k in range(1, n + 1):
            sums = [sum(c) for c in itertools.combinations(rows[idx], k)]
            out[(0,) + idx + (k - 1,)] = min(sums)
            out[(1,) + idx + (k - 1,)] = max(sums)
    return np.moveaxis(out, -1, axis)


@st.composite
def value_stacks(draw):
    """A stack (a, b, n) of Gaussian rows or of integer rows full of ties,
    n <= 8."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
             draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.normal(size=shape)
    return rng.integers(-2, 3, size=shape).astype(float)


@hypothesis.settings(deadline=None)
@hypothesis.given(values=value_stacks(), axis=st.sampled_from((-1, -2)))
def test_prefix_extremes_match_every_subset(values, axis):
    """The sorted prefix sums are the extreme subset sums of each size;
    on integer rows, which every summation order adds exactly, bit for
    bit."""
    got = _prefix_extremes(values, axis=axis)
    want = _brute_extremes(values, axis)
    assert got.shape == (2,) + values.shape
    if np.all(values == np.round(values)):
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@hypothesis.settings(deadline=None)
@hypothesis.given(values=value_stacks())
def test_prefix_extremes_on_padded_prefixes(values):
    """Rows padded with +inf or -inf: row j holds s[:j] and the padding
    sorts last on the side it pads, so that side is finite exactly up to
    j entries."""
    s = values[0, 0]
    n = s.size
    below = np.tri(n + 1, n, -1, dtype=bool)
    for pad in (math.inf, -math.inf):
        padded = np.where(below, s, pad)
        got = _prefix_extremes(padded)
        np.testing.assert_allclose(got, _brute_extremes(padded, -1),
                                   rtol=1e-12, atol=1e-12)
        side = got[0] if pad > 0 else got[1]
        assert np.array_equal(np.isfinite(side), np.tri(n + 1, n, -1) > 0)


@hypothesis.settings(deadline=None)
@hypothesis.given(a=small_matrices())
def test_row_values_match_pair_table(a):
    """Each X row's value is the best pair value of its row of the
    brute-force table, for every X."""
    M = a - a.mean()
    ind, table = naive_pair_table(M)
    got = _row_values(ind @ M, ind.sum(axis=1))
    np.testing.assert_allclose(got, table.max(axis=1), rtol=1e-12,
                               atol=1e-12 * max(1.0, np.abs(M).max()))


def _at_most(lower, upper):
    return lower <= upper + 1e-12 * max(1.0, abs(upper))


SEEDS = st.integers(0, 2**32 - 1)


@hypothesis.settings(deadline=None)
@hypothesis.given(a=small_matrices(max_n=8), iterations=st.integers(1, 8),
                  seed=SEEDS)
def test_heuristic_below_exact_below_sigma1(a, iterations, seed):
    mat = SymmetricMatrix(a)
    heur = disc_heuristic(mat, iterations=iterations, seed=seed)
    exact = disc_exact(mat)
    sigma1 = float(np.linalg.norm(a - a.mean(), 2))
    assert _at_most(heur.value, exact.value)
    assert _at_most(exact.value, sigma1)
    for res in (heur, exact):
        assert disc_value_at(mat, res.witness_X, res.witness_Y) == res.value


@hypothesis.settings(deadline=None)
@hypothesis.given(n=st.integers(1, 8), p=st.floats(0.0, 1.0),
                  graph_seed=SEEDS, iterations=st.integers(1, 8), seed=SEEDS)
def test_graph_heuristics_below_exact(n, p, graph_seed, iterations, seed):
    g = gnp_random_graph(n, p, np.random.default_rng(graph_seed))
    for search in (disc1_graph, disc2_graph):
        heur = search(g, mode="heuristic", iterations=iterations, seed=seed)
        assert _at_most(heur.value, search(g).value)


@hypothesis.settings(deadline=None)
@hypothesis.given(a=small_matrices(max_n=8).filter(lambda a: a.shape[0] >= 2),
                  seed=SEEDS)
def test_certificate_links_hold(a, seed):
    mat = SymmetricMatrix(a)
    heur = disc_heuristic(mat, iterations=4, seed=seed)
    for cert in (certify_sigma2(mat), certify_sigma2(mat, heur)):
        for link in cert.links:
            assert link.lhs <= link.rhs + 1e-8, link.name

import json
import math
import tracemalloc

import numpy as np
import pytest
from conftest import (count_edges_between, grid_chung, grid_thomason,
                      reference_draw_subsets, reference_small_graph_sweep)

from matdisc import (
    EmptyGraphError,
    FamilyTooSmallError,
    Graph,
    NotRegularError,
    TooLargeError,
    ZeroDegreeError,
    chung_alpha_check,
    complete_graph,
    cycle_graph,
    e_xy,
    family_properties,
    gnp_random_graph,
    lambda_bar_from_adjacency,
    laplacian_spectrum,
    qpt_graph,
    star_graph,
    thomason_hypotheses,
    thomason_report,
    thomason_small_graph_sweep,
)
from matdisc.atlas import MASKS, STARTS, atlas_adjacencies
from matdisc import spectral
from matdisc.spectral import (
    _draw_subsets,
    _Exhaustive,
    _Recorder,
    _sampled_pairs,
    _thomason_scan,
)


def test_cycle_laplacian():
    spec = laplacian_spectrum(cycle_graph(4))
    assert spec.degree == 2
    assert np.allclose(spec.lambdas, [0.0, 1.0, 1.0, 2.0], atol=1e-12)
    assert spec.lambda_bar == pytest.approx(1.0, abs=1e-12)


def test_complete_graph_gap_both_routes():
    k6 = complete_graph(6)
    via_laplacian = laplacian_spectrum(k6).lambda_bar
    via_adjacency = lambda_bar_from_adjacency(k6)
    assert via_laplacian == pytest.approx(0.2, abs=1e-12)
    assert abs(via_laplacian - via_adjacency) <= 1e-12


def test_regular_laplacian_built_from_the_mask():
    """Chung's gap on a regular graph leaves Graph.adjacency unbuilt, and
    its eigenvalues match numpy's eigvalsh of I - A/d formed from the
    edge list."""
    g = qpt_graph(101, 25)
    spec = laplacian_spectrum(g)
    rep = chung_alpha_check(g, mode="sampled", samples=200)
    assert "adjacency" not in g.__dict__
    assert rep.params["lambda_bar"] == spec.lambda_bar
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u - 1, v - 1] = a[v - 1, u - 1] = 1.0
    oracle = np.linalg.eigvalsh(np.eye(g.n) - a / spec.degree)
    assert np.abs(np.array(spec.lambdas) - oracle).max() <= 1e-12


def test_laplacian_rejects():
    with pytest.raises(NotRegularError):
        laplacian_spectrum(star_graph(3))
    with pytest.raises(ZeroDegreeError):
        laplacian_spectrum(Graph(3, ()))


def test_thomason_complete_graph():
    rep = thomason_report(complete_graph(8), 7.0 / 8.0, 0.0)
    assert rep.passed
    assert rep.params["hypotheses_hold"]
    assert rep.params["mode"] == "exhaustive"
    assert rep.instances == 255 * 255
    assert rep.params["violation_count"] == 0
    assert rep.violations == ()
    assert rep.max_slack <= 0.0


def test_thomason_hypotheses_gate():
    hyp = thomason_hypotheses(complete_graph(8), 7.0 / 8.0, 0.0)
    assert hyp["hold"] and hyp["min_degree"] == 7 and hyp["max_codegree"] == 6
    rep = thomason_report(complete_graph(8), 0.99, 0.0)
    assert rep.passed and rep.instances == 0
    assert not rep.params["hypotheses_hold"]
    assert rep.max_slack is None
    with pytest.raises(ValueError):
        thomason_hypotheses(complete_graph(4), 1.5, 0.0)
    with pytest.raises(ValueError):
        thomason_hypotheses(complete_graph(4), 0.5, -1.0)


def test_thomason_random_graph_exhaustive():
    g = gnp_random_graph(9, 0.5, np.random.default_rng(5))
    p = (int(g.degrees.min()) - 1) / g.n
    mu = float(int((g.adjacency.a @ g.adjacency.a).max()))
    rep = thomason_report(g, p, mu)
    assert rep.params["hypotheses_hold"]
    assert rep.passed
    assert rep.instances == (2**9 - 1) ** 2


def test_thomason_sampled_deterministic():
    g = gnp_random_graph(30, 0.4, np.random.default_rng(9))
    p = (int(g.degrees.min()) - 1) / g.n
    mu = float(int((g.adjacency.a @ g.adjacency.a).max()))
    one = thomason_report(g, p, mu, samples=300, seed=11)
    two = thomason_report(g, p, mu, samples=300, seed=11)
    assert one.params["mode"] == "sampled"
    assert one.instances == 300
    assert one.passed
    assert one.max_slack == two.max_slack
    assert one.params["violation_count"] == two.params["violation_count"]


def test_thomason_exhaustive_cap():
    g = complete_graph(15)
    # mu large enough that the hypotheses hold and the scan is reached
    with pytest.raises(TooLargeError):
        thomason_report(g, 13.0 / 15.0, 5.0, mode="exhaustive")


def test_chung_complete_graph():
    rep = chung_alpha_check(complete_graph(6))
    assert rep.passed
    assert rep.instances == 63 * 63
    assert rep.params["alpha_min"] == pytest.approx(0.2, abs=1e-12)
    assert rep.params["identity_pairs"] > 0
    assert rep.params["lambda_bar"] == pytest.approx(0.2, abs=1e-12)
    assert rep.params["lambda_bar_over_alpha_min"] == pytest.approx(
        1.0, abs=1e-9)


def test_chung_with_explicit_alpha():
    k6 = complete_graph(6)
    ok = chung_alpha_check(k6, alpha=0.25)
    assert ok.passed and ok.max_slack <= 0.0
    bad = chung_alpha_check(k6, alpha=1e-6)
    assert not bad.passed
    assert bad.params["violation_count"] > 0
    assert len(bad.violations) > 0


def test_chung_sampled_identity_pair():
    g = cycle_graph(20)
    rep = chung_alpha_check(g, samples=400, seed=3)
    assert rep.params["mode"] == "sampled"
    assert rep.instances == 401  # the whole-vertex-set pair is appended
    assert rep.params["identity_pairs"] >= 1
    assert rep.passed
    assert rep.params["alpha_min"] <= rep.params["lambda_bar"] + 1e-9


def test_chung_rejects_edgeless():
    with pytest.raises(EmptyGraphError):
        chung_alpha_check(Graph(3, ()))


def test_family_validation():
    with pytest.raises(FamilyTooSmallError):
        family_properties([complete_graph(4), complete_graph(5)])
    with pytest.raises(ValueError):
        family_properties([complete_graph(4), complete_graph(4),
                           complete_graph(5)])
    with pytest.raises(EmptyGraphError):
        family_properties([complete_graph(4), complete_graph(5), Graph(6, ())],
                          samples=10)


def test_family_report_shape():
    members = [complete_graph(n) for n in (8, 12, 16)]
    rep = family_properties(members, samples=200, seed=2)
    assert rep.instances == 3
    rows = rep.params["members"]
    assert [r["n"] for r in rows] == [8, 12, 16]
    for r in rows:
        assert r["sigma2"] == pytest.approx(1.0, abs=1e-9)
    # complete graphs sit far below the expansion window, so the window
    # flag must fire even though every number is finite and sane
    assert not rep.params["sigma2_window_ok"]
    assert not rep.passed


def _drawn_sizes(rng, n, count):
    """The documented size law: exp of a uniform on [0, log(n + 1)),
    truncated and clipped to [1, n]."""
    sizes = np.exp(rng.uniform(0.0, math.log(n + 1), count)).astype(np.int64)
    return np.clip(sizes, 1, n)


def _drawn_pairs(n, samples, seed):
    """The documented sampling rule, chunk by chunk: chunks of
    min(2048, max(1, 2^20 // n)) pairs, each drawing its X sets and then
    its Y sets by the per-row reference draw, then the pair X = Y = V."""
    rng = np.random.default_rng(seed)
    rows = min(2048, max(1, 2**20 // n))

    def draw(count):
        return [(np.flatnonzero(row) + 1).tolist()
                for row in reference_draw_subsets(rng, n, count)]

    xs, ys = [], []
    for lo in range(0, samples, rows):
        count = min(rows, samples - lo)
        xs += draw(count)
        ys += draw(count)
    whole = list(range(1, n + 1))
    return xs + [whole], ys + [whole]


class _StubRng:
    """A generator for _draw_subsets that draws its sizes from a PCG64
    generator seeded with `seed` and its raw words from `raw(size)`, by
    default that generator's own; it records the size of every raw-word
    call."""

    def __init__(self, seed, raw=None):
        self._rng = np.random.default_rng(seed)
        self._raw = raw or self._rng.bit_generator.random_raw
        self.calls = []
        self.bit_generator = self

    def uniform(self, *args):
        return self._rng.uniform(*args)

    def random_raw(self, size):
        self.calls.append(size)
        return self._raw(size)


@pytest.mark.parametrize("n", [1, 2, 52, 499])
def test_drawn_rows_hold_their_sizes(n):
    for seed in (0, 1, 2, 3):
        rows = _draw_subsets(np.random.default_rng(seed), n, 300)
        sizes = _drawn_sizes(np.random.default_rng(seed), n, 300)
        assert rows.dtype == bool and rows.shape == (300, n)
        assert rows.sum(axis=1).tolist() == sizes.tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 50, 101, 499, 2000, 10000])
def test_draw_matches_float_sort(n):
    """The vectorized draw gives the rows of the per-row reference bit for
    bit and leaves the generator where the reference leaves it, over two
    draws in a row.  (The name is that of the test the old stream had,
    whose rows were those of a float64 key sort.)"""
    count = min(2048, max(1, 2**16 // n))
    for seed in range(8):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            assert np.array_equal(_draw_subsets(ours, n, count),
                                  reference_draw_subsets(ref, n, count))
            assert ours.bit_generator.state == ref.bit_generator.state


def test_random_doubles_are_raw_outputs_shifted():
    """The stream is one sequence of raw outputs: a PCG64 generator's
    random(), which draws the set sizes, is its raw 64-bit output w as
    (w >> 11) * 2^-53, one output per double."""
    for seed in (0, 1, 12345, 2**63 + 5):
        doubles = np.random.Generator(np.random.PCG64(seed)).random(1000)
        raw = np.random.Generator(np.random.PCG64(seed)).bit_generator.random_raw(1000)
        assert np.array_equal(doubles, (raw >> 11) * 2.0**-53)


def test_draw_fallback_on_tied_prefixes():
    """At n = 10000 the 16-bit keys of many rows tie at the k-th place;
    those rows draw fresh words, and the rows still match the reference."""
    n, count = 10_000, 104
    stub = _StubRng(3)
    rows = _draw_subsets(stub, n, count)
    assert stub.calls[0] == (count, n // 4)
    assert len(stub.calls) == 2 and stub.calls[1] >= 2
    assert np.array_equal(rows, reference_draw_subsets(
        np.random.default_rng(3), n, count))


def _tied_rows(seed, n, count):
    """The rows of the reference draw whose k-th and (k+1)-th smallest
    keys are equal, from a generator seeded with `seed`."""
    rng = np.random.default_rng(seed)
    sizes = _drawn_sizes(rng, n, count)
    words = rng.bit_generator.random_raw((count, (n + 3) // 4))
    j = np.arange(n)
    keys = (words[:, j // 4] >> (16 * (j % 4)).astype(np.uint64)) & np.uint64(0xFFFF)
    ranked = np.sort(keys, axis=1)
    rows = np.arange(count)
    return np.flatnonzero((sizes < n) & (ranked[rows, sizes - 1]
                                         == ranked[rows, np.minimum(sizes, n - 1)]))


@pytest.mark.parametrize("n, count, cells, rows_per_block", [
    (10_000, 104, 2**16, 6),
    (499, 2048, 2**16, 131),
    (499, 2048, None, 1024),
])
def test_draw_by_row_blocks_matches_reference(monkeypatch, n, count, cells,
                                              rows_per_block):
    """A chunk drawn one row block at a time, with tied rows in several
    blocks, gives the reference rows and reads the stream as the
    reference does: one raw call for the keys, then one for the tie
    words."""
    if cells is not None:
        monkeypatch.setattr(spectral, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(spectral, "_BLOCK_ROWS", 1)
    assert spectral._block_rows(n) == rows_per_block
    for seed in (0, 1):
        tied = _tied_rows(seed, n, count)
        assert len(np.unique(tied // rows_per_block)) > 1
        stub = _StubRng(seed)
        rows = _draw_subsets(stub, n, count)
        assert stub.calls == [(count, (n + 3) // 4), stub.calls[1]]
        assert np.array_equal(rows, reference_draw_subsets(
            np.random.default_rng(seed), n, count))


@pytest.mark.parametrize("n", [2, 7, 101])
def test_draw_equal_words_keep_sizes(n):
    """Equal raw words tie every key and every fresh word: each row still
    holds exactly its size, the lowest positions first."""
    word = 0x5A5A_5A5A_5A5A_5A5A  # four equal 16-bit keys
    stub = _StubRng(5, lambda size: np.full(size, word, dtype=np.uint64))
    rows = _draw_subsets(stub, n, 300)
    sizes = _drawn_sizes(np.random.default_rng(5), n, 300)
    assert np.array_equal(rows, np.arange(n) < sizes[:, None])


def _assert_equally_likely(blocks):
    """Given the sizes s_r, vertex v lies in row r with probability s_r / n,
    so its inclusion count over the rows of all blocks has mean sum p_r
    and variance sum p_r (1 - p_r)."""
    counts, p = 0, []
    for rows in blocks:
        counts = counts + rows.sum(axis=0)
        p.append(rows.sum(axis=1) / rows.shape[1])
    p = np.concatenate(p)
    mean, sigma = p.sum(), math.sqrt((p * (1.0 - p)).sum())
    assert np.all(np.abs(counts - mean) <= 5.0 * sigma)


def test_drawn_vertices_equally_likely():
    _assert_equally_likely([_draw_subsets(np.random.default_rng(17), 101,
                                          20_000)])


def test_drawn_vertices_equally_likely_where_keys_tie():
    """At n = 10000 rows often tie at their k-th key; 48 draws of 104 rows."""
    rng = np.random.default_rng(17)
    _assert_equally_likely(_draw_subsets(rng, 10_000, 104) for _ in range(48))


def test_tied_members_equally_likely():
    """With every key equal, a row's members are chosen by the fresh words
    alone, and every vertex is still equally likely."""
    fresh = np.random.default_rng(23).bit_generator.random_raw
    # the keys come in one 2-D call, the fresh words in 1-D calls
    stub = _StubRng(17, lambda size: (np.zeros(size, dtype=np.uint64)
                                      if isinstance(size, tuple)
                                      else fresh(size)))
    _assert_equally_likely([_draw_subsets(stub, 101, 5_000)])


@pytest.mark.parametrize("samples", [0, 1, 2047, 2048, 2049, 4097])
def test_sampled_pairs_count_and_whole_last(samples):
    a = cycle_graph(6).adjacency.a
    for whole in (False, True):
        chunks = list(_sampled_pairs(a, np.random.default_rng(2), samples,
                                     whole))
        assert sum(len(e) for e, _, _ in chunks) == samples + whole
        for e, x, y in chunks:
            assert 1 <= len(e) <= 2048 and x.shape == y.shape == (len(e), 6)
            assert e.tolist() == [count_edges_between(a, np.flatnonzero(xr) + 1,
                                                      np.flatnonzero(yr) + 1)
                                  for xr, yr in zip(x, y)]
        if whole:
            e, x, y = chunks[-1]
            assert x.shape == (1, 6) and x.all() and y.all()
            assert e.tolist() == [a.sum()]


@pytest.mark.parametrize("n, rows", [(101, 2048), (1024, 1024)])
def test_sampled_pairs_stream_bounded_chunks(n, rows):
    """A huge sample count draws one bounded chunk at a time, never the
    whole sample up front."""
    e, x, y = next(_sampled_pairs(np.zeros((n, n)), np.random.default_rng(1),
                                  10**12))
    assert e.shape == (rows,) and x.shape == y.shape == (rows, n)


@pytest.mark.parametrize("graph", [
    gnp_random_graph(60, 0.3, np.random.default_rng(40)),
    complete_graph(50),
    # edges among the first 12 of 40 vertices: 28 zero rows
    Graph(40, gnp_random_graph(12, 0.5, np.random.default_rng(6)).edges),
    gnp_random_graph(600, 0.5, np.random.default_rng(41)),
    complete_graph(600),
], ids=["gnp60", "K50", "isolated", "gnp600", "K600"])
def test_float32_pair_products_exact(graph):
    """e(X, Y) from the float32 product equals the float64 product
    ((x @ a) * y).sum(1) bit for bit, and the direct count of e_xy."""
    a = graph.adjacency.a
    chunks = list(_sampled_pairs(a, np.random.default_rng(8), 2500,
                                 whole=True))
    for e, x, y in chunks:
        assert e.dtype == np.float64
        assert e.tobytes() == ((x @ a) * y).sum(axis=1).tobytes()
        for r in range(0, len(e), 61):
            assert e[r] == e_xy(graph, np.flatnonzero(x[r]) + 1,
                                np.flatnonzero(y[r]) + 1)
    assert chunks[-1][0].tolist() == [2 * graph.m]


def test_chung_sampled_violations_counted_and_capped():
    g = qpt_graph(101, 50)
    alpha, tol = 1e-6, 1e-8
    rep = chung_alpha_check(g, alpha=alpha, seed=5, tol=tol)
    a = g.adjacency.a
    degs = a.sum(axis=1)
    vol_v = degs.sum()
    expected = []
    for xs, ys in zip(*_drawn_pairs(g.n, 10_000, 5)):
        xi, yi = np.array(xs) - 1, np.array(ys) - 1
        e = a[np.ix_(xi, yi)].sum()
        vx, vy = degs[xi].sum(), degs[yi].sum()
        lhs = abs(e - vx * vy / vol_v)
        rhs = alpha * math.sqrt(vx * (vol_v - vx) * vy * (vol_v - vy)) / vol_v
        if lhs - rhs > tol:
            expected.append((xs, ys))
    assert rep.instances == 10_001
    assert rep.params["violation_count"] == len(expected) > 100
    assert len(rep.violations) == 100
    assert [(v["X"], v["Y"]) for v in rep.violations] == expected[:100]
    for v in rep.violations:
        e = count_edges_between(a, v["X"], v["Y"])
        vx, vy = degs[np.array(v["X"]) - 1].sum(), degs[np.array(v["Y"]) - 1].sum()
        assert v["lhs"] == pytest.approx(abs(e - vx * vy / vol_v), abs=1e-9)


def test_sampled_scan_never_exceeds_exhaustive():
    g = gnp_random_graph(10, 0.5, np.random.default_rng(21))
    p = (int(g.degrees.min()) - 1) / g.n
    mu = float(int((g.adjacency.a @ g.adjacency.a).max()))
    exhaustive = chung_alpha_check(g, mode="exhaustive")
    sampled = chung_alpha_check(g, mode="sampled", samples=2000, seed=4)
    assert sampled.params["alpha_min"] <= exhaustive.params["alpha_min"]
    exhaustive = thomason_report(g, p, mu, mode="exhaustive")
    sampled = thomason_report(g, p, mu, mode="sampled", samples=2000, seed=4)
    assert exhaustive.params["hypotheses_hold"]
    assert sampled.max_slack <= exhaustive.max_slack


def test_sampled_stream_pinned():
    """Seeded sampled reports keep the values of the chunked stream of
    _draw_subsets rows (sizes, then four 16-bit keys a raw word, then the
    fresh words of tied rows)."""
    rep = chung_alpha_check(cycle_graph(20), samples=400, seed=3)
    assert rep.params["alpha_min"] == 0.5091750772173155
    assert rep.params["identity_pairs"] == 8
    g = gnp_random_graph(30, 0.4, np.random.default_rng(9))
    rep = chung_alpha_check(g, alpha=0.1, samples=500, seed=4)
    assert rep.params["violation_count"] == 10
    assert rep.max_slack == 1.8419170633305981
    assert rep.params["alpha_min"] == 0.1475520363894464
    assert rep.violations[0] == {"X": [2, 3, 5, 6, 7, 8, 10, 11, 18, 20, 23, 24],
                                 "Y": [12],
                                 "lhs": 3.4670658682634734,
                                 "rhs": 3.2723156584788726}
    rep = thomason_report(g, 0.2, 17.0, samples=300, seed=11)
    assert rep.params["violation_count"] == 0
    assert rep.max_slack == -4.995831523312719
    rep = thomason_report(g, 0.2, 17.0, samples=300, seed=11, tol=-6.0)
    assert rep.params["violation_count"] == 16
    assert rep.violations[0] == {"X": [8], "Y": [28], "lhs": 0.8,
                                 "rhs": 5.795831523312719}
    family = [gnp_random_graph(n, 0.5, np.random.default_rng(n))
              for n in (16, 24, 32)]
    rep = family_properties(family, samples=300, seed=5)
    assert [m["disc_ratio"] for m in rep.params["members"]] == [
        0.10795454545454546, 0.06111111111111111, 0.036426912403474905]


def test_frozen_atlas_matches_networkx():
    atlas = pytest.importorskip("networkx.generators.atlas").graph_atlas_g()
    assert len(atlas) == len(MASKS) == STARTS[-1] == 1253
    for n in range(8):
        indices, adjacencies = atlas_adjacencies(n)
        for index, a in zip(indices, adjacencies):
            g = atlas[index]
            assert g.number_of_nodes() == n, index
            assert np.array_equal(a, a.T) and not a.diagonal().any()
            got = {(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(a)))}
            want = {(min(e), max(e)) for e in g.edges()}
            assert got == want, index


def test_sweep_hypothesis_count_matches_direct():
    from networkx.generators.atlas import graph_atlas_g

    ps = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    rep = thomason_small_graph_sweep(max_n=5, ps=ps)
    graphs = [Graph(g.number_of_nodes(), [(u + 1, v + 1) for u, v in g.edges()])
              for g in graph_atlas_g() if 1 <= g.number_of_nodes() <= 5]
    held = sum(thomason_hypotheses(g, p, mu)["hold"]
               for g in graphs for p in ps for mu in (0.0, 1.0, float(g.n)))
    assert rep.params["graphs_seen"] == len(graphs)
    assert rep.params["combinations_with_hypotheses"] == held > 0
    assert rep.passed


def _small_graphs(n):
    """Random, complete, star and cycle graphs on n vertices, and one
    with isolated vertices."""
    rng = np.random.default_rng(n)
    graphs = [gnp_random_graph(n, 0.3, rng), gnp_random_graph(n, 0.7, rng),
              complete_graph(n)]
    if n >= 2:
        graphs.append(star_graph(n - 1))
    if n >= 3:
        graphs += [cycle_graph(n), Graph(n, [(1, 2), (2, 3)])]
    return graphs


def _same_as_grid(report, scan):
    """The report's JSON, and the same with every field the scan sets
    taken from the full-grid oracle instead."""
    got = report.to_json_dict()
    want = json.loads(json.dumps(got))
    want.update({"pass": scan["violation_count"] == 0,
                 "instances": scan["instances"],
                 "violations": scan["violations"],
                 "max_slack": scan["max_slack"]})
    params = want["params"]
    params["violation_count"] = scan["violation_count"]
    if "alpha_min" in scan:
        params.update(alpha_min=scan["alpha_min"],
                      identity_pairs=scan["identity_pairs"])
    if "lambda_bar" in params:
        params["lambda_bar_over_alpha_min"] = (
            params["lambda_bar"] / scan["alpha_min"]
            if scan["alpha_min"] > 0 else None)
    return json.dumps(got, sort_keys=True), json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("n", range(1, 10))
def test_thomason_rows_match_full_grid(n):
    """Reports with the hypotheses holding, at p = min degree / n and
    half of it (p|X| < 1 takes the eps branch), equal the full grid's
    byte for byte; tol = -1 makes the scanned rows record violations."""
    for g in _small_graphs(n):
        a = g.adjacency.a
        min_degree = int(g.degrees.min())
        if min_degree == 0:
            continue
        mu = float(int((a @ a - np.diag(g.degrees)).max()))
        for p in (min_degree / n, min_degree / (2 * n)):
            for tol in (1e-8, -1.0):
                rep = thomason_report(g, p, mu, tol=tol)
                assert rep.params["hypotheses_hold"]
                got, want = _same_as_grid(rep, grid_thomason(a, p, mu, tol))
                assert got == want


@pytest.mark.parametrize("n", range(1, 10))
def test_thomason_row_path_violations_match_full_grid(n):
    """The row path's violation branch, which Thomason's theorem keeps
    out of reach when the hypotheses hold: p = 0.5 and mu = 0 on any
    graph, as the sweep's helper runs it."""
    for g in _small_graphs(n):
        ex = _Exhaustive(g.adjacency.a)
        rec = _Recorder(1e-8)
        _thomason_scan(rec, ex, 0.5, 0.0)
        rep = rec.report("row_path", {}, ex.pairs)
        scan = grid_thomason(g.adjacency.a, 0.5, 0.0, 1e-8)
        got, want = _same_as_grid(rep, scan)
        assert got == want
        assert rep.grid_pairs <= rep.instances


@pytest.mark.parametrize("n", range(2, 10))
def test_chung_rows_match_full_grid(n):
    """alpha = None, an alpha above alpha_min and one below it (more than
    100 violations on the larger graphs, so the cap and their order
    count), and a negative tol, under which every row is scanned."""
    formed = covered = 0
    for g in _small_graphs(n):
        if g.m == 0:
            continue
        a = g.adjacency.a
        alpha_min = grid_chung(a, None, 1e-8)["alpha_min"]
        for alpha in (None, 1.25 * alpha_min + 0.01, 0.5 * alpha_min):
            for tol in (1e-8, -0.25):
                rep = chung_alpha_check(g, alpha, tol=tol)
                got, want = _same_as_grid(rep, grid_chung(a, alpha, tol))
                assert got == want
                formed += rep.grid_pairs
                covered += rep.instances
    assert formed < covered  # some rows were pruned


def test_chung_rows_match_full_grid_across_y_chunks():
    """n = 13: 8191 Y sets in four chunks of 2048.  At 0.9 alpha_min
    148 pairs violate, and the first 100 come from several chunks."""
    g = gnp_random_graph(13, 0.3, np.random.default_rng(13))
    alpha = 0.9 * 0.7619047619047619
    rep = chung_alpha_check(g, alpha)
    scan = grid_chung(g.adjacency.a, alpha, 1e-8)
    got, want = _same_as_grid(rep, scan)
    assert got == want
    assert scan["alpha_min"] == 0.7619047619047619
    assert scan["violation_count"] == 148
    chunks = {sum(1 << (v - 1) for v in found["Y"]) // 2048
              for found in scan["violations"]}
    assert len(chunks) > 1
    assert rep.grid_pairs < rep.instances == 8191 ** 2


def test_sweep_report_pinned():
    rep = thomason_small_graph_sweep()
    assert rep.passed and rep.violations == ()
    assert rep.max_slack == -0.5472135954999578
    assert rep.instances == rep.params["pairs_checked"] == 30894693
    assert rep.params["combinations_with_hypotheses"] == 2333
    assert rep.grid_pairs == 0


def _sweep_bytes(report):
    return (json.dumps(report.to_json_dict(), sort_keys=True),
            report.grid_pairs)


@pytest.mark.parametrize("max_n", range(1, 8))
def test_sweep_matches_per_graph_reference(max_n):
    got = thomason_small_graph_sweep(max_n=max_n)
    assert _sweep_bytes(got) == _sweep_bytes(
        reference_small_graph_sweep(max_n=max_n))


@pytest.mark.parametrize("max_n, tol, ps, mus", [
    (3, -1.0, (0.1, 0.5, 0.9), (0.0, 1.0, "n")),
    (5, -2.0, (0.2, 0.5, 0.8), (0.0, 1.0, "n")),
    (5, -4.0, (0.5, 0.3), ("n", 0.0, 2.5)),
    (6, -1.2, (0.5, 0.3), (0.0, "n")),
])
def test_sweep_violations_match_per_graph_reference(max_n, tol, ps, mus):
    """A negative tol sends rows of many (graph, p, mu) to the grid: the
    count, the first 100 violations in loop order and grid_pairs are
    the per-graph loop's."""
    got = thomason_small_graph_sweep(max_n=max_n, tol=tol, ps=ps, mus=mus)
    assert _sweep_bytes(got) == _sweep_bytes(reference_small_graph_sweep(
        max_n=max_n, tol=tol, ps=ps, mus=mus))
    assert got.params["violation_count"] > 0 and got.violations


def test_exhaustive_grid_memory_is_bounded_by_row_blocks():
    """Q(13, 3) at alpha = 0.01 keeps 8190 of 8191 X rows; the grid meets
    each chunk of Y sets in blocks of at most 512 of them (a whole chunk
    of rows peaked at about 1 GB), and the report is the full grid's."""
    g = qpt_graph(13, 3)
    tracemalloc.start()
    try:
        rep = chung_alpha_check(g, alpha=0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    got, want = _same_as_grid(rep, grid_chung(g.adjacency.a, 0.01, 1e-8))
    assert got == want
    assert not rep.passed and rep.grid_pairs > 512 * 2048


def test_unknown_mode_rejected():
    k8 = complete_graph(8)
    for p in (7.0 / 8.0, 0.99):  # hypotheses hold, and fail
        with pytest.raises(ValueError, match="mode must be one of"):
            thomason_report(k8, p, 0.0, mode="exhaustiv")
    with pytest.raises(ValueError, match="mode must be one of"):
        chung_alpha_check(k8, mode="sample")


def test_chung_rejects_negative_alpha():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        chung_alpha_check(complete_graph(6), alpha=-1.0)
    zero = chung_alpha_check(complete_graph(6), alpha=0.0)
    assert not zero.passed and zero.grid_pairs == zero.instances
    got, want = _same_as_grid(zero, grid_chung(complete_graph(6).adjacency.a,
                                               0.0, 1e-8))
    assert got == want


def test_grid_pairs_count_formed_pairs():
    k6 = complete_graph(6)
    rep = chung_alpha_check(k6)
    assert rep.to_json_dict().keys() == {"bound_name", "pass", "instances",
                                         "violations", "max_slack", "params"}
    assert 0 < rep.grid_pairs < rep.instances and rep.grid_pairs % 63 == 0
    assert chung_alpha_check(k6, tol=-1.0).grid_pairs == 63 * 63
    assert thomason_report(k6, 5.0 / 6.0, 0.0).grid_pairs == 0
    sampled = chung_alpha_check(cycle_graph(20), samples=400, seed=3)
    assert sampled.grid_pairs == sampled.instances == 401


@pytest.mark.parametrize("samples", [0, -1])
def test_sampled_checks_need_a_sample(samples):
    """A sampled report, or an auto one above EXACT_PAIR_CAP, with no
    sample would check nothing and pass: rejected before any work,
    whether or not the hypotheses hold.  Exhaustive mode ignores it."""
    q = qpt_graph(101, 25)
    for p in (0.24, 0.9):  # hypotheses hold, and fail
        with pytest.raises(ValueError, match="samples must be at least 1"):
            thomason_report(q, p, 18.0, samples=samples)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        chung_alpha_check(q, samples=samples)
    k8 = complete_graph(8)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        chung_alpha_check(k8, mode="sampled", samples=samples)
    members = [cycle_graph(n) for n in (10, 20, 40)]
    with pytest.raises(ValueError, match="samples must be at least 1"):
        family_properties(members, samples=samples)
    exhaustive = (thomason_report(k8, 7.0 / 8.0, 0.0, samples=samples),
                  chung_alpha_check(k8, samples=samples))
    assert [rep.instances for rep in exhaustive] == [255 * 255] * 2


def test_pair_checks_leave_the_float_adjacency_unbuilt():
    """Thomason (both modes) and Chung on a non-regular graph count pairs
    on the graph's mask; only an eigensolve builds Graph.adjacency."""
    g = gnp_random_graph(12, 0.6, np.random.default_rng(5))
    assert not g.is_regular()
    p, mu = 0.3, 12.0
    assert thomason_hypotheses(g, p, mu)["hold"]
    for mode in ("exhaustive", "sampled"):
        assert thomason_report(g, p, mu, mode=mode, samples=200).instances
    assert chung_alpha_check(g).instances == 4095 ** 2
    assert chung_alpha_check(g, mode="sampled", samples=200).instances == 201
    assert "adjacency" not in g.__dict__


def test_pair_check_memory_below_ten_bytes_per_entry():
    """At n = 1500 no pair check holds a float64 n x n array: Thomason's
    codegrees and the sampled products are float32 casts of the mask.
    The stream holds the cast (4 n^2 bytes) and, per cell of a chunk of
    2^20 // n rows, its X and Y rows and the float32 cast of X and its
    product (a chunk of fewer than 1024 rows is one block): 10 bytes,
    with 10% headroom.  The chunk before it is freed first."""
    n = 1500
    chunk_cells = 2**20 // n * n
    g = gnp_random_graph(n, 0.5, np.random.default_rng(15))
    p, mu = 0.45, 200.0
    checks = (lambda: thomason_report(g, p, mu, samples=2000),
              lambda: chung_alpha_check(g, samples=2000))
    for check in checks:
        tracemalloc.start()
        try:
            rep = check()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.instances == 2000 + (rep.bound_name == "chung_volume_bound")
        assert peak < 1.1 * (4 * n * n + 10 * chunk_cells), rep.bound_name


def test_sampled_stream_memory_by_row_blocks():
    """At n = 499 a chunk of 2048 rows is two blocks of 1024: beside the
    float32 cast of the mask, the stream holds 6 bytes a chunk cell (its
    X and Y rows, and half a chunk of float32 cast and product), with
    10% headroom; a whole-chunk product would take 10."""
    g = qpt_graph(499, 124)
    n, chunk_cells = g.n, 2048 * g.n
    tracemalloc.start()
    try:
        for e, x, y in _sampled_pairs(g._mask, np.random.default_rng(1),
                                      10_000):
            del e, x, y
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n + 1.1 * 6 * chunk_cells


def test_laplacian_memory_is_one_array():
    """I - A/d is built in one float64 array and solved without a copy
    (LAPACK's copy is outside tracemalloc): 1.0 * 8 n^2 bytes measured,
    where np.eye(n) - mask / d and SymmetricMatrix took four."""
    g = qpt_graph(1499, 374)
    n = g.n
    tracemalloc.start()
    try:
        spec = laplacian_spectrum(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.degree == int(g.degrees[0])
    assert peak <= 1.1 * 8 * n * n


def test_laplacian_bits_match_eye_minus_mask():
    """The Laplacian's eigenvalues are eigvalsh's of np.eye(n) - mask / d
    bit for bit."""
    g = qpt_graph(101, 25)
    want = np.linalg.eigvalsh(np.eye(g.n) - g._mask / int(g.degrees[0]))
    assert np.array(laplacian_spectrum(g).lambdas).tobytes() == want.tobytes()

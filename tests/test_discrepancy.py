import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import naive_disc, naive_disc1

from matdisc import (
    SymmetricMatrix,
    TooLargeError,
    all_ones,
    complement,
    complete_graph,
    disc1_graph,
    disc1_value_at,
    disc2_gap_bound,
    disc2_graph,
    disc2_value_at,
    disc_exact,
    disc_heuristic,
    disc_value_at,
    gnp_random_graph,
    qpt_graph,
    star_graph,
    write_matrix,
)
from matdisc.constructions import block_matrix, block_plan
from matdisc import discrepancy


def brute_pairs(M):
    """Max of |sum over X x Y| / sqrt(|X||Y|), no centering applied."""
    n = M.shape[0]
    best = -1.0
    for xmask in range(1, 1 << n):
        xs = [i for i in range(n) if (xmask >> i) & 1]
        row = M[xs].sum(axis=0)
        for ymask in range(1, 1 << n):
            ys = [j for j in range(n) if (ymask >> j) & 1]
            val = abs(float(row[ys].sum())) / math.sqrt(len(xs) * len(ys))
            best = max(best, val)
    return best


def random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return SymmetricMatrix((m + m.T) / 2.0)


def test_identity_matrix_value_and_witness():
    res = disc_exact(SymmetricMatrix(np.eye(2)))
    assert res.value == pytest.approx(0.5, abs=1e-15)
    assert res.witness_X == (1,) and res.witness_Y == (1,)
    assert res.mode == "exact"


def test_all_ones_has_zero_disc():
    res = disc_exact(all_ones(5))
    assert res.value == 0.0
    assert res.witness_X == (1,) and res.witness_Y == (1,)


def test_complete_graph_disc2_is_one():
    res = disc2_graph(complete_graph(3))
    assert res.value == pytest.approx(1.0, abs=1e-15)


def test_star_frozen_values():
    s = star_graph(5)
    d1 = disc1_graph(s)
    d2 = disc2_graph(s)
    assert d1.value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert d2.value == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert d1.witness_X == (2, 3, 4, 5, 6)


def test_exact_matches_brute_force():
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        mat = random_symmetric(rng, n)
        want_val, want_x, want_y = naive_disc(mat.a)
        got = disc_exact(mat)
        assert got.value == pytest.approx(want_val, abs=1e-12)
        assert got.witness_X == want_x
        assert got.witness_Y == want_y


def test_exact_evaluation_count():
    res = disc_exact(random_symmetric(np.random.default_rng(0), 4))
    assert res.evaluations == (2**4 - 1) * 2 * 4


def test_witness_reproduces_value():
    rng = np.random.default_rng(23)
    for n in (3, 6, 9):
        mat = random_symmetric(rng, n)
        res = disc_exact(mat)
        at = disc_value_at(mat, res.witness_X, res.witness_Y)
        assert abs(at - res.value) <= 1e-10


def test_scaling_homogeneity():
    rng = np.random.default_rng(29)
    mat = random_symmetric(rng, 7)
    base = disc_exact(mat).value
    for c in (-3.5, 0.25, 11.0):
        scaled = disc_exact(SymmetricMatrix(c * mat.a)).value
        assert abs(scaled - abs(c) * base) <= 1e-10 * max(1.0, abs(c))


def test_complement_invariance_binary():
    rng = np.random.default_rng(31)
    for n in (5, 8, 11):
        u = rng.random((n, n)) < 0.5
        a = np.triu(u, 1)
        a = (a + a.T).astype(float)
        mat = SymmetricMatrix(a)
        assert abs(disc_exact(complement(mat)).value
                   - disc_exact(mat).value) <= 1e-10


def test_heuristic_is_lower_bound_and_reproducible():
    rng = np.random.default_rng(37)
    for n in (4, 8, 12):
        mat = random_symmetric(rng, n)
        exact = disc_exact(mat)
        heur = disc_heuristic(mat, seed=5)
        assert heur.value <= exact.value + 1e-10
        assert heur.mode == "heuristic"
        at = disc_value_at(mat, heur.witness_X, heur.witness_Y)
        assert abs(at - heur.value) <= 1e-10
        again = disc_heuristic(mat, seed=5)
        assert again.value == heur.value
        assert again.witness_X == heur.witness_X


def _heuristic_outputs():
    """to_json_dict of the heuristics on seeded inputs, keyed by case."""
    out = {"block13": disc_heuristic(block_matrix(block_plan(13)), seed=5)}
    m = np.random.default_rng(30).normal(size=(30, 30))
    out["gauss30"] = disc_heuristic(SymmetricMatrix((m + m.T) / 2.0),
                                    iterations=16, seed=1)
    for n in (12, 40):
        g = gnp_random_graph(n, 0.5, np.random.default_rng(n))
        out[f"disc2_{n}"] = disc2_graph(g, mode="heuristic", iterations=16,
                                        seed=3)
        out[f"disc1_{n}"] = disc1_graph(g, mode="heuristic", iterations=16,
                                        seed=3)
    return {key: res.to_json_dict() for key, res in out.items()}


def _pin(value, xs, ys, evaluations):
    return {"value": value, "witness_X": xs, "witness_Y": ys,
            "mode": "heuristic", "evaluations": evaluations}


def _assert_index_witness(witness, n):
    assert witness == tuple(sorted(set(witness)))
    assert all(type(v) is int and 1 <= v <= n for v in witness)


def test_heuristic_witnesses_past_64_vertices():
    """Witnesses leave the climb as index sets, not bit masks: past
    64 vertices they stay sorted 1-based labels that re-evaluate to the
    reported value."""
    m = np.random.default_rng(100).normal(size=(100, 100))
    mat = SymmetricMatrix((m + m.T) / 2.0)
    res = disc_heuristic(mat, iterations=2, seed=3)
    for witness in (res.witness_X, res.witness_Y):
        _assert_index_witness(witness, 100)
    assert res.value == disc_value_at(mat, res.witness_X, res.witness_Y)
    g = gnp_random_graph(70, 0.5, np.random.default_rng(70))
    one = disc1_graph(g, mode="heuristic", iterations=2, seed=3)
    _assert_index_witness(one.witness_X, 70)
    assert one.witness_Y == one.witness_X
    assert one.value == disc1_value_at(g, one.witness_X)


def test_heuristic_outputs_pinned():
    # The climb's random stream, step order and score arithmetic decide
    # these; each field is a seeded result the CLI reports.
    first26 = list(range(1, 27))
    x12 = [3, 6, 8, 9, 10, 11]
    x40 = [5, 6, 9, 15, 18, 23, 24, 26, 27, 30, 31, 33, 37, 38, 39]
    assert _heuristic_outputs() == {
        "block13": _pin(10.0, list(range(27, 53)), first26, 380016),
        "gauss30": _pin(4.819813499801894,
                        [1, 2, 6, 7, 9, 11, 14, 17, 22, 24, 25, 27, 28],
                        [2, 6, 7, 9, 11, 16, 17, 24], 59760),
        "disc2_12": _pin(2.393939393939394, x12, x12, 7584),
        "disc1_12": _pin(0.9696969696969696, x12, x12, 642),
        "disc2_40": _pin(4.434615384615384, x40, x40, 82720),
        "disc1_40": _pin(1.9628205128205125, x40, x40, 7238),
    }


def test_heuristic_matches_exact_as_often_as_the_flip_search():
    """30 seeded matrices at n = 18 to 24, Gaussian and 0/1 in turn: at
    the default restarts the climb reaches the exact value on every one,
    as the first-improvement flip search it replaced did (30 of 30)."""
    hits = 0
    for i in range(30):
        rng = np.random.default_rng([33, i])
        n = 18 + i % 7
        if i % 2:
            upper = np.triu(rng.random((n, n)) < 0.5)
            mat = SymmetricMatrix((upper | upper.T).astype(float))
        else:
            mat = random_symmetric(rng, n)
        exact = disc_exact(mat).value
        hits += abs(disc_heuristic(mat, seed=i).value - exact) <= 1e-9 * exact
    assert hits >= 30


def test_heuristic_reaches_q199_quickly():
    """Q(199, 99) at the default restarts: the flip search took 28 s to
    reach 7.900180263335425; the climb must get there within 5 s."""
    mat = qpt_graph(199, 99).adjacency
    started = time.perf_counter()
    res = disc_heuristic(mat, seed=1)
    assert time.perf_counter() - started < 5.0
    assert res.value >= 7.900180263335425 * (1.0 - 1e-12)


def test_threads_do_not_change_result():
    mat = random_symmetric(np.random.default_rng(41), 10)
    for batch_bits in (4, 17):
        one = disc_exact(mat, threads=1, batch_bits=batch_bits)
        three = disc_exact(mat, threads=3, batch_bits=batch_bits)
        assert dataclasses.astuple(one) == dataclasses.astuple(three)


def test_exact_search_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("an exact search started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    got = disc_exact(random_symmetric(np.random.default_rng(73), 22), threads=2)
    assert got.batches == 32


def test_rows_sorted_repeats_for_the_same_input_and_batch_size():
    """The batches run in order, so the running lower bound, and with it
    the rows left to sort, evolve the same way on every run."""
    rng = np.random.default_rng(71)
    for n, batch_bits in ((12, 4), (21, 15), (22, 17)):
        mat = random_symmetric(rng, n)
        runs = [disc_exact(mat, threads=3, batch_bits=batch_bits) for _ in range(3)]
        assert runs[0].rows_sorted > 0
        assert len({(got.batches, got.rows_sorted) for got in runs}) == 1


def _same_result(got, want):
    return (got.value, got.witness_X, got.witness_Y, got.evaluations) == \
        (want.value, want.witness_X, want.witness_Y, want.evaluations)


def test_search_reads_no_pool_entry_it_did_not_write(monkeypatch):
    """Every free buffer is NaN before each search, so a table entry read
    before it is written would surface as a NaN value or a lost row. The
    reference scans batches of 2^4 masks, or of 2^(n - 8) past n = 12,
    where 2^(n - 4) batches would take half a minute at n = 22."""
    monkeypatch.setattr(discrepancy, "_POOL", discrepancy._BufferPool())
    rng = np.random.default_rng(53)
    for n, threads in ((17, 2), (9, 2), (22, 2), (12, 1)):
        mat = random_symmetric(rng, n)
        for buf in discrepancy._POOL.free:
            buf.fill(np.nan)
        got = disc_exact(mat, threads=threads)
        want = disc_exact(mat, threads=1, batch_bits=max(4, n - 8))
        assert _same_result(got, want)
        if n <= 12:
            want_val, want_x, want_y = naive_disc(mat.a)
            assert got.value == pytest.approx(want_val, abs=1e-12)
            assert (got.witness_X, got.witness_Y) == (want_x, want_y)
    assert discrepancy._POOL.free


def test_pool_holds_no_more_buffers_than_were_in_use(monkeypatch):
    monkeypatch.setattr(discrepancy, "_POOL", discrepancy._BufferPool())
    rng = np.random.default_rng(59)
    for n, threads in ((9, 1), (20, 2), (17, 2), (22, 3), (12, 1), (21, 2),
                       (22, 1)):
        disc_exact(random_symmetric(rng, n), threads=threads)
    assert len(discrepancy._POOL.free) == 4
    assert all(buf.shape == (discrepancy.POOL_FLOATS,)
               for buf in discrepancy._POOL.free)


def test_batches_past_the_pool_size_use_unpooled_buffers(monkeypatch):
    """batch_bits = 18 asks for bound tables of 2^18 floats, past
    POOL_FLOATS: they are fresh arrays that never join the pool, and the
    search matches the default one (two batches at n = 19, one at 18)."""
    monkeypatch.setattr(discrepancy, "_POOL", discrepancy._BufferPool())
    rng = np.random.default_rng(67)
    for n in (19, 18):
        mat = random_symmetric(rng, n)
        got = disc_exact(mat, batch_bits=18)
        assert got.batches == 1 << (n - 18)
        assert _same_result(got, disc_exact(mat))
    assert all(buf.shape == (discrepancy.POOL_FLOATS,)
               for buf in discrepancy._POOL.free)


def test_concurrent_searches_match_serial_ones():
    """Two caller threads share the pool: each gets the results of serial
    calls, over several rounds with a short switch interval."""
    rng = np.random.default_rng(61)
    mats = [[random_symmetric(rng, n) for n in (20, 9, 17)],
            [random_symmetric(rng, n) for n in (18, 22, 12)]]
    serial = [[disc_exact(mat, threads=2) for mat in side] for side in mats]

    def searches(side):
        return [disc_exact(mat, threads=2) for _ in range(3) for mat in side]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(searches, side) for side in mats]
            got = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for side_got, side_want in zip(got, serial):
        assert all(_same_result(res, side_want[i % len(side_want)])
                   for i, res in enumerate(side_got))


def test_shared_lower_bound_survives_thread_switching():
    """Scans on 4 caller threads share the buffer pool, switching every
    microsecond: a buffer handed to two scans at once would leave a scan's
    lower bound below a value it scored, or its parts off the serial ones.
    Entries grow with the index, so later batches keep raising the bound."""
    w = np.arange(1.0, 13.0) ** 2
    M = discrepancy.centered_matrix(SymmetricMatrix(np.outer(w, w)))
    batches = discrepancy._Batches(12, 3)

    def scan_all():
        scan = discrepancy._ExactScan(M, batches)
        try:
            parts = [scan.batch(h) for h in batches.highs]
        finally:
            scan.release()
        return scan.L, parts

    want_L, want = scan_all()
    assert want_L == max(vals.max() for _, vals, _ in want if vals.size)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        while time.monotonic() - started < 1.0:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = [pool.submit(scan_all) for _ in range(4)]
                got = [run.result(timeout=60) for run in runs]
            for L, parts in got:
                assert L == want_L
                assert len(parts) == len(want)
                for (masks, vals, rows), (wm, wv, wr) in zip(parts, want):
                    assert rows == wr
                    assert np.array_equal(masks, wm)
                    assert np.array_equal(vals, wv)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n", range(1, 25))
def test_zero_centred_matrix_needs_no_scan(n):
    """A zero centred matrix, and the float residue a constant 0.1 matrix
    leaves (about 1e-17 an entry at most orders), is answered with the
    tie rule's witness X = Y = {1} without a scan."""
    for a in (np.zeros((n, n)), np.full((n, n), 0.1)):
        mat = SymmetricMatrix(a)
        started = time.perf_counter()
        got = disc_exact(mat, threads=2)
        assert time.perf_counter() - started < 0.5
        assert got.witness_X == got.witness_Y == (1,)
        assert got.value == disc_value_at(mat, (1,), (1,)) <= 1e-16
        assert got.evaluations == ((1 << n) - 1) * 2 * n
        assert (got.batches, got.rows_sorted) == (0, 0)
        if not a.any():
            assert got.value == 0.0
        if n <= 8:
            assert (got.witness_X, got.witness_Y) == naive_disc(a)[1:]


def test_small_batches_do_not_change_result():
    mat = random_symmetric(np.random.default_rng(43), 10)
    whole = disc_exact(mat)
    for batch_bits in (4, 6):
        chopped = disc_exact(mat, batch_bits=batch_bits)
        assert whole.value == chopped.value
        assert whole.witness_X == chopped.witness_X
        assert whole.witness_Y == chopped.witness_Y
        assert chopped.batches == 2 ** (10 - batch_bits)
        assert 0 < chopped.rows_sorted <= 2 ** 10 - 1


def test_exact_cap():
    with pytest.raises(TooLargeError):
        disc_exact(SymmetricMatrix(np.zeros((25, 25))))
    with pytest.raises(TooLargeError):
        disc1_graph(complete_graph(25))


def test_entries_above_max_abs_entry_rejected():
    # The squared column sums of this matrix overflow to nan, and no row
    # of the exact scan can tie a nan maximum.
    mat = SymmetricMatrix([[6.87, -256.9], [-256.9, -1.66e226]])
    for search in (disc_exact, disc_heuristic):
        with pytest.raises(ValueError, match="at most 1e\\+100"):
            search(mat)


def test_complex_matrix_rejected():
    h = SymmetricMatrix(np.array([[1.0, 1j], [-1j, 0.0]]))
    with pytest.raises(ValueError):
        disc_exact(h)


def test_disc2_matches_inline_brute_force():
    rng = np.random.default_rng(47)
    for n in (4, 6):
        g = gnp_random_graph(n, 0.5, rng)
        centered = g.adjacency.a - g.density()
        assert disc2_graph(g).value == pytest.approx(
            brute_pairs(centered), abs=1e-12)


def test_disc1_matches_brute_force():
    rng = np.random.default_rng(53)
    for n in range(2, 9):
        g = gnp_random_graph(n, 0.5, rng)
        want_val, want_x = naive_disc1(g.adjacency.a)
        got = disc1_graph(g)
        assert got.value == pytest.approx(want_val, abs=1e-12)
        assert got.witness_X == want_x
        assert got.witness_Y == got.witness_X
        at = disc1_value_at(g, got.witness_X)
        assert abs(at - got.value) <= 1e-12


def test_disc1_exact_spans_batches():
    # n = 18 exceeds the 17 table bits, so the scan runs two batches
    g = gnp_random_graph(18, 0.5, np.random.default_rng(71))
    a = g.adjacency.a
    masks = np.arange(1, 1 << 18)
    ind = ((masks[:, None] >> np.arange(18)) & 1).astype(float)
    size = ind.sum(axis=1)
    inside = ((ind @ a) * ind).sum(axis=1) / 2.0
    vals = np.abs(inside - g.density() * size * (size - 1) / 2.0) / size
    at = int(np.argmax(vals))
    got = disc1_graph(g)
    assert got.batches == 2
    assert got.value == pytest.approx(vals[at], abs=1e-12)
    assert got.witness_X == tuple(j + 1 for j in range(18) if ind[at, j])


def test_disc1_heuristic_bounded_by_exact():
    rng = np.random.default_rng(59)
    g = gnp_random_graph(12, 0.4, rng)
    exact = disc1_graph(g)
    heur = disc1_graph(g, mode="heuristic", seed=2)
    assert heur.value <= exact.value + 1e-12


def test_disc2_heuristic_bounded_by_exact():
    rng = np.random.default_rng(61)
    g = gnp_random_graph(11, 0.5, rng)
    exact = disc2_graph(g)
    heur = disc2_graph(g, mode="heuristic", seed=3)
    assert heur.value <= exact.value + 1e-12
    with pytest.raises(ValueError):
        disc2_graph(g, mode="annealed")
    # settings after mode are keyword-only: a positional third argument
    # fails instead of landing in another parameter
    for search in (disc1_graph, disc2_graph):
        with pytest.raises(TypeError):
            search(g, "heuristic", 16)


def test_graph_searches_leave_the_float_adjacency_unbuilt():
    """disc2 and disc1, exact and heuristic, and their value_at forms read
    the graph's mask; only an eigensolve builds Graph.adjacency."""
    g = gnp_random_graph(12, 0.4, np.random.default_rng(59))
    for mode in ("exact", "heuristic"):
        for search in (disc2_graph, disc1_graph):
            res = search(g, mode, iterations=4, seed=1)
            assert res.value > 0.0
    disc2_value_at(g, (1, 2), (3, 4))
    disc1_value_at(g, (1, 2, 3))
    assert "adjacency" not in vars(g)


def test_disc2_gap_bound_holds():
    rng = np.random.default_rng(67)
    for n in (5, 8, 10):
        g = gnp_random_graph(n, 0.5, rng)
        gap = abs(disc2_graph(g).value - disc_exact(g.adjacency).value)
        assert gap <= disc2_gap_bound(g) + 1e-12


def test_empty_witness_rejected():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        disc1_value_at(g, ())
    with pytest.raises(ValueError):
        disc2_value_at(g, (), (1,))


def test_witness_labels_validated():
    # Labels are integers in 1..n and a set counts each label once, the
    # rule e_xy and vol follow.
    m = np.arange(9.0).reshape(3, 3)
    A = SymmetricMatrix(m + m.T)
    assert disc_value_at(A, [1, 1], [1]) == 8.0
    assert disc_value_at(A, {1}, (1,)) == 8.0
    for bad in ([0], [4], [1.7], [-1]):
        with pytest.raises(ValueError):
            disc_value_at(A, bad, [2])
        with pytest.raises(ValueError):
            disc_value_at(A, [2], bad)
        with pytest.raises(ValueError):
            disc1_value_at(complete_graph(3), bad)
        with pytest.raises(ValueError):
            disc2_value_at(complete_graph(3), bad, [1])
    assert disc1_value_at(complete_graph(3), [1, 1, 2]) == 0.0


def test_exact_scan_memory_stays_below_subset_table():
    # The full 2^17 x 22 subset table alone would take 24 MB.
    rng = np.random.default_rng(47)
    m = rng.normal(size=(22, 22))
    mat = SymmetricMatrix((m + m.T) / 2.0)
    tracemalloc.start()
    try:
        disc_exact(mat, threads=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


_WITNESS_RSS_SCRIPT = """
import resource
import numpy as np
from matdisc.discrepancy import _best_y_for_x
n = 2000
a = np.random.default_rng(5).normal(size=(n, n))
M = (a + a.T) / 2.0
xs = np.arange(0, n, 2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
_best_y_for_x(M, xs)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def _run_python(script: str) -> str:
    """The stdout of `script` run by a fresh interpreter on this tree's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss counts KiB only on Linux")
def test_witness_pass_memory_at_n_2000():
    """The witness pass keeps one sorted list of n sums, not (n + 1)^2
    prefix tables: the peak RSS of a fresh process rises by less than
    100 MB over a Gaussian n = 2000 matrix already built."""
    assert int(_run_python(_WITNESS_RSS_SCRIPT)) < 100 * 1024


def test_cli_import_loads_no_thread_pool():
    out = _run_python("import sys, matdisc.cli; "
                      "print('concurrent.futures' in sys.modules)")
    assert out.strip() == "False"


def test_exact_analyze_loads_no_numpy_ma(tmp_path):
    """An exact analyze never calls np.unique, whose first call imports
    numpy.ma: 9-16 ms of a fresh process on a 2-CPU x86-64 VM, against
    about 0.1 s for the whole import and analyze at n = 14."""
    path = tmp_path / "sym14.txt"
    write_matrix(random_symmetric(np.random.default_rng(3), 14), path)
    out = _run_python("import sys, matdisc.cli; "
                      f"code = matdisc.cli.main(['analyze', {str(path)!r}]); "
                      "print(code, 'numpy.ma' in sys.modules)")
    assert out.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("threads", [0, -2])
def test_exact_threads_below_one_rejected(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        disc_exact(random_symmetric(np.random.default_rng(1), 4), threads=threads)

import tracemalloc

import numpy as np
import pytest

from conftest import count_edges_between, reference_write_graph

from matdisc import (
    FormatError,
    Graph,
    NotBinaryError,
    SymmetricMatrix,
    TooManyVerticesError,
    complete_graph,
    cycle_graph,
    e_xy,
    from_adjacency,
    gnp_random_graph,
    qpt_graph,
    read_graph,
    star_graph,
    vol,
    write_graph,
)
from matdisc import graphs
from matdisc.graphs import MAX_VERTICES


def test_edges_canonicalized():
    g = Graph(4, ((3, 1), (2, 4), (1, 2)))
    assert g.edges == ((1, 2), (1, 3), (2, 4))
    assert g.m == 3


def test_bad_edges_rejected():
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))
    with pytest.raises(ValueError):
        Graph(3, ((1, 4),))
    with pytest.raises(ValueError):
        Graph(3, ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        Graph(0, ())


def test_integral_float_labels_accepted():
    assert Graph(3, ((1.0, 2),)).edges == ((1, 2),)


def test_non_integral_pair_label_rejected():
    with pytest.raises(ValueError):
        Graph(3, ((1.5, 2),))


def test_non_integral_e_xy_label_rejected():
    with pytest.raises(ValueError):
        e_xy(complete_graph(3), [1.7], [2])


def test_non_integral_vol_label_rejected():
    with pytest.raises(ValueError):
        vol(complete_graph(3), [2.9])


def test_vertex_cap():
    with pytest.raises(TooManyVerticesError):
        Graph(MAX_VERTICES + 1, ())
    with pytest.raises(TooManyVerticesError):
        gnp_random_graph(MAX_VERTICES + 1, 0.5, np.random.default_rng(0))
    with pytest.raises(TooManyVerticesError):
        complete_graph(MAX_VERTICES + 1)


def test_complete_graph():
    g = complete_graph(6)
    assert g.m == 15
    assert g.is_regular()
    assert np.all(g.degrees == 5)
    assert g.density() == 1.0


def test_cycle_and_star():
    c = cycle_graph(5)
    assert c.m == 5
    assert np.all(c.degrees == 2)
    s = star_graph(5)
    assert s.n == 6
    assert s.degrees[0] == 5
    assert np.all(s.degrees[1:] == 1)
    assert not s.is_regular()


def test_adjacency_round_trip():
    g = Graph(5, ((1, 2), (2, 3), (4, 5)))
    back = from_adjacency(g.adjacency)
    assert back.edges == g.edges


def test_from_adjacency_rejects():
    with pytest.raises(NotBinaryError):
        from_adjacency(SymmetricMatrix(np.full((2, 2), 0.5)))
    with pytest.raises(ValueError):
        from_adjacency(SymmetricMatrix(np.eye(3)))


def test_e_xy_matches_pair_count():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        g = gnp_random_graph(n, 0.5, rng)
        kx = int(rng.integers(1, n + 1))
        ky = int(rng.integers(1, n + 1))
        X = [int(v) for v in rng.choice(n, size=kx, replace=False) + 1]
        Y = [int(v) for v in rng.choice(n, size=ky, replace=False) + 1]
        assert e_xy(g, X, Y) == count_edges_between(g.adjacency.a, X, Y)


def test_e_xy_counts_internal_edges_twice():
    g = complete_graph(4)
    # every ordered pair of distinct vertices is an edge slot
    assert e_xy(g, [1, 2, 3, 4], [1, 2, 3, 4]) == 12
    assert e_xy(g, [1, 2], [1, 2]) == 2


def test_vol():
    s = star_graph(4)
    assert vol(s, [1]) == 4
    assert vol(s, [2, 3]) == 2
    assert vol(s, range(1, 6)) == 2 * s.m
    with pytest.raises(ValueError):
        vol(s, [9])


def test_write_read_round_trip(tmp_path):
    g = gnp_random_graph(12, 0.4, np.random.default_rng(3))
    path = tmp_path / "g.txt"
    write_graph(g, path)
    back = read_graph(path)
    assert back.n == g.n and back.edges == g.edges


def _assert_writes_like_savetxt(graph, tmp_path):
    ours, ref = tmp_path / "ours.txt", tmp_path / "ref.txt"
    write_graph(graph, ours)
    reference_write_graph(graph, ref)
    assert ours.read_bytes() == ref.read_bytes()
    return ours


# orders at digit boundaries: the cycle's edges (i, i + 1) and (1, n) put
# every label on both sides of a line, the star's put 1 first on each
BOUNDARY_ORDERS = (9, 10, 99, 100, 999, 1000)


@pytest.mark.parametrize("graph", [
    Graph(5, []), Graph(1, []), complete_graph(6), qpt_graph(101, 25),
    qpt_graph(499, 124),
    *(cycle_graph(n) for n in BOUNDARY_ORDERS),
    *(star_graph(n - 1) for n in BOUNDARY_ORDERS),
], ids=["edgeless", "one-vertex", "K6", "Q101-25", "Q499-124",
        *(f"C{n}" for n in BOUNDARY_ORDERS), *(f"star{n}" for n in BOUNDARY_ORDERS)])
def test_write_graph_matches_savetxt(tmp_path, graph):
    back = read_graph(_assert_writes_like_savetxt(graph, tmp_path))
    assert back.n == graph.n and back.edges == graph.edges


def test_label_table_spells_every_label():
    """Each word is the label's digits, then ' ' on a line's first label
    or a newline on its second, padded with zero bytes to 8."""
    table = graphs._label_table(MAX_VERTICES)
    assert table.shape == (2, MAX_VERTICES + 1) and table.dtype == np.uint64
    got = table.view(np.uint8).reshape(2, MAX_VERTICES + 1, 8)[:, 1:]
    for side, sep in enumerate((" ", "\n")):
        want = b"".join(f"{i}{sep}".encode().ljust(8, b"\0")
                        for i in range(1, MAX_VERTICES + 1))
        assert got[side].tobytes() == want


@pytest.mark.parametrize("block", [1, 5, 37, 400])
def test_write_graph_across_many_blocks(tmp_path, monkeypatch, block):
    monkeypatch.setattr(graphs, "WRITE_BLOCK", block)
    for graph in (complete_graph(12), gnp_random_graph(40, 0.3, np.random.default_rng(5)),
                  qpt_graph(101, 25), Graph(30, [(29, 30)])):
        _assert_writes_like_savetxt(graph, tmp_path)


def test_write_graph_memory_is_bounded_by_the_block(tmp_path):
    """Q(1999, 999) has about a million edges; what the writer holds
    beside the mask is bounded by the block, not by m."""
    graph = qpt_graph(1999, 999)
    tracemalloc.start()
    try:
        write_graph(graph, tmp_path / "q.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_read_graph_rejects(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("sym 3\n0 1 0\n1 0 0\n0 0 0\n")
    with pytest.raises(FormatError):
        read_graph(p)
    p.write_text("graph 3 2\n1 2\n")
    with pytest.raises(FormatError):
        read_graph(p)
    p.write_text("graph 3 1\n1 1\n")
    with pytest.raises(FormatError):
        read_graph(p)


def test_gnp_deterministic_and_density():
    a = gnp_random_graph(40, 0.3, np.random.default_rng(123))
    b = gnp_random_graph(40, 0.3, np.random.default_rng(123))
    assert a.edges == b.edges
    assert 0.15 < a.density() < 0.45
    empty = gnp_random_graph(10, 0.0, np.random.default_rng(1))
    assert empty.m == 0
    full = gnp_random_graph(10, 1.0, np.random.default_rng(1))
    assert full.m == 45


def per_row_gnp_edges(n, p, rng):
    """Oracle: the binomial graph drawn with one rng.random call per row."""
    edges = []
    for i in range(1, n + 1):
        draws = rng.random(n - i)
        for off in np.nonzero(draws < p)[0]:
            edges.append((i, i + 1 + int(off)))
    return tuple(edges)


@pytest.mark.parametrize("n,p,seed", [(1, 0.5, 0), (2, 0.5, 1), (12, 0.3, 2),
                                      (50, 50 ** (-1 / 3), [7, 50]),
                                      (200, 200 ** (-1 / 3), [7, 200])])
def test_gnp_matches_per_row_draw(n, p, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert gnp_random_graph(n, p, rng).edges == per_row_gnp_edges(n, p, oracle_rng)
    assert rng.random() == oracle_rng.random()  # the same draws were consumed

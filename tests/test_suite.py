import dataclasses

import numpy as np
import pytest

from conftest import dense_codegrees

from matdisc import SymmetricMatrix, suite
from matdisc.constructions import block_matrix, block_plan, qpt_graph
from matdisc.errors import TooManyVerticesError
from matdisc.graphs import Graph
from matdisc.suite import (
    _circulant_codegrees,
    check_block_matrices,
    check_residue_graphs,
    run_suite,
)


def test_quick_suite_passes():
    report = run_suite(quick=True, max_p=13, max_k=8, samples=300)
    assert report["pass"]
    assert set(report["checks"]) == {
        "tightness_family", "certificates", "quantization", "compression",
        "residue_graphs", "block_matrices", "block_spectral_gap",
        "small_graph_bound", "sparse_family",
    }
    for name, check in report["checks"].items():
        assert check["pass"], name
    params = report["parameters"]
    assert params["quick"] and params["max_k"] == 8
    assert params["trials"] == 40 and params["samples"] == 300


def test_suite_rejects_empty_prime_range():
    with pytest.raises(ValueError):
        run_suite(max_p=11)


def test_block_cap_is_sigma1_of_centered_matrix():
    report = check_block_matrices(primes=(13,))
    assert report["pass"] and "seed" not in report
    row = report["per_prime"][0]
    a = block_matrix(block_plan(13)).a
    assert abs(row["disc_upper"] - np.linalg.norm(a - a.mean(), 2)) <= 1e-9
    # the cap bounds every disc value, the pinned heuristic one included
    assert row["disc_upper"] >= 10.0


@pytest.mark.parametrize("p", [13, 101])
def test_residue_codegrees_match_dense_products(p):
    adjacencies = [qpt_graph(p, t).adjacency.a for t in range(1, p + 1)]
    codegrees = _circulant_codegrees([a[0] for a in adjacencies])
    shift = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
    off = ~np.eye(p, dtype=bool)
    gap = 0.0
    for t, (a, codeg) in enumerate(zip(adjacencies, codegrees), start=1):
        dense = dense_codegrees(a)
        # codegree of (u, v) is entry (v - u) mod p - 1 of the row's values
        assert np.array_equal(codeg[shift[off] - 1], dense), t
        gap = max(gap, float(np.abs(dense - t * t / p).max()))
    assert check_residue_graphs((p,))["per_prime"][0]["max_codegree_gap"] == gap


def test_residue_check_catches_a_moved_edge(monkeypatch):
    """A graph with every degree of Q(13, 6) but one edge moved (ab, cd
    become ac, bd) passes the regularity and catalog checks; the residue
    rule still rejects it."""
    def swapped(p, t):
        g = qpt_graph(p, t)
        if t != 6:
            return g
        mask = g.adjacency.a == 1.0
        for a, b in g.edges:
            for c, d in g.edges:
                ends = {a - 1, b - 1, c - 1, d - 1}
                if (len(ends) == 4 and not mask[a - 1, c - 1]
                        and not mask[b - 1, d - 1]):
                    for x, y, edge in ((a, b, False), (c, d, False),
                                       (a, c, True), (b, d, True)):
                        mask[x - 1, y - 1] = mask[y - 1, x - 1] = edge
                    return Graph._from_mask(mask)
        raise AssertionError("no edge to move")

    monkeypatch.setattr(suite, "qpt_graph", swapped)
    report = check_residue_graphs((13,))
    assert not report["pass"]
    assert report["failures"] == [{"kind": "residue_rule", "p": 13, "t": 6}]


def test_run_suite_timing_outside_results():
    timing = {}
    report = run_suite(quick=True, max_p=13, max_k=4, samples=100,
                       timing=timing)
    assert list(timing) == list(report["checks"])
    assert all(seconds >= 0.0 for seconds in timing.values())


def test_certificate_headline_verdict_read_from_the_certificate(monkeypatch):
    """check_certificates records the certificate's own headline verdict
    and bound, not a bound of its own."""
    real = suite.certify_sigma2
    seen = []

    def open_headline(mat):
        cert = real(mat)
        seen.append(dataclasses.replace(cert, headline_holds=False,
                                        headline_bound=cert.sigma2 / 2.0))
        return seen[-1]

    monkeypatch.setattr(suite, "certify_sigma2", open_headline)
    report = suite.check_certificates(trials=1, seed=2)
    cert, = seen
    assert not report["pass"]
    assert report["failures"] == [{"kind": "headline", "trial": 0, "n": cert.n,
                                   "sigma2": cert.sigma2,
                                   "bound": cert.sigma2 / 2.0}]
    assert report["min_headline_margin"] == -cert.sigma2 / 2.0


def test_certificate_margin_skips_zero_matrices(monkeypatch):
    """Trial 101 at seed 1002, the default suite's, draws the zero 2 x 2
    matrix: sigma2 = disc = 0 and a margin of exactly 0.  The margin is
    the least over the certificates with sigma2 > 0, None without one."""
    real = suite.certify_sigma2
    seen = []

    def record(mat):
        seen.append(real(mat))
        return seen[-1]

    monkeypatch.setattr(suite, "certify_sigma2", record)
    report = suite.check_certificates(trials=102, seed=1002)
    zero = seen[101]
    assert (zero.n, zero.sigma2, zero.headline_bound) == (2, 0.0, 0.0)
    assert report["min_headline_margin"] == min(
        cert.headline_bound - cert.sigma2 for cert in seen if cert.sigma2 > 0.0)
    assert report["min_headline_margin"] > 0.0

    monkeypatch.setattr(suite, "_random_symmetric",
                        lambda rng, n, kind: SymmetricMatrix(np.zeros((n, n))))
    report = suite.check_certificates(trials=3, seed=1002)
    assert report["pass"] and report["min_headline_margin"] is None


@pytest.mark.parametrize("kwargs", [
    {"samples": 0}, {"samples": -1}, {"samples": 0, "quick": True},
    {"max_k": 1}, {"max_k": 5001}, {"max_p": 11},
], ids=["samples-0", "samples-minus-1", "quick-samples-0", "max-k-1",
        "max-k-over-cap", "max-p-11"])
def test_run_suite_checks_parameters_before_any_check(monkeypatch, kwargs):
    """A bad parameter is refused before the first check runs, whichever
    check would have used it."""
    def ran(*args, **kw):
        raise AssertionError("a check ran before the parameters were checked")

    for name in vars(suite).copy():
        if name.startswith("check_"):
            monkeypatch.setattr(suite, name, ran)
    with pytest.raises((ValueError, TooManyVerticesError)):
        run_suite(**kwargs)

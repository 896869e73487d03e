import math

import numpy as np
import pytest
from conftest import count_edges_between

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


def _drawn_pairs(n, samples, seed):
    """The documented sampling rule, re-implemented: `samples` X sets and
    then `samples` Y sets with log-uniform sizes, then the pair X = Y = V."""
    rng = np.random.default_rng(seed)
    hi = math.log(n + 1)

    def draw():
        sets = []
        for _ in range(samples):
            size = min(max(int(math.exp(rng.uniform(0.0, hi))), 1), n)
            chosen = rng.choice(n, size=size, replace=False)
            sets.append(sorted(int(v) + 1 for v in chosen))
        return sets

    whole = list(range(1, n + 1))
    return draw() + [whole], draw() + [whole]


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
    """Seeded sampled reports keep the values they had when each check
    carried its own sampling loop."""
    rep = chung_alpha_check(cycle_graph(20), samples=400, seed=3)
    assert rep.params["alpha_min"] == 0.4444444444444445
    assert rep.params["identity_pairs"] == 11
    g = gnp_random_graph(30, 0.4, np.random.default_rng(9))
    rep = chung_alpha_check(g, alpha=0.1, samples=500, seed=4)
    assert rep.params["violation_count"] == 9
    assert rep.max_slack == 1.4694960657696639
    assert rep.params["alpha_min"] == 0.1221666640934032
    assert rep.violations[0] == {"X": [16, 18, 29], "Y": [30],
                                 "lhs": 1.8502994011976048,
                                 "rhs": 1.8295764130518881}
    rep = thomason_report(g, 0.2, 17.0, samples=300, seed=11)
    assert rep.params["violation_count"] == 0
    assert rep.max_slack == -4.995831523312719
    rep = thomason_report(g, 0.2, 17.0, samples=300, seed=11, tol=-6.0)
    assert rep.params["violation_count"] == 21
    assert rep.violations[0] == {"X": [24], "Y": [7], "lhs": 0.8,
                                 "rhs": 5.795831523312719}
    family = [gnp_random_graph(n, 0.5, np.random.default_rng(n))
              for n in (16, 24, 32)]
    rep = family_properties(family, samples=300, seed=5)
    assert [m["disc_ratio"] for m in rep.params["members"]] == [
        0.09318181818181819, 0.04513888888888889, 0.026242760617760617]


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

import bisect
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (direct_rayleigh, jacobi_eigenvalues, naive_disc,
                      rank_one_disc, squares_degree)

from matdisc import (
    BadTError,
    EmptyCliqueError,
    InvariantError,
    NotPrimeError,
    TooManyVerticesError,
    block_graph,
    block_matrix,
    block_plan,
    block_rayleigh_closed_form,
    block_step_vector,
    complete_graph,
    degree_catalog,
    disc_exact,
    disc_value_at,
    eig_symmetric,
    harmonic_number,
    is_prime,
    qpt_graph,
    rayleigh_quotient,
    sparse_union,
    tightness_disc_structured,
    tightness_matrix,
    tightness_proof_vector,
)


def test_harmonic_number_against_fractions():
    total = Fraction(0)
    for k in range(1, 31):
        total += Fraction(1, k)
        assert harmonic_number(k) == pytest.approx(float(total), rel=1e-15)
    with pytest.raises(ValueError):
        harmonic_number(0)


def test_tightness_matrix_smallest_case():
    m = tightness_matrix(1)
    assert np.array_equal(m.a, np.array([[2.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        tightness_matrix(0)


def test_tightness_eigenvalues():
    for k in (1, 2, 5, 16):
        spec = eig_symmetric(tightness_matrix(k))
        assert spec.eigenvalues[0] == pytest.approx(2.0 * k, abs=1e-10)
        assert spec.eigenvalues[1] == pytest.approx(
            2.0 * harmonic_number(k), abs=1e-10)
    jac = jacobi_eigenvalues(tightness_matrix(4).a)
    assert jac[1] == pytest.approx(2.0 * harmonic_number(4), abs=1e-9)


def test_tightness_proof_vector_is_eigenvector():
    for k in (1, 3, 8):
        m = tightness_matrix(k)
        v = tightness_proof_vector(k)
        mu = 2.0 * harmonic_number(k)
        assert np.allclose(m.a @ v, mu * v, atol=1e-12)
        assert rayleigh_quotient(m, v) == pytest.approx(mu, abs=1e-10)


def test_tightness_disc_closed_form_matches_search():
    for k in range(1, 7):
        structured = tightness_disc_structured(k)
        full = disc_exact(tightness_matrix(k))
        assert structured.value == pytest.approx(full.value, abs=1e-12)
        assert structured.witness_X == tuple(range(1, k + 1))
        assert structured.witness_X == full.witness_X
        assert structured.evaluations == k
    assert tightness_disc_structured(512).value < 4.0


def test_tightness_disc_closed_form_matches_rank_one_oracle():
    """Every k <= 64: the centred tightness matrix is u u^T with u =
    (w, -w), so its disc is the rank-one oracle's, and the structured
    witness attains it."""
    for k in range(1, 65):
        mat = tightness_matrix(k)
        structured = tightness_disc_structured(k)
        assert structured.value == pytest.approx(
            rank_one_disc(mat.a - mat.a.mean()), rel=1e-12, abs=0.0)
        assert disc_value_at(mat, structured.witness_X,
                             structured.witness_Y) == pytest.approx(
            structured.value, rel=1e-12, abs=0.0)


def test_rank_one_oracle_matches_brute_force():
    """Vectors summing to 0 give outer products of mean 0, which the
    brute force's centring leaves alone."""
    for v in ([1.0, 2.0, -3.0], [0.5, -0.25, -0.25, 1.0, -1.0],
              [3.0, -1.0, -1.0, -1.0, 2.0, -2.0]):
        for sign in (1.0, -1.0):
            m = sign * np.outer(v, v)
            assert rank_one_disc(m) == pytest.approx(naive_disc(m)[0],
                                                     rel=1e-12)
    with pytest.raises(ValueError, match="rank one"):
        rank_one_disc(np.eye(3))


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(199)
    assert not is_prime(201)


def test_degree_catalog_frozen_13():
    cat = degree_catalog(13)
    assert cat.achievable_degrees == (2, 4, 6, 8, 10, 12)
    assert cat.smallest_t_for_degree == {2: 1, 4: 3, 6: 4, 8: 9, 10: 10,
                                         12: 12}
    assert cat.degree(3) == 4
    with pytest.raises(BadTError):
        cat.degree(0)
    with pytest.raises(BadTError):
        cat.degree(14)
    with pytest.raises(NotPrimeError):
        degree_catalog(15)


def test_degree_catalog_against_counting():
    for p in (13, 17):
        cat = degree_catalog(p)
        for t in range(1, p + 1):
            assert cat.degree(t) == squares_degree(p, t), (p, t)


def test_qpt_graph():
    g = qpt_graph(13, 3)
    assert g.n == 13 and g.m == 26
    assert g.is_regular() and g.degrees[0] == 4
    assert qpt_graph(13, 13).edges == complete_graph(13).edges
    with pytest.raises(NotPrimeError):
        qpt_graph(9, 1)
    with pytest.raises(BadTError):
        qpt_graph(13, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 13, 101])
def test_qpt_graph_is_the_residue_rule(p):
    u = np.arange(p)
    diff = u[:, None] - u[None, :]
    for t in range(1, p + 1):
        rule = (diff * diff) % p <= t
        np.fill_diagonal(rule, False)
        assert np.array_equal(qpt_graph(p, t).adjacency.a, rule), t


def test_qpt_graph_memory_is_its_mask():
    """Q(2003, 1001) holds one 4 MB boolean mask; three p x p int64
    temporaries peaked at about 92 MB."""
    tracemalloc.start()
    try:
        qpt_graph(2003, 1001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_block_plan_13():
    plan = block_plan(13)
    assert plan.k == 2 and plan.n == 52
    assert plan.degrees.tolist() == [[12, 12], [12, 10]]
    assert plan.thresholds.tolist() == [[12, 12], [12, 10]]
    with pytest.raises(NotPrimeError):
        block_plan(15)
    # a prime too large for any block matrix fails before its catalog
    with pytest.raises(TooManyVerticesError):
        block_plan(10_000_019)


def _block_plan_by_cell(p):
    """Degrees, thresholds and gap violations of the block plan, one
    (i, j) cell at a time."""
    catalog = degree_catalog(p)
    k = 1
    while k ** 5 < p:
        k += 1
    achievable = catalog.achievable_degrees
    allowance = 2.0 * math.sqrt(p) * math.log(p) ** 2
    degrees, thresholds, violations = [], [], []
    for i in range(1, k + 1):
        degrees.append([])
        thresholds.append([])
        for j in range(1, k + 1):
            target = p / 2.0 + p / (2.0 * math.sqrt(i * j))
            # the closest achievable degree, the smaller one on a tie;
            # achievable is sorted, so only the two around target compete
            at = bisect.bisect_left(achievable, target)
            d = min(achievable[max(at - 1, 0):at + 1],
                    key=lambda a: (abs(a - target), a))
            degrees[-1].append(d)
            thresholds[-1].append(catalog.smallest_t_for_degree[d])
            gap = abs(2.0 * d - (p + p / math.sqrt(i * j)))
            if gap > allowance:
                violations.append(
                    {"i": i, "j": j, "gap": gap, "allowance": allowance})
    return k, degrees, thresholds, violations


def test_block_plan_matches_cell_reference():
    for p in (p for p in range(2, 3000) if is_prime(p)):
        k, degrees, thresholds, violations = _block_plan_by_cell(p)
        plan = block_plan(p)
        assert plan.k == k, p
        assert plan.degrees.tolist() == degrees, p
        assert plan.thresholds.tolist() == thresholds, p
        assert list(plan.target_gap_violations) == violations, p


def test_block_plan_fifth_root():
    from matdisc.constructions import _fifth_root_ceiling

    assert block_plan(31).k == 2
    assert block_plan(37).k == 3
    assert _fifth_root_ceiling(32) == 2
    assert _fifth_root_ceiling(33) == 3
    assert _fifth_root_ceiling(1) == 1


def test_block_matrix_structure():
    plan = block_plan(13)
    a = block_matrix(plan).a
    kp = plan.k * plan.p
    assert a.shape == (52, 52)
    assert np.all(np.diagonal(a) == 0.0)
    assert np.all(np.isin(a, (0.0, 1.0)))
    assert np.all(a.sum(axis=1) == kp)
    # off-diagonal blocks are the exact complement, diagonal included
    assert np.array_equal(a[:kp, kp:], 1.0 - a[:kp, :kp])
    assert np.array_equal(a[kp:, kp:], a[:kp, :kp])


def test_block_matrix_memory_is_one_cast():
    """At p = 101 (n = 606) the matrix is one float64 cast of a boolean
    mask checked for symmetry as booleans; a second cast and the float
    symmetry check's temporaries took the peak to 3.0 times the array."""
    plan = block_plan(101)
    tracemalloc.start()
    try:
        a = block_matrix(plan).a
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.shape == (606, 606)
    assert peak <= 1.5 * a.nbytes


def test_block_matrix_rejects_an_asymmetric_mask():
    plan = block_plan(13)
    thresholds = plan.thresholds.copy()
    thresholds[0, 1] = 1  # Q(13, 1) above the diagonal, Q(13, 12) below
    with pytest.raises(InvariantError, match="not symmetric"):
        block_matrix(dataclasses.replace(plan, thresholds=thresholds))


def test_block_graph_regular():
    plan = block_plan(13)
    g = block_graph(plan)
    assert g.n == 52
    assert g.is_regular() and g.degrees[0] == 26
    # the graph's mask is the block matrix's 0/1 pattern
    assert np.array_equal(g._mask, block_matrix(plan).a == 1.0)
    assert "adjacency" not in vars(g)


def test_block_step_vector():
    plan = block_plan(13)
    v = block_step_vector(plan)
    assert v.shape == (52,)
    assert np.all(v[:13] == 1.0)
    assert np.allclose(v[13:26], 1.0 / math.sqrt(2.0))
    assert np.array_equal(v[26:], -v[:26])


def test_block_rayleigh_closed_form():
    for p in (13, 19):
        plan = block_plan(p)
        closed = block_rayleigh_closed_form(plan)
        direct = direct_rayleigh(block_matrix(plan).a, block_step_vector(plan))
        assert closed == pytest.approx(direct, abs=1e-10)
    assert block_rayleigh_closed_form(block_plan(13)) == pytest.approx(
        20.037566124069, abs=1e-9)


def test_sparse_union():
    base = complete_graph(10)
    g = sparse_union(base, 0.35)
    assert g.n == 13
    assert g.m == base.m + 3
    assert g.degrees[-1] == 2
    with pytest.raises(EmptyCliqueError):
        sparse_union(complete_graph(10), 0.05)
    with pytest.raises(ValueError):
        sparse_union(base, 0.0)
    with pytest.raises(ValueError):
        sparse_union(base, 1.0)

import json
import math
from pathlib import Path

import numpy as np
import pytest

from matdisc import (
    BadEpsilonError,
    DiscResult,
    ImproperPartitionError,
    NotNormalizedError,
    Partition,
    SymmetricMatrix,
    certificate_m_ceiling,
    certify_sigma2,
    closed_form_bound,
    complex_value_ceiling,
    disc_exact,
    disc_heuristic,
    eig_symmetric,
    level_partition,
    nonneg_value_ceiling,
    quantize,
    quotient_compress,
    rho_prime,
)
from matdisc.linalg import MAX_VERTICES
from matdisc.quantization import (CLOSED_FORM_OFFSET, CLOSED_FORM_SLOPE,
                                  HEADLINE_CONSTANT)


def unit(v, p=2.0):
    v = np.asarray(v, dtype=v.dtype if np.iscomplexobj(v) else np.float64)
    return v / np.sum(np.abs(v) ** p) ** (1.0 / p)


def test_ceiling_formulas():
    assert nonneg_value_ceiling(64, 0.9) == math.ceil(
        (2.0 / 0.9) * math.log(2 * 64 / 0.9))
    assert complex_value_ceiling(16, 1.0 / 3.0) == \
        math.ceil(8 * math.pi * 3) * math.ceil(12 * math.log(16 * 4 * 3))


def test_nonneg_random_vectors():
    rng = np.random.default_rng(71)
    for n in (8, 32, 100):
        for eps in (0.05, 1.0 / 3.0, 0.9):
            for p in (1.0, 2.0, 3.0):
                x = unit(np.abs(rng.normal(size=n)), p)
                q = quantize(x, p=p, epsilon=eps)
                assert q.case == "nonnegative"
                assert q.error <= eps + 1e-12
                assert q.distinct_count <= q.value_ceiling
                assert q.value_ceiling == nonneg_value_ceiling(n, eps)
                # moduli only ever shrink
                assert np.all(np.abs(q.y) <= np.abs(x) + 1e-15)
                assert np.sum(np.abs(q.y) ** p) ** (1.0 / p) <= 1.0 + 1e-12


def test_forced_bucket_repair():
    """A fast-decaying vector makes every entry its own bucket.

    With n = 64 and epsilon = 0.9, the greedy pass wants 64 buckets but
    the budget is only ceil((2/.9) ln(2*64/.9)) = 12, so the repair path
    must fire and still respect both the budget and the error target.
    """
    x = unit(0.5 ** np.arange(64))
    cap = nonneg_value_ceiling(64, 0.9)
    assert cap == 12
    q = quantize(x, p=2.0, epsilon=0.9)
    assert q.repairs >= 1
    assert q.distinct_count <= cap
    assert q.error <= 0.9 + 1e-12


def test_signed_keeps_signs():
    rng = np.random.default_rng(73)
    x = unit(rng.normal(size=24))
    q = quantize(x, p=2.0, epsilon=0.3)
    assert q.case == "signed"
    assert q.error <= 0.3 + 1e-12
    assert q.distinct_count <= complex_value_ceiling(24, 0.3)
    nz = q.y != 0.0
    assert np.all(np.sign(q.y[nz]) == np.sign(x[nz]))


def test_complex_phase_grid():
    rng = np.random.default_rng(79)
    x = unit(rng.normal(size=20) + 1j * rng.normal(size=20))
    eps = 0.5
    q = quantize(x, p=2.0, epsilon=eps)
    assert q.case == "complex"
    assert q.error <= eps + 1e-12
    assert q.distinct_count <= complex_value_ceiling(20, eps)
    slots = math.ceil(8.0 * math.pi / eps)
    nz = np.abs(q.y) > 0.0
    ang = np.angle(q.y[nz]) / (2.0 * math.pi)
    ang = np.where(ang < 0.0, ang + 1.0, ang)
    assert np.allclose(slots * ang, np.round(slots * ang), atol=1e-9)
    assert np.all(np.abs(q.y) <= np.abs(x) + 1e-15)


def _zeros(values):
    """The signs (of the real part, of the imaginary part) of each zero
    among `values`: -0.0 == 0.0, so the zeros themselves would compare
    equal."""
    return [(math.copysign(1.0, complex(v).real),
             math.copysign(1.0, complex(v).imag)) for v in values if v == 0]


def _assert_one_zero(q):
    """No zero of y, in either part, has its sign bit set, so the report
    lists one zero, y's first, and is np.unique(y) bit for bit."""
    assert np.any(q.y == 0.0)
    for part in (q.y.real, q.y.imag):
        assert not np.signbit(part[part == 0.0]).any()
    assert _zeros(q.distinct_values) == _zeros(q.y.tolist())[:1]
    assert repr(q.distinct_values) == repr(tuple(np.unique(q.y).tolist()))


@pytest.mark.parametrize("first_negative", [True, False])
def test_signed_report_keeps_the_first_zero(first_negative):
    """Halving magnitudes outrun the value budget, so the tail quantizes
    to zero, under negative entries as well as positive ones; none of
    those zeros is -0.0."""
    n = 40
    signs = np.where(np.arange(n) % 2 == (0 if first_negative else 1),
                     -1.0, 1.0)
    x = unit(signs * 0.5 ** np.arange(n))
    q = quantize(x, 2.0, 0.9)
    assert np.any((q.y == 0.0) & (x < 0.0)) and np.any((q.y == 0.0) & (x > 0.0))
    _assert_one_zero(q)


@pytest.mark.parametrize("seed", range(6))
def test_complex_report_keeps_the_first_zero(seed):
    """Zero moduli times the phase grid give complex zeros whose parts
    would carry either sign; none of them does."""
    n = 40
    phases = np.exp(2j * np.pi * np.random.default_rng(seed).random(n))
    q = quantize(unit(0.5 ** np.arange(n) * phases), 2.0, 0.9)
    _assert_one_zero(q)
    keys = [(v.real, v.imag) for v in q.distinct_values]
    assert keys == sorted(keys)


def test_quantize_rejects_bad_input():
    # a nan norm fails the unit-norm check too
    for x in ([1.0, 1.0], [np.nan], [0.6, np.nan, 0.8]):
        with pytest.raises(NotNormalizedError):
            quantize(np.array(x), p=2.0, epsilon=0.5)
    with pytest.raises(BadEpsilonError):
        quantize(np.array([1.0]), p=2.0, epsilon=0.0)
    with pytest.raises(BadEpsilonError):
        quantize(np.array([1.0]), p=2.0, epsilon=1.0)
    with pytest.raises(ValueError):
        quantize(np.array([1.0]), p=0.5, epsilon=0.5)
    with pytest.raises(ValueError):
        quantize(np.array([]), p=2.0, epsilon=0.5)


def test_level_partition():
    y = np.array([0.5, 0.0, 0.5, -0.5, 0.0])
    part = level_partition(y)
    assert part.classes == ((4,), (2, 5), (1, 3))
    assert part.class_count == 3
    single = level_partition(np.zeros(4))
    assert single.classes == ((1, 2, 3, 4),)


def test_partition_validation():
    with pytest.raises(ImproperPartitionError):
        Partition(classes=((1, 2), (2, 3)), n=3)
    with pytest.raises(ImproperPartitionError):
        Partition(classes=((1,),), n=2)
    with pytest.raises(ImproperPartitionError):
        Partition(classes=((1,), ()), n=1)
    with pytest.raises(ImproperPartitionError):
        Partition(classes=((1, 4),), n=2)
    # labels follow the vertex-label rule: integers, integral floats too
    for classes in (((1.7, 2.2),), ((1, 2.5),), (("1", "2"),), ((0, 1),)):
        with pytest.raises(ImproperPartitionError):
            Partition(classes=classes, n=2)
    assert Partition(classes=((2.0,), (1,)), n=2).classes == ((2,), (1,))


def test_quotient_compress_identities():
    rng = np.random.default_rng(83)
    m = rng.normal(size=(6, 6))
    B = SymmetricMatrix((m + m.T) / 2.0)
    singletons = Partition(classes=tuple((i,) for i in range(1, 7)), n=6)
    C = quotient_compress(B, singletons)
    assert np.array_equal(C.a, B.a)
    with pytest.raises(ImproperPartitionError):
        quotient_compress(B, Partition(classes=((1, 2),), n=2))


def test_quotient_compress_preserves_class_constant_form():
    rng = np.random.default_rng(89)
    m = rng.normal(size=(8, 8))
    B = SymmetricMatrix((m + m.T) / 2.0)
    x = unit(np.abs(rng.normal(size=8)))
    q = quantize(x, p=2.0, epsilon=1.0 / 3.0)
    part = level_partition(q.y)
    C = quotient_compress(B, part)
    v = np.array([q.y[cls[0] - 1] * math.sqrt(len(cls))
                  for cls in part.classes])
    lhs = float(q.y @ B.a @ q.y)
    rhs = float(v @ C.a @ v)
    assert abs(lhs - rhs) <= 1e-10
    # the compressed top singular value dominates the form
    assert abs(lhs) <= eig_symmetric(C).sigma1 * float(v @ v) + 1e-9


def test_certificate_links_random():
    rng = np.random.default_rng(97)
    for n in (2, 5, 9, 12):
        m = rng.normal(size=(n, n))
        A = SymmetricMatrix((m + m.T) / 2.0)
        cert = certify_sigma2(A)
        for link in cert.links:
            assert link.lhs <= link.rhs + 1e-8, link.name
        assert cert.disc_is_exact
        assert cert.m_realized <= cert.m_ceiling
        assert cert.m_ceiling == certificate_m_ceiling(n)
        assert cert.sigma2 <= cert.closed_form_bound + 1e-8
        assert cert.headline_holds == (
            cert.sigma2 <= cert.headline_bound + 1e-8)


def test_certificate_closed_form_numbers():
    # 4.5 P (4/eps) and 4.5 P ((4/eps) ln(4/eps) + 1) at eps = 1/3, P = 76
    assert closed_form_bound(12, 2.0) == pytest.approx(
        (4104.0 * math.log(12) + 10540.056890729955) * 2.0, rel=1e-15)
    cert = certify_sigma2(SymmetricMatrix(np.eye(3)))
    assert cert.headline_bound == pytest.approx(
        19310.08780694365 * cert.disc.value * math.log(3), rel=1e-15)


def test_closed_form_covers_the_class_budget():
    """4.5 certificate_m_ceiling(n), the chain's budget, stays within the
    closed form's slope ln n + offset at every order the package accepts."""
    n = np.arange(2, MAX_VERTICES + 1)
    budget = 4.5 * np.array([certificate_m_ceiling(int(k)) for k in n])
    closed = CLOSED_FORM_SLOPE * np.log(n) + CLOSED_FORM_OFFSET
    assert np.all(budget <= closed)
    # the headline form meets the closed form at n = 2, up to rounding
    assert np.all(closed <= HEADLINE_CONSTANT * np.log(n) + 1e-9)


def test_certificate_heuristic_and_supplied_disc():
    rng = np.random.default_rng(101)
    m = rng.normal(size=(10, 10))
    A = SymmetricMatrix((m + m.T) / 2.0)
    heur = certify_sigma2(A, disc=disc_heuristic(A, seed=4))
    assert not heur.disc_is_exact
    for link in heur.links:
        assert link.lhs <= link.rhs + 1e-8, link.name
    pre = disc_exact(A)
    supplied = certify_sigma2(A, disc=pre)
    assert supplied.disc.value == pre.value
    assert supplied.disc_is_exact


CERT_STAGES = {"eig_A", "eig_B", "quantize", "compress", "eig_C", "pool"}


def test_certificate_stage_seconds_leave_results_alone():
    rng = np.random.default_rng(103)
    m = rng.normal(size=(9, 9))
    A = SymmetricMatrix((m + m.T) / 2.0)
    plain = json.dumps(certify_sigma2(A).to_json_dict(), sort_keys=True)
    for disc, stages in ((None, CERT_STAGES | {"disc"}),
                         (disc_heuristic(A, seed=2), CERT_STAGES)):
        timing = {}
        cert = certify_sigma2(A, disc, timing=timing)
        assert set(timing) == stages
        assert all(seconds >= 0.0 for seconds in timing.values())
        if disc is None:
            assert json.dumps(cert.to_json_dict(), sort_keys=True) == plain
        else:
            assert cert.to_json_dict() == certify_sigma2(A, disc).to_json_dict()


def _weak_disc():
    return DiscResult(value=0.0, witness_X=(1,), witness_Y=(1,),
                      mode="heuristic", evaluations=1)


def test_pool_replaces_weak_disc():
    # A supplied disc of 0 is beaten by the class-pair pool, whose value
    # must be the largest class-pair expression of B = A - rho, summed
    # here entry by entry.
    for seed in (1, 2, 3, 4, 5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        m = rng.normal(size=(n, n))
        A = SymmetricMatrix((m + m.T) / 2.0)
        cert = certify_sigma2(A, disc=_weak_disc())
        B = A.a - rho_prime(A)
        classes = cert.partition.classes
        pairs = {(X, Y): abs(math.fsum(B[i - 1, j - 1] for i in X for j in Y))
                 / math.sqrt(len(X) * len(Y))
                 for X in classes for Y in classes}
        best = max(pairs.values())
        got = cert.disc
        assert got.value == pytest.approx(best, rel=1e-12)
        assert pairs[(got.witness_X, got.witness_Y)] == pytest.approx(
            best, rel=1e-12)
        assert got.mode == "heuristic"
        assert got.evaluations == 1 + cert.m_realized ** 2
        for link in cert.links:
            assert link.lhs <= link.rhs + 1e-8, link.name


def test_pool_tie_takes_first_class_pair():
    # Integer entries: the class pairs (5, 6) x (5, 6) and (1,) x (1,)
    # both have value 7, but |C| reads 6.999999999999998 for the first,
    # so a plain argmax of |C| would pick the second. The tie rule
    # reports the first in row-major order.
    rng = np.random.default_rng(149)
    rng.integers(2, 15)
    m = rng.integers(-3, 4, (6, 6))
    A = SymmetricMatrix((m + m.T).astype(float))
    cert = certify_sigma2(A, disc=_weak_disc())
    assert cert.partition.classes == ((2,), (5, 6), (4,), (3,), (1,))
    assert cert.disc.to_json_dict() == {
        "value": 7.0, "witness_X": [5, 6], "witness_Y": [5, 6],
        "mode": "heuristic", "evaluations": 26}


def test_heuristic_certificate_pinned():
    # A seeded heuristic certificate, every field pinned: the climb,
    # the class-pair pool and the chain's arithmetic decide it.
    rng = np.random.default_rng(101)
    m = rng.normal(size=(10, 10))
    A = SymmetricMatrix((m + m.T) / 2.0)
    pinned = Path(__file__).parent / "data" / "heuristic_certificate_n10.json"
    got = certify_sigma2(A, disc=disc_heuristic(A, seed=4)).to_json_dict()
    assert json.loads(json.dumps(got)) == json.loads(pinned.read_text())


def test_certificate_rejects_bad_matrices():
    h = SymmetricMatrix(np.array([[1.0, 1j], [-1j, 0.0]]))
    with pytest.raises(ValueError):
        certify_sigma2(h)
    with pytest.raises(ValueError):
        certify_sigma2(SymmetricMatrix(np.zeros((1, 1))))

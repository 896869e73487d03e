"""Property tests: the quantizer's bucket walk over precomputed stops agrees
bit for bit with one searchsorted per bucket, on vectors with ties,
zeros, all-equal entries and truncation at the value budget; and quantize
agrees bit for bit with its numpy call path before the per-call costs
were cut, on -0.0 entries, signs, phases and forced repairs."""

import json

from unittest import mock

import numpy as np
import pytest

from conftest import reference_quantize, reference_quantize_nonneg

from matdisc import quantization, quantize
from matdisc.errors import InvariantError

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

#: few distinct magnitudes, so drawn vectors repeat entries and hold zeros;
#: the powers of 1/2 decay fast enough to run past any small budget
POOL = (0.0, 1e-300, 1e-12, 0.125, 0.25, 0.3, 0.5, 0.9, 1.0, 2.0, 1e6)


@st.composite
def nonneg_vectors(draw, max_n=40):
    """A nonnegative vector that is all-equal, drawn from POOL, decaying
    geometrically, or uniform in [0, 10]."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(("equal", "pool", "decay", "uniform")))
    if kind == "equal":
        v = np.full(n, draw(st.sampled_from(POOL[1:])))
    elif kind == "pool":
        v = np.array(draw(st.lists(st.sampled_from(POOL), min_size=n,
                                   max_size=n)))
    elif kind == "decay":
        ratio = draw(st.sampled_from((0.5, 0.9, 0.99)))
        v = ratio ** np.arange(n, dtype=float)
        v = v[draw(st.permutations(range(n)))]
    else:
        v = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=n,
                                   max_size=n)))
    return v


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvariantError:
        return "InvariantError"


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(nonneg_vectors(), st.sampled_from((0.05, 1.0 / 3.0, 0.9)),
                  st.integers(1, 12), st.sampled_from((1.0, 2.0, 3.0)))
def test_bucket_walk_matches_per_bucket_search(v, eps, cap, p):
    got = _outcome(quantization._quantize_nonneg, v, eps, cap, p)
    want = _outcome(reference_quantize_nonneg, v, eps, cap, p)
    if isinstance(want, str):
        assert got == want
        return
    assert got[1] == want[1]
    assert got[0].tobytes() == want[0].tobytes()


def _fields(q):
    return (q.y.tobytes(), repr(q.distinct_values), q.repairs, repr(q.error),
            q.case, q.value_ceiling)


@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(nonneg_vectors(), st.sampled_from((0.05, 1.0 / 3.0, 0.9)),
                  st.sampled_from((1.0, 2.0, 3.0)), st.sampled_from(
                      ("nonnegative", "signed", "complex")))
def test_quantize_matches_reference_quantizer(v, eps, p, case):
    hypothesis.assume(np.any(v > 0.0))
    if case == "signed":
        v = np.where(np.arange(v.size) % 2 == 1, -v, v)
    elif case == "complex":
        v = v * np.exp(1j * np.arange(v.size))
    norm = np.sum(np.abs(v) ** p) ** (1.0 / p)
    hypothesis.assume(norm > 0.0)  # 1e-300 entries underflow to 0
    x = v / norm
    hypothesis.assume(abs(np.sum(np.abs(x) ** p) ** (1.0 / p) - 1.0) <= 1e-12)
    got = _outcome(quantize, x, p, eps)
    with mock.patch.object(quantization, "_quantize_nonneg",
                           reference_quantize_nonneg):
        want = _outcome(quantize, x, p, eps)
    if isinstance(want, str):
        assert got == want
        return
    assert _fields(got) == _fields(want)


def _report(q):
    if isinstance(q, str):
        return q
    return (_fields(q), q.y.dtype.str, q.y.flags.writeable,
            json.dumps(q.to_json_dict(), sort_keys=True))


@st.composite
def unit_vectors(draw):
    """(x, p): a unit vector in p-norm built from nonneg_vectors, kept
    nonnegative with some zeros made -0.0, given random signs (zeros
    turn into -0.0 too), or given random phases."""
    v = draw(nonneg_vectors())
    hypothesis.assume(np.any(v > 0.0))
    flips = np.array(draw(st.lists(st.booleans(), min_size=v.size,
                                   max_size=v.size)))
    case = draw(st.sampled_from(("nonnegative", "signed", "complex")))
    if case == "nonnegative":
        v = np.where(flips & (v == 0.0), -0.0, v)
    elif case == "signed":
        v = np.where(flips, -v, v)
    else:
        phases = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.5, 3.0, 5.0)),
                               min_size=v.size, max_size=v.size))
        v = v * np.exp(1j * np.array(phases))
    p = draw(st.sampled_from((1.0, 2.0, 3.0)))
    norm = np.sum(np.abs(v) ** p) ** (1.0 / p)
    hypothesis.assume(norm > 0.0)  # 1e-300 entries underflow to 0
    return v / norm, p


#: 0.5^(1..35) in 1-norm with entry 22 negated: at eps = 0.9 its y is
#: zero from index 22 on, where the sign of x would make the first zero -0.0
SIGNED_TAIL = 0.5 ** np.arange(1.0, 36.0) * np.where(np.arange(35) == 22, -1.0, 1.0)
SIGNED_TAIL /= np.abs(SIGNED_TAIL).sum()


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(case=unit_vectors(),
                  eps=st.sampled_from((0.05, 1.0 / 3.0, 0.5, 0.9)))
@hypothesis.example(case=(SIGNED_TAIL, 1.0), eps=0.9)
def test_quantize_matches_reference_call_path(case, eps):
    x, p = case
    assert _report(_outcome(quantize, x, p, eps)) == _report(
        _outcome(reference_quantize, x, p, eps))


@pytest.mark.parametrize("case", ["nonnegative", "signed", "complex"])
def test_quantize_forced_repairs_match_reference(case):
    """Entries halving at every step each open a bucket, so the budget
    truncates and a repair runs; -0.0 and 0.0 entries ride along."""
    v = 0.5 ** np.arange(40.0)
    v[[7, 21]] = 0.0
    v[30] = -0.0
    if case == "signed":
        v = v * np.where(np.arange(40) % 3 == 0, -1.0, 1.0)
    elif case == "complex":
        v = v * np.exp(1j * np.arange(40))
    for p in (1.0, 2.0, 3.0):
        x = v / np.sum(np.abs(v) ** p) ** (1.0 / p)
        for eps in (0.7, 0.9):
            got = quantize(x, p, eps)
            assert got.repairs == 1
            assert _report(got) == _report(reference_quantize(x, p, eps))
    # list and float32 input convert as before
    x = v.real / np.sum(np.abs(v.real) ** 2.0) ** 0.5
    assert _report(quantize(x.tolist(), 2.0, 0.9)) == _report(
        reference_quantize(x.tolist(), 2.0, 0.9))
    x32 = np.float32([0.5, -0.0, 0.5, 0.5, 0.5])  # unit in either width
    assert _report(quantize(x32, 2.0, 0.9)) == _report(
        reference_quantize(x32, 2.0, 0.9))

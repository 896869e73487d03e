import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import jacobi_eigenvalues

from matdisc import (
    NoConvergenceError,
    NonSymmetricError,
    NotBinaryError,
    FormatError,
    SymmetricMatrix,
    ZeroVectorError,
    all_ones,
    complement,
    eig_symmetric,
    rayleigh_quotient,
    read_graph,
    read_matrix,
    rho_prime,
    singular_values,
    write_matrix,
)
from matdisc.linalg import _top_eigenpair


def test_rejects_asymmetric():
    with pytest.raises(NonSymmetricError):
        SymmetricMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_rejects_non_square():
    with pytest.raises(NonSymmetricError):
        SymmetricMatrix(np.ones((2, 3)))


def test_array_is_read_only():
    m = SymmetricMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.a[0, 0] = 5.0


#: the two eigensolves: _top_eigenpair (eigh, its values and top vector
#: checked) and eig_symmetric (eigvalsh, its values checked)
ROUTES = pytest.mark.parametrize(
    "solve", [lambda m: _top_eigenpair(m)[0], eig_symmetric],
    ids=["vectors", "values"])


@ROUTES
def test_hermitian_accepted(solve):
    a = np.array([[1.0, 1j], [-1j, 2.0]])
    m = SymmetricMatrix(a)
    assert m.is_complex
    spec = solve(m)
    # eigenvalues of [[1, i], [-i, 2]] are (3 +- sqrt(5)) / 2
    expected = np.array([(3 + np.sqrt(5)) / 2, (3 - np.sqrt(5)) / 2])
    assert np.allclose(spec.eigenvalues, expected, atol=1e-12)


@ROUTES
def test_eigh_against_jacobi_oracle(solve):
    """Both LAPACK routes must agree with an independent Jacobi iteration."""
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n))
        sym = SymmetricMatrix((m + m.T) / 2.0)
        ours = solve(sym).eigenvalues
        oracle = jacobi_eigenvalues(sym.a)
        assert np.abs(ours - oracle).max() < 1e-9, f"trial {trial}"


def _mutate(w: np.ndarray, mutation: str) -> np.ndarray:
    """Ascending eigenvalues w with one defect each identity must catch."""
    w = w.copy()
    step = 1e-6 * float(np.abs(w).max())
    if mutation == "perturbed":  # the sums
        w[len(w) // 2] += step
    elif mutation == "dropped":  # the count and the sums
        w = np.delete(w, np.argmax(np.abs(w)))
    elif mutation == "balanced":  # the sum of squares alone
        w[0] -= step
        w[-1] += step
    else:  # "zero-added": the count alone
        w = np.append(w, 0.0)
    return w


@pytest.mark.parametrize("kind", ["real", "hermitian"])
@pytest.mark.parametrize("mutation",
                         ["perturbed", "dropped", "balanced", "zero-added"])
def test_values_only_check_catches_a_wrong_eigenvalue(monkeypatch, kind,
                                                      mutation):
    """eigvalsh patched to return one eigenvalue moved by 1e-6 * sigma1,
    the largest in modulus dropped, two moved apart with the sum kept, or
    an extra 0: the identity check rejects each."""
    rng = np.random.default_rng(17)
    m = rng.normal(size=(40, 40))
    if kind == "hermitian":
        m = m + 1j * rng.normal(size=(40, 40))
    mat = SymmetricMatrix((m + m.conj().T) / 2.0)
    eig_symmetric(mat)  # the unpatched solver passes
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: _mutate(eigvalsh(a), mutation))
    with pytest.raises(NoConvergenceError):
        eig_symmetric(mat)


@pytest.mark.parametrize("kind", ["real", "hermitian"])
@pytest.mark.parametrize("defect", ["perturbed", "dropped", "balanced",
                                    "zero-added", "column"])
def test_top_eigenpair_check_catches_a_wrong_pair(monkeypatch, kind, defect):
    """eigh patched to return its eigenvalues with one of _mutate's
    defects, or the top eigenvalue's column swapped for the next one's:
    _top_eigenpair rejects each."""
    rng = np.random.default_rng(19)
    m = rng.normal(size=(40, 40))
    if kind == "hermitian":
        m = m + 1j * rng.normal(size=(40, 40))
    mat = SymmetricMatrix((m + m.conj().T) / 2.0)
    _top_eigenpair(mat)  # the unpatched solver passes
    eigh = np.linalg.eigh

    def patched(a):
        w, v = eigh(a)
        if defect != "column":
            return _mutate(w, defect), v
        top = -1 if abs(w[-1]) >= abs(w[0]) else 0
        v = v.copy()
        v[:, top] = v[:, top - 1 if top else 1]
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", patched)
    with pytest.raises(NoConvergenceError):
        _top_eigenpair(mat)


def test_values_only_identities_edge_cases(monkeypatch):
    """An all-zero matrix passes with tolerance 0; NaN and inf fail."""
    zero = eig_symmetric(SymmetricMatrix(np.zeros((3, 3))))
    assert zero.eigenvalues.tolist() == [0.0, 0.0, 0.0]
    mat = SymmetricMatrix(np.diag([2.0, -1.0]))
    for bad in (np.nan, np.inf):
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, bad=bad: np.array([-1.0, bad]))
        with pytest.raises(NoConvergenceError):
            eig_symmetric(mat)


def test_values_only_memory():
    """eig_symmetric allocates no n x n array: tracemalloc sees under
    n^2 * 8 bytes at n = 800.  _top_eigenpair holds eigh's n x n
    eigenvectors and no other n x n array: under 1.5 n^2 * 8 bytes, where
    also checking every column's residual took about three times n^2 * 8."""
    n = 800
    m = np.random.default_rng(8).normal(size=(n, n))
    mat = SymmetricMatrix(m + m.T)
    del m
    peaks = {}
    for solve in (eig_symmetric, _top_eigenpair):
        tracemalloc.start()
        try:
            solve(mat)
            _, peaks[solve] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[eig_symmetric] < n * n * 8
    assert peaks[_top_eigenpair] < 1.5 * n * n * 8


def test_spectrum_fields_and_residual():
    spec = eig_symmetric(all_ones(3))
    assert [f.name for f in dataclasses.fields(spec)] == ["eigenvalues",
                                                          "singular_values"]
    assert np.allclose(spec.eigenvalues, [3.0, 0.0, 0.0], atol=1e-12)
    assert spec.sigma1 == pytest.approx(3.0)
    assert spec.sigma2 == pytest.approx(0.0, abs=1e-12)
    # the top vector is the unit all-ones direction, up to sign
    top, x = _top_eigenpair(all_ones(3))
    assert np.allclose(top.eigenvalues, spec.eigenvalues, atol=1e-12)
    assert np.linalg.norm(all_ones(3).a @ x - 3.0 * x) <= 1e-9 * top.sigma1
    assert np.allclose(np.abs(x), 1.0 / np.sqrt(3.0))
    # the smallest eigenvalue's column when it is larger in modulus, the
    # largest's on a tie
    for diag, expected in (([1.0, -3.0, 2.0], [0.0, 1.0, 0.0]),
                           ([-2.0, 0.0, 2.0], [0.0, 0.0, 1.0])):
        _, x = _top_eigenpair(SymmetricMatrix(np.diag(diag)))
        assert np.abs(x).tolist() == expected
    # sigma1 = 0 with a zero residual passes
    zero, x = _top_eigenpair(SymmetricMatrix(np.zeros((3, 3))))
    assert zero.sigma1 == 0.0 and np.linalg.norm(x) == pytest.approx(1.0)


def test_singular_values_sorted_desc():
    m = SymmetricMatrix(np.diag([1.0, -3.0, 2.0]))
    assert singular_values(m).tolist() == [3.0, 2.0, 1.0]


def test_rho_prime_integer_exact():
    # 2^40 entries would lose precision in naive float summation order;
    # the integer path must stay exact
    big = 2 ** 30
    a = np.full((3, 3), float(big))
    a[0, 0] = 1.0
    assert rho_prime(SymmetricMatrix(a)) == (8 * big + 1) / 9.0
    assert rho_prime(SymmetricMatrix(np.eye(2))) == 0.5


def test_rayleigh_quotient():
    m = SymmetricMatrix(np.diag([2.0, 1.0]))
    assert rayleigh_quotient(m, np.array([1.0, 0.0])) == pytest.approx(2.0)
    assert rayleigh_quotient(m, np.array([1.0, 1.0])) == pytest.approx(1.5)
    with pytest.raises(ZeroVectorError):
        rayleigh_quotient(m, np.zeros(2))


def test_complement_is_all_ones_minus():
    c = complement(all_ones(3))
    assert np.array_equal(c.a, np.zeros((3, 3)))
    back = complement(c)
    assert np.array_equal(back.a, np.ones((3, 3)))
    with pytest.raises(NotBinaryError):
        complement(SymmetricMatrix(np.full((2, 2), 0.5)))


def test_complement_mean_entry_relation():
    from matdisc import qpt_graph

    a = qpt_graph(13, 3).adjacency
    assert rho_prime(complement(a)) == pytest.approx(1.0 - rho_prime(a),
                                                     abs=1e-15)


def test_weyl_step_second_singular_value():
    """sigma2(A) <= sigma1(A - mean * all-ones) on random matrices."""
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(2, 13))
        m = rng.normal(size=(n, n))
        mat = SymmetricMatrix((m + m.T) / 2.0)
        centered = SymmetricMatrix(mat.a - rho_prime(mat))
        s2 = eig_symmetric(mat).sigma2
        s1b = eig_symmetric(centered).sigma1
        assert s2 <= s1b + 1e-8, f"trial {trial}: {s2} > {s1b}"


def test_rayleigh_within_spectrum_and_trace():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        m = rng.normal(size=(n, n))
        mat = SymmetricMatrix((m + m.T) / 2.0)
        spec = eig_symmetric(mat)
        x = rng.normal(size=n)
        r = rayleigh_quotient(mat, x)
        assert spec.eigenvalues[-1] - 1e-12 <= r <= spec.eigenvalues[0] + 1e-12
        assert abs(np.trace(mat.a) - spec.eigenvalues.sum()) \
            <= 1e-9 * n * max(spec.sigma1, 1.0)


def test_write_read_round_trip(tmp_path):
    m = np.random.default_rng(7).normal(size=(7, 7))
    a = (m + m.T) / 2.0
    a[0, 0], a[1, 1] = -0.0, 5e-324
    a[0, 1] = a[1, 0] = 1e100
    a[2, 3] = a[3, 2] = -1e100
    path = tmp_path / "m.mat"
    write_matrix(SymmetricMatrix(a), str(path))
    back = read_matrix(str(path)).a
    assert np.array_equal(back, a)
    assert np.array_equal(np.signbit(back), np.signbit(a))


def test_read_matrix_memory(tmp_path):
    """The body is parsed straight into a float array: at order 600 the
    peak stays a few times the 2.9 MB matrix (a list of floats took about
    15 times)."""
    n = 600
    m = np.random.default_rng(5).normal(size=(n, n))
    path = tmp_path / "m.mat"
    write_matrix(SymmetricMatrix(m + m.T), path)
    tracemalloc.start()
    try:
        read_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * n * n * 8


@pytest.mark.parametrize("asymmetry", [0.0, 1e-12])
def test_read_matrix_peaks_at_two_arrays(tmp_path, asymmetry):
    """At order 600 the reader holds the parsed array and one n x n
    temporary at a time (the symmetry defect, or the halved copy that
    averages a slightly asymmetric file), and hands its own array to
    SymmetricMatrix without a copy: 2.0 arrays measured, 4.0 when the
    entry check, the defect and the constructor each made their own."""
    n = 600
    m = np.random.default_rng(5).normal(size=(n, n))
    a = m + m.T
    a[0, 1] += asymmetry
    path = tmp_path / "m.mat"
    with open(path, "w") as fh:
        fh.write(f"sym {n}\n")
        for row in a:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
    tracemalloc.start()
    try:
        got = read_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * n * n * 8
    assert np.array_equal(got.a, got.a.T) and not got.a.flags.writeable
    assert got.a.tobytes() == (a / 2 + a.T / 2 if asymmetry else a).tobytes()


def test_read_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.mat"
    p.write_text("sym 2\n1 2\n3 4\n")
    with pytest.raises(FormatError):
        read_matrix(str(p))
    p.write_text("nonsense\n")
    with pytest.raises(FormatError):
        read_matrix(str(p))
    p.write_text("sym 2\n1 2\n")
    with pytest.raises(FormatError):
        read_matrix(str(p))
    p.write_text("sym 2\n1 2 3\n2 1 1\n")
    with pytest.raises(FormatError):
        read_matrix(str(p))


#: files with a byte that is not UTF-8: in the body, in the header, and in
#: the body past the first chunk the header read decodes
_NOT_UTF8 = {
    "body": b"sym 2\n1 0\n0 \xff1\n",
    "header": b"sym \xff2\n1 0\n0 1\n",
    "late body": b"sym 100\n" + b"0 " * 9999 + b"\xff\n",
}


@pytest.mark.parametrize("where", list(_NOT_UTF8))
@pytest.mark.parametrize("reader", [read_matrix, read_graph],
                         ids=["read_matrix", "read_graph"])
def test_read_rejects_bytes_that_are_not_utf8(tmp_path, where, reader):
    p = tmp_path / "bad.txt"
    data = _NOT_UTF8[where]
    if reader is read_graph:
        data = data.replace(b"sym 2", b"graph 2 1").replace(b"sym 100",
                                                            b"graph 100 5000")
    p.write_bytes(data)
    with pytest.raises(FormatError):
        reader(str(p))


def test_eig_rejects_garbage():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises((NoConvergenceError, NonSymmetricError)):
        eig_symmetric(SymmetricMatrix(bad))

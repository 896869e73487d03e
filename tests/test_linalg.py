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
    read_matrix,
    rho_prime,
    singular_values,
    write_matrix,
)


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


def test_hermitian_accepted():
    a = np.array([[1.0, 1j], [-1j, 2.0]])
    m = SymmetricMatrix(a)
    assert m.is_complex
    spec = eig_symmetric(m)
    # eigenvalues of [[1, i], [-i, 2]] are (3 +- sqrt(5)) / 2
    expected = np.array([(3 + np.sqrt(5)) / 2, (3 - np.sqrt(5)) / 2])
    assert np.allclose(spec.eigenvalues, expected, atol=1e-12)


def test_eigh_against_jacobi_oracle():
    """LAPACK route must agree with an independent Jacobi iteration."""
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n))
        sym = SymmetricMatrix((m + m.T) / 2.0)
        ours = eig_symmetric(sym).eigenvalues
        oracle = jacobi_eigenvalues(sym.a)
        assert np.abs(ours - oracle).max() < 1e-9, f"trial {trial}"


def test_spectrum_fields_and_residual():
    spec = eig_symmetric(all_ones(3))
    assert np.allclose(spec.eigenvalues, [3.0, 0.0, 0.0], atol=1e-12)
    assert spec.sigma1 == pytest.approx(3.0)
    assert spec.sigma2 == pytest.approx(0.0, abs=1e-12)
    assert spec.max_residual <= 1e-9 * max(spec.sigma1, 1e-300)
    # eigenvectors actually reproduce A v = w v
    a = all_ones(3).a
    for j in range(3):
        v = spec.eigenvectors[:, j]
        assert np.linalg.norm(a @ v - spec.eigenvalues[j] * v) < 1e-12


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


def test_eig_rejects_garbage():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises((NoConvergenceError, NonSymmetricError)):
        eig_symmetric(SymmetricMatrix(bad))

"""Dense symmetric / Hermitian matrix core.

Everything downstream (discrepancy search, certificates, constructions)
works with :class:`SymmetricMatrix`, a thin validated wrapper around a
read-only numpy array, plus the handful of spectral helpers below.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    FormatError,
    NoConvergenceError,
    NonSymmetricError,
    NotBinaryError,
    ZeroVectorError,
)

#: construction-time symmetry tolerance (relative to entry scale)
SYMMETRY_TOL = 1e-12
#: parser rejects files whose data is asymmetric beyond this
IO_SYMMETRY_TOL = 1e-9
#: read_matrix and the discrepancy searches reject entries larger than this in
#: magnitude: the searches square sums of up to n^2 entries, which must stay finite
MAX_ABS_ENTRY = 1e100
#: accepted decompositions must satisfy max ||A v - mu v|| <= this times sigma1
RESIDUAL_REL_TOL = 1e-9
#: largest order of a dense n x n input, matrix file or graph: a float64
#: matrix of this order takes 800 MB
MAX_VERTICES = 10_000


def _as_square_array(entries) -> np.ndarray:
    """A new float or complex array of the entries; it never aliases them."""
    a = np.asarray(entries)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricError(
            f"expected a square matrix, got shape {a.shape}"
        )
    if a.shape[0] < 1:
        raise ValueError("matrix must have at least one row")
    if np.iscomplexobj(a):
        return a.astype(np.complex128)
    return a.astype(np.float64)


def hermitian_defect(a: np.ndarray) -> float:
    """Largest |a_ij - conj(a_ji)| over all entries."""
    return float(np.max(np.abs(a - a.conj().T)))


def _entry_scale(a: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Square matrix validated to be symmetric (real) or Hermitian (complex).

    The stored array is a read-only copy; instances are safe to share
    across threads.
    """

    a: np.ndarray

    def __post_init__(self):
        a = _as_square_array(self.a)
        defect = hermitian_defect(a)
        # "not <=" instead of ">" so NaN entries are rejected too
        if not defect <= SYMMETRY_TOL * _entry_scale(a):
            raise NonSymmetricError(
                f"matrix is asymmetric: max defect {defect:.3e}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.a)

    def is_binary(self) -> bool:
        """True when every entry is exactly 0.0 or 1.0."""
        if self.is_complex:
            return False
        return bool(np.all((self.a == 0.0) | (self.a == 1.0)))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    eigenvalues      : real, non-increasing
    singular_values  : eigenvalue moduli, non-increasing
    eigenvectors     : orthonormal columns, eigenvectors[:, i] pairs with
                       eigenvalues[i]
    max_residual     : max over i of ||A v_i - mu_i v_i||_2
    """

    eigenvalues: np.ndarray
    singular_values: np.ndarray
    eigenvectors: np.ndarray
    max_residual: float

    @property
    def sigma1(self) -> float:
        return float(self.singular_values[0])

    @property
    def sigma2(self) -> float:
        """Second largest eigenvalue modulus; requires n >= 2."""
        return float(self.singular_values[1])


def eig_symmetric(A: SymmetricMatrix) -> Spectrum:
    """Eigendecomposition with a hard residual check.

    Raises NoConvergenceError if the solver fails or the residual exceeds
    RESIDUAL_REL_TOL times sigma1.
    """
    try:
        w, v = np.linalg.eigh(A.a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    w = np.ascontiguousarray(w[::-1])
    v = np.ascontiguousarray(v[:, ::-1])
    sing = np.ascontiguousarray(np.sort(np.abs(w))[::-1])
    res = A.a @ v - v * w[None, :]
    max_residual = float(np.sqrt((np.abs(res) ** 2).sum(axis=0)).max())
    sigma1 = float(sing[0])
    # written so that NaN anywhere fails the check rather than slipping
    # through a False comparison
    ok = (max_residual <= RESIDUAL_REL_TOL * sigma1
          or (sigma1 == 0.0 and max_residual == 0.0))
    if not ok:
        raise NoConvergenceError(
            f"residual {max_residual:.3e} exceeds {RESIDUAL_REL_TOL:.0e} * sigma1"
        )
    for arr in (w, sing, v):
        arr.setflags(write=False)
    return Spectrum(
        eigenvalues=w,
        singular_values=sing,
        eigenvectors=v,
        max_residual=max_residual,
    )


def singular_values(A: SymmetricMatrix) -> np.ndarray:
    """Eigenvalue moduli in non-increasing order."""
    return eig_symmetric(A).singular_values


def rho_prime(A: SymmetricMatrix) -> float:
    """Mean of all n^2 entries.

    Integer-valued matrices are summed in exact integer arithmetic before
    the final division, so 0/1 matrices get a bit-reproducible mean.
    """
    a = A.a
    n = A.n
    if not A.is_complex:
        if np.all(a == np.rint(a)) and float(np.max(np.abs(a), initial=0.0)) < 2.0**31:
            total = int(a.astype(np.int64).sum(dtype=np.int64))
            return total / (n * n)
        return float(a.sum()) / (n * n)
    return float(a.sum().real) / (n * n)


def rayleigh_quotient(A: SymmetricMatrix, x) -> float:
    """<Ax, x> / <x, x> for a nonzero vector x."""
    xv = np.asarray(x).reshape(-1)
    if xv.shape[0] != A.n:
        raise ValueError(f"vector length {xv.shape[0]} does not match n={A.n}")
    nrm2 = float(np.vdot(xv, xv).real)
    if nrm2 == 0.0:
        raise ZeroVectorError("Rayleigh quotient needs a nonzero vector")
    return float(np.vdot(xv, A.a @ xv).real) / nrm2


def all_ones(n: int) -> SymmetricMatrix:
    """The n x n matrix of ones."""
    if n < 1:
        raise ValueError("n must be positive")
    return SymmetricMatrix(np.ones((n, n)))


def complement(A: SymmetricMatrix) -> SymmetricMatrix:
    """Entrywise 1 - a_ij; requires a 0/1 matrix."""
    if not A.is_binary():
        raise NotBinaryError("complement requires entries to be exactly 0 or 1")
    return SymmetricMatrix(1.0 - A.a)


def write_matrix(A: SymmetricMatrix, path) -> None:
    """Write the text format: a 'sym <n>' header then n whitespace rows.

    17 significant digits, which round-trips float64 exactly.
    """
    if A.is_complex:
        raise ValueError("matrix file format stores real matrices only")
    with open(path, "w") as fh:
        fh.write(f"sym {A.n}\n")
        for row in A.a:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def _read_text(path, kind: str, fields: tuple, dtype) -> tuple:
    """(header integers, body array) of a text file in the layout shared
    by the 'sym <n>' and 'graph <n> <m>' formats.

    The header is `kind` then one integer per name in `fields`: the order
    n, checked to lie in 1..MAX_VERTICES before any of the body is read,
    then counts >= 0.  The body is parsed in one np.loadtxt call, as rows
    of whitespace-separated numbers with the same count on every nonblank
    line; a body with no numbers comes back empty.
    """
    usage = " ".join([kind] + [f"<{name}>" for name in fields])
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 1 + len(fields) or header[0] != kind:
            raise FormatError(f"{kind} file must start with '{usage}'")
        try:
            values = tuple(int(v) for v in header[1:])
        except ValueError as exc:
            raise FormatError(f"bad {kind} header {' '.join(header)!r}") from exc
        if not 1 <= values[0] <= MAX_VERTICES:
            raise FormatError(f"order {values[0]} outside 1..{MAX_VERTICES}")
        if min(values) < 0:
            raise FormatError(f"{kind} header out of range")
        try:
            with warnings.catch_warnings():
                # a body with no numbers is valid for 'graph n 0'
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # older numpy reads '1.5' as the integer 1 under a DeprecationWarning
                warnings.simplefilter("error", DeprecationWarning)
                body = np.loadtxt(fh, dtype=dtype, comments=None, ndmin=2)
        except (ValueError, DeprecationWarning) as exc:
            raise FormatError(f"bad {kind} file body: {exc}") from exc
    return values, body


def read_matrix(path) -> SymmetricMatrix:
    """Parse the 'sym' text format (see _read_text for the layout).

    Rejects non-finite entries, entries above MAX_ABS_ENTRY in magnitude
    and asymmetry beyond 1e-9 (relative to the entry scale); smaller
    asymmetry is averaged away.
    """
    (n,), a = _read_text(path, "sym", ("n",), np.float64)
    if a.size != n * n:
        raise FormatError(
            f"expected {n * n} entries for order {n}, found {a.size}")
    a = a.reshape(n, n)
    if not np.all(np.abs(a) <= MAX_ABS_ENTRY):
        raise FormatError(
            f"matrix entries must be finite, at most {MAX_ABS_ENTRY:g} in size")
    defect = hermitian_defect(a)
    if defect > IO_SYMMETRY_TOL * _entry_scale(a):
        raise FormatError(f"matrix data is asymmetric: max defect {defect:.3e}")
    if defect:
        # SymmetricMatrix allows far less asymmetry than a file may carry:
        # average the triangles, halving first so that no sum overflows
        a = a / 2 + a.T / 2
    return SymmetricMatrix(a)

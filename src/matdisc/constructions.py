"""Deterministic matrix and graph families used by the verification suite.

Three families live here:

* a 2k x 2k symmetric matrix built from a rank-one perturbation of the
  all-ones block pattern, whose second eigenvalue and discrepancy are
  both known in closed form,
* quadratic-residue threshold graphs Q(p, t) on a prime number of
  vertices, together with their degree catalog,
* a block matrix assembled from Q(p, t) adjacency blocks whose row sums
  are exactly k*p by complementation.

Everything in this module is exact in the combinatorial sense: integer
degrees, integer row sums, and witness sets are computed without any
floating-point search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discrepancy import DiscResult
from .errors import BadTError, EmptyCliqueError, InvariantError, NotPrimeError
from .graphs import Graph
from .linalg import SymmetricMatrix, _adopt, _require_order

__all__ = [
    "harmonic_number",
    "tightness_matrix",
    "tightness_proof_vector",
    "tightness_disc_structured",
    "is_prime",
    "DegreeCatalog",
    "degree_catalog",
    "qpt_graph",
    "BlockPlan",
    "block_plan",
    "block_matrix",
    "block_graph",
    "block_step_vector",
    "block_rayleigh_closed_form",
    "sparse_union",
]


def harmonic_number(k: int) -> float:
    """Sum of 1/i for i = 1..k, accumulated with fsum."""
    if k < 1:
        raise ValueError("harmonic_number needs k >= 1")
    return math.fsum(1.0 / i for i in range(1, k + 1))


# ---------------------------------------------------------------------------
# Tightness family
# ---------------------------------------------------------------------------


def _inverse_sqrt_weights(k: int) -> np.ndarray:
    return 1.0 / np.sqrt(np.arange(1, k + 1, dtype=float))


def tightness_matrix(k: int) -> SymmetricMatrix:
    """The 2k x 2k matrix [[E+P, E-P], [E-P, E+P]] with P[i,j] = 1/sqrt(i*j).

    E is the k x k all-ones matrix and P is the rank-one outer product of
    the weight vector (1/sqrt(1), ..., 1/sqrt(k)).  Its second largest
    eigenvalue equals twice the k-th harmonic number.
    """
    if k < 1:
        raise ValueError("tightness_matrix needs k >= 1")
    _require_order(2 * k)
    w = _inverse_sqrt_weights(k)
    perturb = np.outer(w, w)
    ones = np.ones((k, k))
    block = np.block([[ones + perturb, ones - perturb],
                      [ones - perturb, ones + perturb]])
    return SymmetricMatrix(block)


def tightness_proof_vector(k: int) -> np.ndarray:
    """Unnormalized vector (w, -w) whose Rayleigh quotient hits 2 * H_k."""
    w = _inverse_sqrt_weights(k)
    return np.concatenate([w, -w])


def tightness_disc_structured(k: int) -> DiscResult:
    """Discrepancy of the tightness matrix, from its closed form.

    The mean entry is exactly 1, so centering removes the all-ones part
    and leaves the rank-one block +-P.  For a rank-one sign pattern the
    optimum is attained on prefix sets inside a single half, which
    reduces the search to one integer parameter: the prefix length a.
    The value is max over a of (sum_{i<=a} 1/sqrt(i))^2 / a, and the
    witnesses are X = Y = {1..a}.  Runs in O(k) and stays below 4.
    """
    if k < 1:
        raise ValueError("tightness_disc_structured needs k >= 1")
    prefix = np.cumsum(_inverse_sqrt_weights(k))
    sizes = np.arange(1, k + 1, dtype=float)
    values = (prefix * prefix) / sizes
    best = int(np.argmax(values))  # first occurrence wins ties
    witness = tuple(range(1, best + 2))
    return DiscResult(
        value=float(values[best]),
        witness_X=witness,
        witness_Y=witness,
        mode="exact",
        evaluations=k,
    )


# ---------------------------------------------------------------------------
# Quadratic-residue threshold graphs
# ---------------------------------------------------------------------------


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrimeError(f"p = {p} is not prime")


@dataclass(frozen=True)
class DegreeCatalog:
    """Degrees of Q(p, t) for every threshold t in 1..p.

    degree_by_t[t - 1] is the degree of Q(p, t); achievable_degrees is
    the sorted set of values that occur; smallest_t_for_degree maps each
    achievable degree to the least threshold realizing it.
    """

    p: int
    degree_by_t: tuple[int, ...]
    achievable_degrees: tuple[int, ...]
    smallest_t_for_degree: dict[int, int] = field(repr=False)

    def degree(self, t: int) -> int:
        if not 1 <= t <= self.p:
            raise BadTError(f"t = {t} outside 1..{self.p}")
        return self.degree_by_t[t - 1]


def degree_catalog(p: int) -> DegreeCatalog:
    """Tabulate deg Q(p, t) = #{w in 1..p-1 : w^2 mod p <= t} for all t."""
    _require_prime(p)
    w = np.arange(1, p, dtype=np.int64)
    residues = np.sort((w * w) % p)
    degrees = np.searchsorted(residues, np.arange(1, p + 1), side="right")
    achievable, first_t = np.unique(degrees, return_index=True)
    return DegreeCatalog(
        p=p,
        degree_by_t=tuple(degrees.tolist()),
        achievable_degrees=tuple(achievable.tolist()),
        smallest_t_for_degree=dict(zip(achievable.tolist(), (first_t + 1).tolist())),
    )


def qpt_graph(p: int, t: int) -> Graph:
    """Graph on vertices 1..p with u ~ v iff (u - v)^2 mod p <= t.

    The rule is symmetric because w and p - w share a square mod p, and
    the graph is circulant, hence regular.  t = p gives the complete
    graph (every nonzero square is <= p).

    Built as the circulant of its residue row r (r[w] = w^2 mod p <= t,
    r[0] cleared): row u is r shifted right by u, that is
    (r r)[p - u : 2p - u] of the row written out twice, so the only
    p x p array is the boolean mask itself.
    """
    _require_order(p)  # first: a huge p would also stall the prime test
    _require_prime(p)
    if not 1 <= t <= p:
        raise BadTError(f"t = {t} outside 1..{p}")
    w = np.arange(p, dtype=np.int64)
    row = (w * w) % p <= t
    row[0] = False
    twice = np.concatenate((row, row))
    # window s is twice[s : s + p]; row u is window p - u
    adj = np.lib.stride_tricks.sliding_window_view(twice, p)[p:0:-1].copy()
    return Graph._from_mask(adj)


# ---------------------------------------------------------------------------
# Block construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockPlan:
    """Chosen degrees and thresholds for the 2kp x 2kp block matrix.

    degrees[i, j] is the achievable degree closest to
    p/2 + p/(2*sqrt((i+1)*(j+1))) (ties resolved downward), and
    thresholds[i, j] is the smallest t with deg Q(p, t) = degrees[i, j].
    target_gap_violations lists (i, j) pairs where |2d - (p + p/sqrt(ij))|
    exceeds 2*sqrt(p)*ln(p)^2; they are reported, not errors, since the
    guarantee is asymptotic and small primes may miss it.
    """

    p: int
    k: int
    degrees: np.ndarray
    thresholds: np.ndarray
    target_gap_violations: tuple[dict, ...]

    @property
    def n(self) -> int:
        """Side length of the assembled matrix."""
        return 2 * self.k * self.p

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "n": self.n,
            "degrees": self.degrees.tolist(),
            "thresholds": self.thresholds.tolist(),
            "target_gap_violations": list(self.target_gap_violations),
        }


def _fifth_root_ceiling(p: int) -> int:
    # Integer arithmetic only: float p**0.2 can land a hair above an
    # exact power and push the ceiling up by one.
    k = 1
    while k ** 5 < p:
        k += 1
    return k


def _sqrt_products(k: int) -> np.ndarray:
    """The (k, k) grid of sqrt(i * j) over block indices i, j in 1..k."""
    idx = np.arange(1, k + 1, dtype=float)
    return np.sqrt(np.outer(idx, idx))


def block_plan(p: int) -> BlockPlan:
    _require_order(2 * p)  # first: n >= 2p bounds the prime test and the grid
    catalog = degree_catalog(p)
    k = _fifth_root_ceiling(p)
    root = _sqrt_products(k)
    achievable = np.asarray(catalog.achievable_degrees, dtype=np.int64)
    target = p / 2.0 + p / (2.0 * root)
    # closest achievable degree; argmin keeps the first, so ties go down
    degrees = achievable[np.argmin(np.abs(achievable - target[..., None]), axis=-1)]
    # degree_by_t never decreases, so the first t of a degree is a search
    thresholds = np.searchsorted(catalog.degree_by_t, degrees) + 1
    gap = np.abs(2.0 * degrees - (p + p / root))
    allowance = 2.0 * math.sqrt(p) * math.log(p) ** 2
    violations = tuple(
        {"i": i + 1, "j": j + 1, "gap": float(gap[i, j]), "allowance": allowance}
        for i, j in np.argwhere(gap > allowance).tolist()
    )
    return BlockPlan(p=p, k=k, degrees=degrees, thresholds=thresholds,
                     target_gap_violations=violations)


def _block_mask(plan: BlockPlan) -> np.ndarray:
    """The boolean adjacency [[B, ~B], [~B, B]] of block_matrix, its
    symmetry, zero diagonal and row counts verified."""
    p, k = plan.p, plan.k
    _require_order(plan.n)
    inner = np.block([[qpt_graph(p, int(t))._mask for t in row]
                      for row in plan.thresholds])
    full = np.block([[inner, ~inner], [~inner, inner]])
    if not np.array_equal(full, full.T):
        raise InvariantError("block matrix is not symmetric")
    if np.diagonal(full).any():
        raise InvariantError("block matrix grew a nonzero diagonal entry")
    row_sums = np.count_nonzero(full, axis=1)
    if np.any(row_sums != k * p):
        raise InvariantError(
            f"block matrix row sums {set(row_sums.tolist())} != {k * p}"
        )
    return full


def block_matrix(plan: BlockPlan) -> SymmetricMatrix:
    """Assemble [[B, 1-B], [1-B, B]] where B is the k x k grid of Q blocks.

    Pairing every block with its complement makes each row sum exactly
    k*p: a row meets p columns per (block, complement) pair, of which
    the diagonal entry contributes 0 and its complement contributes 1.
    The symmetry, the zero diagonal and the row sums are verified on the
    boolean mask before its one float64 cast.
    """
    return _adopt(_block_mask(plan).astype(np.float64))


def block_graph(plan: BlockPlan) -> Graph:
    """The block matrix viewed as a k*p-regular graph on 2*k*p vertices."""
    return Graph._from_mask(_block_mask(plan))


def block_step_vector(plan: BlockPlan) -> np.ndarray:
    """Vector (u, -u) with u constant 1/sqrt(i) on the i-th block of p."""
    u = np.repeat(_inverse_sqrt_weights(plan.k), plan.p)
    return np.concatenate([u, -u])


def block_rayleigh_closed_form(plan: BlockPlan) -> float:
    """Rayleigh quotient of the step vector, reduced to the degree table.

    With y = (u, -u) the form collapses to <(2*inner - E) u, u> doubled,
    because the complementary half contributes the mirror image.  Block
    (i, j) then supplies p * (2 d_ij - p) / sqrt(ij), and the squared
    norm of y is 2 * p * H_k, so the quotient is
    sum_ij (2 d_ij - p) / sqrt(ij) divided by H_k.  Kept as one fsum for
    reproducibility.
    """
    terms = (2.0 * plan.degrees - plan.p) / _sqrt_products(plan.k)
    return math.fsum(terms.ravel().tolist()) / harmonic_number(plan.k)


# ---------------------------------------------------------------------------
# Sparse graph plus clique
# ---------------------------------------------------------------------------


def sparse_union(graph: Graph, density: float) -> Graph:
    """Disjoint union of `graph` with a clique on floor(density * n) vertices.

    Raises EmptyCliqueError when the clique would have no vertices.
    """
    if not 0.0 < density < 1.0:
        raise ValueError("density must lie strictly between 0 and 1")
    size = int(math.floor(density * graph.n))
    if size < 1:
        raise EmptyCliqueError(
            f"floor({density} * {graph.n}) = {size}, no clique to attach"
        )
    base = graph.n
    _require_order(base + size)
    mask = np.zeros((base + size, base + size), dtype=bool)
    mask[:base, :base] = graph._mask
    mask[base:, base:] = ~np.eye(size, dtype=bool)
    return Graph._from_mask(mask)

"""Discrepancy search for symmetric matrices and graphs.

disc(A) maximizes |sum of (a_ij - mean) over X x Y| / sqrt(|X| |Y|) over
all nonempty index sets. The exact engine enumerates X bitmasks in
batches; for a fixed X the optimal Y of each size is a prefix of the
sorted column-sum vector, so the inner maximization is O(n log n)
instead of exponential. Graph variants replace the mean with the graph
density; disc1 is the single-set (Thomason) form.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import TooLargeError
from .graphs import Graph
from .linalg import SymmetricMatrix, rho_prime

DEFAULT_EXACT_CAP = 24
DEFAULT_BATCH_BITS = 17
DEFAULT_ITERATIONS = 64


@dataclass(frozen=True, eq=False)
class DiscResult:
    """Discrepancy value with 1-based witness sets.

    In exact mode the value is the true maximum; in heuristic mode it is
    a lower bound attained at the reported witnesses. For the single-set
    disc1 search, witness_Y mirrors witness_X.
    """

    value: float
    witness_X: tuple
    witness_Y: tuple
    mode: str
    evaluations: int

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "witness_X": list(self.witness_X),
            "witness_Y": list(self.witness_Y),
            "mode": self.mode,
            "evaluations": self.evaluations,
        }


def _require_real(A: SymmetricMatrix) -> None:
    if A.is_complex:
        raise ValueError("discrepancy search supports real symmetric matrices only")


def _mask_to_set(mask: int) -> tuple:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _set_to_indices(S) -> np.ndarray:
    return np.array(sorted(int(v) - 1 for v in S), dtype=np.int64)


def evaluate_pair(M: np.ndarray, X, Y) -> float:
    """The defining expression |sum over X x Y of M| / sqrt(|X||Y|).

    M is already centered; X and Y are nonempty 1-based index sets.
    """
    xi = _set_to_indices(X)
    yi = _set_to_indices(Y)
    if xi.size == 0 or yi.size == 0:
        raise ValueError("witness sets must be nonempty")
    total = float(M[np.ix_(xi, yi)].sum())
    return abs(total) / math.sqrt(xi.size * yi.size)


def _inner_candidates(s: np.ndarray, xsize: int):
    """All 2n (value, ymask) candidates for a fixed X with column sums s.

    For each cardinality m the maximal |sum over Y| is attained by the
    top-m or bottom-m entries of s; stable index ordering makes the
    reported mask the smallest one among tied choices.
    """
    n = s.shape[0]
    asc = np.argsort(s, kind="stable")
    desc = np.argsort(-s, kind="stable")
    s_asc = s[asc]
    bottom = np.cumsum(s_asc)
    top = np.cumsum(s_asc[::-1])
    m = np.arange(1, n + 1)
    scale = 1.0 / np.sqrt(xsize * m.astype(np.float64))
    vb = np.abs(bottom) * scale
    vt = np.abs(top) * scale
    out = []
    for i in range(n):
        ymask_b = 0
        for j in asc[: i + 1]:
            ymask_b |= 1 << int(j)
        ymask_t = 0
        for j in desc[: i + 1]:
            ymask_t |= 1 << int(j)
        out.append((float(vb[i]), ymask_b))
        out.append((float(vt[i]), ymask_t))
    return out


def _best_y_for_x(M: np.ndarray, xmask: int) -> tuple:
    """(value, smallest ymask among maximizers) for a fixed X bitmask."""
    n = M.shape[0]
    ind = np.array([(xmask >> j) & 1 for j in range(n)], dtype=np.float64)
    s = ind @ M
    xsize = int(ind.sum())
    cands = _inner_candidates(s, xsize)
    best = max(v for v, _ in cands)
    ymask = min(mask for v, mask in cands if v == best)
    return best, ymask


def _batch_scan(M: np.ndarray, lo: int, hi: int) -> tuple:
    """Best (value, xmask) over X bitmasks in [lo, hi).

    Ties resolve to the smallest xmask because masks ascend and the
    argmax picks the first occurrence.
    """
    n = M.shape[0]
    masks = np.arange(lo, hi, dtype=np.int64)
    ind = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    xsize = ind.sum(axis=1)
    S = ind @ M
    S.sort(axis=1)
    bottom = np.cumsum(S, axis=1)
    top = np.cumsum(S[:, ::-1], axis=1)
    m = np.arange(1, n + 1, dtype=np.float64)
    scale = 1.0 / np.sqrt(xsize[:, None] * m[None, :])
    vals = np.maximum(np.abs(bottom), np.abs(top)) * scale
    rowbest = vals.max(axis=1)
    at = int(np.argmax(rowbest))
    return float(rowbest[at]), int(masks[at])


def _search_exact(
    M: np.ndarray,
    cap: int,
    threads: int,
    batch_bits: int,
    mode_label: str,
) -> DiscResult:
    n = M.shape[0]
    if n > cap:
        raise TooLargeError(
            f"exact search needs n <= {cap}, got {n}; use the heuristic mode"
        )
    total = 1 << n
    step = 1 << batch_bits
    ranges = [(lo, min(lo + step, total)) for lo in range(1, total, step)]
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(lambda r: _batch_scan(M, *r), ranges))
    else:
        partials = [_batch_scan(M, *r) for r in ranges]
    best_val, best_mask = partials[0]
    for val, mask in partials[1:]:
        if val > best_val:
            best_val, best_mask = val, mask
    _, ymask = _best_y_for_x(M, best_mask)
    wx = _mask_to_set(best_mask)
    wy = _mask_to_set(ymask)
    return DiscResult(
        value=evaluate_pair(M, wx, wy),
        witness_X=wx,
        witness_Y=wy,
        mode=mode_label,
        evaluations=(total - 1) * 2 * n,
    )


def _search_heuristic(
    M: np.ndarray,
    iterations: int,
    seed: int,
    mode_label: str,
) -> DiscResult:
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    n = M.shape[0]
    rng = np.random.default_rng(seed)
    best_val = -1.0
    best_xmask = 0
    evaluations = 0

    def inner(ind: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 2 * n
        s = ind @ M
        xsize = ind.sum()
        s_sorted = np.sort(s)
        bottom = np.cumsum(s_sorted)
        top = np.cumsum(s_sorted[::-1])
        m = np.arange(1, n + 1, dtype=np.float64)
        scale = 1.0 / np.sqrt(xsize * m)
        return float(
            max(
                (np.abs(bottom) * scale).max(),
                (np.abs(top) * scale).max(),
            )
        )

    for _ in range(iterations):
        sel = rng.random(n) < 0.5
        if not sel.any():
            sel[int(rng.integers(n))] = True
        ind = sel.astype(np.float64)
        cur = inner(ind)
        improved = True
        while improved:
            improved = False
            for j in range(n):
                if ind[j] == 1.0 and ind.sum() == 1.0:
                    continue
                ind[j] = 1.0 - ind[j]
                val = inner(ind)
                if val > cur:
                    cur = val
                    improved = True
                    break
                ind[j] = 1.0 - ind[j]
        xmask = 0
        for j in range(n):
            if ind[j] == 1.0:
                xmask |= 1 << j
        if cur > best_val:
            best_val, best_xmask = cur, xmask
    _, ymask = _best_y_for_x(M, best_xmask)
    wx = _mask_to_set(best_xmask)
    wy = _mask_to_set(ymask)
    return DiscResult(
        value=evaluate_pair(M, wx, wy),
        witness_X=wx,
        witness_Y=wy,
        mode=mode_label,
        evaluations=evaluations,
    )


def centered_matrix(A: SymmetricMatrix) -> np.ndarray:
    """A minus its mean entry (the search matrix for disc)."""
    _require_real(A)
    return A.a - rho_prime(A)


def disc_exact(
    A: SymmetricMatrix,
    cap: int = DEFAULT_EXACT_CAP,
    threads: int = 1,
    batch_bits: int = DEFAULT_BATCH_BITS,
) -> DiscResult:
    """True maximum of the discrepancy expression, witnesses included."""
    return _search_exact(centered_matrix(A), cap, threads, batch_bits, "exact")


def disc_heuristic(
    A: SymmetricMatrix,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
) -> DiscResult:
    """Seeded restart/flip local search; value is a valid lower bound."""
    return _search_heuristic(centered_matrix(A), iterations, seed, "heuristic")


def disc_value_at(A: SymmetricMatrix, X, Y) -> float:
    """disc expression of A evaluated at concrete witness sets."""
    return evaluate_pair(centered_matrix(A), X, Y)


def _graph_centered(G: Graph) -> np.ndarray:
    return G.adjacency.a - G.density()


def disc2_graph(
    G: Graph,
    mode: str = "exact",
    cap: int = DEFAULT_EXACT_CAP,
    threads: int = 1,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
) -> DiscResult:
    """Two-set graph discrepancy: density in place of the entry mean."""
    M = _graph_centered(G)
    if mode == "exact":
        return _search_exact(M, cap, threads, DEFAULT_BATCH_BITS, "exact")
    if mode == "heuristic":
        return _search_heuristic(M, iterations, seed, "heuristic")
    raise ValueError(f"unknown mode {mode!r}")


def disc2_value_at(G: Graph, X, Y) -> float:
    return evaluate_pair(_graph_centered(G), X, Y)


def disc1_value_at(G: Graph, X) -> float:
    """Single-set expression |e(X) - rho binom(|X|,2)| / |X|."""
    xi = _set_to_indices(X)
    if xi.size == 0:
        raise ValueError("witness set must be nonempty")
    a = G.adjacency.a
    e_in = float(a[np.ix_(xi, xi)].sum()) / 2.0
    size = xi.size
    rho = G.density()
    return abs(e_in - rho * size * (size - 1) / 2.0) / size


def _disc1_values_for_masks(G: Graph, masks: np.ndarray) -> np.ndarray:
    n = G.n
    a = G.adjacency.a
    ind = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    size = ind.sum(axis=1)
    e_in = ((ind @ a) * ind).sum(axis=1) / 2.0
    rho = G.density()
    return np.abs(e_in - rho * size * (size - 1) / 2.0) / size


def disc1_graph(
    G: Graph,
    mode: str = "exact",
    cap: int = DEFAULT_EXACT_CAP,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
) -> DiscResult:
    """Thomason's single-set coefficient with witness X (Y mirrors X)."""
    n = G.n
    if mode == "exact":
        if n > cap:
            raise TooLargeError(
                f"exact search needs n <= {cap}, got {n}; use the heuristic mode"
            )
        total = 1 << n
        step = 1 << DEFAULT_BATCH_BITS
        best_val = -1.0
        best_mask = 1
        for lo in range(1, total, step):
            masks = np.arange(lo, min(lo + step, total), dtype=np.int64)
            vals = _disc1_values_for_masks(G, masks)
            at = int(np.argmax(vals))
            if float(vals[at]) > best_val:
                best_val = float(vals[at])
                best_mask = int(masks[at])
        wx = _mask_to_set(best_mask)
        return DiscResult(
            value=disc1_value_at(G, wx),
            witness_X=wx,
            witness_Y=wx,
            mode="exact",
            evaluations=total - 1,
        )
    if mode != "heuristic":
        raise ValueError(f"unknown mode {mode!r}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = np.random.default_rng(seed)
    best_val = -1.0
    best_mask = 1
    evaluations = 0
    for _ in range(iterations):
        sel = rng.random(n) < 0.5
        if not sel.any():
            sel[int(rng.integers(n))] = True
        cur = disc1_value_at(G, tuple(int(j) + 1 for j in np.nonzero(sel)[0]))
        evaluations += 1
        improved = True
        while improved:
            improved = False
            for j in range(n):
                if sel[j] and sel.sum() == 1:
                    continue
                sel[j] = not sel[j]
                val = disc1_value_at(
                    G, tuple(int(i) + 1 for i in np.nonzero(sel)[0])
                )
                evaluations += 1
                if val > cur:
                    cur = val
                    improved = True
                    break
                sel[j] = not sel[j]
        mask = 0
        for j in np.nonzero(sel)[0]:
            mask |= 1 << int(j)
        if cur > best_val:
            best_val, best_mask = cur, mask
    wx = _mask_to_set(best_mask)
    return DiscResult(
        value=disc1_value_at(G, wx),
        witness_X=wx,
        witness_Y=wx,
        mode="heuristic",
        evaluations=evaluations,
    )


def disc2_gap_bound(G: Graph) -> float:
    """Upper bound 2 e(G) / (n (n-1)) on |disc2(G) - disc(adjacency)|."""
    if G.n < 2:
        return 0.0
    return 2.0 * G.m / (G.n * (G.n - 1))

"""Discrepancy search for symmetric matrices and graphs.

disc(A) maximizes |sum of (a_ij - mean) over X x Y| / sqrt(|X| |Y|) over
all nonempty index sets. Graph variants replace the mean with the graph
density; disc1 is the single-set (Thomason) form.

The exact engine scans every X bitmask in batches of 2^b masks that
share their high bits (b = min(batch_bits, n)), in four steps.

1. Tables. Nothing of size 2^b x n is built. The column sums s_X of a
   subset X of the low b rows are T1[X mod 2^b1] + T2[X >> b1], where
   T1 and T2 hold the subset sums of the low b1 = ceil(b/2) rows and of
   the other b - b1 (the half-and-half split of Horowitz and Sahni, JACM
   1974). Each half is built by doubling, T[2^k:2^(k+1)] = T[:2^k] + M[k]
   (Knuth, TAOCP 4A 7.2.1.1). The squared norms ||s_X||^2 and the sizes
   |X| are tabled for every X in one dimension: ||s_X||^2 = 1_X^T G 1_X
   is the subset form of the Gram matrix G of the low rows, which
   _subset_forms doubles as 1_(X + k)^T Q 1_(X + k) = 1_X^T Q 1_X +
   2 sum_(i in X) Q[i, k] + Q[k, k]. A batch adds one row, the column
   sums of its high bits, which it folds into T2 once.
2. Bound. For a fixed X, Cauchy-Schwarz gives

       max_Y |sum_Y s_X| / sqrt(|X| |Y|) <= ||s_X||_2 / sqrt(|X|),

   an O(1) bound per row: ||low + high||^2 = ||low||^2 + 2 low.high +
   ||high||^2, with ||low||^2 tabled once per search and low.high a
   subset-sum table of M[:b] @ high, written into one buffer of 2^b
   bounds that every batch reuses. A running lower bound L on disc
   carries over from batch to batch; each batch first scores the row of
   largest bound in each of SEED_ROWS equal blocks to raise it. Rows
   whose bound is below L - PRUNE_RTOL max(1, L) cannot reach the
   maximum and are dropped. The rows left get their column sums,
   SCORE_ROWS at a time, and face the same test with the sharper
   max(||s_X+||_2, ||s_X-||_2) / sqrt(|X|): a best Y holds entries of
   one sign only, so Cauchy-Schwarz applies to each sign part. On the
   benchmark's inputs at n = 20 to 22 this leaves between one row in
   10^3 and one in 10^5 to sort, against one in 5 to one in 10^2 after
   the first test.
3. Sorted prefix sums. For the surviving rows the best Y of size m
   holds the m smallest or the m largest entries of s_X. One kernel,
   _prefix_extremes, gives both for every m: one sort, then one cumsum
   each way. _row_values scales the larger magnitude of each size by
   1/sqrt(|X| m) in one multiply and maximizes per row.
4. Tie rule. The witness X is the smallest xmask whose value is within
   TIE_RTOL max(1, value) of the maximum, and Y the smallest ymask
   within that tolerance for that X. The pruning margin is wider than
   this tolerance and than the float error of the bound, so no tied row
   is dropped, and the witness does not depend on the summation order
   or the batch size. Y is decided in one pass over s_X, one sorted
   list of s[:j] that drops s[j] at bit j: bit j, from the top down,
   stays clear when some extension, read off running sums of that
   list's smallest or largest entries, reaches the tie floor.

Buffers. A search of one or a few batches (n <= 19 at b = 17) spends
as much on set-up as on scanning. The float arrays a search fills in
full, ||low||^2 and the bounds (2^b each) and gathered half-table rows
(two of max(SEED_ROWS, SCORE_ROWS) n each), come from one process-wide
pool, _POOL, guarded by a lock for searches on several caller threads.
They go back to it when the search ends, also on error. Fresh arrays of
that size are faulted in page by page on every search: 100 to 900 minor
page faults a search at n = 15 to 19, and n = 16 and 17 searches took
1.3 to 2 times as long with them (2-CPU x86-64 host). The pool hands out
slices of buffers of POOL_FLOATS = 2^DEFAULT_BATCH_BITS floats (1 MiB)
whatever the order, so it never holds more buffers than were in use at
once (4 a search), and no set per order. A reused buffer is not zeroed:
a search writes every entry it reads first. A batch_bits above the
default gets a fresh, unpooled bound array.

Threads. The batches run in order on the calling thread: the scan holds
the GIL for much of its time, so a second worker thread bought little.
On the same host (4 Gaussian matrices a size, 3 runs, the median of 5
timings a run) two workers took a median 1.03 and 1.05 times the time
of one at n = 21 and 22 (0.75 to 1.51 over the runs), 0.95 at n = 23
and 0.87 at n = 24 (0.69 to 1.29). Two independent n = 22 searches on two caller
threads ran 1.19 to 1.58 times as fast as in sequence, where two
processes ran 1.55 to 2.40 times as fast. The second worker also kept
its three pool buffers for the life of the process.

A centred matrix whose entries are all at most TIE_RTOL / (2n) in
magnitude, such as a zero one, is not scanned: no pair value can leave
the tie band of 0, so the tie rule gives X = Y = {1}, and that pair's
value, at once. Scanned, such a matrix prunes no row; it was the
slowest input.

The exact disc1 search walks the same batches. Its edge counts e(X) =
1_X^T (A/2) 1_X are the other subset form: _subset_forms tables them
for the low rows from A/2 in place of G. Every search hands its
witnesses over as sorted 0-based index sets; only the exact scans mask
X, and they decode their one winning mask.

Every heuristic is one seeded climb, _climb: a restart draws X, every
index with probability 1/2, and steps while a step rises; the best
restart wins. For disc and disc2 a step is the exact best response Y of
X, then X of Y (the alternating maximization of Alon and Naor, SIAM J.
Comput. 2006), each one sign's prefix of the sorted column sums
(_prefix_extremes and an argsort). At a fixed point it scores every
flip of X at once, the rows s_X +- M[j] through _row_values,
POOL_FLOATS // n rows at a time, and takes the first rise in index
order, never emptying X. These steps rise only past the tie band,
TIE_RTOL max(1, value), so the climb runs until no step rises past it:
rounding between s_X +- M[j] and a fresh s_X can cycle otherwise.
disc1 takes the first flip that raises it strictly, in exact integer
counts from one mat-vec: e(X +- j) = e(X) +- (A 1_X)_j. evaluations
counts pair evaluations: 2n per best response and per flip scored, 1
per disc1 flip and per restart's first X. The witness keeps
_pair_result's tie-canonical Y, one witness path for every search; on
a Gaussian n = 2000 input that pass took 0.56 s of a 1.9 s search at 4
restarts (2-CPU x86-64 host).
"""

from __future__ import annotations

import functools
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import TooLargeError
from .graphs import Graph, _vertex_set
from .linalg import MAX_ABS_ENTRY, SymmetricMatrix, rho_prime

#: largest n the exact searches accept: they scan all 2^n - 1 masks
EXACT_CAP = 24
DEFAULT_BATCH_BITS = 17
DEFAULT_ITERATIONS = 64
#: two discrepancy values tie when they differ by at most this times max(1, value)
TIE_RTOL = 1e-12
#: rows whose bound falls this far (times max(1, L)) below the running lower
#: bound L are dropped; must exceed TIE_RTOL and the bound's float error
PRUNE_RTOL = 1e-9
#: each batch first scores the row of largest bound in each of this many
#: equal blocks (a power of two), to raise the lower bound
SEED_ROWS = 64
#: rows a batch gathers at once to test and score, which bounds its memory
SCORE_ROWS = 4096
#: floats in each buffer of the exact scan's pool (1 MiB): a 2^b table
#: at the default batch size
POOL_FLOATS = 1 << DEFAULT_BATCH_BITS


@dataclass(frozen=True, eq=False)
class DiscResult:
    """Discrepancy value with 1-based witness sets.

    In exact mode the value is the true maximum; in heuristic mode it is
    a lower bound attained at the reported witnesses. For the single-set
    disc1 search, witness_Y mirrors witness_X. batches and rows_sorted
    count the exact scan's work (batches of X masks and X rows sorted
    after pruning; 0 when nothing was scanned). They describe the run,
    not its result, so they stay out of to_json_dict; for the same input
    and batch_bits they repeat exactly.
    """

    value: float
    witness_X: tuple
    witness_Y: tuple
    mode: str
    evaluations: int
    batches: int = 0
    rows_sorted: int = 0

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "witness_X": list(self.witness_X),
            "witness_Y": list(self.witness_Y),
            "mode": self.mode,
            "evaluations": self.evaluations,
        }


def _mask_indices(mask: int, n: int) -> np.ndarray:
    """Sorted 0-based indices of the set bits among the low n of a mask."""
    return np.flatnonzero((mask >> np.arange(n)) & 1)


def evaluate_pair(M: np.ndarray, X, Y) -> float:
    """The defining expression |sum over X x Y of M| / sqrt(|X||Y|).

    M is already centered; X and Y are nonempty sets of 1-based labels
    in 1..n, each counted once.
    """
    xi, yi = (_vertex_set(S, M.shape[0]) for S in (X, Y))
    if xi.size == 0 or yi.size == 0:
        raise ValueError("witness sets must be nonempty")
    total = float(M[np.ix_(xi, yi)].sum())
    return abs(total) / math.sqrt(xi.size * yi.size)


def _tie_floor(value: float) -> float:
    """The smallest value that ties with `value`."""
    return value - TIE_RTOL * max(1.0, value)


def _best_y_for_x(M: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sorted 0-based indices of the Y of smallest bitmask whose value
    ties the best Y for the X of indices xs.

    Decides the bits from the highest down: a bit stays clear when the
    lower bits can still reach the tie floor without it.  With the bits
    chosen above j summing to `fixed`, `count` of them, the best
    extension T of each size inside s[:j] takes its smallest or its
    largest entries.  `rest` holds s[:j] in ascending order, and a step
    adds its smallest and its largest entries one at a time from 0.0.
    A value is max(|fixed + lo|, |fixed + hi|) / sqrt(count + |T|),
    formed in that order, and a step stops at the first one that
    reaches the floor.
    """
    n = M.shape[0]
    s = M[xs].sum(axis=0).tolist()
    rest = sorted(s)
    roots = np.sqrt(np.arange(n + 1)).tolist()
    best = max(max(abs(lo), abs(hi)) / r for lo, hi, r in
               zip(accumulate(rest), accumulate(reversed(rest)), roots[1:]))
    root = math.sqrt(len(xs))
    cut = _tie_floor(best / root) * root
    ys, fixed, count = [], 0.0, 0
    for j in range(n - 1, -1, -1):
        del rest[bisect_left(rest, s[j])]
        sizes = zip(accumulate(rest, initial=0.0),
                    accumulate(reversed(rest), initial=0.0), roots[count:])
        if not count:
            next(sizes)  # T may be empty once a bit is chosen
        if not any(max(abs(fixed + lo), abs(fixed + hi)) / r >= cut
                   for lo, hi, r in sizes):
            ys.append(j)
            fixed += s[j]
            count += 1
    return np.array(ys[::-1], dtype=np.intp)


def _subset_sums(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sum of every subset of `rows` (along axis 0), indexed by bitmask,
    written into `out` when one is given.

    Row k doubles the table: out[2^k:2^(k+1)] = out[:2^k] + rows[k].
    """
    if out is None:
        out = np.empty((1 << len(rows),) + rows.shape[1:])
    out[0] = 0.0
    for k, row in enumerate(rows):
        half = 1 << k
        np.add(out[:half], row, out=out[half:2 * half])
    return out


def _prefix_extremes(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """(2,) + values.shape: the sums of the k smallest and of the k
    largest entries along `axis`, k = 1..n at index k - 1, from one
    sort, then one cumsum each way."""
    s = np.sort(values, axis=axis)
    out = np.empty((2,) + s.shape)
    np.cumsum(s, axis=axis, out=out[0])
    np.cumsum(np.flip(s, axis), axis=axis, out=out[1])
    return out


def _subset_forms(Q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1_X^T Q 1_X for every bitmask X of the symmetric Q's order, doubled
    in one dimension: out[2^k + X] = out[X] + 2 sum_(i in X) Q[i, k] + Q[k, k],
    written into `out` when one is given."""
    if out is None:
        out = np.empty(1 << len(Q))
    out[0] = 0.0
    for k in range(len(Q)):
        half = 1 << k
        grown = _subset_sums(2.0 * Q[:k, k], out[half:2 * half])
        grown += Q[k, k]
        grown += out[:half]
    return out


@functools.cache
def _subset_sizes(bits: int) -> np.ndarray:
    """|X| for every bitmask X of `bits` bits, as a read-only uint8 table."""
    out = _subset_sums(np.ones(bits)).astype(np.uint8)
    out.flags.writeable = False
    return out


class _BufferPool:
    """Float64 buffers of POOL_FLOATS entries, kept between exact searches
    so that their pages are faulted in once (see the module docstring).
    A search takes 4; the lock serves searches on several caller threads."""

    def __init__(self):
        self.free = []
        self._lock = threading.Lock()

    def take(self, size: int, held: list) -> np.ndarray:
        """The first `size` entries of a free buffer, or of a new one, which
        joins `held`; a fresh unpooled array past POOL_FLOATS. The entries
        hold whatever their last user left."""
        if size > POOL_FLOATS:
            return np.empty(size)
        with self._lock:
            buf = self.free.pop() if self.free else np.empty(POOL_FLOATS)
            held.append(buf)
        return buf[:size]

    def give(self, held: list) -> None:
        """Return the buffers in `held` to the pool and empty it."""
        with self._lock:
            self.free.extend(held)
            held.clear()


_POOL = _BufferPool()


class _Batches:
    """The exact searches' layout: X masks in batches of 2^bits that share
    their high part h, the top n - bits bits of the mask."""

    def __init__(self, n: int, batch_bits: int):
        if n > EXACT_CAP:
            raise TooLargeError(
                f"exact search needs n <= {EXACT_CAP}, got {n}; "
                "use the heuristic mode"
            )
        if batch_bits < 0:
            raise ValueError("batch_bits must be nonnegative")
        self.n = n
        self.bits = min(batch_bits, n)
        self.highs = range(1 << (n - self.bits))

    def part(self, h: int) -> tuple:
        """(rows, first): the rows h selects and the low part of the
        batch's first mask (mask 0 is empty)."""
        return self.bits + _mask_indices(h, self.n - self.bits), 1 if h == 0 else 0


def _row_values(S: np.ndarray, size: np.ndarray) -> np.ndarray:
    """max_Y |sum_Y s| / sqrt(|X| |Y|) for every row s of S, |X| = size."""
    ext = _prefix_extremes(S)
    vals = np.abs(ext, out=ext).max(axis=0)
    vals *= 1.0 / np.sqrt(size[:, None] * np.arange(1.0, S.shape[1] + 1.0))
    return vals.max(axis=1)


class _ExactScan:
    """One exact search over `batches`: the half tables and squared norms
    of the low rows' subset sums, the running lower bound L on disc, and
    the bound and gather buffers every batch reuses. Its float buffers
    come from _POOL; release() returns them."""

    def __init__(self, M: np.ndarray, batches: _Batches):
        self.M = M
        self.batches = batches
        bits = batches.bits
        self.split = (bits + 1) // 2
        self.half_lo = _subset_sums(M[:self.split])
        self.half_hi = _subset_sums(M[self.split:bits])
        self.held = []
        self.low_norm2 = _subset_forms(M[:bits] @ M[:bits].T,
                                       _POOL.take(1 << bits, self.held))
        self.bound2 = _POOL.take(1 << bits, self.held)
        width = max(SEED_ROWS, SCORE_ROWS) * M.shape[0]
        self.lo_rows = _POOL.take(width, self.held)
        self.hi_rows = _POOL.take(width, self.held)
        self.L = 0.0

    def release(self) -> None:
        """Return the pool buffers of this search."""
        _POOL.give(self.held)

    def _prune_floor2(self) -> float:
        """Squared bound below which a row cannot reach the maximum."""
        L = self.L
        return max(L - PRUNE_RTOL * max(1.0, L), 0.0) ** 2

    def batch(self, h: int) -> tuple:
        """Scan the X masks whose high part is h, with the bound of every
        row written into self.bound2, and the half-table rows of the rows
        it scores gathered into self.lo_rows and self.hi_rows.

        Returns (masks, values, rows_sorted): masks and values are the
        rows that can still tie the maximum and beat every such row at a
        smaller mask of the batch, in mask order; both are empty when
        the bound dropped every row.
        """
        rows, first = self.batches.part(h)
        high = self.M[rows].sum(axis=0)
        # bound2[X] = ||s_X||^2 / |X| for every low mask X of the batch.
        # ||low||^2 sums at most b^2 Gram entries, each n products of size
        # <= max|M|^2, so with the expansion the float error is at most
        # ~(n + 2b) eps n^3 max|M|^2, below the PRUNE_RTOL margin
        # 2e-9 disc^2 >= 2e-9 max|M|^2 for every n <= EXACT_CAP.
        bound2 = _subset_sums(self.M[:self.batches.bits] @ high, self.bound2)
        bound2 *= 2.0
        bound2 += self.low_norm2
        bound2 += high @ high
        low_size = _subset_sizes(self.batches.bits)
        bound2[first:] /= low_size[first:] + np.uint8(rows.size)
        bound2[:first] = -math.inf  # mask 0 is empty
        split = self.split
        half_hi = self.half_hi + high

        def score(low):
            """The low masks that pass the sign-split bound, and their values."""
            n = self.M.shape[0]
            # np.take buffers `out` under its default mode="raise"; every
            # index is in range, so "clip" gathers in place.
            S = np.take(self.half_lo, low & ((1 << split) - 1), axis=0, mode="clip",
                        out=self.lo_rows[:low.size * n].reshape(-1, n))
            pos = np.take(half_hi, low >> split, axis=0, mode="clip",
                          out=self.hi_rows[:low.size * n].reshape(-1, n))
            S += pos
            np.maximum(S, 0.0, out=pos)
            pos2 = np.einsum("ij,ij->i", pos, pos)
            size = low_size[low] + float(rows.size)
            # ||s+||^2 and ||s-||^2 = ||s||^2 - ||s+||^2
            split2 = np.maximum(pos2, bound2[low] * size - pos2)
            ok = split2 / size >= self._prune_floor2()
            vals = _row_values(S[ok], size[ok])
            if vals.size:
                self.L = max(self.L, float(vals.max()))
            return low[ok], vals

        # Scored once, the seeds leave the rest.
        if bound2.size > SEED_ROWS:
            width = bound2.size // SEED_ROWS
            seeds = (np.arange(0, bound2.size, width)
                     + bound2.reshape(SEED_ROWS, width).argmax(axis=1))
        else:
            seeds = np.arange(bound2.size)
        seeds = seeds[seeds >= first]
        scored = [score(seeds)]
        bound2[seeds] = -math.inf
        rest = np.flatnonzero(bound2 >= self._prune_floor2())
        scored += [score(rest[i:i + SCORE_ROWS])
                   for i in range(0, rest.size, SCORE_ROWS)]
        idx = np.concatenate([part[0] for part in scored])
        vals = np.concatenate([part[1] for part in scored])
        rows_sorted = vals.size
        near = vals >= _tie_floor(self.L)
        order = np.argsort(idx[near])
        idx, vals = idx[near][order], vals[near][order]
        ahead = np.maximum.accumulate(np.concatenate(([-math.inf], vals)))[:-1]
        record = vals > ahead
        masks = (h << self.batches.bits) + idx[record]
        return masks, vals[record], rows_sorted


def _pair_result(M: np.ndarray, xs: np.ndarray, mode: str, evaluations: int,
                 **counters) -> DiscResult:
    """The result at the X of indices xs and its smallest best Y."""
    wx, wy = (tuple((S + 1).tolist()) for S in (xs, _best_y_for_x(M, xs)))
    return DiscResult(value=evaluate_pair(M, wx, wy), witness_X=wx,
                      witness_Y=wy, mode=mode, evaluations=evaluations,
                      **counters)


def _search_exact(M: np.ndarray, batch_bits: int) -> DiscResult:
    n = M.shape[0]
    evaluations = ((1 << n) - 1) * 2 * n
    batches = _Batches(n, batch_bits)
    # Every pair value is at most n max|M|, so all of them tie with 0 and
    # the tie rule picks X = Y = {1}.
    if n * float(np.abs(M).max()) <= TIE_RTOL / 2:
        return _pair_result(M, np.zeros(1, dtype=np.intp), "exact", evaluations)
    scan = _ExactScan(M, batches)
    try:
        parts = [scan.batch(h) for h in batches.highs]
    finally:
        scan.release()
    cut = _tie_floor(scan.L)
    xmask = next(int(masks[vals >= cut][0])
                 for masks, vals, _ in parts if (vals >= cut).any())
    return _pair_result(M, _mask_indices(xmask, n), "exact", evaluations,
                        batches=len(batches.highs),
                        rows_sorted=sum(part[2] for part in parts))


def _climb(n: int, step, iterations: int, seed: int) -> tuple:
    """The heuristics' seeded restarts (see the module docstring). step
    maps X's float 0/1 indicator to (X's value, the next X or None at a
    local maximum, evaluations spent). Returns the sorted indices of the
    best restart's last X and the evaluations of all steps."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = np.random.default_rng(seed)
    best_val, best_xs, evaluations = -1.0, None, 0
    for _ in range(iterations):
        sel = rng.random(n) < 0.5
        if not sel.any():
            sel[int(rng.integers(n))] = True
        nxt = sel.astype(np.float64)
        while nxt is not None:
            ind = nxt
            cur, nxt, spent = step(ind)
            evaluations += spent
        if cur > best_val:
            best_val, best_xs = cur, np.flatnonzero(ind)
    return best_xs, evaluations


def _first_flip(ind: np.ndarray, score, ceiling: float) -> tuple:
    """(next, scored): ind with its first flip above `ceiling` made, or
    None, and the flips scored up to it, POOL_FLOATS // n at a time.
    score(part, sign, sizes) values the flips of the slice part: sign is
    +1 where a flip adds the index, sizes the new sizes, clipped to >= 1
    since a flip that would empty X neither counts nor rises."""
    sign = 1.0 - 2.0 * ind
    sizes = ind.sum() + sign
    scored, rows = 0, POOL_FLOATS // ind.size
    for lo in range(0, ind.size, rows):
        part = slice(lo, lo + rows)
        ok = sizes[part] > 0.0
        vals = score(part, sign[part], np.maximum(sizes[part], 1.0))
        up = np.flatnonzero((vals > ceiling) & ok)
        scored += int(np.count_nonzero(ok[:up[0] + 1 if up.size else None]))
        if up.size:
            nxt = ind.copy()
            nxt[lo + up[0]] = 1.0 - nxt[lo + up[0]]
            return nxt, scored
    return None, scored


def _respond(s: np.ndarray, size: float) -> tuple:
    """(value, indicator) of the best response to a side of `size` indices
    with column sums s: one sign's prefix of s in sorted order."""
    ext = np.abs(_prefix_extremes(s))
    ext *= 1.0 / np.sqrt(size * np.arange(1.0, s.size + 1.0))
    largest, m = divmod(int(np.argmax(ext)), s.size)
    out = np.zeros(s.size)
    out[np.argsort(-s if largest else s)[:m + 1]] = 1.0
    return float(ext[largest, m]), out


def _search_heuristic(M: np.ndarray, iterations: int, seed: int) -> DiscResult:
    n = M.shape[0]

    def step(ind: np.ndarray) -> tuple:
        """Y of X, then X of Y; at a fixed point, the first rising flip,
        scored as the rows s_X +- M[j]."""
        s = ind @ M
        cur, y = _respond(s, ind.sum())
        val, x = _respond(y @ M, y.sum())
        ceiling = cur + TIE_RTOL * max(1.0, cur)
        if val > ceiling:
            return cur, x, 4 * n
        nxt, scored = _first_flip(ind, lambda part, sign, sizes: _row_values(
            s + sign[:, None] * M[part], sizes), ceiling)
        return cur, nxt, (4 + 2 * scored) * n

    xs, evaluations = _climb(n, step, iterations, seed)
    return _pair_result(M, xs, "heuristic", evaluations)


def centered_matrix(A: SymmetricMatrix) -> np.ndarray:
    """A minus its mean entry (the search matrix for disc)."""
    if A.is_complex:
        raise ValueError("discrepancy search supports real symmetric matrices only")
    if not np.all(np.abs(A.a) <= MAX_ABS_ENTRY):
        raise ValueError(
            f"matrix entries must be finite, at most {MAX_ABS_ENTRY:g} in size")
    return A.a - rho_prime(A)


def disc_exact(
    A: SymmetricMatrix,
    threads: int = 1,
    batch_bits: int = DEFAULT_BATCH_BITS,
) -> DiscResult:
    """True maximum of the discrepancy expression, witnesses included.

    threads is kept for compatibility and must be at least 1; the scan
    runs on the calling thread whatever its value."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return _search_exact(centered_matrix(A), batch_bits)


def disc_heuristic(
    A: SymmetricMatrix,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
) -> DiscResult:
    """Seeded restarts of the climb; value is a valid lower bound."""
    return _search_heuristic(centered_matrix(A), iterations, seed)


def disc_value_at(A: SymmetricMatrix, X, Y) -> float:
    """disc expression of A evaluated at concrete witness sets."""
    return evaluate_pair(centered_matrix(A), X, Y)


def _graph_centered(G: Graph) -> np.ndarray:
    return G._mask - G.density()


def disc2_graph(
    G: Graph,
    mode: str = "exact",
    *,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
) -> DiscResult:
    """Two-set graph discrepancy: density in place of the entry mean."""
    M = _graph_centered(G)
    if mode == "exact":
        return _search_exact(M, DEFAULT_BATCH_BITS)
    if mode == "heuristic":
        return _search_heuristic(M, iterations, seed)
    raise ValueError(f"unknown mode {mode!r}")


def disc2_value_at(G: Graph, X, Y) -> float:
    return evaluate_pair(_graph_centered(G), X, Y)


def disc1_value_at(G: Graph, X) -> float:
    """Single-set expression |e(X) - rho binom(|X|,2)| / |X|."""
    xi = _vertex_set(X, G.n)
    if xi.size == 0:
        raise ValueError("witness set must be nonempty")
    e_in = np.count_nonzero(G._mask[np.ix_(xi, xi)]) / 2.0
    size = xi.size
    rho = G.density()
    return abs(e_in - rho * size * (size - 1) / 2.0) / size


def _disc1_exact(G: Graph) -> tuple:
    """(xs, batches): the sorted indices of the exact disc1 witness over
    the doubling-table batches of the adjacency, and the number of batches.

    e(X) of the low rows is the subset form of A/2. A batch adds the
    edges inside its high part and, as one subset-sum table, those
    between the two parts. Ties keep the smallest mask: graph edge
    counts are exact in any summation order.
    """
    batches = _Batches(G.n, DEFAULT_BATCH_BITS)
    bits = batches.bits
    a = G._mask
    rho = G.density()
    e_low = _subset_forms(a[:bits, :bits] / 2.0)
    best_val = -1.0
    best_mask = 1
    for h in batches.highs:
        rows, first = batches.part(h)
        size = _subset_sizes(bits)[first:] + float(rows.size)
        e_high = np.count_nonzero(a[np.ix_(rows, rows)]) / 2.0
        cross = _subset_sums(np.count_nonzero(a[:bits, rows], axis=1))
        e_in = (e_low + cross + e_high)[first:]
        vals = np.abs(e_in - rho * size * (size - 1) / 2.0) / size
        at = int(np.argmax(vals))
        if float(vals[at]) > best_val:
            best_val = float(vals[at])
            best_mask = (h << bits) + first + at
    return _mask_indices(best_mask, G.n), len(batches.highs)


def disc1_graph(
    G: Graph,
    mode: str = "exact",
    *,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
) -> DiscResult:
    """Thomason's single-set coefficient with witness X (Y mirrors X)."""
    if mode == "exact":
        xs, batches = _disc1_exact(G)
        evaluations = (1 << G.n) - 1
    elif mode == "heuristic":
        a = G._mask.astype(np.float64)
        rho = G.density()

        def step(ind: np.ndarray) -> tuple:
            """The first flip that raises disc1, in exact integer counts:
            e(X +- j) = e(X) +- (A 1_X)_j."""
            deg, size = a @ ind, ind.sum()
            e_in = ind @ deg / 2.0
            cur = abs(e_in - rho * size * (size - 1) / 2.0) / size
            nxt, scored = _first_flip(ind, lambda part, sign, sizes: np.abs(
                e_in + sign * deg[part] - rho * sizes * (sizes - 1) / 2.0) / sizes, cur)
            return cur, nxt, scored

        # one evaluation a restart scores its drawn X, then one a flip
        xs, flips = _climb(G.n, step, iterations, seed)
        evaluations = iterations + flips
        batches = 0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    wx = tuple((xs + 1).tolist())
    return DiscResult(value=disc1_value_at(G, wx), witness_X=wx, witness_Y=wx,
                      mode=mode, evaluations=evaluations, batches=batches)


def disc2_gap_bound(G: Graph) -> float:
    """Upper bound 2 e(G) / (n (n-1)) on |disc2(G) - disc(adjacency)|."""
    return G.density()

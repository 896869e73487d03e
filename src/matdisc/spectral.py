"""Edge-distribution bound checks and normalized Laplacian gaps.

Thomason's bound, Chung's volume bound, the family discrepancy ratio
and the small-graph sweep run on one subset-pair engine:

- a source yields chunks (e, x, y) of e(X, Y) = 1_X^T A 1_Y and the
  indicator rows of X and Y, shaped so that x @ w and y @ w broadcast
  against e.  The sampled source pairs sets of log-uniform sizes from a
  seeded generator, drawn one bounded chunk at a time.  The generator
  is a PCG64 np.random.default_rng; a set of size k is the k smallest
  of n raw 64-bit keys, selected on their top 16 bits and, in the rows
  where two of those tie at the k-th place, on the 53 bits that
  random() would turn into doubles, so the sets are those of a sort of
  random() keys (_draw_subsets).  The exhaustive source (up to 14
  vertices) holds every nonempty X with its column
  sums; a per-row pass bounds each X row over every Y at once (Thomason
  exactly, from the row's sorted column sums; Chung by Cauchy-Schwarz),
  and only the rows that can still change the report are formed as a
  grid against chunks of Y sets, in blocks of at most _X_BLOCK rows.
  The small-graph sweep runs the Thomason per-row pass on stacks of
  atlas graphs of one size, _SWEEP_BLOCK at a time, which bounds its
  memory;
- a bound turns a chunk into lhs and rhs arrays;
- one recorder counts pairs and violations and keeps the first few.

The sampled source forms x @ a in float32.  The indicator rows and the
adjacency hold only 0 and 1, so every partial sum of an entry of x @ a
is an integer at most n <= MAX_VERTICES = 10^4 < 2^24: exact in float32
in any summation order.  e(X, Y) = sum_j (x a)_j y_j is accumulated in
float64, which holds every integer up to n^2 exactly, so the values are
those of a float64 product bit for bit.  The float32 adjacency is built
once per check and lives as long as its stream; at n^2 * 4 bytes (400
MB at MAX_VERTICES) it is half the float64 adjacency the graph already
holds.  Set sizes are counted with np.count_nonzero and volumes summed
by einsum, with no float copy of the boolean rows.

Slack is always lhs - rhs: negative slack means the inequality holds
with room, and an instance only counts as a violation when its slack
exceeds a small positive tolerance.  The checks share one report shape,
BoundReport, so that the command line can print any of them uniformly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .atlas import atlas_adjacencies
from .discrepancy import _subset_sums
from .errors import (
    EmptyGraphError,
    FamilyTooSmallError,
    NotRegularError,
    TooLargeError,
    ZeroDegreeError,
)
from .graphs import Graph
from .linalg import SymmetricMatrix, eig_symmetric

__all__ = [
    "EXACT_PAIR_CAP",
    "DEFAULT_SAMPLES",
    "BOUND_TOL",
    "LaplacianSpectrum",
    "laplacian_spectrum",
    "lambda_bar_from_adjacency",
    "BoundReport",
    "thomason_hypotheses",
    "thomason_report",
    "thomason_small_graph_sweep",
    "chung_alpha_check",
    "family_properties",
]

EXACT_PAIR_CAP = 14
DEFAULT_SAMPLES = 10_000
BOUND_TOL = 1e-8

_Y_CHUNK = 2048
_X_BLOCK = 512
#: atlas graphs whose prefix extremes the sweep holds at once
_SWEEP_BLOCK = 64
_MAX_RECORDED_VIOLATIONS = 100


# ---------------------------------------------------------------------------
# Normalized Laplacian for regular graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Eigenvalues of I - A/d for a d-regular graph, sorted ascending.

    lambda_bar is the largest |1 - lambda_i| after discarding one copy
    of the smallest eigenvalue (which is 0 up to roundoff).
    """

    n: int
    degree: int
    lambdas: tuple[float, ...]
    lambda_bar: float


def _regular_degree(graph: Graph) -> int:
    """The degree d of a regular graph, which must be positive."""
    if not graph.is_regular():
        raise NotRegularError("lambda_bar is defined for regular graphs only")
    d = int(graph.degrees[0])
    if d == 0:
        raise ZeroDegreeError("cannot normalize by degree 0")
    return d


def laplacian_spectrum(graph: Graph) -> LaplacianSpectrum:
    d = _regular_degree(graph)
    lap = np.eye(graph.n) - graph.adjacency.a / d
    spec = eig_symmetric(SymmetricMatrix(lap))
    ascending = spec.eigenvalues[::-1]
    lam_bar = float(np.max(np.abs(1.0 - ascending[1:])))
    return LaplacianSpectrum(
        n=graph.n,
        degree=d,
        lambdas=tuple(float(v) for v in ascending),
        lambda_bar=lam_bar,
    )


def lambda_bar_from_adjacency(graph: Graph) -> float:
    """Same gap via adjacency eigenvalues: max |mu_i| / d over i >= 2."""
    d = _regular_degree(graph)
    mu = eig_symmetric(graph.adjacency).eigenvalues  # descending, mu[0] = d
    return float(np.max(np.abs(mu[1:])) / d)


# ---------------------------------------------------------------------------
# Report container and the subset-pair engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one inequality over many subset pairs.

    max_slack is the largest lhs - rhs seen (None when nothing was
    comparable); violations hold at most a fixed number of offending
    pairs, with the true count kept in params["violation_count"].
    grid_pairs counts the pairs whose e(X, Y) was formed one by one
    (every drawn pair of a sampled check, the scanned rows' pairs of an
    exhaustive one); it is a work counter and stays out of the JSON.
    """

    bound_name: str
    passed: bool
    instances: int
    violations: tuple[dict, ...]
    max_slack: float | None
    params: dict
    grid_pairs: int = 0

    def to_json_dict(self) -> dict:
        return {
            "bound_name": self.bound_name,
            "pass": self.passed,
            "instances": self.instances,
            "violations": list(self.violations),
            "max_slack": self.max_slack,
            "params": self.params,
        }


def _prefix_extremes(ax_t: np.ndarray) -> np.ndarray:
    """(2, ..., n, N) from column sums ax_t (..., n, N), one column per
    X row: for each k = 1..n and X row, the least and the largest
    e(X, Y) over |Y| = k, read off the prefix sums of the row's sorted
    column sums.  X rows run along the last axis, so the reductions
    over k run on whole rows of X."""
    s = np.sort(ax_t, axis=-2)
    out = np.empty((2,) + s.shape)
    np.cumsum(s, axis=-2, out=out[0])
    np.cumsum(s[..., ::-1, :], axis=-2, out=out[1])
    return out


class _Exhaustive:
    """Every nonempty X against every nonempty Y (up to EXACT_PAIR_CAP
    vertices).

    ind holds the N = 2^n - 1 indicator rows in mask order and ax =
    ind @ a their column sums, both doubled row by row from the rows of
    the identity and of a: integers held exactly in floats, so every
    e(X, Y) formed from them, on the grid or from sorted prefix sums,
    is exact.
    """

    def __init__(self, a: np.ndarray):
        n = a.shape[0]
        if n > EXACT_PAIR_CAP:
            raise TooLargeError(
                f"exhaustive pair check capped at n = {EXACT_PAIR_CAP}")
        self.ind = _subset_sums(np.eye(n))[1:]
        self.ax = _subset_sums(a)[1:]
        self.pairs = len(self.ind) ** 2

    def grid(self, rows: np.ndarray) -> Iterator[tuple]:
        """The X rows `rows` (ascending) against chunks of _Y_CHUNK Y
        sets in mask order, each chunk met by blocks of at most _X_BLOCK
        of the rows in turn: a chunk holds at most _X_BLOCK x _Y_CHUNK
        pairs, and the violations of the chosen rows come out in the
        order of a scan of every row."""
        ax, x = self.ax[rows], self.ind[rows][:, None]
        for lo in range(0, len(self.ind), _Y_CHUNK):
            y = self.ind[lo:lo + _Y_CHUNK]
            for top in range(0, len(rows), _X_BLOCK):
                yield (ax[top:top + _X_BLOCK] @ y.T, x[top:top + _X_BLOCK],
                       y[None])


def _select_smallest(keys: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row r marks the keys at most the sizes[r]-th smallest of its row."""
    kth = np.sort(keys, axis=1)[np.arange(len(keys)), sizes - 1]
    return keys <= kth[:, None]


def _draw_subsets(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Boolean indicator rows of `count` subsets with log-uniform sizes.

    One uniform vector on [0, log(n + 1)) gives the sizes (exp, truncated,
    clipped to [1, n]); then one (count, n) matrix of keys, and row r
    holds the vertices whose key is at most the sizes[r]-th smallest key
    of that row.  Two keys of a row tie only if two 53-bit draws are
    equal, so each row holds exactly its drawn size.

    rng is a PCG64 generator (np.random.default_rng).  Its random() turns
    each raw 64-bit output w into the double (w >> 11) * 2^-53, so the
    keys are taken raw, as random_raw((count, n)): the same outputs, the
    generator left in the same state, and the same order as the doubles.
    Each row is then selected on the top 16 bits of its keys.  A prefix
    order is a coarsening of the key order, so where the k-th and
    (k+1)-th smallest prefixes of a row differ, the prefixes at most the
    k-th belong to exactly the k smallest keys.  Only the rows where
    those two prefixes tie (about 1% at n = 499) are selected again on
    the 53-bit keys w >> 11.
    """
    sizes = np.exp(rng.uniform(0.0, math.log(n + 1), count)).astype(np.int64)
    np.clip(sizes, 1, n, out=sizes)
    raw = rng.bit_generator.random_raw((count, n))
    top = np.empty((count, n), dtype=np.uint16)
    np.right_shift(raw, 48, out=top, casting="unsafe")
    ranked = np.sort(top, axis=1)
    rows = np.arange(count)
    kth = ranked[rows, sizes - 1]
    out = top <= kth[:, None]
    # a full row (size n) has no (k+1)-th key and is already exact
    tied = np.flatnonzero(
        (sizes < n) & (kth == ranked[rows, np.minimum(sizes, n - 1)]))
    if tied.size:
        out[tied] = _select_smallest(raw[tied] >> 11, sizes[tied])
    return out


def _sampled_pairs(a: np.ndarray, rng: np.random.Generator, samples: int,
                   whole: bool = False) -> Iterator[tuple]:
    """`samples` pairs streamed in chunks of at most _Y_CHUNK rows and
    2^20 key cells: each chunk draws its X rows, then its Y rows, by
    _draw_subsets from the one generator.  `whole` yields the pair
    X = Y = V as a last one-row chunk."""
    n = a.shape[0]
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    rows = min(_Y_CHUNK, max(1, 2**20 // n))
    a32 = a.astype(np.float32)  # exact: see the module docstring

    def chunk(x: np.ndarray, y: np.ndarray) -> tuple:
        # the bool rows are cast to float32 for the product
        return np.einsum("ij,ij->i", x @ a32, y, dtype=np.float64), x, y

    for lo in range(0, samples, rows):
        count = min(rows, samples - lo)
        x = _draw_subsets(rng, n, count)
        y = _draw_subsets(rng, n, count)
        yield chunk(x, y)
    if whole:
        v = np.ones((1, n), dtype=bool)
        yield chunk(v, v)


_MODES = ("auto", "exhaustive", "sampled")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {', '.join(_MODES)}, "
                         f"got {mode!r}")


def _pairs(graph: Graph, mode: str, samples: int, seed: int, params: dict, *,
           whole: bool = False) -> _Exhaustive | Iterator[tuple]:
    """Pair source of a report, named in its params: the _Exhaustive
    table ("auto" up to EXACT_PAIR_CAP vertices) or the sampled chunks.
    The caller has checked the mode."""
    if mode == "exhaustive" or (mode == "auto" and graph.n <= EXACT_PAIR_CAP):
        params["mode"] = "exhaustive"
        return _Exhaustive(graph.adjacency.a)
    params.update(mode="sampled", samples=samples, seed=seed)
    rng = np.random.default_rng(seed)
    return _sampled_pairs(graph.adjacency.a, rng, samples, whole)


class _Recorder:
    """Counts pairs and violations (slack = lhs - rhs > tol) over chunks,
    tracks the largest slack and keeps the first violations found.

    pairs counts the pairs scanned; an exhaustive check scans only the
    rows its per-row pass cannot rule out, and reports all of its
    pairs as instances.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.pairs = 0
        self.count = 0
        self.worst = -math.inf
        self.violations: list[dict] = []

    def scan(self, x: np.ndarray, y: np.ndarray, lhs: np.ndarray,
             rhs: np.ndarray, **tags) -> None:
        slack = lhs - rhs
        self.pairs += slack.size
        self.worst = max(self.worst, float(slack.max()))
        bad = slack > self.tol
        found = int(np.count_nonzero(bad))
        self.count += found
        budget = _MAX_RECORDED_VIOLATIONS - len(self.violations)
        if not found or budget <= 0:
            return
        x, y = np.broadcast_arrays(x, y)  # views: one row pair per index
        # the first `budget` violations lie in the first `budget` rows
        # that hold one: index those rows only, not every violation
        rows = np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1))[:budget]
        first = np.argwhere(bad[rows])[:budget]
        first[:, 0] = rows[first[:, 0]]
        for idx in map(tuple, first.tolist()):
            self.violations.append({
                **tags,
                "X": (np.flatnonzero(x[idx]) + 1).tolist(),
                "Y": (np.flatnonzero(y[idx]) + 1).tolist(),
                "lhs": float(lhs[idx]), "rhs": float(rhs[idx]),
            })

    def report(self, name: str, params: dict, instances: int | None = None,
               *, asserted: bool = True) -> BoundReport:
        """instances defaults to the pairs scanned; max_slack is None
        when there were none or nothing was asserted."""
        params["violation_count"] = self.count
        instances = self.pairs if instances is None else instances
        worst = self.worst if instances and asserted else None
        return BoundReport(name, self.count == 0, instances,
                           tuple(self.violations), worst, params,
                           grid_pairs=self.pairs)


# ---------------------------------------------------------------------------
# Degree/codegree edge-distribution bound
# ---------------------------------------------------------------------------


def _degree_codegree(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum degree and the most common neighbours of two distinct
    vertices, of one adjacency or of each of a stack (..., n, n)."""
    prod = a @ a
    n = a.shape[-1]
    prod[..., range(n), range(n)] = -1.0
    return (a.sum(axis=-1).min(axis=-1),
            np.maximum(prod.max(axis=(-2, -1)), 0.0))  # n = 1: no pair


def thomason_hypotheses(graph: Graph, p: float, mu: float) -> dict:
    """Check min degree >= p*n and pairwise codegree <= p^2*n + mu.

    Comparisons are direct, with no tolerance: a borderline graph that
    misses the threshold by float rounding is skipped rather than
    tested against a conclusion it is not entitled to.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ValueError("mu must be finite and nonnegative")
    n = graph.n
    min_degree, max_codegree = map(int, _degree_codegree(graph.adjacency.a))
    degrees_ok = bool(min_degree >= p * n)
    codegrees_ok = bool(max_codegree <= p * p * n + mu)
    return {
        "min_degree": min_degree,
        "degree_threshold": p * n,
        "degrees_ok": degrees_ok,
        "max_codegree": max_codegree,
        "codegree_threshold": p * p * n + mu,
        "codegrees_ok": codegrees_ok,
        "hold": degrees_ok and codegrees_ok,
    }


def _thomason_lhs(e: np.ndarray, sx: np.ndarray, sy: np.ndarray,
                  p: float) -> np.ndarray:
    """|e - p|X||Y|| from the set sizes, in one fresh array."""
    lhs = p * sx * sy - e
    np.abs(lhs, out=lhs)
    return lhs


def _thomason_rhs(sx: np.ndarray, sy: np.ndarray, n: int, p: float,
                  mu: float) -> np.ndarray:
    """eps(X)*|Y| + sqrt(|X||Y|(pn + mu|X|)) from the set sizes."""
    rhs = sx * sy * (p * n + mu * sx)
    np.sqrt(rhs, out=rhs)
    np.add(rhs, sy, out=rhs, where=p * sx < 1.0)  # eps(X) = 1
    return rhs


def _thomason_bound(e: np.ndarray, x: np.ndarray, y: np.ndarray, p: float,
                    mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of a chunk of pairs (e, x, y)."""
    sx, sy = np.count_nonzero(x, axis=-1), np.count_nonzero(y, axis=-1)
    return (_thomason_lhs(e, sx, sy, p),
            _thomason_rhs(sx, sy, x.shape[-1], p, mu))


def _thomason_rows(extremes: np.ndarray, sx: np.ndarray, p: float,
                   mus: list[float]) -> list[np.ndarray]:
    """For each mu, the largest slack of each X row over every Y, exactly.

    extremes is _prefix_extremes of one graph's column sums, or of a
    stack of graphs on the same vertices, and sx the rows' set sizes.
    For |Y| = k the right side is fixed and the float lhs |c - e| is
    monotone on either side of c, so it peaks at the least or the
    largest e(X, Y) of that size; the sides are the grid's own float
    expressions, so the values are the grid's.  The lhs depends on p
    alone and is formed once for all mus.
    """
    n = extremes.shape[-2]
    sy = np.arange(1.0, n + 1)[:, None]
    lhs = _thomason_lhs(extremes, sx, sy, p).max(axis=0)
    return [(lhs - _thomason_rhs(sx, sy, n, p, mu)).max(axis=-2)
            for mu in mus]


def _thomason_grid(rec: _Recorder, ex: _Exhaustive, rows: np.ndarray,
                   p: float, mu: float, /, **tags) -> None:
    """Scan the X rows `rows` of ex on the grid."""
    for e, x, y in ex.grid(rows):
        rec.scan(x, y, *_thomason_bound(e, x, y, p, mu), **tags)


def _thomason_scan(rec: _Recorder, ex: _Exhaustive, p: float, mu: float, /,
                   **tags) -> None:
    """Record the exhaustive check: the largest slack from the per-row
    pass, the violations from the grid on the rows above tol only
    (Thomason's theorem says there are none)."""
    worst, = _thomason_rows(_prefix_extremes(ex.ax.T), ex.ind.sum(axis=1),
                            p, [mu])
    rec.worst = max(rec.worst, float(worst.max()))
    _thomason_grid(rec, ex, np.flatnonzero(worst > rec.tol), p, mu, **tags)


def thomason_report(graph: Graph, p: float, mu: float, *,
                    mode: str = "auto", samples: int = DEFAULT_SAMPLES,
                    seed: int = 1, tol: float = BOUND_TOL) -> BoundReport:
    """Check |e(X,Y) - p|X||Y|| <= eps|Y| + sqrt(|X||Y|(pn + mu|X|)).

    eps is 1 when p|X| < 1 and 0 otherwise.  When the degree or
    codegree hypotheses fail the report comes back with zero instances
    and params["hypotheses_hold"] = False; that is not a violation.
    """
    _check_mode(mode)
    hyp = thomason_hypotheses(graph, p, mu)
    params: dict = {"p": p, "mu": mu, "n": graph.n, "hypotheses": hyp,
                    "hypotheses_hold": hyp["hold"], "tol": tol}
    name = "thomason_edge_distribution"
    if not hyp["hold"]:
        return BoundReport(name, True, 0, (), None, params)
    rec = _Recorder(tol)
    source = _pairs(graph, mode, samples, seed, params)
    if isinstance(source, _Exhaustive):
        _thomason_scan(rec, source, p, mu)
        return rec.report(name, params, source.pairs)
    for e, x, y in source:
        rec.scan(x, y, *_thomason_bound(e, x, y, p, mu))
    return rec.report(name, params)


def thomason_small_graph_sweep(*, max_n: int = 7,
                               ps: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5,
                                                        0.6, 0.7, 0.8, 0.9),
                               mus: tuple = (0.0, 1.0, "n"),
                               tol: float = BOUND_TOL) -> BoundReport:
    """Run the edge-distribution check on every graph with <= max_n vertices.

    Graphs come from the frozen graph atlas in matdisc.atlas, one per
    isomorphism class (max_n <= 7), so checking one representative covers
    all small graphs: both sides of the inequality are invariant under
    relabeling.  A mu entry equal to the string "n" means mu = n for
    each graph.  Combinations whose hypotheses fail are counted but not
    tested.

    The graphs of one size share their X rows, so the per-row pass runs
    on stacks of _SWEEP_BLOCK graphs at a time: their prefix extremes
    once, the lhs once per p and the rhs once per (p, mu).  The rows
    above tol then go to the grid one combination at a time, in the
    order of a loop over atlas index, then p, then mu entry.
    """
    if not 1 <= max_n <= 7:
        raise ValueError("the graph atlas covers n from 1 to 7")
    combos_held = 0
    instances = 0
    graphs_seen = 0
    rec = _Recorder(tol)
    for n in range(1, max_n + 1):
        indices, adjacency = atlas_adjacencies(n)
        graphs_seen += len(indices)
        ind = _subset_sums(np.eye(n))[1:]  # indicator rows in mask order
        sx = ind.sum(axis=1)
        mu_values = [float(n) if m == "n" else float(m) for m in mus]
        # thomason_hypotheses' comparisons: held[graph, p, mu entry]
        min_degree, max_codegree = _degree_codegree(adjacency)
        degree_cut = np.array([p * n for p in ps])
        codegree_cut = np.array([[p * p * n + mu for mu in mu_values]
                                 for p in ps]).reshape(len(ps), len(mus))
        held = ~((min_degree[:, None, None] < degree_cut[:, None])
                 | (max_codegree[:, None, None] > codegree_cut))
        count = int(np.count_nonzero(held))
        combos_held += count
        instances += count * len(ind) ** 2
        for lo in range(0, len(indices), _SWEEP_BLOCK):
            block = held[lo:lo + _SWEEP_BLOCK]
            # a is symmetric: a @ ind.T holds the column sums of every X
            extremes = _prefix_extremes(adjacency[lo:lo + _SWEEP_BLOCK]
                                        @ ind.T)
            hot = []  # (graph, p entry, mu entry, rows above tol)
            for pi, p in enumerate(ps):
                graphs = np.flatnonzero(block[:, pi].any(axis=1))
                if not graphs.size:
                    continue
                worsts = _thomason_rows(extremes[:, graphs], sx, p, mu_values)
                for mi, worst in enumerate(worsts):
                    keep = block[graphs, pi, mi]
                    if not keep.any():
                        continue
                    kept, worst = graphs[keep], worst[keep]
                    rec.worst = max(rec.worst, float(worst.max()))
                    above = worst > tol
                    for i in np.flatnonzero(above.any(axis=1)).tolist():
                        hot.append((int(kept[i]), pi, mi,
                                    np.flatnonzero(above[i])))
            hot.sort(key=lambda h: h[:3])
            for g, pi, mi, rows in hot:
                _thomason_grid(rec, _Exhaustive(adjacency[lo + g]), rows,
                               ps[pi], mu_values[mi],
                               atlas_index=indices[lo + g], p=ps[pi],
                               mu=mu_values[mi])
    params = {
        "max_n": max_n,
        "ps": list(ps),
        "mus": [str(m) if m == "n" else float(m) for m in mus],
        "graphs_seen": graphs_seen,
        "combinations_with_hypotheses": combos_held,
        "pairs_checked": instances,
        "tol": tol,
    }
    return rec.report("thomason_small_graphs", params, instances)


# ---------------------------------------------------------------------------
# Volume-normalized edge distribution
# ---------------------------------------------------------------------------


def _chung_terms(e: np.ndarray, x: np.ndarray, y: np.ndarray,
                 degs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lhs |e - volX volY / volV| and sqrt(volX volY vol(V-X) vol(V-Y)) / volV."""
    vol_v = float(degs.sum())
    # einsum casts the bool rows a block at a time: no full float copy
    vx, vy = (np.einsum("...j,j->...", s, degs) for s in (x, y))
    lhs = vx * vy / vol_v - e  # reuses the product's buffer
    np.abs(lhs, out=lhs)
    denom = (vx * (vol_v - vx)) * (vy * (vol_v - vy))
    np.sqrt(denom, out=denom)
    denom /= vol_v
    return lhs, denom


def _chung_ratio(lhs: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """lhs / denom, 0 at the identity pairs (denom = 0)."""
    return np.divide(lhs, denom, out=np.zeros_like(lhs), where=denom != 0.0)


def _chung_rows(ex: _Exhaustive, degs: np.ndarray, alpha: float | None,
                tol: float) -> tuple[np.ndarray, int]:
    """The X rows the grid must scan, and the identity pairs of the rest.

    With V = vol V, vX = vol X and w_j = vX d_j / V - e(X, {j}), the w_j
    sum to 0 and lhs = |sum_{j in Y} w_j|, so Cauchy-Schwarz with weights
    d_j bounds every ratio lhs / denom of row X by
    UB_X = sqrt(V sum_{d_j > 0} w_j^2 / d_j / (vX (V - vX))), 0 when
    vX (V - vX) = 0 (then every pair of the row is an identity pair).
    The row of largest UB_X gives a first alpha_min, best0.  A row with
    UB_X below min(best0, alpha) (1 - 1e-9) has every ratio below
    alpha_min and every slack below 0; its pair Y = V has slack 0, as
    every row's does, so it moves nothing unless tol < 0, when every
    row is scanned.  The 1e-9 covers rounding: V w_j is an integer held
    exactly, and up to 14 vertices a float ratio is within a relative
    1e-11 of its true value.
    """
    if tol < 0:
        return np.arange(len(ex.ind)), 0
    vol_v = float(degs.sum())
    vx = ex.ind @ degs
    spread = vx * (vol_v - vx)
    live = spread > 0
    t = vx[:, None] * degs - vol_v * ex.ax  # V w_j
    d = degs > 0
    weighted = (t[:, d] ** 2 / degs[d]).sum(axis=1)
    ub = np.sqrt(np.divide(weighted, spread * vol_v,
                           out=np.zeros_like(weighted), where=live))
    top = int(np.argmax(ub))
    lhs, denom = _chung_terms(ex.ind @ ex.ax[top], ex.ind[top], ex.ind, degs)
    best0 = float(_chung_ratio(lhs, denom).max())
    cut = (best0 if alpha is None else min(best0, alpha)) * (1.0 - 1e-9)
    keep = ub >= cut
    per_row = np.where(live, len(vx) - np.count_nonzero(live), len(vx))
    return np.flatnonzero(keep), int(per_row[~keep].sum())


def chung_alpha_check(graph: Graph, alpha: float | None = None, *,
                      mode: str = "auto", samples: int = DEFAULT_SAMPLES,
                      seed: int = 1, tol: float = BOUND_TOL) -> BoundReport:
    """Check |e(X,Y) - volX volY / volV| against its volume bound.

    The bound is alpha * sqrt(volX volY vol(V-X) vol(V-Y)) / volV.  With
    alpha = None no inequality is asserted; instead the report carries
    params["alpha_min"], the smallest alpha that would make every
    scanned pair satisfy the bound.  Pairs where the right side
    vanishes (X or Y is all of V, or a set of isolated vertices) are
    identity checks: the left side must be 0 there, and for X = V it is
    exactly 0 because e(V, Y) counts vol Y directly.  The exhaustive
    check scans on the grid only the rows _chung_rows keeps.

    For a regular input the report also carries the normalized
    Laplacian gap and its ratio to alpha_min.
    """
    if alpha is not None and not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError("alpha must be finite and nonnegative")
    _check_mode(mode)
    if graph.m == 0:
        raise EmptyGraphError("volume bound needs at least one edge")
    degs = graph.degrees.astype(float)
    params: dict = {"alpha": alpha, "vol_V": float(degs.sum()), "tol": tol}
    rec = _Recorder(tol)
    alpha_min = 0.0
    identity_pairs = 0
    instances = None
    source = _pairs(graph, mode, samples, seed, params, whole=True)
    if isinstance(source, _Exhaustive):
        rows, identity_pairs = _chung_rows(source, degs, alpha, tol)
        instances, source = source.pairs, source.grid(rows)
    for e, x, y in source:
        lhs, denom = _chung_terms(e, x, y, degs)
        zero = denom == 0.0
        identity_pairs += int(np.count_nonzero(zero))
        alpha_min = max(alpha_min, float(_chung_ratio(lhs, denom).max()))
        rhs = (np.where(zero, 0.0, math.inf) if alpha is None
               else np.multiply(denom, alpha, out=denom))
        rec.scan(x, y, lhs, rhs)
        del e, lhs, denom, rhs  # grid-sized: free them before the next chunk
    params.update(alpha_min=alpha_min, identity_pairs=identity_pairs)
    if graph.is_regular() and int(graph.degrees[0]) > 0:
        lam_bar = laplacian_spectrum(graph).lambda_bar
        params["lambda_bar"] = lam_bar
        params["lambda_bar_over_alpha_min"] = (
            lam_bar / alpha_min if alpha_min > 0 else None
        )
    return rec.report("chung_volume_bound", params, instances,
                      asserted=alpha is not None)


# ---------------------------------------------------------------------------
# Scaling behavior across a graph family
# ---------------------------------------------------------------------------


def family_properties(members: list[Graph], *, samples: int = DEFAULT_SAMPLES,
                      seed: int = 1) -> BoundReport:
    """Per-member spectral and discrepancy ratios for a growing family.

    For each member with empirical density p = 2m/n^2, reports
    sigma2/(pn), mu1/(pn) and the sampled discrepancy ratio
    max |e(X,Y) - p|X||Y|| / (p n^2).  The report passes when every
    sigma2 ratio lies in [0.8, 1.2] and the discrepancy ratios
    strictly decrease along the family.
    """
    if len(members) < 3:
        raise FamilyTooSmallError(
            f"need at least 3 members, got {len(members)}"
        )
    ordered = sorted(members, key=lambda g: g.n)
    ns = [g.n for g in ordered]
    if len(set(ns)) != len(ns):
        raise ValueError("family members must have distinct sizes")

    rows = []
    lo, hi = 0.8, 1.2
    window_ok = True
    for idx, g in enumerate(ordered):
        if g.m == 0:
            raise EmptyGraphError("family members must have edges")
        n = g.n
        p = 2.0 * g.m / (n * n)
        pn = p * n
        spec = eig_symmetric(g.adjacency)
        mu1 = float(spec.eigenvalues[0])
        sigma2 = spec.sigma2
        rng = np.random.default_rng([seed, idx])
        disc_ratio = 0.0
        for e, x, y in _sampled_pairs(g.adjacency.a, rng, samples):
            deviation, _ = _thomason_bound(e, x, y, p, 0.0)
            disc_ratio = max(disc_ratio, float(deviation.max()) / (p * n * n))
        sigma2_ratio = sigma2 / pn
        window_ok = window_ok and lo <= sigma2_ratio <= hi
        rows.append({
            "n": n,
            "m": g.m,
            "p": p,
            "pn": pn,
            "mu1": mu1,
            "sigma2": sigma2,
            "mu1_over_pn": mu1 / pn,
            "sigma2_over_pn": sigma2_ratio,
            "disc_ratio": disc_ratio,
        })
    ratios = [r["disc_ratio"] for r in rows]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    params = {
        "members": rows,
        "window": [lo, hi],
        "sigma2_window_ok": window_ok,
        "disc_ratio_decreasing": decreasing,
        "samples": samples,
        "seed": seed,
    }
    return BoundReport("family_scaling", window_ok and decreasing,
                       len(rows), (), None, params)

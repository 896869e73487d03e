"""Shared independent oracles for the test suite.

These deliberately avoid the package's own code paths: the naive
discrepancy search enumerates both subsets directly, the eigenvalue
oracle is a cyclic Jacobi iteration, and the counting helpers use plain
Python loops.  Slow is fine here; they only run on small inputs.
"""

import math

import numpy as np

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # CI runs with --hypothesis-profile ci, so a failure there replays
    # locally with the same examples.
    settings.register_profile("ci", derandomize=True, deadline=None)


def naive_disc(matrix):
    """Brute-force disc over all nonempty subset pairs.

    Returns (value, X, Y) with 1-based sorted witness tuples.  Values
    within 1e-12 * max(1, value) of a maximum tie with it: X is the
    smallest bitmask whose best value ties the overall maximum, and Y
    the smallest bitmask whose value ties the best one for that X,
    matching the documented witness rule of the real engine.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    centered = m - m.mean()
    masks = range(1, 1 << n)
    ind = np.array([[(mask >> i) & 1 for i in range(n)] for mask in masks],
                   dtype=float)
    sizes = ind.sum(axis=1)
    # table[x - 1, y - 1]: the defining expression at bitmasks x and y
    table = np.abs(ind @ centered @ ind.T) / np.sqrt(np.outer(sizes, sizes))
    row_best = table.max(axis=1)
    best = float(row_best.max())
    x = int(np.flatnonzero(row_best >= best - 1e-12 * max(1.0, best))[0])
    cut = row_best[x] - 1e-12 * max(1.0, row_best[x])
    y = int(np.flatnonzero(table[x] >= cut)[0])
    return (best,
            tuple(i + 1 for i in range(n) if ind[x, i]),
            tuple(j + 1 for j in range(n) if ind[y, j]))


def reference_subset_sums(rows):
    """The full 2^b x n table of subset sums of b rows, indexed by
    bitmask and built by doubling: the table the exact scan used to keep
    for every search, and the one its half tables and norms must match."""
    rows = np.asarray(rows, dtype=float)
    out = np.zeros((1 << len(rows),) + rows.shape[1:])
    for k, row in enumerate(rows):
        half = 1 << k
        out[half:2 * half] = out[:half] + row
    return out


def naive_disc1(adjacency):
    """Brute-force single-set discrepancy of a graph adjacency matrix."""
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    edges = a.sum() / 2.0
    rho = 2.0 * edges / (n * (n - 1)) if n >= 2 else 0.0
    best = -1.0
    best_x = None
    for xmask in range(1, 1 << n):
        xs = [i for i in range(n) if (xmask >> i) & 1]
        k = len(xs)
        inside = a[np.ix_(xs, xs)].sum() / 2.0
        value = abs(inside - rho * k * (k - 1) / 2.0) / k
        if value > best:
            best = value
            best_x = xs
    return best, tuple(i + 1 for i in best_x)


def jacobi_eigenvalues(matrix, sweeps=60, tol=1e-13):
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = math.sqrt(max(0.0, (a * a).sum() - (np.diagonal(a) ** 2).sum()))
        if off <= tol * max(1.0, np.abs(np.diagonal(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diagonal(a))[::-1].copy()


def squares_degree(p, t):
    """Number of w in 1..p-1 whose square mod p is at most t."""
    return sum(1 for w in range(1, p) if (w * w) % p <= t)


def direct_rayleigh(matrix, vector):
    """Rayleigh quotient accumulated entry by entry with fsum."""
    a = np.asarray(matrix, dtype=float)
    y = np.asarray(vector, dtype=float)
    n = a.shape[0]
    num = math.fsum(a[i, j] * y[i] * y[j]
                    for i in range(n) for j in range(n))
    den = math.fsum(v * v for v in y)
    return num / den


def dense_codegrees(adjacency):
    """Off-diagonal entries of A @ A, row by row: the codegree of every
    ordered pair of distinct vertices."""
    a = np.asarray(adjacency, dtype=float)
    return (a @ a)[~np.eye(a.shape[0], dtype=bool)]


def reference_vertex_indices(labels, n):
    """0-based indices of 1-based vertex labels by membership in 1..n."""
    a = np.asarray(labels)
    if a.dtype.kind not in "iuf" or not np.isin(a, np.arange(1, n + 1)).all():
        raise ValueError(f"vertex labels must be integers in 1..{n}")
    return a.astype(np.intp) - 1


def reference_quantize_nonneg(v, stage_epsilon, cap, p):
    """Greedy bucket quantizer with one searchsorted per bucket and the
    distinct values counted by np.unique on the quantized vector.

    Same contract as quantization._quantize_nonneg: returns (values,
    repairs) and raises InvariantError when no repair fits the budget.
    """
    from matdisc.errors import InvariantError

    def p_norm(w):
        return float(np.sum(np.abs(w) ** p) ** (1.0 / p))

    order = np.argsort(-v, kind="stable")
    sorted_desc = v[order]
    neg = -sorted_desc
    stops = [0]
    while stops[-1] < v.size and len(stops) <= cap:
        threshold = (1.0 - stage_epsilon / 2.0) * neg[stops[-1]]
        stops.append(int(np.searchsorted(neg, threshold, side="right")))
    levels = np.append(sorted_desc[np.subtract(stops[1:], 1)], 0.0)
    widths = np.diff(stops + [v.size])
    quantized = np.repeat(levels, widths)
    repairs = int(len(np.unique(quantized)) > cap)
    if repairs:
        for k in range(len(stops) - 2, -1, -1):
            edited = levels.copy()
            edited[k] = levels[k + 1]
            cand = np.repeat(edited, widths)
            if len(np.unique(cand)) <= cap and (
                p_norm(sorted_desc - cand) <= stage_epsilon
            ):
                break
        else:
            raise InvariantError("bucket repair failed to reach the value budget")
        quantized = cand
    out = np.zeros_like(v)
    out[order] = quantized
    return out, repairs


def reference_write_graph(graph, path):
    """The 'graph' text format as np.savetxt writes it: the header line
    'graph <n> <m>', then one '%d %d' row per pair of graph.edges."""
    pairs = np.array(graph.edges, dtype=np.int64).reshape(-1, 2)
    np.savetxt(path, pairs, fmt="%d", header=f"graph {graph.n} {graph.m}",
               comments="")


def count_edges_between(adjacency, xs, ys):
    """Ordered-pair edge count between two 1-based vertex collections."""
    a = np.asarray(adjacency)
    return int(sum(a[x - 1, y - 1] for x in xs for y in ys))


def _grid_chunks(adjacency, chunk=2048, block=512):
    """Every nonempty X against chunks of `chunk` Y sets, both in mask
    order: (e, x, y) with e[i, j] = e(X_i, Y_j), x of shape (rows, 1, n)
    and y of shape (1, chunk, n).  Each Y chunk is met by blocks of
    `block` X rows in turn, which keeps the order of the pairs and
    bounds memory."""
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    masks = np.arange(1, 1 << n)
    ind = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    ax = ind @ a
    for lo in range(0, len(masks), chunk):
        y = ind[lo:lo + chunk]
        for top in range(0, len(masks), block):
            yield (ax[top:top + block] @ y.T, ind[top:top + block, None],
                   y[None])


def _grid_scan(chunks, sides, tol, limit=100):
    """Slack lhs - rhs of every pair, chunk by chunk: the pair count, the
    violation count (slack > tol), the first `limit` violations in chunk
    order (row-major within a chunk) and the largest slack."""
    pairs = count = 0
    worst = -math.inf
    violations = []
    for e, x, y in chunks:
        lhs, rhs = sides(e, x, y)
        slack = lhs - rhs
        pairs += slack.size
        worst = max(worst, float(slack.max()))
        bad = slack > tol
        count += int(np.count_nonzero(bad))
        x, y = np.broadcast_arrays(x, y)
        for idx in map(tuple, np.argwhere(bad)[:limit - len(violations)]):
            violations.append({
                "X": (np.flatnonzero(x[idx]) + 1).tolist(),
                "Y": (np.flatnonzero(y[idx]) + 1).tolist(),
                "lhs": float(lhs[idx]), "rhs": float(rhs[idx]),
            })
    return pairs, count, worst, violations


def grid_thomason(adjacency, p, mu, tol):
    """The full-grid Thomason scan: instances, violation_count, the first
    100 violations and max_slack, with the slack of every pair formed
    from |e - p|X||Y|| and eps(X)|Y| + sqrt(|X||Y|(pn + mu|X|))."""
    n = np.asarray(adjacency).shape[0]

    def sides(e, x, y):
        sx, sy = x.sum(axis=-1), y.sum(axis=-1)
        lhs = np.abs(p * sx * sy - e)
        rhs = np.sqrt(sx * sy * (p * n + mu * sx))
        return lhs, np.where(p * sx < 1.0, rhs + sy, rhs)

    pairs, count, worst, violations = _grid_scan(
        _grid_chunks(adjacency), sides, tol)
    return {"instances": pairs, "violation_count": count,
            "violations": violations, "max_slack": worst}


def grid_chung(adjacency, alpha, tol):
    """The full-grid Chung scan: instances, violation_count, the first
    100 violations, max_slack (None without alpha), alpha_min (the
    largest lhs / denom off the identity pairs) and identity_pairs
    (denom = 0)."""
    a = np.asarray(adjacency, dtype=float)
    degs = a.sum(axis=1)
    vol_v = degs.sum()
    alpha_min, identity = 0.0, 0

    def sides(e, x, y):
        nonlocal alpha_min, identity
        vx, vy = x @ degs, y @ degs
        lhs = np.abs(vx * vy / vol_v - e)
        denom = np.sqrt((vx * (vol_v - vx)) * (vy * (vol_v - vy))) / vol_v
        zero = denom == 0.0
        identity += int(np.count_nonzero(zero))
        ratio = np.divide(lhs, denom, out=np.zeros_like(lhs), where=~zero)
        alpha_min = max(alpha_min, float(ratio.max()))
        rhs = np.where(zero, 0.0, math.inf) if alpha is None else denom * alpha
        return lhs, rhs

    pairs, count, worst, violations = _grid_scan(
        _grid_chunks(a), sides, tol)
    return {"instances": pairs, "violation_count": count,
            "violations": violations,
            "max_slack": None if alpha is None else worst,
            "alpha_min": alpha_min, "identity_pairs": identity}

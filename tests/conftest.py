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


def naive_pair_table(centered):
    """(ind, table): the indicator rows of every nonempty subset in mask
    order, and table[x - 1, y - 1], the defining expression of the
    (already centred) matrix at bitmasks x and y."""
    n = centered.shape[0]
    masks = range(1, 1 << n)
    ind = np.array([[(mask >> i) & 1 for i in range(n)] for mask in masks],
                   dtype=float)
    sizes = ind.sum(axis=1)
    table = np.abs(ind @ centered @ ind.T) / np.sqrt(np.outer(sizes, sizes))
    return ind, table


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
    ind, table = naive_pair_table(m - m.mean())
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


def _reference_best_extension(free, fixed, count):
    """max |fixed + sum_T free| / sqrt(count + |T|) over T with count + |T| >= 1.

    For each |T| the extremes are the |T| smallest or largest entries.
    """
    srt = np.sort(free)
    lo = fixed + np.concatenate(([0.0], np.cumsum(srt)))
    hi = fixed + np.concatenate(([0.0], np.cumsum(srt[::-1])))
    size = count + np.arange(free.size + 1)
    ok = size > 0
    if not ok.any():
        return -math.inf
    return float((np.maximum(np.abs(lo), np.abs(hi))[ok] / np.sqrt(size[ok])).max())


def reference_best_y_for_x(M, xmask):
    """The smallest ymask whose value ties the best Y for a fixed X, one
    sort and two cumsums of s[:j] per bit: the oracle for the exact
    search's witness pass, which keeps one sorted list of s[:j] instead.

    Decides the bits from the highest down: a bit stays clear when the
    lower bits can still reach the tie floor without it.
    """
    from matdisc.discrepancy import _tie_floor

    n = M.shape[0]
    xs = [j for j in range(n) if (xmask >> j) & 1]
    s = M[xs].sum(axis=0)
    root = math.sqrt(len(xs))
    cut = _tie_floor(_reference_best_extension(s, 0.0, 0) / root) * root
    ymask, fixed, count = 0, 0.0, 0
    for j in range(n - 1, -1, -1):
        if _reference_best_extension(s[:j], fixed, count) < cut:
            ymask |= 1 << j
            fixed += float(s[j])
            count += 1
    return ymask


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


def _reference_p_norm(v, p):
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def reference_quantize(x, p, epsilon):
    """quantization.quantize as it was before its call path was cut: an
    astype copy of the input, np.abs taken twice, np.sum in every norm,
    with the bucket walk of reference_quantize_nonneg (which the
    package's walk matches bit for bit, tests/test_quantization_properties.py)."""
    from matdisc import quantization as qz
    from matdisc.errors import BadEpsilonError, InvariantError, NotNormalizedError

    if not 0.0 < epsilon < 1.0:
        raise BadEpsilonError(f"epsilon must lie in (0, 1), got {epsilon}")
    if p < 1.0:
        raise ValueError(f"norm order must be >= 1, got {p}")
    xv = np.asarray(x)
    if np.iscomplexobj(xv):
        xv = xv.astype(np.complex128).reshape(-1)
    else:
        xv = xv.astype(np.float64).reshape(-1)
    n = xv.shape[0]
    if n < 1:
        raise ValueError("vector must be nonempty")
    norm = _reference_p_norm(xv, p)
    if not abs(norm - 1.0) <= 1e-12:
        raise NotNormalizedError(f"input must be a unit vector in p-norm, got {norm}")

    if not np.iscomplexobj(xv) and bool(np.all(xv >= 0.0)):
        case = "nonnegative"
        ceiling = qz.nonneg_value_ceiling(n, epsilon)
        y, repairs = reference_quantize_nonneg(xv, epsilon, ceiling, p)
    else:
        ceiling = qz.complex_value_ceiling(n, epsilon)
        moduli_cap = math.ceil((4.0 / epsilon) * math.log(4.0 * n / epsilon))
        q, repairs = reference_quantize_nonneg(np.abs(xv), epsilon / 2.0,
                                               moduli_cap, p)
        if not np.iscomplexobj(xv):
            case = "signed"
            y = np.where(xv < 0.0, -q, q)
        else:
            case = "complex"
            phase_slots = math.ceil(8.0 * math.pi / epsilon)
            theta = np.angle(xv) / (2.0 * math.pi)
            theta = np.where(theta < 0.0, theta + 1.0, theta)
            theta[np.abs(xv) == 0.0] = 0.0
            grid = np.floor(phase_slots * theta) / phase_slots
            y = q * np.exp(2.0j * math.pi * grid)

    y = y + 0.0  # every zero +0.0, in either part
    distinct = tuple(np.unique(y).tolist())
    if len(distinct) > ceiling:
        raise InvariantError(
            f"quantizer exceeded its value budget: {len(distinct)} > {ceiling}"
        )
    error = _reference_p_norm(xv - y, p)
    y = y.copy()
    y.setflags(write=False)
    return qz.QuantizedVector(
        y=y,
        distinct_values=distinct,
        epsilon=epsilon,
        p_norm=p,
        case=case,
        value_ceiling=ceiling,
        error=error,
        repairs=repairs,
    )


def reference_small_graph_sweep(*, max_n=7,
                                ps=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                    0.9),
                                mus=(0.0, 1.0, "n"), tol=1e-8):
    """thomason_small_graph_sweep as one per-row pass and grid per
    (graph, p, mu entry): a loop over the atlas graphs, then p, then mu,
    on the package's single-graph _Exhaustive, _thomason_scan and
    _Recorder."""
    import itertools

    from matdisc.atlas import atlas_adjacencies
    from matdisc.spectral import _Exhaustive, _Recorder, _thomason_scan

    if not 1 <= max_n <= 7:
        raise ValueError("the graph atlas covers n from 1 to 7")
    atlas = [(index, a) for n in range(1, max_n + 1)
             for index, a in zip(*atlas_adjacencies(n))]
    combos_held = 0
    instances = 0
    rec = _Recorder(tol)
    for index, a in atlas:
        n = a.shape[0]
        prod = a @ a
        np.fill_diagonal(prod, -1.0)
        min_degree = int(a.sum(axis=1).min())
        max_codegree = max(int(prod.max()), 0)
        ex = None
        for p, mu_spec in itertools.product(ps, mus):
            mu = float(n) if mu_spec == "n" else float(mu_spec)
            if min_degree < p * n or max_codegree > p * p * n + mu:
                continue
            combos_held += 1
            ex = ex or _Exhaustive(a)
            instances += ex.pairs
            _thomason_scan(rec, ex, p, mu, atlas_index=index, p=p, mu=mu)
    params = {
        "max_n": max_n,
        "ps": list(ps),
        "mus": [str(m) if m == "n" else float(m) for m in mus],
        "graphs_seen": len(atlas),
        "combinations_with_hypotheses": combos_held,
        "pairs_checked": instances,
        "tol": tol,
    }
    return rec.report("thomason_small_graphs", params, instances)


def rank_one_disc(matrix):
    """disc of a symmetric matrix of rank one, s v v^T with s = +-1, in
    O(n log n): |v(X)| |v(Y)| / sqrt(|X| |Y|) splits into one factor per
    set, and the largest factor of size m sums the m largest or the m
    smallest entries of v.  Raises ValueError when the matrix is not
    s v v^T to 1e-12 of its largest entry."""
    m = np.asarray(matrix, dtype=float)
    i = int(np.argmax(np.abs(np.diagonal(m))))
    v = m[:, i] / math.sqrt(abs(m[i, i]))
    if not np.allclose(m, np.sign(m[i, i]) * np.outer(v, v), rtol=0.0,
                       atol=1e-12 * np.abs(m).max()):
        raise ValueError("matrix is not of rank one")
    srt = np.sort(v)
    sizes = np.arange(1, v.size + 1)
    factor = np.maximum(np.abs(np.cumsum(srt)),
                        np.abs(np.cumsum(srt[::-1]))) / np.sqrt(sizes)
    return float(factor.max()) ** 2


def reference_write_graph(graph, path):
    """The 'graph' text format as np.savetxt writes it: the header line
    'graph <n> <m>', then one '%d %d' row per pair of graph.edges."""
    pairs = np.array(graph.edges, dtype=np.int64).reshape(-1, 2)
    np.savetxt(path, pairs, fmt="%d", header=f"graph {graph.n} {graph.m}",
               comments="")


def reference_draw_subsets(rng, n, count):
    """The sampled subset rows by their documented rule, one row at a time.

    Sizes k are exp(uniform[0, log(n + 1))) truncated and clipped to
    [1, n].  Row r then reads ceil(n / 4) raw words, key j being
    (w >> 16 (j mod 4)) & 0xFFFF of its word j // 4, and takes every key
    below its k-th smallest value; all the keys on that value as well,
    unless the (k+1)-th smallest value is the same.  Such tied rows, in
    order, then read one fresh raw word per position on the tied value,
    and their missing members are the tied positions with the smallest
    (fresh word, position) pairs, compared as Python integers.
    """
    sizes = np.exp(rng.uniform(0.0, math.log(n + 1), count)).astype(np.int64)
    np.clip(sizes, 1, n, out=sizes)
    words = rng.bit_generator.random_raw((count, (n + 3) // 4))
    j = np.arange(n)
    shifts = (16 * (j % 4)).astype(np.uint64)
    rows = np.zeros((count, n), dtype=bool)
    tied = []
    for r in range(count):
        k = int(sizes[r])
        keys = (words[r, j // 4] >> shifts) & np.uint64(0xFFFF)
        ranked = np.sort(keys)
        on_kth = np.flatnonzero(keys == ranked[k - 1])
        rows[r] = keys < ranked[k - 1]
        if k < n and ranked[k] == ranked[k - 1]:
            tied.append((r, on_kth, k - int(rows[r].sum())))
        else:
            rows[r, on_kth] = True
    for r, on_kth, need in tied:
        fresh = rng.bit_generator.random_raw(len(on_kth))
        ranked = sorted(zip(map(int, fresh), on_kth.tolist()))
        rows[r, [pos for _, pos in ranked[:need]]] = True
    return rows


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

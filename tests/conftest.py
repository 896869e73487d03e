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


def count_edges_between(adjacency, xs, ys):
    """Ordered-pair edge count between two 1-based vertex collections."""
    a = np.asarray(adjacency)
    return int(sum(a[x - 1, y - 1] for x in xs for y in ys))

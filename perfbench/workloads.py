"""Seeded input generation and operation schedules for the four workloads.

Everything here uses numpy only, never matdisc, so the inputs a run
feeds to the program do not depend on the program version under test.

A plan is a JSON-safe dict:

  warmup    one operation, run once before timing (part of set-up)
  cycle     the timed operations, repeated in order until time is up
  speedup   exact-mode inputs that the traced run scans twice, at the
            default --threads and at --threads 1

Each operation is {"argv": [...], "check": {...}}: the argv goes to
matdisc.cli.main unchanged, and the check dict tells the oracles what
the output must satisfy.

Sizes and command mixes are fixed per workload; the seed only changes
matrix entries, graph thresholds, permutations and search seeds.  A run
repeats whole cycles until --seconds have passed, and every cycle of
the workloads in BENCHMARK.json lasts about 20 to 50 s on a 2-CPU host,
so at the default 8 s a run is one cycle and its mix of operations is
the same every time.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: the workloads of BENCHMARK.json
WORKLOADS = ("exact-small", "graph-checks", "paper-suite")
#: runnable by name and traced like the others, but not in BENCHMARK.json:
#: on a shared 2-CPU VM its timings swung by more than the 25% bound
#: between runs of the same code (see README.md, "Noise on a shared host")
EXTRA_WORKLOADS = ("heuristic-large",)

#: exact-small inputs are drawn from this many seed classes, so that every
#: exact value has a frozen reference (see references/exact-small.json)
EXACT_POOL = 32

#: values of n (and how many operations of each) in one exact-small cycle.
#: The counts put the median inside the n = 17 scans and the 11th-largest
#: latency inside the n = 19 scans, away from the jumps between sizes.
EXACT_COUNTS = {14: 6, 15: 6, 16: 15, 17: 24, 18: 15, 19: 12, 20: 4, 21: 2, 22: 1}
EXACT_TAIL = (20, 21, 20, 21, 22)
EXACT_COUNTS_TINY = {6: 2, 7: 2, 8: 4, 9: 2, 10: 2}
EXACT_TAIL_TINY = (10,)

MATRIX_KINDS = ("gauss", "unif", "binary", "tight")
HEURISTIC_ITERS = 16
#: graph-checks thresholds as fractions of p, one block of operations each
GRAPH_BLOCKS = ((1, 4), (1, 2), (3, 8), (1, 3))
#: paper-suite: suites a cycle, the step between their master seeds, and
#: the master seed of the warm-up
SUITES_PER_CYCLE = 3
SUITE_SEED_STEP = 50_000
SUITE_WARMUP_SEED = 0


# ---------------------------------------------------------------------------
# File writers and generators
# ---------------------------------------------------------------------------


def write_sym(path: Path, a: np.ndarray) -> None:
    """The 'sym <n>' text format with round-trip precision."""
    lines = [f"sym {a.shape[0]}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in a]
    path.write_text("\n".join(lines) + "\n")


def write_edges(path: Path, n: int, adj: np.ndarray) -> None:
    """The 'graph <n> <m>' text format from a 0/1 adjacency."""
    rows, cols = np.nonzero(np.triu(adj, k=1))
    lines = [f"graph {n} {rows.size}"]
    lines += [f"{r + 1} {c + 1}" for r, c in zip(rows.tolist(), cols.tolist())]
    path.write_text("\n".join(lines) + "\n")


def random_symmetric(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "gauss":
        m = rng.normal(size=(n, n))
        return (m + m.T) / 2.0
    if kind == "unif":
        m = rng.uniform(-1.0, 1.0, size=(n, n))
        return (m + m.T) / 2.0
    if kind == "binary":
        upper = np.triu((rng.random((n, n)) < 0.5).astype(float), k=1)
        return upper + upper.T
    raise ValueError(f"unknown matrix kind {kind!r}")


def tightness(k: int) -> np.ndarray:
    """[[E+P, E-P], [E-P, E+P]] with P = w w^T, w_i = 1/sqrt(i)."""
    w = 1.0 / np.sqrt(np.arange(1, k + 1, dtype=float))
    p = np.outer(w, w)
    e = np.ones((k, k))
    return np.block([[e + p, e - p], [e - p, e + p]])


def qpt_adjacency(p: int, t: int) -> np.ndarray:
    """Q(p, t): u ~ v iff (u - v)^2 mod p <= t, no loops."""
    idx = np.arange(p, dtype=np.int64)
    diff = idx[:, None] - idx[None, :]
    adj = ((diff * diff) % p) <= t
    np.fill_diagonal(adj, False)
    return adj.astype(float)


def block_adjacency(p: int) -> np.ndarray:
    """The 2kp x 2kp block matrix of Q(p, t) blocks and their complements.

    k is the least integer with k^5 >= p; block (i, j) uses the threshold
    whose degree is the achievable degree closest to p/2 + p/(2 sqrt(ij)),
    the smaller one on ties.
    """
    k = 1
    while k ** 5 < p:
        k += 1
    w = np.arange(1, p, dtype=np.int64)
    residues = np.sort((w * w) % p)
    degree_by_t = np.searchsorted(residues, np.arange(1, p + 1), side="right")
    achievable, first_t = np.unique(degree_by_t, return_index=True)
    grid = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            target = p / 2.0 + p / (2.0 * math.sqrt(i * j))
            at = int(np.argmin(np.abs(achievable - target)))
            row.append(qpt_adjacency(p, int(first_t[at]) + 1))
        grid.append(row)
    inner = np.block(grid)
    comp = 1.0 - inner
    return np.block([[inner, comp], [comp, inner]])


def gnp_with_min_degree(rng: np.random.Generator, n: int, prob: float,
                        min_degree: int) -> np.ndarray:
    """Binomial random graph, redrawn until every degree is >= min_degree."""
    while True:
        upper = np.triu((rng.random((n, n)) < prob).astype(float), k=1)
        adj = upper + upper.T
        if adj.sum(axis=1).min() >= min_degree:
            return adj


def thomason_params(adj: np.ndarray) -> tuple[float, float]:
    """(p, mu) with min degree >= p n and every codegree <= p^2 n + mu."""
    n = adj.shape[0]
    p = (adj.sum(axis=1).min() - 0.5) / n
    prod = adj @ adj
    np.fill_diagonal(prod, -1.0)
    mu = max(0.5, float(prod.max()) - p * p * n + 0.5)
    return float(p), float(mu)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def _matrix_op(command: str, path: Path, n: int, mode: str, *,
               tight_k: int | None = None, heur_seed: int | None = None) -> dict:
    argv = [command, str(path)]
    if mode == "heuristic":
        argv += ["--heuristic", "--seed", str(heur_seed),
                 "--iters", str(HEURISTIC_ITERS)]
    return {"argv": argv, "check": {"kind": command, "mode": mode,
                                    "input": str(path), "n": n,
                                    "tight_k": tight_k}}


def _exact_plan(seed: int, work: Path, tiny: bool) -> dict:
    counts = EXACT_COUNTS_TINY if tiny else EXACT_COUNTS
    tail = EXACT_TAIL_TINY if tiny else EXACT_TAIL
    pool = seed % EXACT_POOL
    sizes = [n for n, c in counts.items() for _ in range(c)]
    for n in tail:
        sizes.remove(n)
    order = np.random.default_rng(20040409).permutation(len(sizes))
    sizes = [sizes[i] for i in order] + list(tail)

    def make(slot: int, n: int, kind: str) -> tuple[Path, int | None]:
        path = work / f"exact-{slot:02d}-{kind}-{n}.txt"
        if kind == "tight":
            write_sym(path, tightness(n // 2))
            return path, n // 2
        rng = np.random.default_rng([1, pool, slot])
        write_sym(path, random_symmetric(rng, n, kind))
        return path, None

    cycle = []
    kind_at = 0
    for slot, n in enumerate(sizes):
        kind = MATRIX_KINDS[kind_at % len(MATRIX_KINDS)]
        if kind == "tight" and n % 2:
            kind_at += 1
            kind = MATRIX_KINDS[kind_at % len(MATRIX_KINDS)]
        kind_at += 1
        path, k = make(slot, n, kind)
        command = "analyze" if slot % 2 == 0 else "certify"
        cycle.append(_matrix_op(command, path, n, "exact", tight_k=k))
    warm_n = min(counts)
    warm_path, _ = make(99, warm_n, "gauss")
    speedup_sizes = (10,) if tiny else (18, 20)
    speedup = []
    for n in speedup_sizes:
        op = next(op for op in cycle if op["check"]["n"] == n)
        speedup.append(_matrix_op("analyze", Path(op["check"]["input"]), n,
                                  "exact", tight_k=op["check"]["tight_k"]))
    return {"warmup": _matrix_op("analyze", warm_path, warm_n, "exact"),
            "cycle": cycle, "speedup": speedup}


def _heuristic_plan(seed: int, work: Path, tiny: bool) -> dict:
    """Block matrices (relabelled by a seeded permutation) and random ones.

    --iters 16 (a quarter of the default restarts) keeps each operation
    near 0.2 to 1.2 s, so a cycle holds 30 of them: at the default 64 a
    cycle of the same length holds 8, its "tail" is its single slowest
    operation, and run-to-run noise on one operation decides it.
    """
    items = [("analyze", "block", 13), ("certify", "gauss", 48),
             ("analyze", "block", 17), ("analyze", "unif", 64),
             ("analyze", "block", 19), ("certify", "block", 19),
             ("certify", "unif", 64), ("certify", "binary", 80),
             ("certify", "block", 23), ("analyze", "gauss", 96)]
    if tiny:
        items = [("analyze", "block", 5), ("certify", "gauss", 12),
                 ("certify", "block", 5), ("analyze", "binary", 14)]
    cycle = []
    for slot, (command, kind, size) in enumerate(items * (1 if tiny else 3)):
        rng = np.random.default_rng([2, seed, slot])
        if kind == "block":
            a = block_adjacency(size)
            perm = rng.permutation(a.shape[0])
            a = a[np.ix_(perm, perm)]
        else:
            a = random_symmetric(rng, size, kind)
        path = work / f"heur-{slot:02d}-{kind}-{size}.txt"
        write_sym(path, a)
        heur_seed = int(rng.integers(1, 2 ** 31))
        cycle.append(_matrix_op(command, path, a.shape[0], "heuristic",
                                heur_seed=heur_seed))
    return {"warmup": cycle[0], "cycle": cycle, "speedup": []}


def _graph_plan(seed: int, work: Path, tiny: bool) -> dict:
    primes = (17, 29, 37) if tiny else (101, 199, 499)
    small_ns = (6, 7, 8) if tiny else (10, 11, 12)
    samples = 200 if tiny else None
    family_sizes = (40, 80, 160) if tiny else (50, 100, 200)
    family_samples = 500 if tiny else None

    # Four blocks put about 25 operations of 0.6 s or more in a cycle, so
    # the 11th-largest latency (op_tail_s) falls inside that group rather
    # than on its lower edge, where the order of two op types decides it.
    cycle = []
    blocks = GRAPH_BLOCKS[:1] if tiny else GRAPH_BLOCKS
    for block, (num, den) in enumerate(blocks):
        rng = np.random.default_rng([3, seed, block])
        qfiles = {}
        for p in primes:
            # fixed thresholds (up to 64k edges at p = 499); the seed
            # relabels the vertices, which keeps the cost fixed
            t = num * p // den
            perm = rng.permutation(p)
            adj = qpt_adjacency(p, t)[np.ix_(perm, perm)]
            path = work / f"qpt-{block}-{p}-{t}.txt"
            write_edges(path, p, adj)
            qfiles[p] = (path, adj)
        gfiles = {}
        for n in small_ns:
            adj = gnp_with_min_degree(rng, n, 0.6, 2)
            path = work / f"gnp-{block}-{n}.txt"
            write_edges(path, n, adj)
            gfiles[n] = (path, adj)

        def construct(p: int) -> dict:
            t = num * p // den + int(rng.integers(0, 5))
            out = work / f"construct-{block}-{p}.txt"
            return {"argv": ["construct", "qpt", "--p", str(p), "--t", str(t),
                             "-o", str(out)],
                    "check": {"kind": "construct_qpt", "p": p, "t": t,
                              "output": str(out)}}

        def verify(which: str, path: Path, adj: np.ndarray, mode: str) -> dict:
            n = adj.shape[0]
            vseed = int(rng.integers(1, 2 ** 31))
            argv = ["verify", which, "--input", str(path), "--seed", str(vseed)]
            check = {"kind": which, "mode": mode, "input": str(path), "n": n}
            if which == "thomason":
                p, mu = thomason_params(adj)
                argv += ["--p", repr(p), "--mu", repr(mu)]
                check.update(p=p, mu=mu)
            if mode == "sampled":
                argv += ["--samples", str(samples)] if samples else []
                check["samples"] = samples or 10_000
            return {"argv": argv, "check": check}

        # the workload seed itself: verify family passed on seeds 0..59
        family_argv = ["verify", "family", "--seed", str(seed),
                       "--sizes", ",".join(map(str, family_sizes))]
        if family_samples:
            family_argv += ["--samples", str(family_samples)]
        family = {"argv": family_argv,
                  "check": {"kind": "family", "sizes": list(family_sizes),
                            "seed": seed}}
        p0, p1, p2 = primes
        n0, n1, n2 = small_ns
        cycle += [
            construct(p0),
            verify("chung", *qfiles[p0], "sampled"),
            verify("thomason", *gfiles[n0], "exhaustive"),
            verify("thomason", *qfiles[p1], "sampled"),
            verify("chung", *gfiles[n1], "exhaustive"),
            construct(p2),
            verify("chung", *qfiles[p2], "sampled"),
            family,
            verify("thomason", *qfiles[p0], "sampled"),
            verify("chung", *gfiles[n2], "exhaustive"),
            construct(p1),
            verify("chung", *qfiles[p1], "sampled"),
            verify("thomason", *gfiles[n1], "exhaustive"),
            verify("thomason", *qfiles[p2], "sampled"),
            verify("chung", *gfiles[n0], "exhaustive"),
            verify("thomason", *gfiles[n2], "exhaustive"),
        ]
    warm = next(op for op in cycle if op["check"]["kind"] == "construct_qpt")
    return {"warmup": warm, "cycle": cycle, "speedup": []}


def _suite_plan(seed: int, work: Path, tiny: bool) -> dict:
    """Three suites a cycle, master seeds taken from the workload seed.

    One suite lasts 11 to 17 s on a 2-CPU VM whose speed swings by 20%
    over tens of seconds; a run of one suite measured the host's speed
    in those seconds alone, so a cycle holds three.  The warm-up is a
    quick suite at a fixed master seed: at the quick settings the
    statistical sparse_family check fails for some seeds (18 among 0 to
    25), and the warm-up only has to load the code.
    """
    def suite(master: int, *extra: str) -> dict:
        return {"argv": ["verify", "paper-suite", "--seed", str(master), *extra],
                "check": {"kind": "suite", "seed": master}}

    smoke = ("--quick", "--max-p", "13")
    if tiny:
        cycle = [suite(seed, *smoke, "--max-k", "8")]
    else:
        cycle = [suite(seed + i * SUITE_SEED_STEP)
                 for i in range(SUITES_PER_CYCLE)]
    warm = suite(SUITE_WARMUP_SEED, *smoke, "--max-k", "4")
    return {"warmup": warm, "cycle": cycle, "speedup": []}


_PLANS = {
    "exact-small": _exact_plan,
    "heuristic-large": _heuristic_plan,
    "graph-checks": _graph_plan,
    "paper-suite": _suite_plan,
}


def build_plan(workload: str, seed: int, work: Path, tiny: bool = False) -> dict:
    """Write the workload's input files under `work` and return its plan."""
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}")
    work.mkdir(parents=True, exist_ok=True)
    plan = _PLANS[workload](seed, work, tiny)
    plan.update(workload=workload, seed=seed, tiny=tiny)
    return plan

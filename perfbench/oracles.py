"""Output checks for every benchmark operation.

The checks recompute what they can with plain numpy instead of calling
the code path under test: witness values from the defining expression,
singular values with numpy.linalg.eigvalsh, graph facts by direct
counting.  Exact discrepancy values are compared with a brute-force
search for n <= 11, with the closed form for tightness inputs up to
k = 8, and otherwise with values frozen in references/exact-small.json.

check(op_check, code, stdout) returns None when the output is right and
a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
LINK_TOL = 1e-8
BRUTE_FORCE_MAX_N = 11
STRUCTURED_MAX_K = 8
REFERENCE_FILE = Path(__file__).resolve().parent / "references" / "exact-small.json"


@lru_cache(maxsize=None)
def _references() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text())["values"]


@lru_cache(maxsize=256)
def read_sym(path: str) -> np.ndarray:
    """A 'sym' file as a read-only array (cached: files repeat in a cycle)."""
    tokens = Path(path).read_text().split()
    n = int(tokens[1])
    a = np.array(tokens[2:], dtype=float).reshape(n, n)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=256)
def read_edges(path: str) -> np.ndarray:
    """A 'graph' file as a read-only 0/1 adjacency array (cached)."""
    tokens = Path(path).read_text().split()
    n, m = int(tokens[1]), int(tokens[2])
    flat = np.array(tokens[3:], dtype=np.int64).reshape(m, 2) - 1
    adj = np.zeros((n, n))
    adj[flat[:, 0], flat[:, 1]] = 1.0
    adj[flat[:, 1], flat[:, 0]] = 1.0
    adj.setflags(write=False)
    return adj


def file_sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def witness_value(centred: np.ndarray, xs, ys) -> float:
    xi = np.asarray(xs, dtype=np.int64) - 1
    yi = np.asarray(ys, dtype=np.int64) - 1
    if xi.size == 0 or yi.size == 0:
        raise ValueError("empty witness")
    return abs(float(centred[np.ix_(xi, yi)].sum())) / math.sqrt(xi.size * yi.size)


def brute_force_disc(centred: np.ndarray) -> float:
    """max over all nonempty X, Y of |1_X^T M 1_Y| / sqrt(|X||Y|)."""
    n = centred.shape[0]
    masks = np.arange(1, 1 << n, dtype=np.int64)
    ind = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    sizes = ind.sum(axis=1)
    sums = (ind @ centred) @ ind.T
    return float((np.abs(sums) / np.sqrt(np.outer(sizes, sizes))).max())


def structured_tightness_disc(k: int) -> float:
    """Closed form max over a of (sum_{i<=a} 1/sqrt(i))^2 / a."""
    prefix = np.cumsum(1.0 / np.sqrt(np.arange(1, k + 1, dtype=float)))
    return float((prefix * prefix / np.arange(1, k + 1)).max())


def singular_values(a: np.ndarray) -> np.ndarray:
    return np.sort(np.abs(np.linalg.eigvalsh(a)))[::-1]


def expected_exact(path: str, centred: np.ndarray, tight_k) -> float | None:
    if centred.shape[0] <= BRUTE_FORCE_MAX_N:
        return brute_force_disc(centred)
    if tight_k is not None and tight_k <= STRUCTURED_MAX_K:
        return structured_tightness_disc(tight_k)
    return _references().get(file_sha256(path))


def _check_disc(disc: dict, c: dict, a: np.ndarray) -> str | None:
    centred = a - a.mean()
    if disc["mode"] != c["mode"]:
        return f"disc mode {disc['mode']!r}, expected {c['mode']!r}"
    value = float(disc["value"])
    at_witness = witness_value(centred, disc["witness_X"], disc["witness_Y"])
    if not _close(value, at_witness):
        return f"disc value {value!r} but its witness evaluates to {at_witness!r}"
    if c["mode"] == "exact":
        want = expected_exact(c["input"], centred, c.get("tight_k"))
        if want is None:
            return f"no reference value for {c['input']}"
        if not _close(value, want):
            return f"exact disc {value!r}, reference {want!r}"
    else:
        sigma1_b = float(singular_values(centred)[0])
        if value > sigma1_b + REL_TOL * max(1.0, sigma1_b):
            return f"heuristic disc {value!r} above sigma1(A - mean) {sigma1_b!r}"
    return None


def _check_analyze(res: dict, c: dict) -> str | None:
    a = read_sym(c["input"])
    if res["n"] != c["n"]:
        return f"n = {res['n']}, expected {c['n']}"
    sv = singular_values(a)
    if not _close(float(res["sigma1"]), float(sv[0])):
        return f"sigma1 {res['sigma1']!r}, eigvalsh gives {sv[0]!r}"
    if not _close(float(res["sigma2"]), float(sv[1]), float(sv[0])):
        return f"sigma2 {res['sigma2']!r}, eigvalsh gives {sv[1]!r}"
    return _check_disc(res["disc"], c, a)


def _check_certify(res: dict, c: dict) -> str | None:
    cert = res["certificate"]
    a = read_sym(c["input"])
    for link in cert["links"]:
        if not float(link["lhs"]) <= float(link["rhs"]) + LINK_TOL:
            return f"certificate link {link['name']} has lhs > rhs"
    sv = singular_values(a)
    if not _close(float(cert["sigma2"]), float(sv[1]), float(sv[0])):
        return f"certificate sigma2 {cert['sigma2']!r}, eigvalsh gives {sv[1]!r}"
    sigma1_b = float(singular_values(a - a.mean())[0])
    if not _close(float(cert["sigma1_B"]), sigma1_b):
        return f"certificate sigma1_B {cert['sigma1_B']!r}, eigvalsh gives {sigma1_b!r}"
    if cert["disc_is_exact"] != (c["mode"] == "exact"):
        return "certificate disc_is_exact does not match the mode"
    return _check_disc(cert["disc"], c, a)


def _check_pairs(report: dict, c: dict) -> str | None:
    if not report["pass"]:
        return f"{c['kind']} report did not pass"
    params = report["params"]
    if params["violation_count"] != 0:
        return f"{c['kind']} counted {params['violation_count']} violations"
    if params["mode"] != c["mode"]:
        return f"{c['kind']} ran in {params['mode']} mode, expected {c['mode']}"
    if c["mode"] == "exhaustive":
        want = ((1 << c["n"]) - 1) ** 2
    elif c["kind"] == "chung":
        want = c["samples"] + 1
    else:
        want = c["samples"]
    if report["instances"] != want:
        return f"{c['kind']} reported {report['instances']} instances, expected {want}"
    adj = read_edges(c["input"])
    degrees = adj.sum(axis=1)
    if c["kind"] == "thomason":
        prod = adj @ adj
        np.fill_diagonal(prod, -1.0)
        hyp = params["hypotheses"]
        if (hyp["min_degree"] != int(degrees.min())
                or hyp["max_codegree"] != int(prod.max())):
            return "thomason hypotheses disagree with direct counts"
        if not params["hypotheses_hold"]:
            return "thomason hypotheses were expected to hold"
    elif np.all(degrees == degrees[0]):
        mu = np.sort(np.linalg.eigvalsh(adj))[::-1]
        want_bar = float(np.abs(mu[1:]).max() / degrees[0])
        if not _close(float(params["lambda_bar"]), want_bar):
            return f"lambda_bar {params['lambda_bar']!r}, eigvalsh gives {want_bar!r}"
    return None


def _check_construct(res: dict, c: dict) -> str | None:
    p, t = c["p"], c["t"]
    idx = np.arange(p, dtype=np.int64)
    diff = idx[:, None] - idx[None, :]
    want = ((diff * diff) % p) <= t
    np.fill_diagonal(want, False)
    got = read_edges(c["output"]).astype(bool)
    if not np.array_equal(got, want):
        return f"construct qpt {p} {t}: edge set differs from the definition"
    if res["m"] != int(want.sum()) // 2 or res["degree"] != int(want[0].sum()):
        return "construct qpt: reported m or degree is wrong"
    if res["output"]["sha256"] != file_sha256(c["output"]):
        return "construct qpt: reported digest does not match the file"
    return None


def _family_member(n: int, seed: int) -> np.ndarray:
    """gnp(n, n^-1/3) drawn row by row, plus a disjoint clique."""
    density = n ** (-1.0 / 3.0)
    rng = np.random.default_rng([seed, n])
    size = int(math.floor(density * n))
    adj = np.zeros((n + size, n + size))
    for i in range(n):
        hits = np.nonzero(rng.random(n - 1 - i) < density)[0] + i + 1
        adj[i, hits] = 1.0
        adj[hits, i] = 1.0
    adj[n:, n:] = 1.0 - np.eye(size)
    return adj


def _check_family(res: dict, c: dict) -> str | None:
    if not res["pass"]:
        return "family report did not pass"
    members = res["members"]
    if len(members) != len(c["sizes"]):
        return f"family reported {len(members)} members"
    for n, row in zip(c["sizes"], members):
        adj = _family_member(n, c["seed"])
        if row["n"] != adj.shape[0] or row["m"] != int(adj.sum()) // 2:
            return f"family member from n = {n} has the wrong size"
        sigma2 = float(singular_values(adj)[1])
        if not _close(float(row["sigma2"]), sigma2, float(row["mu1"])):
            return f"family sigma2 {row['sigma2']!r}, eigvalsh gives {sigma2!r}"
    return None


def _check_suite(res: dict, c: dict) -> str | None:
    if res["parameters"]["seed"] != c["seed"]:
        return "paper-suite ran with another master seed"
    if len(res["checks"]) != 9:
        return f"paper-suite ran {len(res['checks'])} checks, expected 9"
    if not res["pass"]:
        failed = [k for k, v in res["checks"].items() if not v["pass"]]
        return f"paper-suite failed: {', '.join(failed)}"
    return None


def check(c: dict, code: int, stdout: str) -> str | None:
    """None when the operation's output is right, else the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        res = json.loads(stdout)["results"]
        kind = c["kind"]
        if kind == "analyze":
            return _check_analyze(res, c)
        if kind == "certify":
            return _check_certify(res, c)
        if kind in ("chung", "thomason"):
            return _check_pairs(res["report"], c)
        if kind == "construct_qpt":
            return _check_construct(res, c)
        if kind == "family":
            return _check_family(res, c)
        if kind == "suite":
            return _check_suite(res, c)
        return f"no oracle for kind {kind!r}"
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"

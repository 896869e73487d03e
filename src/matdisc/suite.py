"""Bundled verification battery over every component of the package.

Each check_* function exercises one subsystem against its frozen
expectations and returns a JSON-safe dict with a boolean "pass" plus
enough numbers to see how much room the inequalities had.  run_suite
executes all of them with one master seed and no timestamps inside the
results, so two runs with equal parameters produce byte-identical
output.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .constructions import (
    block_graph,
    block_matrix,
    block_plan,
    block_rayleigh_closed_form,
    block_step_vector,
    degree_catalog,
    harmonic_number,
    qpt_graph,
    sparse_union,
    tightness_disc_structured,
    tightness_matrix,
)
from .discrepancy import disc_exact
from .graphs import complete_graph, gnp_random_graph
from .linalg import (
    SymmetricMatrix,
    _require_order,
    eig_symmetric,
    rayleigh_quotient,
    rho_prime,
)
from .quantization import (
    CLOSED_FORM_OFFSET,
    CLOSED_FORM_SLOPE,
    Partition,
    certify_sigma2,
    quantize,
    quotient_compress,
)
from .spectral import (
    DEFAULT_SAMPLES,
    chung_alpha_check,
    family_properties,
    lambda_bar_from_adjacency,
    thomason_small_graph_sweep,
)

__all__ = [
    "check_tightness_family",
    "check_certificates",
    "check_quantization",
    "check_compression",
    "check_residue_graphs",
    "check_block_matrices",
    "check_block_spectral_gap",
    "check_small_graph_bound",
    "check_sparse_family",
    "run_suite",
]


#: the tightness family is compared with disc_exact up to this k
EXACT_MATCH_MAX_K = 8


def _record_failure(failures: list, limit: int = 50, **info) -> None:
    if len(failures) < limit:
        failures.append(info)


def _check_max_k(max_k: int) -> None:
    """Refuse a tightness range before any of its max_k - 1 eigensolves."""
    if max_k < 2:
        raise ValueError(f"max_k must be at least 2, got {max_k}")
    _require_order(2 * max_k)


def check_tightness_family(max_k: int = 64) -> dict:
    """Closed-form eigenvalue and discrepancy claims for the 2k x 2k family."""
    failures: list = []
    min_mu2_margin = math.inf
    max_struct = 0.0
    max_exact_gap = 0.0
    min_combined_margin = math.inf
    _check_max_k(max_k)
    for k in range(2, max_k + 1):
        mat = tightness_matrix(k)
        spec = eig_symmetric(mat)
        mu2 = float(spec.eigenvalues[1])
        target = 2.0 * harmonic_number(k)
        margin = mu2 - target
        min_mu2_margin = min(min_mu2_margin, margin)
        if margin < -1e-8:
            _record_failure(failures, kind="second_eigenvalue", k=k,
                            mu2=mu2, target=target)
        structured = tightness_disc_structured(k)
        max_struct = max(max_struct, structured.value)
        if not structured.value < 4.0:
            _record_failure(failures, kind="disc_cap", k=k,
                            value=structured.value)
        combined = mu2 - 0.5 * structured.value * math.log(2 * k)
        min_combined_margin = min(min_combined_margin, combined)
        if combined < -1e-8:
            _record_failure(failures, kind="combined_lower_bound", k=k,
                            mu2=mu2, disc=structured.value)
        if k <= EXACT_MATCH_MAX_K:
            exact = disc_exact(mat)
            gap = abs(exact.value - structured.value)
            max_exact_gap = max(max_exact_gap, gap)
            if gap > 1e-10:
                _record_failure(failures, kind="exact_mismatch", k=k,
                                exact=exact.value,
                                structured=structured.value)
    return {
        "name": "tightness_family",
        "pass": not failures,
        "max_k": max_k,
        "exact_match_max_k": min(EXACT_MATCH_MAX_K, max_k),
        "min_mu2_margin": min_mu2_margin,
        "max_structured_disc": max_struct,
        "max_exact_gap": max_exact_gap,
        "min_combined_margin": min_combined_margin,
        "failures": failures,
    }


def _random_symmetric(rng: np.random.Generator, n: int, kind: int) -> SymmetricMatrix:
    if kind == 0:
        m = rng.normal(size=(n, n))
        return SymmetricMatrix((m + m.T) / 2.0)
    if kind == 1:
        m = rng.uniform(-1.0, 1.0, size=(n, n))
        return SymmetricMatrix((m + m.T) / 2.0)
    upper = np.triu((rng.random(size=(n, n)) < 0.5).astype(float), k=1)
    return SymmetricMatrix(upper + upper.T)


def check_certificates(trials: int = 200, seed: int = 2) -> dict:
    """Certificate chains on random symmetric matrices: link slack (a
    broken link raises in certify_sigma2), headline and class budget.

    min_headline_margin is the least headline_bound - sigma2 over the
    certificates with sigma2 > 0, None when there are none: a trial that
    draws the zero matrix has sigma2 = disc = 0 and a margin of exactly 0,
    which says nothing about the bound's slack.
    """
    failures: list = []
    min_link_slack = math.inf
    margins = []
    max_m_realized = 0
    budget_ok = True
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        n = int(rng.integers(2, 17))
        mat = _random_symmetric(rng, n, trial % 3)
        cert = certify_sigma2(mat)
        min_link_slack = min(min_link_slack, *(link.slack for link in cert.links))
        if cert.sigma2 > 0.0:
            margins.append(cert.headline_bound - cert.sigma2)
        if not cert.headline_holds:
            _record_failure(failures, kind="headline", trial=trial, n=n,
                            sigma2=cert.sigma2, bound=cert.headline_bound)
        max_m_realized = max(max_m_realized, cert.m_realized)
        if 4.5 * cert.m_realized > CLOSED_FORM_SLOPE * math.log(n) + CLOSED_FORM_OFFSET:
            budget_ok = False
            _record_failure(failures, kind="class_budget", trial=trial, n=n,
                            m_realized=cert.m_realized)
    return {
        "name": "certificates",
        "pass": not failures,
        "trials": trials,
        "seed": seed,
        "n_range": [2, 16],
        "min_link_slack": min_link_slack,
        "min_headline_margin": min(margins, default=None),
        "max_m_realized": max_m_realized,
        "class_budget_ok": budget_ok,
        "failures": failures,
    }


def check_quantization(vectors: int = 500, seed: int = 3) -> dict:
    """Error bound over random unit vectors, and how near each count comes
    to its ceiling (quantize raises past it)."""
    epsilons = (0.05, 1.0 / 3.0, 0.9)
    norms = (1.0, 2.0, 3.0)
    failures: list = []
    checked = 0
    repairs = 0
    max_error_ratio = 0.0
    max_count_ratio = 0.0
    for i in range(vectors):
        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(4, 65))
        if i % 2 == 0:
            base = np.abs(rng.normal(size=n))
        else:
            base = rng.normal(size=n) + 1j * rng.normal(size=n)
        units = {p: base / (np.sum(np.abs(base) ** p) ** (1.0 / p))
                 for p in norms}
        for eps in epsilons:
            for p in norms:
                q = quantize(units[p], p, eps)
                checked += 1
                repairs += q.repairs
                max_error_ratio = max(max_error_ratio, q.error / eps)
                max_count_ratio = max(
                    max_count_ratio, q.distinct_count / q.value_ceiling)
                if q.error > eps + 1e-12:
                    _record_failure(failures, kind="error", vector=i, n=n,
                                    p=p, epsilon=eps, error=q.error)
    return {
        "name": "quantization",
        "pass": not failures,
        "vectors": vectors,
        "seed": seed,
        "instances": checked,
        "repairs": repairs,
        "max_error_over_epsilon": max_error_ratio,
        "max_count_over_ceiling": max_count_ratio,
        "failures": failures,
    }


def _random_partition(rng: np.random.Generator, n: int) -> Partition:
    classes = int(rng.integers(1, n + 1))
    perm = rng.permutation(n)
    if classes > 1:
        cuts = np.sort(rng.choice(np.arange(1, n), size=classes - 1,
                                  replace=False))
    else:
        cuts = np.array([], dtype=int)
    pieces = np.split(perm, cuts)
    return Partition(
        classes=tuple(tuple(sorted(int(v) + 1 for v in piece))
                      for piece in pieces),
        n=n,
    )


def check_compression(trials: int = 200, seed: int = 4) -> dict:
    """Quadratic forms of class-constant vectors against compressed norms."""
    failures: list = []
    min_margin = math.inf
    identity_checks = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        n = int(rng.integers(2, 13))
        mat = _random_symmetric(rng, n, 0)
        part = _random_partition(rng, n)
        k = part.class_count
        if trial % 2 == 0:
            vals = rng.normal(size=k)
        else:
            vals = rng.normal(size=k) + 1j * rng.normal(size=k)
        x = vals[part.labels]
        compressed = quotient_compress(mat, part)
        sigma1 = eig_symmetric(compressed).sigma1
        lhs = abs(complex(np.vdot(x, mat.a @ x)).real)
        rhs = sigma1 * float(np.vdot(x, x).real)
        min_margin = min(min_margin, rhs - lhs)
        if lhs > rhs + 1e-9:
            _record_failure(failures, kind="form_bound", trial=trial, n=n,
                            classes=k, lhs=lhs, rhs=rhs)
        if trial % 10 == 0:
            singles = Partition(
                classes=tuple((i,) for i in range(1, n + 1)), n=n)
            back = quotient_compress(mat, singles)
            identity_checks += 1
            if not np.array_equal(back.a, mat.a):
                _record_failure(failures, kind="singleton_identity",
                                trial=trial, n=n)
    return {
        "name": "compression",
        "pass": not failures,
        "trials": trials,
        "seed": seed,
        "min_margin": min_margin,
        "identity_checks": identity_checks,
        "failures": failures,
    }


def _circulant_codegrees(first_rows) -> np.ndarray:
    """Codegrees of circulant graphs, one per row of first adjacency rows
    r (k x p): entry j - 1 is the common neighbours of u and u + j mod p,
    j = 1..p-1.  That count is entry j of the cyclic self-convolution of
    r, read off one FFT of each row and rounded to the integer it is."""
    spectra = np.fft.rfft(first_rows, axis=1)
    p = np.shape(first_rows)[1]
    return np.rint(np.fft.irfft(spectra * spectra, p, axis=1))[:, 1:]


def check_residue_graphs(primes: tuple[int, ...] = (13, 101, 199)) -> dict:
    """Regularity, degree catalog and codegree spread for every threshold
    of each prime; each graph's mask must be the defining rule
    (u - v)^2 mod p <= t, u != v, and its codegrees are then read off
    _circulant_codegrees from its first row."""
    failures: list = []
    per_prime = []
    for p in primes:
        catalog = degree_catalog(p)
        allowance = math.sqrt(p) * math.log(p) ** 2
        degree_gap_violations = 0
        codegree_violations = 0
        max_codegree_gap = 0.0
        # squares[u, v] = (v - u)^2 mod p, the diagonal above every t: the
        # mask of Q(p, t) is squares <= t
        shift = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
        squares = (shift * shift) % p
        np.fill_diagonal(squares, p + 1)
        thresholds, first_rows = [], []
        for t in range(1, p + 1):
            g = qpt_graph(p, t)
            if not g.is_regular():
                _record_failure(failures, kind="regularity", p=p, t=t)
                continue
            d = int(g.degrees[0])
            if d != catalog.degree(t):
                _record_failure(failures, kind="catalog", p=p, t=t,
                                degree=d, expected=catalog.degree(t))
            if abs(d - t) > allowance:
                degree_gap_violations += 1
            if not np.array_equal(g._mask, squares <= t):
                _record_failure(failures, kind="residue_rule", p=p, t=t)
                continue
            thresholds.append(t)
            first_rows.append(g._mask[0].copy())  # a view would keep the mask alive
        if first_rows:
            for t, codeg in zip(thresholds, _circulant_codegrees(first_rows)):
                gap = float(np.abs(codeg - t * t / p).max())
                max_codegree_gap = max(max_codegree_gap, gap)
                if gap > allowance:
                    codegree_violations += 1
        complete_t = catalog.smallest_t_for_degree.get(p - 1)
        if complete_t is not None:
            kp = qpt_graph(p, complete_t)
            if not np.array_equal(kp._mask, complete_graph(p)._mask):
                _record_failure(failures, kind="complete_graph", p=p,
                                t=complete_t)
        per_prime.append({
            "p": p,
            "achievable_degrees": list(catalog.achievable_degrees),
            "degree_gap_allowance": allowance,
            "degree_gap_violations": degree_gap_violations,
            "codegree_violations": codegree_violations,
            "max_codegree_gap": max_codegree_gap,
        })
    return {
        "name": "residue_graphs",
        "pass": not failures,
        "primes": list(primes),
        "per_prime": per_prime,
        "failures": failures,
    }


def check_block_matrices(primes: tuple[int, ...] = (13, 17, 19)) -> dict:
    """Complement and Rayleigh identities, certified disc cap and spectral
    floor of the block construction (block_matrix itself rejects a nonzero
    diagonal or a wrong row sum); the cap holds as disc <= sigma1(A - rho)."""
    failures: list = []
    per_prime = []
    for p in primes:
        plan = block_plan(p)
        mat = block_matrix(plan)
        a = mat.a
        kp = plan.k * plan.p
        if not np.array_equal(a[:kp, kp:], 1.0 - a[:kp, :kp]):
            _record_failure(failures, kind="complement", p=p)
        closed = block_rayleigh_closed_form(plan)
        direct = rayleigh_quotient(mat, block_step_vector(plan))
        rayleigh_gap = abs(closed - direct)
        if rayleigh_gap > 1e-8:
            _record_failure(failures, kind="rayleigh", p=p,
                            closed=closed, direct=direct)
        disc_upper = eig_symmetric(SymmetricMatrix(a - rho_prime(mat))).sigma1
        if disc_upper > 12.0 * p:
            _record_failure(failures, kind="disc_cap", p=p,
                            value=disc_upper)
        mu2 = float(eig_symmetric(mat).eigenvalues[1])
        mu2_floor = 0.5 * p * math.log(plan.k)
        per_prime.append({
            "p": p,
            "k": plan.k,
            "n": plan.n,
            "degrees": plan.degrees.tolist(),
            "target_gap_violations": len(plan.target_gap_violations),
            "rayleigh_closed_form": closed,
            "rayleigh_gap": rayleigh_gap,
            "disc_upper": disc_upper,
            "disc_cap": 12.0 * p,
            "mu2": mu2,
            "mu2_floor": mu2_floor,
            "mu2_above_floor": bool(mu2 >= mu2_floor),
        })
    return {
        "name": "block_matrices",
        "pass": not failures,
        "primes": list(primes),
        "per_prime": per_prime,
        "failures": failures,
    }


def check_block_spectral_gap(p: int = 13, samples: int = DEFAULT_SAMPLES,
                             seed: int = 6) -> dict:
    """Laplacian gap of the block graph against the volume-bound scale."""
    failures: list = []
    plan = block_plan(p)
    graph = block_graph(plan)
    # the block graph is regular, so the report carries its Laplacian gap
    chung = chung_alpha_check(graph, mode="sampled", samples=samples,
                              seed=seed)
    lambda_bar = chung.params["lambda_bar"]
    adjacency_route = lambda_bar_from_adjacency(graph)
    floor = math.log(plan.k) / (2.0 * plan.k)
    agreement = abs(lambda_bar - adjacency_route)
    if lambda_bar < floor - 1e-8:
        _record_failure(failures, kind="gap_floor",
                        lambda_bar=lambda_bar, floor=floor)
    if agreement > 1e-9:
        _record_failure(failures, kind="route_agreement",
                        laplacian=lambda_bar, adjacency=adjacency_route)
    return {
        "name": "block_spectral_gap",
        "pass": not failures,
        "p": p,
        "k": plan.k,
        "lambda_bar": lambda_bar,
        "lambda_bar_adjacency_route": adjacency_route,
        "route_gap": agreement,
        "floor": floor,
        "alpha_min_sampled": chung.params["alpha_min"],
        "lambda_bar_over_alpha_min": chung.params.get(
            "lambda_bar_over_alpha_min"),
        "samples": samples,
        "seed": seed,
        "failures": failures,
    }


def check_small_graph_bound(max_n: int = 7) -> dict:
    """Edge-distribution inequality across the full small-graph atlas."""
    report = thomason_small_graph_sweep(max_n=max_n)
    return {
        "name": "small_graph_bound",
        "pass": report.passed,
        "max_n": max_n,
        "graphs_seen": report.params["graphs_seen"],
        "combinations_with_hypotheses":
            report.params["combinations_with_hypotheses"],
        "pairs_checked": report.params["pairs_checked"],
        "max_slack": report.max_slack,
        "violations": list(report.violations[:20]),
    }


def check_sparse_family(sizes: tuple[int, ...] = (50, 100, 200),
                        samples: int = DEFAULT_SAMPLES, seed: int = 7) -> dict:
    """Sparse random graphs with planted cliques: ratio window and decay."""
    members = []
    for n in sizes:
        if n < 2:
            raise ValueError(f"family sizes must be at least 2, got {n}")
        density = n ** (-1.0 / 3.0)
        base = gnp_random_graph(n, density, np.random.default_rng([seed, n]))
        members.append(sparse_union(base, density))
    report = family_properties(members, samples=samples, seed=seed)
    return {
        "name": "sparse_family",
        "pass": report.passed,
        "sizes": list(sizes),
        "samples": samples,
        "seed": seed,
        "members": report.params["members"],
        "sigma2_window_ok": report.params["sigma2_window_ok"],
        "disc_ratio_decreasing": report.params["disc_ratio_decreasing"],
        "window": report.params["window"],
    }


def run_suite(*, max_k: int = 64, max_p: int | None = None,
              samples: int = DEFAULT_SAMPLES, seed: int = 1,
              quick: bool = False, timing: dict | None = None) -> dict:
    """Run every check with one master seed and return a combined report.

    max_p caps the prime lists (both the residue sweep and the block
    construction); max_k caps the tightness family.  The certificate and
    compression checks run 200 trials and the quantization check 500
    vectors; quick shrinks these and the other counts for a fast smoke
    run.  Results carry no timestamps, so equal parameters give
    identical output; a timing dict, when given, receives the seconds
    each check took, by check name.
    """
    trials, vectors = (40, 60) if quick else (200, 500)
    if quick:
        max_k = min(max_k, 12)
        samples = min(samples, 1000)
    # every parameter is checked before the first check runs
    _check_max_k(max_k)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    residue_primes = tuple(
        p for p in (13, 101, 199) if max_p is None or p <= max_p)
    block_primes = tuple(
        p for p in (13, 17, 19) if max_p is None or p <= max_p)
    if not residue_primes or not block_primes:
        raise ValueError("max_p excludes every prime; the smallest is 13")
    family_sizes = (40, 80, 160) if quick else (50, 100, 200)
    sweep_n = 6 if quick else 7

    runs = {
        "tightness_family": lambda: check_tightness_family(max_k=max_k),
        "certificates": lambda: check_certificates(
            trials=trials, seed=seed * 1000 + 2),
        "quantization": lambda: check_quantization(
            vectors=vectors, seed=seed * 1000 + 3),
        "compression": lambda: check_compression(
            trials=trials, seed=seed * 1000 + 4),
        "residue_graphs": lambda: check_residue_graphs(primes=residue_primes),
        "block_matrices": lambda: check_block_matrices(primes=block_primes),
        "block_spectral_gap": lambda: check_block_spectral_gap(
            p=block_primes[0], samples=samples, seed=seed * 1000 + 6),
        "small_graph_bound": lambda: check_small_graph_bound(max_n=sweep_n),
        "sparse_family": lambda: check_sparse_family(
            sizes=family_sizes, samples=samples, seed=seed * 1000 + 7),
    }
    checks = {}
    for name, run in runs.items():
        started = time.perf_counter()
        checks[name] = run()
        if timing is not None:
            timing[name] = time.perf_counter() - started
    return {
        "pass": all(c["pass"] for c in checks.values()),
        "parameters": {
            "max_k": max_k,
            "max_p": max_p,
            "trials": trials,
            "vectors": vectors,
            "samples": samples,
            "seed": seed,
            "quick": quick,
        },
        "checks": checks,
    }

"""Command-line front end: construct, analyze, certify, verify.

Every run prints exactly one JSON report to standard output and a short
human summary to standard error.  Reports are deterministic for a fixed
command line and seed, except for the "timing" block, which callers
comparing runs should strip.

Exit codes: 0 success, 2 any input or parameter the package rejects, 3
I/O failure, 4 input too large for the exact engine, 5 broken invariant
(a certificate link, or a construction or quantizer self-check: a bug),
6 verification found a hard violation.  Package errors carry their own
code (MatdiscError.exit_code).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .constructions import block_matrix, block_plan, qpt_graph, tightness_matrix
from .discrepancy import (
    DEFAULT_ITERATIONS,
    DiscResult,
    disc_exact,
    disc_heuristic,
    disc2_gap_bound,
)
from .errors import FormatError, MatdiscError, TooLargeError
from .graphs import Graph, from_adjacency, read_graph, write_graph
from .linalg import (HEADER_CHARS, SymmetricMatrix, eig_symmetric, read_matrix,
                     rho_prime, write_matrix)
from .quantization import certify_sigma2
from .spectral import DEFAULT_SAMPLES, chung_alpha_check, thomason_report
from .suite import check_sparse_family, run_suite


def _jsonify(obj):
    """Recursively convert numpy containers and scalars to JSON types."""
    if type(obj) is float:
        return repr(obj) if math.isnan(obj) or math.isinf(obj) else obj
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v) or math.isinf(v):
            return repr(v)
        return v
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _digest(path: str) -> dict:
    """Size and sha256 of a file, hashed 1 MiB at a time."""
    sha, size = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            sha.update(chunk)
            size += len(chunk)
    return {"path": path, "bytes": size, "sha256": sha.hexdigest()}


def _load_input(path: str):
    """Read a matrix or graph file, sniffing by the header token."""
    with open(path, encoding="utf-8") as fh:
        head = fh.readline(HEADER_CHARS + 1).split()
    kind = head[0] if head else ""
    if kind == "sym":
        return read_matrix(path)
    if kind == "graph":
        return read_graph(path)
    raise FormatError(
        f"{path}: expected a 'sym' or 'graph' header, found {kind!r}"
    )


def _as_graph(obj) -> Graph:
    if isinstance(obj, Graph):
        return obj
    return from_adjacency(obj)


def _as_matrix(obj) -> SymmetricMatrix:
    if isinstance(obj, Graph):
        return obj.adjacency
    return obj


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results dict, extra report fields,
# human summary, exit code); an extra "timing" dict joins the timing block
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> tuple[dict, dict, str, int]:
    if args.family == "tightness":
        if args.k < 1:
            raise ValueError("--k must be at least 1")
        mat = tightness_matrix(args.k)
        write_matrix(mat, args.output)
        detail = {"family": "tightness", "k": args.k, "n": mat.n}
        summary = f"wrote tightness matrix k={args.k} ({mat.n}x{mat.n})"
    elif args.family == "blockmatrix":
        plan = block_plan(args.p)
        mat = block_matrix(plan)
        write_matrix(mat, args.output)
        detail = {
            "family": "blockmatrix",
            "p": plan.p,
            "k": plan.k,
            "n": mat.n,
            "row_sum": plan.k * plan.p,
            "plan": plan.to_json_dict(),
        }
        summary = (f"wrote block matrix p={plan.p} ({mat.n}x{mat.n}, "
                   f"row sums {plan.k * plan.p})")
    else:  # qpt
        g = qpt_graph(args.p, args.t)
        write_graph(g, args.output)
        detail = {
            "family": "qpt",
            "p": args.p,
            "t": args.t,
            "n": g.n,
            "m": g.m,
            "degree": int(g.degrees[0]) if g.n else 0,
        }
        summary = (f"wrote Q({args.p},{args.t}): {g.n} vertices, "
                   f"{g.m} edges, {detail['degree']}-regular")
    results = {**detail, "output": _digest(args.output)}
    return results, {}, f"{summary} -> {args.output}", 0


def _search_timing(disc: DiscResult, stage_seconds: dict) -> dict:
    """The report's timing block: the exact scan's work counters and the
    seconds of each stage."""
    return {"disc_batches": disc.batches, "disc_rows_gathered": disc.rows_gathered,
            "disc_rows_sorted": disc.rows_sorted, "stage_seconds": stage_seconds}


def _disc_for(mat: SymmetricMatrix, args, stage_seconds: dict) -> DiscResult:
    """The search the flags ask for; its seconds go to stage_seconds["disc"]."""
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    started = time.perf_counter()
    if args.heuristic:
        if args.seed is None:
            raise ValueError("--heuristic needs --seed for reproducibility")
        disc = disc_heuristic(mat, iterations=args.iters, seed=args.seed)
    else:
        disc = disc_exact(mat)
    stage_seconds["disc"] = time.perf_counter() - started
    return disc


def _cmd_analyze(args) -> tuple[dict, dict, str, int]:
    obj = _load_input(args.input)
    mat = _as_matrix(obj)
    stage_seconds: dict = {}
    disc = _disc_for(mat, args, stage_seconds)
    started = time.perf_counter()
    spectrum = eig_symmetric(mat)
    stage_seconds["eig"] = time.perf_counter() - started
    n = mat.n
    sigma2 = spectrum.sigma2 if n >= 2 else None
    denom_ln = disc.value * math.log(n) if n >= 2 else 0.0
    ratio_ln = sigma2 / denom_ln if sigma2 is not None and denom_ln > 0 else None
    denom_log2 = disc.value * math.log2(n) if n >= 2 else 0.0
    ratio_log2 = (sigma2 / denom_log2
                  if sigma2 is not None and denom_log2 > 0 else None)
    results = {
        "kind": "graph" if isinstance(obj, Graph) else "matrix",
        "n": n,
        "rho_prime": rho_prime(mat),
        "sigma1": spectrum.sigma1,
        "sigma2": sigma2,
        "eigenvalue_max": float(spectrum.eigenvalues[0]),
        "eigenvalue_min": float(spectrum.eigenvalues[-1]),
        "disc": disc.to_json_dict(),
        "sigma2_over_disc_ln_n": ratio_ln,
        "sigma2_over_disc_log2_n": ratio_log2,
        "input": _digest(args.input),
    }
    if isinstance(obj, Graph):
        results["density"] = obj.density()
        results["disc_gap_bound"] = disc2_gap_bound(obj)
    summary = (f"disc ({disc.mode}) = {disc.value:.6g} at |X|={len(disc.witness_X)}"
               f" |Y|={len(disc.witness_Y)}; sigma2 = "
               f"{'n/a' if sigma2 is None else format(sigma2, '.6g')}")
    extra = {"seed": args.seed, "timing": _search_timing(disc, stage_seconds)}
    return results, extra, summary, 0


def _cmd_certify(args) -> tuple[dict, dict, str, int]:
    obj = _load_input(args.input)
    mat = _as_matrix(obj)
    stage_seconds: dict = {}
    cert = certify_sigma2(mat, _disc_for(mat, args, stage_seconds),
                          timing=stage_seconds)
    results = {
        "certificate": cert.to_json_dict(),
        "input": _digest(args.input),
    }
    min_slack = min(link.slack for link in cert.links)
    summary = (f"certificate holds: sigma2 = {cert.sigma2:.6g}, "
               f"disc ({cert.disc.mode}) = {cert.disc.value:.6g}, "
               f"min link slack = {min_slack:.3g}, "
               f"headline bound {'holds' if cert.headline_holds else 'OPEN'}")
    extra = {"seed": args.seed,
             "timing": _search_timing(cert.disc, stage_seconds)}
    return results, extra, summary, 0


def _cmd_verify(args) -> tuple[dict, dict, str, int]:
    if args.suite in ("thomason", "chung"):
        graph = _as_graph(_load_input(args.input))
        if args.suite == "thomason":
            report = thomason_report(graph, args.p, args.mu,
                                     samples=args.samples, seed=args.seed)
            held = report.params["hypotheses_hold"]
            detail = (f"hypotheses {'hold' if held else 'fail'}, "
                      f"instances={report.instances}")
        else:
            report = chung_alpha_check(graph, alpha=args.alpha,
                                       samples=args.samples, seed=args.seed)
            ratio = report.params.get("lambda_bar_over_alpha_min")
            detail = (f"alpha_min={report.params['alpha_min']:.6g}"
                      + (f", lambda_bar/alpha={ratio:.4g}" if ratio else ""))
        results = {"report": report.to_json_dict(),
                   "input": _digest(args.input)}
        summary = f"{args.suite}: {'PASS' if report.passed else 'FAIL'} ({detail})"
        extra = {"seed": args.seed, "timing": {"grid_pairs": report.grid_pairs}}
        return results, extra, summary, 0 if report.passed else 6
    if args.suite == "family":
        sizes = tuple(int(s) for s in args.sizes.split(","))
        result = check_sparse_family(sizes=sizes, samples=args.samples,
                                     seed=args.seed)
        summary = (f"family: {'PASS' if result['pass'] else 'FAIL'} "
                   f"(sizes {sizes}, "
                   f"window_ok={result['sigma2_window_ok']}, "
                   f"decreasing={result['disc_ratio_decreasing']})")
        return result, {"seed": args.seed}, summary, 0 if result["pass"] else 6
    # paper-suite
    check_seconds: dict = {}
    result = run_suite(max_k=args.max_k, max_p=args.max_p,
                       samples=args.samples, seed=args.seed,
                       quick=args.quick, timing=check_seconds)
    failed = [k for k, v in result["checks"].items() if not v["pass"]]
    summary = ("suite: PASS (9 checks)" if result["pass"]
               else f"suite: FAIL ({', '.join(failed)})")
    extra = {"seed": args.seed, "timing": {"check_seconds": check_seconds}}
    return result, extra, summary, 0 if result["pass"] else 6


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="matdisc",
        description=("Matrix discrepancy, second singular values, and "
                     "edge-distribution checks"),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="write a generated matrix or graph")
    consub = con.add_subparsers(dest="family", required=True)
    tight = consub.add_parser("tightness")
    tight.add_argument("--k", type=int, required=True)
    tight.add_argument("-o", "--output", required=True)
    block = consub.add_parser("blockmatrix")
    block.add_argument("--p", type=int, required=True)
    block.add_argument("-o", "--output", required=True)
    qpt = consub.add_parser("qpt")
    qpt.add_argument("--p", type=int, required=True)
    qpt.add_argument("--t", type=int, required=True)
    qpt.add_argument("-o", "--output", required=True)

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("input")
    search.add_argument("--heuristic", action="store_true", default=False)
    search.add_argument("--iters", type=int, default=DEFAULT_ITERATIONS)
    search.add_argument("--seed", type=int, default=None)
    search.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1,
        help="accepted for compatibility and must be at least 1; it has no "
             "effect, the exact scan runs on one thread")
    sub.add_parser("analyze", parents=[search],
                   help="discrepancy and spectrum of a file")
    sub.add_parser("certify", parents=[search],
                   help="second singular value certificate")

    ver = sub.add_parser("verify", help="run a bound-checking suite")
    versub = ver.add_subparsers(dest="suite", required=True)
    tho = versub.add_parser("thomason")
    tho.add_argument("--input", required=True)
    tho.add_argument("--p", type=float, required=True)
    tho.add_argument("--mu", type=float, required=True)
    tho.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    tho.add_argument("--seed", type=int, default=1)
    chu = versub.add_parser("chung")
    chu.add_argument("--input", required=True)
    chu.add_argument("--alpha", type=float, default=None)
    chu.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    chu.add_argument("--seed", type=int, default=1)
    fam = versub.add_parser("family")
    fam.add_argument("--sizes", default="50,100,200")
    fam.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    fam.add_argument("--seed", type=int, default=7)
    pap = versub.add_parser("paper-suite")
    pap.add_argument("--max-k", type=int, default=64)
    pap.add_argument("--max-p", type=int, default=None)
    pap.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    pap.add_argument("--seed", type=int, default=1)
    pap.add_argument("--quick", action="store_true", default=False)
    return parser


_HANDLERS = {
    "construct": _cmd_construct,
    "analyze": _cmd_analyze,
    "certify": _cmd_certify,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        results, extra, summary, code = _HANDLERS[args.command](args)
    except MatdiscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, TooLargeError):
            print("hint: rerun with --heuristic --iters N --seed S",
                  file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    timing = {"seconds": time.perf_counter() - started, **extra.pop("timing", {})}
    report = {
        "command": list(argv) if argv is not None else sys.argv[1:],
        "version": __version__,
        "results": _jsonify(results),
        **_jsonify(extra),
        "timing": _jsonify(timing),
    }
    print(json.dumps(report, sort_keys=True))
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

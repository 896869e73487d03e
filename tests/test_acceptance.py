"""End-to-end acceptance checks, one test per shipped guarantee.

Every test prints a single PASS/FAIL line so the suite output doubles
as a short report. The checks run at their full published parameters,
so this file is slower than the unit tests; the runtime limits are part
of the guarantees and are asserted where they apply.
"""

import json
import time

from matdisc.cli import main as cli_main
from matdisc.suite import (
    check_block_matrices,
    check_block_spectral_gap,
    check_certificates,
    check_compression,
    check_quantization,
    check_residue_graphs,
    check_small_graph_bound,
    check_sparse_family,
    check_tightness_family,
)


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{label}]: {state}{suffix}")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_criterion_01_tightness_family():
    result, elapsed = _timed(check_tightness_family, max_k=64)
    ok = result["pass"] and elapsed < 60.0
    _report(1, "tightness family", ok,
            f"min mu2 margin {result['min_mu2_margin']:.3g}, "
            f"max disc {result['max_structured_disc']:.4g}, {elapsed:.1f}s")
    assert result["pass"], result["failures"]
    assert elapsed < 60.0


def test_criterion_02_certificate_chain():
    result, elapsed = _timed(check_certificates, trials=200, seed=2)
    ok = result["pass"] and elapsed < 120.0
    _report(2, "certificate chain", ok,
            f"min link slack {result['min_link_slack']:.3g}, {elapsed:.1f}s")
    assert result["pass"], result["failures"]
    assert elapsed < 120.0


def test_criterion_03_quantization():
    result, _ = _timed(check_quantization, vectors=500, seed=3)
    _report(3, "vector quantization", result["pass"],
            f"max error ratio {result['max_error_over_epsilon']:.4g}, "
            f"repairs {result['repairs']}")
    assert result["pass"], result["failures"]


def test_criterion_04_quotient_compression():
    result, _ = _timed(check_compression, trials=200, seed=4)
    _report(4, "quotient compression", result["pass"],
            f"min margin {result['min_margin']:.3g}, "
            f"{result['identity_checks']} identity checks")
    assert result["pass"], result["failures"]


def test_criterion_05_residue_graphs():
    result, elapsed = _timed(check_residue_graphs, primes=(13, 101, 199))
    ok = result["pass"] and elapsed < 60.0
    degree_hits = sum(r["degree_gap_violations"] for r in result["per_prime"])
    codeg_hits = sum(r["codegree_violations"] for r in result["per_prime"])
    _report(5, "residue graphs", ok,
            f"degree gap hits {degree_hits}, codegree gap hits {codeg_hits}, "
            f"{elapsed:.1f}s")
    assert result["pass"], result["failures"]
    assert elapsed < 60.0


def test_criterion_06_block_matrices():
    result, _ = _timed(check_block_matrices, primes=(13, 17, 19))
    worst_gap = max(r["rayleigh_gap"] for r in result["per_prime"])
    _report(6, "block matrices", result["pass"],
            f"max rayleigh gap {worst_gap:.3g}")
    assert result["pass"], result["failures"]


def test_criterion_07_block_spectral_gap():
    result, _ = _timed(check_block_spectral_gap,
                       p=13, samples=10_000, seed=6)
    _report(7, "block spectral gap", result["pass"],
            f"lambda_bar {result['lambda_bar']:.6g} vs "
            f"floor {result['floor']:.6g}")
    assert result["pass"], result


def test_criterion_08_small_graph_bound():
    result, elapsed = _timed(check_small_graph_bound, max_n=7)
    ok = result["pass"] and elapsed < 120.0
    _report(8, "edge distribution sweep", ok,
            f"{result['graphs_seen']} graphs, "
            f"{result['pairs_checked']} pairs, "
            f"max slack {result['max_slack']:.3g}, {elapsed:.1f}s")
    assert result["pass"], result
    assert elapsed < 120.0


def test_criterion_09_sparse_family():
    result, elapsed = _timed(check_sparse_family,
                             sizes=(50, 100, 200), samples=10_000, seed=7)
    ok = result["pass"] and elapsed < 60.0
    ratios = [row["sigma2_over_pn"] for row in result["members"]]
    _report(9, "sparse family scaling", ok,
            "sigma2/pn " + ", ".join(f"{r:.3f}" for r in ratios)
            + f", {elapsed:.1f}s")
    assert result["sigma2_window_ok"], result
    assert result["disc_ratio_decreasing"], result
    assert result["pass"], result
    assert elapsed < 60.0


def test_criterion_10_suite_determinism(capsys):
    argv = ["verify", "paper-suite", "--max-p", "13", "--max-k", "8",
            "--samples", "500", "--quick"]
    outputs = []
    codes = []
    for _ in range(2):
        codes.append(cli_main(argv))
        payload = json.loads(capsys.readouterr().out)
        outputs.append(json.dumps(payload["results"], sort_keys=True))
    ok = codes == [0, 0] and outputs[0] == outputs[1]
    _report(10, "suite determinism", ok,
            f"{len(outputs[0])} bytes of results JSON")
    assert codes == [0, 0]
    assert outputs[0] == outputs[1]

import numpy as np
import pytest

from matdisc.constructions import block_matrix, block_plan
from matdisc.suite import check_block_matrices, run_suite


def test_quick_suite_passes():
    report = run_suite(quick=True, max_p=13, max_k=8, samples=300)
    assert report["pass"]
    assert set(report["checks"]) == {
        "tightness_family", "certificates", "quantization", "compression",
        "residue_graphs", "block_matrices", "block_spectral_gap",
        "small_graph_bound", "sparse_family",
    }
    for name, check in report["checks"].items():
        assert check["pass"], name
    params = report["parameters"]
    assert params["quick"] and params["max_k"] == 8
    assert params["trials"] == 40 and params["samples"] == 300


def test_suite_rejects_empty_prime_range():
    with pytest.raises(ValueError):
        run_suite(max_p=11)


def test_block_cap_is_sigma1_of_centered_matrix():
    report = check_block_matrices(primes=(13,))
    assert report["pass"] and "seed" not in report
    row = report["per_prime"][0]
    a = block_matrix(block_plan(13)).a
    assert abs(row["disc_upper"] - np.linalg.norm(a - a.mean(), 2)) <= 1e-9
    # the cap bounds every disc value, the pinned heuristic one included
    assert row["disc_upper"] >= 10.0

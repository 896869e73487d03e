"""Per-layer metrics from a traced run's span summary.

The layer -> metric -> workload map lives in layers.json next to this
file; layer_metrics() returns exactly the metrics it names.  A layer a
workload does not touch reads zero.
"""

from __future__ import annotations

import json
from pathlib import Path

LAYER_MAP = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())
METRIC_NAMES = [m for layer in LAYER_MAP["layers"] for m in layer["metrics"]]

SUITE_CHECKS = ("tightness_family", "certificates", "quantization",
                "compression", "residue_graphs", "block_matrices",
                "block_spectral_gap", "small_graph_bound", "sparse_family")
PAIR_CHECKS = ("spectral.chung_alpha_check", "spectral.thomason_report",
               "spectral.thomason_small_graph_sweep",
               "spectral.family_properties")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(summary: dict, overhead_ratio: float,
                  speedup_threads: float) -> dict:
    """summary is tracer.summarize() of the traced pass."""
    def row(name):
        return summary.get(name, {"calls": 0, "duration": 0.0, "self": 0.0,
                                  "counts": {}})

    def self_s(name):
        return row(name)["self"]

    def calls(name):
        return row(name)["calls"]

    def count(name, key):
        return row(name)["counts"].get(key, 0)

    masks = count("discrepancy.disc_exact", "masks")
    evaluations = count("discrepancy.disc_heuristic", "evaluations")
    pairs = sum(count(name, "pairs") for name in PAIR_CHECKS)
    pair_seconds = sum(self_s(name) for name in PAIR_CHECKS)
    m = {
        "cli.main.self_s": self_s("cli.main"),
        "linalg.eig_symmetric.calls": calls("linalg.eig_symmetric"),
        "linalg.eig_symmetric.self_s": self_s("linalg.eig_symmetric"),
        "linalg.read_matrix.self_s": self_s("linalg.read_matrix"),
        "linalg.read_matrix.bytes": count("linalg.read_matrix", "bytes"),
        "graphs.read_graph.self_s": self_s("graphs.read_graph"),
        "graphs.read_graph.edges": count("graphs.read_graph", "edges"),
        "graphs.Graph.self_s": self_s("graphs.Graph"),
        "graphs.Graph.edges": count("graphs.Graph", "edges"),
        "graphs.from_adjacency.self_s": self_s("graphs.from_adjacency"),
        "graphs.gnp_random_graph.self_s": self_s("graphs.gnp_random_graph"),
        "discrepancy.disc_exact.calls": calls("discrepancy.disc_exact"),
        "discrepancy.disc_exact.self_s": self_s("discrepancy.disc_exact"),
        "discrepancy.exact.masks": masks,
        "discrepancy.exact.masks_per_s": _rate(
            masks, row("discrepancy.disc_exact")["duration"]),
        "discrepancy.exact.speedup_threads": speedup_threads,
        "discrepancy.disc_heuristic.calls": calls("discrepancy.disc_heuristic"),
        "discrepancy.disc_heuristic.self_s": self_s("discrepancy.disc_heuristic"),
        "discrepancy.heuristic.evaluations": evaluations,
        "discrepancy.heuristic.evals_per_s": _rate(
            evaluations, row("discrepancy.disc_heuristic")["duration"]),
        "quantization.certify_sigma2.self_s": self_s("quantization.certify_sigma2"),
        "quantization.pool_pairs": count("quantization.certify_sigma2", "pool_pairs"),
        "quantization.quantize.calls": calls("quantization.quantize"),
        "quantization.quantize.self_s": self_s("quantization.quantize"),
        "quantization.quotient_compress.self_s": self_s("quantization.quotient_compress"),
        "quantization.classes": count("quantization.quotient_compress", "classes"),
        "constructions.qpt_graph.calls": calls("constructions.qpt_graph"),
        "constructions.qpt_graph.self_s": self_s("constructions.qpt_graph"),
        "constructions.block_matrix.self_s": self_s("constructions.block_matrix"),
        "constructions.tightness_matrix.self_s": self_s("constructions.tightness_matrix"),
        "constructions.sparse_union.self_s": self_s("constructions.sparse_union"),
        "spectral.chung_alpha_check.self_s": self_s("spectral.chung_alpha_check"),
        "spectral.thomason_report.self_s": self_s("spectral.thomason_report"),
        "spectral.thomason_small_graph_sweep.self_s": self_s(
            "spectral.thomason_small_graph_sweep"),
        "spectral.family_properties.self_s": self_s("spectral.family_properties"),
        "spectral.laplacian_spectrum.self_s": self_s("spectral.laplacian_spectrum"),
        "spectral.pairs": pairs,
        "spectral.pairs_per_s": _rate(pairs, pair_seconds),
        **{f"suite.{c}.s": row(f"suite.check_{c}")["duration"]
           for c in SUITE_CHECKS},
        "trace.overhead_ratio": overhead_ratio,
    }
    if set(m) != set(METRIC_NAMES):
        raise RuntimeError("layers.json and layer_metrics name different metrics")
    return m


def layer_shares(summary: dict, wall: float) -> dict:
    """Share of the traced wall time spent as self time in each module."""
    shares: dict = {}
    for name, row in summary.items():
        module = name.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + row["self"]
    return {k: v / wall for k, v in sorted(shares.items())} if wall > 0 else {}

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from matdisc import (
    all_ones,
    cli,
    complete_graph,
    errors,
    harmonic_number,
    quantization,
    qpt_graph,
    read_graph,
    read_matrix,
    tightness_matrix,
    write_graph,
    write_matrix,
)
from matdisc.cli import main
from matdisc.linalg import HEADER_CHARS, MAX_VERTICES


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def test_construct_tightness_round_trip(tmp_path, capsys):
    out = tmp_path / "t.txt"
    code, payload, err = run_cli(
        capsys, ["construct", "tightness", "--k", "4", "-o", str(out)])
    assert code == 0
    assert payload["results"]["n"] == 8
    assert "sha256" in payload["results"]["output"]
    assert np.array_equal(read_matrix(out).a, tightness_matrix(4).a)
    assert "wrote tightness" in err


def test_construct_qpt_round_trip(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, payload, _ = run_cli(
        capsys, ["construct", "qpt", "--p", "13", "--t", "3", "-o", str(out)])
    assert code == 0
    assert payload["results"]["m"] == 26
    assert payload["results"]["degree"] == 4
    assert read_graph(out).edges == qpt_graph(13, 3).edges


def test_construct_blockmatrix(tmp_path, capsys):
    out = tmp_path / "b.txt"
    code, payload, _ = run_cli(
        capsys, ["construct", "blockmatrix", "--p", "13", "-o", str(out)])
    assert code == 0
    assert payload["results"]["n"] == 52
    a = read_matrix(out).a
    assert np.all(a.sum(axis=1) == 26)


def test_analyze_flat_matrix(tmp_path, capsys):
    path = tmp_path / "ones.txt"
    write_matrix(all_ones(8), path)
    code, payload, _ = run_cli(capsys, ["analyze", str(path)])
    assert code == 0
    res = payload["results"]
    assert res["kind"] == "matrix"
    assert res["disc"]["value"] == 0.0
    assert res["sigma2_over_disc_ln_n"] is None
    assert res["rho_prime"] == 1.0


def test_analyze_tightness(tmp_path, capsys):
    path = tmp_path / "t8.txt"
    write_matrix(tightness_matrix(8), path)
    code, payload, _ = run_cli(capsys, ["analyze", str(path)])
    res = payload["results"]
    assert code == 0
    assert res["disc"]["value"] < 4.0
    assert res["sigma2"] == pytest.approx(2.0 * harmonic_number(8), abs=1e-9)
    assert res["sigma2_over_disc_ln_n"] == pytest.approx(
        res["sigma2"] / (res["disc"]["value"] * math.log(16)), rel=1e-12)


def test_analyze_graph_extras(tmp_path, capsys):
    path = tmp_path / "k6.txt"
    write_graph(complete_graph(6), path)
    code, payload, _ = run_cli(capsys, ["analyze", str(path)])
    res = payload["results"]
    assert code == 0
    assert res["kind"] == "graph"
    assert res["density"] == 1.0
    assert "disc_gap_bound" in res


def test_analyze_heuristic_needs_seed(tmp_path, capsys):
    path = tmp_path / "t4.txt"
    write_matrix(tightness_matrix(4), path)
    for command in ("analyze", "certify"):
        code, payload, err = run_cli(
            capsys, [command, str(path), "--heuristic"])
        assert code == 2
        assert payload is None
        assert "--seed" in err
        code, payload, _ = run_cli(
            capsys, [command, str(path), "--heuristic", "--seed", "3"])
        assert code == 0
        res = payload["results"]
        disc = res["disc"] if command == "analyze" else res["certificate"]["disc"]
        assert disc["mode"] == "heuristic"
        assert payload["seed"] == 3


def test_certify_headline(tmp_path, capsys):
    path = tmp_path / "t6.txt"
    write_matrix(tightness_matrix(6), path)
    code, payload, err = run_cli(capsys, ["certify", str(path)])
    assert code == 0
    cert = payload["results"]["certificate"]
    assert cert["headline_holds"]
    assert all(link["slack"] >= -1e-8 for link in cert["links"])
    assert "certificate holds" in err


def test_bad_parameters_exit_2(tmp_path, capsys):
    out = tmp_path / "x.txt"
    code, _, err = run_cli(
        capsys, ["construct", "qpt", "--p", "9", "--t", "1", "-o", str(out)])
    assert code == 2 and "prime" in err


def test_missing_file_exit_3(capsys):
    code, _, err = run_cli(capsys, ["analyze", "/nonexistent/m.txt"])
    assert code == 3
    assert "i/o error" in err


def test_too_large_exit_4(tmp_path, capsys, monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("the exact search must fail before certify_sigma2")

    monkeypatch.setattr(cli, "certify_sigma2", not_reached)
    path = tmp_path / "big.txt"
    write_matrix(all_ones(25), path)
    for command in ("analyze", "certify"):
        code, payload, err = run_cli(capsys, [command, str(path)])
        assert code == 4
        assert payload is None
        assert "--heuristic" in err  # hint names the escape hatch


def test_huge_graph_header_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("graph 1000000000 0\n")
    start = time.perf_counter()
    code, payload, err = run_cli(capsys, ["analyze", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert payload is None
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["construct", "qpt", "--p", "10007", "--t", "1", "-o"],
    ["construct", "tightness", "--k", "5001", "-o"],
    ["construct", "tightness", "--k", "1000000000000", "-o"],
    ["verify", "paper-suite", "--max-k", "5001"],
], ids=["qpt", "tightness-5001", "tightness-1e12", "paper-suite-5001"])
def test_above_vertex_cap_exit_2(tmp_path, capsys, argv):
    """Orders past MAX_VERTICES fail before any n x n allocation or
    eigensolve, and write nothing."""
    if argv[-1] == "-o":
        argv = argv + [str(tmp_path / "out.txt")]
    start = time.perf_counter()
    code, payload, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert payload is None
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not any(tmp_path.iterdir())


def test_quantizer_budget_check_exit_5(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t6.txt"
    write_matrix(tightness_matrix(6), path)
    monkeypatch.setattr(quantization, "complex_value_ceiling", lambda n, eps: 1)
    code, payload, err = run_cli(capsys, ["certify", str(path)])
    assert code == errors.InvariantError.exit_code == 5
    assert payload is None
    assert err.startswith("error: quantizer exceeded its value budget")
    assert len(err.splitlines()) == 1


def test_verify_chung_exit_codes(tmp_path, capsys):
    # K6 as a graph file and as a 0/1 sym matrix file, which the CLI
    # turns into a graph through from_adjacency
    graph_path = tmp_path / "k6.txt"
    write_graph(complete_graph(6), graph_path)
    sym_path = tmp_path / "k6_sym.txt"
    write_matrix(complete_graph(6).adjacency, sym_path)
    for path in (graph_path, sym_path):
        code, payload, _ = run_cli(
            capsys, ["verify", "chung", "--input", str(path)])
        assert code == 0
        report = payload["results"]["report"]
        assert report["params"]["alpha_min"] == pytest.approx(0.2, abs=1e-12)
        code, payload, err = run_cli(
            capsys, ["verify", "chung", "--input", str(path),
                     "--alpha", "1e-6"])
        assert code == 6
        assert payload["results"]["report"]["pass"] is False
        assert "FAIL" in err


def test_verify_family(capsys):
    code, payload, err = run_cli(
        capsys, ["verify", "family", "--sizes", "20,40,80",
                 "--samples", "500"])
    assert code == 0
    results = payload["results"]
    assert results["pass"] is True
    assert results["sizes"] == [20, 40, 80]
    assert [m["n"] for m in results["members"]] == [27, 51, 98]
    assert results["disc_ratio_decreasing"] is True
    assert payload["seed"] == 7
    assert err.startswith("family: PASS")


@pytest.mark.parametrize("sizes, bad", [("0,10,20", 0), ("1,2,3", 1)])
def test_verify_family_rejects_tiny_sizes(capsys, sizes, bad):
    code, payload, err = run_cli(
        capsys, ["verify", "family", "--sizes", sizes, "--samples", "50"])
    assert code == 2
    assert payload is None
    assert f"family sizes must be at least 2, got {bad}" in err


def test_verify_thomason(tmp_path, capsys):
    path = tmp_path / "k8.txt"
    write_graph(complete_graph(8), path)
    code, payload, _ = run_cli(
        capsys, ["verify", "thomason", "--input", str(path),
                 "--p", "0.875", "--mu", "0"])
    assert code == 0
    report = payload["results"]["report"]
    assert report["pass"] is True
    assert report["instances"] == 255 * 255
    assert payload["timing"]["grid_pairs"] == 0  # no row above tol


def test_verify_grid_pairs_in_timing_only(tmp_path, capsys):
    path = tmp_path / "k6.txt"
    write_graph(complete_graph(6), path)
    code, payload, _ = run_cli(capsys, ["verify", "chung", "--input", str(path)])
    assert code == 0
    report = payload["results"]["report"]
    assert "grid_pairs" not in report and "grid_pairs" not in report["params"]
    assert 0 < payload["timing"]["grid_pairs"] < 63 * 63


@pytest.mark.parametrize("argv", [
    ["chung", "--alpha", "nan"],
    ["chung", "--alpha", "inf"],
    ["thomason", "--p", "0.3", "--mu", "nan"],
    ["thomason", "--p", "0.3", "--mu", "inf"],
    ["thomason", "--p", "nan", "--mu", "1"],
    ["chung", "--alpha", "-1"],
], ids=["alpha-nan", "alpha-inf", "mu-nan", "mu-inf", "p-nan",
        "alpha-negative"])
def test_verify_non_finite_parameter_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "q13.txt"
    write_graph(qpt_graph(13, 6), path)
    code, payload, err = run_cli(
        capsys, ["verify", argv[0], "--input", str(path), *argv[1:]])
    assert code == 2
    assert payload is None
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["analyze", "certify"])
def test_exact_scan_counters_in_timing(tmp_path, capsys, command):
    path = tmp_path / "t5.txt"
    write_matrix(tightness_matrix(5), path)
    code, payload, _ = run_cli(capsys, [command, str(path)])
    assert code == 0
    timing = payload["timing"]
    assert timing["disc_batches"] == 1
    assert 0 < timing["disc_rows_sorted"] <= 2 ** 10 - 1
    assert "disc_workers" not in timing
    assert "disc_rows_sorted" not in json.dumps(payload["results"])


@pytest.mark.parametrize("command, stages", [
    ("analyze", {"disc", "eig"}),
    ("certify", {"disc", "eig_A", "eig_B", "quantize", "compress", "eig_C",
                 "pool"}),
])
def test_stage_seconds_in_timing_only(tmp_path, capsys, command, stages):
    path = tmp_path / "t5.txt"
    write_matrix(tightness_matrix(5), path)
    runs = []
    for _ in range(2):
        code, payload, _ = run_cli(capsys, [command, str(path)])
        assert code == 0
        seconds = payload["timing"]["stage_seconds"]
        assert set(seconds) == stages
        assert all(0.0 <= s <= payload["timing"]["seconds"]
                   for s in seconds.values())
        runs.append(json.dumps(payload["results"], sort_keys=True))
    assert '"stage_seconds"' not in runs[0]
    assert runs[0] == runs[1]


def test_parser_built_once_and_reused(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    path = tmp_path / "t4.txt"
    code, _, _ = run_cli(capsys, ["construct", "tightness", "--k", "4",
                                  "-o", str(path)])
    assert code == 0
    code, payload, _ = run_cli(
        capsys, ["analyze", str(path), "--heuristic", "--seed", "3"])
    assert code == 0 and payload["seed"] == 3
    # No flag of the previous call leaks into the next one.
    code, payload, _ = run_cli(capsys, ["certify", str(path)])
    assert code == 0
    assert payload["seed"] is None
    assert payload["results"]["certificate"]["disc"]["mode"] == "exact"


def test_bad_argv_exits_2_and_next_call_works(tmp_path, capsys):
    path = tmp_path / "t3.txt"
    write_matrix(tightness_matrix(3), path)
    for argv in (["analyze", str(path), "--threads", "two"], ["frobnicate"],
                 ["analyze"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()
        code, payload, _ = run_cli(capsys, ["analyze", str(path)])
        assert code == 0 and payload["results"]["n"] == 6


def test_threads_default_is_cpu_count():
    args = cli._build_parser().parse_args(["analyze", "m.txt"])
    assert args.threads == (os.cpu_count() or 1)


def test_results_deterministic(tmp_path, capsys):
    path = tmp_path / "t5.txt"
    write_matrix(tightness_matrix(5), path)
    runs = []
    for _ in range(2):
        code, payload, _ = run_cli(capsys, ["analyze", str(path)])
        assert code == 0
        del payload["timing"]
        runs.append(json.dumps(payload, sort_keys=True))
    assert runs[0] == runs[1]


#: results of `verify paper-suite --quick --seed 1`, dumped with sort_keys
SUITE_PIN = Path(__file__).parent / "data" / "suite_quick_seed1.json"


@pytest.fixture(scope="module")
def quick_suite_report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "paper-suite", "--quick", "--seed", "1"])
    assert code == 0
    return json.loads(out.getvalue())


def test_quick_suite_results_match_pin(quick_suite_report):
    results = json.dumps(quick_suite_report["results"], sort_keys=True,
                         indent=1) + "\n"
    assert results == SUITE_PIN.read_text()


def test_suite_check_seconds_in_timing_only(quick_suite_report):
    seconds = quick_suite_report["timing"]["check_seconds"]
    assert len(seconds) == 9
    assert set(seconds) == set(quick_suite_report["results"]["checks"])
    assert all(0.0 <= s <= quick_suite_report["timing"]["seconds"]
               for s in seconds.values())
    assert "check_seconds" not in json.dumps(quick_suite_report["results"])


def test_sym_file_within_io_tolerance_is_symmetrized(tmp_path, capsys):
    path = tmp_path / "near.txt"
    path.write_text("sym 2\n1 0.5\n0.5000000001 1\n")
    code, payload, _ = run_cli(capsys, ["analyze", str(path)])
    assert code == 0
    assert payload["results"]["n"] == 2
    a = read_matrix(path).a
    assert np.array_equal(a, a.T)
    assert a[0, 1] == pytest.approx(0.50000000005, abs=1e-15)


# 1e300 is finite, but the searches' squared sums of it would not be
@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e300"])
def test_sym_file_non_finite_exit_2(tmp_path, capsys, entry):
    path = tmp_path / "bad.txt"
    path.write_text(f"sym 2\n1 {entry}\n{entry} 1\n")
    code, payload, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert payload is None
    assert err.startswith("error: ") and "finite" in err


_ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(cls, errors.MatdiscError)]
_EXPECTED_CODES = {"TooLargeError": 4, "InvariantError": 5,
                   "CertificateLinkViolatedError": 5}


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_package_error_has_its_exit_code(cls, monkeypatch, capsys):
    def fail(args):
        raise cls("boom")

    monkeypatch.setitem(cli._HANDLERS, "verify", fail)
    code, payload, err = run_cli(capsys, ["verify", "family"])
    assert code == _EXPECTED_CODES.get(cls.__name__, 2)
    assert payload is None
    assert "error: boom" in err


#: graph files the reader must reject: (header, edge list)
BAD_GRAPH_FILES = {
    "fraction": ("graph 3 1", "1 1.5"),
    "float-integer": ("graph 3 1", "1 2.0"),
    "exponent": ("graph 3 1", "1e3 2"),
    "odd-token-count": ("graph 3 2", "1 2\n3"),
    "wrong-m": ("graph 3 2", "1 2"),
    "labels-after-no-edges": ("graph 3 0", "1 2"),
    "20-digit-label": ("graph 3 1", "1 12345678901234567890"),
    "loop": ("graph 3 1", "2 2"),
    "repeat": ("graph 3 2", "1 2\n2 1"),
    "ragged-lines": ("graph 4 2", "1 2 3\n4"),
}


@pytest.mark.parametrize("name", sorted(BAD_GRAPH_FILES))
def test_graph_file_rejections(tmp_path, capsys, name):
    """Each rejection is a FormatError, and exit 2 with one error line
    through the CLI; no numpy warning is raised on the way."""
    header, body = BAD_GRAPH_FILES[name]
    path = tmp_path / "g.txt"
    path.write_text(f"{header}\n{body}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(errors.FormatError):
            read_graph(path)
        code, payload, err = run_cli(
            capsys, ["verify", "chung", "--input", str(path)])
    assert not caught
    assert code == 2 and payload is None
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("body", ["", "\n", "  \n\t\n"])
def test_graph_without_edges_reads_quietly(tmp_path, body):
    path = tmp_path / "g.txt"
    path.write_text(f"graph 4 0\n{body}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = read_graph(path)
    assert not caught
    assert g.n == 4 and g.m == 0


#: matrix files the reader must reject: (header, body)
BAD_SYM_FILES = {
    "ragged-lines": ("sym 2", "1 0 0\n1"),
    "underscore": ("sym 2", "1_0 0\n0 1"),
    "non-ascii-digit": ("sym 2", "\u0661 0\n0 1"),
    "wrong-count": ("sym 2", "1 0\n0"),
    "graph-header": ("graph 2 1", "1 0\n0 1"),  # a matrix body
    "above-order-cap": (f"sym {MAX_VERTICES + 1}", "1"),
}


@pytest.mark.parametrize("name", sorted(BAD_SYM_FILES))
def test_sym_file_rejections(tmp_path, capsys, name):
    """As for graph files: a FormatError, and exit 2 with one error line
    through the CLI; no numpy warning is raised on the way."""
    header, body = BAD_SYM_FILES[name]
    path = tmp_path / "m.txt"
    path.write_text(f"{header}\n{body}\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(errors.FormatError):
            read_matrix(path)
        code, payload, err = run_cli(capsys, ["analyze", str(path)])
    assert not caught
    assert code == 2 and payload is None
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("header", [f"sym {MAX_VERTICES + 1}",
                                    f"graph {MAX_VERTICES + 1} 0"])
def test_order_above_cap_rejected_before_body(tmp_path, monkeypatch, header):
    def no_body(*args, **kwargs):
        raise AssertionError("the body was read")

    monkeypatch.setattr(np, "loadtxt", no_body)
    path = tmp_path / "big.txt"
    path.write_text(f"{header}\n1\n")
    reader = read_matrix if header.startswith("sym") else read_graph
    with pytest.raises(errors.FormatError, match=str(MAX_VERTICES)):
        reader(path)


#: headers whose integers Python's int() reads but that are not ASCII
#: digits, each with a body that fits the order int() reads
NON_ASCII_HEADERS = {
    "sym-underscore": ("sym 1_0", "\n".join(["0 " * 10] * 10), ["analyze"]),
    "sym-arabic-indic": ("sym \u0662", "1 0\n0 1", ["analyze"]),
    "sym-plus": ("sym +2", "1 0\n0 1", ["analyze"]),
    "graph-underscore": ("graph 1_2 1", "1 2",
                         ["verify", "thomason", "--p", "0.5", "--mu", "1",
                          "--input"]),
}


@pytest.mark.parametrize("name", sorted(NON_ASCII_HEADERS))
def test_header_integers_are_ascii_digits(tmp_path, capsys, name):
    header, body, command = NON_ASCII_HEADERS[name]
    path = tmp_path / "h.txt"
    path.write_text(f"{header}\n{body}\n", encoding="utf-8")
    reader = read_matrix if header.startswith("sym") else read_graph
    with pytest.raises(errors.FormatError, match="header"):
        reader(path)
    code, payload, err = run_cli(capsys, [*command, str(path)])
    assert code == 2 and payload is None
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_digest_streams_the_file(tmp_path):
    path = tmp_path / "big.bin"
    path.write_bytes(np.random.default_rng(3).bytes(16 * 2**20 + 5))
    tracemalloc.start()
    try:
        digest = cli._digest(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    data = path.read_bytes()
    assert digest == {"path": str(path), "bytes": len(data),
                      "sha256": hashlib.sha256(data).hexdigest()}
    assert peak < 4 * 2**20


def _one_line_file(path, kind, size):
    """A file of about `size` bytes whose whole content is one header line."""
    head = "sym 2" if kind == "sym" else "graph 2 1"
    path.write_text(head + " 12" * (size // 3) + "\n", encoding="utf-8")


@pytest.mark.parametrize("kind", ["sym", "graph"])
def test_header_read_is_bounded(tmp_path, capsys, kind):
    """A 6 MB first line is a FormatError (exit 2) found after reading at
    most HEADER_CHARS characters of it: splitting the whole line would
    peak at about 20 times its size."""
    path = tmp_path / "long.txt"
    _one_line_file(path, kind, 6 * 2**20)
    reader = read_matrix if kind == "sym" else read_graph
    for call in (lambda: reader(path), lambda: main(["analyze", str(path)])):
        tracemalloc.start()
        try:
            try:
                code = call()
            except errors.FormatError:
                code = 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2 * 2**20
    assert "header line" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["sym", "graph"])
def test_header_line_bound_is_inclusive(tmp_path, kind):
    """A header of exactly HEADER_CHARS characters before its newline
    parses; one more character is a FormatError."""
    head, body = ("sym 1", "1\n") if kind == "sym" else ("graph 2 1", "1 2\n")
    reader = read_matrix if kind == "sym" else read_graph
    path = tmp_path / "h.txt"
    path.write_text(head.ljust(HEADER_CHARS) + "\n" + body, encoding="utf-8")
    assert reader(path).n == int(head.split()[1])
    path.write_text(head.ljust(HEADER_CHARS + 1) + "\n" + body, encoding="utf-8")
    with pytest.raises(errors.FormatError, match="header line"):
        reader(path)


@pytest.mark.parametrize("max_k", ["1", "0", "-3"])
def test_paper_suite_max_k_below_2_exit_2(capsys, max_k):
    """The tightness family starts at k = 2: a smaller --max-k would check
    nothing and pass."""
    code, payload, err = run_cli(capsys, ["verify", "paper-suite", "--quick",
                                          "--max-p", "13", "--max-k", max_k])
    assert code == 2 and payload is None
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "thomason", "--input", "{q101}", "--p", "0.24", "--mu", "18",
     "--samples", "0"],
    ["verify", "thomason", "--input", "{q101}", "--p", "0.9", "--mu", "18",
     "--samples", "0"],
    ["verify", "chung", "--input", "{q101}", "--samples", "0"],
    ["verify", "family", "--samples", "0"],
    ["verify", "paper-suite", "--quick", "--max-p", "13", "--samples", "0"],
    ["analyze", "{q13}", "--threads", "0"],
    ["certify", "{q13}", "--threads", "-2"],
    ["analyze", "{q13}", "--heuristic", "--seed", "1", "--threads", "0"],
], ids=["thomason-samples-0", "thomason-hypotheses-fail-samples-0",
        "chung-samples-0", "family-samples-0", "paper-suite-samples-0",
        "analyze-threads-0", "certify-threads-minus-2",
        "heuristic-threads-0"])
def test_vacuous_sample_or_thread_count_exit_2(tmp_path, capsys, argv):
    """No sample would make a sampled check pass on nothing, and no
    thread would run the exact scan serially without saying so."""
    paths = {"q101": tmp_path / "q101.txt", "q13": tmp_path / "q13.txt"}
    write_graph(qpt_graph(101, 25), paths["q101"])
    write_graph(qpt_graph(13, 3), paths["q13"])
    code, payload, err = run_cli(
        capsys, [arg.format(**paths) for arg in argv])
    assert code == 2 and payload is None
    assert err.startswith("error: ") and "at least 1" in err


@pytest.mark.parametrize("argv, seed", [
    (["thomason", "--input", "g.txt", "--p", "0.3", "--mu", "1"], 1),
    (["chung", "--input", "g.txt"], 1),
    (["family"], 7),
    (["paper-suite"], 1),
])
def test_verify_sample_and_seed_defaults(argv, seed):
    args = cli._build_parser().parse_args(["verify", *argv])
    assert (args.samples, args.seed) == (10_000, seed)

"""matdisc benchmark: drive the CLI end to end on seeded workloads.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the repository root (any directory holding src/matdisc,
BENCHMARK.json and perfbench/).  Load is a closed loop with one client:
each operation is one in-process call to matdisc.cli.main(argv) on
input files generated from --seed, and the next starts when it returns.
Every workload runs in fresh worker processes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics from a traced replay.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable summary and the
environment record.  Inputs, results and spans are written under
perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench import workloads  # noqa: E402

WORK = ROOT / "perfbench" / ".work"
#: set-up is measured in this many fresh processes and reported as the median
SETUP_RUNS = 5
#: a whole run, set-up and checks included, must end within this
RUN_BUDGET_S = 170.0
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not run; nothing is reported."""


def _check_checkout() -> dict:
    if not (ROOT / "src" / "matdisc" / "__init__.py").is_file():
        raise BenchError(f"no matdisc sources under {ROOT / 'src'}")
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        raise BenchError(f"{spec} is missing")
    return json.loads(spec.read_text())


def _spawn(role: str, plan_path: Path, seconds: float, deadline: float) -> dict:
    out_path = plan_path.parent / f"result-{role}.json"
    out_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), role,
           str(plan_path), str(out_path), repr(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} worker did not finish in time") from exc
    if proc.returncode != 0 or not out_path.is_file():
        raise BenchError(f"{role} worker failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(out_path.read_text())


def tail_latency(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with >= 10 samples beyond.

    That is the 11th-largest latency; with 10 or fewer samples it is the
    largest, reported as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(res: dict, setups: list) -> tuple:
    lat = res["latencies"]
    tail, pct = tail_latency(lat)
    metrics = {
        "ops_per_s": len(lat) / res["elapsed"],
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    notes = {
        "ops_per_s": f"{len(lat)} ops in {res['elapsed']:.3f} s",
        "op_p50_s": f"n = {len(lat)}",
        "op_tail_s": (f"p{pct:.1f}, {TAIL_BEYOND} samples beyond, n = {len(lat)}"
                      if pct < 100 else f"largest of n = {len(lat)}"),
        "setup_s": f"median of {len(setups)} fresh processes",
    }
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK / f"{name}-seed{seed}{'-tiny' if tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.build_plan(name, seed, work, tiny=tiny)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))

    if trace:
        res = _spawn("trace", plan_path, seconds, deadline)
        metrics, notes = res["layers"], {}
        wanted = spec["per_layer"]
    else:
        probes = [_spawn("setup", plan_path, seconds, deadline)
                  for _ in range(SETUP_RUNS - 1)]
        res = _spawn("run", plan_path, seconds, deadline)
        metrics, notes = end_to_end(res, [p["setup_s"] for p in probes]
                                    + [res["setup_s"]])
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise BenchError("computed metrics do not match BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in wanted}
    fail_ratio = res["failed"] / res["attempted"]

    print(f"workload {name}  seed {seed}  trace {int(trace)}"
          f"{'  (tiny sizes)' if tiny else ''}")
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<44} {value:>14.6g} {units[key]}{note}")
    print(f"  {'fail_ratio':<44} {fail_ratio:>14.6g} 1  "
          f"({res['failed']} of {res['attempted']} operations)")
    for reason in res["failures"]:
        print(f"  FAILED {reason}")
    if trace:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in res["layer_share"].items())
        print(f"  self-time share of traced wall: {shares}")
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "tiny": tiny, "fail_ratio": fail_ratio,
              "notes": notes, **res,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    (work / "result.json").write_text(json.dumps(detail, indent=1))
    print("env: " + json.dumps(res["env"], sort_keys=True))
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": detail["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.WORKLOADS,
                                 *workloads.EXTRA_WORKLOADS, "all"),
                        help="'all' runs the workloads of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (used by the benchmark's tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        spec = _check_checkout()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            line = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                args.tiny, spec)
            print(json.dumps(line), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

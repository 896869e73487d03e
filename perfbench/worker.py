"""The workload process: set-up, the timed closed loop, the traced run.

One fresh process per role, so import time, warm-up and peak memory
belong to the workload.  Nothing here imports numpy or matdisc before
set-up is timed.

Usage: worker.py <role> <plan.json> <result.json> <seconds>

Roles:
  setup   import matdisc and run the warm-up operation, report the time
  run     set-up, then the closed loop for the given seconds
  trace   set-up, the untraced loop as in "run", a traced replay of the
          same operations, and the thread-speedup pass
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

MAX_RECORDED_FAILURES = 5


def load_cli(root: Path):
    """Import matdisc.cli from root/src and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import matdisc
    import matdisc.cli
    if Path(matdisc.__file__).resolve().parent != (src / "matdisc").resolve():
        raise ImportError(f"matdisc was imported from {matdisc.__file__}, not {src}")
    return matdisc.cli


def execute(cli, argv: list) -> tuple:
    """One operation: (latency seconds, exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = -1
        out = io.StringIO(traceback.format_exc().strip().splitlines()[-1])
    return time.perf_counter() - start, code, out.getvalue()


def closed_loop(cli, cycle: list, seconds: float) -> tuple:
    """Run whole cycles back to back until `seconds` have passed.

    Stopping only between cycles keeps the mix of operations the same in
    every run; a run boundary falling among small operations would
    otherwise change the count, and with it every statistic, from run
    to run.  Returns ([(op, latency, code, stdout)], elapsed seconds).
    """
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        for op in cycle:
            records.append((op, *execute(cli, op["argv"])))
    return records, time.perf_counter() - start


def tally(records: list) -> dict:
    """Check every record's output; count attempts and failures."""
    from perfbench import oracles
    failures = []
    for op, _latency, code, stdout in records:
        reason = (f"raised {stdout}" if code == -1
                  else oracles.check(op["check"], code, stdout))
        if reason is not None:
            failures.append(f"{' '.join(op['argv'])}: {reason}")
    return {"attempted": len(records), "failed": len(failures),
            "failures": failures[:MAX_RECORDED_FAILURES]}


def _traced(cli, ops: list) -> tuple:
    """Replay ops under a fresh tracer: (records, wall seconds, tracer)."""
    from perfbench.tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        records = [(op, *execute(cli, op["argv"])) for op in ops]
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return records, wall, tracer


def _speedup(cli, ops: list) -> tuple:
    """disc_exact masks/s at default --threads over --threads 1."""
    from perfbench.tracer import summarize
    if not ops:
        return [], 0.0, []
    one = [dict(op, argv=op["argv"] + ["--threads", "1"]) for op in ops]
    rec_default, _, tr_default = _traced(cli, ops)
    rec_one, _, tr_one = _traced(cli, one)
    t_default = summarize(tr_default.spans)["discrepancy.disc_exact"]["duration"]
    t_one = summarize(tr_one.spans)["discrepancy.disc_exact"]["duration"]
    spans = tr_default.spans + tr_one.spans
    return rec_default + rec_one, t_one / t_default, spans


def trace_run(cli, plan: dict, seconds: float, work: Path) -> tuple:
    from perfbench import layers
    from perfbench.tracer import summarize
    records, untraced_wall = closed_loop(cli, plan["cycle"], seconds)
    replay, traced_wall, tracer = _traced(cli, [r[0] for r in records])
    speed_records, speedup, speed_spans = _speedup(cli, plan["speedup"])
    summary = summarize(tracer.spans)
    (work / "spans.json").write_text(json.dumps({
        "traced_wall": traced_wall,
        "spans": [s.to_json() for s in tracer.spans],
        "speedup_spans": [s.to_json() for s in speed_spans],
    }))
    result = {
        "layers": layers.layer_metrics(summary, traced_wall / untraced_wall,
                                       speedup),
        "layer_share": layers.layer_shares(summary, traced_wall),
        "untraced_wall": untraced_wall,
        "traced_wall": traced_wall,
        "self_total": sum(row["self"] for row in summary.values()),
    }
    return records + replay + speed_records, result


def main(root: Path, role: str, plan_path: Path, out_path: Path,
         seconds: float) -> int:
    plan = json.loads(plan_path.read_text())
    started = time.perf_counter()
    cli = load_cli(root)
    warm = (plan["warmup"], *execute(cli, plan["warmup"]["argv"]))
    setup_s = time.perf_counter() - started
    result: dict = {"setup_s": setup_s}
    if role != "setup":
        from perfbench.envinfo import environment
        if role == "trace":
            records, traced = trace_run(cli, plan, seconds, plan_path.parent)
            result.update(traced)
        else:
            records, elapsed = closed_loop(cli, plan["cycle"], seconds)
            result["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["elapsed"] = elapsed
            result["latencies"] = [r[1] for r in records]
        result.update(tally([warm, *records]))
        result["env"] = environment(root, plan["seed"])
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    ROOT = Path(__file__).resolve().parent.parent
    sys.path[0] = str(ROOT)
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "run", "trace"))
    parser.add_argument("plan", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("seconds", type=float)
    args = parser.parse_args()
    sys.exit(main(ROOT, args.role, args.plan, args.out, args.seconds))

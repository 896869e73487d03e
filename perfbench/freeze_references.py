"""Recompute references/exact-small.json from the current matdisc.

    python3 perfbench/freeze_references.py

The exact-small oracle compares every exact disc value it cannot
brute-force (n > 11) or take from the tightness closed form (k <= 8)
with the value stored here under the input file's sha256.  Inputs come
from EXACT_POOL seed classes, so the table covers every seed.  Rerun
this only when the exact-small inputs change, with a matdisc whose exact
engine is trusted; the values it writes become the oracle.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from matdisc import disc_exact, read_matrix  # noqa: E402

from perfbench import oracles, workloads  # noqa: E402


def main() -> int:
    work = ROOT / "perfbench" / ".work" / "freeze"
    values = {}
    for pool in range(workloads.EXACT_POOL):
        shutil.rmtree(work, ignore_errors=True)
        plan = workloads.build_plan("exact-small", pool, work)
        for op in [plan["warmup"], *plan["cycle"]]:
            check = op["check"]
            k = check["tight_k"]
            if (check["n"] <= oracles.BRUTE_FORCE_MAX_N
                    or (k is not None and k <= oracles.STRUCTURED_MAX_K)):
                continue
            sha = oracles.file_sha256(check["input"])
            if sha not in values:
                matrix = read_matrix(check["input"])
                values[sha] = disc_exact(matrix, threads=os.cpu_count() or 1).value
        print(f"seed class {pool}: {len(values)} values", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    oracles.REFERENCE_FILE.write_text(json.dumps(
        {"pool": workloads.EXACT_POOL, "values": dict(sorted(values.items()))},
        indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

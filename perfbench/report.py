"""Run every workload once and print each metric by name with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Each workload runs in its own process, because the BLAS thread count is fixed
when numpy loads and differs between workloads (see run.py).  Exits non-zero
if any workload fails to run or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import DEV_SEED, ROOT, WORKLOAD_NAMES  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=DEV_SEED)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    p.add_argument("--seconds", type=float, default=run_seconds, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", action="store_true", help="print the per-layer metrics instead")
    args = p.parse_args(argv)
    status = 0
    for w in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(f"{w}: exit {proc.returncode}\n{proc.stderr.strip()}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        fail_frac = res["failed"] / res["attempted"]
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              f"fail_frac={fail_frac:.6g}")
        for name, m in res["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        status |= not res["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at reduced sizes (about a minute on two cores).

    python3 perfbench/selftest.py

For every workload it checks that a smoke run prints exactly the metrics that
BENCHMARK.json names, each with its unit, with no failed operation; that two
traced runs report identical work counters; and that the benchmark refuses
to run, printing no result, in a copy holding only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import DEV_SEED, WORKLOAD_NAMES  # noqa: E402


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(DEV_SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, set(res)
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
    return res


def check_metrics(res: dict, declared: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want, f"{what}: printed {sorted(set(got) ^ set(want))} differ from BENCHMARK.json"
    for k, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)) and v["value"] == v["value"], f"{what}: {k}={v}"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOAD_NAMES)
    for w in WORKLOAD_NAMES:
        check_metrics(result(run(w, 0)), spec["end_to_end"], f"{w} trace 0")
        first, second = result(run(w, 1)), result(run(w, 1))
        check_metrics(first, spec["per_layer"], f"{w} trace 1")
        counts = [k for k, v in first["metrics"].items() if v["unit"] == "count" and not k.endswith(".failed")]
        differ = [k for k in counts if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        assert not differ, f"{w}: work counters differ between two runs: {differ}"
        print(f"ok {w}")

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOAD_NAMES[0], 0, cwd=bare)
        assert proc.returncode != 0, "benchmark ran without the package source"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without the package source"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""bmckde benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload cv_pipeline --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run (see
``tracing.py``).  The last line of standard output is the result object;
the line before it records the environment and the sample counts.

The development seed is DEV_SEED (1).  The held-out seed, HELDOUT_SEED
(271828), is kept for confirming a claimed gain and is not used while tuning.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEV_SEED = 1
HELDOUT_SEED = 271828
WORKLOAD_NAMES = ("cv_pipeline", "clt_sweep", "figure_grid", "oracle_moments")
MAX_POOL_WORKERS = 4  # bounds memory when the machine has many cores
SETUP_REPEATS = 5  # set-ups per run: this process and four fresh ones


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes, for the self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def pool_workers(workload: str, nproc: int) -> int:
    return min(nproc, MAX_POOL_WORKERS) if workload == "clt_sweep" else 1


def blas_threads_runtime():
    """Thread count OpenBLAS reports, or None when numpy does not bundle it."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(nproc: int, workers: int, blas: int) -> dict:
    import numpy
    import scipy

    blas_cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas_cfg.get('name')} {blas_cfg.get('version')}",
        "blas_threads": blas,
        "pool_workers": workers,
        "git_commit": commit,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (pool worker), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def setup_in_child(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--setup-only"] + (["--smoke"] if args.smoke else [])
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if res.returncode != 0:
        raise RuntimeError(f"set-up child failed ({res.returncode}): {res.stderr.strip()[-500:]}")
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


class Loop:
    """Closed loop over passes: prepare (untimed), run (timed), check (untimed)."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.accuracy: dict = {}
        self.next_index = 1
        self.last_cpu_s = 0.0  # this process's CPU time in the last pass's timed part

    def one_pass(self, run=None, tracer=None) -> float:
        """Run pass ``next_index``; spans go to ``tracer`` if given.  Returns its wall time."""
        wl, i = self.wl, self.next_index
        self.next_index += 1
        job = wl.prepare(i)
        run = run or wl.run
        if tracer is not None:
            tracer.op = i
            tracer.install()
        t, c = time.perf_counter(), time.process_time()
        try:
            out = run(job)
        except Exception as e:  # a failing pass counts all its ops as failed
            dt = time.perf_counter() - t
            traceback.print_exc(file=sys.stderr)
            self.attempted += job.ops
            self.failed += job.ops
            self.failures.append(("pass", f"pass {i}: {type(e).__name__}: {e}"))
            return dt
        finally:
            if tracer is not None:
                tracer.uninstall()
        dt = time.perf_counter() - t
        self.last_cpu_s = time.process_time() - c
        self.attempted += job.ops
        try:
            checked = wl.check(job, out)
        except Exception as e:  # outputs too broken to check: every op failed
            traceback.print_exc(file=sys.stderr)
            self.failed += job.ops
            self.failures.append(("check", f"pass {i}: {type(e).__name__}: {e}"))
            return dt
        self.failed += checked.failed_ops
        self.failures += checked.failures
        if i == 1:  # first timed pass: fixed by the seed alone
            self.accuracy = checked.accuracy
        for path in job.paths.values():
            if os.path.exists(path):
                os.unlink(path)
        return dt


def end_to_end(args, loop: Loop, setup_s: float) -> tuple[dict, dict]:
    walls = []
    while not walls or sum(walls) < args.seconds:
        walls.append(loop.one_pass())
    rss = peak_rss_mb()
    setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": ((loop.attempted - loop.failed) / sum(walls), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {"passes": len(walls), "wall_s_samples": walls, "setup_s_samples": setups}
    return metrics, info


def traced(args, wl, loop: Loop, workers: int, tracedir: str) -> tuple[dict, dict]:
    import tracing

    is_pool = wl.name == "clt_sweep"
    util = 0.0
    if is_pool:
        # worker utilisation needs the real pool; spans need one in-process worker
        c0 = child_cpu_s()
        wall = loop.one_pass()
        util = (child_cpu_s() - c0) / (workers * wall)
    run_one = (lambda job: wl.run(job, workers=1)) if is_pool else wl.run

    tracer = tracing.Tracer()
    plain, spanned, traced_ops, cpu = [], [], [], 0.0
    start = time.perf_counter()
    while not spanned or time.perf_counter() - start < args.seconds:
        plain.append(loop.one_pass(run_one))
        traced_ops.append(loop.next_index)
        spanned.append(loop.one_pass(run_one, tracer))
        cpu += loop.last_cpu_s
    if wl.name == "figure_grid":  # serial harness: this process is the worker
        util = cpu / sum(spanned)

    per_op = [tracing.summarize(tracer.spans, [op]) for op in traced_ops]
    first = per_op[0]
    # exact work counters; tree.io counts bytes, which depend on the values written
    exact = [(s["calls"], {k: v for k, v in s["units"].items() if k != "tree.io"}) for s in per_op]
    counts_repeat = all(e == exact[0] for e in exact)
    total = tracing.summarize(tracer.spans, traced_ops)
    span_s = sum(spanned)
    kself = total["kind_self_s"]
    calls, units = first["calls"], first["units"]

    def frac(*kinds):
        return sum(kself.get(k, 0.0) for k in kinds) / span_s

    def rate(*kinds):
        s = sum(kself.get(k, 0.0) for k in kinds)
        return sum(total["units"].get(k, 0) for k in kinds) / s if s > 0 else 0.0

    check_fails = {layer: 0 for layer in tracing.LAYERS}
    for layer, _ in loop.failures:
        if layer in check_fails:
            check_fails[layer] += 1
    m = {
        "trace.pass_s": (statistics.median(spanned), "s"),
        "trace.base_wall_s": (statistics.median(plain), "s"),
        "trace.overhead_frac": ((statistics.median(spanned) - statistics.median(plain)) / statistics.median(plain), "frac"),
        "trace.spans": (first["spans"], "count"),
        "trace.uncovered_frac": (1.0 - total["covered_s"] / span_s, "frac"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_frac"] = (total["self_s"][layer] / span_s, "frac")
        m[f"{layer}.failed"] = (total["failed"][layer] + check_fails[layer], "count")
    m.update({
        "tree.triangle_arrays_calls": (calls.get("tree.triangles", 0), "count"),
        "tree.io_frac": (frac("tree.io"), "frac"),
        "tree.io_mb": (units.get("tree.io", 0) / 1e6, "MB"),
        "bar.simulate_calls": (calls.get("bar.simulate", 0), "count"),
        "bar.nodes": (units.get("bar.simulate", 0), "count"),
        "bar.nodes_per_s": (rate("bar.simulate"), "1/s"),
        "estimators.grid_calls": (calls.get("estimators.grid", 0), "count"),
        "estimators.grid_frac": (frac("estimators.grid"), "frac"),
        "estimators.point_calls": (calls.get("estimators.point_top", 0), "count"),
        "estimators.point_frac": (frac("estimators.point"), "frac"),
        "estimators.kernel_evals": (units.get("estimators.grid", 0) + units.get("estimators.point", 0), "count"),
        "estimators.kernel_evals_per_s": (rate("estimators.grid", "estimators.point"), "1/s"),
        "estimators.sup_err": (loop.accuracy.get("estimators.sup_err", 0.0), "density"),
        "cv.select_calls": (calls.get("cv.select", 0), "count"),
        "cv.pair_evals": (units.get("cv.select", 0), "count"),
        "cv.pair_evals_per_s": (rate("cv.select"), "1/s"),
        "rot.select_calls": (calls.get("rot.select", 0), "count"),
        "oracle.apply_q_calls": (first["names"].get("oracle.apply_q:quadrature", 0), "count"),
        "oracle.quadrature_frac": (frac("oracle.quadrature"), "frac"),
        "oracle.mc_self_frac": (frac("oracle.mc"), "frac"),
        "oracle.max_absz": (loop.accuracy.get("oracle.max_absz", 0.0), "1"),
        "harness.replications": (units.get("harness.run", 0), "count"),
        "harness.workers": (workers if is_pool else int("harness.run" in calls), "count"),
        "harness.worker_util": (util, "frac"),
        "harness.clt_ks": (loop.accuracy.get("harness.clt_ks", 0.0), "1"),
        "cli.calls": (calls.get("cli.main", 0), "count"),
    })
    os.makedirs(tracedir, exist_ok=True)
    tracer.write(os.path.join(tracedir, f"trace-{wl.name}-seed{args.seed}.json"))
    layers = sorted(tracing.LAYERS, key=lambda k: -total["self_s"][k])
    info = {
        "traced_passes": len(spanned),
        "untraced_passes": len(plain),
        "counts_repeat_across_passes": counts_repeat,
        "dominant_self_time": [(k, round(total["self_s"][k] / span_s, 4)) for k in layers[:3]],
        "note": "clt_sweep traced with one in-process worker; worker_util from one pool pass" if is_pool else "",
    }
    return m, info


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    workers = pool_workers(args.workload, nproc)
    blas_want = max(1, nproc // workers)
    # must precede the first numpy import; children and pool workers inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_want)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bmckde", "__init__.py")):
        print(f"error: no package source under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    import bmckde

    if os.path.dirname(os.path.abspath(bmckde.__file__)) != os.path.join(src, "bmckde"):
        print(f"error: imported bmckde from {bmckde.__file__}, not from {src}", file=sys.stderr)
        return 1
    blas = blas_threads_runtime()
    blas = blas_want if blas is None else blas
    if workers * blas > nproc:
        print(f"error: {workers} pool workers x {blas} BLAS threads exceed {nproc} cores", file=sys.stderr)
        return 1

    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    state = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(state, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir, workers)
        # untimed warm-up at reduced size: lazy imports and every code path of a pass,
        # cheap enough to repeat SETUP_REPEATS times per run
        warm = workloads.WORKLOADS[args.workload](args.seed, workloads.SMOKE, workdir, workers)
        warm.run(warm.prepare(0))
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        loop = Loop(wl)
        if args.trace:
            metrics, info = traced(args, wl, loop, workers, state)
        else:
            metrics, info = end_to_end(args, loop, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(workload=args.workload, seed=args.seed, smoke=args.smoke, trace=args.trace,
                env=environment(nproc, workers, blas), failures=loop.failures[:10])
    print(json.dumps(info))
    print(json.dumps({
        "correct": loop.failed == 0 and not loop.failures,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

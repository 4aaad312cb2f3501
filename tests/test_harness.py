import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmckde import estimators, harness, table
from bmckde.bar import BarParams, InitSpec, simulate
from bmckde.cv import default_grid
from bmckde.estimators import mu_tri_hat, p_hat
from bmckde.harness import (
    CASE1,
    CASE2,
    CvSelector,
    ExperimentSpec,
    FigureGrid,
    FixedGamma,
    RotSelector,
    case_params,
    gnuplot_script,
    mean_sup_errors,
    run_clt_mu_tri,
    run_clt_p_hat,
    run_figure_reproduction,
    summarize_stats,
    write_figure_outputs,
)
from bmckde.rng import derive_seed
from bmckde.tree import Population, tree_size

SYM = BarParams(0.5, 0.5, 0.0, 0.0, 1.0, 0.0)


def small_spec(**kw):
    base = dict(
        model=SYM,
        n_list=(6,),
        replications=8,
        point=(0.0, 0.0, 0.0),
        population=Population.GEN_N,
        selector=FixedGamma(0.2),
        seed=11,
        threads=1,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        FixedGamma(0.5)
    with pytest.raises(ValueError):
        small_spec(replications=0)
    with pytest.raises(ValueError):
        small_spec(n_list=())


def test_single_replication_deterministic():
    r1 = run_clt_p_hat(small_spec(replications=1))
    r2 = run_clt_p_hat(small_spec(replications=1))
    assert len(r1.rows) == 1
    assert r1.rows[0] == r2.rows[0]


def test_report_row_counts_and_summary():
    spec = small_spec(n_list=(5, 6), replications=5)
    rep = run_clt_mu_tri(spec)
    assert len(rep.rows) == 10
    assert len(rep.summaries) == 2
    assert all(np.isfinite(r.stat) for r in rep.rows)
    assert {s["n"] for s in rep.summaries} == {5, 6}


def test_bandwidth_is_fixed_gamma():
    spec = small_spec(selector=FixedGamma(0.25), n_list=(6,), replications=2)
    rep = run_clt_p_hat(spec)
    assert all(r.h_num == pytest.approx(2 ** (-6 * 0.25)) for r in rep.rows)
    assert all(r.h_den == r.h_num for r in rep.rows)


def test_asymmetric_model_rejected_for_clt():
    with pytest.raises(ValueError):
        run_clt_p_hat(small_spec(model=CASE1))


def test_thread_pool_merges_identically():
    spec1 = small_spec(replications=6, threads=1)
    spec4 = small_spec(replications=6, threads=4)
    r1 = run_clt_p_hat(spec1)
    r4 = run_clt_p_hat(spec4)
    assert r1.rows == r4.rows
    assert r1.summaries == r4.summaries


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size and initializer, maps in this process."""

    def __init__(self, pools, max_workers, initializer=None):
        pools.append((max_workers, initializer))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("cpus, threads, workers", [(2, 16, 2), (16, 4, 4), (16, 16, 12), (1, 4, None)])
def test_clt_pool_is_capped_by_cpus_and_tasks(monkeypatch, cpus, threads, workers):
    # one tree per block, so 12 blocks; no pool at all when the cap leaves one
    # worker, and every pool retunes its workers' allocator
    pools = []
    monkeypatch.setattr(harness, "_BLOCK_VALUES", 1)
    monkeypatch.setattr(estimators, "_THREADS", cpus)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", lambda **kw: _InProcessPool(pools, **kw))
    pooled = run_clt_p_hat(small_spec(n_list=(4, 5), replications=6, threads=threads))
    serial = run_clt_p_hat(small_spec(n_list=(4, 5), replications=6, threads=1))
    assert pools == ([] if workers is None else [(workers, harness._keep_freed_arrays)])
    assert pooled.rows == serial.rows


class _NoMallopt:
    """A C library without mallopt, as ctypes.CDLL(None) gives on a non-glibc system."""

    def __init__(self, name):
        pass


def _no_c_library(name):
    raise OSError("no C library to load")


@pytest.mark.parametrize("cdll", [_NoMallopt, _no_c_library])
def test_allocator_initializer_skips_a_c_library_without_mallopt(monkeypatch, cdll):
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert harness._keep_freed_arrays() is None


def test_serial_clt_run_never_retunes_the_calling_process(monkeypatch):
    def retune():
        raise AssertionError("the calling process's allocator was retuned")

    monkeypatch.setattr(harness, "_keep_freed_arrays", retune)
    assert run_clt_p_hat(small_spec(replications=4, threads=1)).rows == run_clt_p_hat(small_spec(replications=4)).rows


def _has_mallopt() -> bool:
    import ctypes

    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


_FAULTS = """
import resource
from bmckde import harness
from bmckde.bar import BarParams

harness._keep_freed_arrays()
spec = harness.ExperimentSpec(model=BarParams(0.5, 0.5), n_list=(14,), replications=1000)
faults = []
for reps in harness._blocks(14, spec.replications, spec.selector)[:11]:  # the first block warms the heap up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    harness._clt_block((spec, 14, reps, "p_hat", 0.0, 1.0))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults[1:])
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_pool_worker_replications_reuse_their_pages():
    # a fresh interpreter, as a pool worker starts: after one warm-up, a block
    # of depth-14 stationary replications finds its arrays on the heap instead
    # of faulting hundreds of fresh pages in.  Python's small objects go to
    # the C heap too (PYTHONMALLOC=malloc): pymalloc's arenas are not glibc's
    # to keep, and the pages they fault in move with the environment's size
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONMALLOC": "malloc"}
    done = subprocess.run([sys.executable, "-c", _FAULTS], env=env, capture_output=True, text=True, check=True)
    faults = [int(f) for f in done.stdout.split()]
    assert len(faults) == 10 and max(faults) < 16, faults


def test_depths_merge_in_n_list_order_at_any_worker_count():
    # one pool runs every depth, deepest first; rows come back per depth in
    # n_list order, each depth's rows in replication order
    n_list = (4, 6, 5)
    r1 = run_clt_p_hat(small_spec(n_list=n_list, replications=5, threads=1))
    r2 = run_clt_p_hat(small_spec(n_list=n_list, replications=5, threads=2))
    assert r1.rows == r2.rows
    assert r1.summaries == r2.summaries
    assert [(r.n, r.replication) for r in r1.rows] == [(n, rep) for n in n_list for rep in range(5)]
    singles = [run_clt_p_hat(small_spec(n_list=(n,), replications=5)) for n in n_list]
    assert r1.rows == [row for s in singles for row in s.rows]
    assert r1.summaries == [s.summaries[0] for s in singles]


def test_a_repeated_depth_runs_once(monkeypatch):
    # (6, 4, 6) runs each depth once, deepest first, and reports the depth-6
    # rows and summary of (6, 4) again at its second occurrence
    depths = []
    block = harness._clt_block

    def spy(args):
        depths.append(args[1])
        return block(args)

    monkeypatch.setattr(harness, "_clt_block", spy)
    repeated = run_clt_p_hat(small_spec(n_list=(6, 4, 6), replications=5))
    assert depths == [6, 4]  # one block per depth at 5 replications
    once = run_clt_p_hat(small_spec(n_list=(6, 4), replications=5))
    assert repeated.rows == once.rows + once.rows[:5]
    assert repeated.summaries == once.summaries + once.summaries[:1]


_BLOCK_CASES = [
    (FixedGamma(0.2), (1, 2, 6)),  # depths 1 and 2: samples shorter than numpy's 8-wide pairwise unroll
    (RotSelector(), (2, 5)),
    (CvSelector(K=3, grid_size=4), (5,)),
]


@pytest.mark.parametrize("population", list(Population))
@pytest.mark.parametrize("statistic", ["p_hat", "mu_tri"])
@pytest.mark.parametrize("selector, n_list", _BLOCK_CASES, ids=["fixed", "rot", "cv"])
def test_block_rows_equal_one_tree_calls_bitwise(selector, n_list, statistic, population):
    # every row of a block is the one-tree estimator on simulate(seed), with
    # that tree's own bandwidths, standardized as one replication alone
    spec = small_spec(n_list=n_list, replications=5, population=population, selector=selector, point=(0.1, -0.2, 0.3))
    report = (run_clt_p_hat if statistic == "p_hat" else run_clt_mu_tri)(spec)
    summaries = {s["n"]: s for s in report.summaries}
    assert len(report.rows) == 5 * len(n_list)
    for row in report.rows:
        n, seed = row.n, row.seed
        assert seed == derive_seed(spec.seed, row.replication + (n << 32))
        sample = simulate(spec.model, n, InitSpec.stationary(), seed)
        bw, h_den = harness._bandwidths_for(sample, selector, seed)
        if statistic == "p_hat":
            est = p_hat(sample, population, bw, h_den, *spec.point)
        else:
            est = mu_tri_hat(sample, population, bw, *spec.point)
        size = (1 << n) if population is Population.GEN_N else tree_size(n)
        truth, sigma2 = summaries[n]["truth"], summaries[n]["sigma2"]
        z = math.sqrt(size * bw.h**3) * (est - truth) / math.sqrt(sigma2)
        assert (row.h_num, row.h_den) == (bw.h, h_den)
        assert np.float64(row.estimate).tobytes() == np.float64(est).tobytes()
        assert np.float64(row.stat).tobytes() == np.float64(z).tobytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("block_trees", [1, 3, None])
def test_rows_do_not_depend_on_block_size(monkeypatch, threads, block_trees):
    # against one serial tree per block: blocks of one tree, of three trees at
    # the deepest depth (more at the others, ragged last blocks), and one
    # block per depth
    n_list = (1, 2, 6)
    monkeypatch.setattr(harness, "_BLOCK_VALUES", 1)
    reference = run_clt_p_hat(small_spec(n_list=n_list, replications=7))
    values = 1 << 62 if block_trees is None else block_trees * ((1 << (max(n_list) + 2)) - 1)
    monkeypatch.setattr(harness, "_BLOCK_VALUES", values)
    sizes = {len(reps) for n in n_list for reps in harness._blocks(n, 7, FixedGamma(0.2))}
    assert (max(sizes) == 7) if block_trees is None else (block_trees in sizes)
    blocked = run_clt_p_hat(small_spec(n_list=n_list, replications=7, threads=threads))
    assert blocked.rows == reference.rows
    assert blocked.summaries == reference.summaries


@pytest.mark.parametrize(
    "n, replications, lengths",
    [(12, 40, [16, 16, 8]), (14, 9, [4, 4, 1]), (16, 2, [1, 1]), (3, 1000, [1000]), (0, 1, [1])],
)
@pytest.mark.parametrize("selector", [FixedGamma(0.2), RotSelector()], ids=["fixed", "rot"])
def test_blocks_cover_the_replications_in_order(n, replications, lengths, selector):
    # 2^18 tree values per block: 16 depth-12 trees (16383 values each), 4
    # depth-14 ones, and one depth-16 tree (2^18 - 1 values)
    blocks = harness._blocks(n, replications, selector)
    assert [r for b in blocks for r in b] == list(range(replications))
    assert [len(b) for b in blocks] == lengths


@pytest.mark.parametrize("n, replications", [(12, 20), (3, 1000), (0, 1)])
def test_cv_blocks_hold_one_tree(n, replications):
    # a cross-validated tree's selection outweighs what a block saves, so
    # the pool keeps one task per replication
    blocks = harness._blocks(n, replications, CvSelector())
    assert blocks == [range(r, r + 1) for r in range(replications)]


def test_cv_run_pools_one_task_per_replication(monkeypatch):
    # 20 depth-12-sized replications at threads 4: four workers, not the two
    # that 16-tree blocks would leave busy
    pools = []
    monkeypatch.setattr(estimators, "_THREADS", 4)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", lambda **kw: _InProcessPool(pools, **kw))
    monkeypatch.setattr(harness, "_BLOCK_VALUES", 16 * ((1 << 6) - 1))
    fixed = run_clt_p_hat(small_spec(n_list=(4,), replications=20, threads=4))
    cv = run_clt_p_hat(small_spec(n_list=(4,), replications=20, threads=4, selector=CvSelector(K=3, grid_size=4)))
    assert [workers for workers, _ in pools] == [2, 4]
    assert len(fixed.rows) == len(cv.rows) == 20


def test_rot_and_cv_selectors_run():
    rep = run_clt_p_hat(small_spec(selector=RotSelector(), replications=2, n_list=(6,)))
    assert all(r.h_den > 0 and r.h_num > 0 for r in rep.rows)
    rep = run_clt_p_hat(
        small_spec(selector=CvSelector(K=3, grid_size=4), replications=2, n_list=(5,))
    )
    assert all(0 < r.h_num <= 1 for r in rep.rows)


def test_cv_selector_takes_grid_or_grid_size_not_both():
    with pytest.raises(ValueError):
        CvSelector(K=5, grid_size=4, grid=(0.3, 0.6))
    # 32 default candidates when neither is given
    assert np.array_equal(CvSelector().candidates(10), default_grid(10, 32))
    assert np.array_equal(CvSelector(K=5, grid_size=8).candidates(10), default_grid(10, 8))
    assert np.array_equal(CvSelector(grid=(0.3, 0.6)).candidates(10), [0.3, 0.6])


def test_summarize_stats_fields():
    zs = np.random.default_rng(0).standard_normal(400)
    s = summarize_stats(zs)
    assert set(s) >= {"mean", "variance", "skewness", "excess_kurtosis", "ks_distance", "replications"}
    assert s["ks_distance"] < 0.08
    assert abs(s["mean"]) < 0.2


_SAMPLES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "heavy_tailed": lambda rng, n: rng.standard_t(3, n),
    "rounded": lambda rng, n: np.round(rng.standard_normal(n), 1),
    "constant": lambda rng, n: np.full(n, rng.standard_normal()),
    "near_constant_offset": lambda rng, n: 1e3 + 1e-8 * rng.standard_normal(n),
}


def scipy_summary(zs):
    """summarize_stats' fields as scipy.stats and numpy compute them."""
    from scipy import stats

    n = zs.size
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # scipy's precision-loss warning
        return {
            "replications": n,
            "mean": np.mean(zs),
            "variance": np.var(zs, ddof=1) if n > 1 else np.nan,
            "skewness": stats.skew(zs) if n > 2 else np.nan,
            "excess_kurtosis": stats.kurtosis(zs) if n > 3 else np.nan,
            "ks_distance": stats.kstest(zs, "norm").statistic,
        }


@given(kind=st.sampled_from(sorted(_SAMPLES)), n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
@example(kind="normal", n=1, seed=0)
@example(kind="constant", n=5, seed=0)
@settings(max_examples=200, deadline=None)
def test_summarize_stats_equals_scipy_stats_bitwise(kind, n, seed):
    zs = _SAMPLES[kind](np.random.default_rng(seed), n)
    mine = summarize_stats(zs)
    ref = scipy_summary(zs)
    assert set(mine) == set(ref)
    for key, value in ref.items():
        assert np.float64(mine[key]).tobytes() == np.float64(value).tobytes(), key


def test_report_csv_roundtrip(tmp_path):
    rep = run_clt_p_hat(small_spec(replications=3))
    path = str(tmp_path / "rows.csv")
    rep.to_csv(path)
    rows = Path(path).read_text().strip().split("\n")
    assert rows[0].startswith("replication,seed,n,")
    assert len(rows) == 4
    stat = float(rows[1].split(",")[-1])
    assert stat == rep.rows[0].stat


def test_case_params():
    assert case_params("1") == CASE1
    assert case_params("2") == CASE2
    assert CASE1 == BarParams(0.7, 0.5, 0.0, 0.0, 1.0, 0.0)
    assert CASE2 == BarParams(1.2, 0.7, 0.0, 0.0, 1.0, 0.0)
    for other in ("3", "case1", "case2"):  # one spelling per case
        with pytest.raises(ValueError):
            case_params(other)


def test_figure_runs_shape_and_truth_column(tmp_path):
    grid = FigureGrid(slice_x=0.0, half_width=2.0, points_per_axis=7)
    runs = run_figure_reproduction("1", RotSelector(), [6], n_seeds=2, seed=5, grid=grid)
    assert len(runs) == 2
    from bmckde.bar import transition_density_p

    r = runs[0]
    assert r.points.shape == (49, 3)
    expected = transition_density_p(CASE1, r.points[:, 0], r.points[:, 1], r.points[:, 2])
    assert np.array_equal(r.p_true, expected)
    assert r.sup_error == pytest.approx(float(np.max(np.abs(r.p_tilde - r.p_true))))

    paths = write_figure_outputs(runs, str(tmp_path))
    assert any(p.endswith("summary.csv") for p in paths)
    first = Path(paths[0]).read_text().strip().split("\n")
    assert first[0] == "x,x0,x1,p_tilde,p_true"
    assert len(first) == 50
    gp = gnuplot_script(runs, str(tmp_path))
    assert "splot" in Path(gp).read_text()


@pytest.mark.parametrize("failing", ["grid_case1_rot_n4_s1.csv", "summary.csv", "surfaces.gnuplot"])
def test_figure_outputs_leave_no_partial_file(tmp_path, monkeypatch, failing):
    # the write of `failing` stops halfway through its first chunk of text
    runs = run_figure_reproduction("1", RotSelector(), [4], n_seeds=2, seed=5, grid=FigureGrid(points_per_axis=5))
    real_open = open

    class HalfWritten:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("no space left on device")

    def open_failing(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return HalfWritten(fh) if os.path.basename(path).startswith(failing) else fh

    monkeypatch.setattr(table, "open", open_failing, raising=False)
    with pytest.raises(OSError, match="no space"):
        write_figure_outputs(runs, str(tmp_path))
        gnuplot_script(runs, str(tmp_path))
    names = os.listdir(tmp_path)
    assert failing not in names
    assert not any(".tmp." in name for name in names)
    assert "grid_case1_rot_n4_s0.csv" in names  # written before the failure


def test_figure_reproduction_deterministic():
    grid = FigureGrid(half_width=2.0, points_per_axis=5)
    a = run_figure_reproduction("2", RotSelector(), [5], n_seeds=1, seed=3, grid=grid)
    b = run_figure_reproduction("2", RotSelector(), [5], n_seeds=1, seed=3, grid=grid)
    assert a[0].sup_error == b[0].sup_error
    assert np.array_equal(a[0].p_tilde, b[0].p_tilde)


def test_mean_sup_errors_aggregation():
    grid = FigureGrid(half_width=2.0, points_per_axis=5)
    runs = run_figure_reproduction("1", RotSelector(), [4, 5], n_seeds=2, seed=9, grid=grid)
    errs = mean_sup_errors(runs)
    assert set(errs) == {4, 5}
    manual = np.mean([r.sup_error for r in runs if r.n == 4])
    assert errs[4] == pytest.approx(manual)


def test_standardized_mean_shrinks_with_depth():
    # smoothing bias decays with depth, so |mean| of the standardized
    # statistic is non-increasing from n=8 to n=12, averaged over 3 batteries
    means = {8: [], 12: []}
    for master in range(3):
        spec = small_spec(n_list=(8, 12), replications=150, seed=200 + master)
        rep = run_clt_p_hat(spec)
        for s in rep.summaries:
            means[s["n"]].append(s["mean"])
    assert abs(np.mean(means[12])) <= abs(np.mean(means[8]))


def test_mu_tri_consistency_trend():
    # median absolute estimation error at the central point drops from
    # depth 10 to depth 14
    from bmckde.bar import mu_triangle

    truth = float(mu_triangle(BarParams(0.5, 0.5, sigma=1.0), 0, 0, 0))
    med = {}
    for n in (10, 14):
        rep = run_clt_mu_tri(small_spec(n_list=(n,), replications=60, seed=9))
        med[n] = float(np.median([abs(r.estimate - truth) for r in rep.rows]))
    assert med[14] < med[10]


def test_gen_vs_tree_variances_close():
    # same normalized statistic for both index sets: variances agree within
    # Monte Carlo error at matched depths
    spec_g = small_spec(n_list=(9,), replications=150, population=Population.GEN_N, seed=5)
    spec_t = small_spec(n_list=(9,), replications=150, population=Population.TREE_N, seed=5)
    vg = run_clt_mu_tri(spec_g).summaries[0]["variance"]
    vt = run_clt_mu_tri(spec_t).summaries[0]["variance"]
    assert vg == pytest.approx(vt, rel=0.5)

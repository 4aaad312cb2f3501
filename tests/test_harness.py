import os
from pathlib import Path

import numpy as np
import pytest

from bmckde import estimators, harness, table
from bmckde.bar import BarParams
from bmckde.cv import default_grid
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
from bmckde.tree import Population

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
    """Stands in for ProcessPoolExecutor: records its size and maps in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("cpus, threads, workers", [(2, 16, 2), (16, 4, 4), (16, 16, 12), (1, 4, None)])
def test_clt_pool_is_capped_by_cpus_and_tasks(monkeypatch, cpus, threads, workers):
    # 12 tasks; no pool at all when the cap leaves one worker
    sizes = []
    monkeypatch.setattr(estimators, "_THREADS", cpus)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", lambda max_workers: _InProcessPool(sizes, max_workers))
    pooled = run_clt_p_hat(small_spec(n_list=(4, 5), replications=6, threads=threads))
    serial = run_clt_p_hat(small_spec(n_list=(4, 5), replications=6, threads=1))
    assert sizes == ([] if workers is None else [workers])
    assert pooled.rows == serial.rows


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
    from bmckde.bar import SymmetricBarParams, mu_triangle

    truth = float(mu_triangle(SymmetricBarParams(0.5, 1.0), 0, 0, 0))
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

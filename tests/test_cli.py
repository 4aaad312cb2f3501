import json
import os

import numpy as np
import pytest

from bmckde.cli import main
from bmckde.bar import BarParams, InitSpec, simulate
from bmckde.estimators import mu_hat
from bmckde.tree import Population, TreeSample


def write_config(tmp_path, name, doc):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


SIM = {"a0": 0.5, "a1": 0.5, "sigma": 1.0, "n": 4, "seed": 9, "init": "dirac", "x0": 0.0}


def test_simulate_roundtrips_exactly(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM)
    out = str(tmp_path / "tree.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    loaded = TreeSample.from_csv(out)
    direct = simulate(BarParams(0.5, 0.5), 4, InitSpec.dirac(0.0), 9)
    assert loaded == direct
    # sidecar with resolved defaults
    side = json.load(open(out + ".config.json"))
    assert side["rho"] == 0.0 and side["format"] == "csv"


def test_simulate_raw_format(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM)
    out = str(tmp_path / "tree.f64")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    assert TreeSample.from_raw(out) == simulate(BarParams(0.5, 0.5), 4, InitSpec.dirac(0.0), 9)


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM)
    out = str(tmp_path / "tree.csv")
    assert main(["simulate", "--config", cfg, "--out", out, "--seed", "77"]) == 0
    assert TreeSample.from_csv(out) == simulate(BarParams(0.5, 0.5), 4, InitSpec.dirac(0.0), 77)


def test_malformed_json_exit_code_and_message(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    open(path, "w").write('{"a0": 0.5,\n  "oops"\n}')
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert "bad.json:3:" in err and "malformed JSON" in err  # line-numbered


def test_unknown_keys_rejected(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {**SIM, "bogus": 1})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1


def test_invalid_params_exit_1(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {**SIM, "sigma": -1.0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1


def test_no_partial_output_on_failure(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "sim.json", SIM)
    out = str(tmp_path / "sub" / "tree.csv")  # missing directory: write fails
    assert main(["simulate", "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(out)
    assert not any(p.name.startswith("tree.csv.tmp") for p in tmp_path.iterdir())


def test_estimate_roundtrip_matches_direct_call(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {**SIM, "n": 5})
    tree_path = str(tmp_path / "tree.csv")
    main(["simulate", "--config", cfg, "--out", tree_path])
    est_cfg = write_config(
        tmp_path,
        "est.json",
        {"estimator": "mu", "h": 0.4, "grid": {"min": -1.0, "max": 1.0, "num": 5}},
    )
    out = str(tmp_path / "mu.csv")
    assert main(["estimate", "--tree", tree_path, "--config", est_cfg, "--out", out]) == 0
    rows = [line.split(",") for line in open(out).read().strip().split("\n")[1:]]
    tree = TreeSample.from_csv(tree_path)
    for x_s, v_s in rows:
        assert float(v_s) == mu_hat(tree, Population.GEN_N, 0.4, float(x_s))


def test_estimate_p_on_3d_grid(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {**SIM, "n": 5})
    tree_path = str(tmp_path / "tree.csv")
    main(["simulate", "--config", cfg, "--out", tree_path])
    est_cfg = write_config(
        tmp_path,
        "est.json",
        {
            "estimator": "p",
            "h": 0.3,
            "bw": [0.4, 0.4, 0.4],
            "grid": {"x": [0.0], "x0": {"min": -1, "max": 1, "num": 3}, "x1": [0.0, 0.5]},
        },
    )
    out = str(tmp_path / "p.csv")
    assert main(["estimate", "--tree", tree_path, "--config", est_cfg, "--out", out]) == 0
    rows = open(out).read().strip().split("\n")
    assert rows[0] == "x,x0,x1,value"
    assert len(rows) == 7  # 1 * 3 * 2 points


def test_cv_select_outputs(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {**SIM, "n": 6})
    tree_path = str(tmp_path / "tree.csv")
    main(["simulate", "--config", cfg, "--out", tree_path])
    cv_cfg = write_config(tmp_path, "cv.json", {"K": 3, "grid": {"min": 0.1, "max": 1.0, "num": 5}, "seed": 2})
    out = str(tmp_path / "scores.csv")
    assert main(["cv-select", "--tree", tree_path, "--config", cv_cfg, "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "h,score_den,score_num"
    assert len(lines) == 6
    sel = json.load(open(str(tmp_path / "scores.json")))
    assert set(sel) == {"h_D_hat", "h_N_hat", "K", "seed"}
    hs = [float(l.split(",")[0]) for l in lines[1:]]
    assert sel["h_D_hat"] in hs


def test_rot_select_prints_json(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {**SIM, "n": 6})
    tree_path = str(tmp_path / "tree.csv")
    main(["simulate", "--config", cfg, "--out", tree_path])
    capsys.readouterr()
    assert main(["rot-select", "--tree", tree_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"a_hat", "sigma_hats", "h_D_hat", "h_N_hat", "h_0N_hat", "h_1N_hat", "n", "m"}
    assert doc["n"] == 6 and doc["m"] == 1  # default lag of the rate estimate


def test_clt_check_summary_matches_rows(tmp_path):
    cfg = write_config(
        tmp_path,
        "clt.json",
        {
            "model": {"a0": 0.5, "a1": 0.5, "sigma": 1.0},
            "statistic": "p_hat",
            "n_list": [6],
            "replications": 12,
            "selector": {"kind": "fixed", "gamma": 0.2},
            "seed": 4,
        },
    )
    out = str(tmp_path / "rows.csv")
    assert main(["clt-check", "--config", cfg, "--out", out]) == 0
    stats = [float(line.split(",")[-1]) for line in open(out).read().strip().split("\n")[1:]]
    summary = json.load(open(str(tmp_path / "rows.summary.json")))[0]
    assert summary["variance"] == pytest.approx(float(np.var(stats, ddof=1)), rel=1e-12)
    assert summary["mean"] == pytest.approx(float(np.mean(stats)), rel=1e-12)


def test_clt_check_thread_counts_bit_identical(tmp_path):
    cfg = {
        "model": {"a0": 0.5, "a1": 0.5, "sigma": 1.0},
        "n_list": [6],
        "replications": 10,
        "seed": 3,
    }
    outputs = []
    for threads in (1, 4):
        cpath = write_config(tmp_path, f"clt{threads}.json", {**cfg, "threads": threads})
        out = str(tmp_path / f"rows{threads}.csv")
        assert main(["clt-check", "--config", cpath, "--out", out]) == 0
        outputs.append(open(out, "rb").read())
    assert outputs[0] == outputs[1]


def test_oracle_check_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, "oc.json", {"n": 2, "m": 1, "replications": 400, "seed": 1})
    code = main(["oracle-check", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("formula,")
    assert "FAIL" not in out


def test_reproduce_figures_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        "fig.json",
        {
            "case": "1",
            "selector": {"kind": "rot"},
            "n_list": [4, 5],
            "seeds": 2,
            "seed": 0,
            "grid": {"half_width": 2.0, "points_per_axis": 5},
            "gnuplot": True,
        },
    )
    out_dir = str(tmp_path / "figs")
    assert main(["reproduce-figures", "--config", cfg, "--out", out_dir]) == 0
    names = sorted(os.listdir(out_dir))
    assert "summary.csv" in names
    assert "surfaces.gnuplot" in names
    assert "mean_sup_errors.json" in names
    assert any(n.startswith("grid_case1_rot_n4_s0") for n in names)
    assert any(n.endswith("run.config.json") for n in names)


def test_env_var_thread_fallback(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path, "clt.json", {"model": {"a0": 0.5, "a1": 0.5, "sigma": 1.0}, "n_list": [4], "replications": 4}
    )
    out = str(tmp_path / "rows.csv")
    monkeypatch.setenv("BMC_KERNEL_THREADS", "not-a-number")
    assert main(["clt-check", "--config", cfg, "--out", out]) == 1
    monkeypatch.setenv("BMC_KERNEL_THREADS", "2")
    assert main(["clt-check", "--config", cfg, "--out", out]) == 0
    assert json.load(open(out + ".config.json"))["threads"] == 2
    assert main(["clt-check", "--config", cfg, "--out", out, "--threads", "1"]) == 0
    assert json.load(open(out + ".config.json"))["threads"] == 1


def test_flags_only_where_they_have_an_effect(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM)
    tree_path = str(tmp_path / "tree.csv")
    assert main(["simulate", "--config", cfg, "--out", tree_path]) == 0
    est_cfg = write_config(tmp_path, "est.json", {"estimator": "mu", "h": 0.4, "grid": [0.0]})
    estimate = ["estimate", "--tree", tree_path, "--config", est_cfg, "--out", str(tmp_path / "o.csv")]
    for extra in (["--threads", "2"], ["--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(estimate + extra)
        assert exc.value.code == 2  # argparse usage error
    with pytest.raises(SystemExit):
        main(["simulate", "--config", cfg, "--out", tree_path, "--population", "tree"])


@pytest.mark.parametrize(
    "doc",
    [
        {"estimator": "mu", "h": float("nan"), "grid": [0.0]},
        {"estimator": "p", "h": 0.3, "bw": [float("nan"), 0.3, 0.3], "grid": {"x": [0.0], "x0": [0.0], "x1": [0.0]}},
        {"estimator": "p", "h": float("nan"), "bw": [0.3, 0.3, 0.3], "grid": {"x": [0.0], "x0": [0.0], "x1": [0.0]}},
    ],
)
def test_estimate_nonfinite_bandwidth_exit_1(tmp_path, doc):
    cfg = write_config(tmp_path, "sim.json", SIM)
    tree_path = str(tmp_path / "tree.csv")
    assert main(["simulate", "--config", cfg, "--out", tree_path]) == 0
    est_cfg = write_config(tmp_path, "est.json", doc)  # json writes NaN, which the schema lets through
    out = str(tmp_path / "o.csv")
    assert main(["estimate", "--tree", tree_path, "--config", est_cfg, "--out", out]) == 1
    assert not os.path.exists(out)


def test_missing_config_key_for_estimator(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {**SIM, "n": 4})
    tree_path = str(tmp_path / "tree.csv")
    main(["simulate", "--config", cfg, "--out", tree_path])
    est_cfg = write_config(tmp_path, "est.json", {"estimator": "mu", "grid": [0.0, 1.0]})
    assert main(["estimate", "--tree", tree_path, "--config", est_cfg, "--out", str(tmp_path / "o.csv")]) == 1

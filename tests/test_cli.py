import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import bmckde.cli
from bmckde import harness, oracle
from bmckde.cli import main
from bmckde.bar import BarParams, InitSpec, simulate
from bmckde.cv import DEFAULT_GRID_SIZE
from bmckde.estimators import mu_hat
from bmckde.harness import CvSelector, FixedGamma, RotSelector
from bmckde.rot import DEFAULT_LAG
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
    # sidecar with resolved defaults; the output extension alone picks the format
    side = json.loads(Path(out + ".config.json").read_text())
    assert side["rho"] == 0.0 and "format" not in side
    raw_key = write_config(tmp_path, "raw.json", {**SIM, "format": "raw"})
    assert main(["simulate", "--config", raw_key, "--out", out]) == 1


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
    Path(path).write_text('{"a0": 0.5,\n  "oops"\n}')
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
    rows = [line.split(",") for line in Path(out).read_text().strip().split("\n")[1:]]
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
    rows = Path(out).read_text().strip().split("\n")
    assert rows[0] == "x,x0,x1,value"
    assert len(rows) == 7  # 1 * 3 * 2 points


def test_cv_select_outputs(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {**SIM, "n": 6})
    tree_path = str(tmp_path / "tree.csv")
    main(["simulate", "--config", cfg, "--out", tree_path])
    cv_cfg = write_config(tmp_path, "cv.json", {"K": 3, "grid": {"min": 0.1, "max": 1.0, "num": 5}, "seed": 2})
    out = str(tmp_path / "scores.csv")
    assert main(["cv-select", "--tree", tree_path, "--config", cv_cfg, "--out", out]) == 0
    lines = Path(out).read_text().strip().split("\n")
    assert lines[0] == "h,score_den,score_num"
    assert len(lines) == 6
    sel = json.loads((tmp_path / "scores.json").read_text())
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
    stats = [float(line.split(",")[-1]) for line in Path(out).read_text().strip().split("\n")[1:]]
    summary = json.loads((tmp_path / "rows.summary.json").read_text())[0]
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
        outputs.append(Path(out).read_bytes())
    assert outputs[0] == outputs[1]


def test_oracle_check_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, "oc.json", {"n": 2, "m": 1, "replications": 400, "seed": 1})
    code = main(["oracle-check", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("formula,")
    assert "FAIL" not in out


@pytest.mark.parametrize("a1", [1.0, -1.0])
def test_oracle_check_of_a_critical_model_passes(tmp_path, capsys, a1):
    # (a0^2 + a1^2) / 2 = 1: the quadrature grid's spread must not divide by zero
    cfg = write_config(tmp_path, "oc.json", {"a0": 1.0, "a1": a1})
    assert main(["oracle-check", "--config", cfg]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "model",
    [
        {"a0": 0.99, "a1": 0.99},
        {"a0": 0.999, "a1": 0.999},
        {"a0": 1.0000001, "a1": 1.0000001},
        {"a0": 0.9999999, "a1": 0.9999999},
        {"a0": 0.9999999, "a1": 0.0},
        {"a0": 0.9999999, "a1": 0.9999999, "b0": 0.2, "b1": 0.2},
        {"a0": 0.999, "a1": 0.999, "sigma": 4.0},
        {"a0": 0.99, "a1": 0.99, "sigma": 1.0, "x": 200.0},
    ],
)
def test_oracle_check_of_a_near_critical_model_passes(tmp_path, capsys, model):
    # m2 or max |a| near 1: the model's own quadrature window spreads its
    # nodes so far apart that the bump falls between them, and its centre
    # b / (1 - a) runs off with b != 0; a start point far out must stay on
    # the grid
    cfg = write_config(tmp_path, "oc.json", model)
    assert main(["oracle-check", "--config", cfg]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 5 and all(row.endswith(",pass") for row in rows)


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


def test_reproduce_figures_names_a_fixed_gamma_run_by_its_config_kind(tmp_path):
    cfg = write_config(
        tmp_path,
        "fig.json",
        {"case": "2", "selector": {"kind": "fixed", "gamma": 0.2}, "n_list": [4], "seeds": 1, "grid": {"points_per_axis": 3}},
    )
    out_dir = tmp_path / "figs"
    assert main(["reproduce-figures", "--config", cfg, "--out", str(out_dir)]) == 0
    assert (out_dir / "grid_case2_fixed_n4_s0.csv").exists()
    assert (out_dir / "summary.csv").read_text().splitlines()[1].startswith("2,fixed,4,0,")


def test_threads_flag_overrides_config_and_is_validated(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path,
        "clt.json",
        {"model": {"a0": 0.5, "a1": 0.5, "sigma": 1.0}, "n_list": [4], "replications": 4, "threads": 2},
    )
    out = str(tmp_path / "rows.csv")
    monkeypatch.setenv("BMC_KERNEL_THREADS", "not-a-number")  # the environment does not size the pool
    assert main(["clt-check", "--config", cfg, "--out", out]) == 0
    assert json.loads(Path(out + ".config.json").read_text())["threads"] == 2
    assert main(["clt-check", "--config", cfg, "--out", out, "--threads", "1"]) == 0
    assert json.loads(Path(out + ".config.json").read_text())["threads"] == 1
    for bad in ("0", "-3"):  # flag values are checked against the schema like config values
        assert main(["clt-check", "--config", cfg, "--out", out, "--threads", bad]) == 1


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
def test_estimate_nonfinite_bandwidth_exit_1(tmp_path, capsys, doc):
    cfg = write_config(tmp_path, "sim.json", SIM)
    tree_path = str(tmp_path / "tree.csv")
    assert main(["simulate", "--config", cfg, "--out", tree_path]) == 0
    est_cfg = write_config(tmp_path, "est.json", doc)  # json writes NaN, which the schema lets through
    out = str(tmp_path / "o.csv")
    capsys.readouterr()
    assert main(["estimate", "--tree", tree_path, "--config", est_cfg, "--out", out]) == 1
    # the one message of kernel_sums, the one bandwidth check
    assert capsys.readouterr().err == "error: bandwidth must be positive and finite\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "name, content",
    [
        ("tree.f64", b""),
        ("tree.f64", np.zeros(1).astype("<f8").tobytes()),
        ("tree.csv", b"generation,rank,value\n0,0,0.5\n"),
        ("tree.csv", b"generation,rank,value\n"),
    ],
)
@pytest.mark.filterwarnings("error")  # a numpy warning would make the read exit 2
def test_estimate_rejects_a_tree_file_of_fewer_than_two_levels(tmp_path, capsys, name, content):
    tree_path = tmp_path / name
    tree_path.write_bytes(content)
    est_cfg = write_config(tmp_path, "est.json", {"estimator": "mu", "h": 0.3, "grid": [0.0]})
    out = str(tmp_path / "o.csv")
    assert main(["estimate", "--tree", str(tree_path), "--config", est_cfg, "--out", out]) == 1
    assert "at least two levels" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_estimate_rejects_a_raw_tree_file_of_stray_bytes(tmp_path, capsys):
    # seven doubles and three bytes more: not a depth-1 tree with the bytes dropped
    tree_path = tmp_path / "tree.f64"
    tree_path.write_bytes(np.zeros(7).astype("<f8").tobytes() + b"\x00" * 3)
    est_cfg = write_config(tmp_path, "est.json", {"estimator": "mu", "h": 0.3, "grid": [0.0]})
    out = str(tmp_path / "o.csv")
    assert main(["estimate", "--tree", str(tree_path), "--config", est_cfg, "--out", out]) == 1
    assert "whole number of float64 values" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_missing_config_key_for_estimator(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {**SIM, "n": 4})
    tree_path = str(tmp_path / "tree.csv")
    main(["simulate", "--config", cfg, "--out", tree_path])
    est_cfg = write_config(tmp_path, "est.json", {"estimator": "mu", "grid": [0.0, 1.0]})
    assert main(["estimate", "--tree", tree_path, "--config", est_cfg, "--out", str(tmp_path / "o.csv")]) == 1


def test_estimate_writes_meta_next_to_output(tmp_path):
    tree_path = str(tmp_path / "tree.csv")
    assert main(["simulate", "--config", write_config(tmp_path, "sim.json", SIM), "--out", tree_path]) == 0
    est_cfg = write_config(tmp_path, "est.json", {"estimator": "mu", "h": 0.3, "grid": {"min": -1, "max": 1, "num": 5}})
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["estimate", "--tree", tree_path, "--config", est_cfg, "--out", str(out_dir / "phat.csv")]) == 0
    assert sorted(os.listdir(out_dir)) == ["phat.csv", "phat.csv.config.json", "phat.csv.meta.json"]
    meta = json.loads((out_dir / "phat.csv.meta.json").read_text())
    assert meta["estimator"] == "mu" and meta["h"] == 0.3 and meta["sample_size"] == 16


# -- sidecars re-run their command ---------------------------------------------

CLT_MODEL = {"a0": 0.5, "a1": 0.5, "sigma": 1.0}
ORACLE_OVERFLOW = {"sigma": 1.0, "n": 3, "m": 2, "replications": 100}
OUTPUTS = {
    "simulate": "tree.csv",
    "estimate": "phat.csv",
    "cv-select": "scores.csv",
    "rot-select": "r.json",
    "clt-check": "rows.csv",
    "oracle-check": "oracle.csv",
    "reproduce-figures": "figures",
}
TREE_COMMANDS = ("estimate", "cv-select", "rot-select")

# (command, config or None for no --config, key paths the sidecar must hold);
# the first config of each command has the README's keys at smaller sizes,
# the second only the required keys
RERUN_CASES = [
    ("simulate", {"a0": 0.7, "a1": 0.5, "sigma": 1.0, "n": 6, "seed": 1, "init": "dirac"}, ["x0", "rho"]),
    ("simulate", {"a0": 0.7, "a1": 0.5, "sigma": 1.0, "n": 6}, ["seed", "init", "x0", "b0", "b1", "rho"]),
    (
        "estimate",
        {
            "estimator": "p",
            "h": 0.2,
            "bw": [0.3, 0.3, 0.3],
            "grid": {"x": [0.0], "x0": {"min": -3, "max": 3, "num": 5}, "x1": {"min": -3, "max": 3, "num": 5}},
        },
        ["population"],
    ),
    ("estimate", {"estimator": "mu", "h": 0.3, "grid": [0.0, 0.5]}, ["population"]),
    ("cv-select", {"K": 5, "grid": {"min": 0.05, "max": 1.0, "num": 16}, "seed": 1}, ["grid", "K", "seed"]),
    ("cv-select", None, ["grid", "K", "seed"]),
    ("rot-select", None, ["m"]),
    ("rot-select", {"m": 2}, ["m"]),
    (
        "clt-check",
        {
            "model": CLT_MODEL,
            "statistic": "p_hat",
            "n_list": [4, 5],
            "replications": 8,
            "selector": {"kind": "fixed", "gamma": 0.2},
            "seed": 0,
            "threads": 2,
        },
        ["model/b0", "model/b1", "model/rho", "point", "population"],
    ),
    (
        "clt-check",
        {"model": CLT_MODEL, "n_list": [4], "replications": 4},
        ["model/rho", "statistic", "point", "population", "selector/kind", "selector/gamma", "seed", "threads"],
    ),
    ("oracle-check", None, ["a0", "a1", "b0", "b1", "sigma", "rho", "x", "n", "m", "replications", "seed"]),
    ("oracle-check", {"n": 2, "m": 1, "replications": 400, "seed": 1}, ["a0", "x"]),
    (
        "reproduce-figures",
        {"case": "1", "selector": {"kind": "rot"}, "n_list": [4, 5], "seeds": 2, "gnuplot": True},
        ["selector/m", "seed", "grid/slice_x", "grid/half_width", "grid/points_per_axis"],
    ),
    (
        "reproduce-figures",
        {"case": "1", "selector": {"kind": "cv", "K": 5, "grid_size": 8}, "n_list": [5, 6], "seeds": 2, "gnuplot": True},
        ["selector/K", "selector/grid_size", "grid/points_per_axis"],
    ),
    (
        "reproduce-figures",
        {"case": "2", "selector": {"kind": "fixed", "gamma": 0.2}},
        ["n_list", "seeds", "seed", "grid/slice_x", "grid/half_width", "grid/points_per_axis", "gnuplot"],
    ),
    # with an explicit grid the sidecar must not gain grid_size: the pair is rejected on re-run
    ("reproduce-figures", {"case": "1", "selector": {"kind": "cv", "grid": [0.3, 0.6]}, "n_list": [5], "seeds": 1}, ["selector/K"]),
    # x0 places a dirac start only, so a stationary sidecar has none and re-runs without it
    ("simulate", {"a0": 0.5, "a1": 0.5, "sigma": 1.0, "n": 6, "init": "stationary"}, ["seed", "rho"]),
]


def _defaults_missing(doc: dict, schema: dict, prefix: str = "") -> list[str]:
    """Paths of schema properties with a default that ``doc`` lacks, following
    the conditional branches ``doc`` picks."""
    subs = [schema] + [c["then"] for c in schema.get("allOf", []) if jsonschema.Draft202012Validator(c["if"]).is_valid(doc)]
    missing = []
    for sub in subs:
        for key, prop in sub.get("properties", {}).items():
            if key not in doc:
                missing += [prefix + key] if "default" in prop else []
            elif isinstance(doc[key], dict):
                missing += _defaults_missing(doc[key], prop, f"{prefix}{key}/")
    return missing


def _run_into(out_dir, command, config, tree, capsys):
    """Run one command with its outputs under out_dir; (exit code, stdout, {relative path: bytes})."""
    os.makedirs(out_dir)
    argv = [command, "--out", os.path.join(out_dir, OUTPUTS[command])]
    argv += ["--config", config] if config else []
    argv += ["--tree", tree] if command in TREE_COMMANDS else []
    code = main(argv)
    files = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            files[os.path.relpath(path, out_dir)] = Path(path).read_bytes()
    return code, capsys.readouterr().out, files


@pytest.mark.parametrize("command,doc,named", RERUN_CASES, ids=lambda v: v if isinstance(v, str) else None)
def test_sidecar_holds_every_default_and_reruns_the_command(tmp_path, capsys, command, doc, named):
    from bmckde.cli import SCHEMAS

    tree = str(tmp_path / "tree.csv")
    simulate(BarParams(0.7, 0.5), 6, InitSpec.dirac(0.0), 3).to_csv(tree)
    config = write_config(tmp_path, "cfg.json", doc) if doc is not None else None
    code, stdout, first = _run_into(str(tmp_path / "a"), command, config, tree, capsys)
    assert code == 0
    sidecar = os.path.join("figures", "run.config.json") if command == "reproduce-figures" else OUTPUTS[command] + ".config.json"
    side = json.loads(first[sidecar])
    assert _defaults_missing(side, SCHEMAS[command]) == []
    for path in named:
        node = side
        for key in path.split("/"):
            assert key in node, f"sidecar lacks {path}"
            node = node[key]
    assert not any(".tmp." in name for name in first)
    rerun = _run_into(str(tmp_path / "b"), command, str(tmp_path / "a" / sidecar), tree, capsys)
    assert rerun == (0, stdout, first)


# -- every invalid-config class exits 1 and writes nothing ---------------------

NAN = float("nan")
INF = float("inf")
CLT_MIN = {"model": CLT_MODEL, "n_list": [4], "replications": 4}
MU = {"estimator": "mu", "h": 0.3, "grid": [0.0]}

# (command, config document or raw text, tree file edit or None, extra flags)
INVALID = {
    "unknown key": ("simulate", {**SIM, "bogus": 1}, None, []),
    "malformed JSON": ("simulate", '{"a0": 0.5,\n  "oops"\n}', None, []),
    "NaN h": ("estimate", {**MU, "h": NAN}, None, []),
    # grid points are judged by the estimator: JSON admits NaN and Infinity
    "NaN grid point": (
        "estimate",
        {"estimator": "mu_tri", "bw": [0.3, 0.3, 0.3], "grid": {"x": [NAN], "x0": [0.0], "x1": [0.0]}},
        None,
        [],
    ),
    "NaN axis max": ("estimate", {**MU, "grid": {"min": 0.0, "max": NAN, "num": 3}}, None, []),
    "infinite grid point": ("estimate", {**MU, "grid": [INF, 0.0]}, None, []),
    "NaN CV grid": ("cv-select", {"K": 2, "grid": [NAN]}, None, []),
    "oracle m > n": ("oracle-check", {"n": 2, "m": 4}, None, []),
    "threads 0": ("clt-check", CLT_MIN, None, ["--threads", "0"]),
    "threads -3": ("clt-check", CLT_MIN, None, ["--threads", "-3"]),
    "selector key foreign to its kind": (
        "clt-check",
        {**CLT_MIN, "selector": {"kind": "fixed", "gamma": 0.2, "K": 3}},
        None,
        [],
    ),
    "mu with a three-axis grid": ("estimate", {**MU, "grid": {"x": [0.0], "x0": [0.0], "x1": [0.0]}}, None, []),
    "p with a one-axis grid": ("estimate", {**MU, "estimator": "p", "bw": [0.3, 0.3, 0.3]}, None, []),
    "mu with a bandwidth triple": ("estimate", {**MU, "bw": [0.1, 0.1, 0.1]}, None, []),
    "mu_tri with h": (
        "estimate",
        {**MU, "estimator": "mu_tri", "bw": [0.3, 0.3, 0.3], "grid": {"x": [0.0], "x0": [0.0], "x1": [0.0]}},
        None,
        [],
    ),
    "cv selector with grid and grid_size": (
        "clt-check",
        {**CLT_MIN, "selector": {"kind": "cv", "grid": [0.3, 0.6], "grid_size": 4}},
        None,
        [],
    ),
    "duplicate tree row": ("estimate", MU, lambda lines: lines + ["3,5,0.25"], []),
    "NaN tree value": ("estimate", MU, lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",nan"], []),
    # flag values are judged by the schema, not by argparse (which would exit 2)
    "seed flag not an integer": ("simulate", SIM, None, ["--seed", "abc"]),
    "population flag not gen or tree": ("estimate", MU, None, ["--population", "foo"]),
    "threads flag not an integer": ("clt-check", CLT_MIN, None, ["--threads", "2.5"]),
    # an integral float is not an integer: seed bits and tree depths need ints
    "float seed": ("simulate", {**SIM, "seed": 2.0}, None, []),
    "float depth": ("simulate", {**SIM, "n": 3.0}, None, []),
    # depths past MAX_DEPTH are rejected before anything is allocated
    "depth 63": ("simulate", {**SIM, "n": 63}, None, []),
    "clt depth 63": ("clt-check", {**CLT_MIN, "n_list": [63]}, None, []),
    "figure depth 63": ("reproduce-figures", {"case": "1", "selector": {"kind": "rot"}, "n_list": [63]}, None, []),
    # one spelling per case: "case1" would name the same model as "1"
    "figure case spelled case1": ("reproduce-figures", {"case": "case1", "selector": {"kind": "rot"}}, None, []),
    "stationary start with x0": ("simulate", {**SIM, "init": "stationary", "x0": 7.5}, None, []),
    # a model whose values overflow to infinity within the tree's depth
    "overflowing model": ("simulate", {**SIM, "a0": 1e200, "a1": 1e200, "n": 3}, None, []),
    # the oracle's squared generation sums overflow: a0**2 itself at 1e200,
    # the simulated sums at 1e150
    "oracle overflowing model 1e200": ("oracle-check", {**ORACLE_OVERFLOW, "a0": 1e200, "a1": 1e200}, None, []),
    "oracle overflowing model 1e150": ("oracle-check", {**ORACLE_OVERFLOW, "a0": 1e150, "a1": 1e150}, None, []),
    # a0**2 overflows in the oracle's grid even at n = 0, which draws no generation
    "oracle a0 square overflows at n 0": ("oracle-check", {"a0": 1e200, "n": 0, "m": 0}, None, []),
    # the squared generation sums are finite, but a Q2 row's standard error,
    # their spread, would be inf and its z a false pass
    "oracle Q2 spread overflows": ("oracle-check", {"sigma": 5e76, "n": 2, "m": 0, "replications": 10}, None, []),
    # sigma^2, rho^2 or the transition density's sigma^4 would raise OverflowError
    "sigma square overflows": ("simulate", {**SIM, "sigma": 1e200}, None, []),
    "rho square overflows": ("simulate", {**SIM, "sigma": 1e100, "rho": 1e160}, None, []),
    "clt sigma fourth power overflows": ("clt-check", {**CLT_MIN, "model": {**CLT_MODEL, "sigma": 1e80}}, None, []),
    "oracle sigma fourth power overflows": ("oracle-check", {"sigma": 1e80, "n": 1, "m": 0, "replications": 10}, None, []),
    # a CLT point whose limit variance underflows to 0 or overflows: judged
    # before any tree is drawn
    "clt point of zero variance": ("clt-check", {**CLT_MIN, "replications": 3, "point": [0.0, 40.0, 0.0]}, None, []),
    "clt mu_tri point of zero variance": (
        "clt-check",
        {**CLT_MIN, "replications": 3, "point": [0.0, 40.0, 0.0], "statistic": "mu_tri"},
        None,
        [],
    ),
    "clt point of infinite variance": (
        "clt-check",
        {**CLT_MIN, "replications": 3, "point": [50.0, 25.0, 25.0]},
        None,
        [],
    ),
}
SIGMA_TOO_LARGE = "error: sigma must be below 1.15792e+77, where sigma^4 overflows float64"
# what stderr must say, where more than "error:"
MESSAGES = {
    "threads 0": "error: --threads: 0 is less than the minimum of 1",
    "seed flag not an integer": "error: --seed: 'abc' is not of type 'integer'",
    "population flag not gen or tree": "error: --population: 'foo' is not one of ['gen', 'tree']",
    "threads flag not an integer": "error: --threads: '2.5' is not of type 'integer'",
    "p with a one-axis grid": "at grid: [0.0] is not of type 'object'",
    "float seed": "at seed: 2.0 is not of type 'integer'",
    "float depth": "at n: 3.0 is not of type 'integer'",
    "depth 63": "at n: 63 is greater than the maximum of 62",
    "clt depth 63": "at n_list/0: 63 is greater than the maximum of 62",
    "figure depth 63": "at n_list/0: 63 is greater than the maximum of 62",
    "figure case spelled case1": "at case: 'case1' is not one of ['1', '2']",
    "stationary start with x0": "('x0' was unexpected)",
    "overflowing model": "error: tree values must be finite (NaN or infinity found)",
    "oracle overflowing model 1e200": (
        "error: coefficients a0=1e+200, a1=1e+200, b0=0, b1=0, sigma=1 overflow float64 within 3 generations from x=0.5"
    ),
    "oracle overflowing model 1e150": (
        "error: coefficients a0=1e+150, a1=1e+150, b0=0, b1=0, sigma=1 overflow float64 within 3 generations from x=0.5"
    ),
    "oracle a0 square overflows at n 0": "error: coefficients a0=1e+200, a1=0.5 overflow float64 when squared",
    "oracle Q2 spread overflows": (
        "error: coefficients a0=0.5, a1=0.5, b0=0, b1=0, sigma=5e+76 overflow float64 within 2 generations from x=0.5"
    ),
    "sigma square overflows": SIGMA_TOO_LARGE,
    "rho square overflows": SIGMA_TOO_LARGE,
    "clt sigma fourth power overflows": SIGMA_TOO_LARGE,
    "oracle sigma fourth power overflows": SIGMA_TOO_LARGE,
    "clt point of zero variance": "error: p_hat limit variance at (0, 40, 0) is 0, not positive and finite",
    "clt mu_tri point of zero variance": "error: mu_tri limit variance at (0, 40, 0) is 0, not positive and finite",
    "clt point of infinite variance": "error: p_hat limit variance at (50, 25, 25) is inf, not positive and finite",
}


def _record_tree_draws(monkeypatch) -> list:
    """The depth of every CLT or oracle tree batch drawn from now on, in this process."""
    drawn = []
    draw = harness.simulate_trees

    def record(*args):
        drawn.append(args[1])
        return draw(*args)

    monkeypatch.setattr(harness, "simulate_trees", record)
    monkeypatch.setattr(oracle, "simulate_trees", record)
    return drawn


def test_a_valid_clt_config_draws_its_trees(tmp_path, monkeypatch):
    # the control of the invalid cases' "no tree drawn"
    drawn = _record_tree_draws(monkeypatch)
    config = write_config(tmp_path, "clt.json", CLT_MIN)
    assert main(["clt-check", "--config", config, "--out", str(tmp_path / "rows.csv")]) == 0
    assert drawn == [4]


@pytest.mark.parametrize("case", list(INVALID))
def test_invalid_config_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch, case):
    command, doc, edit_tree, flags = INVALID[case]
    drawn = _record_tree_draws(monkeypatch)
    tree = str(tmp_path / "tree.csv")
    simulate(BarParams(0.5, 0.5), 3, InitSpec.dirac(0.0), 1).to_csv(tree)
    if edit_tree:
        lines = Path(tree).read_text().splitlines()
        Path(tree).write_text("\n".join(edit_tree(lines)) + "\n")
    config = str(tmp_path / "cfg.json")
    with open(config, "w") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [command, "--config", config, "--out", str(out_dir / OUTPUTS[command]), *flags]
    argv += ["--tree", tree] if command in TREE_COMMANDS else []
    assert main(argv) == 1
    err = capsys.readouterr().err
    # the error line alone, with no numpy warning before it
    assert err.startswith("error:") and err.count("\n") == 1
    assert MESSAGES.get(case, "error:") in err
    assert os.listdir(out_dir) == []
    assert drawn == []


def test_overflowing_model_prints_only_its_error_line(tmp_path):
    # a fresh interpreter prints numpy's warnings to stderr, as a shell run would
    config = write_config(tmp_path, "sim.json", INVALID["overflowing model"][1])
    src = os.path.dirname(os.path.dirname(bmckde.cli.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "bmckde.cli", "simulate", "--config", config, "--out", str(tmp_path / "tree.csv")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stderr) == (1, MESSAGES["overflowing model"] + "\n")


@pytest.mark.parametrize(
    "selector,expected",
    [
        ({"kind": "fixed", "gamma": 0.25}, FixedGamma(0.25)),
        ({"kind": "cv"}, CvSelector(K=5, grid_size=DEFAULT_GRID_SIZE)),
        ({"kind": "cv", "K": 3, "grid_size": 4}, CvSelector(K=3, grid_size=4)),
        ({"kind": "cv", "grid": [0.3, 0.6]}, CvSelector(K=5, grid=(0.3, 0.6))),
        ({"kind": "rot"}, RotSelector(m=DEFAULT_LAG)),
        ({"kind": "rot", "m": 3}, RotSelector(m=3)),
    ],
)
def test_selector_config_builds_the_class_its_kind_names(tmp_path, selector, expected):
    config = write_config(tmp_path, "clt.json", {**CLT_MIN, "selector": selector})
    cfg = bmckde.cli.load_config(argparse.Namespace(config=config), "clt-check")
    assert bmckde.cli._selector(cfg["selector"]) == expected


def test_each_schema_is_meta_checked_at_most_once_per_process(tmp_path, capsys, monkeypatch):
    from bmckde.cli import SCHEMAS

    checked = []
    check_schema = jsonschema.Draft202012Validator.check_schema

    def counting(schema, *args, **kwargs):
        checked.append(schema)
        return check_schema(schema, *args, **kwargs)

    monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema", staticmethod(counting))
    tree = str(tmp_path / "tree.csv")
    simulate(BarParams(0.7, 0.5), 6, InitSpec.dirac(0.0), 3).to_csv(tree)
    first_case = {}
    for command, doc, _ in RERUN_CASES:
        first_case.setdefault(command, doc)
    for command, doc in first_case.items():
        config = write_config(tmp_path, f"{command}.json", doc) if doc is not None else None
        for run in ("a", "b"):
            assert _run_into(str(tmp_path / command / run), command, config, tree, capsys)[0] == 0
    for command, schema in SCHEMAS.items():
        assert sum(c is schema for c in checked) <= 1, command


# -- start-up: a command imports only what it runs -----------------------------

# runs each argv of argv[1] (JSON) through main, then prints the exit codes and
# the scipy subpackages that were imported
_FRESH_MAIN = """
import json, sys
from bmckde.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted({m.split(".")[1] for m in sys.modules if m.startswith("scipy.")})]))
"""


def _fresh_main(cwd, argvs) -> tuple[list, set[str]]:
    src = os.path.dirname(os.path.dirname(bmckde.cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_MAIN, json.dumps(argvs)], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    codes, scipy_loaded = json.loads(done.stdout.splitlines()[-1])
    return codes, set(scipy_loaded)


def test_commands_that_do_not_verify_never_import_scipy(tmp_path):
    write_config(tmp_path, "sim.json", {**SIM, "n": 6})
    write_config(tmp_path, "est.json", MU)
    write_config(tmp_path, "cv.json", {"K": 2, "grid": [0.3, 0.6]})
    write_config(tmp_path, "fig.json", {"case": "1", "selector": {"kind": "rot"}, "n_list": [5], "seeds": 1})
    tree = ["--tree", "tree.csv"]
    codes, scipy_loaded = _fresh_main(
        tmp_path,
        [
            ["simulate", "--config", "sim.json", "--out", "tree.csv"],
            ["estimate", "--config", "est.json", *tree, "--out", "phat.csv"],
            ["cv-select", "--config", "cv.json", *tree, "--out", "scores.csv"],
            ["rot-select", *tree],
            ["reproduce-figures", "--config", "fig.json", "--out", "figures"],
        ],
    )
    assert codes == [0, 0, 0, 0, 0]
    assert scipy_loaded == set()
    # clt-check needs only scipy.special's ndtr for its normal-fit summary
    write_config(tmp_path, "clt.json", CLT_MIN)
    codes, scipy_loaded = _fresh_main(tmp_path, [["clt-check", "--config", "clt.json", "--out", "rows.csv"]])
    assert codes == [0]
    assert "special" in scipy_loaded
    assert not scipy_loaded & {"stats", "interpolate"}
    # the control: oracle-check's quadrature interpolates with scipy's CubicSpline
    write_config(tmp_path, "oc.json", {"n": 2, "m": 1, "replications": 400, "seed": 1})
    codes, scipy_loaded = _fresh_main(tmp_path, [["oracle-check", "--config", "oc.json"]])
    assert codes == [0]
    assert {"special", "interpolate"} <= scipy_loaded

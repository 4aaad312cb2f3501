"""Command-line surface: simulation, estimation, selection, and verification runs.

Configs are JSON documents validated against per-command schemas (unknown
keys rejected).  Output files are written to a temporary name and renamed,
so failures leave no partial files, and every file-producing command drops a
sidecar JSON with the fully resolved config next to its output.

Exit codes: 0 success, 1 config/validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import jsonschema
import numpy as np

from .bar import BarParams, InitSpec, simulate
from .cv import cv_select
from .estimators import BandwidthTriple, EstimatorSpec, evaluate_on_grid
from .harness import (
    CvSelector,
    ExperimentSpec,
    FigureGrid,
    FixedGamma,
    RotSelector,
    gnuplot_script,
    mean_sup_errors,
    run_clt_mu_tri,
    run_clt_p_hat,
    run_figure_reproduction,
    write_figure_outputs,
)
from .oracle import moment_check_table
from .rot import rot_select
from .tree import Population, TreeSample


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 1."""


_AXIS = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"min": {"type": "number"}, "max": {"type": "number"}, "num": {"type": "integer", "minimum": 1}},
            "required": ["min", "max", "num"],
            "additionalProperties": False,
        },
        {"type": "array", "items": {"type": "number"}, "minItems": 1},
    ]
}

_MODEL_PROPS = {
    "a0": {"type": "number"},
    "a1": {"type": "number"},
    "b0": {"type": "number"},
    "b1": {"type": "number"},
    "sigma": {"type": "number"},
    "rho": {"type": "number"},
}

_SELECTOR = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["fixed", "cv", "rot"]},
        "gamma": {"type": "number"},
        "K": {"type": "integer", "minimum": 2},
        "grid_size": {"type": "integer", "minimum": 1},
        "grid": {"type": "array", "items": {"type": "number"}},
        "m": {"type": "integer", "minimum": 1},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

SCHEMAS = {
    "simulate": {
        "type": "object",
        "properties": {
            **_MODEL_PROPS,
            "init": {"enum": ["dirac", "stationary"]},
            "x0": {"type": "number"},
            "seed": {"type": "integer"},
            "n": {"type": "integer", "minimum": 0},
            "format": {"enum": ["csv", "raw"]},
        },
        "required": ["a0", "a1", "sigma", "n"],
        "additionalProperties": False,
    },
    "estimate": {
        "type": "object",
        "properties": {
            "estimator": {"enum": ["mu", "mu_tri", "p"]},
            "population": {"enum": ["gen", "tree"]},
            "h": {"type": "number", "exclusiveMinimum": 0},
            "bw": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 3, "maxItems": 3},
            "grid": {
                "oneOf": [
                    _AXIS["oneOf"][0],
                    _AXIS["oneOf"][1],
                    {
                        "type": "object",
                        "properties": {"x": _AXIS, "x0": _AXIS, "x1": _AXIS},
                        "required": ["x", "x0", "x1"],
                        "additionalProperties": False,
                    },
                ]
            },
        },
        "required": ["estimator", "grid"],
        "additionalProperties": False,
    },
    "cv-select": {
        "type": "object",
        "properties": {
            "K": {"type": "integer", "minimum": 2},
            "grid": _AXIS,
            "seed": {"type": "integer"},
        },
        "additionalProperties": False,
    },
    "rot-select": {
        "type": "object",
        "properties": {"m": {"type": "integer", "minimum": 1}},
        "additionalProperties": False,
    },
    "clt-check": {
        "type": "object",
        "properties": {
            "model": {"type": "object", "properties": _MODEL_PROPS, "required": ["a0", "a1", "sigma"], "additionalProperties": False},
            "statistic": {"enum": ["p_hat", "mu_tri"]},
            "n_list": {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 1},
            "replications": {"type": "integer", "minimum": 1},
            "point": {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3},
            "population": {"enum": ["gen", "tree"]},
            "selector": _SELECTOR,
            "seed": {"type": "integer"},
            "threads": {"type": "integer", "minimum": 1},
        },
        "required": ["model", "n_list", "replications"],
        "additionalProperties": False,
    },
    "oracle-check": {
        "type": "object",
        "properties": {
            **_MODEL_PROPS,
            "x": {"type": "number"},
            "n": {"type": "integer", "minimum": 0, "maximum": 5},
            "m": {"type": "integer", "minimum": 0},
            "replications": {"type": "integer", "minimum": 10},
            "seed": {"type": "integer"},
        },
        "additionalProperties": False,
    },
    "reproduce-figures": {
        "type": "object",
        "properties": {
            "case": {"enum": ["1", "2", "case1", "case2"]},
            "selector": _SELECTOR,
            "n_list": {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 1},
            "seeds": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer"},
            "grid": {
                "type": "object",
                "properties": {
                    "slice_x": {"type": "number"},
                    "half_width": {"type": "number", "exclusiveMinimum": 0},
                    "points_per_axis": {"type": "integer", "minimum": 2},
                },
                "additionalProperties": False,
            },
            "gnuplot": {"type": "boolean"},
        },
        "required": ["case", "selector"],
        "additionalProperties": False,
    },
}


def load_config(path: str | None, command: str) -> dict:
    if path is None:
        cfg = {}
    else:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}:{e.lineno}:{e.colno}: malformed JSON: {e.msg}") from e
    try:
        jsonschema.validate(cfg, SCHEMAS[command])
    except jsonschema.ValidationError as e:
        where = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(f"{path or '<empty config>'}: at {where}: {e.message}") from e
    return cfg


def atomic_write(path: str, write_fn) -> None:
    """Run write_fn against a temp file, then rename into place."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_sidecar(out: str, config: dict) -> None:
    atomic_write(out + ".config.json", lambda p: _dump_json(p, config))


def _dump_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _axis(spec) -> np.ndarray:
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    return np.linspace(spec["min"], spec["max"], spec["num"])


def _model(cfg: dict) -> BarParams:
    try:
        return BarParams(
            a0=cfg["a0"],
            a1=cfg["a1"],
            b0=cfg.get("b0", 0.0),
            b1=cfg.get("b1", 0.0),
            sigma=cfg["sigma"],
            rho=cfg.get("rho", 0.0),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _selector(cfg: dict):
    kind = cfg["kind"]
    if kind == "fixed":
        if "gamma" not in cfg:
            raise ConfigError("fixed selector needs gamma")
        return FixedGamma(cfg["gamma"])
    if kind == "cv":
        return CvSelector(
            K=cfg.get("K", 5),
            grid_size=cfg.get("grid_size", 32),
            grid=tuple(cfg["grid"]) if "grid" in cfg else None,
        )
    return RotSelector(m=cfg.get("m"))


def _load_tree(path: str) -> TreeSample:
    try:
        return TreeSample.from_raw(path) if path.endswith(".f64") else TreeSample.from_csv(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot load tree {path}: {e}") from e


# -- subcommand handlers -------------------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, "simulate")
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("seed", 0)
    cfg.setdefault("init", "dirac")
    cfg.setdefault("x0", 0.0)
    cfg.setdefault("format", "raw" if args.out.endswith(".f64") else "csv")
    for key in ("b0", "b1", "rho"):
        cfg.setdefault(key, 0.0)
    params = _model(cfg)
    init = InitSpec.dirac(cfg["x0"]) if cfg["init"] == "dirac" else InitSpec.stationary()
    try:
        sample = simulate(params, cfg["n"], init, cfg["seed"])
    except ValueError as e:
        raise ConfigError(str(e)) from e
    writer = sample.to_raw if cfg["format"] == "raw" else sample.to_csv
    atomic_write(args.out, writer)
    _write_sidecar(args.out, cfg)
    return 0


def _cmd_estimate(args) -> int:
    cfg = load_config(args.config, "estimate")
    cfg.setdefault("population", args.population or "gen")
    if args.population:
        cfg["population"] = args.population
    sample = _load_tree(args.tree)
    population = Population(cfg["population"])
    kind = cfg["estimator"]
    try:
        bw = BandwidthTriple(*cfg["bw"]) if "bw" in cfg else None
        if kind == "mu":
            if "h" not in cfg:
                raise ConfigError("mu estimator needs h")
            grid = _axis(cfg["grid"])
            spec = EstimatorSpec(kind="mu", population=population, h=cfg["h"])
        else:
            if bw is None:
                raise ConfigError(f"{kind} estimator needs bw = [h, h0, h1]")
            if kind == "p" and "h" not in cfg:
                raise ConfigError("p estimator needs the denominator bandwidth h")
            g = cfg["grid"]
            if not (isinstance(g, dict) and "x" in g):
                raise ConfigError("3-d estimators need grid = {x:, x0:, x1:}")
            grid = (_axis(g["x"]), _axis(g["x0"]), _axis(g["x1"]))
            spec = EstimatorSpec(kind=kind, population=population, h=cfg.get("h"), bw=bw)
        est = evaluate_on_grid(sample, spec, grid)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    atomic_write(args.out, est.to_csv)
    _write_sidecar(args.out, cfg)
    return 0


def _cmd_cv_select(args) -> int:
    cfg = load_config(args.config, "cv-select")
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("seed", 0)
    cfg.setdefault("K", 5)
    sample = _load_tree(args.tree)
    grid = _axis(cfg["grid"]) if "grid" in cfg else None
    try:
        res = cv_select(sample, K=cfg["K"], grid=grid, seed=cfg["seed"])
    except ValueError as e:
        raise ConfigError(str(e)) from e

    def write_scores(path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("h,score_den,score_num\n")
            for h, sd, sn in zip(res.grid, res.scores_den, res.scores_num):
                fh.write(f"{float(h)!r},{float(sd)!r},{float(sn)!r}\n")

    atomic_write(args.out, write_scores)
    selection = {"h_D_hat": res.h_d_hat, "h_N_hat": res.h_n_hat, "K": res.K, "seed": res.seed}
    atomic_write(os.path.splitext(args.out)[0] + ".json", lambda p: _dump_json(p, selection))
    _write_sidecar(args.out, cfg)
    return 0


def _cmd_rot_select(args) -> int:
    cfg = load_config(args.config, "rot-select")
    sample = _load_tree(args.tree)
    try:
        sel = rot_select(sample, cfg.get("m"))
    except ValueError as e:
        raise ConfigError(str(e)) from e
    doc = {
        "a_hat": sel.a_hat,
        "sigma_hats": list(sel.sigma_hats),
        "h_D_hat": sel.h_d_hat,
        "h_N_hat": sel.h_n_hat,
        "h_0N_hat": sel.h_0n_hat,
        "h_1N_hat": sel.h_1n_hat,
        "n": sel.n,
        "m": sel.m,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        atomic_write(args.out, lambda p: _dump_json(p, doc))
        _write_sidecar(args.out, cfg)
    return 0


def _cmd_clt_check(args) -> int:
    cfg = load_config(args.config, "clt-check")
    if args.seed is not None:
        cfg["seed"] = args.seed
    threads = args.threads
    if threads is None and "BMC_KERNEL_THREADS" in os.environ:
        env = os.environ["BMC_KERNEL_THREADS"]
        try:
            threads = int(env)
        except ValueError:
            raise ConfigError(f"BMC_KERNEL_THREADS={env!r} is not an integer") from None
    if threads is not None:
        cfg["threads"] = threads
    if args.population:
        cfg["population"] = args.population
    cfg.setdefault("seed", 0)
    cfg.setdefault("threads", 1)
    cfg.setdefault("statistic", "p_hat")
    cfg.setdefault("point", [0.0, 0.0, 0.0])
    cfg.setdefault("population", "gen")
    cfg.setdefault("selector", {"kind": "fixed", "gamma": 0.2})
    try:
        spec = ExperimentSpec(
            model=_model(cfg["model"]),
            n_list=tuple(cfg["n_list"]),
            replications=cfg["replications"],
            point=tuple(cfg["point"]),
            population=Population(cfg["population"]),
            selector=_selector(cfg["selector"]),
            seed=cfg["seed"],
            threads=cfg["threads"],
        )
        runner = run_clt_p_hat if cfg["statistic"] == "p_hat" else run_clt_mu_tri
        report = runner(spec)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    atomic_write(args.out, report.to_csv)
    atomic_write(
        os.path.splitext(args.out)[0] + ".summary.json",
        lambda p: _dump_json(p, report.summaries),
    )
    _write_sidecar(args.out, cfg)
    return 0


def _cmd_oracle_check(args) -> int:
    cfg = load_config(args.config, "oracle-check")
    if args.seed is not None:
        cfg["seed"] = args.seed
    defaults = dict(a0=0.5, a1=0.5, b0=0.0, b1=0.0, sigma=1.0, rho=0.0, x=0.5, n=3, m=2, replications=2000, seed=0)
    for k, v in defaults.items():
        cfg.setdefault(k, v)
    params = _model(cfg)
    rows = moment_check_table(params, cfg["x"], cfg["n"], cfg["m"], cfg["replications"], cfg["seed"])
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["formula", "mc_estimate", "se", "quadrature", "z_score", "status"])
    for r in rows:
        w.writerow([r.formula, repr(r.mc_estimate), repr(r.mc_se), repr(r.quadrature), repr(r.z_score), "pass" if r.passed else "FAIL"])
    print(buf.getvalue(), end="")
    if args.out:
        atomic_write(args.out, lambda p: open(p, "w").write(buf.getvalue()))
        _write_sidecar(args.out, cfg)
    return 0 if all(r.passed for r in rows) else 2


def _cmd_reproduce_figures(args) -> int:
    cfg = load_config(args.config, "reproduce-figures")
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("seed", 0)
    cfg.setdefault("seeds", 3)
    cfg.setdefault("n_list", [10, 12, 14])
    cfg.setdefault("grid", {})
    grid = FigureGrid(
        slice_x=cfg["grid"].get("slice_x", 0.0),
        half_width=cfg["grid"].get("half_width", 3.0),
        points_per_axis=cfg["grid"].get("points_per_axis", 21),
    )
    try:
        runs = run_figure_reproduction(
            case=cfg["case"],
            selector=_selector(cfg["selector"]),
            n_list=cfg["n_list"],
            n_seeds=cfg["seeds"],
            seed=cfg["seed"],
            grid=grid,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    os.makedirs(args.out, exist_ok=True)
    write_figure_outputs(runs, args.out)
    _dump_json(
        os.path.join(args.out, "mean_sup_errors.json"),
        {str(n): v for n, v in mean_sup_errors(runs).items()},
    )
    if cfg.get("gnuplot"):
        gnuplot_script(runs, args.out)
    _write_sidecar(os.path.join(args.out, "run"), cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bmckde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *, tree=False, out_required=True, out_is_dir=False, seed=False, population=False):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if population:
            p.add_argument("--population", choices=["gen", "tree"], default=None)
        if tree:
            p.add_argument("--tree", required=True)
        if out_required:
            p.add_argument("--out", required=True, help="output directory" if out_is_dir else "output file")
        else:
            p.add_argument("--out", default=None)
        p.set_defaults(handler=handler)
        return p

    add("simulate", _cmd_simulate, seed=True)
    add("estimate", _cmd_estimate, tree=True, population=True)
    add("cv-select", _cmd_cv_select, tree=True, seed=True)
    add("rot-select", _cmd_rot_select, tree=True, out_required=False)
    clt = add("clt-check", _cmd_clt_check, seed=True, population=True)
    clt.add_argument("--threads", type=int, default=None)
    add("oracle-check", _cmd_oracle_check, out_required=False, seed=True)
    add("reproduce-figures", _cmd_reproduce_figures, out_is_dir=True, seed=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: simulation, estimation, selection, and verification runs.

Configs are JSON documents validated against per-command schemas (unknown
keys rejected).  The schema is the one place a command's defaults are
declared: ``load_config`` copies in the flags, fills every default and
validates the result, and every file-producing command drops that resolved
config as a sidecar JSON next to its output, so passing the sidecar back as
``--config`` reproduces the run.  Output files are written to a temporary
name and renamed, so failures leave no partial files.

Exit codes: 0 success, 1 config/validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import copy
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
from .rot import DEFAULT_LAG, rot_select
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
    "b0": {"type": "number", "default": BarParams.b0},
    "b1": {"type": "number", "default": BarParams.b1},
    "sigma": {"type": "number"},
    "rho": {"type": "number", "default": BarParams.rho},
}


def _selector_kind(kind: str, props: dict, required: tuple = ()) -> dict:
    # keys that have no effect for the kind are rejected
    then = {"properties": {"kind": {}, **props}, "required": list(required), "additionalProperties": False}
    return {"if": {"properties": {"kind": {"const": kind}}, "required": ["kind"]}, "then": then}


_SELECTOR = {
    "type": "object",
    "properties": {"kind": {"enum": ["fixed", "cv", "rot"]}},
    "required": ["kind"],
    "allOf": [
        _selector_kind("fixed", {"gamma": {"type": "number"}}, ("gamma",)),
        _selector_kind(
            "cv",
            {
                "K": {"type": "integer", "minimum": 2, "default": CvSelector.K},
                "grid_size": {"type": "integer", "minimum": 1, "default": CvSelector.grid_size},
                "grid": {"type": "array", "items": {"type": "number"}},
            },
        ),
        _selector_kind("rot", {"m": {"type": "integer", "minimum": 1, "default": DEFAULT_LAG}}),
    ],
}

SCHEMAS = {
    "simulate": {
        "type": "object",
        "properties": {
            **_MODEL_PROPS,
            "init": {"enum": ["dirac", "stationary"], "default": "dirac"},
            "x0": {"type": "number", "default": 0.0},
            "seed": {"type": "integer", "default": 0},
            "n": {"type": "integer", "minimum": 0},
        },
        "required": ["a0", "a1", "sigma", "n"],
        "additionalProperties": False,
    },
    "estimate": {
        "type": "object",
        "properties": {
            "estimator": {"enum": ["mu", "mu_tri", "p"]},
            "population": {"enum": ["gen", "tree"], "default": "gen"},
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
            "K": {"type": "integer", "minimum": 2, "default": 5},
            "grid": _AXIS,  # default_grid(depth) when absent, recorded in the sidecar
            "seed": {"type": "integer", "default": 0},
        },
        "additionalProperties": False,
    },
    "rot-select": {
        "type": "object",
        "properties": {"m": {"type": "integer", "minimum": 1, "default": DEFAULT_LAG}},
        "additionalProperties": False,
    },
    "clt-check": {
        "type": "object",
        "properties": {
            "model": {"type": "object", "properties": _MODEL_PROPS, "required": ["a0", "a1", "sigma"], "additionalProperties": False},
            "statistic": {"enum": ["p_hat", "mu_tri"], "default": "p_hat"},
            "n_list": {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 1},
            "replications": {"type": "integer", "minimum": 1},
            "point": {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3, "default": list(ExperimentSpec.point)},
            "population": {"enum": ["gen", "tree"], "default": ExperimentSpec.population.value},
            "selector": {**_SELECTOR, "default": {"kind": "fixed", "gamma": ExperimentSpec.selector.gamma}},
            "seed": {"type": "integer", "default": ExperimentSpec.seed},
            "threads": {"type": "integer", "minimum": 1, "default": ExperimentSpec.threads},
        },
        "required": ["model", "n_list", "replications"],
        "additionalProperties": False,
    },
    "oracle-check": {
        "type": "object",
        "properties": {
            **_MODEL_PROPS,
            "a0": {"type": "number", "default": 0.5},
            "a1": {"type": "number", "default": 0.5},
            "sigma": {"type": "number", "default": BarParams.sigma},
            "x": {"type": "number", "default": 0.5},
            "n": {"type": "integer", "minimum": 0, "maximum": 5, "default": 3},
            "m": {"type": "integer", "minimum": 0, "default": 2},
            "replications": {"type": "integer", "minimum": 10, "default": 2000},
            "seed": {"type": "integer", "default": 0},
        },
        "additionalProperties": False,
    },
    "reproduce-figures": {
        "type": "object",
        "properties": {
            "case": {"enum": ["1", "2", "case1", "case2"]},
            "selector": _SELECTOR,
            "n_list": {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 1, "default": [10, 12, 14]},
            "seeds": {"type": "integer", "minimum": 1, "default": 3},
            "seed": {"type": "integer", "default": 0},
            "grid": {
                "type": "object",
                "properties": {
                    "slice_x": {"type": "number", "default": FigureGrid.slice_x},
                    "half_width": {"type": "number", "exclusiveMinimum": 0, "default": FigureGrid.half_width},
                    "points_per_axis": {"type": "integer", "minimum": 2, "default": FigureGrid.points_per_axis},
                },
                "additionalProperties": False,
                "default": {},
            },
            "gnuplot": {"type": "boolean", "default": False},
        },
        "required": ["case", "selector"],
        "additionalProperties": False,
    },
}


def _fill_defaults(doc, schema: dict) -> None:
    """Add every absent property that declares a default, recursing into objects
    and into the conditional branches (``allOf`` of ``if``/``then``) ``doc`` selects."""
    if not isinstance(doc, dict):
        return
    branches = [c["then"] for c in schema.get("allOf", ()) if jsonschema.Draft202012Validator(c["if"]).is_valid(doc)]
    for sub in (schema, *branches):
        for key, prop in sub.get("properties", {}).items():
            if key not in doc and "default" in prop:
                doc[key] = copy.deepcopy(prop["default"])
            if key in doc:
                _fill_defaults(doc[key], prop)


def load_config(args, command: str) -> dict:
    """The resolved config: the file, then the flags given, then every schema
    default, validated as a whole."""
    path = args.config
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
    if isinstance(cfg, dict):
        for flag in ("seed", "population", "threads"):
            if getattr(args, flag, None) is not None:
                cfg[flag] = getattr(args, flag)
    _fill_defaults(cfg, SCHEMAS[command])
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


def _write_json(path: str, obj) -> None:
    atomic_write(path, lambda p: _dump_json(p, obj))


def _dump_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _axis(spec) -> np.ndarray:
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    return np.linspace(spec["min"], spec["max"], spec["num"])


def _model(cfg: dict) -> BarParams:
    return BarParams(**{key: cfg[key] for key in _MODEL_PROPS})


def _selector(cfg: dict):
    kind = cfg["kind"]
    if kind == "fixed":
        return FixedGamma(cfg["gamma"])
    if kind == "cv":
        return CvSelector(K=cfg["K"], grid_size=cfg["grid_size"], grid=tuple(cfg["grid"]) if "grid" in cfg else None)
    return RotSelector(m=cfg["m"])


def _load_tree(path: str) -> TreeSample:
    try:
        return TreeSample.from_raw(path) if path.endswith(".f64") else TreeSample.from_csv(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot load tree {path}: {e}") from e


# -- subcommand handlers: each reads only its resolved config ------------------


def _cmd_simulate(args, cfg: dict) -> int:
    init = InitSpec.dirac(cfg["x0"]) if cfg["init"] == "dirac" else InitSpec.stationary()
    try:
        sample = simulate(_model(cfg), cfg["n"], init, cfg["seed"])
    except ValueError as e:
        raise ConfigError(str(e)) from e
    atomic_write(args.out, sample.to_raw if args.out.endswith(".f64") else sample.to_csv)
    return 0


def _cmd_estimate(args, cfg: dict) -> int:
    sample = _load_tree(args.tree)
    kind, g = cfg["estimator"], cfg["grid"]
    if (kind == "mu") == (isinstance(g, dict) and "x" in g):
        shape = "one axis ({min:, max:, num:} or a list)" if kind == "mu" else "{x:, x0:, x1:}"
        raise ConfigError(f"{kind} estimator needs grid = {shape}")
    grid = _axis(g) if kind == "mu" else (_axis(g["x"]), _axis(g["x0"]), _axis(g["x1"]))
    try:
        bw = BandwidthTriple(*cfg["bw"]) if "bw" in cfg else None
        spec = EstimatorSpec(kind=kind, population=Population(cfg["population"]), h=cfg.get("h"), bw=bw)
        est = evaluate_on_grid(sample, spec, grid)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    atomic_write(args.out, est.to_csv)
    _write_json(args.out + ".meta.json", est.meta)
    return 0


def _cmd_cv_select(args, cfg: dict) -> int:
    sample = _load_tree(args.tree)
    try:
        res = cv_select(sample, K=cfg["K"], grid=_axis(cfg["grid"]) if "grid" in cfg else None, seed=cfg["seed"])
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if "grid" not in cfg:  # the default candidates depend on the tree's depth
        cfg["grid"] = res.grid.tolist()

    def write_scores(path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("h,score_den,score_num\n")
            for h, sd, sn in zip(res.grid, res.scores_den, res.scores_num):
                fh.write(f"{float(h)!r},{float(sd)!r},{float(sn)!r}\n")

    atomic_write(args.out, write_scores)
    selection = {"h_D_hat": res.h_d_hat, "h_N_hat": res.h_n_hat, "K": res.K, "seed": res.seed}
    _write_json(os.path.splitext(args.out)[0] + ".json", selection)
    return 0


def _cmd_rot_select(args, cfg: dict) -> int:
    sample = _load_tree(args.tree)
    try:
        sel = rot_select(sample, cfg["m"])
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
        _write_json(args.out, doc)
    return 0


def _cmd_clt_check(args, cfg: dict) -> int:
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
    _write_json(os.path.splitext(args.out)[0] + ".summary.json", report.summaries)
    return 0


def _cmd_oracle_check(args, cfg: dict) -> int:
    try:
        rows = moment_check_table(_model(cfg), cfg["x"], cfg["n"], cfg["m"], cfg["replications"], cfg["seed"])
    except ValueError as e:
        raise ConfigError(str(e)) from e
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["formula", "mc_estimate", "se", "quadrature", "z_score", "status"])
    for r in rows:
        w.writerow([r.formula, repr(r.mc_estimate), repr(r.mc_se), repr(r.quadrature), repr(r.z_score), "pass" if r.passed else "FAIL"])
    print(buf.getvalue(), end="")
    if args.out:
        atomic_write(args.out, lambda p: open(p, "w").write(buf.getvalue()))
    return 0 if all(r.passed for r in rows) else 2


def _cmd_reproduce_figures(args, cfg: dict) -> int:
    try:
        runs = run_figure_reproduction(
            case=cfg["case"],
            selector=_selector(cfg["selector"]),
            n_list=cfg["n_list"],
            n_seeds=cfg["seeds"],
            seed=cfg["seed"],
            grid=FigureGrid(**cfg["grid"]),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    os.makedirs(args.out, exist_ok=True)
    write_figure_outputs(runs, args.out)
    _dump_json(
        os.path.join(args.out, "mean_sup_errors.json"),
        {str(n): v for n, v in mean_sup_errors(runs).items()},
    )
    if cfg["gnuplot"]:
        gnuplot_script(runs, args.out)
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
        p.set_defaults(handler=handler, out_is_dir=out_is_dir)
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
        cfg = load_config(args, args.command)
        code = args.handler(args, cfg)
        if args.out:  # the sidecar is the resolved config the run used
            _write_json((os.path.join(args.out, "run") if args.out_is_dir else args.out) + ".config.json", cfg)
        return code
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: simulation, estimation, selection, and verification runs.

Configs are JSON documents validated against per-command schemas (unknown
keys rejected).  The schema is the one table a command's keys, defaults and
checks are read from: a flag exists where the schema has its key,
``load_config`` copies in the flags, fills every default and validates the
result, and every file-producing command drops that resolved config as a
sidecar JSON next to its output, so passing the sidecar back as ``--config``
reproduces the run.  Every output file is written through ``table``, to a
temporary name then renamed, so failures leave no partial files.

Exit codes: 0 success, 1 config/validation error (any ValueError), 2 runtime
error.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import os
import sys

import jsonschema
import numpy as np

from .bar import BarParams, InitSpec, simulate
from .cv import DEFAULT_GRID_SIZE, cv_select
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
from .table import write_csv, write_rows, write_text
from .tree import MAX_DEPTH, Population, TreeSample


class ConfigError(ValueError):
    """Invalid configuration; ``main`` maps it, like every ValueError, to exit code 1."""


# jsonschema counts 2.0 as an integer; range() and the seed's bit operations do not
_INTEGERS = jsonschema.Draft202012Validator.TYPE_CHECKER.redefine("integer", lambda _, v: type(v) is int)
_Validator = jsonschema.validators.extend(jsonschema.Draft202012Validator, type_checker=_INTEGERS)

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


def _branch(cond: dict, props: dict, required: tuple = ()) -> dict:
    # a document matching cond may hold only the keys cond and props name:
    # any other has no effect there and is rejected
    then = {"properties": {**dict.fromkeys(cond["properties"], {}), **props}, "required": list(required), "additionalProperties": False}
    return {"if": cond, "then": then}


def _when(key: str, value: str) -> dict:
    return {"properties": {key: {"const": value}}, "required": [key]}


_CV = _when("kind", "cv")
_CV_K = {"type": "integer", "minimum": 2, "default": CvSelector.K}

_SELECTOR = {
    "type": "object",
    "properties": {"kind": {"enum": ["fixed", "cv", "rot"]}},
    "required": ["kind"],
    "allOf": [
        _branch(_when("kind", "fixed"), {"gamma": {"type": "number"}}, ("gamma",)),
        # explicit candidates replace grid_size, so a cv selector takes one or the other
        _branch({**_CV, "required": ["kind", "grid"]}, {"K": _CV_K, "grid": {"type": "array", "items": {"type": "number"}}}),
        _branch(
            {**_CV, "not": {"required": ["grid"]}},
            {"K": _CV_K, "grid_size": {"type": "integer", "minimum": 1, "default": DEFAULT_GRID_SIZE}},
        ),
        _branch(_when("kind", "rot"), {"m": {"type": "integer", "minimum": 1, "default": DEFAULT_LAG}}),
    ],
}

_H = {"type": "number", "exclusiveMinimum": 0}
_BW = {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 3, "maxItems": 3}
_ESTIMATE_SHARED = {"population": {}, "grid": {}}
_SIMULATE_SHARED = dict.fromkeys([*_MODEL_PROPS, "seed", "n"], {})
_DEPTHS = {"type": "array", "items": {"type": "integer", "minimum": 2, "maximum": MAX_DEPTH}, "minItems": 1}

SCHEMAS = {
    "simulate": {
        "type": "object",
        "properties": {
            **_MODEL_PROPS,
            "init": {"enum": ["dirac", "stationary"], "default": "dirac"},
            "seed": {"type": "integer", "default": 0},
            "n": {"type": "integer", "minimum": 0, "maximum": MAX_DEPTH},
        },
        "required": ["a0", "a1", "sigma", "n"],
        # x0 is where a dirac start puts the root
        "allOf": [
            _branch(_when("init", "dirac"), {**_SIMULATE_SHARED, "x0": {"type": "number", "default": 0.0}}),
            _branch(_when("init", "stationary"), _SIMULATE_SHARED),
        ],
    },
    "estimate": {
        "type": "object",
        "properties": {
            "estimator": {"enum": ["mu", "mu_tri", "p"]},
            "population": {"enum": ["gen", "tree"], "default": "gen"},
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
        # mu takes h, mu_tri the triple bw, and p both
        "allOf": [
            _branch(_when("estimator", "mu"), {**_ESTIMATE_SHARED, "h": _H}, ("h",)),
            _branch(_when("estimator", "mu_tri"), {**_ESTIMATE_SHARED, "bw": _BW}, ("bw",)),
            _branch(_when("estimator", "p"), {**_ESTIMATE_SHARED, "h": _H, "bw": _BW}, ("h", "bw")),
        ],
    },
    "cv-select": {
        "type": "object",
        "properties": {
            "K": {"type": "integer", "minimum": 2, "default": CvSelector.K},
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
            "n_list": _DEPTHS,
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
            "case": {"enum": ["1", "2"]},
            "selector": _SELECTOR,
            "n_list": {**_DEPTHS, "default": [10, 12, 14]},
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


_FLAGS = ("seed", "population", "threads")  # each registered where the command's schema has the key


def _flag_value(text: str):
    # an int where int() reads one, else the text: the schema alone judges the value
    try:
        return int(text)
    except ValueError:
        return text


def _fill_defaults(doc, schema: dict) -> None:
    """Add every absent property that declares a default, recursing into objects
    and then into the conditional branches (``allOf`` of ``if``/``then``) the
    filled ``doc`` selects."""
    if not isinstance(doc, dict):
        return
    for key, prop in schema.get("properties", {}).items():
        if key not in doc and "default" in prop:
            doc[key] = copy.deepcopy(prop["default"])
        if key in doc:
            _fill_defaults(doc[key], prop)
    for c in schema.get("allOf", ()):
        if _Validator(c["if"]).is_valid(doc):
            _fill_defaults(doc, c["then"])


@functools.cache
def _validator(command: str):
    # the schemas are constants: check each against the meta-schema once per process
    jsonschema.Draft202012Validator.check_schema(SCHEMAS[command])
    return _Validator(SCHEMAS[command])


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
    flags = [f for f in _FLAGS if isinstance(cfg, dict) and getattr(args, f, None) is not None]
    for flag in flags:
        cfg[flag] = _flag_value(getattr(args, flag))
    _fill_defaults(cfg, SCHEMAS[command])
    e = jsonschema.exceptions.best_match(_validator(command).iter_errors(cfg))
    if e is None:
        return cfg
    at = list(e.absolute_path)
    if len(at) == 1 and at[0] in flags:  # the value came from the command line
        raise ConfigError(f"--{at[0]}: {e.message}")
    where = "/".join(map(str, at)) or "<root>"
    raise ConfigError(f"{path or '<empty config>'}: at {where}: {e.message}")


def _write_json(path: str, obj) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


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
        grid = tuple(cfg["grid"]) if "grid" in cfg else None
        return CvSelector(K=cfg["K"], grid_size=cfg.get("grid_size"), grid=grid)
    return RotSelector(m=cfg["m"])


def _load_tree(path: str) -> TreeSample:
    try:
        return TreeSample.from_raw(path) if path.endswith(".f64") else TreeSample.from_csv(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot load tree {path}: {e}") from e


# -- subcommand handlers: each reads only its resolved config ------------------
# A ValueError raised while a handler runs is an invalid input: main exits 1.


def _cmd_simulate(args, cfg: dict) -> int:
    init = InitSpec.dirac(cfg["x0"]) if cfg["init"] == "dirac" else InitSpec.stationary()
    sample = simulate(_model(cfg), cfg["n"], init, cfg["seed"])
    (sample.to_raw if args.out.endswith(".f64") else sample.to_csv)(args.out)
    return 0


def _cmd_estimate(args, cfg: dict) -> int:
    sample = _load_tree(args.tree)
    kind, g = cfg["estimator"], cfg["grid"]
    if (kind == "mu") == (isinstance(g, dict) and "x" in g):
        shape = "one axis ({min:, max:, num:} or a list)" if kind == "mu" else "{x:, x0:, x1:}"
        raise ConfigError(f"{kind} estimator needs grid = {shape}")
    grid = _axis(g) if kind == "mu" else (_axis(g["x"]), _axis(g["x0"]), _axis(g["x1"]))
    bw = BandwidthTriple(*cfg["bw"]) if "bw" in cfg else None
    spec = EstimatorSpec(kind=kind, population=Population(cfg["population"]), h=cfg.get("h"), bw=bw)
    est = evaluate_on_grid(sample, spec, grid)
    est.to_csv(args.out)
    _write_json(args.out + ".meta.json", est.meta)
    return 0


def _cmd_cv_select(args, cfg: dict) -> int:
    sample = _load_tree(args.tree)
    res = cv_select(sample, K=cfg["K"], grid=_axis(cfg["grid"]) if "grid" in cfg else None, seed=cfg["seed"])
    if "grid" not in cfg:  # the default candidates depend on the tree's depth
        cfg["grid"] = res.grid.tolist()
    rows = zip(res.grid.tolist(), res.scores_den.tolist(), res.scores_num.tolist())
    write_csv(args.out, ["h", "score_den", "score_num"], rows)
    selection = {"h_D_hat": res.h_d_hat, "h_N_hat": res.h_n_hat, "K": res.K, "seed": res.seed}
    _write_json(os.path.splitext(args.out)[0] + ".json", selection)
    return 0


def _cmd_rot_select(args, cfg: dict) -> int:
    sample = _load_tree(args.tree)
    sel = rot_select(sample, cfg["m"])
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
    report = (run_clt_p_hat if cfg["statistic"] == "p_hat" else run_clt_mu_tri)(spec)
    report.to_csv(args.out)
    _write_json(os.path.splitext(args.out)[0] + ".summary.json", report.summaries)
    return 0


def _cmd_oracle_check(args, cfg: dict) -> int:
    rows = moment_check_table(_model(cfg), cfg["x"], cfg["n"], cfg["m"], cfg["replications"], cfg["seed"])
    header = ["formula", "mc_estimate", "se", "quadrature", "z_score", "status"]
    body = [[r.formula, r.mc_estimate, r.mc_se, r.quadrature, r.z_score, "pass" if r.passed else "FAIL"] for r in rows]
    write_rows(sys.stdout, header, body)
    if args.out:
        write_csv(args.out, header, body)
    return 0 if all(r.passed for r in rows) else 2


def _cmd_reproduce_figures(args, cfg: dict) -> int:
    runs = run_figure_reproduction(
        case=cfg["case"],
        selector=_selector(cfg["selector"]),
        n_list=cfg["n_list"],
        n_seeds=cfg["seeds"],
        seed=cfg["seed"],
        grid=FigureGrid(**cfg["grid"]),
    )
    write_figure_outputs(runs, args.out)
    _write_json(os.path.join(args.out, "mean_sup_errors.json"), {str(n): v for n, v in mean_sup_errors(runs).items()})
    if cfg["gnuplot"]:
        gnuplot_script(runs, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bmckde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *, tree=False, out_required=True, out_is_dir=False):
        p = sub.add_parser(name)
        for flag in ("config", *(f for f in _FLAGS if f in SCHEMAS[name]["properties"])):
            p.add_argument(f"--{flag}")
        if tree:
            p.add_argument("--tree", required=True)
        p.add_argument("--out", required=out_required, help="output directory" if out_is_dir else "output file")
        p.set_defaults(handler=handler, out_is_dir=out_is_dir)

    add("simulate", _cmd_simulate)
    add("estimate", _cmd_estimate, tree=True)
    add("cv-select", _cmd_cv_select, tree=True)
    add("rot-select", _cmd_rot_select, tree=True, out_required=False)
    add("clt-check", _cmd_clt_check)
    add("oracle-check", _cmd_oracle_check, out_required=False)
    add("reproduce-figures", _cmd_reproduce_figures, out_is_dir=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args, args.command)
        code = args.handler(args, cfg)
        if args.out:  # the sidecar is the resolved config the run used
            _write_json((os.path.join(args.out, "run") if args.out_is_dir else args.out) + ".config.json", cfg)
        return code
    except ValueError as e:  # ConfigError, and any invalid value a command meets
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

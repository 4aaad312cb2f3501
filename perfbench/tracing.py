"""Timing spans around the package's public functions, recorded from outside.

A traced pass replaces each function in TARGETS by a wrapper wherever the
package binds it (module globals, and class attributes for methods), records
one span per call, and puts the originals back when the pass ends.  The
package itself is not edited.  A span is (op, name, layer, start, end, parent
index, units, failed); spans stay in memory and are written out when the run
ends.  A layer's self time is its spans' time minus the time covered by their
direct child spans.

Spans are only collected in this process, so callers run any pool with a
single in-process worker while tracing.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from bmckde.tree import Population, tree_size

LAYERS = ("tree", "bar", "estimators", "cv", "rot", "oracle", "harness", "cli")


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _nodes(args, kwargs, result):
    # simulate stores levels 0..n+1
    return (1 << (_arg(args, kwargs, 1, "n") + 2)) - 1


def _pairs(args, kwargs, result):
    size = 1 << _arg(args, kwargs, 0, "sample").depth
    return size * size * result.grid.size


def _point_evals(args, kwargs, result):
    depth = _arg(args, kwargs, 0, "sample").depth
    return (1 << depth) if _arg(args, kwargs, 1, "population") is Population.GEN_N else tree_size(depth)


def _grid_evals(args, kwargs, result):
    size = result.meta["sample_size"]
    evals = result.values.size * size
    if result.meta["estimator"] == "p":  # denominator at each distinct parent value
        evals += np.unique(result.points[:, 0]).size * size
    return evals


def _file_bytes(args, kwargs, result):
    # (self, path) for the writers, (cls, path) for the classmethod readers
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _replications(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    return spec.replications * len(spec.n_list)


def _figure_runs(args, kwargs, result):
    return len(result)


# (module, attribute) -> (kind, units).  ``units`` computes the exact work one
# call did from its arguments and result; counts come from input sizes, so a
# change that skips work shows as a faster rate, never as fewer units.
TARGETS = {
    ("bmckde.tree", "TreeSample.to_csv"): ("io", _file_bytes),
    ("bmckde.tree", "TreeSample.to_raw"): ("io", _file_bytes),
    ("bmckde.tree", "TreeSample.from_csv"): ("io", _file_bytes),
    ("bmckde.tree", "TreeSample.from_raw"): ("io", _file_bytes),
    ("bmckde.tree", "TreeSample.triangle_arrays"): ("triangles", None),
    ("bmckde.bar", "simulate"): ("simulate", _nodes),
    ("bmckde.estimators", "evaluate_on_grid"): ("grid", _grid_evals),
    ("bmckde.estimators", "p_hat"): ("point", None),
    ("bmckde.estimators", "mu_hat"): ("point", _point_evals),
    ("bmckde.estimators", "mu_tri_hat"): ("point", _point_evals),
    ("bmckde.cv", "cv_select"): ("select", _pairs),
    ("bmckde.rot", "rot_select"): ("select", None),
    ("bmckde.oracle", "moment_check_table"): ("mc", None),
    ("bmckde.oracle", "apply_q"): ("quadrature", None),
    ("bmckde.oracle", "expected_generation_sum"): ("quadrature", None),
    ("bmckde.oracle", "second_moment_generation_sum"): ("quadrature", None),
    ("bmckde.oracle", "mixed_moment"): ("quadrature", None),
    ("bmckde.oracle", "true_variance_clt"): ("quadrature", None),
    ("bmckde.harness", "run_clt_p_hat"): ("run", _replications),
    ("bmckde.harness", "run_clt_mu_tri"): ("run", _replications),
    ("bmckde.harness", "run_figure_reproduction"): ("run", _figure_runs),
    ("bmckde.cli", "main"): ("main", None),
}

# span tuple fields
OP, NAME, LAYER, START, END, PARENT, UNITS, FAILED = range(8)


class Tracer:
    """Collects spans while installed; install() and uninstall() bracket a pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str, units):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [self.op, name, layer, clock(), 0.0, stack[-1] if stack else -1, 0, False]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                # count a failure once, in the span it was raised from
                if not getattr(e, "_perfbench_counted", False):
                    span[FAILED] = True
                    try:
                        e._perfbench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if units is not None:
                span[UNITS] = units(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._swaps:
            raise RuntimeError("tracer already installed")
        for (modname, qual), (kind, units) in TARGETS.items():
            mod = sys.modules[modname]
            layer = modname.split(".")[1]
            name = f"{layer}.{qual}:{kind}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    repl = classmethod(self._wrap(raw.__func__, name, layer, units))
                else:
                    repl = self._wrap(raw, name, layer, units)
                self._swaps.append((cls, attr, raw))
                setattr(cls, attr, repl)
                continue
            orig = getattr(mod, qual)
            wrapped = self._wrap(orig, name, layer, units)
            # rebind every module-level alias (``from .bar import simulate``)
            for other_name, other in list(sys.modules.items()):
                if other is None or not (other_name == "bmckde" or other_name.startswith("bmckde.")):
                    continue
                for attr, val in list(vars(other).items()):
                    if val is orig:
                        self._swaps.append((other, attr, orig))
                        setattr(other, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._swaps):
            setattr(owner, attr, orig)
        self._swaps.clear()
        if self._stack:
            raise RuntimeError("spans left open")

    def write(self, path: str) -> None:
        fields = ("op", "name", "layer", "start", "end", "parent", "units", "failed")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
            fh.write("\n")


def summarize(spans: list[list], ops: list[int]) -> dict:
    """Per-layer self time, call counts and work units over the given ops.

    Returns {"self_s": {layer: s}, "kind_self_s": {name_kind: s},
    "calls": {kind_key: n}, "names": {span name: calls}, "units": {kind_key: n},
    "failed": {layer: n}, "covered_s": s, "spans": n}, where kind_key is
    "<layer>.<kind>" and "point_top" counts scalar estimator calls made from
    outside the layer.
    """
    wanted = set(ops)
    child_s = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0 and sp[OP] in wanted:
            child_s[sp[PARENT]] += sp[END] - sp[START]
    self_s = {layer: 0.0 for layer in LAYERS}
    kind_self: dict[str, float] = {}
    calls: dict[str, int] = {}
    names: dict[str, int] = {}
    units: dict[str, int] = {}
    failed = {layer: 0 for layer in LAYERS}
    covered = 0.0
    count = 0
    for i, sp in enumerate(spans):
        if sp[OP] not in wanted:
            continue
        count += 1
        dur = sp[END] - sp[START]
        layer = sp[LAYER]
        kind = f"{layer}.{sp[NAME].rsplit(':', 1)[1]}"
        own = dur - child_s[i]
        self_s[layer] += own
        kind_self[kind] = kind_self.get(kind, 0.0) + own
        calls[kind] = calls.get(kind, 0) + 1
        names[sp[NAME]] = names.get(sp[NAME], 0) + 1
        units[kind] = units.get(kind, 0) + sp[UNITS]
        failed[layer] += int(sp[FAILED])
        if sp[PARENT] < 0:
            covered += dur
        if kind == "estimators.point" and (sp[PARENT] < 0 or spans[sp[PARENT]][LAYER] != "estimators"):
            calls["estimators.point_top"] = calls.get("estimators.point_top", 0) + 1
    return {
        "self_s": self_s,
        "kind_self_s": kind_self,
        "calls": calls,
        "names": names,
        "units": units,
        "failed": failed,
        "covered_s": covered,
        "spans": count,
    }

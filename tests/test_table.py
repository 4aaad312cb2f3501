import ast
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

import bmckde
from bmckde import table
from bmckde.bar import BarParams, InitSpec, simulate
from bmckde.cli import main
from bmckde.estimators import EstimatorSpec, evaluate_on_grid
from bmckde.harness import ExperimentSpec, run_clt_p_hat


@pytest.fixture
def inputs(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    sample = simulate(BarParams(0.5, 0.5), 5, InitSpec.dirac(0.0), 3)
    tree = str(src / "tree.csv")
    sample.to_csv(tree)
    (src / "cv.json").write_text(json.dumps({"K": 2, "grid": [0.3, 0.6]}))
    (src / "oc.json").write_text(json.dumps({"n": 2, "m": 1, "replications": 400, "seed": 1}))
    return SimpleNamespace(
        sample=sample,
        tree=tree,
        src=src,
        estimate=evaluate_on_grid(sample, EstimatorSpec(kind="mu", h=0.3), [0.0, 0.5]),
        report=run_clt_p_hat(ExperimentSpec(model=BarParams(0.5, 0.5), n_list=(4,), replications=2)),
    )


# each writes `out` from the inputs: a library call raises, a command exits 2
WRITERS = {
    "tree csv": lambda i, out: i.sample.to_csv(out),
    "tree f64": lambda i, out: i.sample.to_raw(out),
    "density estimate": lambda i, out: i.estimate.to_csv(out),
    "experiment report": lambda i, out: i.report.to_csv(out),
    "cv-select scores": lambda i, out: main(["cv-select", "--tree", i.tree, "--config", str(i.src / "cv.json"), "--out", out]),
    "oracle-check": lambda i, out: main(["oracle-check", "--config", str(i.src / "oc.json"), "--out", out]),
}
# ndarray.tofile opens its file itself, so only the rename can be made to fail for .f64
CASES = [(w, "rename") for w in WRITERS] + [(w, "write") for w in WRITERS if w != "tree f64"]


class HalfWritten:
    """A file whose first write stores half its text, then fails."""

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


@pytest.mark.parametrize("writer, failure", CASES)
def test_every_writer_leaves_no_partial_file(tmp_path, monkeypatch, inputs, writer, failure):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = str(out_dir / "table")
    assert WRITERS[writer](inputs, out) in (None, 0)  # the writer works unpatched
    for written in out_dir.iterdir():
        written.unlink()
    if failure == "write":
        real_open = open
        monkeypatch.setattr(table, "open", lambda *a, **kw: HalfWritten(real_open(*a, **kw)), raising=False)
    else:

        def no_rename(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", no_rename)
    try:
        code = WRITERS[writer](inputs, out)
    except OSError:
        code = 2
    assert code == 2
    assert os.listdir(out_dir) == []


def _opens_for_writing(call: ast.Call) -> bool:
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    # a mode that is not a literal counts as writing
    return any(not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt")) for m in modes)


def test_only_table_imports_csv_or_opens_a_file_for_writing():
    found = []
    for path in sorted(Path(bmckde.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                modules = [node.module] if isinstance(node, ast.ImportFrom) and node.module else []
            if "csv" in (m.split(".")[0] for m in modules):
                found.append((path.name, node.lineno, "imports csv"))
            if isinstance(node, ast.Call) and _opens_for_writing(node):
                found.append((path.name, node.lineno, "opens for writing"))
    assert {name for name, *_ in found} == {"table.py"}, found
    assert {what for *_, what in found} == {"imports csv", "opens for writing"}

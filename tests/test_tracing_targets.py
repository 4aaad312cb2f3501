"""The benchmark's tracer still finds every function it times.

``perfbench/tracing.py`` names the package's functions in ``TARGETS`` and
wraps them by name during a traced pass; a deleted or renamed one would only
show when a ``--trace 1`` run fails.  This installs the tracer on the
package as it is and takes it off again.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    # what each package module binds, by identity
    return {name: {k: id(v) for k, v in vars(m).items()} for name, m in sys.modules.items() if name.startswith("bmckde")}


def test_tracer_installs_on_every_target_and_uninstalls():
    # install raises on a target the package no longer has
    tracing = _load_tracing()
    for modname, _ in tracing.TARGETS:
        importlib.import_module(modname)
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert len(tracer._swaps) >= len(tracing.TARGETS)
    finally:
        tracer.uninstall()
    assert _bindings() == before

"""The benchmark's tracer finds every hook it patches, and a structure sweep
run through the CLI passes through the patched names.

``perfbench/tracing.py`` replaces module attributes (``cli.verify_structure``,
``theorems.max_forest``, ``theorems.enumerate_max_forests`` and others) with
wrappers. Code that captured one of those functions at import time would
bypass its wrapper, and the benchmark's per-layer split and sweep node count
would silently read zero.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import bbforest.cli
import bbforest.core
import bbforest.generators
import bbforest.solver
import bbforest.theorems

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_see_a_structure_sweep(capsys):
    # the modules already imported here, not a fresh import: re-importing
    # the package would leave other tests holding stale modules
    bb = SimpleNamespace(cli=bbforest.cli, core=bbforest.core,
                         generators=bbforest.generators,
                         solver=bbforest.solver, theorems=bbforest.theorems)
    tracer = _load_tracing().Tracer()
    tracer.install(bb)
    try:
        assert tracer.missing == []
        assert bbforest.cli.run(["verify", "--theorem", "T2", "--n", "5",
                                 "--samples", "1", "--no-timing"]) == 0
    finally:
        tracer.uninstall()
    assert '"verdict": "pass"' in capsys.readouterr().out
    names = {span[0] for span in tracer.spans}
    assert {"theorems.verify_structure", "solver.max_forest",
            "solver.enumerate"} <= names
    # the solve and the enumeration ran inside the traced sweep
    sweep = next(i for i, s in enumerate(tracer.spans)
                 if s[0] == "theorems.verify_structure")
    assert all(s[3] == sweep for s in tracer.spans
               if s[0] in ("solver.max_forest", "solver.enumerate"))

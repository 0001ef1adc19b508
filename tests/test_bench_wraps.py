"""The benchmark reaches into ``birkdag`` by name.

The tracer patches program functions by (module, attribute) name, and
the workloads and the benchmark's self-test call program names through
module attributes.  A refactor that renames or removes one of them would
silently drop a traced layer or fail only inside a benchmark run, so
every such name must still resolve in ``birkdag``.  The tracer also reads
fields of what the wrapped functions take and return (a config's k_max,
an estimate's perm, the incumbent argument, iteration counts, sweeps,
diagnostics), so a small traced benchmark run must fill every count
derived from them.  The benchmark files are only read, never modified.
"""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
CALLERS = ("workloads.py", "selftest.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_attribute_resolves():
    wraps = load_tracing().WRAPS
    assert wraps
    missing = [
        f"birkdag.{mod_name}.{attr}"
        for mod_name, attr, *_ in wraps
        if not callable(getattr(importlib.import_module(f"birkdag.{mod_name}"), attr, None))
    ]
    assert not missing, missing


def birkdag_references(source: str) -> set:
    """Dotted birkdag names a module's source uses.

    Covers ``from birkdag[.mod] import name`` and one attribute deep on
    a name bound by such an import (``solver.check_lower_bounds``).
    """
    tree = ast.parse(source)
    bound = {}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "birkdag":
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = dotted
                refs.add(dotted)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "birkdag":
                    bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            refs.add(f"{bound[node.value.id]}.{node.attr}")
    return refs


def resolves(dotted: str) -> bool:
    """A birkdag module, or an attribute of one, exists under this name."""
    try:
        importlib.import_module(dotted)
        return True
    except ModuleNotFoundError:
        module, _, attr = dotted.rpartition(".")
        return hasattr(importlib.import_module(module), attr)


def test_every_benchmark_reference_resolves():
    refs = {
        name: birkdag_references((ROOT / "bench" / name).read_text()) for name in CALLERS
    }
    assert "birkdag.solver.check_lower_bounds" in refs["workloads.py"]
    assert "birkdag.pipeline.score_params" in refs["workloads.py"]
    missing = sorted(f"{name}: {ref}" for name, found in refs.items()
                     for ref in found if not resolves(ref))
    assert not missing, missing


def test_reference_walk_sees_a_missing_name():
    source = "from birkdag import solver\nsolver.no_such_name(1)\n"
    refs = birkdag_references(source)
    assert refs == {"birkdag.solver", "birkdag.solver.no_such_name"}
    assert resolves("birkdag.solver") and not resolves("birkdag.solver.no_such_name")


def test_traced_benchmark_fills_the_counts_read_from_fields(tmp_path):
    from birkdag import cli

    tracing = load_tracing()
    spec = {"settings": [[8, 8]], "n": 100, "reps": 1, "seed": 3, "outer_k_max": 3,
            "grid": {"lambdas": [0.3, 0.5], "gammas": [2.0]}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        rc = cli.main(["--threads", "1", "benchmark", "--spec", str(spec_path),
                       "--out", str(tmp_path / "out.csv")])
    # an attrs function that reads a missing field raises inside the
    # replicate, which turns into an error row and exit code 4
    assert rc == 0
    metrics = tracing.pass_metrics(tracer.spans)
    counts = ("birkhoff.gp.iters", "birkhoff.project.iters", "birkhoff.order.steps",
              "birkhoff.round.candidates", "solver.lstep.sweeps", "pipeline.fit.outer_iters",
              "pipeline.tune.cells")
    assert {k: metrics[k] for k in counts if not metrics[k] > 0} == {}

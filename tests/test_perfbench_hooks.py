"""perfbench times ``lvseg`` by rebinding its functions by name: every
workload's hooks and the tracer's spans. Installing them all here makes a
rename of a hooked function fail the tests, not only the benchmark."""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _lvseg_bindings() -> dict:
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if mod is not None and (name == "lvseg" or name.startswith("lvseg."))
            for attr, value in list(vars(mod).items())}


def test_every_perfbench_hook_and_span_installs_and_restores(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import worker
    from lvseg.models import Model

    before, init = _lvseg_bindings(), Model.__init__
    patches = tracer.Patches()
    try:
        for workload in worker.WORKLOADS.values():
            workload({"spec": {}}, tmp_path).install_hooks(patches)
        tracer.Tracer().install(patches)
        patched = len(patches._undo)
    finally:
        patches.restore()
    assert patched > 0
    after = _lvseg_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert Model.__init__ is init


def test_every_lvseg_name_perfbench_imports_resolves():
    # an import inside a function (checks.py's build_mfp_unet) runs only
    # when the benchmark does; a deleted name would fail nothing else here
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lvseg":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(path.name, alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "lvseg"]
    assert ("checks.py", "lvseg.models", "build_mfp_unet") in imported
    missing = [(file, module, name) for file, module, name in imported
               if not _resolves(module, name)]
    assert missing == []


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(mod, name)

"""perfbench times ``lvseg`` by rebinding its functions by name: every
workload's hooks and the tracer's spans. Installing them all here makes a
rename of a hooked function fail the tests, not only the benchmark."""

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

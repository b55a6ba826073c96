"""The training helper process (``lvseg.helper``): ``train`` writes the
same bytes with it as without it, fails the same way, and leaves no
process, shared file or stale message behind. The helper is switched off
by reporting one usable CPU."""

import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lvseg.training as training
from lvseg.cli import main
from lvseg.config import RunConfig
from lvseg.errors import TrainingDiverged
from lvseg.models import Model
from lvseg.phantom import generate_phantom_set

pytestmark = pytest.mark.skipif(training.usable_cpus() < 2,
                                reason="the helper runs only with two usable CPUs")


def _one_cpu(monkeypatch):
    monkeypatch.setattr(training, "usable_cpus", lambda: 1)


def _digests(out_dir: Path) -> dict[str, str]:
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _cfg(tmp_path, name, **overrides) -> RunConfig:
    base = dict(arch="mfp-unet", n=32, base_width=4, batch_size=3, augment_factor=2, folds=2,
                epochs=2, learning_rate=0.01, seed=5, data_dir="synthetic:6",
                out_dir=str(tmp_path / name))
    base.update(overrides)
    return RunConfig(**base)


def _child_env() -> dict:
    """This environment with the imported lvseg's source directory first on PYTHONPATH."""
    import lvseg
    src_dir = str(Path(lvseg.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _shared_files() -> set[str]:
    """Entries of /dev/shm that lvseg or Python's multiprocessing could make."""
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {p.name for p in shm.iterdir()
            if "lvseg" in p.name or p.name.startswith(("psm_", "sem."))}


# -- the same outputs -------------------------------------------------------------

@pytest.mark.parametrize("arch", ["unet", "dilated-unet", "mfp-unet"])
def test_train_outputs_are_byte_identical_with_and_without_the_helper(tmp_path, monkeypatch,
                                                                       arch):
    # batch 3 of 12 augmented samples: every epoch ends in a short batch,
    # and the helper runs one of each batch's three positions
    two = training.train(_cfg(tmp_path, "two", arch=arch))
    _one_cpu(monkeypatch)
    one = training.train(_cfg(tmp_path, "one", arch=arch))
    assert [r.processes for r in two] == [2, 2] and [r.processes for r in one] == [1, 1]
    digests = _digests(tmp_path / "two")
    assert sorted(digests) == ["fold0/checkpoint.bin", "fold0/log.csv", "fold1/checkpoint.bin",
                               "fold1/log.csv", "folds.json"]
    assert digests == _digests(tmp_path / "one")


def test_diverged_message_is_the_same_with_and_without_the_helper(tmp_path, monkeypatch):
    cfg = RunConfig(arch="unet", n=32, base_width=2, folds=2, epochs=1, batch_size=4,
                    augment_factor=2, data_dir="synthetic:2", learning_rate=1e30,
                    out_dir=str(tmp_path / "run"))
    messages = []
    for cpus in (2, 1):
        monkeypatch.setattr(training, "usable_cpus", lambda: cpus)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as exc:
            training.train(cfg)
        messages.append(str(exc.value))
    assert messages == ["non-finite validation logits on sample 'subj000_ED' "
                        "(fold 0, epoch 0, lr 1e+30)"] * 2


@pytest.mark.parametrize("bad", [(1, 2), (2, 3), (0, 1), (3,)])
def test_non_finite_validation_names_the_first_sample_in_order(monkeypatch, bad):
    # the helper scores the odd positions: (1, 2) is the helper's sample
    # first, (2, 3) this process's, (3,) the helper's alone
    samples = generate_phantom_set(4, 32, 6)
    val = samples[4:]
    for k in bad:
        image = val[k].image.astype(np.float64)
        image[10, 10] = np.nan
        val[k] = dataclasses.replace(val[k], image=image)
    cfg = RunConfig(arch="unet", n=32, base_width=2, batch_size=2, epochs=1, learning_rate=0.01,
                    seed=3)
    messages = []
    for cpus in (2, 1):
        monkeypatch.setattr(training, "usable_cpus", lambda: cpus)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as exc:
            training.train_fold(cfg, samples[:4], val, 0)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(
        f"non-finite validation logits on sample {val[bad[0]].sample_id!r} (fold 0, epoch 0")


@pytest.mark.parametrize("failing_call", [1, 2])
def test_a_failed_fold_leaves_no_stale_message_for_the_next(tmp_path, monkeypatch,
                                                            failing_call):
    # call 1 fails while the helper runs position 1 and will send its loss;
    # call 2 fails after this process has taken it
    compose, calls = training.compose_input, []

    def failing(sample, *args, **kwargs):
        calls.append(1)
        if len(calls) == failing_call:
            raise RuntimeError("inside a fold")
        return compose(sample, *args, **kwargs)
    monkeypatch.setattr(training, "compose_input", failing)
    with pytest.raises(RuntimeError, match="inside a fold"):
        training.train(_cfg(tmp_path, "failed"))
    monkeypatch.setattr(training, "compose_input", compose)
    after = training.train(_cfg(tmp_path, "after"))
    assert [r.processes for r in after] == [2, 2]
    _one_cpu(monkeypatch)
    training.train(_cfg(tmp_path, "one"))
    assert _digests(tmp_path / "after") == _digests(tmp_path / "one")


def test_a_fold_keeps_its_weights_after_the_next_fold_rewrites_the_shared_file():
    # with no epoch no best copy is taken, so the returned weights are the
    # ones end_fold moved out of the shared file before the next fold's start
    samples = generate_phantom_set(4, 32, 6)
    cfg = RunConfig(arch="unet", n=32, base_width=2, batch_size=2, epochs=0, seed=3)
    first = training.train_fold(cfg, samples[:4], samples[4:], 0)
    second = training.train_fold(cfg, samples[:4], samples[4:], 1)
    assert first.processes == second.processes == 2
    initial = Model("unet", 32, 2, dtype=np.float32, seed=training._derived_seed(3, 0, 0))
    params = first.model.parameters()
    for name, t in initial.parameters().items():
        assert np.array_equal(params[name].data, t.data), name
    assert not np.array_equal(params["enc1.conv1.weight"].data,
                              second.model.parameters()["enc1.conv1.weight"].data)


def test_the_helper_scores_the_validation_samples_it_is_given():
    import lvseg.helper as helper
    val = generate_phantom_set(2, 32, 4)
    model = Model("unet", 32, 2, dtype=np.float32, seed=0)
    helpers = helper.acquire()
    try:
        helpers.start_fold(model, [], val)
        helpers.start_validation([3, 0])
        scores = helpers.scores()
        helpers.end_fold()
    except BaseException:
        helper.reset()
        raise
    assert scores == training._val_scores(model, [val[3], val[0]])


_TRAIN = """
import sys
import lvseg.training as training
from lvseg.config import RunConfig
cfg = RunConfig(arch="mfp-unet", n=32, base_width=4, batch_size=3, augment_factor=2, folds=2,
                epochs=2, learning_rate=0.01, seed=5, data_dir="synthetic:6", out_dir=sys.argv[1])
print(sum(r.processes for r in training.train(cfg)))
"""


def test_outputs_hold_with_more_training_processes_than_cores(tmp_path, monkeypatch):
    # three trains at once, each with its helper: six processes on two CPUs,
    # so the helper's gradients and the parents' steps interleave at random
    env = _child_env()
    children = [subprocess.Popen([sys.executable, "-c", _TRAIN, str(tmp_path / f"run{k}")],
                                 stdout=subprocess.PIPE, text=True, env=env) for k in range(3)]
    outs = [child.communicate(timeout=300)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0, 0]
    assert [out.split() for out in outs] == [["4"]] * 3  # two folds in two processes each
    _one_cpu(monkeypatch)
    training.train(_cfg(tmp_path, "one"))
    for k in range(3):
        assert _digests(tmp_path / f"run{k}") == _digests(tmp_path / "one")


_RENAMED = """
from lvseg_copy import training
from lvseg_copy.config import RunConfig
from lvseg_copy.phantom import generate_phantom_set
samples = generate_phantom_set(3, 32, 1)
cfg = RunConfig(arch="unet", n=32, base_width=2, batch_size=2, epochs=1, seed=3)
print(training.train_fold(cfg, samples[:4], samples[4:], 0).processes)
"""


def test_a_copy_of_the_package_under_another_name_starts_its_own_helper(tmp_path):
    # the copy is importable as lvseg_copy only: a package named lvseg ahead
    # of any installed one fails on import, so a helper that imported lvseg
    # would end the fold instead of running the copy's code
    import lvseg
    packages = tmp_path / "packages"
    shutil.copytree(Path(lvseg.__file__).parent, packages / "lvseg_copy",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (packages / "lvseg").mkdir()
    (packages / "lvseg" / "__init__.py").write_text(
        "raise ImportError('this lvseg is not the copy')\n")
    out = subprocess.run([sys.executable, "-c", _RENAMED], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(packages)}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["2"]


# -- processes and files ----------------------------------------------------------

_LIFECYCLE = """
import json, os, sys
import numpy as np
import lvseg.helper as helper
import lvseg.training as training
from lvseg.config import RunConfig
from lvseg.errors import TrainingDiverged
from lvseg.models import Model

def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True

def cfg(name, **kw):
    return RunConfig(**{**dict(arch="unet", n=32, base_width=2, batch_size=2, epochs=1,
                               folds=2, data_dir="synthetic:2",
                               out_dir=os.path.join(sys.argv[1], name)), **kw})

report = {}
training.train(cfg("first"))
pid = helper._current.proc.pid
training.train(cfg("second"))
report["reused"] = helper._current.proc.pid == pid
with np.errstate(all="ignore"):
    try:
        training.train(cfg("diverged", learning_rate=1e30))
    except TrainingDiverged:
        pass
report["after_diverged"] = [alive(pid), helper._current is None]
training.train(cfg("third"))
pid = helper._current.proc.pid
compose, calls = training.compose_input, []
def failing(sample, *args, **kwargs):
    calls.append(1)
    if len(calls) == 3:
        raise RuntimeError("inside a fold")
    return compose(sample, *args, **kwargs)
training.compose_input = failing
try:
    training.train(cfg("failed"))
except RuntimeError:
    pass
training.compose_input = compose
report["after_failure"] = [alive(pid), helper._current is None]
training.train(cfg("last"))
report["last_pid"] = helper._current.proc.pid
report["multiprocessing"] = "multiprocessing" in sys.modules
print(json.dumps(report))
"""


def test_no_helper_or_shared_file_outlives_train_or_a_failed_fold(tmp_path):
    before = _shared_files()
    out = subprocess.run([sys.executable, "-c", _LIFECYCLE, str(tmp_path)], capture_output=True,
                         text=True, env=_child_env(), timeout=300)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["reused"]
    assert report["after_diverged"] == [False, True]  # killed, and forgotten
    assert report["after_failure"] == [False, True]
    assert not _alive(report["last_pid"])  # waited for before the interpreter exited
    assert not report["multiprocessing"]  # so no forkserver or resource tracker either
    assert _shared_files() == before


_KILLED = """
import os, signal, sys, time
import lvseg.helper as helper
import lvseg.training as training
from lvseg.cli import main
compose, calls, killed = training.compose_input, [], []
def killing(sample, *args, **kwargs):
    calls.append(1)
    if len(calls) == 3:
        os.kill(helper._current.proc.pid, signal.SIGKILL)
        killed.append(time.perf_counter())
    return compose(sample, *args, **kwargs)
training.compose_input = killing
code = main(["train", "--config", sys.argv[1]])
print(code, time.perf_counter() - killed[0])
"""


def test_a_killed_helper_is_a_named_error_not_a_hang(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arch": "unet", "n": 32, "base_width": 2, "batch_size": 4,
                               "epochs": 2, "augment_factor": 2, "folds": 2,
                               "data_dir": "synthetic:2", "out_dir": str(tmp_path / "run")}))
    out = subprocess.run([sys.executable, "-c", _KILLED, str(cfg)], capture_output=True,
                         text=True, env=_child_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    code, seconds = out.stdout.split()
    assert int(code) == 3
    assert float(seconds) < 5
    assert re.search(r"error: training helper \(pid \d+\) ended mid-fold \(exit status -9\)",
                     out.stderr), out.stderr


# -- what train reports -----------------------------------------------------------

def test_train_says_how_many_processes_trained(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arch": "unet", "n": 32, "base_width": 2, "batch_size": 2,
                               "epochs": 1, "folds": 2, "data_dir": "synthetic:2",
                               "out_dir": str(tmp_path / "run")}))
    assert main(["train", "--config", str(cfg)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert re.search(r"trained (\d+) sample-steps in .* ms/step, peak RSS (\d+) MB\)", line)
    found = re.search(r"MB\) in 2 processes, the helper's peak RSS (\d+) MB$", line)
    assert found and int(found.group(1)) > 0, line
    _one_cpu(monkeypatch)
    assert main(["train", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(" MB) in 1 process")


def test_two_process_folds_run_one_blas_thread_and_restore_the_count():
    import lvseg.helper as helper
    pools = helper._blas_pools()
    if not pools:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in pools]
    with helper.one_blas_thread():
        assert [get() for get, _ in pools] == [1] * len(pools)
    assert [get() for get, _ in pools] == before


def test_eval_and_measure_never_import_the_helper(tmp_path):
    checkpoint = str(tmp_path / "checkpoint.bin")
    code = ("import sys; from lvseg.cli import main; "
            "from lvseg.checkpoint import checkpoint_write; from lvseg.models import Model; "
            f"main(['measure', '--data', 'synthetic:1', '--out', {str(tmp_path)!r}]); "
            f"checkpoint_write(Model('unet', 32, 2, seed=0), {checkpoint!r}); "
            f"assert main(['eval', '--checkpoint', {checkpoint!r}, '--data', 'synthetic:1', "
            f"'--out', {str(tmp_path / 'eval')!r}]) == 0; "
            "print('lvseg.helper' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_child_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-1] == "False"

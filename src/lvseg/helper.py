"""The training helper: a second process that runs every other sample of
each training batch, and every other validation sample, of a fold.

``training.train_fold`` uses it when a batch holds at least two samples
and two CPUs are usable; ``acquire`` gives the process's one helper and
``reset`` stops it. Nothing here is imported by ``eval`` or ``measure``.

- The helper is a fresh interpreter started with ``subprocess`` on first
  use: nothing of the caller's heap is forked, and the caller's
  ``__main__`` is not imported (it runs ``python -c``). It ignores SIGINT,
  applies ``cli._keep_freed_memory`` to itself, and serves every later
  fold and ``train`` call of the process. ``atexit`` closes its socket
  and waits for it to exit; a helper whose parent dies reads end-of-file
  and exits too.
- Control messages are pickles over a Unix socket pair: each end writes
  with ``pickle.dump`` to a buffered file on its socket and flushes, and
  reads with ``pickle.load``, since a pickle ends itself and needs no
  length before it. A fold that fails in any way kills the helper
  (``reset``), so no message of that fold is ever read by the next; the
  next fold starts a new one.
- Data moves through one anonymous shared file (``os.memfd_create``:
  no name in any file system, freed with the last process that maps it).
  It holds the fold's weights, which the parent's ``opt.step()`` updates
  in place, and one gradient slot of the same size. Each parameter's slot
  is laid out in the memory order of the gradient the backward pass makes
  (conv weight gradients are transposed views), so the helper's copy in
  and the parent's add out both run through memory in order. On 2 Xeon
  CPUs perfbench's train-mfp64 (n=64, width-8 MFP-Unet, batch 8) ran 228
  ops/s with these slots and 192 with row-major ones (medians of 10
  paired runs).
- The helper keeps its own gradients: after each of its samples it waits
  until the parent has released the slot, copies the gradients in, and
  sends the sample's float32 loss. The parent adds them at that sample's
  position, between its own samples, so every sum runs in the order of
  one process.

A helper that dies, or fails, makes the parent's next read raise
``TrainingHelperError`` at once.
"""

from __future__ import annotations

import atexit
import ctypes
import mmap
import os
import pickle
import resource
import signal
import socket
import subprocess
import sys
import traceback
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

from .cli import _keep_freed_memory
from .errors import TrainingHelperError
from .layers import fixed_weights
from .models import Model
from .preprocess import compose_input
from .training import _sample_step, _val_scores

_ALIGN = 64  # bytes; every parameter and slot starts on a cache line
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the helper's command line: put the directory of this copy of the package
# first on the path, import this module by its own name, then serve on the
# socket and shared file whose descriptors follow
_BOOT = (f"import sys; sys.path.insert(0, sys.argv[1]); from {__name__} import serve; "
         "serve(int(sys.argv[2]), int(sys.argv[3]))")


def _send(conn, msg) -> None:
    pickle.dump(msg, conn, protocol=pickle.HIGHEST_PROTOCOL)
    conn.flush()


def _layout(shapes: list[tuple[int, ...]], itemsize: int) -> tuple[list[tuple[int, int]], int]:
    """(weight offset, slot offset) of each parameter and the file size:
    every weight, then every slot, each on a cache line."""
    def aligned(n):
        return -(-n // _ALIGN) * _ALIGN
    sizes = [aligned(int(np.prod(s, dtype=np.int64)) * itemsize) for s in shapes]
    weights = np.cumsum([0] + sizes[:-1]).tolist()
    total = sum(sizes)
    return [(w, total + w) for w in weights], 2 * total


def _view(buf, shape, dtype, offset: int, order=None) -> np.ndarray:
    """An array on ``buf`` at ``offset``, its axes laid out in memory in
    ``order`` (outermost first; None for row-major)."""
    if order is None:
        return np.ndarray(shape, dtype, buffer=buf, offset=offset)
    base = np.ndarray([shape[a] for a in order], dtype, buffer=buf, offset=offset)
    return base.transpose(np.argsort(order))


def _memory_order(a: np.ndarray) -> tuple[int, ...]:
    """a's axes from the largest stride to the smallest."""
    return tuple(int(i) for i in np.argsort([-s for s in a.strides], kind="stable"))


@lru_cache(maxsize=None)
def _blas_pools() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS this process has
    loaded (numpy's and scipy's wheels each bring one)."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            fields = line.split(maxsplit=5)
            if len(fields) == 6 and "openblas" in os.path.basename(fields[5].strip()):
                paths.add(fields[5].strip())
    names = [(f"{lib}_get_num_threads{suffix}", f"{lib}_set_num_threads{suffix}")
             for lib in ("scipy_openblas", "openblas") for suffix in ("64_", "")]
    pools = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for get_name, set_name in names:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                pools.append((get, set_))
                break
    return pools


@contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, as the helper
    runs (its environment asks for one). On 2 CPUs with no thread setting,
    n=64 MFP-Unet folds (width 8, batch 8) took 8.70 ms a sample-step with
    the parent's two BLAS threads beside the helper's one, 4.90 ms with
    this scope, and 8.02 ms in one process. The thread count changes no
    bit of a result: ``train`` wrote the same checkpoints with one BLAS
    thread and with two."""
    pools = _blas_pools()
    previous = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(pools, previous):
            set_(n)


class Helper:
    """The parent's end of a helper process and of their shared file."""

    def __init__(self):
        self.owner = os.getpid()
        self._fd = os.memfd_create("lvseg-helper")
        self._map, self._size = None, 0
        ours, theirs = socket.socketpair()
        src = str(Path(__file__).resolve().parents[1])
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _BOOT, src, str(theirs.fileno()), str(self._fd)],
                pass_fds=(theirs.fileno(), self._fd), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, env={**os.environ, **_ONE_THREAD})
        except BaseException:
            ours.close()
            os.close(self._fd)
            raise
        finally:
            theirs.close()
        self._sock, self._conn = ours, ours.makefile("rwb")
        self._params, self._weights, self._slots = [], [], None

    # -- messages -----------------------------------------------------------

    def _send(self, msg) -> None:
        try:
            _send(self._conn, msg)
        except OSError:
            self._lost()

    def _recv(self, expect: str):
        try:
            msg = pickle.load(self._conn)
        except (EOFError, pickle.UnpicklingError, OSError):  # the helper died, mid-message or not
            self._lost()
        if msg[0] == "error":
            raise TrainingHelperError(f"training helper (pid {self.proc.pid}) failed:\n{msg[1]}")
        if msg[0] != expect:
            raise TrainingHelperError(f"training helper sent {msg[0]!r} where {expect!r} was due")
        return msg[1:]

    def _lost(self):
        try:
            code = self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            code = None
        raise TrainingHelperError(f"training helper (pid {self.proc.pid}) ended mid-fold "
                                  f"(exit status {code})") from None

    # -- a fold -------------------------------------------------------------

    def start_fold(self, model, samples: list, val_samples: list) -> None:
        """Move the model's weights into the shared file and hand the helper
        the fold: the model spec, the augmented training samples and the
        validation samples."""
        params = list(model.parameters().values())
        self._dtype = np.dtype(model.dtype)
        offsets, size = _layout([t.shape for t in params], self._dtype.itemsize)
        if size != self._size:
            os.ftruncate(self._fd, size)
            self._map, self._size = mmap.mmap(self._fd, size), size
        self._params, self._weights = params, []
        for t, (w_off, _) in zip(params, offsets):
            view = _view(self._map, t.shape, self._dtype, w_off)
            view[...] = t.data
            t.data = view
            self._weights.append(view)
        self._offsets, self._slots = offsets, None
        self._send(("fold", (model.arch, model.n, model.base_width, model.dilation),
                    self._dtype.str, offsets, size, samples, val_samples, np.geterr()))

    def start_batch(self, indices, size: int) -> None:
        """Have the helper run these samples of a batch of ``size``."""
        self._send(("batch", [int(i) for i in indices], size))

    def loss(self) -> np.ndarray:
        """The float32 loss of the helper's next sample; its gradient is in
        the slot when the loss is finite."""
        loss, orders = self._recv("loss")
        if orders is not None:
            self._slots = [_view(self._map, t.shape, self._dtype, s_off, order)
                           for t, (_, s_off), order in zip(self._params, self._offsets, orders)]
        return loss

    def add_gradient(self) -> None:
        """Add the slot's gradient into the parameters' and release the slot."""
        for t, g in zip(self._params, self._slots):
            t.accumulate_grad(g)
        self._send(("free",))

    def start_validation(self) -> None:
        self._send(("validate",))

    def scores(self) -> list:
        """The helper's Dice scores of the odd validation positions, in
        order, ending at the first None (non-finite logits)."""
        return self._recv("scores")[0]

    def end_fold(self) -> float:
        """Move any weight still in the shared file into the process, and
        return the helper's peak RSS in MB."""
        for t, view in zip(self._params, self._weights):
            if t.data is view:
                t.data = view.copy()
        self._params, self._weights, self._slots = [], [], None
        self._send(("end",))
        return self._recv("end")[0]

    # -- the process --------------------------------------------------------

    def close(self, kill: bool) -> None:
        """Stop the helper and wait for it: at once with ``kill``, else by
        closing its socket (it exits at end-of-file)."""
        if kill:
            self.proc.kill()
        # the file first: a socket stays open while a file made from it is
        try:
            self._conn.close()
        except OSError:
            pass  # a message that never left for a helper that has gone
        self._sock.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        os.close(self._fd)


_current: Helper | None = None


def acquire() -> Helper:
    """This process's helper, started on first use, and again if it has
    exited since."""
    global _current
    if _current is not None and _current.proc.poll() is not None:
        reset()
    if _current is None or _current.owner != os.getpid():  # not one a fork inherited
        _current = Helper()
    return _current


def _stop(kill: bool) -> None:
    global _current
    if _current is not None and _current.owner == os.getpid():
        _current.close(kill)
    _current = None


def reset() -> None:
    """Kill and forget the helper, with whatever it was doing."""
    _stop(kill=True)


atexit.register(_stop, kill=False)


# -- the helper process ------------------------------------------------------

class _Fold:
    """The helper's state for one fold."""

    def __init__(self, mapping, spec, dtype, offsets, samples, val_samples):
        model = Model(*spec, dtype=np.dtype(dtype).type, seed=None)
        self.model, self.samples, self.val_samples = model, samples, val_samples
        self.params = list(model.parameters().values())
        for t, (w_off, _) in zip(self.params, offsets):
            t.data = _view(mapping, t.shape, t.data.dtype, w_off)
        self.mapping, self.offsets, self.slots = mapping, offsets, None
        self.slot_busy = False


def serve(sock_fd: int, map_fd: int) -> None:
    """The helper's loop: answer the parent's messages until end-of-file."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _keep_freed_memory()
    conn = socket.socket(fileno=sock_fd).makefile("rwb")
    mapping, size, fold = None, 0, None
    while True:
        try:
            msg = pickle.load(conn)
        except (EOFError, pickle.UnpicklingError):
            return
        try:
            if msg[0] == "fold":
                spec, dtype, offsets, new_size, samples, val_samples, err = msg[1:]
                if new_size != size:
                    mapping, size = mmap.mmap(map_fd, new_size), new_size
                np.seterr(**err)
                fold = _Fold(mapping, spec, dtype, offsets, samples, val_samples)
            elif msg[0] == "batch":
                _run_batch(conn, fold, *msg[1:])
            elif msg[0] == "free":
                fold.slot_busy = False
            elif msg[0] == "validate":
                _send(conn, ("scores", _val_scores(fold.model, fold.val_samples[1::2])))
            elif msg[0] == "end":
                fold = None
                _send(conn, ("end", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
            else:
                raise ValueError(f"unknown message {msg[0]!r}")
        except Exception:
            try:
                _send(conn, ("error", traceback.format_exc()))
            except OSError:
                pass  # the parent has gone
            return


def _run_batch(conn, fold: _Fold, indices: list[int], size: int) -> None:
    """Run these samples of a batch of ``size`` through the shared
    per-sample step, sending each one's loss once its gradient is in the
    slot; stop after a non-finite loss, whose gradient is not made."""
    scale = 1.0 / size
    with fixed_weights():
        for i in indices:
            s = fold.samples[i]
            loss = _sample_step(fold.model, compose_input(s), s.mask, scale, None)
            if not np.isfinite(loss):
                _send(conn, ("loss", loss, None))
                return
            while fold.slot_busy:
                msg = pickle.load(conn)
                if msg[0] != "free":
                    raise ValueError(f"{msg[0]!r} while the gradient slot is in use")
                fold.slot_busy = False
            orders = None
            if fold.slots is None:
                orders = [_memory_order(t.grad) for t in fold.params]
                fold.slots = [_view(fold.mapping, t.shape, t.grad.dtype, s_off, order)
                              for t, (_, s_off), order in zip(fold.params, fold.offsets, orders)]
            for t, slot in zip(fold.params, fold.slots):
                np.copyto(slot, t.grad)
                t.grad = None
            fold.slot_busy = True
            _send(conn, ("loss", loss, orders))

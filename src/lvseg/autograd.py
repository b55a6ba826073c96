"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a flat row-major numpy array (channels-first for image
data) plus an optional gradient slot. Every differentiable operation
computes its data, defines ``backward(g)`` from its output's gradient g
to its inputs' and returns ``_result(data, parents, backward, op)``, which
records the inputs and the closure when the result needs a gradient,
forming the tape. No closure captures its own output, so the tape is
acyclic. ``backward`` replays the tape once in reverse topological order,
calls each closure on its node's gradient and sums gradient contributions
into every reachable tensor that asked for them.
It consumes the tape as it goes: each interior node drops its closure,
parents and gradient as soon as its closure has run, so the graph is
freed node by node while backward runs, and only leaves keep gradients.
Inside ``with no_grad():`` nothing is recorded: results keep neither
parents nor a closure, so inference frees each intermediate as soon as
its last consumer has run.

Two numeric profiles are supported: float64 for oracles and gradient
checks (finite differences are unreliable in float32) and float32 for
training. The profile is simply the dtype of the underlying array and is
fixed at construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

from .errors import ContractViolation

_ALLOWED_DTYPES = (np.float32, np.float64)

_recording = True


@contextmanager
def no_grad():
    """Record no tape inside the block; the previous state comes back on
    exit, also after an exception, so blocks nest."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """N-dimensional array node of the autodiff tape.

    ``grad`` is lazily allocated: it stays ``None`` until backward
    actually deposits a contribution, so constant/input tensors carry no
    gradient storage.
    """

    __slots__ = ("data", "grad", "requires_grad", "parents", "backward_fn", "op")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        op: str = "leaf",
    ):
        arr = np.asarray(data)
        if arr.dtype not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.parents = parents
        self.backward_fn = backward_fn
        self.op = op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate_grad(self, g: np.ndarray, owned: bool = False) -> None:
        """Add a contribution; a tensor consumed by k nodes receives the sum of k of these.

        The first contribution is copied, unless ``owned`` says the caller
        made g and hands it nowhere else: then g itself becomes the grad
        when its dtype is the tensor's, and later contributions add into it."""
        if self.grad is None:
            if owned and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    # -- elementwise arithmetic (enough to express test losses) --------

    def __add__(self, other) -> "Tensor":
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return mul(self, -1.0)

    def __sub__(self, other) -> "Tensor":
        return add(self, -_as_tensor(other, self.dtype))

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _result(data, parents: Iterable[Tensor], backward_fn: Callable[[np.ndarray], None],
            op: str) -> Tensor:
    # A result that needs no gradient keeps no parents and no closure, so
    # inference under ``no_grad`` records nothing and frees each
    # intermediate as soon as its last consumer has run. 48 MFP-Unet
    # ``forward_segment`` calls at n=128 (2-core Xeon, one BLAS thread):
    # taped and with the earlier relu, pool and 1x1 conv kernels, a median
    # 36-40 ms, 117k-120k minor page faults and 659 MB peak RSS; tape-free
    # with the current kernels, 18-20 ms, 390 faults and 75 MB. Dropping
    # only the closure is not enough: ``parents`` keeps the graph alive
    # until the logits die, then frees it all at once (31-34 ms, 133k-182k
    # faults, 84 MB).
    # A closure takes its output's gradient as an argument instead of
    # capturing the output, so reference counting frees a taped graph, also
    # one dropped without a backward. ``backward`` consumes the tape node by
    # node, and ``train_fold`` backpropagates each sample as soon as its
    # forward ends. 24 MFP-Unet steps at n=64, width 8, batch 8 (same
    # machine and settings): one summed-batch backward took 202-266 ms a
    # step, 336k minor page faults (``ru_minflt``) and 1,355 MB peak RSS;
    # per-sample backward consuming the tape, 178-245 ms, 305k faults and
    # 85 MB, with the same final weights.
    parents = tuple(parents)
    if not (_recording and any(p.requires_grad for p in parents)):
        return Tensor(data, op=op)
    return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn, op=op)


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    if b.shape not in ((), a.shape):
        raise ContractViolation(f"add shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g if b.shape == a.shape else g.sum())

    return _result(a.data + b.data, (a, b), backward, "add")


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    if b.shape not in ((), a.shape):
        raise ContractViolation(f"mul shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data, owned=True)
        if b.requires_grad:
            gb = g * a.data
            b.accumulate_grad(gb if b.shape == a.shape else gb.sum(), owned=b.shape == a.shape)

    return _result(a.data * b.data, (a, b), backward, "mul")


def tensor_sum(a: Tensor) -> Tensor:
    def backward(g):
        a.accumulate_grad(np.broadcast_to(g, a.shape))

    return _result(a.data.sum(), (a,), backward, "sum")


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order DFS; each node appears exactly once. A node
    that a previous backward consumed (it needs a gradient but has lost
    its closure) is a contract violation."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.requires_grad and node.backward_fn is None and node.op != "leaf":
            raise ContractViolation(
                f"backward through a {node.op!r} node that an earlier backward consumed")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Add d loss / d leaf into the grad slot of every leaf reachable from a
    scalar loss. Each interior node's closure is called on the node's
    gradient, once every consumer has contributed to it, and the tape is
    consumed: the node drops its closure, parents and gradient when its
    turn comes, which frees its saved buffers. Backward again through a
    consumed node raises ``ContractViolation``.

    The gradient a closure receives belongs to its node alone, and nothing
    reads it after the closure returns: ``accumulate_grad`` copies every
    first contribution that its caller does not own, and the node's slot
    is cleared right after the call. So a closure may overwrite its g in
    place (``conv2d``'s fused ReLU masks it there); one called directly
    must be handed an array its caller no longer needs."""
    if loss.data.shape != () and loss.data.size != 1:
        raise ContractViolation(f"backward expects a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()  # popping drops the list's reference as we go
        if node.backward_fn is None:
            continue
        if node.grad is not None:
            node.backward_fn(node.grad)
        node.backward_fn = None
        node.parents = ()
        node.grad = None


def grad_check(f: Callable[[], Tensor], theta: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between the taped gradient of ``f`` and central differences.

    ``f`` must evaluate a fresh forward pass reading the current contents
    of ``theta``; the error per coordinate is ``|g_ad - g_fd| /
    max(1, |g_ad|, |g_fd|)``. Use the float64 profile.
    """
    if eps <= 0:
        raise ContractViolation(f"grad_check requires eps > 0, got {eps}")
    if not theta.requires_grad:
        raise ContractViolation("grad_check target must have requires_grad=True")

    theta.zero_grad()
    loss = f()
    backward(loss)
    if theta.grad is None:
        raise ContractViolation("theta unreachable from the loss")
    g_ad = theta.grad.copy()

    flat = theta.data.reshape(-1)
    g_fd = np.empty_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = f().item()
        flat[i] = keep - eps
        down = f().item()
        flat[i] = keep
        g_fd[i] = (up - down) / (2.0 * eps)
    g_fd = g_fd.reshape(theta.shape)

    denom = np.maximum(1.0, np.maximum(np.abs(g_ad), np.abs(g_fd)))
    return float(np.max(np.abs(g_ad - g_fd) / denom))

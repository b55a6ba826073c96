import numpy as np
import pytest

from lvseg.autograd import Tensor, backward, grad_check, no_grad
from lvseg.errors import ContractViolation


def test_backward_sum_gives_ones():
    w = Tensor(np.array([1.5, -2.0, 7.0]), requires_grad=True)
    backward(w.sum())
    assert np.array_equal(w.grad, np.ones(3))


def test_backward_square_hand_derivative():
    w = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    backward((w * w).sum())
    assert np.allclose(w.grad, [4.0, -6.0])


def test_backward_fanout_accumulates():
    w = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    backward(w.sum() + w.sum())
    assert np.array_equal(w.grad, np.full(3, 2.0))


def test_fanout_equals_sum_of_single_consumer_gradients():
    rng = np.random.default_rng(0)
    for _ in range(10):
        data = rng.normal(size=4)
        k = int(rng.integers(2, 6))
        w = Tensor(data.copy(), requires_grad=True)
        loss = (w * w).sum()
        for _ in range(k - 1):
            loss = loss + (w * w).sum()
        backward(loss)
        single = Tensor(data.copy(), requires_grad=True)
        backward((single * single).sum())
        assert np.allclose(w.grad, k * single.grad)


def test_backward_rejects_non_scalar():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(ContractViolation):
        backward(w * 2.0)


def test_grad_check_linear_is_nearly_exact():
    theta = Tensor(np.array([0.3, -1.2, 5.0]), requires_grad=True)
    assert grad_check(lambda: theta.sum(), theta, eps=1e-5) < 1e-9


def test_grad_check_rejects_bad_eps():
    theta = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ContractViolation):
        grad_check(lambda: theta.sum(), theta, eps=0.0)
    with pytest.raises(ContractViolation):
        grad_check(lambda: theta.sum(), theta, eps=-1e-6)


def test_grad_check_softmax_cross_entropy_small_map():
    from lvseg.layers import softmax_cross_entropy

    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    target = rng.integers(0, 2, size=(4, 4))
    err = grad_check(lambda: softmax_cross_entropy(logits, target), logits)
    assert err < 1e-6


def test_forward_deterministic():
    data = np.random.default_rng(5).normal(size=(3, 3))
    a = (Tensor(data) * Tensor(data)).sum().item()
    b = (Tensor(data) * Tensor(data)).sum().item()
    assert a == b


def test_grad_slots_lazy():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    x = Tensor(np.array([3.0, 4.0]))  # constant input
    backward((w * x).sum())
    assert w.grad is not None
    assert x.grad is None


# -- no_grad --------------------------------------------------------------

def _is_untaped(out):
    return not out.requires_grad and out.backward_fn is None and out.parents == ()


def test_no_grad_results_keep_no_tape():
    from lvseg.layers import (concat_channels, conv2d, max_pool2d, relu,
                              softmax_cross_entropy, transposed_conv2d, upsample_nearest)

    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(3, 2, 1, 1)), requires_grad=True)
    wt = Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    with no_grad():
        outs = [x + x, x * 2.0, x - x, -x, x.sum(),
                conv2d(x, w, b, padding=1), conv2d(x, w1, b), conv2d(x, w1, b, stride=2),
                relu(x), max_pool2d(x), transposed_conv2d(x, wt, b),
                upsample_nearest(x, 2), upsample_nearest(x, 1), concat_channels([x, x]),
                softmax_cross_entropy(x, np.zeros((4, 4), dtype=int))]
    for out in outs:
        assert _is_untaped(out), out.op
    assert (x * x).requires_grad  # recording is back on after the block


def test_no_grad_nests_and_restores_after_exception():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with no_grad():
        with no_grad():
            assert _is_untaped(w * w)
        assert _is_untaped(w * w)  # leaving the inner block keeps recording off
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside no_grad")
    out = (w * w).sum()
    assert out.requires_grad and out.parents
    backward(out)
    assert np.array_equal(w.grad, [2.0, 4.0])


def test_untaped_result_needs_no_parents_outside_no_grad():
    c = Tensor(np.array([1.0, 2.0]))  # constants: nothing to differentiate
    assert _is_untaped(c * c)


# -- backward consumes the tape ------------------------------------------

def test_backward_consumes_interior_nodes_and_keeps_leaf_gradients():
    w = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    x = Tensor(np.array([0.5, 4.0]))  # a constant
    prod = w * x
    square = prod * prod
    unused = prod * 0.0  # not an ancestor of the loss
    loss = square.sum() + w.sum()
    backward(loss)
    for node in (prod, square, loss):
        assert node.grad is None and node.parents == () and node.backward_fn is None, node.op
    assert unused.backward_fn is not None  # backward leaves it alone
    # d/dw of sum((w x)^2) + sum(w) = 2 w x^2 + 1
    assert np.array_equal(w.grad, 2 * w.data * x.data ** 2 + 1)
    assert x.grad is None


def test_second_backward_on_a_consumed_graph_raises():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = (w * w).sum()
    backward(loss)
    kept = w.grad.copy()
    with pytest.raises(ContractViolation, match="consumed"):
        backward(loss)
    inner = w * w
    backward((inner * 1.0).sum())
    with pytest.raises(ContractViolation, match="consumed"):
        backward((inner * 2.0).sum())  # a new root over a consumed node
    assert np.array_equal(w.grad, kept + kept)  # the refused calls added nothing


def test_a_dropped_taped_forward_leaves_no_reference_cycle():
    import gc

    from lvseg.models import Model

    model = Model("mfp-unet", 32, 4, 2, dtype=np.float32, seed=1)
    x = Tensor(np.random.default_rng(2).normal(size=(2, 32, 32)).astype(np.float32))
    gc.collect()
    gc.disable()
    try:
        logits = model.forward(x)
        assert logits.backward_fn is not None  # the forward recorded a tape
        del logits  # no backward: reference counting alone must free the tape
        assert gc.collect() == 0
    finally:
        gc.enable()


def _copying_accumulate_grad(self, g, owned=False):
    """``Tensor.accumulate_grad`` as it was before ``owned``: every first
    contribution copied."""
    if self.grad is None:
        self.grad = np.array(g, dtype=self.data.dtype)
    else:
        self.grad += g


def test_owned_gradients_equal_copied_ones_bit_for_bit(monkeypatch):
    from lvseg.models import build_mfp_unet
    from lvseg.training import backprop_batch

    rng = np.random.default_rng(4)
    inputs = [rng.uniform(0, 1, (2, 32, 32)).astype(np.float32) for _ in range(2)]
    targets = [(rng.uniform(size=(32, 32)) > 0.6).astype(np.int64) for _ in range(2)]

    def sample_step_grads():
        model = build_mfp_unet(32, 2, seed=5)
        loss = backprop_batch(model, inputs, targets)
        return loss, {name: t.grad for name, t in model.parameters().items()}

    loss, owned = sample_step_grads()
    monkeypatch.setattr(Tensor, "accumulate_grad", _copying_accumulate_grad)
    loss_copied, copied = sample_step_grads()
    assert loss == loss_copied
    assert owned.keys() == copied.keys()
    for name in owned:
        assert owned[name].dtype == copied[name].dtype == np.float32, name
        assert owned[name].tobytes() == copied[name].tobytes(), name


def test_add_parents_never_share_a_grad_array():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    c = Tensor(np.array([0.5, 4.0]), requires_grad=True)
    # mul hands add an owned gradient, which add then passes to both parents
    backward(((a + b) * c).sum())
    assert not np.shares_memory(a.grad, b.grad)
    assert np.array_equal(a.grad, c.data) and np.array_equal(b.grad, c.data)
    a.grad[0] = 99.0
    assert b.grad[0] == 0.5


def test_owned_gradient_is_stored_unless_its_dtype_differs():
    t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    g = np.ones(3, dtype=np.float32)
    t.accumulate_grad(g, owned=True)
    assert t.grad is g
    u = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    g64 = np.ones(3)
    u.accumulate_grad(g64, owned=True)
    assert u.grad is not g64 and u.grad.dtype == np.float32
    v = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    v.accumulate_grad(g)
    assert v.grad is not g and not np.shares_memory(v.grad, g)

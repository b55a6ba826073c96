import math

import numpy as np
import pytest

from lvseg import layers
from lvseg.autograd import Tensor, backward, grad_check
from lvseg.errors import ContractViolation
from lvseg.layers import (SGD, _column_taps, _correlate, concat_channels, conv2d,
                          fixed_weights, max_pool2d, mfp_head, relu, softmax_cross_entropy,
                          transposed_conv2d, upsample_nearest)
from lvseg.models import Model

RNG = np.random.default_rng(20240917)


def t(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# -- conv2d ---------------------------------------------------------------

def test_conv_identity_kernel():
    x = t(RNG.normal(size=(3, 5, 5)))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = conv2d(x, t(w), t(np.zeros(3)))
    assert np.array_equal(out.data, x.data)


def test_conv_hand_example():
    # out[i, j] = x[i, j] + x[i + 1, j + 1], zero off the input
    x = t([[[1.0, 2.0], [3.0, 4.0]]])
    w = t([[[[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]])
    out = conv2d(x, w, t([0.0]))
    assert out.data.tolist() == [[[5.0, 2.0], [3.0, 4.0]]]


def test_conv_dilated_nine_taps():
    x = t(np.ones((1, 5, 5)))
    w = t(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w, t([0.0]), dilation=2)
    assert out.data.shape == (1, 5, 5)
    assert out.data[0, 2, 2] == 9.0  # every tap inside; a corner reads four
    assert out.data[0, 0, 0] == out.data[0, 4, 4] == 4.0


def test_conv_channel_mismatch():
    x = t(np.ones((2, 4, 4)))
    w = t(np.ones((1, 3, 3, 3)))
    with pytest.raises(ContractViolation):
        conv2d(x, w, t([0.0]))


def test_conv_kernel_larger_than_input():
    # 'same' pads a kernel wider than its input: n=16 at dilation 3 reaches a
    # 2x2 level, where every tap but the centre reads the padding
    for d in (1, 3):
        x = RNG.normal(size=(2, 2, 2))
        w = RNG.normal(size=(3, 2, 3, 3))
        b = RNG.normal(size=3)
        out = conv2d(t(x), t(w), t(b), dilation=d).data
        np.testing.assert_allclose(out, _im2col_conv_forward(x, w, b, 1, d, d), rtol=1e-12)


def test_conv_rejects_an_even_or_non_square_kernel_and_an_empty_input():
    x = t(np.ones((1, 4, 4)))
    for shape in ((1, 1, 2, 2), (1, 1, 3, 1), (1, 1, 4, 4)):
        with pytest.raises(ContractViolation, match="square with an odd extent"):
            conv2d(x, t(np.ones(shape)), t([0.0]))
    with pytest.raises(ContractViolation, match="non-empty input, got 0x4"):
        conv2d(t(np.ones((1, 0, 4))), t(np.ones((1, 1, 3, 3))), t([0.0]))


def test_conv_output_extent_formula():
    # 'same': every kernel extent and dilation keeps the input's extents
    for h, w, d, m in [(8, 8, 1, 3), (8, 5, 2, 3), (9, 7, 1, 5), (3, 4, 3, 3), (6, 6, 1, 1)]:
        x = t(RNG.normal(size=(1, h, w)))
        wt = t(RNG.normal(size=(1, 1, m, m)))
        out = conv2d(x, wt, t([0.0]), dilation=d)
        assert out.data.shape == (1, h, w)


def test_dilated_equals_zero_inflated_kernel():
    # dilation d equals plain convolution with the kernel inflated to
    # extent d*(m-1)+1
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        inflated = np.zeros((3, 2, 5, 5))
        inflated[:, :, ::2, ::2] = w
        a = conv2d(t(x), t(w), t(np.zeros(3)), dilation=2)
        b = conv2d(t(x), t(inflated), t(np.zeros(3)), dilation=1)
        assert np.allclose(a.data, b.data, atol=1e-12)


# -- relu -----------------------------------------------------------------

def test_relu_values():
    out = relu(t([[-1.0, 3.0, 0.0]]))
    assert np.array_equal(out.data, [[0.0, 3.0, 0.0]])


def test_relu_subgradient():
    x = t([-2.0, 5.0], grad=True)
    backward(relu(x).sum())
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_relu_propagates_nan():
    # np.where(x > 0, x, 0) used to map NaN to 0 and hide it from the
    # finite-loss check in training; NaN now flows on (and gets no gradient)
    x = t([np.nan, -1.0, -0.0, 2.0], grad=True)
    out = relu(x)
    assert np.isnan(out.data[0]) and out.data[1:].tolist() == [0.0, 0.0, 2.0]
    assert not np.signbit(out.data[2])
    backward(relu(x).sum())
    assert x.grad.tolist() == [0.0, 0.0, 0.0, 1.0]


def _conv_relu_and_grads(x0, w0, b0, g0, fused, stride=1, dilation=1):
    """Output and gradients of relu(conv) at ``stride`` ('same' padding),
    the ReLU fused or not: g0 reaches every stride-th output pixel."""
    x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
    out = (conv2d(x, w, b, dilation=dilation, relu=True) if fused
           else relu(conv2d(x, w, b, dilation=dilation)))
    data = out.data[:, ::stride, ::stride].copy()
    backward((out * Tensor(_strided_gradient(g0, out.shape, stride))).sum())
    return data, x.grad, w.grad, b.grad


def _strided_gradient(g, shape, stride):
    """g on every stride-th pixel of a zero gradient of ``shape``: the
    gradient a conv at that stride hands its 'same' conv."""
    full = np.zeros(shape, dtype=g.dtype)
    full[:, ::stride, ::stride] = g
    return full


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dilation", [1, 2])
@pytest.mark.parametrize("nan", [False, True])
def test_fused_relu_is_bit_identical_to_relu_of_conv(dtype, stride, dilation, nan):
    # stride 2 reads the 'same' output at every other pixel
    rng = np.random.default_rng(10 * stride + dilation)
    x0 = rng.normal(size=(3, 9, 9)).astype(dtype)
    if nan:
        x0[1, 4, 4] = np.nan
    w0 = rng.normal(size=(4, 3, 3, 3)).astype(dtype)
    b0 = rng.normal(size=4).astype(dtype)
    kw = dict(stride=stride, dilation=dilation)
    g0 = rng.normal(size=(4, -(-9 // stride), -(-9 // stride))).astype(dtype)
    fused = _conv_relu_and_grads(x0, w0, b0, g0, True, **kw)
    plain = _conv_relu_and_grads(x0, w0, b0, g0, False, **kw)
    assert (fused[0] == 0).any() and (fused[0] > 0).any()
    for a, b in zip(fused, plain):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
def test_fused_relu_backward_masks_its_gradient_in_place(dtype, stride):
    # backward hands each closure its node's own gradient, so the fused
    # ReLU masks g where it lies; the gradients must still be those of
    # relu(conv2d(...)) for the g the caller had, which the test keeps
    rng = np.random.default_rng(20 + stride)
    x0 = rng.normal(size=(3, 9, 9)).astype(dtype)
    w0 = rng.normal(size=(4, 3, 3, 3)).astype(dtype)
    b0 = rng.normal(size=4).astype(dtype)
    x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
    out = conv2d(x, w, b, dilation=2, relu=True)
    g0 = rng.normal(size=(4, -(-9 // stride), -(-9 // stride))).astype(dtype)
    g = _strided_gradient(g0, out.shape, stride)
    kept = g.copy()
    out.backward_fn(g)
    assert np.array_equal(g, kept * (out.data > 0))  # g itself was masked
    _, *plain = _conv_relu_and_grads(x0, w0, b0, g0, False, stride=stride, dilation=2)
    for fused, ref in zip((x.grad, w.grad, b.grad), plain):
        assert fused.dtype == ref.dtype == dtype
        assert np.array_equal(fused, ref)


def test_fused_relu_gradients_against_finite_differences():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 6, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    g = Tensor(rng.normal(size=(3, 6, 6)))
    for theta in (x, w, b):
        err = grad_check(lambda: (conv2d(x, w, b, dilation=2, relu=True) * g).sum(),
                         theta)
        assert err < 1e-6


# -- max_pool2d -----------------------------------------------------------

def test_pool_block_max():
    out = max_pool2d(t([[[1.0, 2.0], [3.0, 4.0]]]))
    assert out.data.tolist() == [[[4.0]]]


def test_pool_tie_routes_first_row_major():
    x = t([[[5.0, 5.0], [5.0, 5.0]]], grad=True)
    backward(max_pool2d(x).sum())
    assert np.array_equal(x.grad, [[[1.0, 0.0], [0.0, 0.0]]])


def test_pool_ramp():
    x = t(np.arange(16, dtype=np.float64).reshape(1, 4, 4))
    assert max_pool2d(x).data.tolist() == [[[5.0, 7.0], [13.0, 15.0]]]


def test_pool_rejects_odd_extent():
    with pytest.raises(ContractViolation):
        max_pool2d(t(np.ones((1, 3, 4))))


def test_pool_gradient_single_nonzero_per_block():
    for seed in range(5):
        x = t(np.random.default_rng(seed).normal(size=(2, 6, 8)), grad=True)
        backward(max_pool2d(x).sum())
        blocks = x.grad.reshape(2, 3, 2, 4, 2).transpose(0, 1, 3, 2, 4).reshape(2, 3, 4, 4)
        assert np.all((blocks != 0).sum(axis=-1) == 1)


def _argmax_pool(x):
    """Reference: each block's argmax (first in row-major order) picked out."""
    c, h, w = x.shape
    blocks = x.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(
        c, h // 2, w // 2, 4)
    return np.take_along_axis(blocks, blocks.argmax(axis=3)[..., None], axis=3)[..., 0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_forward_matches_argmax_reference(dtype):
    rng = np.random.default_rng(2)
    x = rng.integers(-2, 3, size=(3, 8, 10)).astype(dtype)  # many ties, zeros included
    x[0, 0, 0] = np.nan
    x[1, 2:4, 4:6] = np.nan
    x[2, 4, 7] = np.nan
    x[2, 0:2, 0:2] = [[-0.0, 0.0], [-1.0, -1.0]]  # the reference pools this to -0.0
    ref = _argmax_pool(x)
    out = max_pool2d(Tensor(x)).data
    assert out.dtype == dtype
    # equal values (NaN where the block has one); the sign of a zero may differ
    np.testing.assert_array_equal(out, ref)
    assert np.isnan(out).sum() == 3


def _argmax_scatter_pool_grad(x, g):
    """Reference: each block's gradient goes to its argmax (the first
    maximum in row-major order, or the first NaN), zeros elsewhere."""
    c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    blocks = x.reshape(c, h2, 2, w2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h2, w2, 4)
    idx = blocks.argmax(axis=3)
    gx = np.zeros_like(x)
    rows = np.arange(h2)[None, :, None] * 2 + idx // 2
    cols = np.arange(w2)[None, None, :] * 2 + idx % 2
    gx[np.arange(c)[:, None, None], rows, cols] = g
    return gx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_backward_matches_argmax_scatter(dtype):
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.integers(-2, 3, size=(3, 8, 10)).astype(dtype)  # many ties
        x[rng.random(x.shape) < 0.2] = -0.0
        x[rng.random(x.shape) < 0.1] = np.nan
        x[0, 0:2, 0:2] = [[-0.0, 0.0], [-1.0, -1.0]]
        x[0, 0:2, 2:4] = [[-1.0, np.nan], [2.0, np.nan]]  # the first NaN takes it
        xt = Tensor(x, requires_grad=True)
        out = max_pool2d(xt)
        g = rng.normal(size=out.shape).astype(dtype)
        g[1, 1, 1], g[2, 2, 2] = np.nan, np.inf
        with np.errstate(invalid="ignore"):  # inf times a zero pooled value
            loss = (out * Tensor(g)).sum()
        backward(loss)
        ref = _argmax_scatter_pool_grad(x, g)
        assert xt.grad.dtype == dtype
        assert xt.grad.tobytes() == ref.tobytes()  # bit for bit


# -- transposed_conv2d ----------------------------------------------------

def test_tconv_single_scatter():
    v = 3.5
    k = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = transposed_conv2d(t([[[v]]]), t(k), t([0.0]))
    assert np.allclose(out.data, v * k[0])


def test_tconv_disjoint_windows():
    out = transposed_conv2d(t(np.ones((1, 2, 2))), t(np.ones((1, 1, 2, 2))), t([0.0]))
    assert np.array_equal(out.data, np.ones((1, 4, 4)))


def test_tconv_is_adjoint_of_conv():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 6, 6))
        w = rng.normal(size=(4, 3, 2, 2))
        y = rng.normal(size=(4, 3, 3))
        lhs = float((_im2col_conv_forward(x, w, np.zeros(4), 2, 1, 0) * y).sum())
        wt = np.transpose(w, (1, 0, 2, 3))
        rhs = float((x * transposed_conv2d(t(y), t(wt), t(np.zeros(3))).data).sum())
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_tconv_channel_mismatch():
    with pytest.raises(ContractViolation):
        transposed_conv2d(t(np.ones((2, 3, 3))), t(np.ones((1, 3, 2, 2))), t([0.0]))


@pytest.mark.parametrize("shape", [(1, 1, 2, 3), (1, 1, 3, 2), (2, 1, 1, 4)])
def test_tconv_non_square_kernel_is_a_contract_violation(shape):
    with pytest.raises(ContractViolation, match=r"square, got \d+x\d+"):
        transposed_conv2d(t(np.ones((1, 3, 3))), t(np.ones(shape)), t(np.zeros(shape[0])))


def _tensordot_tconv(x, w, b):
    """The transposed conv as one tensordot laid out by a transpose, and its
    three gradients for an output gradient g."""
    o, _, m, _ = w.shape
    _, h, wd = x.shape
    out = (np.tensordot(w, x, axes=([1], [0])).transpose(0, 3, 1, 4, 2)
           + b[:, None, None, None, None]).reshape(o, h * m, wd * m)

    def grads(g):
        gsub = g.reshape(o, h, m, wd, m).transpose(0, 2, 4, 1, 3)
        return (np.tensordot(w, gsub, axes=([0, 2, 3], [0, 1, 2])),
                np.tensordot(gsub, x, axes=([3, 4], [1, 2])).transpose(0, 3, 1, 2),
                g.sum(axis=(1, 2)))
    return out, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cin,cout,hw", [(128, 64, 8), (64, 32, 16), (32, 16, 32), (16, 8, 64),
                                         (4, 2, 4)])
def test_tconv_is_bit_identical_to_the_tensordot_form(cin, cout, hw, dtype):
    rng = np.random.default_rng(cin + hw)
    x, w, b = (rng.normal(size=s).astype(dtype) for s in ((cin, hw, hw), (cout, cin, 2, 2), cout))
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = transposed_conv2d(xt, wt, bt)
    ref, ref_grads = _tensordot_tconv(x, w, b)
    assert out.data.dtype == dtype and np.array_equal(out.data, ref)
    g = rng.normal(size=ref.shape).astype(dtype)
    backward((out * Tensor(g)).sum())
    for got, want in zip((xt.grad, wt.grad, bt.grad), ref_grads(g)):
        assert np.array_equal(got, want)


# -- mfp_head -------------------------------------------------------------

def _pyramid_taps(rng, n=8, channels=(3, 2, 2, 1)):
    """Four taps at n, n/2, n/4 and n/8, full resolution first."""
    return [Tensor(rng.normal(size=(c, n >> k, n >> k)), requires_grad=True)
            for k, c in enumerate(channels)]


def _conv_of_upsampled_concat(taps, w, b):
    n = taps[0].shape[1]
    return conv2d(concat_channels([upsample_nearest(t, n // t.shape[1]) for t in taps]), w, b)


def test_mfp_head_equals_the_conv_of_the_upsampled_concatenation():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        taps = _pyramid_taps(rng, n=16)
        w = t(rng.normal(size=(2, 8, 1, 1)))
        b = t(rng.normal(size=2))
        ref = _conv_of_upsampled_concat(taps, w, b).data
        assert np.abs(mfp_head(taps, w, b).data - ref).max() < 1e-12


def test_mfp_head_gradients_against_finite_differences():
    rng = np.random.default_rng(7)
    taps = _pyramid_taps(rng)
    w = t(rng.normal(size=(2, 8, 1, 1)), grad=True)
    b = t(rng.normal(size=2), grad=True)
    g = rng.normal(size=(2, 8, 8))

    def loss():
        out = mfp_head(taps, w, b)
        return (out * out + out * Tensor(g)).sum()
    for theta in (*taps, w, b):
        assert grad_check(loss, theta) < 1e-7


def test_mfp_head_gradients_match_the_conv_form():
    rng = np.random.default_rng(3)
    taps = _pyramid_taps(rng, n=16, channels=(4, 4, 4, 4))
    w = t(rng.normal(size=(2, 16, 1, 1)), grad=True)
    b = t(rng.normal(size=2), grad=True)
    g = Tensor(rng.normal(size=(2, 16, 16)))
    grads = []
    for head in (mfp_head, _conv_of_upsampled_concat):
        for p in (*taps, w, b):
            p.zero_grad()
        backward((head(taps, w, b) * g).sum())
        grads.append([p.grad for p in (*taps, w, b)])
    for got, want in zip(*grads):
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_mfp_head_of_one_tap_is_the_1x1_conv_bit_for_bit(monkeypatch, dtype, n):
    # the plain nets' head; at n=256 the conv runs its forward in row bands
    rng = np.random.default_rng(n)
    x, w, b, g = (rng.normal(size=s).astype(dtype)
                  for s in ((8, n, n), (2, 8, 1, 1), 2, (2, n, n)))
    runs = []
    for head in (lambda tap, wt, bt: mfp_head([tap], wt, bt), conv2d):
        params = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        with monkeypatch.context() as patch:
            built = _spy_column_taps(patch)
            out = head(*params)
        backward((out * Tensor(g)).sum())
        runs.append([out.data] + [p.grad for p in params])
    # the conv's forward, the last run, built one Q per band; the head builds none
    assert len(built) == (1 if n < 256 else 4 if dtype == np.float32 else 8)
    for got, want in zip(*runs):
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_mfp_head_rejects_bad_shapes():
    rng = np.random.default_rng(0)
    taps = _pyramid_taps(rng)
    with pytest.raises(ContractViolation, match="1x1 kernel"):
        mfp_head(taps, t(np.ones((2, 8, 3, 3))), t(np.zeros(2)))
    with pytest.raises(ContractViolation, match="weight expects 9"):
        mfp_head(taps, t(np.ones((2, 9, 1, 1))), t(np.zeros(2)))
    with pytest.raises(ContractViolation, match="does not divide"):
        mfp_head([taps[0], t(np.ones((1, 3, 3)))], t(np.ones((2, 4, 1, 1))), t(np.zeros(2)))


# -- upsample_nearest -----------------------------------------------------

def test_upsample_factor_one_identity():
    x = t(RNG.normal(size=(2, 3, 3)))
    assert np.array_equal(upsample_nearest(x, 1).data, x.data)


def test_upsample_replication():
    out = upsample_nearest(t([[[1.0, 2.0]]]), 2)
    assert out.data.tolist() == [[[1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0]]]


def test_upsample_preserves_scaled_sum():
    x = t(RNG.normal(size=(3, 4, 5)))
    for factor in (1, 2, 3):
        out = upsample_nearest(x, factor)
        assert math.isclose(out.data.sum(), factor ** 2 * x.data.sum(), rel_tol=1e-12)


@pytest.mark.parametrize("factor", range(1, 9))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_upsample_backward_matches_reshape_sum(factor, dtype):
    rng = np.random.default_rng(factor)
    for shape in ((3, 4, 5), (16, 8, 8), (2, 3, 1), (1, 1, 2), (4, 1, 1)):
        c, h, w = shape
        x = Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
        g = (rng.normal(size=(c, h * factor, w * factor))
             * 10.0 ** rng.integers(-4, 5, size=(c, h * factor, w * factor))).astype(dtype)
        backward((upsample_nearest(x, factor) * Tensor(g)).sum())
        ref = g.reshape(c, h, factor, w, factor).sum(axis=(2, 4))
        assert x.grad.dtype == dtype
        assert x.grad.tobytes() == ref.tobytes(), shape  # bit for bit


def test_upsample_rejects_bad_factor():
    with pytest.raises(ContractViolation):
        upsample_nearest(t(np.ones((1, 2, 2))), 0)


# -- concat_channels ------------------------------------------------------

def test_concat_single_identity():
    x = t(RNG.normal(size=(2, 3, 3)))
    assert np.array_equal(concat_channels([x]).data, x.data)


def test_concat_four_sixteens_make_sixty_four():
    xs = [t(RNG.normal(size=(16, 8, 8))) for _ in range(4)]
    assert concat_channels(xs).data.shape == (64, 8, 8)


def test_concat_slice_inverse():
    a = t(RNG.normal(size=(3, 4, 4)))
    b = t(RNG.normal(size=(5, 4, 4)))
    out = concat_channels([a, b]).data
    assert np.array_equal(out[:3], a.data)
    assert np.array_equal(out[3:], b.data)


def test_concat_spatial_mismatch():
    with pytest.raises(ContractViolation):
        concat_channels([t(np.ones((1, 4, 4))), t(np.ones((1, 5, 4)))])


# -- softmax_cross_entropy ------------------------------------------------

def test_ce_uniform_logits_ln2():
    logits = t(np.zeros((2, 4, 4)))
    loss = softmax_cross_entropy(logits, np.zeros((4, 4), dtype=int))
    assert math.isclose(loss.item(), math.log(2.0), rel_tol=1e-12)


def test_ce_large_margin_tends_to_zero():
    logits = np.zeros((2, 2, 2))
    logits[1] = 50.0
    loss = softmax_cross_entropy(t(logits), np.ones((2, 2), dtype=int))
    assert loss.item() < 1e-20


def test_ce_frozen_value():
    # 1x1 map, logits (0, 1), target class 1 -> ln(1 + e^-1)
    loss = softmax_cross_entropy(t([[[0.0]], [[1.0]]]), np.array([[1]]))
    assert math.isclose(loss.item(), math.log1p(math.exp(-1.0)), rel_tol=1e-12)


def test_ce_rejects_non_binary_target():
    with pytest.raises(ContractViolation):
        softmax_cross_entropy(t(np.zeros((2, 2, 2))), np.full((2, 2), 2))


def test_ce_nonnegative_and_ln2_iff_balanced():
    rng = np.random.default_rng(9)
    for _ in range(20):
        logits = rng.normal(size=(2, 3, 3))
        target = rng.integers(0, 2, size=(3, 3))
        val = softmax_cross_entropy(t(logits), target).item()
        assert val >= 0.0
    balanced = rng.normal(size=(1, 3, 3)).repeat(2, axis=0)
    val = softmax_cross_entropy(t(balanced), rng.integers(0, 2, size=(3, 3))).item()
    assert math.isclose(val, math.log(2.0), rel_tol=1e-12)


# -- SGD ------------------------------------------------------------------

def _param(val):
    return Tensor(np.array([val], dtype=np.float64), requires_grad=True)


def test_sgd_plain_step():
    w = _param(1.0)
    opt = SGD({"w": w}, learning_rate=0.1, momentum=0.0, weight_decay=0.0, lr_decay=0.0)
    w.grad = np.array([0.5])
    opt.step()
    assert math.isclose(w.data[0], 0.95)
    assert w.grad is None  # cleared


def test_sgd_zero_grad_fixed_point():
    w = _param(2.0)
    opt = SGD({"w": w}, learning_rate=0.3, momentum=0.7, weight_decay=0.0, lr_decay=0.0)
    w.grad = np.array([0.0])
    opt.step()
    assert w.data[0] == 2.0


def test_sgd_momentum_two_steps():
    g = 0.25
    w = _param(0.0)
    opt = SGD({"w": w}, learning_rate=1.0, momentum=0.9, weight_decay=0.0, lr_decay=0.0)
    w.grad = np.array([g])
    opt.step()
    first = w.data[0]
    w.grad = np.array([g])
    opt.step()
    assert math.isclose(first, -g)
    assert math.isclose(w.data[0] - first, -1.9 * g)


def test_sgd_missing_grad():
    w = _param(1.0)
    opt = SGD({"w": w})
    with pytest.raises(ContractViolation):
        opt.step()


def test_sgd_lr_schedule():
    w = _param(1.0)
    opt = SGD({"w": w}, learning_rate=0.001, lr_decay=1e-4)
    opt.set_epoch(0)
    assert math.isclose(opt.learning_rate, 0.001)
    opt.set_epoch(100)
    assert math.isclose(opt.learning_rate, 0.001 / 1.01)


# -- gradient checks over every primitive ---------------------------------

def test_primitive_gradients_against_finite_differences():
    for seed in range(5):
        rng = np.random.default_rng(seed)

        x = Tensor(rng.normal(size=(2, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        for theta in (x, w, b):
            err = grad_check(
                lambda: (conv2d(x, w, b, dilation=2) * conv2d(x, w, b, dilation=2)).sum(),
                theta)
            assert err < 1e-6

        xr = Tensor(rng.normal(size=(2, 4, 4)) + 0.1, requires_grad=True)
        assert grad_check(lambda: (relu(xr) * relu(xr)).sum(), xr) < 1e-6

        xp = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
        assert grad_check(lambda: (max_pool2d(xp) * max_pool2d(xp)).sum(), xp) < 1e-6

        xt = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        wt = Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
        bt = Tensor(rng.normal(size=3), requires_grad=True)
        for theta in (xt, wt, bt):
            err = grad_check(
                lambda: (transposed_conv2d(xt, wt, bt)
                         * transposed_conv2d(xt, wt, bt)).sum(), theta)
            assert err < 1e-6

        xu = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        assert grad_check(lambda: (upsample_nearest(xu, 2) * upsample_nearest(xu, 2)).sum(),
                          xu) < 1e-6

        xa = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        xb = Tensor(rng.normal(size=(1, 3, 3)), requires_grad=True)
        for theta in (xa, xb):
            err = grad_check(
                lambda: (concat_channels([xa, xb]) * concat_channels([xa, xb])).sum(), theta)
            assert err < 1e-6


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_1x1_gradients_against_finite_differences(stride):
    # the loss reads every stride-th output pixel, as a conv at that stride would
    rng = np.random.default_rng(stride)
    x = Tensor(rng.normal(size=(2, 6, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 1, 1)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    read = Tensor(_strided_gradient(np.ones((3, 6 // stride, 6 // stride)), (3, 6, 6), stride))
    for theta in (x, w, b):
        err = grad_check(lambda: (conv2d(x, w, b) * conv2d(x, w, b) * read).sum(), theta)
        assert err < 1e-6


def _per_tap_conv_grads(x, w, g, stride, dilation, padding):
    """The per-tap conv2d backward the GEMM form replaced: the weight
    gradient as tensordot(g, patches), the input gradient as one strided
    add per kernel tap into a zero-padded buffer, cropped to the input."""
    c, h, wd = x.shape
    m = w.shape[2]
    h_out, w_out = g.shape[1:]
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    gw = np.empty_like(w)
    gxp = np.zeros_like(xp)
    for a in range(m):
        ra = a * dilation
        for b in range(m):
            rb = b * dilation
            taps = (slice(None), slice(ra, ra + (h_out - 1) * stride + 1, stride),
                    slice(rb, rb + (w_out - 1) * stride + 1, stride))
            gw[:, :, a, b] = np.tensordot(g, xp[taps], axes=([1, 2], [1, 2]))
            gxp[taps] += np.tensordot(w[:, :, a, b], g, axes=([0], [0]))
    return gxp[:, padding:padding + h, padding:padding + wd], gw, g.sum(axis=(1, 2))


def _same_frame(x, w, stride, dilation, padding):
    """A conv at any stride and padding posed to the one 'same' conv2d:
    (xs, ws, out, crop). ws is w, an even kernel zero-extended by a last row
    and column to odd extent m'. xs is x zero-padded by max(e, 0) on each
    side, e = padding - dilation*(m' - 1)//2, and for an even kernel by
    dilation more at the bottom and right, where its added taps reach. The
    strided, padded conv's output is the 'same' conv's at ``out``: every
    stride-th row and column from max(-e, 0) on. The input's gradient is
    xs's at ``crop``."""
    c, h, wd = x.shape
    m = w.shape[2]
    ws = w if m % 2 else np.pad(w, ((0, 0), (0, 0), (0, 1), (0, 1)))
    e = padding - dilation * (ws.shape[2] - 1) // 2
    lo, k = max(e, 0), max(-e, 0)
    hi = lo + (0 if m % 2 else dilation)
    xs = np.pad(x, ((0, 0), (lo, hi), (lo, hi)))
    eff = dilation * (m - 1) + 1
    h_out = (h + 2 * padding - eff) // stride + 1
    w_out = (wd + 2 * padding - eff) // stride + 1
    out = (slice(None), slice(k, k + (h_out - 1) * stride + 1, stride),
           slice(k, k + (w_out - 1) * stride + 1, stride))
    return xs, ws, out, (slice(None), slice(lo, lo + h), slice(lo, lo + wd))


def _conv_at(x, w, b, stride, dilation, padding):
    """The conv of x at ``stride`` and ``padding``, run as the one 'same'
    conv2d (``_same_frame``), and a function of its output gradient g that
    returns the gradients (gx, gw, gb)."""
    xs, ws, sel, crop = _same_frame(x, w, stride, dilation, padding)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (xs, ws, b))
    out = conv2d(xt, wt, bt, dilation=dilation)

    def grads(g):
        full = np.zeros_like(out.data)
        full[sel] = g
        backward((out * Tensor(full)).sum())
        m = w.shape[2]
        return xt.grad[crop], wt.grad[:, :, :m, :m], bt.grad
    return out.data[sel], grads


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dilation", [1, 2])
@pytest.mark.parametrize("same", [False, True])
def test_conv_gradients_match_per_tap_backward(m, stride, dilation, same, dtype, tol):
    eff = dilation * (m - 1) + 1
    padding = (eff - 1) // 2 if same else 0
    h, wd = 9, 8  # at stride 2 one of h, w + 2p - eff is odd: the stride leaves a remainder
    assert stride == 1 or (h - eff) % 2 != (wd - eff) % 2
    rng = np.random.default_rng([m, stride, dilation, padding])
    x = rng.normal(size=(3, h, wd)).astype(dtype)
    w = rng.normal(size=(4, 3, m, m)).astype(dtype)
    b = rng.normal(size=4).astype(dtype)
    out, grads = _conv_at(x, w, b, stride, dilation, padding)
    g = rng.normal(size=out.shape).astype(dtype)
    want = _per_tap_conv_grads(x, w, g, stride, dilation, padding)
    for got, ref in zip(grads(g), want):
        assert got.dtype == dtype and got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=tol, atol=tol * np.abs(ref).max())


def test_conv_gradients_with_padding_beyond_the_kernel_extent():
    # padding 2 > eff - 1 = 0: the input gradient window starts inside g's zero border
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 5, 6))
    w = rng.normal(size=(3, 2, 1, 1))
    out, grads = _conv_at(x, w, rng.normal(size=3), 2, 1, 2)
    g = rng.normal(size=out.shape)
    want = _per_tap_conv_grads(x, w, g, 2, 1, 2)
    for got, ref in zip(grads(g), want):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def _im2col_conv_forward(x, w, b, stride, dilation, padding):
    """The im2col conv2d forward the column-tap kernel replaced: the m*m-tap
    patch matrix of the zero-padded input contracted with the weight."""
    c, h, wd = x.shape
    m = w.shape[2]
    eff = dilation * (m - 1) + 1
    h_out = (h + 2 * padding - eff) // stride + 1
    w_out = (wd + 2 * padding - eff) // stride + 1
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    patches = np.empty((c, m, m, h_out, w_out), dtype=x.dtype)
    for a in range(m):
        ra = a * dilation
        for bb in range(m):
            rb = bb * dilation
            patches[:, a, bb] = xp[:, ra:ra + (h_out - 1) * stride + 1:stride,
                                   rb:rb + (w_out - 1) * stride + 1:stride]
    return np.tensordot(w, patches, axes=([1, 2, 3], [0, 1, 2])) + b[:, None, None]


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dilation", [1, 2])
@pytest.mark.parametrize("pad", ["zero", "same", "beyond"])
def test_conv_forward_matches_im2col(m, stride, dilation, pad, dtype, tol):
    eff = dilation * (m - 1) + 1
    padding = {"zero": 0, "same": (eff - 1) // 2, "beyond": eff}[pad]  # beyond: p > eff - 1
    rng = np.random.default_rng([m, stride, dilation, padding])
    x = rng.normal(size=(3, 9, 7)).astype(dtype)
    w = rng.normal(size=(4, 3, m, m)).astype(dtype)
    b = rng.normal(size=4).astype(dtype)
    got, _ = _conv_at(x, w, b, stride, dilation, padding)
    ref = _im2col_conv_forward(x, w, b, stride, dilation, padding)
    assert got.dtype == dtype and got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=tol, atol=tol * np.abs(ref).max())


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dilation", [1, 2])
def test_conv_gradients_with_padding_beyond_every_kernel_extent(m, stride, dilation):
    # p = eff > eff - 1: the input gradient's kernel starts off g's extent (a crop)
    eff = dilation * (m - 1) + 1
    rng = np.random.default_rng([m, stride, dilation])
    x = rng.normal(size=(3, 9, 7))
    w = rng.normal(size=(4, 3, m, m))
    out, grads = _conv_at(x, w, rng.normal(size=4), stride, dilation, eff)
    g = rng.normal(size=out.shape)
    want = _per_tap_conv_grads(x, w, g, stride, dilation, eff)
    for got, ref in zip(grads(g), want):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


# -- fixed costs: kernel layouts, column taps, pool routing ------------------

def _span(shift, stride, n_in, n_out):
    """Slices (out, in) pairing each output index i in [0, n_out) with the
    input index i*stride + shift, where that lies in [0, n_in)."""
    lo = max(0, -(shift // stride))
    hi = min(n_out, (n_in - 1 - shift) // stride + 1)
    if lo >= hi:
        return slice(0, 0), slice(0, 0)
    return slice(lo, hi), slice(lo * stride + shift, (hi - 1) * stride + shift + 1, stride)


def _span_copy_taps(x, m, stride, dilation, left, w_out):
    """The column-tap matrix as one clipped column span per tap, the way
    every stride built it before the shift copy."""
    c, h, w = x.shape
    q = np.zeros((m, c, h, w_out), dtype=x.dtype)
    for b in range(m):
        dst, src = _span(b * dilation - left, stride, w, w_out)
        q[b, :, :, dst] = x[:, :, src]
    return q.reshape(m * c, h * w_out)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("dilation", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("hw", [(1, 1), (2, 2), (3, 5), (6, 4)])
def test_column_taps_equal_the_span_copy(m, dilation, stride, hw):
    # the taps of a conv at any stride and left padding are the 'same' taps
    # of the input padded by the rest, read at every stride-th column
    h, w = hw
    eff = dilation * (m - 1) + 1
    x = np.random.default_rng([m, dilation, h, w]).normal(size=(3, h, w))
    x[0, 0, 0] = np.nan  # garbage in the shifted-out columns must not survive either
    for left in range(0, eff + 1):
        w_out = (w + 2 * left - eff) // stride + 1
        if w_out <= 0:
            continue
        e = left - dilation * (m - 1) // 2
        xs = np.pad(x, ((0, 0), (0, 0), (max(e, 0), max(e, 0) + eff)))
        k = max(-e, 0)
        got = _column_taps(xs, m, dilation).reshape(m * 3, h, xs.shape[2])
        got = got[:, :, k:k + (w_out - 1) * stride + 1:stride]
        ref = _span_copy_taps(x, m, stride, dilation, left, w_out)
        assert got.size == ref.size
        assert got.tobytes() == ref.tobytes(), (left, w_out)


def test_column_taps_zero_a_tap_shifted_by_the_whole_width():
    # n=16 at dilation 3 reaches a 2x2 level padded by 3: taps 0 and 2 shift by 3 >= w
    x = np.arange(1.0, 9.0).reshape(2, 2, 2)
    q = _column_taps(x, 3, 3).reshape(3, 2, 2, 2)
    assert not q[0].any() and not q[2].any()
    assert np.array_equal(q[1], x)


def _kept_q_conv_grads(x, w, g, dilation):
    """conv2d's backward as it ran when the tape kept the forward's Q: the
    weight gradient from that Q, the input gradient from the flipped kernel."""
    c, h, wd = x.shape
    o, _, m, _ = w.shape
    padding = dilation * (m - 1) // 2
    q = _span_copy_taps(x, m, 1, dilation, padding, wd).reshape(m * c, h, wd)
    gwt = np.empty((m, m * c, o), dtype=g.dtype)
    for a in range(m):
        dst, src = _span(a * dilation - padding, 1, h, h)
        k = (dst.stop - dst.start) * wd
        np.matmul(q[:, src].reshape(m * c, k), g[:, dst].reshape(o, k).T, out=gwt[a])
    gw = gwt.reshape(m, m, c, o).transpose(3, 2, 0, 1)
    flipped = w[:, :, ::-1, ::-1].transpose(2, 1, 3, 0).reshape(m * c, m * o)
    gx = _correlate(g, flipped, 0, dilation)[0]
    return gx, gw, g.sum(axis=(1, 2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m,stride,dilation,padding", [
    (3, 1, 1, 1), (3, 1, 2, 2), (3, 1, 3, 3), (3, 2, 1, 1), (2, 1, 1, 0), (1, 1, 1, 0),
    (1, 2, 1, 1)])
def test_conv_gradients_with_q_rebuilt_in_the_backward(m, stride, dilation, padding, dtype):
    # other strides and paddings run as the 'same' conv of their frame (``_same_frame``)
    rng = np.random.default_rng([m, stride, dilation, padding])
    x0 = rng.normal(size=(3, 8, 8)).astype(dtype)
    xs, ws, sel, _ = _same_frame(x0, rng.normal(size=(4, 3, m, m)).astype(dtype), stride,
                                 dilation, padding)
    x, w = Tensor(xs, requires_grad=True), Tensor(ws, requires_grad=True)
    b = Tensor(rng.normal(size=4).astype(dtype), requires_grad=True)
    out = conv2d(x, w, b, dilation=dilation)
    # the tape holds x and the weight, and no column-tap matrix
    m, (h, wd) = ws.shape[2], xs.shape[1:]
    held = [cell.cell_contents for cell in out.backward_fn.__closure__]
    assert not any(isinstance(v, np.ndarray) and v.shape == (m * 3, h * wd) for v in held)
    g = np.zeros(out.shape, dtype=dtype)
    g[sel] = rng.normal(size=g[sel].shape)
    backward((out * Tensor(g)).sum())
    for got, ref in zip((x.grad, w.grad, b.grad), _kept_q_conv_grads(xs, ws, g, dilation)):
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


def _spy_column_taps(monkeypatch):
    """Record (input channels, input rows, Q bytes) of every column-tap
    matrix ``_correlate`` builds."""
    built = []

    def spy(x, *args):
        q = _column_taps(x, *args)
        built.append((x.shape[0], x.shape[1], q.nbytes))
        return q

    monkeypatch.setattr(layers, "_column_taps", spy)
    return built


def _conv_and_input_grad(x, w, b, g, dilation):
    xt = Tensor(x, requires_grad=True)
    out = conv2d(xt, Tensor(w), Tensor(b), dilation=dilation)
    backward((out * Tensor(g)).sum())
    return out.data, xt.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dilation", [1, 2, 3])
# paddings of 0-3 beyond 'same', under the ids of the cases that once padded
# the rows and the columns apart; each runs as the 'same' conv of its frame
@pytest.mark.parametrize("extras", [(0,), (1,), (2, 3)],
                         ids=["asymmetric0", "asymmetric1", "asymmetric2"])
@pytest.mark.parametrize("band_rows", [1, 2, 3])
def test_row_bands_are_bit_identical_to_one_band(monkeypatch, dtype, m, stride, dilation,
                                                 extras, band_rows):
    eff = dilation * (m - 1) + 1
    for extra in extras:
        p = (eff - 1) // 2 + extra
        c, o, h, w = 3, 4, 13, 9
        rng = np.random.default_rng([m, stride, dilation, p])
        x0 = rng.normal(size=(c, h, w)).astype(dtype)
        x, wt, sel, _ = _same_frame(x0, rng.normal(size=(o, c, m, m)).astype(dtype), stride,
                                    dilation, p)
        b = rng.normal(size=o).astype(dtype)
        g = np.zeros((o, *x.shape[1:]), dtype=dtype)
        g[sel] = rng.normal(size=g[sel].shape)
        whole = _conv_and_input_grad(x, wt, b, g, dilation)  # in one band
        with monkeypatch.context() as patch:
            # forward bands of band_rows output rows
            row_bytes = m * max(c, o) * x.shape[2] * np.dtype(dtype).itemsize
            patch.setattr(layers, "_BAND_BYTES", row_bytes * (eff + band_rows - 1))
            built = _spy_column_taps(patch)
            banded = _conv_and_input_grad(x, wt, b, g, dilation)
        forward_bands = sum(1 for ch, _, _ in built if ch == c)
        assert forward_bands == -(-x.shape[1] // band_rows)
        assert len(built) > forward_bands + 1  # the input gradient ran in bands too
        for got, ref in zip(banded, whole):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("budget,shape,dilation", [
    (16 << 10, (16, 40, 40), 2), (64 << 10, (16, 40, 40), 2), (64 << 10, (8, 33, 20), 1),
    (None, (16, 128, 128), 1), (None, (8, 128, 128), 2)])
def test_no_column_tap_matrix_exceeds_the_band_budget(monkeypatch, budget, shape, dilation):
    # None: the module's own budget on MFP-Unet's full-resolution conv shapes
    if budget is not None:
        monkeypatch.setattr(layers, "_BAND_BYTES", budget)
    budget = layers._BAND_BYTES
    c, h, w = shape
    o, eff = 8, 2 * dilation + 1
    rng = np.random.default_rng(list(shape))
    x = rng.normal(size=shape).astype(np.float32)
    wt = rng.normal(size=(o, c, 3, 3)).astype(np.float32)
    built = _spy_column_taps(monkeypatch)
    _conv_and_input_grad(x, wt, np.zeros(o, np.float32), rng.normal(size=(o, h, w)).astype(
        np.float32), dilation)
    assert len(built) > 2
    for channels, rows, q_bytes in built:
        y_bytes = q_bytes // channels * (c + o - channels)  # Y has the other side's channels
        one_row = rows <= eff  # a band of one output row reads eff input rows
        assert max(q_bytes, y_bytes) <= budget or one_row, (channels, rows, q_bytes)


def _forward_bands(monkeypatch, budget, x, wt):
    """The input rows of each column-tap matrix one 3x3 'same' conv
    forward builds under ``budget``, and its output."""
    with monkeypatch.context() as patch:
        patch.setattr(layers, "_BAND_BYTES", budget)
        built = _spy_column_taps(patch)
        out = conv2d(Tensor(x), Tensor(wt), Tensor(np.zeros(wt.shape[0], x.dtype)))
    return [rows for _, rows, _ in built], out.data


@pytest.mark.parametrize("wide_first", [True, False])
def test_each_call_bands_by_the_budget_in_force(monkeypatch, wide_first):
    # the conv plans are cached per shape: a plan made under one budget must
    # not serve a call under another
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 13, 9))
    wt = rng.normal(size=(4, 3, 3, 3))
    row_bytes = 3 * 4 * 9 * 8
    budgets = {"one band": row_bytes * 15, "one row a band": row_bytes * 3}
    want = {"one band": [13], "one row a band": [2] + [3] * 11 + [2]}
    names = list(budgets) if wide_first else list(budgets)[::-1]
    outs = []
    for name in names:
        rows, out = _forward_bands(monkeypatch, budgets[name], x, wt)
        assert rows == want[name], name
        outs.append(out)
    assert outs[0].tobytes() == outs[1].tobytes()


def test_band_rows_follow_the_itemsize(monkeypatch):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 13, 9))
    wt = rng.normal(size=(4, 3, 3, 3))
    budget = 3 * 4 * 9 * 4 * 4  # two output rows a band of float32, one of float64
    rows32, _ = _forward_bands(monkeypatch, budget, x.astype(np.float32), wt.astype(np.float32))
    rows64, _ = _forward_bands(monkeypatch, budget, x, wt)
    assert rows32 == [3] + [4] * 5 + [2]
    assert rows64 == [2] + [3] * 11 + [2]


def test_conv_plans_are_made_once_per_shape_and_bounded():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(3, 11, 7)), requires_grad=True)
    wt = Tensor(rng.normal(size=(5, 3, 3, 3)), requires_grad=True)
    b = Tensor(np.zeros(5), requires_grad=True)
    caches = (layers._correlate_plan, layers._tap_plan)
    for dilation in (1, 2):
        backward(conv2d(x, wt, b, dilation=dilation).sum())
    sizes = [cache.cache_info().currsize for cache in caches]
    for _ in range(3):
        for dilation in (1, 2):
            backward(conv2d(x, wt, b, dilation=dilation).sum())
    for cache, size in zip(caches, sizes):
        assert cache.cache_info().currsize == size
        assert cache.cache_info().maxsize is not None


def _logits_and_grads(model, x, target):
    out = model.forward(Tensor(x))
    backward(softmax_cross_entropy(out, target))
    grads = {name: t.grad for name, t in model.parameters().items()}
    model.zero_grad()
    return out.data, grads


@pytest.mark.parametrize("arch", ["unet", "dilated-unet", "mfp-unet"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fixed_weights_scope_is_bit_identical(arch, dtype):
    model = Model(arch, 16, 2, dtype=dtype, seed=3)
    rng = np.random.default_rng(8)
    xs = [rng.uniform(size=(2, 16, 16)).astype(dtype) for _ in range(2)]
    target = (rng.uniform(size=(16, 16)) > 0.5).astype(np.int64)
    plain = [_logits_and_grads(model, x, target) for x in xs]
    with fixed_weights():  # the second sample reuses the first one's kernel layouts
        scoped = [_logits_and_grads(model, x, target) for x in xs]
    for (lp, gp), (ls, gs) in zip(plain, scoped):
        assert lp.tobytes() == ls.tobytes()
        for name in gp:
            assert gp[name].tobytes() == gs[name].tobytes(), name


def test_weights_changed_after_the_scope_are_used():
    model = Model("unet", 16, 2, dtype=np.float64, seed=4)
    x = Tensor(np.random.default_rng(9).uniform(size=(2, 16, 16)))
    with fixed_weights():
        before = model.forward(x).data
    for t in model.parameters().values():
        t.data *= 0.5  # in place: the arrays keep their ids
    fresh = Model("unet", 16, 2, dtype=np.float64, seed=4)
    for t in fresh.parameters().values():
        t.data *= 0.5
    want = fresh.forward(x).data
    assert not np.array_equal(before, want)
    assert np.array_equal(model.forward(x).data, want)
    with fixed_weights():
        assert np.array_equal(model.forward(x).data, want)


def test_fixed_weights_scope_ends_on_an_exception():
    with pytest.raises(RuntimeError):
        with fixed_weights():
            with fixed_weights():
                assert layers._kernels == {}
            assert layers._kernels is not None
            raise RuntimeError
    assert layers._kernels is None


def _four_pass_pool_grad(x, pooled, g):
    """The pool backward's former routing: one strided pass per block
    position in row-major order, each testing for the maximum or a NaN,
    masking out blocks already routed and copying g where it hits."""
    gx = np.zeros_like(x)
    free = np.ones(pooled.shape, dtype=bool)
    for r in (0, 1):
        for s in (0, 1):
            xs = x[:, r::2, s::2]
            hit = (xs == pooled) | (xs != xs)
            hit &= free
            free ^= hit
            np.copyto(gx[:, r::2, s::2], g, where=hit)
    return gx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_backward_equals_the_four_pass_routing(dtype):
    rng = np.random.default_rng(12)
    cases = [rng.normal(size=(4, 8, 12)),                       # random
             rng.integers(-1, 2, size=(4, 8, 12)).astype(float),  # ties
             np.zeros((2, 4, 4)), -np.zeros((2, 4, 4))]
    signed_zeros = rng.integers(-1, 2, size=(4, 8, 12)).astype(float)
    signed_zeros[rng.random(signed_zeros.shape) < 0.5] = -0.0
    cases.append(signed_zeros)
    nans = rng.integers(-2, 3, size=(4, 8, 12)).astype(float)
    nans[rng.random(nans.shape) < 0.15] = np.nan
    nans[0, :2, :2] = np.nan
    cases.append(nans)
    for x in cases:
        x = x.astype(dtype)
        xt = Tensor(x, requires_grad=True)
        out = max_pool2d(xt)
        g = rng.normal(size=out.shape).astype(dtype)
        g.flat[:3] = [np.nan, -np.inf, -0.0]
        out.backward_fn(g)
        ref = _four_pass_pool_grad(x, out.data, g)
        assert xt.grad.dtype == dtype
        assert xt.grad.tobytes() == ref.tobytes()

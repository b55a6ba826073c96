"""Network layer vocabulary: (dilated) convolution with an optional fused
ReLU, ReLU, max pooling, transposed convolution, nearest upsampling,
channel concatenation, the classifier head every network ends in,
pixelwise softmax cross-entropy, and SGD with momentum.

All image tensors are channels-first ``(C, H, W)``. Convolution weights
are ``(out, in, m, m)``. Every conv is 'same': stride 1, an odd square
kernel and p = d*(m - 1)//2 zeros on each side, so its output keeps its
input's extents; dilated kernels space their taps by the dilation rate d,
enlarging the receptive field without adding parameters.

Convolution is column-tap GEMM (``conv2d``): out = bias + sum_a Y[a, rows
i + a*d - p], where Y = Ws @ Q, Q holds the m column-shifted copies of the
input (Q[b,c,r,j] = x[c, r, j + b*d - p]) and Ws[a,o,b,c] = w[o,c,a,b]. Q
and Y are built per band of output rows, each at most ``_BAND_BYTES``
(512 KB) or one output row, so a full-resolution conv never holds the
whole image's Q or Y; every band sums its row taps in one order, so the
result does not depend on the bands. The weight gradient is
gw[:, :, a] = (Q_a @ g_a^T)^T for each row tap a, over the whole image,
and the input gradient is the same banded 'same' kernel on g with the
flipped, transposed kernel w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).

Everything a conv kernel decides from shapes alone (each row tap's span,
the order its row taps are summed in, the bands with their input rows and
slices, each column tap's copy slices and zero columns) is planned once per
shape, itemsize and band budget by ``_correlate_plan`` and ``_tap_plan``
and kept in bounded caches; a call runs only the numpy work. Per call, a
conv lays its weight out as Ws (and, in backward, as the flipped kernel)
and the transposed conv as its two GEMM matrices. Inside
``with fixed_weights():`` each layout is made once per weight array and
reused by every later call in the block, with bit-identical results; the
caller promises that no weight array changes there. Training opens it
around a batch's forwards and backwards (the optimizer steps after it
closes) and evaluation around its forwards. Outside it nothing is kept,
so a weight changed in place (a finite-difference check) is always read
afresh. A conv's tape entry holds its input and weight, not Q: backward
rebuilds Q from the input, so the tape keeps no m-fold copy of each conv
input alive until backward.

Two ops only lay data out around their GEMMs. The transposed conv (an
m x m kernel at stride m) writes each of its m*m kernel taps' GEMM blocks
into a strided view of the output. ``mfp_head``, every network's head, is
the 1x1 classifier of nearest-upsampled, concatenated taps, applied at each
tap's own resolution and broadcast into the output, so no upsampled
channel and no concatenation is built.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .autograd import Tensor, _result
from .errors import ContractViolation


# Bytes that one band of output rows may take of Q, and of Y = Ws @ Q, in
# ``_correlate`` (a band is never less than one output row)
_BAND_BYTES = 512 << 10

# (id of a weight array, layout) -> (that array, its kernel matrix) while a
# ``fixed_weights`` block is open, else None
_kernels: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] | None = None


@contextmanager
def fixed_weights():
    """Promise that no weight array changes inside the block, so each conv
    and transposed conv lays out its kernel matrices once per weight array
    and reuses them. An entry holds its array, so its id stays that array's
    until the block ends; the previous state comes back on exit. A weight
    array changed in place inside the block (an optimizer step, a finite
    difference) would leave its stale matrices in use."""
    global _kernels
    previous, _kernels = _kernels, {}
    try:
        yield
    finally:
        _kernels = previous


def _kernel(data: np.ndarray, layout: str, make) -> np.ndarray:
    """``make(data)``, made once per array inside ``fixed_weights``."""
    if _kernels is None:
        return make(data)
    key = (id(data), layout)
    entry = _kernels.get(key)
    if entry is None:
        entry = _kernels[key] = (data, make(data))
    return entry[1]


def he_uniform(shape, fan_in: int, rng: np.random.Generator, dtype) -> np.ndarray:
    """Uniform init with variance 2/fan_in, which keeps activation variance
    level through ReLU conv stacks (a straight variance-preserving init
    decays signal by half per rectified layer, starving the deep levels)."""
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _span(shift: int, n: int) -> tuple[slice, slice]:
    """Slices (out, in) pairing each index i in [0, n) with i + shift,
    where that lies in [0, n)."""
    lo, hi = max(0, -shift), min(n, n - shift)
    if lo >= hi:
        return slice(0, 0), slice(0, 0)
    return slice(lo, hi), slice(lo + shift, hi + shift)


@lru_cache(maxsize=1024)
def _tap_plan(h: int, w: int, m: int, dilation: int) -> tuple:
    """``_column_taps``' plan for one shape: for each tap b (dst, src,
    zeros), the slices of the flat copy Q[b, :, dst] = x[:, src] and the
    column slices of Q[b] zeroed after it."""
    pad = dilation * (m - 1) // 2
    taps = []
    for b in range(m):
        s = b * dilation - pad
        k = max(h * w - abs(s), 0)
        if s >= 0:
            copy = slice(0, k), slice(s, s + k)
            zeros = (slice(max(w - s, 0), None),) if s else ()
        else:
            copy = slice(-s, k - s), slice(0, k)
            zeros = (slice(0, min(-s, w)),)
        taps.append((*copy, zeros))
    return tuple(taps)


def _column_taps(x: np.ndarray, m: int, dilation: int) -> np.ndarray:
    """The (m*C, H*W) column-tap matrix Q[b*C + c, r*W + j] =
    x[c, r, j + b*d - p], p = d*(m - 1)//2 and x zero off its extent.

    Tap b is the flattened input shifted by s = b*d - p: one contiguous
    copy, after which the |s| columns of each row that the shift wrapped
    around are zeroed (all of them when |s| >= W). The slices come from
    ``_tap_plan``."""
    c, h, w = x.shape
    q = np.empty((m, c, h, w), dtype=x.dtype)
    qv, xv = q.reshape(m, c, h * w), x.reshape(c, h * w)
    for b, (dst, src, zeros) in enumerate(_tap_plan(h, w, m, dilation)):
        qv[b, :, dst] = xv[:, src]
        for cols in zeros:
            q[b, :, :, cols] = 0
    return q.reshape(m * c, h * w)


@lru_cache(maxsize=1024)
def _correlate_plan(c: int, h: int, w: int, o: int, m: int, dilation: int, itemsize: int,
                    band_bytes: int) -> tuple[tuple, tuple]:
    """``_correlate``'s plan for one shape and band budget: (rows, bands).
    rows[a] is row tap a's (output rows, input rows) pair of slices. Each
    band is (input rows, their count, taps), each tap (a, output rows, Y
    rows). The centre tap, unshifted, covers every output row, so it comes
    first and starts each band's sum; the others follow in kernel order."""
    pad = dilation * (m - 1) // 2
    rows = tuple(_span(a * dilation - pad, h) for a in range(m))
    order = (m // 2, *range(m // 2), *range(m // 2 + 1, m))
    row_bytes = m * max(c, o) * w * itemsize  # of Q or Y per input row
    band = max(1, band_bytes // row_bytes - dilation * (m - 1))
    bands = []
    for i0 in range(0, h, band):
        i1 = min(i0 + band, h)
        lo, hi = max(0, i0 - pad), min(h, i1 + pad)
        taps = []
        for a in order:
            d0, d1 = max(rows[a][0].start, i0), min(rows[a][0].stop, i1)
            if d0 < d1:
                r0 = d0 + a * dilation - pad - lo
                taps.append((a, slice(d0, d1), slice(r0, r0 + d1 - d0)))
        bands.append((slice(lo, hi), hi - lo, tuple(taps)))
    return rows, tuple(bands)


def _correlate(x: np.ndarray, ws: np.ndarray, base, dilation: int):
    """The column-tap kernel: ``base`` plus the 'same' correlation

        out[o,i,j] = sum_{c,a,b} w[o,c,a,b] * x[c, i + a*d - p, j + b*d - p],  p = d*(m - 1)//2,

    with x zero off its extent and the kernel given as the (m*O, m*C) matrix
    ws[a*O + o, b*C + c] = w[o,c,a,b]. Returns out and, for each row tap a,
    the slices (output rows, input rows) it pairs.

    Q and Y = ws @ Q are built per band of output rows, from the input rows
    x[:, lo:hi] that the band's row taps read, so neither is ever larger
    than ``_BAND_BYTES`` unless one output row's already is. Every band sums
    its row taps in the one order chosen for the whole output, so the
    banding changes no bit of out.

    The row spans, the tap order and the bands with their slices depend on
    the shapes, the itemsize and ``_BAND_BYTES`` alone: ``_correlate_plan``
    works them out once per such key. Per call only the numpy work runs:
    Q, the GEMM and the row-shifted sums."""
    c, h, w = x.shape
    m = ws.shape[1] // c
    o = ws.shape[0] // m
    out = np.empty((o, h, w), dtype=np.result_type(ws, x))
    rows, bands = _correlate_plan(c, h, w, o, m, dilation, out.itemsize, _BAND_BYTES)
    for in_rows, n_rows, taps in bands:
        q = _column_taps(x[:, in_rows], m, dilation)
        y = (ws @ q).reshape(m, o, n_rows, w)
        (a, dst, src), *rest = taps
        np.add(y[a, :, src], base, out=out[:, dst])
        for a, dst, src in rest:
            out[:, dst] += y[a, :, src]
    return out, rows


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, dilation: int = 1,
           relu: bool = False) -> Tensor:
    """2-D 'same' convolution on a (C,H,W) tensor, differentiable in x,
    weight, bias. The kernel is square with odd extent m, and the output
    keeps the input's extents:

    out[o,i,j] = bias[o] + sum_{c,a,b} w[o,c,a,b] * x[c, i + a*d - p, j + b*d - p]

    with dilation d, p = d*(m - 1)//2 and x zero off its extent, in three
    steps (``_correlate``), taken per band of output rows:

    - the column-tap matrix Q (m*C, rows*W), Q[b,c,r,j] = x[c, r, j + b*d - p]
      for the input rows r that the band reads: m shifted copies of them,
      where an im2col patch matrix takes m*m;
    - one GEMM Y = Ws @ Q with Ws[a,o,b,c] = w[o,c,a,b], an (m*O, m*C) matrix;
    - the sum of m row-shifted slices, out[o,i] = sum_a Y[a,o, i + a*d - p]
      over the rows i + a*d - p that lie in the input, the centre tap first
      and the taps added in the same order in every band.

    A band holds as many output rows as keep its Q and Y within
    ``_BAND_BYTES``, and at least one. In a 128x128, width-8 MFP-Unet the
    full-resolution convs run in 4-7 bands, and every conv at 16x16 or
    coarser in one. The bands, the row taps' spans and order and every
    slice are planned once per shape (``_correlate_plan``, ``_tap_plan``);
    a call builds Q, runs the GEMM and sums the slices, and backward reads
    the forward plan's row spans for the weight gradient.

    Backward is two more GEMM steps. The weight gradient is m GEMMs over the
    whole image, one per row tap: its block gw[:, :, a] is (Q_a @ g_a^T)^T,
    g_a the output gradient's rows that tap a reads inside the input and Q_a
    those input rows of Q (a range of Q's columns), rebuilt from x. Banding
    these would split their sums over pixels and change gw's rounding. That
    whole-image Q is dropped as soon as gw is formed, before the
    input-gradient pass starts (for ``up4.conv1`` of an n=64, width-8
    MFP-Unet it is 786,432 bytes). The input gradient is the same 'same'
    kernel on g with the flipped, transposed kernel
    w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).

    ``relu=True`` is ``relu(conv2d(...))`` in one op, bit for bit: the ReLU
    runs in place on the output, so no pre-activation copy stays on the
    tape, and backward masks g by ``out > 0`` in place before the conv
    gradients: ``autograd.backward`` hands each closure its node's own
    gradient and drops it afterwards, so no mask-sized copy is made.
    """
    c_in, h, w = x.shape
    o_ch, c_w, m, m2 = weight.shape
    if m != m2 or m % 2 == 0:
        raise ContractViolation(f"kernel must be square with an odd extent, got {m}x{m2}")
    if c_in != c_w:
        raise ContractViolation(f"conv2d channel mismatch: input {c_in}, weight expects {c_w}")
    if dilation < 1:
        raise ContractViolation(f"dilation must be >= 1, got {dilation}")
    if h < 1 or w < 1:
        raise ContractViolation(f"conv2d needs a non-empty input, got {h}x{w}")

    # Q's rows run (b, c), not (c, b): this copy then moves runs of C values,
    # where runs of the m taps made it ~5x slower at 128x128 channels
    ws = _kernel(weight.data, "ws",
                 lambda wd: wd.transpose(2, 0, 3, 1).reshape(m * o_ch, m * c_in))
    out_data, rows = _correlate(x.data, ws, bias.data[:, None, None], dilation)
    if relu:
        np.maximum(out_data, 0, out=out_data)

    def backward(g):
        if relu:  # g is this node's own gradient, spent once backward returns
            np.multiply(g, out_data > 0, out=g)
        if weight.requires_grad:
            taps = _column_taps(x.data, m, dilation).reshape(m * c_in, h, w)
            gwt = np.empty((m, m * c_in, o_ch), dtype=g.dtype)
            for a, (dst, src) in enumerate(rows):
                k = (dst.stop - dst.start) * w
                np.matmul(taps[:, src].reshape(m * c_in, k), g[:, dst].reshape(o_ch, k).T,
                          out=gwt[a])
            del taps  # the whole image's Q, not needed by the input-gradient pass
            weight.accumulate_grad(gwt.reshape(m, m, c_in, o_ch).transpose(3, 2, 0, 1),
                                   owned=True)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(1, 2)), owned=True)
        if x.requires_grad:
            flipped = _kernel(weight.data, "flipped", lambda wd: wd[:, :, ::-1, ::-1].transpose(
                2, 1, 3, 0).reshape(m * c_in, m * o_ch))
            x.accumulate_grad(_correlate(g, flipped, 0, dilation)[0], owned=True)

    return _result(out_data, (x, weight, bias), backward, "conv2d")


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); gradient passes where x > 0. A NaN input
    stays NaN (and gets no gradient)."""
    data = np.maximum(x.data, 0)

    def backward(g):
        x.accumulate_grad(g * (data > 0), owned=True)

    return _result(data, (x,), backward, "relu")


def max_pool2d(x: Tensor) -> Tensor:
    """2x2 non-overlapping max pooling; gradient routes to the argmax
    (first position in row-major order on ties)."""
    _, h, w = x.shape
    if h % 2 or w % 2:
        raise ContractViolation(f"max_pool2d needs even extents, got {h}x{w}")
    row_max = np.maximum(x.data[:, 0::2], x.data[:, 1::2])
    pooled = np.maximum(row_max[:, :, 0::2], row_max[:, :, 1::2])

    def backward(g):
        # each block's gradient goes to the first position in row-major
        # order that holds its maximum, or its first NaN (the NaN is the
        # maximum), as argmax picks. np.maximum returns one of its inputs,
        # so every block has such a position: the last is hit when the
        # first three are not. Each position's gradient is written in one
        # pass, as g's bits ANDed with an all-ones or all-zeros mask.
        c, hp, wp = pooled.shape
        x5 = x.data.reshape(c, hp, 2, wp, 2)
        nan = np.isnan(pooled).any()
        bits = np.dtype(f"u{x.data.itemsize}")
        gx = np.empty(x5.shape, dtype=x.data.dtype)
        gb, gxb = g.astype(gx.dtype, copy=False).view(bits), gx.view(bits)
        free = None
        for r, s in ((0, 0), (0, 1), (1, 0)):
            xs = x5[:, :, r, :, s]
            hit = xs == pooled
            if nan:
                hit |= xs != xs
            if free is None:
                free = ~hit
            else:
                hit &= free
                free ^= hit
            np.bitwise_and(gb, np.subtract(0, hit, dtype=bits), out=gxb[:, :, r, :, s])
        np.bitwise_and(gb, np.subtract(0, free, dtype=bits), out=gxb[:, :, 1, :, 1])
        x.accumulate_grad(gx.reshape(x.shape), owned=True)

    return _result(pooled, (x,), backward, "max_pool2d")


def transposed_conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Transposed convolution with an m x m kernel at stride m, the kernel's
    own extent: each input element scatters weight*value into its own
    m x m output block, so the blocks never overlap,
    out[o, i*m + a, j*m + b] = bias[o] + sum_c w[o,c,a,b] * x[c,i,j].

    One GEMM Y = Wm @ x with rows (a, b, o), Wm[(a,b,o), c] = w[o,c,a,b];
    each (a, b) block of Y plus the bias is written straight into the
    strided view out5[:, :, a, :, b] of out5 = out.reshape(O, H, m, W, m).
    Backward gathers g once into G[o,a,b,i,j] = g[o, i*m + a, j*m + b],
    read as the (O*m*m, H*W) matrix: gw is G @ x^T and gx is w^T @ G.
    """
    c_in, h, w = x.shape
    o_ch, c_w, m, m2 = weight.shape
    if m != m2:
        raise ContractViolation(f"transposed_conv2d kernel must be square, got {m}x{m2}")
    if c_in != c_w:
        raise ContractViolation(f"transposed_conv2d channel mismatch: {c_in} vs {c_w}")

    wm = _kernel(weight.data, "wm",
                 lambda wd: wd.transpose(2, 3, 0, 1).reshape(m * m * o_ch, c_in))
    y = np.dot(wm, x.data.reshape(c_in, h * w)).reshape(m, m, o_ch, h, w)
    out5 = np.empty((o_ch, h, m, w, m), dtype=y.dtype)
    b_col = bias.data[:, None, None]
    for a in range(m):
        for b in range(m):
            np.add(y[a, b], b_col, out=out5[:, :, a, :, b])

    def backward(g):
        gm = np.ascontiguousarray(g.reshape(o_ch, h, m, w, m).transpose(0, 2, 4, 1, 3)
                                  ).reshape(o_ch * m * m, h * w)
        if weight.requires_grad:
            gw = np.dot(gm, x.data.reshape(c_in, h * w).T)  # (O*m*m, C)
            weight.accumulate_grad(gw.reshape(o_ch, m, m, c_in).transpose(0, 3, 1, 2), owned=True)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(1, 2)), owned=True)
        if x.requires_grad:
            wt = _kernel(weight.data, "wt",
                         lambda wd: wd.transpose(1, 0, 2, 3).reshape(c_in, o_ch * m * m))
            x.accumulate_grad(np.dot(wt, gm).reshape(c_in, h, w), owned=True)

    return _result(out5.reshape(o_ch, h * m, w * m), (x, weight, bias), backward,
                   "transposed_conv2d")


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Replicate each pixel factor x factor; backward sums each block."""
    if factor < 1:
        raise ContractViolation(f"upsample factor must be >= 1, got {factor}")
    if factor == 1:
        data = x.data.copy()
    else:
        data = np.repeat(np.repeat(x.data, factor, axis=1), factor, axis=2)

    def backward(g):
        c, h, w = x.shape
        x.accumulate_grad(g.reshape(c, h, factor, w, factor).sum(axis=(2, 4)), owned=True)

    return _result(data, (x,), backward, "upsample_nearest")


def concat_channels(xs: list[Tensor]) -> Tensor:
    """Concatenate along the channel axis; spatial extents must agree."""
    if not xs:
        raise ContractViolation("concat_channels needs at least one input")
    hw = xs[0].shape[1:]
    for t in xs[1:]:
        if t.shape[1:] != hw:
            raise ContractViolation(f"concat spatial mismatch: {t.shape[1:]} vs {hw}")
    data = np.concatenate([t.data for t in xs], axis=0)

    def backward(g):
        offset = 0
        for t in xs:
            c = t.shape[0]
            if t.requires_grad:
                t.accumulate_grad(g[offset:offset + c])
            offset += c

    return _result(data, tuple(xs), backward, "concat_channels")


def mfp_head(taps: list[Tensor], weight: Tensor, bias: Tensor) -> Tensor:
    """Every network's head (``Model.forward``): the 1x1 classifier of the
    nearest-upsampled tap concatenation,
    conv2d(concat_channels([upsample_nearest(t_k, f_k), ...]), weight, bias),
    computed at each tap's own resolution. It takes any list of taps whose
    extents divide the first's; the plain nets pass one, where it equals
    the 1x1 conv2d bit for bit. A 1x1 conv commutes with nearest
    upsampling, so with W_k tap k's block of the weight's columns (in tap
    order) and f_k its upsampling factor to the first tap's extent,

        out = bias + sum_k up_{f_k}(W_k @ tap_k),

    each term broadcast-added through an (O, h, f, w, f) view of the output;
    nothing is upsampled. Backward block-sums g to each tap's resolution,
    gz_k, and gives gW_k = gz_k @ tap_k^T, g_tap_k = W_k^T @ gz_k and
    g_bias = sum(g). Equal to the conv form up to summation order.
    """
    o_ch, c_w, m, m2 = weight.shape
    if m != 1 or m2 != 1:
        raise ContractViolation(f"mfp_head needs a 1x1 kernel, got {m}x{m2}")
    _, n_h, n_w = taps[0].shape
    blocks = []  # (first column, last column + 1, factor) of each tap
    col = 0
    for t in taps:
        c, h, w = t.shape
        f = n_h // h
        if h * f != n_h or w * f != n_w:
            raise ContractViolation(f"tap extent {(h, w)} does not divide {(n_h, n_w)} evenly")
        blocks.append((col, col + c, f))
        col += c
    if col != c_w:
        raise ContractViolation(f"mfp_head taps have {col} channels, weight expects {c_w}")
    wmat = weight.data.reshape(o_ch, c_w)

    out = np.empty((o_ch, n_h, n_w), dtype=np.result_type(wmat, taps[0].data))
    out[...] = bias.data[:, None, None]
    for t, (lo, hi, f) in zip(taps, blocks):
        c, h, w = t.shape
        z = np.dot(wmat[:, lo:hi], t.data.reshape(c, h * w))
        out.reshape(o_ch, h, f, w, f)[...] += z.reshape(o_ch, h, 1, w, 1)

    def backward(g):
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(1, 2)), owned=True)
        gw = np.empty((o_ch, c_w), dtype=g.dtype)
        for t, (lo, hi, f) in zip(taps, blocks):
            c, h, w = t.shape
            if f == 1:
                gz = g.reshape(o_ch, h * w)
            else:  # rows of each block first (adjacent runs), then its columns
                gz = g.reshape(o_ch, h, f, n_w).sum(axis=2).reshape(o_ch, h * w, f).sum(axis=2)
            if weight.requires_grad:
                gw[:, lo:hi] = np.dot(gz, t.data.reshape(c, h * w).T)
            if t.requires_grad:
                t.accumulate_grad(np.dot(wmat[:, lo:hi].T, gz).reshape(c, h, w), owned=True)
        if weight.requires_grad:
            weight.accumulate_grad(gw.reshape(weight.shape), owned=True)

    return _result(out, (*taps, weight, bias), backward, "mfp_head")


def softmax_cross_entropy(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean over pixels of -log softmax(logits)[target class].

    logits: (K,H,W); target: (H,W) integer class map; for the binary
    segmentation head K = 2 and target values are in {0, 1}.
    """
    k, h, w = logits.shape
    target = np.asarray(target)
    if target.shape != (h, w):
        raise ContractViolation(f"target shape {target.shape} != logits spatial {(h, w)}")
    tgt = target.astype(np.int64, copy=False)
    if tgt.min() < 0 or tgt.max() >= k:
        raise ContractViolation(f"target values must lie in [0, {k - 1}]")

    z = logits.data
    zmax = z.max(axis=0)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=0)
    lse = zmax + np.log(sez)
    picked = np.take_along_axis(z, tgt[None], axis=0)[0]
    n = h * w
    loss_val = np.asarray((lse - picked).sum() / n, dtype=z.dtype)

    def backward(g):
        p = ez / sez
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, tgt[None], 1.0, axis=0)
        logits.accumulate_grad(g * (p - onehot) / n, owned=True)

    return _result(loss_val, (logits,), backward, "softmax_cross_entropy")


class Conv2d:
    """'Same' convolution layer (``conv2d``) owning its weight (out,in,m,m),
    m odd, and bias (out,), with its ReLU fused in when ``relu`` is set.
    ``rng`` draws the He-uniform weight; without one the weight is
    zero-filled, for a caller that sets it (a checkpoint read)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 dilation: int = 1, relu: bool = False,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.relu = relu
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        if rng is None:
            weight = np.zeros(shape, dtype=dtype)
        else:
            weight = he_uniform(shape, in_channels * kernel_size * kernel_size, rng, dtype)
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, dilation=self.dilation, relu=self.relu)


class TransposedConv2d(Conv2d):
    """Upsampling transposed convolution (``transposed_conv2d``): each input
    pixel fills its own m x m output block (2x2 in every network). It reads
    neither ``dilation`` nor ``relu``."""

    def __call__(self, x: Tensor) -> Tensor:
        return transposed_conv2d(x, self.weight, self.bias)


class SGD:
    """Stochastic gradient descent with momentum, weight decay, and a
    hyperbolic per-epoch learning-rate decay.

    Update per parameter: v <- mu*v + (grad + lambda*w); w <- w - eta*v.
    Learning rate after e epochs is eta0 / (1 + decay*e).
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 0.001,
                 momentum: float = 0.9, weight_decay: float = 0.0005,
                 lr_decay: float = 1e-4):
        if learning_rate <= 0:
            raise ContractViolation("learning rate must be positive")
        self.params = dict(params)
        self.lr0 = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.lr_decay = lr_decay
        self.epoch = 0
        self.velocity = {name: np.zeros_like(t.data) for name, t in self.params.items()}

    @property
    def learning_rate(self) -> float:
        return self.lr0 / (1.0 + self.lr_decay * self.epoch)

    def set_epoch(self, epoch: int) -> None:
        self.epoch = epoch

    def step(self) -> None:
        """Apply one update from the populated grads, then clear them."""
        lr = self.learning_rate
        for name, t in self.params.items():
            if t.grad is None:
                raise ContractViolation(f"parameter {name!r} has no gradient; run backward first")
            v = self.velocity[name]
            v *= self.momentum
            v += t.grad + self.weight_decay * t.data
            t.data -= (lr * v).astype(t.data.dtype, copy=False)
            t.grad = None


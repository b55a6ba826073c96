import gc
import tracemalloc

import numpy as np
import pytest

from lvseg.autograd import Tensor, backward, no_grad
from lvseg.errors import ContractViolation, NonFiniteLogits
from lvseg.layers import conv2d, fixed_weights, max_pool2d, relu, softmax_cross_entropy
from lvseg.models import (ARCH_DILATION, ARCH_TAGS, MAX_BASE_WIDTH, Model, build_mfp_unet,
                          check_spec, forward_segment, layer_specs)
from lvseg.phantom import generate_phantom
from lvseg.preprocess import compose_input
from lvseg.units import MAX_EXTENT_PX


def _rand_input(n, seed=0, dtype=np.float64):
    return Tensor(np.random.default_rng(seed).uniform(0, 1, (2, n, n)).astype(dtype))


def _classifier(model, features):
    """The model's 1x1 classifier applied to a full feature map."""
    return conv2d(features, model.params["classifier.weight"], model.params["classifier.bias"])


def _conv_dilations(monkeypatch, model, x):
    """Layer name -> the dilations of the ``conv2d`` calls one forward of
    ``model`` makes with that layer's weight, in call order: what each conv
    ran at, recorded from the calls themselves."""
    import lvseg.models

    layer_of = {id(t): name.rsplit(".", 1)[0] for name, t in model.params.items()}
    seen = {}

    def spy(x, weight, bias, dilation=1, relu=False):
        seen.setdefault(layer_of[id(weight)], []).append(dilation)
        return conv2d(x, weight, bias, dilation=dilation, relu=relu)

    with monkeypatch.context() as patch, no_grad():
        patch.setattr(lvseg.models, "conv2d", spy)
        model.forward(x)
    return seen


def test_unet_shape_contract():
    model = Model("unet", 64, 8, dtype=np.float64)
    out = model.forward(_rand_input(64))
    assert out.data.shape == (2, 64, 64)


def test_encoder_depth_and_width():
    model = Model("unet", 64, 8, dtype=np.float64)
    p = model.params
    h = _rand_input(64, seed=1)
    for lvl in range(1, 5):
        for conv in (f"enc{lvl}.conv1", f"enc{lvl}.conv2"):
            h = relu(conv2d(h, p[f"{conv}.weight"], p[f"{conv}.bias"]))
        h = max_pool2d(h)
    # four halvings: 64 -> 4; bottleneck doubles to 16*B channels
    assert h.data.shape[1:] == (4, 4)
    assert p["bottleneck.conv2.weight"].data.shape[0] == 16 * 8


def test_mfp_unet_tape_holds_no_separate_relu():
    # every 3x3 conv applies its ReLU in place, so the tape keeps no
    # pre-activation copy of a conv output alive through a relu node
    model = build_mfp_unet(32, 2, dtype=np.float64)
    out = model.forward(_rand_input(32))
    ops, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.append(node.op)
            stack.extend(node.parents)
    assert "relu" not in ops
    assert ops.count("conv2d") == 22  # 18 body convs and 4 pyramid convs


def test_skip_concat_doubles_decoder_input():
    model = Model("unet", 64, 8)
    for stage in range(1, 5):
        tconv, conv1 = (model.params[f"up{stage}.{layer}.weight"] for layer in ("tconv", "conv1"))
        assert conv1.data.shape[1] == 2 * conv1.data.shape[0]
        assert tconv.data.shape[0] == conv1.data.shape[0]


def test_dilated_degenerate_matches_unet(monkeypatch):
    # the two nets differ only in the dilation of their encoder and bottleneck
    unet = Model("unet", 64, 4, seed=2)
    degenerate = Model("dilated-unet", 64, 4, seed=2)
    assert unet.parameter_count() == degenerate.parameter_count()
    assert [t.data.shape for t in unet.parameters().values()] == \
           [t.data.shape for t in degenerate.parameters().values()]
    # every layer's dilation comes from layer_specs, which reads ARCH_DILATION
    monkeypatch.setitem(ARCH_DILATION, "dilated-unet", 1)
    degenerate = Model("dilated-unet", 64, 4, seed=2)
    x = _rand_input(64, seed=3, dtype=np.float32)
    assert unet.forward(x).data.tobytes() == degenerate.forward(x).data.tobytes()


def test_dilated_same_parameter_count_wider_receptive_field(monkeypatch):
    unet = Model("unet", 64, 4)
    dil = Model("dilated-unet", 64, 4)
    assert unet.parameter_count() == dil.parameter_count()
    [dilation] = _conv_dilations(monkeypatch, dil, _rand_input(64, dtype=np.float32))["enc1.conv1"]
    kernel_size = dil.params["enc1.conv1.weight"].data.shape[-1]
    assert dilation * (kernel_size - 1) + 1 == 5
    out = dil.forward(_rand_input(64, dtype=np.float32))
    assert out.data.shape == (2, 64, 64)


def test_mfp_pyramid_has_sixty_four_channels():
    model = build_mfp_unet(64, 8, dtype=np.float64)
    feats = model.features(_rand_input(64, seed=3))
    assert feats.data.shape == (64, 64, 64)
    assert model.params["classifier.weight"].data.shape[1] == 64


def test_mfp_pyramid_input_widths_follow_decoder_levels():
    model = build_mfp_unet(64, 8)
    pyramid = [model.params[f"pyramid{stage}.conv.weight"] for stage in range(1, 5)]
    widths = [weight.data.shape[1] for weight in pyramid]
    assert widths == [64, 32, 16, 8]  # up1 deepest .. up4 full resolution
    assert all(weight.data.shape[0] == 16 for weight in pyramid)


def test_mfp_shape_contract():
    model = build_mfp_unet(64, 8, dtype=np.float64)
    out = model.forward(_rand_input(64, seed=4))
    assert out.data.shape == (2, 64, 64)


def test_mfp_parameter_census_formula():
    for b in (2, 4, 8):
        dil = Model("dilated-unet", 64, b)
        mfp = build_mfp_unet(64, b)
        widths = [8 * b, 4 * b, 2 * b, b]  # channels at up1..up4
        pyramid = sum(3 * 3 * c * 16 + 16 for c in widths)
        expected = (dil.parameter_count() + pyramid
                    + (64 * 2 + 2) - (b * 2 + 2))
        assert mfp.parameter_count() == expected


def test_parameter_names_unique_and_stable():
    a = build_mfp_unet(32, 2, seed=7)
    b = build_mfp_unet(32, 2, seed=7)
    names_a = list(a.parameters())
    assert len(names_a) == len(set(names_a))
    assert names_a == list(b.parameters())
    for ta, tb in zip(a.parameters().values(), b.parameters().values()):
        assert np.array_equal(ta.data, tb.data)


def test_forward_segment_pure_function():
    model = build_mfp_unet(32, 2, seed=1, dtype=np.float64)
    x = _rand_input(32, seed=9)
    m1 = forward_segment(model, x)
    m2 = forward_segment(model, x)
    assert np.array_equal(m1, m2)
    assert m1.shape == (32, 32)
    assert set(np.unique(m1)) <= {0, 1}


def test_forward_segment_background_dominant():
    model = Model("unet", 32, 2, seed=1)
    model.params["classifier.weight"].data[:] = 0
    model.params["classifier.bias"].data[:] = [5.0, 0.0]
    mask = forward_segment(model, _rand_input(32, seed=2, dtype=np.float32))
    assert not mask.any()


def test_forward_segment_sign_map_of_chosen_feature():
    model = build_mfp_unet(32, 2, seed=3, dtype=np.float64)
    x = _rand_input(32, seed=5)
    feats = model.features(x)
    k = 11
    weight, bias = model.params["classifier.weight"], model.params["classifier.bias"]
    weight.data[:] = 0
    bias.data[:] = 0
    weight.data[1, k, 0, 0] = 1.0
    mask = forward_segment(model, x)
    assert np.array_equal(mask, (feats.data[k] > 0).astype(np.uint8))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch", ["unet", "dilated-unet", "mfp-unet"])
def test_forward_segment_equals_argmax_of_taped_logits(arch, dtype):
    model = Model(arch, 32, 2, dtype=dtype, seed=4)
    x = _rand_input(32, seed=6, dtype=dtype)
    logits = model.forward(x)
    assert logits.requires_grad  # Model.forward itself stays taped
    assert np.array_equal(forward_segment(model, x),
                          np.argmax(logits.data, axis=0).astype(np.uint8))


@pytest.mark.parametrize("n", [16, 32, 64])
def test_mfp_forward_equals_the_classifier_of_the_features_float64(n):
    model = build_mfp_unet(n, 4, seed=n, dtype=np.float64)
    x = _rand_input(n, seed=n + 1)
    with no_grad():
        split = model.forward(x).data
        full = _classifier(model, model.features(x)).data
    assert np.abs(split - full).max() < 1e-12


@pytest.mark.parametrize("n", [64, 128])
def test_mfp_forward_argmax_equals_the_classifier_of_the_features_on_phantoms(n):
    model = build_mfp_unet(n, 8, seed=5, dtype=np.float32)
    for seed in range(3):
        x = Tensor(compose_input(generate_phantom(n, seed)[0]))
        with no_grad():
            split = model.forward(x).data
            full = _classifier(model, model.features(x)).data
        assert np.abs(split - full).max() < 1e-5
        assert np.array_equal(np.argmax(split, axis=0), np.argmax(full, axis=0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch,dilation", [("unet", 1), ("dilated-unet", 2)])
def test_plain_forward_is_the_1x1_classifier_of_the_tap_bit_for_bit(arch, dilation, dtype):
    x = _rand_input(32, seed=8, dtype=dtype)
    g = Tensor(np.random.default_rng(9).normal(size=(2, 32, 32)).astype(dtype))
    runs = []
    for logits_of in (lambda m: m.forward(x), lambda m: _classifier(m, m._taps(x)[0])):
        model = Model(arch, 32, 2, dtype=dtype, seed=7)
        assert model.dilation == dilation
        logits = logits_of(model)
        backward((logits * g).sum())
        runs.append([logits.data] + [p.grad for p in model.parameters().values()])
    for got, want in zip(*runs):
        assert got.tobytes() == want.tobytes()


def test_forward_segment_leaves_no_reference_cycles():
    model = build_mfp_unet(32, 2, seed=1)
    x = _rand_input(32, seed=3, dtype=np.float32)
    gc.collect()
    gc.disable()
    try:
        forward_segment(model, x)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_forward_segment_heap_peak_at_n128():
    # Measured 3.45 MB: conv GEMMs in row bands and each activation dropped
    # once consumed. Whole-image Q and Y with activations kept to the end of
    # their level read 6.88 MB, and either change alone 4.86 or 5.94 MB, so
    # the bound (the measured value plus 16 %) guards both.
    model = build_mfp_unet(128, 8, seed=1)
    x = _rand_input(128, seed=1, dtype=np.float32)
    with fixed_weights():
        forward_segment(model, x)  # lays out the kernel matrices
        tracemalloc.start()
        try:
            forward_segment(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4.0 * 2**20, peak


def test_taped_gradients_unchanged_by_a_prior_forward_segment():
    def grads(segment_first):
        model = build_mfp_unet(32, 2, seed=2)
        x = _rand_input(32, seed=8, dtype=np.float32)
        if segment_first:
            forward_segment(model, x)
        backward(softmax_cross_entropy(model.forward(x), np.eye(32, dtype=int)))
        return {name: t.grad for name, t in model.parameters().items()}

    plain, after = grads(False), grads(True)
    for name, g in plain.items():
        assert after[name] is not None and np.array_equal(g, after[name]), name


def test_invalid_configs_rejected():
    with pytest.raises(ContractViolation):
        Model("unet", 60, 8)  # not a multiple of 16
    with pytest.raises(ContractViolation):
        Model("unet", 64, 1)  # base width too small
    with pytest.raises(ContractViolation):
        Model("resnet", 64, 4)


def test_an_extent_past_the_bound_is_rejected_before_any_allocation():
    Model("unet", MAX_EXTENT_PX, 2, seed=None)  # builds: no parameter depends on n
    for n in (MAX_EXTENT_PX + 16, 2**32 - 16, 10**23):
        with pytest.raises(ContractViolation, match=f"must be <= {MAX_EXTENT_PX}, got {n}"):
            check_spec("unet", n, 2)
    # numpy refused 2**62 channels with a ValueError
    check_spec("mfp-unet", 16, MAX_BASE_WIDTH)
    for width in (MAX_BASE_WIDTH + 1, 2**62):
        with pytest.raises(ContractViolation,
                           match=f"base width must be <= {MAX_BASE_WIDTH}, got {width}"):
            check_spec("mfp-unet", 16, width)


def test_unet_with_dilation_rejected(monkeypatch):
    # the architecture fixes the dilation: a unet runs every conv at 1
    with pytest.raises(TypeError):
        Model("unet", 32, 2, dilation=2)
    assert ARCH_DILATION == {"unet": 1, "dilated-unet": 2, "mfp-unet": 2}
    assert ARCH_TAGS == tuple(ARCH_DILATION)
    for arch, dilation in ARCH_DILATION.items():
        model = Model(arch, 32, 2, seed=None)
        assert model.dilation == dilation
        ran = _conv_dilations(monkeypatch, model, _rand_input(32, dtype=np.float32))
        # every 3x3 layer runs through conv2d once; the transposed convs and
        # the 1x1 classifier run through functions that take no dilation
        assert sorted(ran) == sorted(name for name, *_, m, _ in layer_specs(arch, 2) if m == 3)
        for name, dilations in ran.items():
            encoder = name.startswith(("enc", "bottleneck"))
            assert dilations == [dilation if encoder else 1], (arch, name)


def test_input_shape_mismatch_rejected():
    model = Model("unet", 32, 2)
    with pytest.raises(ContractViolation):
        model.forward(Tensor(np.zeros((2, 64, 64), dtype=np.float32)))
    with pytest.raises(ContractViolation):
        model.forward(Tensor(np.zeros((1, 32, 32), dtype=np.float32)))


class _FixedLogits:
    """A stand-in model whose forward returns the logits it was given."""

    dtype = np.float64

    def __init__(self, logits):
        self.logits = logits

    def forward(self, x):
        return Tensor(self.logits)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_segment_mask_equals_argmax_on_ties_and_nan(dtype):
    rng = np.random.default_rng(6)
    random = rng.normal(size=(2, 16, 16))
    tied = rng.integers(-1, 2, size=(2, 16, 16)).astype(float)
    tied[:, :4] = 0.0
    tied[0, 4:6] = -0.0
    nans = rng.integers(-1, 2, size=(2, 16, 16)).astype(float)
    nans[rng.random(nans.shape) < 0.3] = np.nan
    nans[:, 0, 0] = np.nan
    infs = rng.choice([-np.inf, np.inf, np.nan, 0.0], size=(2, 16, 16))
    for logits in (random, tied):
        logits = logits.astype(dtype)
        mask = forward_segment(_FixedLogits(logits), Tensor(np.zeros((2, 16, 16), dtype)))
        assert mask.dtype == np.uint8
        assert np.array_equal(mask, np.argmax(logits, axis=0))
    for logits in (nans, infs):
        with pytest.raises(NonFiniteLogits, match="non-finite logits"):
            forward_segment(_FixedLogits(logits.astype(dtype)),
                            Tensor(np.zeros((2, 16, 16), dtype)))


@pytest.mark.parametrize("arch,dilation", [("unet", 1), ("dilated-unet", 2), ("mfp-unet", 2)])
def test_undrawn_model_matches_seeded_layout(arch, dilation):
    from lvseg.models import parameter_shapes

    seeded = Model(arch, 32, 4, seed=3).parameters()
    undrawn = Model(arch, 32, 4, seed=None).parameters()
    assert Model(arch, 32, 4, seed=None).dilation == dilation
    assert list(undrawn) == list(seeded)
    for name, tensor in undrawn.items():
        assert tensor.data.shape == seeded[name].data.shape, name
        assert tensor.data.dtype == seeded[name].data.dtype == np.float32, name
        assert not tensor.data.any() and tensor.requires_grad, name
    assert parameter_shapes(arch, 32, 4) == {
        name: t.data.shape for name, t in seeded.items()}

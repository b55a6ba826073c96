"""Topology builders for the three segmentation networks.

All three share a 4-level encoder-decoder body: two 3x3 conv+ReLU per
level, 2x2 max pooling on the way down (channel width doubling each
time), transposed-conv upsampling with skip concatenation on the way up.
The dilated variant widens the receptive field by running the encoder and
bottleneck convolutions at dilation 2 (padding widened to keep extents
level-constant); the decoder stays at dilation 1, which keeps fine
boundary localization intact (a stack dilated end to end samples a sparse
lattice at the finest level and visibly quantizes the predicted border).
The multi-feature-pyramid variant additionally taps every decoder level
through a 3x3 conv to 16 channels, upsamples each tap to full resolution,
concatenates the four taps into a 64-channel map (``features``), and
classifies that with a 1x1 convolution. ``forward`` gets the same logits
without the map: a 1x1 conv commutes with nearest upsampling, so
``layers.mfp_head`` classifies each tap at its own resolution and
upsamples only the 2-channel sums.

The input is a 2-channel square image (raw intensity plus the thresholded
contrast channel); the output is a 2-channel logit map (background,
foreground). Decoder stages are indexed up1..up4 with up1 the deepest
(coarsest) stage and up4 at full resolution.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, no_grad
from .errors import ContractViolation
from .layers import (Conv2d, TransposedConv2d, concat_channels, max_pool2d, mfp_head, relu,
                     upsample_nearest)

ARCH_TAGS = ("unet", "dilated-unet", "mfp-unet")
IN_CHANNELS = 2
OUT_CHANNELS = 2
LEVELS = 4
PYRAMID_CHANNELS = 16


def check_spec(arch: str, n: int, base_width: int, dilation: int) -> None:
    """Raise ContractViolation for a spec no network can be built from;
    ``RunConfig`` checks its model fields with this too."""
    if arch not in ARCH_TAGS:
        raise ContractViolation(f"unknown architecture tag {arch!r}")
    if n % 16 != 0 or n <= 0:
        raise ContractViolation(f"input extent must be a positive multiple of 16, got {n}")
    if base_width < 2:
        raise ContractViolation(f"base width must be >= 2, got {base_width}")
    if dilation < 1:
        raise ContractViolation(f"dilation must be >= 1, got {dilation}")
    if arch == "unet" and dilation != 1:
        raise ContractViolation("unet uses dilation 1")


def layer_specs(arch: str, base_width: int, dilation: int) -> list[tuple[str, int, int, int, int]]:
    """(name, in channels, out channels, kernel, dilation) of every layer,
    in construction order, which is also the parameter order. A 2x2 kernel
    is a stride-2 transposed conv; the others are convs whose "same"
    padding keeps extents constant within a level."""
    B = base_width
    specs = []
    cin = IN_CHANNELS
    for lvl in range(1, LEVELS + 1):
        cout = B * (2 ** (lvl - 1))
        specs += [(f"enc{lvl}.conv1", cin, cout, 3, dilation),
                  (f"enc{lvl}.conv2", cout, cout, 3, dilation)]
        cin = cout
    specs += [("bottleneck.conv1", 8 * B, 16 * B, 3, dilation),
              ("bottleneck.conv2", 16 * B, 16 * B, 3, dilation)]
    for stage in range(1, LEVELS + 1):  # up1 deepest .. up4 full resolution
        cup = B * (2 ** (LEVELS - stage))        # channels after upsampling
        specs += [(f"up{stage}.tconv", 2 * cup, cup, 2, 1),
                  (f"up{stage}.conv1", 2 * cup, cup, 3, 1),  # skip concat doubles the input
                  (f"up{stage}.conv2", cup, cup, 3, 1)]
    if arch == "mfp-unet":
        specs += [(f"pyramid{stage}.conv", B * (2 ** (LEVELS - stage)), PYRAMID_CHANNELS, 3, 1)
                  for stage in range(1, LEVELS + 1)]
        cls_in = LEVELS * PYRAMID_CHANNELS
    else:
        cls_in = B
    specs.append(("classifier", cls_in, OUT_CHANNELS, 1, 1))
    return specs


def parameter_shapes(arch: str, n: int, base_width: int,
                     dilation: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in ``Model.parameters()`` order,
    without building the model; ``check_spec`` vets the spec first."""
    check_spec(arch, n, base_width, dilation)
    shapes = {}
    for name, cin, cout, m, _ in layer_specs(arch, base_width, dilation):
        shapes[f"{name}.weight"] = (cout, cin, m, m)
        shapes[f"{name}.bias"] = (cout,)
    return shapes


class Model:
    """Ordered layer graph; ``layers`` maps each layer's name to the layer,
    in construction order, which is also the parameter order.

    ``seed`` draws the He-uniform initial weights. ``seed=None`` draws
    nothing: every parameter is zero-filled, for a caller that overwrites
    them all, as ``checkpoint_read`` does."""

    def __init__(self, arch: str, n: int, base_width: int, dilation: int,
                 dtype=np.float32, seed: int | None = 0):
        check_spec(arch, n, base_width, dilation)
        self.arch = arch
        self.n = n
        self.base_width = base_width
        self.dilation = dilation
        self.dtype = dtype
        rng = None if seed is None else np.random.default_rng(seed)
        self.layers: dict[str, Conv2d] = {}
        for name, cin, cout, m, d in layer_specs(arch, base_width, dilation):
            if m == 2:
                self.layers[name] = TransposedConv2d(cin, cout, rng=rng, dtype=dtype)
            else:
                self.layers[name] = Conv2d(cin, cout, m, dilation=d, padding=d * (m - 1) // 2,
                                           rng=rng, dtype=dtype)

        L = self.layers
        levels = range(1, LEVELS + 1)
        self.encoders = [(L[f"enc{lvl}.conv1"], L[f"enc{lvl}.conv2"]) for lvl in levels]
        self.bottleneck = (L["bottleneck.conv1"], L["bottleneck.conv2"])
        self.decoders = [(L[f"up{s}.tconv"], L[f"up{s}.conv1"], L[f"up{s}.conv2"])
                         for s in levels]
        self.pyramid = [L[f"pyramid{s}.conv"] for s in levels] if arch == "mfp-unet" else None
        self.classifier = L["classifier"]

    # -- forward -------------------------------------------------------

    def _taps(self, x: Tensor) -> list[Tensor]:
        """What the classifier reads, before any upsampling: the topmost
        decoder output for the plain variants; for MFP-Unet the four
        pyramid taps, each at its own level's resolution, full-resolution
        tap first and deepest last (the concatenation order)."""
        if x.shape != (IN_CHANNELS, self.n, self.n):
            raise ContractViolation(
                f"input shape {x.shape} does not match model spec {(IN_CHANNELS, self.n, self.n)}")

        skips = []
        h = x
        for conv1, conv2 in self.encoders:
            h = relu(conv2(relu(conv1(h))))
            skips.append(h)
            h = max_pool2d(h)
        conv1, conv2 = self.bottleneck
        h = relu(conv2(relu(conv1(h))))

        ups = []
        for stage, (tconv, conv1, conv2) in enumerate(self.decoders, start=1):
            h = tconv(h)
            h = concat_channels([h, skips[LEVELS - stage]])
            h = relu(conv2(relu(conv1(h))))
            ups.append(h)

        if self.pyramid is None:
            return [ups[-1]]
        return [relu(conv(up)) for conv, up in zip(self.pyramid[::-1], ups[::-1])]

    def features(self, x: Tensor) -> Tensor:
        """Pre-classifier feature map: the topmost decoder output for the
        plain variants; for MFP-Unet the 64-channel concatenation of the
        four pyramid taps, each upsampled (nearest) to full resolution.
        ``forward`` computes the same logits without building it."""
        taps = self._taps(x)
        if self.pyramid is None:
            return taps[0]
        return concat_channels([upsample_nearest(t, self.n // t.shape[1]) for t in taps])

    def forward(self, x: Tensor) -> Tensor:
        """2-channel logit map of shape (2, N, N), classifier(features(x)).
        MFP-Unet classifies each tap at its own resolution (``mfp_head``)
        and upsamples only the 2-channel sums, which equals the 1x1
        classifier on the 64-channel map up to summation order."""
        taps = self._taps(x)
        if self.pyramid is None:
            return self.classifier(taps[0])
        return mfp_head(taps, self.classifier.weight, self.classifier.bias)

    # -- parameters ----------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        """Stable name -> tensor map (insertion ordered)."""
        return {f"{name}.{attr}": getattr(layer, attr)
                for name, layer in self.layers.items() for attr in ("weight", "bias")}

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self.parameters().values())

    def zero_grad(self) -> None:
        for t in self.parameters().values():
            t.zero_grad()


def build_unet(n: int, base_width: int, dtype=np.float32, seed: int = 0) -> Model:
    """Plain encoder-decoder with skip concatenation and a 1x1 classifier."""
    return Model("unet", n, base_width, dilation=1, dtype=dtype, seed=seed)


def build_dilated_unet(n: int, base_width: int, dilation: int = 2,
                       dtype=np.float32, seed: int = 0) -> Model:
    """Identical topology with every 3x3 convolution dilated (same parameter count)."""
    return Model("dilated-unet", n, base_width, dilation=dilation, dtype=dtype, seed=seed)


def build_mfp_unet(n: int, base_width: int, dilation: int = 2,
                   dtype=np.float32, seed: int = 0) -> Model:
    """Dilated body plus the per-level feature pyramid feeding a 64-channel classifier."""
    return Model("mfp-unet", n, base_width, dilation=dilation, dtype=dtype, seed=seed)


def forward_segment(model: Model, image_2ch: Tensor | np.ndarray) -> np.ndarray:
    """Binary N x N mask: per-pixel argmax over the 2 logit channels,
    channel 1 being foreground. The forward pass runs under ``no_grad``,
    so it records no tape and each activation is freed once consumed.

    The argmax of two channels is 1 where l1 > l0 or where l1 alone is NaN
    (argmax picks the first NaN), which is where l0 >= l1 fails and l0 is
    not NaN: one compare instead of a reduction over an axis of 2."""
    if not isinstance(image_2ch, Tensor):
        image_2ch = Tensor(np.asarray(image_2ch, dtype=model.dtype))
    with no_grad():
        l0, l1 = model.forward(image_2ch).data
    return (~(l0 >= l1) & ~np.isnan(l0)).astype(np.uint8)

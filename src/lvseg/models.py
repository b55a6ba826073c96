"""The three segmentation networks: ``Model(tag, n, base_width)`` builds
any of them from its tag in ``ARCH_TAGS``.

All three share a 4-level encoder-decoder body: two 3x3 conv+ReLU per
level, 2x2 max pooling on the way down (channel width doubling each
time), transposed-conv upsampling with skip concatenation on the way up.
Each architecture fixes its own dilation, in ``ARCH_DILATION``: U-net
runs every conv at dilation 1, while the dilated variant and MFP-Unet
widen the receptive field by running the encoder and bottleneck
convolutions at dilation 2 ('same' padding keeps extents
level-constant). The decoder stays at dilation 1, which keeps fine
boundary localization intact (a stack dilated end to end samples a sparse
lattice at the finest level and visibly quantizes the predicted border).

Every network ends in one head, ``layers.mfp_head``: the 1x1 classifier
of its taps, nearest-upsampled to full resolution and concatenated. The
plain variants have one tap, the topmost decoder output. The
multi-feature-pyramid variant taps every decoder level through a 3x3 conv
to 16 channels, so its head reads four taps, 64 channels in all.
``_taps`` is the one place that knows which a network has.

The input is a 2-channel square image (raw intensity plus the thresholded
contrast channel); the output is a 2-channel logit map (background,
foreground). Decoder stages are indexed up1..up4 with up1 the deepest
(coarsest) stage and up4 at full resolution.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, no_grad
from .errors import ContractViolation, NonFiniteLogits
from .layers import (Conv2d, TransposedConv2d, concat_channels, max_pool2d, mfp_head,
                     upsample_nearest)
from .units import MAX_EXTENT_PX

# the dilation of each network's encoder and bottleneck convolutions
ARCH_DILATION = {"unet": 1, "dilated-unet": 2, "mfp-unet": 2}
ARCH_TAGS = tuple(ARCH_DILATION)
IN_CHANNELS = 2
OUT_CHANNELS = 2
LEVELS = 4
PYRAMID_CHANNELS = 16
# the bottleneck's 16*MAX_BASE_WIDTH channels keep every parameter extent
# inside a checkpoint's 32-bit fields and every parameter's byte count
# inside numpy's; a net that wide runs out of memory first, a named error
MAX_BASE_WIDTH = 65536


def check_spec(arch: str, n: int, base_width: int) -> None:
    """Raise ContractViolation for a spec no network can be built from;
    ``RunConfig`` checks its model fields with this too."""
    if arch not in ARCH_TAGS:
        raise ContractViolation(f"unknown architecture tag {arch!r}")
    if n % 16 != 0 or n <= 0:
        raise ContractViolation(f"input extent must be a positive multiple of 16, got {n}")
    if n > MAX_EXTENT_PX:
        raise ContractViolation(f"input extent must be <= {MAX_EXTENT_PX}, got {n}")
    if base_width < 2:
        raise ContractViolation(f"base width must be >= 2, got {base_width}")
    if base_width > MAX_BASE_WIDTH:
        raise ContractViolation(f"base width must be <= {MAX_BASE_WIDTH}, got {base_width}")


def layer_specs(arch: str, base_width: int) -> list[tuple[str, int, int, int, int]]:
    """(name, in channels, out channels, kernel, dilation) of every layer,
    in construction order, which is also the parameter order. The encoder
    and bottleneck convs take the architecture's ``ARCH_DILATION``, every
    other layer 1. A 2x2 kernel is a transposed conv, which doubles the
    extents; every other layer is a 'same' conv (``conv2d``: stride 1,
    dilation*(kernel - 1)//2 zeros on each side), so extents stay constant
    within a level. Every 3x3 conv applies its ReLU fused
    (``Conv2d(relu=True)``); the 1x1 classifier is the head's weight."""
    B = base_width
    d = ARCH_DILATION[arch]
    specs = []
    cin = IN_CHANNELS
    for lvl in range(1, LEVELS + 1):
        cout = B * (2 ** (lvl - 1))
        specs += [(f"enc{lvl}.conv1", cin, cout, 3, d),
                  (f"enc{lvl}.conv2", cout, cout, 3, d)]
        cin = cout
    specs += [("bottleneck.conv1", 8 * B, 16 * B, 3, d),
              ("bottleneck.conv2", 16 * B, 16 * B, 3, d)]
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


def parameter_shapes(arch: str, n: int, base_width: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in ``Model.parameters()`` order,
    without building the model; ``check_spec`` vets the spec first."""
    check_spec(arch, n, base_width)
    shapes = {}
    for name, cin, cout, m, _ in layer_specs(arch, base_width):
        shapes[f"{name}.weight"] = (cout, cin, m, m)
        shapes[f"{name}.bias"] = (cout,)
    return shapes


class Model:
    """Ordered layer graph; ``layers`` maps each layer's name to the layer,
    in construction order, which is also the parameter order.

    ``seed`` draws the He-uniform initial weights. ``seed=None`` draws
    nothing: every parameter is zero-filled, for a caller that overwrites
    them all, as ``checkpoint_read`` does."""

    def __init__(self, arch: str, n: int, base_width: int,
                 dtype=np.float32, seed: int | None = 0):
        check_spec(arch, n, base_width)
        self.arch = arch
        self.n = n
        self.base_width = base_width
        self.dilation = ARCH_DILATION[arch]
        self.dtype = dtype
        rng = None if seed is None else np.random.default_rng(seed)
        self.layers: dict[str, Conv2d] = {}
        for name, cin, cout, m, d in layer_specs(arch, base_width):
            kind = TransposedConv2d if m == 2 else Conv2d
            self.layers[name] = kind(cin, cout, m, dilation=d, relu=m == 3, rng=rng, dtype=dtype)

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
        """What the head reads, before any upsampling: the topmost decoder
        output alone for the plain variants; for MFP-Unet the four pyramid
        taps, each at its own level's resolution, full-resolution tap first
        and deepest last (the concatenation order)."""
        if x.shape != (IN_CHANNELS, self.n, self.n):
            raise ContractViolation(
                f"input shape {x.shape} does not match model spec {(IN_CHANNELS, self.n, self.n)}")

        # each activation is rebound as soon as its consumer has run, and each
        # skip is popped by the concatenation that reads it, so without a
        # tape an activation is freed once consumed
        skips = []
        h = x
        for conv1, conv2 in self.encoders:
            h = conv1(h)
            h = conv2(h)
            skips.append(h)
            h = max_pool2d(h)
        conv1, conv2 = self.bottleneck
        h = conv1(h)
        h = conv2(h)

        ups = []
        for tconv, conv1, conv2 in self.decoders:
            h = tconv(h)
            h = concat_channels([h, skips.pop()])
            h = conv1(h)
            h = conv2(h)
            ups.append(h)

        if self.pyramid is None:
            return [ups[-1]]
        return [conv(up) for conv, up in zip(self.pyramid[::-1], ups[::-1])]

    def features(self, x: Tensor) -> Tensor:
        """The map the head classifies: the taps, each upsampled (nearest)
        to full resolution, concatenated: for the plain variants a copy of
        the topmost decoder output, for MFP-Unet 64 channels.
        ``forward`` computes the same logits without building it."""
        return concat_channels([upsample_nearest(t, self.n // t.shape[1])
                                for t in self._taps(x)])

    def forward(self, x: Tensor) -> Tensor:
        """2-channel logit map of shape (2, N, N), classifier(features(x)):
        ``mfp_head`` classifies each tap at its own resolution and upsamples
        only the 2-channel sums, which equals the 1x1 classifier on the
        feature map up to summation order (bit for bit with one tap)."""
        return mfp_head(self._taps(x), self.classifier.weight, self.classifier.bias)

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


def build_mfp_unet(n: int, base_width: int, dtype=np.float32, seed: int = 0) -> Model:
    """``Model("mfp-unet", ...)``, kept because the benchmark's gradient
    check (``perfbench/checks.py``) imports it; no verb calls it."""
    return Model("mfp-unet", n, base_width, dtype=dtype, seed=seed)


def forward_segment(model: Model, image_2ch: Tensor | np.ndarray) -> np.ndarray:
    """Binary N x N mask of the model's logits: 1 where the foreground logit
    exceeds the background one, the argmax of finite logits with ties going
    to background. Raises NonFiniteLogits when any logit is not finite,
    since no mask drawn from those means anything; numpy's overflow and
    invalid warnings are off for the forward, as that check names the
    blow-up. The forward pass runs under ``no_grad``, so it records no tape
    and each activation is freed once consumed."""
    if not isinstance(image_2ch, Tensor):
        image_2ch = Tensor(np.asarray(image_2ch, dtype=model.dtype))
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        logits = model.forward(image_2ch).data
    if not np.isfinite(logits).all():
        raise NonFiniteLogits("non-finite logits")
    return (logits[1] > logits[0]).astype(np.uint8)

"""Spans around the public functions of ``lvseg``, set from outside.

Nothing under ``src/`` knows about tracing: a ``Tracer`` rebinds each
traced function, in every ``lvseg`` module that imported it, to a wrapper
that records the span, and ``Patches.restore`` puts the originals back.
Spans are folded into per-name sums as they close: self time (the span
minus the spans it caused) and inclusive time.

Layers whose output carries a backward closure (``Tensor.backward_fn``)
also get that closure wrapped, so the time ``autograd.backward`` spends in
each op's backward shows as that op's ``bwd_ms``. A convolution's name
includes its level (enc1-enc4, bottleneck, up1-up4, pyramid, classifier),
taken from the weight's name in ``Model.parameters()``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Patches:
    """Attribute rebindings that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def rebind_everywhere(self, original, value) -> None:
        """Point every ``lvseg`` module attribute bound to ``original`` at ``value``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lvseg" or mod_name.startswith("lvseg.")):
                continue
            for attr, bound in list(vars(mod).items()):
                if bound is original:
                    self.set(mod, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


# metric name -> "module:function" of the plain self-time spans
SELF_SPANS = {
    "layers.SGD.step_ms": ["layers:SGD.step"],
    "autograd.backward.self_ms": ["autograd:backward"],
    "preprocess.elastic_deform_ms": ["preprocess:elastic_deform"],
    "preprocess.compose_input_ms": ["preprocess:compose_input"],
    "checkpoint.checkpoint_write_ms": ["checkpoint:checkpoint_write"],
    "checkpoint.checkpoint_read_ms": ["checkpoint:checkpoint_read"],
    "dataset.load_dataset_ms": ["dataset:load_dataset"],
    "geometry.convex_hull_ms": ["geometry:convex_hull"],
    "measure.lv_landmarks_ms": ["measure:lv_landmarks"],
    "measure.lv_length_ms": ["measure:lv_length"],
    "measure.lv_area_ms": ["measure:lv_area"],
    "metrics.hausdorff_ms": ["metrics:hausdorff"],
    "metrics.mad_ms": ["metrics:mad"],
    "metrics.overlap_ms": ["metrics:dice", "metrics:jaccard"],
    "report.agreement_ms": ["report:agreement_reports"],
    "report.read_ms": ["report:read_measurements_csv", "report:read_metrics_csv"],
    "report.write_ms": ["report:write_metrics_csv", "report:write_measurements_csv",
                        "report:write_agreement_report"],
}
# spans reported with their inclusive time
TOTAL_SPANS = {
    "models.forward_segment.total_ms": ["models:forward_segment"],
    "training.mean_val_dice.total_ms": ["training:mean_val_dice"],
}
# ops whose output carries a backward closure: fwd_ms and bwd_ms
TAPED_OPS = ("transposed_conv2d", "max_pool2d", "relu", "concat_channels",
             "upsample_nearest", "softmax_cross_entropy")
CONV_LEVELS = ("enc1", "enc2", "enc3", "enc4", "bottleneck", "up1", "up2", "up3", "up4",
               "pyramid", "classifier")
# counts, reported as a mean per op
COUNTS = ("geometry.hull_vertices", "geometry.contour_points")


def layer_metric_names() -> list[str]:
    """Every per-layer metric, in the order the benchmark reports them."""
    names = [f"layers.conv2d.{lvl}.{d}_ms" for d in ("fwd", "bwd") for lvl in CONV_LEVELS]
    names += [f"layers.{op}.{d}_ms" for d in ("fwd", "bwd") for op in TAPED_OPS]
    names += list(TOTAL_SPANS) + list(SELF_SPANS)
    names += ["geometry.extract_contour_ms", "geometry.min_enclosing_triangle_ms"]
    names += list(COUNTS) + ["trace.overhead_ms", "trace.unattributed_ms"]
    return names


def _resolve(target: str):
    module, qualname = target.split(":")
    owner = sys.modules[f"lvseg.{module}"]
    *outer, name = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[float] = []      # child time of each open span
        self._conv_level: dict[int, str] = {}

    # -- span bookkeeping ---------------------------------------------------

    def wrap(self, name: str, fn):
        open_spans, self_s, total_s = self._open, self.self_s, self.total_s

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - open_spans.pop()
                total_s[name] += dt
                if open_spans:
                    open_spans[-1] += dt
        return traced

    def wrap_taped(self, name: str, fn, level_of=None):
        """Span ``layers.<name>[.<level>].fwd_ms`` around the op, and wrap the
        backward closure of its output as ``...bwd_ms``."""
        spans = {}

        def named(level):
            key = f"layers.{name}.{level}" if level else f"layers.{name}"
            if key not in spans:
                spans[key] = (self.wrap(f"{key}.fwd_ms", fn), f"{key}.bwd_ms")
            return spans[key]

        def traced(*args, **kwargs):
            fwd, bwd_name = named(level_of(args) if level_of else None)
            out = fwd(*args, **kwargs)
            if out.backward_fn is not None:
                out.backward_fn = self.wrap(bwd_name, out.backward_fn)
            return out
        return traced

    # -- installation -------------------------------------------------------

    def install(self, patches: Patches) -> None:
        import lvseg.models as models
        import lvseg.layers as layers

        for name, targets in {**SELF_SPANS, **TOTAL_SPANS}.items():
            for target in targets:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
                if isinstance(owner, type):
                    patches.set(owner, attr, self.wrap(name, original))
                else:
                    patches.rebind_everywhere(original, self.wrap(name, original))

        for op in TAPED_OPS:
            original = getattr(layers, op)
            patches.rebind_everywhere(original, self.wrap_taped(op, original))
        levels = self._conv_level
        patches.rebind_everywhere(layers.conv2d, self.wrap_taped(
            "conv2d", layers.conv2d, lambda args: levels.get(id(args[1]), "unknown")))

        init = models.Model.__init__

        def register_levels(model, *args, **kwargs):
            init(model, *args, **kwargs)
            for pname, tensor in model.parameters().items():
                head = pname.split(".")[0]
                levels[id(tensor)] = "pyramid" if head.startswith("pyramid") else head
        patches.set(models.Model, "__init__", register_levels)

        import lvseg.geometry as geometry
        contour = self.wrap("geometry.extract_contour_ms", geometry.extract_contour)
        triangle = self.wrap("geometry.min_enclosing_triangle_ms",
                             geometry.min_enclosing_triangle)
        counts = self.counts

        def extract_contour(mask):
            poly = contour(mask)
            counts["geometry.contour_points"] += len(poly)
            return poly

        def min_enclosing_triangle(hull):
            counts["geometry.hull_vertices"] += len(hull)
            return triangle(hull)
        patches.rebind_everywhere(geometry.extract_contour, extract_contour)
        patches.rebind_everywhere(geometry.min_enclosing_triangle, min_enclosing_triangle)

    # -- results ------------------------------------------------------------

    def layer_ms(self, ops: int) -> dict[str, float]:
        """Per-op figures of every layer metric except the two trace ones."""
        out = {}
        for name in layer_metric_names():
            if name.startswith("trace."):
                continue
            if name in COUNTS:
                out[name] = self.counts.get(name, 0) / ops
            elif name in TOTAL_SPANS:
                out[name] = 1e3 * self.total_s.get(name, 0.0) / ops
            else:
                out[name] = 1e3 * self.self_s.get(name, 0.0) / ops
        return out

    def attributed_s(self) -> float:
        """Self time of every span: the part of the traced wall time that
        some traced layer accounts for."""
        return sum(self.self_s.values())

"""Pixel/metric unit conversions, centralized so factor-of-ten mistakes
cannot creep in at call sites. Calibration is always mm per pixel."""

MM_PER_CM = 10.0
# the largest image extent a network or a phantom is built at
MAX_EXTENT_PX = 16384


def px_to_cm(px: float, mm_per_px: float) -> float:
    return px * mm_per_px / MM_PER_CM


def px_area_to_cm2(pixel_count: float, mm_per_px: float) -> float:
    return pixel_count * mm_per_px * mm_per_px / (MM_PER_CM * MM_PER_CM)


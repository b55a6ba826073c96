"""Left-ventricle segmentation and clinical measurement toolkit."""

from .autograd import Tensor, backward, grad_check
from .config import RunConfig
from .dataset import FoldAssignment, ImageSample, make_folds
from .errors import (ContractViolation, FormatError, MeasurementError, NonFiniteLogits,
                     TrainingDiverged, TrainingHelperError)
from .geometry import convex_hull, extract_contour, min_enclosing_triangle
from .measure import (LVMeasures, ejection_fraction, lv_area, lv_landmarks, lv_length,
                      lv_volume, measure_mask)
from .metrics import dice, hausdorff, jaccard, mad
from .models import Model, build_mfp_unet, forward_segment
from .preprocess import elastic_deform, niblack_threshold
from .phantom import generate_phantom
from .stats import AnovaTable, PairedSeries, anova_oneway, bland_altman, pearson_fit

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "grad_check",
    "RunConfig",
    "FoldAssignment", "ImageSample", "make_folds",
    "ContractViolation", "FormatError", "MeasurementError", "NonFiniteLogits",
    "TrainingDiverged", "TrainingHelperError",
    "convex_hull", "extract_contour", "min_enclosing_triangle",
    "LVMeasures", "ejection_fraction", "lv_area", "lv_landmarks", "lv_length",
    "lv_volume", "measure_mask",
    "dice", "hausdorff", "jaccard", "mad",
    "Model", "build_mfp_unet", "forward_segment",
    "elastic_deform", "niblack_threshold", "generate_phantom",
    "AnovaTable", "PairedSeries", "anova_oneway", "bland_altman", "pearson_fit",
]

"""Future vehicle localization: forecast bounding boxes of nearby
vehicles in first-person road video a few frames ahead.

The package is a small numpy-only stack: a reverse-mode autodiff core
(diffcore), neural building blocks (nnkit), a multi-stream GRU
forecaster (fvlmodel), polynomial extrapolation baselines (baselines),
displacement/overlap metrics (metrics), planar ego-motion tools
(egomotion), ROI flow pooling (flowfeat), and a deterministic synthetic
scenario generator with file formats (dataio).  The `fvl` console
script ties them into a generate/train/evaluate/predict pipeline.
"""

from .dataio import (
    CameraSpec,
    Sample,
    Scenario,
    VideoData,
    generate_scenario,
    random_scenario,
    windows_from_video,
)
from .errors import DataFormatError, DimensionError, NumericFailure, ValidationError
from .fvlmodel import (
    BoxForecaster,
    ModelConfig,
    Prediction,
    TrainResult,
    gradient_check_model,
    load_model,
    save_model,
    train_model,
)
from .metrics import EvalReport, build_reports, displacement_errors, final_iou

__version__ = "0.1.0"

__all__ = [
    "BoxForecaster",
    "CameraSpec",
    "DataFormatError",
    "DimensionError",
    "EvalReport",
    "ModelConfig",
    "NumericFailure",
    "Prediction",
    "Sample",
    "Scenario",
    "TrainResult",
    "ValidationError",
    "VideoData",
    "build_reports",
    "displacement_errors",
    "final_iou",
    "generate_scenario",
    "gradient_check_model",
    "load_model",
    "random_scenario",
    "save_model",
    "train_model",
    "windows_from_video",
    "__version__",
]

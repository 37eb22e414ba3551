"""Synthetic datasets for the paper's four tasks, loaders, and OOD shifts.

See DESIGN.md §2 for the substitution rationale: each generator preserves
the statistical structure the corresponding experiment depends on (multi-
class separability, temporal patterns, trend+seasonality, thin elongated
structures) without requiring the original data.
"""

from .audio import generate_waveform, make_audio_dataset, make_audio_task
from .co2 import ForecastTask, co2_series, make_co2_task, make_forecast_windows
from .dataset import ArrayDataset, DataLoader
from .images import generate_image, make_image_dataset, make_image_task
from .shifts import (
    ROTATION_STAGES,
    ROTATION_STEP_DEGREES,
    add_uniform_noise,
    noise_stages,
    rotate_images,
    rotation_backend,
    rotation_stages,
)
from .vessels import generate_vessel_sample, make_vessel_dataset, make_vessel_task

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "make_image_dataset",
    "make_image_task",
    "generate_image",
    "make_audio_dataset",
    "make_audio_task",
    "generate_waveform",
    "co2_series",
    "make_co2_task",
    "make_forecast_windows",
    "ForecastTask",
    "make_vessel_dataset",
    "make_vessel_task",
    "generate_vessel_sample",
    "rotate_images",
    "rotation_backend",
    "add_uniform_noise",
    "rotation_stages",
    "noise_stages",
    "ROTATION_STAGES",
    "ROTATION_STEP_DEGREES",
]

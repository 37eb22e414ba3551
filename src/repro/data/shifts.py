"""Distribution-shift transforms for the OOD experiments (Fig. 7).

Two shift families, matching the paper's protocol (which follows [9]):

* **rotation** — images gradually rotated in 7-degree increments over 12
  stages;
* **uniform noise** — escalating random uniform noise added to the inputs.

Rotation needs scipy, the ``repro[fig7]`` extra.  It is imported on the
first non-zero rotation, so importing the package never loads it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..tensor.random import get_rng

ROTATION_STEP_DEGREES = 7.0
ROTATION_STAGES = 12


def rotation_backend():
    """``scipy.ndimage``, or an ImportError naming the ``repro[fig7]`` extra."""
    try:
        from scipy import ndimage
    except ImportError as exc:
        raise ImportError(
            "rotating images needs scipy: pip install -e .[fig7] "
            "(the repro[fig7] extra)"
        ) from exc
    return ndimage


def rotate_images(images: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate a batch of CHW images about their centre (zero-padded)."""
    if degrees == 0.0:
        return images.copy()
    return rotation_backend().rotate(
        images, degrees, axes=(-2, -1), reshape=False, order=1, mode="constant"
    )


def add_uniform_noise(
    inputs: np.ndarray,
    strength: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Add ``U(-strength, strength)`` noise elementwise."""
    if strength == 0.0:
        return inputs.copy()
    rng = rng or get_rng()
    return inputs + rng.uniform(-strength, strength, size=inputs.shape)


def rotation_stages(
    step: float = ROTATION_STEP_DEGREES, stages: int = ROTATION_STAGES
) -> List[float]:
    """The paper's rotation schedule: 0°, 7°, ..., 84° (12 shifted stages)."""
    return [step * i for i in range(stages + 1)]


def noise_stages(max_strength: float = 1.0, stages: int = 10) -> List[float]:
    """Escalating uniform-noise strengths, starting at 0 (in-distribution)."""
    return list(np.linspace(0.0, max_strength, stages + 1))

"""Metric evaluators used by training, campaigns and benchmarks.

Bayesian methods are scored with Monte Carlo averaging (fresh dropout /
affine-dropout masks per pass); the conventional NN is scored with a single
deterministic pass — exactly the paper's evaluation protocol.

Chip-aware evaluation
---------------------
Every evaluator here is *chip-aware*: under an active chip batch
(:func:`repro.tensor.chipbatch.chip_batch`, installed by the campaign
engine's stacked passes) the test inputs are broadcast to a leading
chip axis, predictions come back chip-stacked, and the metric is computed
**per chip** in exactly the arithmetic order of the serial path — so the
evaluator returns a ``(n_chips,)`` vector whose entry ``i`` is bit-identical
to the float a serial evaluation of chip ``i`` would produce.  Under the
chip batch, the Monte Carlo loop inside these evaluators collapses into
one stacked ``chips x samples`` forward — invisibly, because
:func:`~repro.core.bayesian.mc_forward` restores the looped
``(samples, chips, ...)`` layout before any metric arithmetic runs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.bayesian import BayesianClassifier, BayesianRegressor, mc_forward
from ..data.dataset import ArrayDataset
from ..models import MethodConfig
from ..nn.module import Module
from ..tensor import Tensor, no_grad
from ..tensor.chipbatch import active_chip_count
from ..tensor.tensor import DEFAULT_DTYPE
from ..train.metrics import accuracy, binary_miou_stack, rmse


def _as_input(x: np.ndarray) -> Tensor:
    """Wrap a test batch, broadcasting it across an active chip batch."""
    n_chips = active_chip_count()
    if n_chips is not None:
        x = np.broadcast_to(x[None], (n_chips,) + x.shape).copy()
    return Tensor(x)


def classification_accuracy(
    model: Module,
    test_set: ArrayDataset,
    method: MethodConfig,
    mc_samples: int = 8,
    batch_size: int = 256,
) -> float | np.ndarray:
    """Test-set accuracy (MC-averaged for Bayesian methods).

    Returns a float, or a per-chip vector under an active chip batch.
    """
    correct: np.ndarray | int = 0
    total = 0
    for start in range(0, len(test_set), batch_size):
        x, y = test_set[np.s_[start : start + batch_size]]
        xt = _as_input(x)
        if method.is_bayesian:
            clf = BayesianClassifier(model, num_samples=mc_samples)
            pred = clf.predict(xt)
        else:
            model.eval()
            with no_grad():
                pred = model(xt).data.argmax(axis=-1)
        correct = correct + (pred == y).sum(axis=-1)
        total += len(y)
    return correct / total


def segmentation_miou(
    model: Module,
    test_set: ArrayDataset,
    method: MethodConfig,
    mc_samples: int = 8,
    batch_size: int = 8,
) -> float | np.ndarray:
    """Mean IoU of thresholded sigmoid predictions (MC-averaged logits).

    Returns a float, or a per-chip vector under an active chip batch; each
    chip's mIoU averages the same per-image IoUs in the same order as the
    serial path.
    """
    per_image = []  # float per image, or (n_chips,) per image when batched
    for start in range(0, len(test_set), batch_size):
        x, y = test_set[np.s_[start : start + batch_size]]
        xt = _as_input(x)
        if method.is_bayesian:
            logits = mc_forward(model, xt, mc_samples).mean(axis=0)
        else:
            model.eval()
            with no_grad():
                logits = model(xt).data
        pred_mask = logits > 0.0  # sigmoid(logit) > 0.5
        batched = pred_mask.ndim == y.ndim + 1
        if batched:
            # One vectorized pass over (chips * images): row c*n + i scores
            # chip c's prediction for image i against that image's truth —
            # bit-identical to the former per-image binary_miou_stack loop.
            chips, n = pred_mask.shape[0], pred_mask.shape[1]
            truth = np.broadcast_to(y > 0.5, (chips,) + y.shape)
            flat = binary_miou_stack(
                pred_mask.reshape((chips * n,) + pred_mask.shape[2:]),
                truth.reshape((chips * n,) + y.shape[1:]),
            ).reshape(chips, n)
            per_image.extend(flat.T)  # one (chips,) vector per image
        else:
            # Whole batch in one array op — bit-identical to looping
            # binary_miou image by image.
            per_image.extend(binary_miou_stack(pred_mask, y > 0.5))
    if per_image and isinstance(per_image[0], np.ndarray):
        stacked = np.stack(per_image, axis=0)  # (images, chips)
        return np.array(
            [float(np.mean(stacked[:, chip])) for chip in range(stacked.shape[1])]
        )
    return float(np.mean(per_image))


def regression_rmse(
    model: Module,
    test_set: ArrayDataset,
    method: MethodConfig,
    mc_samples: int = 8,
    batch_size: int = 256,
) -> float | np.ndarray:
    """RMSE of one-step forecasts (MC-averaged for Bayesian methods).

    Returns a float, or a per-chip vector under an active chip batch.
    """
    preds = []
    targets = []
    for start in range(0, len(test_set), batch_size):
        x, y = test_set[np.s_[start : start + batch_size]]
        xt = _as_input(x)
        if method.is_bayesian:
            reg = BayesianRegressor(model, num_samples=mc_samples)
            preds.append(reg.predict(xt))
        else:
            model.eval()
            with no_grad():
                preds.append(model(xt).data)
        targets.append(y)
    # Concatenate along the sample axis (the last one when chip-batched).
    return rmse(np.concatenate(preds, axis=-1), np.concatenate(targets))


#: Each task's metric and the test-batch size it evaluates with.
EVALUATORS: dict[str, tuple[Callable, int]] = {
    "image": (classification_accuracy, 256),
    "audio": (classification_accuracy, 256),
    "co2": (regression_rmse, 256),
    "vessels": (segmentation_miou, 8),
}


class TaskEvaluator:
    """A task's metric bound to its test set: ``evaluator(model)``.

    Chip-aware (see the module docstring).  It also states what one
    per-cell evaluation puts through the model, which the campaign
    engine sizes its stacked passes from
    (:meth:`repro.faults.executor.Footprint.of`):

    * ``forwards_per_cell`` — model forwards: one per test batch, times
      ``mc_samples`` for a Bayesian method;
    * ``input_bytes`` — the bytes of the largest forward input, the
      first test batch.
    """

    def __init__(
        self,
        task_name: str,
        test_set: ArrayDataset,
        method: MethodConfig,
        mc_samples: int,
    ):
        self.metric, self.batch_size = EVALUATORS[task_name]
        self.test_set = test_set
        self.method = method
        self.mc_samples = mc_samples
        batches = -(-len(test_set) // self.batch_size)
        self.forwards_per_cell = batches * (
            mc_samples if method.is_bayesian else 1
        )
        first, _ = test_set[np.s_[: self.batch_size]]
        self.input_bytes = first.size * np.dtype(DEFAULT_DTYPE).itemsize

    def __call__(self, model: Module) -> float | np.ndarray:
        return self.metric(
            model, self.test_set, self.method,
            mc_samples=self.mc_samples, batch_size=self.batch_size,
        )


def make_evaluator(
    task_name: str,
    test_set: ArrayDataset,
    method: MethodConfig,
    mc_samples: int = 8,
    max_samples: int | None = None,
) -> TaskEvaluator:
    """Bind a task's metric to its test set → ``model -> float``.

    This is the ``evaluator`` consumed by
    :class:`~repro.faults.campaign.MonteCarloCampaign`.  ``max_samples``
    caps the evaluation set (deterministic prefix) so Monte Carlo fault
    campaigns stay affordable on CPU.  The returned
    :class:`TaskEvaluator` is chip-aware: under an active chip batch it
    returns a per-chip metric vector, which is what the campaign
    engine's stacked passes require.
    """
    if max_samples is not None and len(test_set) > max_samples:
        test_set = test_set.subset(np.arange(max_samples))
    return TaskEvaluator(task_name, test_set, method, mc_samples)

"""Monte Carlo Bayesian inference over stochastic models (Section III-D).

Following Gal & Ghahramani [17], a network trained with dropout-style
stochasticity approximates a Gaussian process; sampling fresh masks on each
of several forward passes yields an output distribution whose mean is the
prediction and whose spread quantifies uncertainty.  The paper's affine
dropout plugs into this machinery exactly like conventional dropout: every
:class:`~repro.nn.dropout.StochasticModule` (which includes
:class:`~repro.core.inverted_norm.InvertedNorm`) re-samples per pass when
``stochastic_inference`` is enabled.

Sample streams and batching
---------------------------
Each of the ``num_samples`` passes draws its stochasticity from its own
``SeedSequence`` child of the active generator (one ``Generator.spawn``
per :func:`mc_forward` call), so sample ``s`` is a pure function of
``(parent stream, s)`` rather than of how many draws earlier samples made.
That indexing is what allows the *stacked* path — taken whenever a chip
batch is active (:func:`repro.tensor.chipbatch.chip_batch`, entered by the
campaign engine's stacked passes) — to stack all samples times all
chips along one leading instance axis and run a single vectorized forward
whose per-sample slices are bit-identical to the looped passes.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

import numpy as np

from ..nn.dropout import StochasticModule
from ..nn.module import Module
from ..tensor import Tensor, no_grad, ops
from ..tensor.chipbatch import (
    ChipBatchRng,
    active_chip_count,
    mc_sample_axis,
    mc_sample_scope,
    spawn_sample_streams,
)
from ..tensor.random import get_rng, scoped_rng


def enable_stochastic_inference(model: Module, enabled: bool = True) -> Module:
    """Switch Monte Carlo sampling on/off for every stochastic submodule."""
    for module in model.modules():
        if isinstance(module, StochasticModule):
            module.stochastic_inference = enabled
    return model


@contextlib.contextmanager
def stochastic_inference(model: Module) -> Iterator[Module]:
    """Context manager enabling MC sampling for the duration of the block."""
    enable_stochastic_inference(model, True)
    try:
        yield model
    finally:
        enable_stochastic_inference(model, False)


def mc_forward(
    model: Module, x: Tensor, num_samples: int, forward=None
) -> np.ndarray:
    """Stack ``num_samples`` stochastic forward passes → ``(s, *out)``.

    The model is put in ``eval()`` mode (deterministic normalization
    statistics, where applicable) with ``stochastic_inference`` enabled, so
    only the Bayesian noise sources re-sample between passes.

    Pass ``s`` draws from the ``s``-th ``SeedSequence`` child of the active
    generator (see :func:`~repro.tensor.chipbatch.spawn_sample_streams`).
    Outside a chip batch the passes run one by one.  Inside a
    :func:`~repro.tensor.chipbatch.chip_batch` the loop is replaced by ONE
    forward over a leading instance axis of ``chips * num_samples``
    stacked instances, reduced back to the looped layout — the returned
    array is bit-identical to looping each chip's passes.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    model.eval()
    forward = forward or (lambda inp: model(inp))
    with no_grad(), stochastic_inference(model):
        if active_chip_count() is not None and num_samples > 1:
            return _mc_forward_batched(forward, x, num_samples)
        per_sample, _ = spawn_sample_streams(get_rng(), num_samples)
        outputs = []
        for s, stream in enumerate(per_sample):
            with scoped_rng(stream), mc_sample_scope(s, num_samples):
                out = forward(x)
                outputs.append(
                    out.data if isinstance(out, Tensor) else np.asarray(out)
                )
    return np.stack(outputs, axis=0)


def _mc_forward_batched(forward, x: Tensor, num_samples: int) -> np.ndarray:
    """One stacked forward over the ``chips x samples`` instance axis.

    The chip-stacked input is repeated per MC sample in chip-major order,
    each instance draws from its own per-sample ``SeedSequence`` child,
    and the stacked output is reshaped back to the looped layout
    ``(samples, chips, *out)``.
    """
    n_chips = active_chip_count()  # instance count BEFORE the sample axis
    _, per_instance = spawn_sample_streams(get_rng(), num_samples)
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    stacked_in = np.repeat(data, num_samples, axis=0)
    with mc_sample_axis(num_samples), scoped_rng(ChipBatchRng(per_instance)):
        out = forward(Tensor(stacked_in))
    arr = out.data if isinstance(out, Tensor) else np.asarray(out)
    # (chips * samples, ...) chip-major → (samples, chips, ...)
    return np.moveaxis(
        arr.reshape(n_chips, num_samples, *arr.shape[1:]), 1, 0
    )


def _softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


class BayesianClassifier:
    """Monte Carlo classification wrapper.

    Averages per-sample softmax distributions (the paper averages the
    stochastic outputs) and derives uncertainty metrics:

    * predictive NLL — the paper's uncertainty score for OOD detection,
    * predictive entropy and mutual information (BALD) for completeness.

    Under an active chip batch every result gains a leading chip axis and
    the Monte Carlo loop inside :func:`mc_forward` collapses into one
    stacked forward with bit-identical results.

    Parameters
    ----------
    model:
        Any module mapping inputs to class logits.
    num_samples:
        Monte Carlo forward passes per prediction.
    """

    def __init__(self, model: Module, num_samples: int = 8):
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        self.model = model
        self.num_samples = num_samples

    def sample_proba(self, x: Tensor) -> np.ndarray:
        """Per-sample class probabilities, shape ``(s, n, classes)``."""
        logits = mc_forward(self.model, x, self.num_samples)
        return _softmax_np(logits, axis=-1)

    def predict_proba(self, x: Tensor) -> np.ndarray:
        """MC-averaged class probabilities, shape ``(n, classes)``."""
        return self.sample_proba(x).mean(axis=0)

    def predict(self, x: Tensor) -> np.ndarray:
        """Hard labels from the averaged predictive distribution."""
        return self.predict_proba(x).argmax(axis=-1)

    def nll(self, x: Tensor, labels: np.ndarray, eps: float = 1e-12) -> float:
        """Mean negative log-likelihood of ``labels`` under the MC average."""
        proba = self.predict_proba(x)
        labels = np.asarray(labels, dtype=np.int64)
        picked = proba[np.arange(len(labels)), labels]
        return float(-np.log(picked + eps).mean())

    def per_input_nll(self, x: Tensor, eps: float = 1e-12) -> np.ndarray:
        """NLL of the *predicted* class per input — the OOD score.

        For unlabeled (potentially OOD) inputs the paper thresholds the NLL
        of the model's own prediction: confident ID inputs score low,
        shifted inputs score high.
        """
        proba = self.predict_proba(x)
        return -np.log(proba.max(axis=-1) + eps)

    def predictive_entropy(self, x: Tensor, eps: float = 1e-12) -> np.ndarray:
        proba = self.predict_proba(x)
        return -(proba * np.log(proba + eps)).sum(axis=-1)

    def mutual_information(self, x: Tensor, eps: float = 1e-12) -> np.ndarray:
        """BALD score: entropy of mean minus mean of entropies."""
        samples = self.sample_proba(x)
        mean = samples.mean(axis=0)
        h_mean = -(mean * np.log(mean + eps)).sum(axis=-1)
        h_samples = -(samples * np.log(samples + eps)).sum(axis=-1).mean(axis=0)
        return h_mean - h_samples

    def accuracy(self, x: Tensor, labels: np.ndarray) -> float:
        return float((self.predict(x) == np.asarray(labels)).mean())


class BayesianRegressor:
    """Monte Carlo regression wrapper (LSTM forecasting task).

    The prediction is the MC mean; predictive variance decomposes into the
    epistemic part (variance of MC means) reported here.  Like the
    classifier, it rides :func:`mc_forward` and therefore inherits the
    stacked single-pass path under an active chip batch.
    """

    def __init__(self, model: Module, num_samples: int = 8, forward=None):
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        self.model = model
        self.num_samples = num_samples
        self._forward = forward

    def sample_outputs(self, x: Tensor) -> np.ndarray:
        return mc_forward(self.model, x, self.num_samples, forward=self._forward)

    def predict(self, x: Tensor) -> np.ndarray:
        return self.sample_outputs(x).mean(axis=0)

    def predict_with_std(self, x: Tensor) -> tuple[np.ndarray, np.ndarray]:
        samples = self.sample_outputs(x)
        return samples.mean(axis=0), samples.std(axis=0)

    def rmse(self, x: Tensor, targets: np.ndarray) -> float:
        pred = self.predict(x)
        targets = np.asarray(targets)
        return float(np.sqrt(((pred - targets) ** 2).mean()))

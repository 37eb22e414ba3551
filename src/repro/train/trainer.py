"""Generic training loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..data.dataset import ArrayDataset, DataLoader
from ..nn.module import Module
from ..tensor import Tensor, no_grad
from .optim import Optimizer


@dataclass
class History:
    """Per-epoch training record."""

    loss: List[float] = field(default_factory=list)
    metric: List[float] = field(default_factory=list)
    lr: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.loss[-1] if self.loss else float("nan")


class Trainer:
    """Minimal epoch-based trainer.

    Parameters
    ----------
    model:
        Module mapping a batch tensor to predictions.
    optimizer:
        Optimizer over ``model.parameters()``.
    loss_fn:
        ``(predictions, targets) -> scalar Tensor``.
    metric_fn:
        Optional ``(model, dataset) -> float`` evaluated after each epoch.
    schedule:
        Optional LR schedule with a ``step(epoch) -> lr`` method.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: Callable[[Tensor, np.ndarray], Tensor],
        metric_fn: Optional[Callable[[Module, ArrayDataset], float]] = None,
        schedule=None,
        grad_clip: Optional[float] = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.metric_fn = metric_fn
        self.schedule = schedule
        self.grad_clip = grad_clip

    def _clip_gradients(self) -> None:
        if self.grad_clip is None:
            return
        total = 0.0
        for p in self.optimizer.parameters:
            if p.grad is not None:
                total += float((p.grad**2).sum())
        norm = np.sqrt(total)
        if norm > self.grad_clip:
            scale = self.grad_clip / (norm + 1e-12)
            for p in self.optimizer.parameters:
                if p.grad is not None:
                    p.grad *= scale

    def train_epoch(self, loader: DataLoader) -> float:
        """One pass over the loader; returns the mean batch loss."""
        self.model.train()
        losses = []
        for x, y in loader:
            self.optimizer.zero_grad()
            pred = self.model(x)
            loss = self.loss_fn(pred, y)
            loss.backward()
            self._clip_gradients()
            self.optimizer.step()
            losses.append(loss.item())
        return float(np.mean(losses))

    def fit(
        self,
        train_set: ArrayDataset,
        epochs: int,
        batch_size: int = 32,
        eval_set: Optional[ArrayDataset] = None,
        verbose: bool = False,
    ) -> History:
        """Train for ``epochs`` epochs; returns the loss/metric history."""
        history = History()
        loader = DataLoader(train_set, batch_size=batch_size, shuffle=True)
        for epoch in range(epochs):
            if self.schedule is not None:
                self.schedule.step(epoch)
            mean_loss = self.train_epoch(loader)
            history.loss.append(mean_loss)
            history.lr.append(self.optimizer.lr)
            if self.metric_fn is not None and eval_set is not None:
                history.metric.append(self.metric_fn(self.model, eval_set))
            if verbose:
                metric_note = (
                    f", metric={history.metric[-1]:.4f}" if history.metric else ""
                )
                print(f"epoch {epoch + 1}/{epochs}: loss={mean_loss:.4f}{metric_note}")
        # A trained model may stay cached for the whole process; do not let
        # it pin the last step's gradients.
        self.optimizer.zero_grad()
        return history


def evaluate_batched(
    model: Module,
    dataset: ArrayDataset,
    batch_size: int = 128,
    reduce: Callable[[Tensor], np.ndarray] = lambda out: out.data,
) -> np.ndarray:
    """Deterministic batched forward over a dataset (no grad, eval mode)."""
    model.eval()
    pieces = []
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            x, _ = dataset[np.s_[start : start + batch_size]]
            pieces.append(reduce(model(Tensor(x))))
    return np.concatenate(pieces, axis=0)

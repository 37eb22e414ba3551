"""Task registry: datasets + models + training recipes for the four tasks.

Every paper experiment is expressed against a :class:`Task`: a named bundle
of (train set, test set, model factory, loss, trainer recipe, metric).
Three size presets trade fidelity for CPU time:

* ``tiny`` — seconds; used by unit/integration tests,
* ``small`` — the default for benchmarks (minutes per experiment),
* ``paper`` — paper-scale Monte Carlo settings (``REPRO_FULL=1``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..data import (
    ArrayDataset,
    make_audio_task,
    make_co2_task,
    make_image_task,
    make_vessel_task,
)
from ..models import M5, LSTMForecaster, MethodConfig, ResNet18, UNet
from ..nn.module import Module
from ..tensor import manual_seed
from ..train import (
    Adam,
    CosineSchedule,
    Trainer,
    cross_entropy,
    mse_loss,
    segmentation_loss,
)

PRESETS = ("tiny", "small", "paper")


def _tag(sizes: dict) -> str:
    """Geometry fingerprint used in model-cache keys."""
    return "-".join(f"{k}{v}" for k, v in sorted(sizes.items()))


def active_preset(default: str = "small") -> str:
    """Preset selected by the ``REPRO_FULL`` / ``REPRO_PRESET`` env vars."""
    if os.environ.get("REPRO_FULL") == "1":
        return "paper"
    preset = os.environ.get("REPRO_PRESET", default)
    if preset not in PRESETS:
        raise ValueError(f"REPRO_PRESET must be one of {PRESETS}, got {preset!r}")
    return preset


def mc_runs(preset: str) -> int:
    """Monte Carlo chip instances per fault scenario (paper: 100)."""
    return {"tiny": 3, "small": 8, "paper": 100}[preset]


def mc_samples(preset: str) -> int:
    """Bayesian forward passes per prediction."""
    return {"tiny": 4, "small": 6, "paper": 20}[preset]


@dataclass
class Task:
    """One deep-learning task with its training recipe."""

    name: str
    metric_name: str
    higher_is_better: bool
    train_set: ArrayDataset
    test_set: ArrayDataset
    model_factory: Callable[[MethodConfig], Module]
    loss_fn: Callable
    epochs: int
    batch_size: int
    lr: float
    weight_decay: float = 1e-4
    grad_clip: Optional[float] = 5.0
    cache_tag: str = ""  # geometry fingerprint so stale checkpoints miss
    #: Seed the datasets were synthesized with; campaign handles rebuild
    #: the task from it so workers evaluate the exact same test set.
    seed: int = 0
    #: The model's ``dropout_dims``: what its dropout sites see.
    dropout_dims: str = "2d"

    def build_model(self, method: MethodConfig, seed: int = 0) -> Module:
        """Construct the model deterministically for (method, seed)."""
        manual_seed(seed)
        return self.model_factory(method)

    def train_model(
        self, method: MethodConfig, seed: int = 0, verbose: bool = False
    ) -> Module:
        """Train a fresh model for this task/method."""
        model = self.build_model(method, seed=seed)
        epochs = max(1, int(round(self.epochs * method.epochs_multiplier)))
        optimizer = Adam(
            model.parameters(), lr=self.lr, weight_decay=self.weight_decay
        )
        trainer = Trainer(
            model,
            optimizer,
            self.loss_fn,
            schedule=CosineSchedule(optimizer, epochs),
            grad_clip=self.grad_clip,
        )
        manual_seed(seed + 1)
        trainer.fit(
            self.train_set,
            epochs=epochs,
            batch_size=self.batch_size,
            verbose=verbose,
        )
        return model


def image_task(preset: str = "small", seed: int = 0) -> Task:
    """CIFAR-10 stand-in on binarized ResNet-18 (1/1 W/A)."""
    sizes = {
        "tiny": dict(n_train=8, n_test=4, size=12, width=8, epochs=2, batch=16),
        "small": dict(n_train=50, n_test=15, size=16, width=8, epochs=24, batch=32),
        "paper": dict(n_train=200, n_test=50, size=16, width=16, epochs=30, batch=64),
    }[preset]
    train, test = make_image_task(
        n_train_per_class=sizes["n_train"],
        n_test_per_class=sizes["n_test"],
        size=sizes["size"],
        seed=seed,
    )
    return Task(
        name="image",
        metric_name="accuracy",
        higher_is_better=True,
        train_set=train,
        test_set=test,
        model_factory=lambda method: ResNet18(
            method, num_classes=10, base_width=sizes["width"]
        ),
        loss_fn=cross_entropy,
        epochs=sizes["epochs"],
        batch_size=sizes["batch"],
        lr=3e-3,
        cache_tag=_tag(sizes),
        seed=seed,
        dropout_dims=ResNet18.dropout_dims,
    )


def audio_task(preset: str = "small", seed: int = 0) -> Task:
    """Speech-commands stand-in on 8/8-bit M5."""
    sizes = {
        "tiny": dict(n_train=8, n_test=4, length=128, width=8, epochs=3, batch=16),
        "small": dict(n_train=40, n_test=15, length=256, width=48, epochs=15, batch=32),
        "paper": dict(n_train=150, n_test=40, length=256, width=96, epochs=30, batch=64),
    }[preset]
    train, test = make_audio_task(
        n_train_per_class=sizes["n_train"],
        n_test_per_class=sizes["n_test"],
        length=sizes["length"],
        seed=seed,
    )
    return Task(
        name="audio",
        metric_name="accuracy",
        higher_is_better=True,
        train_set=train,
        test_set=test,
        model_factory=lambda method: M5(
            method, num_classes=10, base_width=sizes["width"]
        ),
        loss_fn=cross_entropy,
        epochs=sizes["epochs"],
        batch_size=sizes["batch"],
        lr=3e-3,
        cache_tag=_tag(sizes),
        seed=seed,
        dropout_dims=M5.dropout_dims,
    )


def co2_task(preset: str = "small", seed: int = 0) -> Task:
    """Atmospheric CO2 forecast on the 8-bit two-layer LSTM."""
    sizes = {
        "tiny": dict(n_months=120, window=12, hidden=8, epochs=4, batch=32),
        "small": dict(n_months=360, window=18, hidden=16, epochs=25, batch=32),
        "paper": dict(n_months=480, window=24, hidden=32, epochs=60, batch=64),
    }[preset]
    forecast = make_co2_task(
        n_months=sizes["n_months"], window=sizes["window"], seed=seed
    )
    return Task(
        name="co2",
        metric_name="rmse",
        higher_is_better=False,
        train_set=forecast.train,
        test_set=forecast.test,
        model_factory=lambda method: LSTMForecaster(
            method, hidden_size=sizes["hidden"]
        ),
        loss_fn=mse_loss,
        epochs=sizes["epochs"],
        batch_size=sizes["batch"],
        lr=5e-3,
        weight_decay=1e-5,
        cache_tag=_tag(sizes),
        seed=seed,
        dropout_dims=LSTMForecaster.dropout_dims,
    )


def vessel_task(preset: str = "small", seed: int = 0) -> Task:
    """DRIVE stand-in on binary-weight / 4-bit-PACT U-Net."""
    sizes = {
        "tiny": dict(n_train=4, n_test=2, size=16, width=8, epochs=3, batch=2),
        "small": dict(n_train=16, n_test=6, size=32, width=8, epochs=20, batch=4),
        "paper": dict(n_train=32, n_test=8, size=48, width=16, epochs=40, batch=4),
    }[preset]
    train, test = make_vessel_task(
        n_train=sizes["n_train"],
        n_test=sizes["n_test"],
        size=sizes["size"],
        seed=seed,
    )
    return Task(
        name="vessels",
        metric_name="mIoU",
        higher_is_better=True,
        train_set=train,
        test_set=test,
        model_factory=lambda method: UNet(method, base_width=sizes["width"], depth=2),
        loss_fn=segmentation_loss,
        epochs=sizes["epochs"],
        batch_size=sizes["batch"],
        lr=3e-3,
        cache_tag=_tag(sizes),
        seed=seed,
        dropout_dims=UNet.dropout_dims,
    )


def network_method(task: Task, method: MethodConfig) -> MethodConfig:
    """The method whose network ``method`` builds on ``task``.

    :meth:`~repro.models.methods.MethodConfig.network` at the task
    model's ``dropout_dims``, the value its dropout sites pass to
    :meth:`~repro.models.methods.MethodConfig.make_dropout`: on the co2
    LSTM, ``spatial-spindrop`` is ``spindrop``; everywhere else a method
    is its own network.  Two methods with one network train to the same
    weights and give the same campaign values.
    """
    return method.network(task.dropout_dims)


TASK_BUILDERS: Dict[str, Callable[..., Task]] = {
    "image": image_task,
    "audio": audio_task,
    "co2": co2_task,
    "vessels": vessel_task,
}


def build_task(name: str, preset: str = "small", seed: int = 0) -> Task:
    """Look up and build a task by name."""
    if name not in TASK_BUILDERS:
        raise KeyError(f"unknown task {name!r}; available: {list(TASK_BUILDERS)}")
    return TASK_BUILDERS[name](preset=preset, seed=seed)

"""Deployment-freeze helpers for quantized models.

A trained network is *deployed* to an IMC chip by programming its
quantized weight codes into NVM cells once; inference then reuses those
codes verbatim.  :class:`~repro.quant.layers.QuantizedComputeLayer` models
this with a per-layer quantization cache keyed by each parameter's
``(uid, version)`` counter (see :class:`repro.nn.module.Parameter`), active
during gradient-free forwards.  This module provides the model-level
conveniences around that cache:

* :func:`freeze_deployment` — switch a model to inference mode and
  pre-program (warm) every quantized layer's codes, like writing the chip
  before a campaign;
* :func:`warm_quantization` — warm the record caches without touching
  train/eval mode;
* :func:`invalidate_quantization` — drop all cached codes and the
  ``last_quantized`` records, forcing the next forward to requantize
  (useful after mutating weights in place without going through an
  optimizer / ``load_state_dict``, which bump version counters
  automatically, and how a campaign compute job releases its model);
* :func:`quantized_layers` — iterate a model's NVM-mapped layers.

Freezing is never *required* for correctness: the version-counter keys
already invalidate on every optimizer step and state-dict load, so
training after deployment transparently reprograms.
"""

from __future__ import annotations

from typing import Iterator

from ..nn.module import Module
from .functional import QuantizedWeight
from .layers import QuantizedComputeLayer


def quantized_layers(model: Module) -> Iterator[QuantizedComputeLayer]:
    """All NVM-mapped compute layers of ``model`` (depth-first order)."""
    for module in model.modules():
        if isinstance(module, QuantizedComputeLayer):
            yield module


def warm_quantization(model: Module) -> int:
    """Pre-compute every quantized layer's clean record cache.

    Equivalent to programming the chip: after warming, gradient-free
    forwards serve codes + scales from the cache until a parameter's
    version counter changes.  Returns the number of warmed weight slots.
    """
    from ..tensor.grad_mode import no_grad

    warmed = 0
    with no_grad():
        for layer in quantized_layers(model):
            for slot, param in layer.weight_slots():
                record = layer._frozen_record(param, slot)
                if isinstance(record, QuantizedWeight):
                    warmed += 1
    return warmed


def freeze_deployment(model: Module) -> Module:
    """Put ``model`` in inference mode and program its quantized weights."""
    model.eval()
    warm_quantization(model)
    return model


def invalidate_quantization(model: Module) -> int:
    """Drop every quantized layer's cached codes and last records;
    returns layers cleared."""
    cleared = 0
    for layer in quantized_layers(model):
        layer.invalidate_quant_cache()
        cleared += 1
    return cleared

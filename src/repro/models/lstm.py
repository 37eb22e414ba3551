"""LSTM autoregressive forecaster (8/8-bit, Table I / Fig. 6b).

Two quantized LSTM layers followed by a quantized linear head, matching the
paper's "NN with two LSTM layers and a classifier layer" for the atmospheric
CO2 forecast.  The method's normalization (inverted norm for the proposed
method) is applied to the hidden features between recurrent layers and
before the head; SpinDrop-style baselines insert dropout at the same sites,
the standard placement for recurrent dropout.  A site sees the ``(n,
hidden)`` vector, which has no spatial axis, so SpatialSpinDrop's spatial
dropout there is SpinDrop's unit dropout and the two build one network
(:meth:`~repro.models.methods.MethodConfig.network`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..nn import Module, ModuleList
from ..nn.dropout import resample_masks, set_mask_scope
from ..quant import QuantLinear, QuantLSTMCell
from ..tensor import Tensor
from ..tensor.chipbatch import active_sample_count, sample_axis_hidden
from ..tensor.grad_mode import is_grad_enabled
from .methods import MethodConfig


class LSTMForecaster(Module):
    """Quantized two-layer LSTM regression model.

    Parameters
    ----------
    method:
        Normalization / stochasticity configuration.
    input_size:
        Features per time step (1 for the scalar CO2 series).
    hidden_size:
        LSTM hidden width (paper-scale unspecified; default 24).
    num_layers:
        Recurrent depth (paper: 2).
    bits:
        Weight bit width (Table I: 8).

    Under an MC-sample axis of ``S`` (one stacked Bayesian forward of
    ``chips x S`` instances, :func:`repro.core.bayesian.mc_forward`),
    the first layer's recurrence runs once per chip and is repeated to
    the ``S`` samples.  That gives the stacked pass's bits because
    nothing stochastic precedes the first layer's output: the samples of
    a chip share its input window and its frozen weight faults, the
    model has no activation-noise site, and its only stochastic sites
    (norms, dropout) follow each layer.
    """

    #: Dropout sees the ``(n, hidden)`` vector between layers, which has
    #: no spatial axis (:data:`~repro.models.methods.SPATIAL_DROPOUT`).
    dropout_dims = "features"

    def __init__(
        self,
        method: MethodConfig,
        input_size: int = 1,
        hidden_size: int = 24,
        num_layers: int = 2,
        bits: int = 8,
    ):
        super().__init__()
        self.method = method
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        cells: List[QuantLSTMCell] = []
        norms: List[Module] = []
        drops: List[Module] = []
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            cells.append(QuantLSTMCell(in_size, hidden_size, weight_bits=bits))
            norms.append(method.make_norm(hidden_size, dims="1d", mode="instance"))
            drops.append(method.make_dropout(dims=self.dropout_dims))
        self.cells = ModuleList(cells)
        self.norms = ModuleList(norms)
        self.drops = ModuleList(drops)
        self.head = QuantLinear(hidden_size, 1, weight_bits=bits)
        # Variational-RNN mask discipline: one stochastic mask per sequence,
        # shared across timesteps, resampled at the start of each forward.
        set_mask_scope(self, "frozen")

    def forward(self, x: Tensor) -> Tensor:
        """Map ``(n, t, input_size)`` windows to scalar forecasts ``(n,)``.

        Chip-batched ``(chips, n, t, input_size)`` inputs map to
        ``(chips, n)`` forecasts: indexing is time-step-from-the-right, and
        the zero initial states broadcast against chip-stacked gates.
        """
        resample_masks(self)
        n, t = x.shape[-3], x.shape[-2]
        states: List[Tuple[Tensor, Tensor]] = [
            (
                Tensor(np.zeros((n, self.hidden_size))),
                Tensor(np.zeros((n, self.hidden_size))),
            )
            for _ in range(self.num_layers)
        ]
        samples = active_sample_count() or 1
        per_chip = samples > 1 and not is_grad_enabled()
        # Instances are chip-major, so every S-th one is a chip's window.
        first = Tensor(x.data[::samples]) if per_chip else x
        last_hidden = None
        for step in range(t):
            inp = first[..., step, :]
            for layer in range(self.num_layers):
                if layer == 0 and per_chip:
                    with sample_axis_hidden():
                        h, c = self.cells[0](inp, states[0])
                    states[0] = (h, c)
                    h = Tensor(np.repeat(h.data, samples, axis=0))
                else:
                    h, c = self.cells[layer](inp, states[layer])
                    states[layer] = (h, c)
                # Normalize the hidden features feeding the next layer /
                # the head (the method's stochastic site for this model).
                inp = self.drops[layer](self.norms[layer](h))
            last_hidden = inp
        # Residual head: predict the increment over the last observation.
        # The per-instance normalization discards absolute level, so the
        # head models the (stationary) step change and the level is
        # restored from the input window — standard for trend series.
        delta = self.head(last_hidden)
        delta = delta.reshape(*delta.shape[:-1])
        return delta + x[..., t - 1, 0]

    def forecast(self, window: Tensor, steps: int) -> np.ndarray:
        """Iterated multi-step forecast from a seed window (autoregressive).

        Feeds each prediction back as the newest observation.  Returns the
        ``steps`` predicted values (normalized scale).
        """
        history = window.data.copy()  # (n, t, 1)
        predictions = []
        for _ in range(steps):
            pred = self.forward(Tensor(history)).data  # (n,)
            predictions.append(pred)
            history = np.concatenate(
                [history[:, 1:, :], pred.reshape(-1, 1, 1)], axis=1
            )
        return np.stack(predictions, axis=1)  # (n, steps)

    def extra_repr(self) -> str:
        return f"method={self.method.name!r}"

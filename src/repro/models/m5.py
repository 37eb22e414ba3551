"""M5: five-layer 1-D CNN for audio classification (8/8-bit, Table I).

Follows the published M5 layout — a wide-kernel strided front-end
convolution followed by three 3-tap convolution/pool stages, global average
pooling and a linear classifier — with 8-bit weights (:class:`QuantConv1d`)
and 8-bit activations (:class:`QuantReLU`), the precision the paper deploys
for Google Speech Commands.  Channel widths are configurable (paper: 128/
128/256/512; scaled defaults for the synthetic audio task).
"""

from __future__ import annotations

from ..nn import GlobalAvgPool1d, MaxPool1d, Module, Sequential
from ..quant import QuantConv1d, QuantLinear, QuantReLU
from ..tensor import Tensor
from .methods import MethodConfig


class _ConvUnit(Module):
    """conv → norm(method) → dropout(method) → quantized ReLU."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int,
        method: MethodConfig,
        bits: int,
    ):
        super().__init__()
        self.conv = QuantConv1d(
            in_channels,
            out_channels,
            kernel_size,
            stride=stride,
            padding=kernel_size // 2,
            weight_bits=bits,
        )
        self.norm = method.make_norm(out_channels, dims="1d", mode="instance")
        self.drop = method.make_dropout(dims=M5.dropout_dims)
        self.act = QuantReLU(bits=bits)

    def forward(self, x: Tensor) -> Tensor:
        return self.act(self.drop(self.norm(self.conv(x))))


class M5(Module):
    """8/8-bit M5 audio classifier.

    Parameters
    ----------
    method:
        Normalization / stochasticity configuration.
    num_classes:
        Output classes.
    base_width:
        First-stage channels (paper: 128; scaled default 16).
    front_kernel, front_stride:
        Front-end convolution geometry (paper: 80/4 on 16 kHz audio; scaled
        defaults 19/4 for length-256 synthetic waveforms).
    bits:
        Weight/activation bit width (Table I: 8).
    """

    #: What every dropout site sees (:data:`~repro.models.methods.SPATIAL_DROPOUT`).
    dropout_dims = "1d"

    def __init__(
        self,
        method: MethodConfig,
        num_classes: int = 10,
        in_channels: int = 1,
        base_width: int = 16,
        front_kernel: int = 19,
        front_stride: int = 4,
        bits: int = 8,
    ):
        super().__init__()
        self.method = method
        w = base_width
        self.features = Sequential(
            _ConvUnit(in_channels, w, front_kernel, front_stride, method, bits),
            MaxPool1d(4),
            _ConvUnit(w, w, 3, 1, method, bits),
            MaxPool1d(4),
            _ConvUnit(w, 2 * w, 3, 1, method, bits),
            _ConvUnit(2 * w, 2 * w, 3, 1, method, bits),
        )
        self.pool = GlobalAvgPool1d()
        self.classifier = QuantLinear(2 * w, num_classes, weight_bits=bits)

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.pool(self.features(x)))

    def extra_repr(self) -> str:
        return f"method={self.method.name!r}"

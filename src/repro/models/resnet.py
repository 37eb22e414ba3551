"""Binarized ResNet-18 for image classification (CIFAR-10 task, Table I).

Topology follows the CIFAR variant of ResNet-18 — a full-precision 3x3 stem,
four stages of two residual BasicBlocks with channel doubling and stride-2
downsampling, global average pooling, and a full-precision classifier — with
the block convolutions binarized IR-Net-style [18] (1-bit weights) and
activations binarized by a sign function (1/1 W/A in Table I).  First and
last layers stay full precision, the universal practice for binary networks.

The normalization after every convolution is supplied by the
:class:`~repro.models.methods.MethodConfig`, so the same backbone serves the
conventional NN, the SpinDrop baselines, and the proposed inverted
normalization (which the paper applies "following all the convolutional
layers as a drop-in replacement").

Width and input size are configurable; the defaults are scaled for CPU
training on the synthetic image task (DESIGN.md §2).
"""

from __future__ import annotations

from typing import List

from ..nn import Conv2d, GlobalAvgPool2d, Linear, Module, Sequential
from ..quant import QuantConv2d, SignActivation
from ..tensor import Tensor
from .methods import MethodConfig


class BasicBlock(Module):
    """Binary residual block: two (sign → binconv → norm) units + skip.

    The residual connection around each binary convolution (Bi-Real-Net
    style) preserves an information path through the non-differentiable
    sign, which binary ResNets require to train.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int,
        method: MethodConfig,
    ):
        super().__init__()
        self.sign1 = SignActivation()
        self.conv1 = QuantConv2d(
            in_channels, out_channels, 3, stride=stride, padding=1, weight_bits=1
        )
        self.norm1 = method.make_norm(out_channels, dims="2d", mode="instance")
        self.sign2 = SignActivation()
        self.conv2 = QuantConv2d(
            out_channels, out_channels, 3, stride=1, padding=1, weight_bits=1
        )
        self.norm2 = method.make_norm(out_channels, dims="2d", mode="instance")
        # SpinDrop-family baselines sample one dropout per residual block,
        # placed inside the first branch so the skip path keeps a clean
        # signal (binarized networks do not train otherwise at this scale).
        self.drop = method.make_dropout(dims=ResNet18.dropout_dims)
        if stride != 1 or in_channels != out_channels:
            # Full-precision 1x1 projection shortcut (negligible footprint).
            self.shortcut = Conv2d(
                in_channels, out_channels, 1, stride=stride, bias=False
            )
        else:
            self.shortcut = None

    def forward(self, x: Tensor) -> Tensor:
        identity = self.shortcut(x) if self.shortcut is not None else x
        out = self.drop(self.norm1(self.conv1(self.sign1(x))))
        out = out + identity
        out = self.norm2(self.conv2(self.sign2(out))) + out
        return out


class ResNet18(Module):
    """Binarized ResNet-18 classifier.

    Parameters
    ----------
    method:
        Normalization / stochasticity configuration.
    num_classes:
        Output classes (10 for the image task).
    base_width:
        Channels of the first stage (paper: 64; scaled default 16).
    in_channels:
        Input image channels.
    """

    STAGE_BLOCKS = (2, 2, 2, 2)
    #: What every dropout site sees (:data:`~repro.models.methods.SPATIAL_DROPOUT`).
    dropout_dims = "2d"

    def __init__(
        self,
        method: MethodConfig,
        num_classes: int = 10,
        base_width: int = 16,
        in_channels: int = 3,
    ):
        super().__init__()
        self.method = method
        widths = [base_width * (2**i) for i in range(4)]
        self.stem = Conv2d(in_channels, widths[0], 3, stride=1, padding=1, bias=False)
        self.stem_norm = method.make_norm(widths[0], dims="2d", mode="instance")
        stages: List[Module] = []
        channels = widths[0]
        for stage_idx, (width, blocks) in enumerate(zip(widths, self.STAGE_BLOCKS)):
            stride = 1 if stage_idx == 0 else 2
            for block_idx in range(blocks):
                stages.append(
                    BasicBlock(
                        channels,
                        width,
                        stride if block_idx == 0 else 1,
                        method,
                    )
                )
                channels = width
        self.stages = Sequential(*stages)
        self.pool = GlobalAvgPool2d()
        self.classifier = Linear(channels, num_classes)

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem_norm(self.stem(x))
        out = self.stages(out)
        return self.classifier(self.pool(out))

    def extra_repr(self) -> str:
        return f"method={self.method.name!r}"

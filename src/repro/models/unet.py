"""U-Net for retinal vessel segmentation (1-bit W / 4-bit A, Table I).

Encoder/decoder with skip connections.  Block convolutions are binarized
(:class:`QuantConv2d` with ``weight_bits=1``) and activations are quantized
to 4 bits with PACT [19], matching the paper's DRIVE deployment.  The
normalization after every convolution comes from the method configuration;
for the proposed method the paper normalizes "across groups of C_out/8
channels ... the same train-time and test-time behavior as Group
Normalization", i.e. group mode with 8 groups.

Up-sampling uses nearest-neighbour resize + binary 3x3 convolution (the
standard artifact-free alternative to transposed convolution); the final
1x1 projection to logits is full precision, as is the stem.
"""

from __future__ import annotations

from ..nn import Conv2d, MaxPool2d, Module, UpsampleNearest2d
from ..quant import PACT, QuantConv2d
from ..tensor import Tensor, concatenate
from .methods import MethodConfig


class _UNetConvBlock(Module):
    """Two (binconv → norm → PACT) units."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        method: MethodConfig,
        act_bits: int,
        num_groups: int = 8,
    ):
        super().__init__()
        self.conv1 = QuantConv2d(in_channels, out_channels, 3, padding=1, weight_bits=1)
        self.norm1 = method.make_norm(
            out_channels, dims="2d", mode="group", num_groups=num_groups
        )
        self.drop1 = method.make_dropout(dims=UNet.dropout_dims)
        self.act1 = PACT(bits=act_bits)
        self.conv2 = QuantConv2d(out_channels, out_channels, 3, padding=1, weight_bits=1)
        self.norm2 = method.make_norm(
            out_channels, dims="2d", mode="group", num_groups=num_groups
        )
        self.drop2 = method.make_dropout(dims=UNet.dropout_dims)
        self.act2 = PACT(bits=act_bits)

    def forward(self, x: Tensor) -> Tensor:
        out = self.act1(self.drop1(self.norm1(self.conv1(x))))
        return self.act2(self.drop2(self.norm2(self.conv2(out))))


class UNet(Module):
    """Binary-weight U-Net with 4-bit PACT activations.

    Parameters
    ----------
    method:
        Normalization / stochasticity configuration.
    base_width:
        Channels of the first encoder level (doubled per level; must be a
        multiple of 8 for the group-wise normalization).
    depth:
        Number of down/up-sampling levels.
    act_bits:
        PACT activation bit width (Table I: 4).
    """

    #: What every dropout site sees (:data:`~repro.models.methods.SPATIAL_DROPOUT`).
    dropout_dims = "2d"

    def __init__(
        self,
        method: MethodConfig,
        in_channels: int = 1,
        base_width: int = 8,
        depth: int = 2,
        act_bits: int = 4,
    ):
        super().__init__()
        if base_width % 8 != 0:
            raise ValueError(f"base_width must be a multiple of 8, got {base_width}")
        self.method = method
        self.depth = depth
        widths = [base_width * (2**i) for i in range(depth + 1)]

        self.stem = Conv2d(in_channels, widths[0], 3, padding=1, bias=False)
        encoders = []
        for level in range(depth):
            encoders.append(
                _UNetConvBlock(widths[level], widths[level], method, act_bits)
            )
        self.encoders = _module_list(encoders)
        self.pools = _module_list([MaxPool2d(2) for _ in range(depth)])
        self.downs = _module_list(
            [
                QuantConv2d(widths[level], widths[level + 1], 1, weight_bits=1)
                for level in range(depth)
            ]
        )
        self.bottleneck = _UNetConvBlock(widths[depth], widths[depth], method, act_bits)

        ups = []
        up_convs = []
        decoders = []
        for level in reversed(range(depth)):
            ups.append(UpsampleNearest2d(2))
            up_convs.append(
                QuantConv2d(widths[level + 1], widths[level], 3, padding=1, weight_bits=1)
            )
            decoders.append(
                _UNetConvBlock(2 * widths[level], widths[level], method, act_bits)
            )
        self.ups = _module_list(ups)
        self.up_convs = _module_list(up_convs)
        self.decoders = _module_list(decoders)
        self.head = Conv2d(widths[0], 1, 1)

    def forward(self, x: Tensor) -> Tensor:
        """Map ``(n, c, h, w)`` images to per-pixel logits ``(n, h, w)``.

        Chip-batched ``(chips, n, c, h, w)`` inputs map to
        ``(chips, n, h, w)`` logits: skip concatenation addresses the
        channel axis from the right, so the extra leading axis is inert.
        """
        out = self.stem(x)
        skips = []
        for level in range(self.depth):
            out = self.encoders[level](out)
            skips.append(out)
            out = self.downs[level](self.pools[level](out))
        out = self.bottleneck(out)
        for i, level in enumerate(reversed(range(self.depth))):
            out = self.up_convs[i](self.ups[i](out))
            out = concatenate([out, skips[level]], axis=-3)
            out = self.decoders[i](out)
        logits = self.head(out)
        return logits.reshape(*logits.shape[:-3], *logits.shape[-2:])

    def extra_repr(self) -> str:
        return f"method={self.method.name!r}"


def _module_list(modules):
    from ..nn import ModuleList

    return ModuleList(list(modules))

"""Numpy-backed autograd tensor engine.

The substrate every other subpackage builds on: a :class:`Tensor` class with
reverse-mode automatic differentiation, differentiable elementwise /
structural / convolutional operations, gradient checking, and seedable
randomness.
"""

from .chipbatch import (
    ChipBatchRng,
    active_chip_count,
    active_sample_count,
    chip_axes,
    chip_batch,
    mc_sample_axis,
    spawn_sample_streams,
)
from .grad_mode import enable_grad, is_grad_enabled, no_grad, set_grad_enabled
from .gradcheck import check_gradients, numeric_gradient
from .random import get_rng, manual_seed, scoped_rng, spawn_rng
from .tensor import (
    Tensor,
    as_tensor,
    concatenate,
    ones,
    stack_tensors,
    unbroadcast,
    zeros,
)
from . import conv, ops
from .conv import (
    avg_pool1d,
    avg_pool2d,
    conv1d,
    conv2d,
    conv_transpose2d,
    max_pool1d,
    max_pool2d,
    upsample_nearest2d,
)
from .ops import (
    abs_,
    add_noise,
    clip,
    dropout_mask_apply,
    exp,
    hardtanh,
    leaky_relu,
    log,
    log_softmax,
    maximum,
    pad,
    relu,
    sigmoid,
    softmax,
    sqrt,
    tanh,
    where,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack_tensors",
    "zeros",
    "ones",
    "unbroadcast",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "manual_seed",
    "get_rng",
    "scoped_rng",
    "spawn_rng",
    "ChipBatchRng",
    "active_chip_count",
    "active_sample_count",
    "chip_axes",
    "chip_batch",
    "mc_sample_axis",
    "spawn_sample_streams",
    "check_gradients",
    "numeric_gradient",
    "conv",
    "ops",
    "conv1d",
    "conv2d",
    "conv_transpose2d",
    "max_pool1d",
    "max_pool2d",
    "avg_pool1d",
    "avg_pool2d",
    "upsample_nearest2d",
    "exp",
    "log",
    "sqrt",
    "abs_",
    "tanh",
    "sigmoid",
    "relu",
    "leaky_relu",
    "hardtanh",
    "clip",
    "maximum",
    "where",
    "softmax",
    "log_softmax",
    "pad",
    "dropout_mask_apply",
    "add_noise",
]

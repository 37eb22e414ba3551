"""Differentiable convolution, pooling and up-sampling primitives.

Convolutions use the im2col / GEMM formulation: sliding windows of the
padded input are flattened into a matrix with one vectorized gather (the
flat gather index is a pure function of the geometry and cached across
calls — see :func:`_im2col_indices`; campaigns hit the same shapes
thousands of times), and one large matmul computes all output positions.
The backward pass reuses the saved column matrix for the weight gradient
and scatters the column gradient back into the input with a small loop
over kernel positions (no ``np.add.at`` on fancy indices, which would be
orders of magnitude slower).

These functions are the computational kernels behind
:class:`repro.nn.conv.Conv2d` and friends.

Chip-batched evaluation
-----------------------
The Monte Carlo campaign engine's stacked passes evaluate ``C``
simulated chips in one pass (see :mod:`repro.tensor.chipbatch`), which
shows up here as an extra leading *chip axis*:

* a 5-D activation ``(C, n, c, h, w)`` against a shared 4-D weight is
  folded into the batch dimension (fully differentiable, exact);
* a 5-D *per-chip* weight ``(C, c_out, c_in, kh, kw)`` — produced by
  chip-batched fault injection — selects a batched-GEMM path that
  contracts each chip's columns with its own kernel.  This path is
  inference-only: campaigns never backpropagate through faulty chips.

Pooling and up-sampling accept the extra leading axis transparently.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor, as_tensor


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


# ----------------------------------------------------------------------
# im2col gather-index cache
# ----------------------------------------------------------------------
# Monte Carlo campaigns run the same convolution geometries thousands of
# times (every chip instance, MC sample, and evaluation batch reuses the
# model's fixed shapes), so the column-gather index — a pure function of
# (channels, padded spatial size, kernel, stride, dilation) — is computed
# once and cached.  The flat index maps position (out_pixel, c*kh*kw) to
# the offset inside one sample's padded (c, hp, wp) block; gathering with
# it is bit-identical to the strided-window copy it replaces, and lets the
# instance-batched path collect every instance's columns in ONE vectorized
# take instead of a per-chip Python loop.
_IM2COL_INDEX_CACHE: dict = {}
_IM2COL_INDEX_CACHE_MAX = 128


def _im2col_indices(
    c: int,
    hp: int,
    wp: int,
    kh: int,
    kw: int,
    stride_h: int,
    stride_w: int,
    dilation_h: int = 1,
    dilation_w: int = 1,
) -> Tuple[np.ndarray, int, int]:
    """Cached flat gather index for one im2col geometry.

    Returns ``(index, oh, ow)`` where ``index`` has shape
    ``(oh * ow, c * kh * kw)`` and indexes the flattened ``(c, hp, wp)``
    block of one sample, laid out exactly like the window copy in
    :func:`_im2col2d` (rows ordered ``(oh, ow)``, columns ``(c, kh, kw)``).
    """
    key = (c, hp, wp, kh, kw, stride_h, stride_w, dilation_h, dilation_w)
    cached = _IM2COL_INDEX_CACHE.get(key)
    if cached is not None:
        return cached
    span_h = (kh - 1) * dilation_h + 1
    span_w = (kw - 1) * dilation_w + 1
    oh = (hp - span_h) // stride_h + 1
    ow = (wp - span_w) // stride_w + 1
    ki = np.repeat(np.arange(kh) * dilation_h, kw)
    kj = np.tile(np.arange(kw) * dilation_w, kh)
    # (c, kh*kw) offsets within one sample's flattened (c, hp, wp) block.
    patch = np.arange(c)[:, None] * (hp * wp) + (ki * wp + kj)[None, :]
    oi = np.repeat(np.arange(oh) * stride_h, ow)
    oj = np.tile(np.arange(ow) * stride_w, oh)
    origin = oi * wp + oj  # (oh*ow,)
    index = origin[:, None] + patch.reshape(1, -1)
    if len(_IM2COL_INDEX_CACHE) >= _IM2COL_INDEX_CACHE_MAX:
        _IM2COL_INDEX_CACHE.clear()
    _IM2COL_INDEX_CACHE[key] = (index, oh, ow)
    return index, oh, ow


def _im2col2d(
    xp: np.ndarray, kh: int, kw: int, stride_h: int, stride_w: int
) -> Tuple[np.ndarray, int, int]:
    """Flatten sliding windows of a padded NCHW array into a matrix.

    Returns ``(cols, oh, ow)`` where ``cols`` has shape
    ``(n * oh * ow, c * kh * kw)``.  Gathered with the cached flat index
    of :func:`_im2col_indices` — bit-identical to (and measurably faster
    than) a strided 6-D window copy.
    """
    n, c, hp, wp = xp.shape
    index, oh, ow = _im2col_indices(c, hp, wp, kh, kw, stride_h, stride_w)
    flat = np.ascontiguousarray(xp).reshape(n, c * hp * wp)
    cols = np.take(flat, index, axis=1)
    return cols.reshape(n * oh * ow, c * kh * kw), oh, ow


def _col2im2d(
    dcols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride_h: int,
    stride_w: int,
    pad_h: int,
    pad_w: int,
    oh: int,
    ow: int,
) -> np.ndarray:
    """Scatter column gradients back to the (unpadded) input gradient.

    Accumulates channels-last: each kernel position adds one contiguous
    ``(n, oh, ow, c)`` block into a zeroed ``(n, hp, wp, c)`` buffer, in
    the same ``(ki, kj)`` order an NCHW scatter would, so every element
    sees the same sums (bit-identical) while each ``+=`` runs over whole
    channel vectors instead of ``ow``-long rows.  Returns an NCHW *view*
    of that buffer (channels-last strides), un-padded.
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad_h, w + 2 * pad_w
    dxp = np.zeros((n, hp, wp, c), dtype=dcols.dtype)
    blocks = np.ascontiguousarray(
        dcols.reshape(n, oh, ow, c, kh * kw).transpose(4, 0, 1, 2, 3)
    )
    for ki in range(kh):
        for kj in range(kw):
            dxp[
                :,
                ki : ki + stride_h * oh : stride_h,
                kj : kj + stride_w * ow : stride_w,
            ] += blocks[ki * kw + kj]
    return dxp[:, pad_h : hp - pad_h, pad_w : wp - pad_w].transpose(0, 3, 1, 2)


def _pad2d(data: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the trailing two (spatial) axes by ``ph`` / ``pw``.

    A zeroed buffer plus one slice assignment: bit-identical to
    ``np.pad`` and 1.5-3.5x cheaper per call on the small feature maps
    campaigns convolve.
    """
    if not (ph or pw):
        return data
    *lead, h, w = data.shape
    out = np.zeros((*lead, h + 2 * ph, w + 2 * pw), dtype=data.dtype)
    out[..., ph : ph + h, pw : pw + w] = data
    return out


def _im2col2d_chips(
    xp: np.ndarray, kh: int, kw: int, stride_h: int, stride_w: int
) -> Tuple[np.ndarray, int, int]:
    """Instance-batched :func:`_im2col2d` for a padded ``(C, n, c, hp, wp)``
    array.

    Returns ``(cols, oh, ow)`` with ``cols`` of shape
    ``(C, n * oh * ow, c * kh * kw)`` — one column matrix per instance,
    ready for a batched GEMM against per-instance kernels.  Columns are
    collected with ONE vectorized gather over the whole stack using the
    cached index of :func:`_im2col_indices` (campaigns repeat the same
    geometry thousands of times), which is bit-identical to — and, with
    the per-instance Python loop gone, faster than — the strided window
    copy it replaces.
    """
    n_chips, n, c, hp, wp = xp.shape
    index, oh, ow = _im2col_indices(c, hp, wp, kh, kw, stride_h, stride_w)
    flat = np.ascontiguousarray(xp).reshape(n_chips * n, c * hp * wp)
    cols = np.take(flat, index, axis=1)  # (C*n, oh*ow, c*kh*kw)
    return cols.reshape(n_chips, n * oh * ow, c * kh * kw), oh, ow


def _conv2d_chipbatched(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tensor:
    """Batched-GEMM convolution of per-chip kernels (inference-only).

    ``weight`` is ``(C, c_out, c_in, kh, kw)`` — one faulty kernel per
    simulated chip.  ``x`` is either a shared ``(n, c_in, h, w)`` input
    (broadcast across chips by the GEMM) or an already chip-batched
    ``(C, n, c_in, h, w)`` activation.  Output: ``(C, n, c_out, oh, ow)``.
    """
    sh, sw = stride
    ph, pw = padding
    n_chips, c_out, c_in, kh, kw = weight.shape
    if x.shape[-3] != c_in:
        raise ValueError(
            f"conv2d channel mismatch: input {x.shape[-3]} vs weight {c_in}"
        )
    if x.ndim == 5 and x.shape[0] != n_chips:
        raise ValueError(
            f"conv2d chip mismatch: input {x.shape[0]} vs weight {n_chips}"
        )
    n = x.shape[-4]
    xp = _pad2d(x.data, ph, pw)
    if x.ndim == 5:
        cols, oh, ow = _im2col2d_chips(xp, kh, kw, sh, sw)
    else:
        cols, oh, ow = _im2col2d(xp, kh, kw, sh, sw)  # (n*oh*ow, k)
    w_mat = weight.data.reshape(n_chips, c_out, c_in * kh * kw)
    out_mat = cols @ w_mat.transpose(0, 2, 1)  # (C, n*oh*ow, c_out)
    if bias is not None:
        out_mat = out_mat + bias.data
    out = np.moveaxis(out_mat.reshape(n_chips, n, oh, ow, c_out), -1, 2)
    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        raise RuntimeError(
            "chip-batched conv2d is inference-only; campaigns never "
            "backpropagate through per-chip faulty kernels"
        )

    return Tensor._make(out, parents, backward, "conv2d_chips")


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int | Tuple[int, int] = 1,
    padding: int | Tuple[int, int] = 0,
) -> Tensor:
    """2-D cross-correlation over an NCHW tensor.

    Parameters
    ----------
    x: ``(n, c_in, h, w)``, or ``(C, n, c_in, h, w)`` under a chip batch
    weight: ``(c_out, c_in, kh, kw)``, or ``(C, c_out, c_in, kh, kw)``
    bias: ``(c_out,)`` or None
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if weight.ndim == 5:
        return _conv2d_chipbatched(x, weight, bias, _pair(stride), _pair(padding))
    if x.ndim == 5:
        # Shared weight across chips: fold the chip axis into the batch.
        # Composed from differentiable reshapes, so gradients stay exact.
        n_chips, n = x.shape[0], x.shape[1]
        folded = conv2d(
            x.reshape(n_chips * n, *x.shape[2:]),
            weight,
            bias,
            stride=stride,
            padding=padding,
        )
        return folded.reshape(n_chips, n, *folded.shape[1:])
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    c_out, c_in, kh, kw = weight.shape
    if c_in != c:
        raise ValueError(f"conv2d channel mismatch: input {c} vs weight {c_in}")

    xp = _pad2d(x.data, ph, pw)
    cols, oh, ow = _im2col2d(xp, kh, kw, sh, sw)
    w_mat = weight.data.reshape(c_out, -1)
    out_mat = cols @ w_mat.T
    if bias is not None:
        out_mat = out_mat + bias.data
    out = out_mat.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)
    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        gmat = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(-1, c_out)
        if weight.requires_grad:
            weight._accumulate((gmat.T @ cols).reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(gmat.sum(axis=0))
        if x.requires_grad:
            dcols = gmat @ w_mat
            x._accumulate(
                _col2im2d(dcols, x.shape, kh, kw, sh, sw, ph, pw, oh, ow)
            )

    return Tensor._make(out, parents, backward, "conv2d")


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """1-D cross-correlation over an NCL tensor.

    Implemented by viewing the signal as an NC1L image and reusing
    :func:`conv2d`.  Leading chip axes on ``x`` and/or ``weight`` pass
    straight through.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    x4 = x.reshape(*x.shape[:-1], 1, x.shape[-1])
    w4 = weight.reshape(*weight.shape[:-1], 1, weight.shape[-1])
    out = conv2d(x4, w4, bias=bias, stride=(1, stride), padding=(0, padding))
    return out.reshape(*out.shape[:-2], out.shape[-1])


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int | Tuple[int, int] = 1,
) -> Tensor:
    """2-D transposed convolution (fractionally-strided convolution).

    Parameters
    ----------
    x: ``(n, c_in, h, w)``
    weight: ``(c_in, c_out, kh, kw)`` (PyTorch layout)

    Output spatial size is ``(h - 1) * stride + k``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    sh, sw = _pair(stride)
    n, c_in, h, w = x.shape
    wc_in, c_out, kh, kw = weight.shape
    if wc_in != c_in:
        raise ValueError(f"conv_transpose2d channel mismatch: {c_in} vs {wc_in}")
    ho = (h - 1) * sh + kh
    wo = (w - 1) * sw + kw

    # Forward is the col2im scatter of (x projected through the weights).
    x_mat = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1)).reshape(-1, c_in)
    w_mat = weight.data.reshape(c_in, c_out * kh * kw)
    dcols = x_mat @ w_mat  # (n*h*w, c_out*kh*kw)
    # C-contiguous like every other forward output, so that reductions
    # downstream see the layout they always did.
    out = np.ascontiguousarray(
        _col2im2d(dcols, (n, c_out, ho, wo), kh, kw, sh, sw, 0, 0, h, w)
    )
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)
    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        # Backward is the im2col gather (ordinary convolution structure).
        gcols, goh, gow = _im2col2d(grad, kh, kw, sh, sw)
        assert (goh, gow) == (h, w)
        if x.requires_grad:
            gx_mat = gcols @ w_mat.T  # (n*h*w, c_in)
            x._accumulate(gx_mat.reshape(n, h, w, c_in).transpose(0, 3, 1, 2))
        if weight.requires_grad:
            gw = x_mat.T @ gcols  # (c_in, c_out*kh*kw)
            weight._accumulate(gw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out, parents, backward, "conv_transpose2d")


def max_pool2d(
    x: Tensor, kernel_size: int | Tuple[int, int], stride: Optional[int] = None
) -> Tensor:
    """Max pooling over an NCHW tensor (no padding).

    A 5-D ``(C, n, c, h, w)`` chip batch is folded into the batch axis.
    """
    x = as_tensor(x)
    if x.ndim == 5:
        folded = max_pool2d(
            x.reshape(x.shape[0] * x.shape[1], *x.shape[2:]), kernel_size, stride
        )
        return folded.reshape(x.shape[0], x.shape[1], *folded.shape[1:])
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride if stride is not None else kernel_size)
    n, c, h, w = x.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    s0, s1, s2, s3 = x.data.strides
    windows = as_strided(
        x.data,
        shape=(n, c, oh, ow, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3),
    )
    flat = windows.reshape(n, c, oh, ow, kh * kw)
    argmax = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        for idx in range(kh * kw):
            ki, kj = divmod(idx, kw)
            mask = argmax == idx
            dx[:, :, ki : ki + sh * oh : sh, kj : kj + sw * ow : sw] += grad * mask
        x._accumulate(dx)

    return Tensor._make(out.copy(), [x], backward, "max_pool2d")


def avg_pool2d(
    x: Tensor, kernel_size: int | Tuple[int, int], stride: Optional[int] = None
) -> Tensor:
    """Average pooling over an NCHW tensor (no padding).

    A 5-D ``(C, n, c, h, w)`` chip batch is folded into the batch axis.
    """
    x = as_tensor(x)
    if x.ndim == 5:
        folded = avg_pool2d(
            x.reshape(x.shape[0] * x.shape[1], *x.shape[2:]), kernel_size, stride
        )
        return folded.reshape(x.shape[0], x.shape[1], *folded.shape[1:])
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride if stride is not None else kernel_size)
    n, c, h, w = x.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    s0, s1, s2, s3 = x.data.strides
    windows = as_strided(
        x.data,
        shape=(n, c, oh, ow, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3),
    )
    out = windows.mean(axis=(-1, -2))
    scale = 1.0 / (kh * kw)

    def backward(grad: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        g = grad * scale
        for ki in range(kh):
            for kj in range(kw):
                dx[:, :, ki : ki + sh * oh : sh, kj : kj + sw * ow : sw] += g
        x._accumulate(dx)

    return Tensor._make(out, [x], backward, "avg_pool2d")


def max_pool1d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over an NCL tensor (chip batches pass through)."""
    x = as_tensor(x)
    x4 = x.reshape(*x.shape[:-1], 1, x.shape[-1])
    out = max_pool2d(x4, (1, kernel_size), (1, stride if stride else kernel_size))
    return out.reshape(*out.shape[:-2], out.shape[-1])


def avg_pool1d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling over an NCL tensor (chip batches pass through)."""
    x = as_tensor(x)
    x4 = x.reshape(*x.shape[:-1], 1, x.shape[-1])
    out = avg_pool2d(x4, (1, kernel_size), (1, stride if stride else kernel_size))
    return out.reshape(*out.shape[:-2], out.shape[-1])


def upsample_nearest2d(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour up-sampling of an NCHW tensor by an integer factor.

    Operates on the trailing two (spatial) axes, so chip-batched 5-D
    activations up-sample transparently.
    """
    x = as_tensor(x)
    data = x.data.repeat(scale, axis=-2).repeat(scale, axis=-1)
    h, w = x.shape[-2], x.shape[-1]

    def backward(grad: np.ndarray) -> None:
        g = grad.reshape(*x.shape[:-2], h, scale, w, scale).sum(axis=(-3, -1))
        x._accumulate(g)

    return Tensor._make(data, [x], backward, "upsample_nearest2d")

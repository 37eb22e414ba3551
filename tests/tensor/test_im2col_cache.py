"""Tests for the cached im2col gather-index path.

The flat gather index is a pure function of the convolution geometry and
is cached across calls (campaigns hit the same shapes thousands of times).
The gathered column matrix must be bit-identical to the strided window
copy it replaced — pinned here against an inline as_strided reference —
and convolution results must be unaffected by cache warmth.  The reverse
scatter, ``_col2im2d``, accumulates channels-last and is pinned to the
NCHW kernel-position loop it replaced.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from repro.tensor import Tensor, conv2d
from repro.tensor.conv import (
    _IM2COL_INDEX_CACHE,
    _col2im2d,
    _im2col2d,
    _im2col2d_chips,
    _im2col_indices,
)


def _strided_reference(xp, kh, kw, sh, sw):
    """The pre-cache im2col implementation, kept as the bit-exact oracle."""
    n, c, hp, wp = xp.shape
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    s0, s1, s2, s3 = xp.strides
    windows = as_strided(
        xp,
        shape=(n, c, kh, kw, oh, ow),
        strides=(s0, s1, s2, s3, s2 * sh, s3 * sw),
    )
    cols = np.ascontiguousarray(windows.transpose(0, 4, 5, 1, 2, 3))
    return cols.reshape(n * oh * ow, c * kh * kw), oh, ow


GEOMETRIES = [
    ((2, 3, 8, 8), 3, 3, 1, 1),
    ((1, 1, 6, 6), 3, 3, 2, 2),
    ((4, 2, 10, 7), 5, 3, 1, 2),
    ((3, 4, 5, 5), 1, 1, 1, 1),
]


class TestGatherMatchesStridedCopy:
    @pytest.mark.parametrize("shape,kh,kw,sh,sw", GEOMETRIES)
    def test_serial_columns_identical(self, shape, kh, kw, sh, sw):
        xp = np.random.default_rng(0).normal(size=shape)
        ref_cols, ref_oh, ref_ow = _strided_reference(xp, kh, kw, sh, sw)
        cols, oh, ow = _im2col2d(xp, kh, kw, sh, sw)
        assert (oh, ow) == (ref_oh, ref_ow)
        np.testing.assert_array_equal(cols, ref_cols)

    @pytest.mark.parametrize("shape,kh,kw,sh,sw", GEOMETRIES)
    def test_chip_batched_columns_identical_per_chip(self, shape, kh, kw, sh, sw):
        n_chips = 3
        xp = np.random.default_rng(1).normal(size=(n_chips,) + shape)
        cols, oh, ow = _im2col2d_chips(xp, kh, kw, sh, sw)
        for chip in range(n_chips):
            ref_cols, _, _ = _strided_reference(xp[chip], kh, kw, sh, sw)
            np.testing.assert_array_equal(cols[chip], ref_cols)

    def test_noncontiguous_input(self):
        # np.pad outputs are contiguous, but guard the general contract.
        base = np.random.default_rng(2).normal(size=(2, 3, 12, 12))
        view = base[:, :, ::2, ::2]
        ref_cols, _, _ = _strided_reference(np.ascontiguousarray(view), 3, 3, 1, 1)
        cols, _, _ = _im2col2d(view, 3, 3, 1, 1)
        np.testing.assert_array_equal(cols, ref_cols)


class TestDilatedIndices:
    @pytest.mark.parametrize("dil", [1, 2, 3])
    def test_dilated_index_matches_bruteforce(self, dil):
        # The cache key includes dilation (reserved for dilated convs);
        # pin the dilated index math against an explicit loop.
        c, hp, wp, kh, kw, sh, sw = 2, 11, 10, 3, 2, 2, 1
        idx, oh, ow = _im2col_indices(c, hp, wp, kh, kw, sh, sw, dil, dil)
        assert oh == (hp - ((kh - 1) * dil + 1)) // sh + 1
        assert ow == (wp - ((kw - 1) * dil + 1)) // sw + 1
        expected = np.empty((oh * ow, c * kh * kw), dtype=idx.dtype)
        for oi in range(oh):
            for oj in range(ow):
                col = 0
                for ci in range(c):
                    for ki in range(kh):
                        for kj in range(kw):
                            expected[oi * ow + oj, col] = (
                                ci * hp * wp
                                + (oi * sh + ki * dil) * wp
                                + (oj * sw + kj * dil)
                            )
                            col += 1
        np.testing.assert_array_equal(idx, expected)

    def test_dilation_distinguishes_cache_entries(self):
        _IM2COL_INDEX_CACHE.clear()
        a, _, _ = _im2col_indices(1, 9, 9, 3, 3, 1, 1, 1, 1)
        b, _, _ = _im2col_indices(1, 9, 9, 3, 3, 1, 1, 2, 2)
        assert len(_IM2COL_INDEX_CACHE) == 2
        assert not np.array_equal(a, b)


class TestIndexCache:
    def test_index_is_cached_per_geometry(self):
        _IM2COL_INDEX_CACHE.clear()
        idx1, oh, ow = _im2col_indices(3, 8, 8, 3, 3, 1, 1)
        idx2, _, _ = _im2col_indices(3, 8, 8, 3, 3, 1, 1)
        assert idx1 is idx2
        assert len(_IM2COL_INDEX_CACHE) == 1
        _im2col_indices(3, 8, 8, 3, 3, 2, 2)  # different stride → new entry
        assert len(_IM2COL_INDEX_CACHE) == 2

    def test_cache_is_bounded(self):
        _IM2COL_INDEX_CACHE.clear()
        from repro.tensor import conv as conv_mod

        for i in range(conv_mod._IM2COL_INDEX_CACHE_MAX + 5):
            _im2col_indices(1, 8 + i, 8, 3, 3, 1, 1)
        assert len(_IM2COL_INDEX_CACHE) <= conv_mod._IM2COL_INDEX_CACHE_MAX

    def test_conv2d_result_unaffected_by_cache_warmth(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 9, 9)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        _IM2COL_INDEX_CACHE.clear()
        cold = conv2d(x, w, stride=2, padding=1).data
        warm = conv2d(x, w, stride=2, padding=1).data
        np.testing.assert_array_equal(cold, warm)


def _nchw_col2im_reference(dcols, x_shape, kh, kw, sh, sw, ph, pw, oh, ow):
    """The NCHW scatter loop ``_col2im2d`` replaced, kept as the oracle."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * ph, w + 2 * pw
    dxp = np.zeros((n, c, hp, wp), dtype=dcols.dtype)
    dcols = dcols.reshape(n, oh, ow, c, kh, kw)
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, :, ki : ki + sh * oh : sh, kj : kj + sw * ow : sw] += (
                dcols[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
            )
    if ph or pw:
        return dxp[:, :, ph : hp - ph, pw : wp - pw]
    return dxp


class TestCol2imMatchesNchwLoop:
    @pytest.mark.parametrize("x_shape,kh,kw,sh,sw,ph,pw", [
        ((2, 3, 8, 8), 3, 3, 1, 1, 1, 1),
        ((2, 3, 8, 8), 3, 3, 2, 2, 1, 1),
        ((3, 4, 5, 5), 1, 1, 1, 1, 0, 0),
        ((3, 4, 6, 6), 1, 1, 2, 2, 0, 0),
        ((1, 2, 7, 6), 3, 3, 2, 1, 0, 0),
        ((16, 8, 2, 2), 3, 3, 1, 1, 1, 1),
        ((2, 2, 1, 9), 1, 3, 1, 2, 0, 1),
    ])
    def test_scatter_identical(self, x_shape, kh, kw, sh, sw, ph, pw):
        n, c, h, w = x_shape
        oh = (h + 2 * ph - kh) // sh + 1
        ow = (w + 2 * pw - kw) // sw + 1
        rng = np.random.default_rng(0)
        dcols = rng.normal(size=(n * oh * ow, c * kh * kw))
        dcols *= 10.0 ** rng.integers(-8, 9, size=dcols.shape)
        dcols[rng.random(dcols.shape) < 0.2] = -0.0
        dcols[:, :2] = -0.0  # a window position where every term is -0.0
        args = (dcols, x_shape, kh, kw, sh, sw, ph, pw, oh, ow)
        got = _col2im2d(*args)
        ref = _nchw_col2im_reference(*args)
        assert got.shape == ref.shape == x_shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(ref).tobytes()

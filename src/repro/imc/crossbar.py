"""Analog crossbar simulation of the in-memory weighted sum (Section II-D).

Models the full IMC datapath the paper abstracts away:

1. quantized weight codes are programmed as *differential conductance
   pairs* ``(G+, G-)`` — positive part on the G+ column, negative on G-;
2. the input vector is converted to voltages by a DAC of configurable
   resolution;
3. the array computes the weighted sum in the analog domain,
   ``I = V @ (G+ - G-)``, in O(1) time, optionally with conductance
   variation and stuck cells from the device model;
4. an ADC digitizes the column currents.

Large matrices are tiled into ``tile_rows``-row sub-arrays whose partial
sums are accumulated digitally, as real macros do.  The tiling, the DAC,
and the per-tile ADC are fully vectorized: all full tiles are contracted
by one stacked GEMM and digitized in one shot (a short remainder tile is
handled separately so its narrower ADC full-scale is preserved), instead
of looping tile by tile in Python.  The ideal crossbar (infinite DAC/ADC
resolution, no variation) reproduces the integer matmul of
:mod:`repro.quant` exactly — a property the test suite checks — which
justifies running the paper's fault campaigns at the algorithmic level.

Chip batching: a 3-D code tensor is a stack of per-chip weight codes
``(n_chips, out, in)`` — e.g. the per-chip faulty codes a batched
fault campaign produces — into one array object whose :meth:`matvec`
returns ``(n_chips, n, cols)`` in a single broadcast pass over the same
tiled analog datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from ..quant.functional import QuantizedWeight
from .devices import MTJParams


@dataclass
class CrossbarConfig:
    """Crossbar macro parameters.

    Attributes
    ----------
    g_on, g_off:
        Conductances (siemens) of the on/off cell states; multi-bit codes
        interpolate linearly between them.
    dac_bits, adc_bits:
        Data-converter resolutions; ``None`` disables quantization
        (ideal converter).
    tile_rows:
        Maximum rows per physical array; longer dot products are split
        across tiles and accumulated digitally.
    sigma_conductance:
        Relative programming variation applied per cell.
    stuck_rate, v_read:
        Fraction of stuck-at-off cells; read voltage for current scaling.
    """

    g_on: float = 2.5e-4  # 1 / R_P
    g_off: float = 1.0e-4  # 1 / R_AP
    dac_bits: Optional[int] = 8
    adc_bits: Optional[int] = 8
    tile_rows: int = 64
    sigma_conductance: float = 0.0
    stuck_rate: float = 0.0
    v_read: float = 0.2

    @classmethod
    def ideal(cls, **kwargs) -> "CrossbarConfig":
        """No converter quantization, no variation (unless overridden)."""
        kwargs.setdefault("dac_bits", None)
        kwargs.setdefault("adc_bits", None)
        return cls(**kwargs)

    @classmethod
    def from_mtj(cls, params: MTJParams, **kwargs) -> "CrossbarConfig":
        """Derive conductances from an MTJ device model."""
        return cls(g_on=1.0 / params.r_p, g_off=1.0 / params.r_ap, **kwargs)


def _uniform_quantize(values: np.ndarray, bits: int, max_abs: float) -> np.ndarray:
    """Symmetric mid-rise quantization to ``bits`` over ``[-max_abs, max_abs]``."""
    if max_abs == 0.0:
        return values
    levels = 2 ** (bits - 1) - 1
    scaled = np.clip(values / max_abs, -1.0, 1.0)
    return np.round(scaled * levels) / levels * max_abs


class CrossbarArray:
    """One programmed crossbar holding a ``(rows, cols)`` weight matrix.

    Parameters
    ----------
    qw:
        Quantized weight record (codes + scale) to program; codes map to
        differential conductance pairs.  3-D codes carry a leading chip
        axis ``(n_chips, out, in)`` — one faulty weight stack per
        simulated chip — and the whole stack is programmed as a
        broadcastable conductance tensor; any rank but 2 or 3 raises.
    config:
        Macro parameters.
    rng:
        Source for programming variation / stuck cells (chip instance).
        For a chip batch this may be a *sequence* of per-chip generators,
        in which case each chip's variation/stuck draws come from its own
        stream — bit-identical to programming the chips one at a time.
    """

    def __init__(
        self,
        qw: QuantizedWeight,
        config: Optional[CrossbarConfig] = None,
        rng: Union[np.random.Generator, Sequence[np.random.Generator], None] = None,
    ):
        if qw.codes.ndim not in (2, 3):
            raise ValueError(
                "crossbar expects a 2-D weight or a 3-D chip stack, got "
                f"{qw.codes.shape}"
            )
        self.config = config or CrossbarConfig()
        self.qw = qw
        self.n_chips = qw.codes.shape[0] if qw.codes.ndim == 3 else 1
        self.rows, self.cols = qw.codes.shape[-1], qw.codes.shape[-2]  # in x out
        if rng is None:
            rng = np.random.default_rng(0)
        self._program(rng)

    def _program(
        self, rng: Union[np.random.Generator, Sequence[np.random.Generator]]
    ) -> None:
        """Map codes to differential conductances, with non-idealities."""
        cfg = self.config
        codes = np.swapaxes(self.qw.codes, -1, -2)  # (..., rows=in, cols=out)
        qmax = self.qw.qmax
        pos = np.clip(codes, 0, None) / qmax
        neg = np.clip(-codes, 0, None) / qmax
        g_pos = cfg.g_off + pos * (cfg.g_on - cfg.g_off)
        g_neg = cfg.g_off + neg * (cfg.g_on - cfg.g_off)

        def draw(method: str, shape, *args) -> np.ndarray:
            if isinstance(rng, np.random.Generator):
                return getattr(rng, method)(*args, shape)
            # Per-chip generator stack: chip i's slice comes from rng[i],
            # exactly as if each chip were programmed on its own.
            return np.stack(
                [getattr(g, method)(*args, shape[1:]) for g in rng], axis=0
            )

        if cfg.sigma_conductance > 0.0:
            g_pos = g_pos * (
                1.0 + draw("normal", g_pos.shape, 0.0, cfg.sigma_conductance)
            )
            g_neg = g_neg * (
                1.0 + draw("normal", g_neg.shape, 0.0, cfg.sigma_conductance)
            )
        if cfg.stuck_rate > 0.0:
            g_pos = np.where(
                draw("random", g_pos.shape) < cfg.stuck_rate, cfg.g_off, g_pos
            )
            g_neg = np.where(
                draw("random", g_neg.shape) < cfg.stuck_rate, cfg.g_off, g_neg
            )
        self.g_pos = g_pos
        self.g_neg = g_neg

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Analog weighted sum for a batch of input vectors ``(n, rows)``.

        Returns the digitized result in *weight units* (dequantized), i.e.
        directly comparable to ``x @ (codes * scale).T`` — shaped
        ``(n, cols)``, or ``(n_chips, n, cols)`` for a chip-batched array.

        The tiled datapath is vectorized: all full ``tile_rows``-row tiles
        are contracted by one stacked GEMM and ADC-digitized together,
        then accumulated in tile order (matching the digital accumulator);
        a shorter remainder tile keeps its own narrower ADC full-scale.
        """
        cfg = self.config
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.rows:
            raise ValueError(f"expected {self.rows} inputs, got {x.shape[1]}")
        n = x.shape[0]
        x_max = np.abs(x).max()
        v = x
        if cfg.dac_bits is not None:
            v = _uniform_quantize(x, cfg.dac_bits, x_max)
        v = v * cfg.v_read  # volts
        delta_g = self.g_pos - self.g_neg  # (..., rows, cols)

        def digitize(current: np.ndarray, tile_len: int) -> np.ndarray:
            if cfg.adc_bits is None:
                return current
            # Per-tile full-scale: worst-case single-tile current.
            full_scale = cfg.v_read * x_max * (cfg.g_on - cfg.g_off) * tile_len
            return _uniform_quantize(current, cfg.adc_bits, full_scale)

        currents = np.zeros(delta_g.shape[:-2] + (n, self.cols))
        n_full = self.rows // cfg.tile_rows
        rows_full = n_full * cfg.tile_rows
        if n_full:
            v_tiles = v[:, :rows_full].reshape(n, n_full, cfg.tile_rows)
            v_tiles = v_tiles.transpose(1, 0, 2)  # (tiles, n, tile_rows)
            dg = delta_g[..., :rows_full, :]
            dg_tiles = dg.reshape(
                dg.shape[:-2] + (n_full, cfg.tile_rows, self.cols)
            )  # (..., tiles, tile_rows, cols)
            tile_currents = digitize(v_tiles @ dg_tiles, cfg.tile_rows)
            for tile in range(n_full):  # digital accumulation, in tile order
                currents += tile_currents[..., tile, :, :]
        if rows_full < self.rows:
            tail = v[:, rows_full:] @ delta_g[..., rows_full:, :]
            currents += digitize(tail, self.rows - rows_full)
        # Convert current back to weight units.
        lsb = (self.config.g_on - self.config.g_off) / self.qw.qmax
        scale = np.asarray(self.qw.scale).reshape(-1)
        out_scale = float(scale[0]) if scale.size == 1 else scale  # per-column
        return currents / (cfg.v_read * lsb) * out_scale

    def ideal_result(self, x: np.ndarray) -> np.ndarray:
        """Digital reference: ``x @ (codes * scale).T`` (per chip if batched)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return x @ np.swapaxes(self.qw.dequantize(), -1, -2)

    @property
    def n_tiles(self) -> int:
        return (self.rows + self.config.tile_rows - 1) // self.config.tile_rows

    def energy_estimate(self, x: np.ndarray) -> float:
        """Static-power-free dynamic energy proxy: sum of |I|·V over cells."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64)) * self.config.v_read
        total = np.abs(x) @ (self.g_pos + self.g_neg)
        return float(total.sum() * self.config.v_read)

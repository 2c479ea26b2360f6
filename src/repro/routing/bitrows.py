"""Row-bitset planes: a boolean grid band as one Python ``int``.

The wavefront router and :func:`~repro.routing.astar.distance_field`
both run king-move BFS levels over boolean grids.  At the window sizes
routing uses (a few thousand sites), a dozen numpy calls per level cost
far more in per-call overhead than in arithmetic; one arbitrary-
precision integer per level does the same work in a handful of
word-parallel C loops.

Layout: each grid row occupies ``stride`` bits -- the row's columns
plus ``pad`` padding columns on each side, rounded up to a whole byte --
and column ``c`` of band row ``i`` is bit ``i * stride + c + pad``.
The same layout, stored as ``uint8`` rows in little bit order, is what
:func:`pack_rows` produces, so a contiguous run of packed rows reads
straight into a band integer with ``int.from_bytes(rows, "little")``.

Padding columns are never free, so after masking no set bit sits at a
row's first or last column and the one-bit shifts of :func:`dilate8`
cannot carry a site across a row boundary.
"""

from __future__ import annotations

import numpy as np


def row_stride(cols, pad):
    """Bits per packed row: ``cols`` plus ``pad`` on each side, rounded
    up to a whole byte (``pad >= 1`` keeps dilation from wrapping)."""
    return -(-(cols + 2 * pad) // 8) * 8


def pack_rows(mask, pad, stride):
    """Pack a bool ``(rows, cols)`` grid into ``uint8 (rows, stride // 8)``
    rows, little bit order, column ``c`` at bit ``c + pad``."""
    mask = np.asarray(mask, dtype=bool)
    rows, cols = mask.shape
    wide = np.zeros((rows, stride), dtype=bool)
    wide[:, pad : pad + cols] = mask
    return np.packbits(wide, axis=1, bitorder="little")


def unpack_rows(bits, rows, stride):
    """The inverse view of a band integer: bool ``(rows, stride)``."""
    raw = np.frombuffer(bits.to_bytes(rows * stride // 8, "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little").reshape(rows, stride).view(bool)


def repeat_rows(row_bits, rows, stride):
    """``row_bits`` (one row's pattern) copied into each of ``rows`` rows."""
    ones = int.from_bytes(b"\x01".ljust(stride // 8, b"\x00") * rows, "little")
    return row_bits * ones


def dilate8(bits, stride):
    """One king-move (8-neighbour) dilation of a band integer.

    The 3x3 structuring element is separable: a horizontal pass of
    one-bit shifts, then a vertical pass of one-row shifts.  Bits
    shifted above the band's last row are the caller's to mask off.
    """
    row = bits | (bits << 1) | (bits >> 1)
    return row | (row << stride) | (row >> stride)

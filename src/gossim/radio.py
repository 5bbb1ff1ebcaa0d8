"""Probabilistic 1-hop broadcast model with a spatial-hash accelerator."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass


@dataclass(frozen=True)
class RadioParams:
    r: float
    R: float
    p_min: float

    def __post_init__(self):
        # an infinite R passes the range checks below, and then p is NaN past r
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError("r, R and p_min must be finite")
        if not 0 < self.r < self.R:
            raise ValueError("radio ranges must satisfy 0 < r < R")
        if not 0 < self.p_min <= 1:
            raise ValueError("p_min must be in (0, 1]")


def delivery_probability(d: float, p: RadioParams) -> float:
    """Probability that a transmission is received at distance d.

    1 inside the uniform radius, 0 beyond the maximum radius, and a
    smooth drop from 1 to p_min in between.  Both boundaries use the
    middle branch, which is continuous with the outer ones.
    """
    if d < 0:
        raise AssertionError("distance cannot be negative")
    if d < p.r:
        return 1.0
    if d > p.R:
        return 0.0
    x = (p.R - d) / (p.R - p.r)
    return p.p_min - math.sqrt(x) * (x - 5.0) * (1.0 - p.p_min) / 4.0


# A cell (cx, cy) is keyed by the one int cx * _STRIDE + cy, so its 3x3
# neighbourhood is the key plus nine fixed offsets.  Keys are linear in
# (cx, cy), so a neighbour's node is always found under key + offset.
# Two cells share a key only when their cy differ by a multiple of _STRIDE
# (fields over 2**20 cells tall); the shared bucket then adds far
# candidates, which the distance test drops, and never loses a near one.
_STRIDE = 1 << 20
_NEIGHBOURS = tuple(i * _STRIDE + j for i in (-1, 0, 1) for j in (-1, 0, 1))


class SpatialGrid:
    """Uniform hash grid over node positions.

    Cell size must be at least the query radius so a 3x3 cell
    neighbourhood is guaranteed to contain every candidate; the grid is
    an accelerator only and can never produce false negatives.
    """

    __slots__ = ("cell", "cells")

    def __init__(self, cell_size: float):
        self.cell = cell_size
        self.cells: dict[int, list[int]] = {}

    def rebuild(self, positions):
        """positions: iterable of (node, x, y)."""
        cells: dict[int, list[int]] = {}
        cell = self.cell
        for node, x, y in positions:
            key = int(x // cell) * _STRIDE + int(y // cell)
            bucket = cells.get(key)
            if bucket is None:
                cells[key] = [node]
            else:
                bucket.append(node)
        self.cells = cells

    def candidates(self, x: float, y: float) -> list[int]:
        """Nodes in the 3x3 cells around (x, y), as a fresh list."""
        cell = self.cell
        key = int(x // cell) * _STRIDE + int(y // cell)
        get = self.cells.get
        out: list[int] = []
        for offset in _NEIGHBOURS:
            bucket = get(key + offset)
            if bucket:
                out += bucket
        return out

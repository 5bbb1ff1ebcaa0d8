"""Probabilistic 1-hop broadcast model with a cell-grid accelerator."""

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
    if d < 0.0:
        raise AssertionError("distance cannot be negative")
    if d < p.r:
        return 1.0
    if d > p.R:
        return 0.0
    x = (p.R - d) / (p.R - p.r)
    return p.p_min - math.sqrt(x) * (x - 5.0) * (1.0 - p.p_min) / 4.0


# at most this many slots (8 bytes each) in a grid's list
MAX_SLOTS = 1 << 20


class SpatialGrid:
    """Uniform cell grid over node positions in a bounded field.

    Cell (cx, cy) holds the nodes at (x, y) with x // cell == cx and
    y // cell == cy.  Cell size must be at least the query radius so a
    3x3 cell neighbourhood is guaranteed to contain every candidate; the
    grid is an accelerator only and can never produce false negatives.

    The cells live in one flat list, column by column, over the bounding
    box of `areas` (nodes never leave their areas) padded by the one ring
    of cells that the 3x3 probe reads.  Each slot is None or its cell's
    nodes.  A box that would need more than MAX_SLOTS slots doubles the
    cell size until it fits: wider cells only add far candidates, which
    the caller's distance test drops.

    The grid keeps its cells between rebuilds: a rebuild moves only the
    nodes whose cell changed, and an emptied cell goes back to None.
    `candidates` caches each queried slot's nonempty 3x3 union, sorted,
    until a node leaves or enters one of those nine cells, and hands out
    that cached list itself: callers read it and must not modify it.
    """

    __slots__ = ("cell", "rows", "base", "neighbours", "slots", "cell_of", "unions")

    def __init__(self, cell_size: float, areas):
        x_min = min(a.x_min for a in areas)
        y_min = min(a.y_min for a in areas)
        x_max = max(a.x_max for a in areas)
        y_max = max(a.y_max for a in areas)
        cell = cell_size
        while True:
            cx0 = int(x_min // cell) - 1
            cy0 = int(y_min // cell) - 1
            cols = int(x_max // cell) + 2 - cx0
            rows = int(y_max // cell) + 2 - cy0
            if cols * rows <= MAX_SLOTS:
                break
            cell *= 2.0
        self.cell = cell
        self.rows = rows
        # cell (cx, cy) sits at slot cx * rows + cy - base
        self.base = cx0 * rows + cy0
        # a cell's 3x3 neighbourhood, as offsets from its slot
        self.neighbours = tuple(i * rows + j for i in (-1, 0, 1) for j in (-1, 0, 1))
        self.slots: list = [None] * (cols * rows)
        self.cell_of: list = []  # each node's slot at the last rebuild
        self.unions: dict[int, list[int]] = {}  # queried slot -> its 3x3 nodes

    def rebuild(self, positions):
        """positions: (x, y) of every node, indexed by node id.  Another
        node count than the last rebuild's starts the grid over."""
        slots = self.slots
        unions = self.unions
        cell_of = self.cell_of
        if len(cell_of) != len(positions):
            for k in cell_of:
                slots[k] = None
            unions.clear()
            cell_of = self.cell_of = [None] * len(positions)
        cell = self.cell
        rows = self.rows
        base = self.base
        neighbours = self.neighbours
        for node, (x, y) in enumerate(positions):
            k = int(x // cell) * rows + int(y // cell) - base
            old = cell_of[node]
            if k == old:
                continue
            if old is not None:
                bucket = slots[old]
                bucket.remove(node)
                if not bucket:
                    slots[old] = None
                for offset in neighbours:
                    unions.pop(old + offset, None)
            bucket = slots[k]
            if bucket is None:
                slots[k] = [node]
            else:
                bucket.append(node)
            for offset in neighbours:
                unions.pop(k + offset, None)
            cell_of[node] = k

    def candidates(self, x: float, y: float) -> list[int]:
        """Nodes in the 3x3 cells around (x, y), sorted; the grid's own
        list, which callers must not modify."""
        k = int(x // self.cell) * self.rows + int(y // self.cell) - self.base
        out = self.unions.get(k)
        if out is None:
            slots = self.slots
            out = []
            for offset in self.neighbours:
                bucket = slots[k + offset]
                if bucket:
                    out += bucket
            if out:
                out.sort()
                self.unions[k] = out
        return out

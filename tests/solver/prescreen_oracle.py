"""Single-row bound propagation, the reference for the batched prescreen.

The compiled forgery encoding screens a whole stack of bounds at once
(:meth:`repro.solver.compiled_encoding._FlatScreen.propagate_many`),
rows dropping out as they are refuted or settle, after an early pass
over the trees with the fewest boxes.  This module keeps the one-row
form it replaced: screen every box of every tree, clip the bounds to
each tree's hull of compatible boxes, repeat until refuted or still.
It reads only the screen's flat constraint columns, so the differential
tests compare the two row by row.
"""

from __future__ import annotations

import numpy as np


def _hulls(screen):
    """The constraints grouped per ``(side, feature, tree)``: an upper
    ``x_f <= v`` keeps ``v`` under key ``2f``, a lower ``x_f > w`` keeps
    ``-nextafter(w)`` under key ``2f + 1``."""
    box_tree = np.repeat(np.arange(screen.tree_offsets.size - 1), np.diff(screen.tree_offsets))
    box = np.concatenate([screen.upper_box, screen.lower_box])
    key = np.concatenate([2 * screen.upper_feature, 2 * screen.lower_feature + 1])
    value = np.concatenate([screen.upper_value, -np.nextafter(screen.lower_value, np.inf)])
    tree = box_tree[box]
    order = np.lexsort((tree, key))
    box, key, value, tree = box[order], key[order], value[order], tree[order]
    first = np.ones(box.size, dtype=bool)
    first[1:] = (key[1:] != key[:-1]) | (tree[1:] != tree[:-1])
    starts = np.flatnonzero(first)
    group_key = key[starts]
    runs = np.flatnonzero(np.diff(group_key, prepend=-1))
    return box_tree, box, value, starts, tree[starts], group_key[runs], runs


def screen_boxes(screen, lo, hi):
    """Mask of boxes intersecting ``[lo, hi]``, and their count per tree."""
    box_tree = np.repeat(np.arange(screen.tree_offsets.size - 1), np.diff(screen.tree_offsets))
    ok = np.ones(box_tree.size, dtype=bool)
    ok[screen.upper_box[screen.upper_value < lo[screen.upper_feature]]] = False
    ok[screen.lower_box[screen.lower_value >= hi[screen.lower_feature]]] = False
    return ok, np.bincount(box_tree[ok], minlength=screen.tree_offsets.size - 1)


def propagate(screen, lo, hi):
    """Tightened ``(lo, hi)``, or ``None`` when refuted, one row at a time."""
    _box_tree, box, value, starts, group_tree, keys, runs = _hulls(screen)

    def bound(ok, kept):
        if not starts.size:
            return value[:0]
        active = ok[box]
        covers = np.add.reduceat(active, starts) == kept[group_tree]
        hull = np.maximum.reduceat(np.where(active, value, -np.inf), starts)
        return np.minimum.reduceat(np.where(covers, hull, np.inf), runs)

    if (lo > hi).any():
        return None
    ok, kept = screen_boxes(screen, lo, hi)
    bounds = np.empty(2 * lo.size)
    bounds[0::2], bounds[1::2] = hi, -lo
    while kept.all():
        current = bounds[keys]
        tighter = np.minimum(current, bound(ok, kept))
        if (tighter == current).all():
            return lo, hi
        bounds[keys] = tighter
        hi, lo = bounds[0::2], -bounds[1::2]
        if (lo > hi).any():
            return None
        ok, kept = screen_boxes(screen, lo, hi)
    return None

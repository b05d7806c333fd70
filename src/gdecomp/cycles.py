"""Short-cycle enumeration on Cayley balls.

Cycles are found on the ball's adjacency lists by a single pure-Python
kernel (_cycles_py.simple_cycles); edge labels are read from the ball's
right-multiplication table.
"""

from __future__ import annotations

import warnings

from ._cycles_py import simple_cycles as _kernel

BACKEND = "python"  # the kernel in use, recorded with benchmark results


def invert_symbol(sym):
    return sym[:-1] if sym.endswith("'") else sym + "'"


class Cycle:
    """A simple cycle: vertex indices (min-first) and edge labels."""

    __slots__ = ("vertices", "labels", "canonical")

    def __init__(self, vertices, labels):
        self.vertices = tuple(vertices)
        self.labels = tuple(labels)
        self.canonical = _canonical_word(self.labels)

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"Cycle({'.'.join(self.canonical)})"

    def __eq__(self, other):
        return isinstance(other, Cycle) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def to_json(self):
        return {"vertices": list(self.vertices),
                "labels": list(self.labels),
                "canonical": list(self.canonical)}


def _least_rotation(word):
    n = len(word)
    doubled = word + word
    return min(tuple(doubled[i:i + n]) for i in range(n))


def _canonical_word(labels):
    """Least rotation of the smaller of the word and its reversed inverse."""
    rev_inv = tuple(invert_symbol(s) for s in reversed(labels))
    return min(_least_rotation(tuple(labels)), _least_rotation(rev_inv))


def enumerate_short_cycles(ball, r):
    """All simple cycles of edge length <= r inside the ball, deduplicated
    up to rotation and reversal, sorted by (length, canonical word)."""
    if r < 3:
        raise ValueError("cycles need length >= 3")
    if ball.radius < r:
        warnings.warn(
            f"ball radius {ball.radius} < r={r}: cycles near the boundary may be clipped",
            stacklevel=2)
    raw = _kernel(ball.adj, r)
    cycles = []
    for verts in raw:
        labels = [ball.edge_label(verts[i], verts[(i + 1) % len(verts)])
                  for i in range(len(verts))]
        cycles.append(Cycle(verts, labels))
    cycles.sort(key=lambda c: (len(c), c.canonical, c.vertices))
    return cycles

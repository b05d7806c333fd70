"""Breadth-first search and union-find, shared by every layer.

The paper's objects are graphs searched outward from a base point: the
Cayley ball, the truncated cover, the decomposition tree, the
Bass-Serre tree portion and the finite vertex groups (whose elements are
the vertices reached from the identity by the generators). `bfs` is that
search, with distances; `UnionFind` merges cover nodes and nerve
components.
"""

from __future__ import annotations

from collections import deque


def bfs(neighbors, start, radius=None):
    """{vertex: distance from start}, in BFS order.

    neighbors(x) yields x's neighbours; they are visited in that order.
    Vertices at distance `radius` are kept but not expanded.
    """
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        d = dist[x]
        if d == radius:
            continue
        for y in neighbors(x):
            if y not in dist:
                dist[y] = d + 1
                queue.append(y)
    return dist


class UnionFind:
    """Disjoint sets over 0..n-1; the least member of a set is its root."""

    def __init__(self, n=0):
        self.parent = list(range(n))

    def add(self):
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        """Merge the sets of a and b: (root, absorbed root or None)."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra, None
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra, rb

"""Finite truncations of the cover that unrolls everything except short cycles.

Construction: breadth-first walk classes from the ball's center, with
immediate backtrack folding (adjacency is keyed by base vertex, and each
new edge is installed in both directions). Identification beyond that is
forced, never guessed. The cycles of length <= r are the translates of
the simple closed words at the identity (`cycles.closed_words`), so at
each node the cover walks every word from the node's base vertex through
the ball's table and the cover together; when that lift fails to close,
its endpoints are merged and the merge is propagated by folding
(Stallings folding driven by the word list). The result quotients the
walk tree exactly by closures of short cycles, so identifications are
sound; completeness holds wherever every relevant short cycle is
visible, which is what the certified depth records.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
import random

from .cycles import closed_words
from .errors import CapExceeded, UncertifiedRegion, VerificationFailure
from .groups import multiply

DEFAULT_NODE_CAP = 500_000


class TruncatedCover:
    __slots__ = ("base", "r", "depth", "projection", "adj", "node_depth",
                 "certified_depth", "root")

    def __init__(self, base, r, depth, projection, adj, node_depth, certified_depth):
        self.base = base
        self.r = r
        self.depth = depth
        self.projection = projection  # cover vertex -> base vertex index
        self.adj = adj  # cover vertex -> {base neighbor index: cover neighbor}
        self.node_depth = node_depth
        self.certified_depth = certified_depth
        self.root = 0

    @property
    def vertex_count(self):
        return len(self.projection)

    def certified_vertices(self):
        return [i for i, d in enumerate(self.node_depth)
                if d <= self.certified_depth]

    def walk(self, start, base_path):
        """Follow base vertices from a cover node; None if an edge is absent."""
        node = start
        for bv in base_path:
            node = self.adj[node].get(bv)
            if node is None:
                return None
        return node

    def to_json(self):
        return {
            "r": self.r,
            "depth": self.depth,
            "certified_depth": self.certified_depth,
            "vertex_count": self.vertex_count,
            "projection": [self.base.elements[p].key() for p in self.projection],
            "edges": sorted(
                [u, v] for u in range(self.vertex_count)
                for v in self.adj[u].values() if u < v
            ),
        }


class DeckLift:
    """Partial deck transformation over the certified region."""

    __slots__ = ("cover", "gamma", "mapping")

    def __init__(self, cover, gamma, mapping):
        self.cover = cover
        self.gamma = gamma
        self.mapping = mapping  # cover vertex -> cover vertex

    def __call__(self, node):
        if node not in self.mapping:
            raise UncertifiedRegion(f"deck lift undefined at cover vertex {node}")
        return self.mapping[node]

    def compose(self, other):
        """self after other, on the overlap where both are defined."""
        gamma = multiply(self.gamma, other.gamma)
        mapping = {}
        for x, y in other.mapping.items():
            z = self.mapping.get(y)
            if z is not None:
                mapping[x] = z
        return DeckLift(self.cover, gamma, mapping)

    def order_on_region(self, cap=64):
        """Iterate until the lift acts as the identity on its whole domain."""
        current = self
        for k in range(1, cap + 1):
            if all(current.mapping.get(x) == x for x in current.mapping) \
                    and current.mapping:
                return k
            current = self.compose(current)
            if not current.mapping:
                return None
        return None


class _UnionFind:
    def __init__(self):
        self.parent = []

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
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra, None
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra, rb


def build_truncated_cover(ball, r, depth, node_cap=DEFAULT_NODE_CAP):
    """BFS walk classes to `depth`, folding closures of cycles of length <= r.

    Expansion runs out to depth + r so every cycle relevant to a kept
    vertex is lifted in full; the returned cover is the depth-truncation.
    """
    if r < 3:
        raise ValueError("r must be >= 3")
    if depth > ball.radius:
        raise ValueError("depth must be <= ball radius")
    words = closed_words(ball, r)
    right = ball.right
    expand_depth = depth + r

    uf = _UnionFind()
    base_of = []
    adj = []  # per node (rep-owned): {base vertex: node}
    # saturated[x]: every word walk from x that stays in the ball closes.
    # Folds only merge nodes, so such a walk stays closed and
    # close_cycles(x) would change nothing; the fixpoint skips x.
    saturated = bytearray()

    def new_node(bv):
        i = uf.add()
        base_of.append(bv)
        adj.append({})
        saturated.append(0)
        if i >= node_cap:
            raise CapExceeded("cover node cap exceeded", reached=i + 1)
        return i

    def fold(a, b):
        """Union two nodes (always over one base vertex) and propagate the
        merge through shared base neighbors, Stallings-style."""
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            keep, gone = uf.union(x, y)
            if gone is None:
                continue
            merged = adj[keep]
            for bv, node in adj[gone].items():
                node = uf.find(node)
                cur = merged.get(bv)
                if cur is not None and uf.find(cur) != node:
                    stack.append((uf.find(cur), node))
                else:
                    merged[bv] = node
            adj[gone] = {}
            # neighbors' back-edges must point at the surviving node
            bkey = base_of[keep]
            for bv, node in list(merged.items()):
                node = uf.find(node)
                merged[bv] = node
                adj[node][bkey] = keep

    root = new_node(0)

    def close_cycles(node):
        """Force lifts of the closed words at a node to close; returns True
        on merge. A word whose base walk leaves the ball is skipped."""
        changed = False
        complete = True
        node = uf.find(node)
        start = base_of[node]
        for word in words:
            cur, bv = node, start
            for k in word:
                bv = right[bv][k]
                if bv < 0:
                    break
                nxt = adj[cur].get(bv)
                if nxt is None:
                    complete = False
                    break
                cur = uf.find(nxt)
            else:
                if cur != uf.find(node):
                    fold(node, cur)
                    changed = True
                    node = uf.find(node)
        saturated[node] = complete
        return changed

    def depths():
        d = {root: 0}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x].values():
                y = uf.find(y)
                if y not in d:
                    d[y] = d[x] + 1
                    queue.append(y)
        return d

    # expand layer by layer, closing cycles to a fixpoint after each layer
    for layer in range(expand_depth):
        d = depths()
        frontier = [x for x, dx in d.items() if dx == layer]
        if not frontier:
            break
        for x in frontier:
            x = uf.find(x)
            for bw in ball.adj[base_of[x]]:
                if bw not in adj[x]:
                    child = new_node(bw)
                    adj[x][bw] = child
                    adj[child][base_of[x]] = x
        pending = True
        while pending:
            pending = False
            for x in range(len(base_of)):
                if not saturated[x] and uf.find(x) == x and close_cycles(x):
                    pending = True

    # compact: keep representatives within the requested depth
    d = depths()
    kept = sorted((dx, x) for x, dx in d.items() if dx <= depth)
    relabel = {x: i for i, (_, x) in enumerate(kept)}
    projection = [base_of[x] for _, x in kept]
    node_depth = [dx for dx, _ in kept]
    new_adj = []
    for _, x in kept:
        row = {}
        for bv, y in adj[x].items():
            y = uf.find(y)
            if y in relabel:
                row[bv] = relabel[y]
        new_adj.append(row)

    certified = depth if _is_closed(ball) else min(depth, max(0, ball.radius - r))
    return TruncatedCover(ball, r, depth, projection, new_adj, node_depth, certified)


def _is_closed(ball):
    """True when the ball is the entire (finite) Cayley graph: no product
    of a ball element and a generator falls outside it."""
    return not any(-1 in row for row in ball.right)


def verify_ball_preservation(cover, radius=None, samples=None, seed=0):
    """Projection restricted to small balls should be a graph isomorphism.

    radius defaults to floor(r/2), the guaranteed regime; passing a larger
    radius is allowed and is expected to fail on wrapped covers. The check
    fails when no certified vertex has its radius-ball inside the cover,
    since it then checks nothing.
    """
    if radius is None:
        radius = cover.r // 2
    certified = cover.certified_vertices()
    pool = [x for x in certified if cover.node_depth[x] + radius <= cover.depth]
    if samples is not None and samples < len(pool):
        rng = random.Random(seed)
        pool = sorted(rng.sample(pool, samples))
    witnesses = []
    for x in pool:
        cov_verts, cov_edges = _ball_subgraph(cover.adj, x, radius, dict_adj=True)
        base_verts, base_edges = _ball_subgraph(cover.base.adj,
                                                cover.projection[x], radius)
        image = {cover.projection[y] for y in cov_verts}
        # injective on the cover ball, onto the base ball's vertex set
        if len(image) != len(cov_verts) or image != base_verts:
            witnesses.append({
                "vertex": x,
                "cover_vertices": len(cov_verts),
                "cover_edges": cov_edges,
                "base_vertices": len(base_verts),
                "base_edges": base_edges,
            })
    return {"pass": bool(pool) and not witnesses, "radius": radius,
            "checked": len(pool), "witnesses": witnesses}


def _ball_subgraph(adj, start, radius, dict_adj=False):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        if dist[x] == radius:
            continue
        nbrs = adj[x].values() if dict_adj else adj[x]
        for y in nbrs:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    verts = set(dist)
    edges = 0
    for x in verts:
        nbrs = adj[x].values() if dict_adj else adj[x]
        edges += sum(1 for y in nbrs if y in verts and y > x)
    return verts, edges


def classify_cycle_lift(cover, cycle):
    """"lifts-closed" iff the cycle's lifted walk returns to its start."""
    start_base = cycle.vertices[0]
    candidates = [x for x in cover.certified_vertices()
                  if cover.projection[x] == start_base]
    if not candidates:
        raise UncertifiedRegion("cycle basepoint has no certified lift")
    start = min(candidates, key=lambda x: cover.node_depth[x])
    path = list(cycle.vertices[1:]) + [start_base]
    end = cover.walk(start, path)
    if end is None:
        raise UncertifiedRegion("cycle lift exits the truncated region")
    return "lifts-closed" if end == start else "lifts-open"


def lift_element_action(cover, gamma, base_point_lift=None):
    """Extend gamma's deck transformation edge-by-edge from the root lift.

    The image of the root is the lift of gamma reached by walking gamma's
    shortest base word from the root; extension then follows cover edges,
    checking commutation with the projection at every step.
    """
    ball = cover.base
    gi = ball.locate(gamma)
    if base_point_lift is None:
        if gi is None:
            raise VerificationFailure("gamma lies outside the base ball")
        # base path from center to gamma, as successive base vertices
        path, x = [], 0
        for k in ball.words[gi]:
            x = ball.right[x][k]
            path.append(x)
        base_point_lift = cover.walk(cover.root, path)
        if base_point_lift is None:
            raise UncertifiedRegion("no lift of gamma within the truncation")

    image_base = {}  # base vertex -> base vertex under left mult by gamma
    mapping = {cover.root: base_point_lift}
    queue = deque([cover.root])
    while queue:
        x = queue.popleft()
        y = mapping[x]
        for bv, xc in cover.adj[x].items():
            tb = image_base.get(bv)
            if tb is None:
                tb = (ball.product(gi, bv) if gi is not None
                      else ball.locate(multiply(gamma, ball.elements[bv])))
                image_base[bv] = tb if tb is not None else -1
            elif tb == -1:
                tb = None
            if tb is None or tb == -1:
                continue
            yc = cover.adj[y].get(tb)
            if yc is None:
                continue
            if xc in mapping:
                if mapping[xc] != yc:
                    raise VerificationFailure(
                        f"deck lift inconsistent at cover vertex {xc}")
                continue
            mapping[xc] = yc
            queue.append(xc)
    return DeckLift(cover, gamma, mapping)


def estimate_displacement(cover):
    """Min cover-distance between distinct lifts of one base vertex.

    Returns {"delta", "exact", "certified_diameter"}; delta is None when
    no base vertex has two lifts in the certified region (the true
    displacement then exceeds the certified diameter).
    """
    certified = set(cover.certified_vertices())
    by_base = {}
    for x in certified:
        by_base.setdefault(cover.projection[x], []).append(x)
    diameter = 2 * cover.certified_depth
    best = None
    for verts in by_base.values():
        if len(verts) < 2:
            continue
        for s in verts:
            dist = {s: 0}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in cover.adj[u].values():
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            for t in verts:
                if t != s and t in dist and (best is None or dist[t] < best):
                    best = dist[t]
    if best is None:
        return {"delta": None, "exact": False, "certified_diameter": diameter}
    # exact when a strictly interior pair realizes the bound
    exact = best <= cover.certified_depth
    return {"delta": best, "exact": exact, "certified_diameter": diameter}


def order_threshold(delta, r):
    """K = delta/r + 1, exact."""
    if delta < 0 or r < 1:
        raise ValueError("need delta >= 0 and r >= 1")
    return Fraction(delta, r) + 1

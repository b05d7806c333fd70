"""Finite truncations of the cover that unrolls everything except short cycles.

Construction: breadth-first walk classes from the ball's center, with
immediate backtrack folding (adjacency is keyed by base vertex, and each
new edge is installed in both directions). Identification beyond that is
forced, never guessed. The cycles of length <= r are the translates of
the simple closed words at the identity (`cycles.closed_words`). The
cover is a coset enumeration of the group presented by those words,
scanned from a deduction queue (Todd-Coxeter): a node is scanned when it
is created by a layer's expansion or survives a merge, since only then
can a walk through it newly complete. A scan walks the words from the
node's base vertex through the ball's table and the cover together, as
one prefix trie so that shared prefixes are walked once; when a lift
fails to close, its endpoints are merged and the merge is propagated by
Stallings folding, which queues the merged nodes in turn. The result
quotients the walk tree exactly by closures of short cycles, so
identifications are sound; completeness holds wherever every relevant
short cycle is visible, which is what the certified depth records.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
import random

from .cycles import closed_words
from .errors import CapExceeded, UncertifiedRegion, VerificationFailure
from .graphs import UnionFind, bfs
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


def build_truncated_cover(ball, r, depth, node_cap=DEFAULT_NODE_CAP):
    """BFS walk classes to `depth`, folding closures of cycles of length <= r.

    Expansion runs out to depth + r so every cycle relevant to a kept
    vertex is lifted in full; the returned cover is the depth-truncation.
    With a node cap, CapExceeded(reached=node_cap) is raised before node
    node_cap + 1 is added.
    """
    if r < 3:
        raise ValueError("r must be >= 3")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > ball.radius:
        raise ValueError("depth must be <= ball radius")
    trie = _word_trie(ball, closed_words(ball, r))
    right = ball.right
    expand_depth = depth + r

    uf = UnionFind()
    find, parent = uf.find, uf.parent
    base_of = []
    adj = []  # per node (rep-owned): {base vertex: node}
    queue = []  # nodes to scan: new children and the roots of merges

    def new_node(bv):
        if len(base_of) >= node_cap:
            raise CapExceeded("cover node cap exceeded", reached=node_cap)
        base_of.append(bv)
        adj.append({})
        return uf.add()

    def fold(a, b):
        """Union two nodes (always over one base vertex) and propagate the
        merge through shared base neighbors, Stallings-style."""
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            keep, gone = uf.union(x, y)
            if gone is None:
                continue
            queue.append(keep)
            merged = adj[keep]
            for bv, node in adj[gone].items():
                node = find(node)
                cur = merged.get(bv)
                if cur is not None and find(cur) != node:
                    stack.append((find(cur), node))
                else:
                    merged[bv] = node
            adj[gone] = {}
            # neighbors' back-edges must point at the surviving node
            bkey = base_of[keep]
            for bv, node in list(merged.items()):
                node = find(node)
                merged[bv] = node
                adj[node][bkey] = keep

    def scan(x):
        """Walk the word trie from x and fold x with the end of every
        complete walk that does not close. A walk stops at a step that
        leaves the ball (no cover edge is keyed -1) or has no cover edge
        yet. Where one stops partway round a cycle and the walk from x the
        other way round gets as far (`_word_trie`), the two make up a
        complete walk through x that starts elsewhere, and their ends are
        folded.

        A fold during the scan can absorb nodes held on the stack, so
        each is re-found when popped. The fold queues its surviving root,
        whose own scan covers whatever the stale part of this one misses.
        """
        reached = {}  # trie node id -> cover node
        stopped = []  # (meets, cover node) where a walk stopped
        stack = [(trie, x, base_of[x])]
        while stack:
            (tid, branches), cur, bv = stack.pop()
            if parent[cur] != cur:
                cur = find(cur)
            reached[tid] = cur
            out, row = adj[cur], right[bv]
            for k, sub, meets in branches:
                bw = row[k]
                nxt = out.get(bw)
                if nxt is None:
                    if meets:
                        stopped.append((meets, cur))
                elif sub is not None:
                    stack.append((sub, nxt, bw))
                elif nxt != x and find(nxt) != find(x):
                    fold(x, nxt)
                    cur = find(cur)
                    out = adj[cur]
        for meets, cur in stopped:
            for tid in reached.keys() & meets:
                fold(reached[tid], cur)

    root = new_node(0)

    def depths():
        return bfs(lambda x: (find(y) for y in adj[x].values()), root)

    # Expand layer by layer and drain the queue before the next layer. A
    # walk that a new edge completes starts or ends at the new child, as a
    # simple cycle cannot pass through a leaf; one that a merge completes
    # runs through the merged root, which `scan` checks both ways round.
    # So the queue reaches every fold that rescanning all nodes would, and
    # each layer ends at the least fixpoint, one partition whatever the
    # scan order (UnionFind keeps the least member). The numbering also
    # follows the order of the adjacency dicts, which a merge extends only
    # at unexpanded nodes; tests/cover_oracle.py holds the full rescan it
    # is checked against.
    for layer in range(expand_depth):
        d = depths()
        frontier = [x for x, dx in d.items() if dx == layer]
        if not frontier:
            break
        for x in frontier:
            x = find(x)
            for bw in ball.adj[base_of[x]]:
                if bw not in adj[x]:
                    child = new_node(bw)
                    adj[x][bw] = child
                    adj[child][base_of[x]] = x
                    queue.append(child)
        for x in queue:  # grows while it is scanned
            if find(x) == x:
                scan(x)
        queue.clear()

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
            y = find(y)
            if y in relabel:
                row[bv] = relabel[y]
        new_adj.append(row)

    certified = depth if _is_closed(ball) else min(depth, max(0, ball.radius - r))
    return TruncatedCover(ball, r, depth, projection, new_adj, node_depth, certified)


def _word_trie(ball, words):
    """The closed words as a prefix trie for `scan`.

    A node is (id, branches); a branch is (generator index, child, meets),
    and its child is None where a word ends (a closed word never extends
    another). Walked from one vertex, a word u of length n and its
    reverse word go round one cycle in the two directions. A walk of u
    that stops before step p + 1 (0 < p < n) is at the cycle's p-th
    vertex, and so is the reverse walk after n - p steps. `meets` holds
    the ids of the nodes those reverse walks are at, over every word
    through the branch.
    """
    right = ball.right
    ids, nexts = {(): 0}, {(): {}}  # proper word prefix -> id, next steps
    for word in words:
        for p in range(len(word)):
            ids.setdefault(word[:p], len(ids))
            nexts.setdefault(word[:p], {})[word[p]] = None
    meets = {}  # (id, generator index) -> ids
    for word in words:
        n, path = len(word), [0]
        for k in word:
            path.append(right[path[-1]][k])
        path.reverse()
        rev = tuple(right[v].index(w) for v, w in zip(path, path[1:]))
        for p in range(1, n):
            meets.setdefault((ids[word[:p]], word[p]), set()).add(
                ids[rev[:n - p]])

    def node(prefix):
        i = ids[prefix]
        return i, tuple(
            (k, node(prefix + (k,)) if prefix + (k,) in ids else None,
             frozenset(meets.get((i, k), ())))
            for k in nexts[prefix])
    return node(())


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
        cov_verts, cov_edges = _ball_subgraph(lambda y: cover.adj[y].values(),
                                              x, radius)
        base_verts, base_edges = _ball_subgraph(cover.base.adj.__getitem__,
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


def _ball_subgraph(neighbors, start, radius):
    verts = set(bfs(neighbors, start, radius))
    edges = sum(1 for x in verts for y in neighbors(x) if y in verts and y > x)
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
            dist = bfs(lambda u: cover.adj[u].values(), s)
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

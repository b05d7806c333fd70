"""Reference truncated-cover construction, for checking the queued one.

After each layer is expanded, every node that is not yet saturated is
rescanned against every closed word, one word at a time, and the pass
repeats until no scan folds. The result must equal
`gdecomp.cover.build_truncated_cover` byte for byte in `to_json()`.
"""

from __future__ import annotations

from gdecomp.cover import TruncatedCover, _is_closed
from gdecomp.cycles import closed_words
from gdecomp.errors import CapExceeded
from gdecomp.graphs import UnionFind, bfs


def build_truncated_cover(ball, r, depth, node_cap=500_000):
    if r < 3:
        raise ValueError("r must be >= 3")
    if depth > ball.radius:
        raise ValueError("depth must be <= ball radius")
    words = closed_words(ball, r)
    right = ball.right
    expand_depth = depth + r

    uf = UnionFind()
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
        return bfs(lambda x: (uf.find(y) for y in adj[x].values()), root)

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

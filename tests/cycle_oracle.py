"""Reference rules for the short-cycle layer, for checking the word-based
ones.

`simple_cycles`: given sorted adjacency lists and a maximum edge length,
every simple cycle as a vertex tuple starting at the cycle's minimum
vertex, one direction per cycle (the second vertex is smaller than the
last), by DFS over the whole graph. `labelled_cycles` gives each such
cycle of a Cayley ball its word, edge label by edge label.
`coset_report` is the per-cycle coset rule: the quotients of each
cycle's vertices by its first vertex, formed with `ball.inverse` and
`ball.mul`, must lie in one candidate vertex set.
"""

from __future__ import annotations


def simple_cycles(adj, max_len):
    n = len(adj)
    adj_sets = [set(a) for a in adj]
    out = []
    in_path = bytearray(n)
    path = []

    def extend(v, m):
        path.append(v)
        if len(path) >= 3 and m in adj_sets[v] and path[1] < v:
            out.append(tuple(path))
        if len(path) < max_len:
            in_path[v] = 1
            for w in adj[v]:
                if w > m and not in_path[w]:
                    extend(w, m)
            in_path[v] = 0
        path.pop()

    for m in range(n):
        path.clear()
        path.append(m)
        in_path[m] = 1
        for w in adj[m]:
            if w > m:
                extend(w, m)
        in_path[m] = 0
    return out


def labelled_cycles(ball, r):
    """The ball's simple cycles of length <= r as (vertices, word) pairs,
    each step's generator index read from its edge label."""
    syms = [sym for sym, _ in ball.generators]
    adj = [ball.neighbors(v) for v in range(ball.vertex_count)]
    return [(vs, tuple(syms.index(ball.edge_label(u, v))
                       for u, v in zip(vs, vs[1:] + vs[:1])))
            for vs in simple_cycles(adj, r)]


def coset_report(ball, r, subs):
    """cycles_checked and the sorted violating cycles, for candidate
    vertex sets subs, deciding each cycle by itself."""
    cycles = labelled_cycles(ball, r)
    violations = []
    for verts, word in cycles:
        base_inv = ball.inverse(verts[0])
        quotients = {ball.mul(base_inv, y) for y in verts}
        if not any(quotients <= set(h) for h in subs):
            violations.append((verts, word))
    return {"cycles_checked": len(cycles), "violations": sorted(violations)}

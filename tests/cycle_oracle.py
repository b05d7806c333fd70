"""Reference simple-cycle enumeration, for checking the word-based one.

Given sorted adjacency lists and a maximum edge length, return every
simple cycle as a vertex tuple starting at the cycle's minimum vertex,
one direction per cycle (the second vertex is smaller than the last),
by DFS over the whole graph.
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

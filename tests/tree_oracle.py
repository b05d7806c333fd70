"""Reference build of a Bass–Serre tree portion by group arithmetic.

`build_tree_portion` reads the moves out of a coset from the lowest-index
coset representatives that the normal form keeps. Here they come from a
search: a left transversal of each edge group's image inside the listed
based vertex subgroup, found by multiplying elements. For an edge
u -> v with stable letter s, the image on the v side is s⁻¹·α_u(E)·s
(the edge relation s⁻¹·α_u(c)·s = α_v(c)). Tree vertices are keyed by
their vertex and their coset as a set of elements, not by normal path
words.

`classify_by_scan` is the reference classification: the displacement of
every portion vertex whose image lies in the portion, measured along
the portion's edges from one BFS from the root.
"""

from __future__ import annotations

from collections import deque

from gdecomp.errors import UncertifiedRegion
from gdecomp.graphs import bfs
from gdecomp.groups import inverse, multiply


def coset_transversal(elements, image_data):
    """Left coset representatives of a subgroup inside a listed group:
    the first element of each coset, in list order."""
    reps, seen = [], set()
    for h in elements:
        key = frozenset(multiply(h, g).data for g in elements
                        if g.data in image_data)
        if key not in seen:
            seen.add(key)
            reps.append(h)
    return reps


def tree_moves(group, subgroups):
    """Per vertex v, the (target vertex, step) pairs out of H_v."""
    moves = [[] for _ in subgroups]
    for i, e in enumerate(group.gog.edges):
        s = group.stable_letter(i)
        si = inverse(s)
        image = [group.based_vertex_element(e.u, c) for c in e.into_u]
        img_u = {x.data for x in image}
        img_v = {multiply(multiply(si, x), s).data for x in image}
        for t in coset_transversal(subgroups[e.u], img_u):
            moves[e.u].append((e.v, multiply(t, s)))
        for t in coset_transversal(subgroups[e.v], img_v):
            moves[e.v].append((e.u, multiply(t, si)))
    return moves


def tree_portion(group, radius):
    """(orbit, reps, words, adj, dist) of the ball of `radius` about
    H_0 in the coset tree, in BFS order over the searched moves."""
    subgroups = [group.based_vertex_subgroup(v)
                 for v in range(len(group.gog.vertices))]
    moves = tree_moves(group, subgroups)

    def key(v, g):
        return v, frozenset(multiply(g, h).data for h in subgroups[v])

    orbit, reps, dist, adj = [0], [group.identity], [0], [set()]
    index = {key(0, group.identity): 0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        if dist[x] == radius:
            continue
        for v, step in moves[orbit[x]]:
            g = multiply(reps[x], step)
            y = index.setdefault(key(v, g), len(reps))
            if y == len(reps):
                orbit.append(v)
                reps.append(g)
                dist.append(dist[x] + 1)
                adj.append(set())
                queue.append(y)
            if y != x:
                adj[x].add(y)
                adj[y].add(x)
    words = [group.coset_word(v, g) for v, g in zip(orbit, reps)]
    return orbit, reps, words, [sorted(a) for a in adj], dist


def classify_by_scan(tree, gamma):
    """(kind, translation length, witness) of gamma on the portion:
    elliptic at the least-index fixed vertex, hyperbolic at the least
    vertex of least displacement with a neighbour of the same
    displacement, and UncertifiedRegion otherwise. Displacements are path
    lengths in `adj`, through parent links of one BFS from the root."""
    depth = bfs(tree.adj.__getitem__, 0)
    parent = {z: next(p for p in tree.adj[z] if depth[p] == d - 1)
              for z, d in depth.items() if d}

    def distance(x, y):
        d = depth[x] + depth[y]
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            x = parent[x]
        return d - 2 * depth[x]

    displacements = []
    for x in range(tree.vertex_count):
        y = tree.action(gamma, x)
        if y is not None:
            displacements.append((distance(x, y), x, y))
    if not displacements:
        raise UncertifiedRegion("no vertex image computable on the portion")
    dmin = min(d for d, _, _ in displacements)
    if dmin == 0:
        return "elliptic", None, min(x for d, x, _ in displacements if d == 0)
    attaining = {x for d, x, _ in displacements if d == dmin}
    for x in sorted(attaining):
        for y in tree.adj[x]:
            if y in attaining:
                return "hyperbolic", dmin, (x, y)
    raise UncertifiedRegion(
        f"min displacement {dmin} not certified on an axis segment; "
        "build a larger portion")

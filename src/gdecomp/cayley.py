"""Finite Cayley balls and coset bookkeeping on them.

A ball is the induced subgraph on all elements within a given word
distance of the identity, for the group's symmetric generating set
`gen_symbols()`. Edges run x -- x*s for each generator s; parallel edges
(distinct generators giving the same neighbor) collapse to one, keeping
every label.

The ball is stored as its right-multiplication table, a partial coset
table of the trivial subgroup: right[v][k] is the vertex of
elements[v] * gen_k, or -1 outside the ball. Each of those products is
computed once, while the ball is built; adjacency, edges and labels are
read off the table, and products of ball vertices walk it (`product`,
`inverse`). For a graph-of-groups group the products come from the
group's memo of window products (`GraphOfGroupsGroup.right_multiplier`):
right multiplication by a generator rewrites only a bounded suffix of a
normal form.

Vertex keys (`elements[v].key()`) are not cached: each reader keys only
the vertices it reads.

A ball is a prefix of every larger ball of the group, so one ball
serves a run: `build_ball` cuts a smaller ball from a given one, or grows
a larger one out of it by continuing its BFS.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import CapExceeded, VerificationFailure
from .graphs import bfs
from .groups import GraphOfGroupsGroup, inverse, multiply

DEFAULT_CAP = 2 * 10**6

# the largest radius torsion_length_bound grows its ball to
TORSION_RADIUS_CAP = 64


class CayleyBall:
    """Immutable once built; vertex 0 is the identity."""

    __slots__ = ("group", "radius", "generators", "elements", "index",
                 "word_length", "words", "right", "adj", "inv_gen")

    def __init__(self, group, radius, generators, elements, index,
                 word_length, words, right, adj=()):
        self.group = group
        self.radius = radius
        self.generators = generators  # list of (symbol, element), symmetric
        self.elements = elements
        self.index = index  # element data -> vertex index
        self.word_length = word_length
        self.words = words  # a shortest word per vertex, as generator indices
        self.right = right  # vertex -> [vertex of elements[v] * gen_k or -1]
        # vertex -> sorted neighbors; `adj` is a prefix of them, shared
        self.adj = list(adj) + [sorted(set(row) - {-1, v})
                                for v, row in enumerate(right[len(adj):],
                                                        len(adj))]
        # generator index of each generator's inverse (unused at radius 0,
        # where every stored word is empty)
        self.inv_gen = [right[j].index(0) if j >= 0 else -1
                        for j in right[0]]

    @property
    def vertex_count(self):
        return len(self.elements)

    @property
    def edge_count(self):
        return sum(1 for _ in self.edge_pairs())

    def locate(self, g):
        """Vertex index of an element, or None if outside the ball."""
        return self.index.get(g.data)

    def __contains__(self, g):
        return g.data in self.index

    def inverse(self, v):
        """Vertex of elements[v]^-1: the reversed, inverted stored word of v
        walked from vertex 0, which never leaves the ball."""
        right, inv = self.right, self.inv_gen
        x = 0
        for k in reversed(self.words[v]):
            x = right[x][inv[k]]
        return x

    def product(self, u, *vs):
        """Vertex of elements[u] * elements[v] * ... for ball vertices u, v,
        ..., or None outside the ball. Walks the stored words of the vs
        from u; only a walk that leaves the ball falls back to group
        arithmetic, since the product may still land inside."""
        right, words = self.right, self.words
        x = u
        for v in vs:
            for k in words[v]:
                x = right[x][k]
                if x < 0:
                    acc = self.elements[u]
                    for w in vs:
                        acc = multiply(acc, self.elements[w])
                    return self.locate(acc)
        return x

    def edge_pairs(self):
        """The adjacent pairs (u, v) with u < v, in sorted order."""
        return ((u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if v > u)

    def edges(self):
        """Sorted (u, v, labels) triples with u < v; labels are the sorted
        generator symbols s with elements[u] * s == elements[v]."""
        syms = [sym for sym, _ in self.generators]
        return [(u, v, sorted({s for s, w in zip(syms, self.right[u]) if w == v}))
                for u, v in self.edge_pairs()]

    def interior(self, radius):
        """Vertex indices at word distance <= radius."""
        return [i for i, d in enumerate(self.word_length) if d <= radius]

    def layer_counts(self):
        counts = [0] * (self.radius + 1)
        for d in self.word_length:
            counts[d] += 1
        return counts

    def edge_label(self, u, v):
        """Least generator symbol s with elements[u] * s == elements[v]."""
        labels = [sym for (sym, _), w in zip(self.generators, self.right[u])
                  if w == v]
        if not labels:
            raise VerificationFailure(f"no edge between vertices {u} and {v}")
        return min(labels)

    def to_json(self):
        syms = [sym for sym, _ in self.generators]
        return {
            "group": getattr(self.group, "name", "group"),
            "radius": self.radius,
            "generators": sorted(syms),
            "vertex_count": self.vertex_count,
            "vertices": [
                {"index": i, "element": g.key(),
                 "distance": self.word_length[i],
                 "word": [syms[k] for k in self.words[i]]}
                for i, g in enumerate(self.elements)
            ],
            "edges": [{"u": u, "v": v, "labels": labels}
                      for u, v, labels in self.edges()],
        }

    def to_dot(self):
        lines = ["graph ball {", "  node [shape=circle];"]
        for i, g in enumerate(self.elements):
            lines.append(f'  n{i} [label="{g.key()}"];')
        for u, v, labels in self.edges():
            lines.append(f'  n{u} -- n{v} [label="{",".join(labels)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_ball(group, radius, cap=DEFAULT_CAP, ball=None):
    """BFS out to word distance `radius` over `group.gen_symbols()`,
    filling the right-multiplication table: each product
    elements[v] * gen_k is computed exactly once.

    A ball is a prefix of every larger ball of the group: the same BFS
    order, words and rows, with the entries that leave it set to -1. So a
    given `ball` of the group serves any radius. A smaller radius
    restricts it, with no products; a larger one continues its BFS,
    forming only the products that its boundary rows lack and those of
    the new layers. The given ball is left unchanged."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if cap < 1:
        # the identity alone needs one vertex
        raise ValueError("cap must be >= 1")
    if ball is None:
        pairs = list(group.gen_symbols())
        ident = group.identity
        elements, index = [ident], {ident.data: 0}
        word_length, words, right = [0], [()], [[-1] * len(pairs)]
        start, adj = 0, ()
    elif radius <= ball.radius:
        return _restriction(ball, radius, cap)
    else:
        pairs = ball.generators
        elements, index = ball.elements[:], ball.index.copy()
        word_length, words = ball.word_length[:], ball.words[:]
        # the BFS resumes at the boundary, whose rows are copied to be
        # filled; the rows inside it, and so their neighbor lists, stay
        start = bisect_left(word_length, ball.radius)
        right = ball.right[:start] + [row[:] for row in ball.right[start:]]
        adj = ball.adj[:start]
    times = _right_multipliers(group, pairs)
    # vertices are appended in BFS order, so when vertex i is expanded every
    # vertex at distance <= word_length[i] + 1 is either known or new here;
    # only the -1 entries of its row are computed
    i = start
    while i < len(elements):
        x, row = elements[i], right[i]
        inside = word_length[i] < radius
        for k, times_k in enumerate(times):
            if row[k] >= 0:
                continue
            y = times_k(x)
            j = index.get(y.data)
            if j is None and inside:
                if len(elements) >= cap:
                    raise CapExceeded(f"ball exceeded vertex cap {cap}",
                                      reached=len(elements))
                j = len(elements)
                index[y.data] = j
                elements.append(y)
                word_length.append(word_length[i] + 1)
                words.append(words[i] + (k,))
                right.append([-1] * len(pairs))
            if j is not None:
                row[k] = j
        i += 1
    return CayleyBall(group, radius, pairs, elements, index, word_length,
                      words, right, adj)


def _right_multipliers(group, pairs):
    """x -> x * gen_k for each generator: from the normal forms' window
    memo where the group has one, else by group arithmetic."""
    if isinstance(group, GraphOfGroupsGroup):
        return [group.right_multiplier(g) for _, g in pairs]
    return [lambda x, g=g: multiply(x, g) for _, g in pairs]


def _restriction(ball, radius, cap):
    """The ball of a smaller radius: a prefix of the table, with the
    entries of its boundary rows that leave it set to -1."""
    n = bisect_right(ball.word_length, radius)
    if n > cap:
        raise CapExceeded(f"ball exceeded vertex cap {cap}", reached=cap)
    # rows inside the smaller boundary point only to vertices below it
    first = bisect_left(ball.word_length, radius)
    right = ball.right[:first] + [[j if j < n else -1 for j in row]
                                  for row in ball.right[first:n]]
    elements = ball.elements[:n]
    return CayleyBall(ball.group, radius, ball.generators, elements,
                      {g.data: i for i, g in enumerate(elements)},
                      ball.word_length[:n], ball.words[:n], right,
                      ball.adj[:first])


def coset_subgraph(ball, subgroup_elements, coset_rep):
    """Ball vertices in coset_rep * subgroup, plus an out-of-ball flag.

    Returns (vertex index list, complete) where complete is False when
    part of the coset falls outside the ball (partial result).
    """
    inside, complete = [], True
    for h in subgroup_elements:
        i = ball.locate(multiply(coset_rep, h))
        if i is None:
            complete = False
        else:
            inside.append(i)
    return sorted(set(inside)), complete


def subgraph_diameter(ball, vertices):
    """Diameter of the induced subgraph on `vertices` (None if disconnected)."""
    vs = set(vertices)
    best = 0
    for s in vs:
        dist = bfs(lambda u: (w for w in ball.adj[u] if w in vs), s)
        if len(dist) < len(vs):
            return None
        best = max(best, max(dist.values()))
    return best


def verify_short_cycle_cosets(ball, r, candidate_subgroups):
    """Check that every cycle of length <= r stays in one left coset.

    candidate_subgroups: list of element lists, each closed under the
    operation. A cycle passes if its vertex set lies in g*H for some
    candidate H and some g (equivalently: for H fixed, all quotients
    x0^-1 y from its first vertex x0 land in H). Quotients are compared
    inside the ball, where they all lie once its radius is >= r/2.
    Returns a report dict with the offending cycles.
    """
    from .cycles import enumerate_short_cycles  # local: avoids import cycle

    subs = [frozenset(i for i in map(ball.locate, hs) if i is not None)
            for hs in candidate_subgroups]
    cycles = enumerate_short_cycles(ball, r)
    violations = []
    for cyc in cycles:
        base_inv = ball.inverse(cyc.vertices[0])
        quotients = {ball.product(base_inv, y) for y in cyc.vertices}
        if not any(quotients <= h for h in subs):
            violations.append(cyc)
    return {
        "pass": not violations,
        "cycles_checked": len(cycles),
        "violations": violations,
    }


def torsion_length_bound(group):
    """Max word-metric diameter over vertex-group cosets.

    Left-invariance of the word metric reduces this to the diameters of
    the based vertex subgroups themselves; the ball is grown, by doubling
    its radius up to TORSION_RADIUS_CAP, until every pairwise quotient
    inside each subgroup has a known word length.
    """
    if not isinstance(group, GraphOfGroupsGroup):
        raise VerificationFailure("torsion_length_bound needs a graph-of-groups backend")
    needed = set()
    for v in range(len(group.gog.vertices)):
        elems = group.based_vertex_subgroup(v)
        for a in elems:
            ai = inverse(a)
            for b in elems:
                needed.add(multiply(ai, b).data)
    radius, ball = 1, None
    while radius <= TORSION_RADIUS_CAP:
        ball = build_ball(group, radius, ball=ball)
        if all(d in ball.index for d in needed):
            return max(ball.word_length[ball.index[d]] for d in needed)
        radius *= 2
    raise CapExceeded("vertex-group cosets did not close within radius "
                      f"{TORSION_RADIUS_CAP}", reached=TORSION_RADIUS_CAP)

"""Finite Cayley balls and coset bookkeeping on them.

A ball is the induced subgraph on all elements within a given word
distance of the identity, for the group's symmetric generating set
`gen_symbols()`. Edges run x -- x*s for each generator s that is not the
identity; `gen_symbols` labels each element once, so distinct generators
reach distinct neighbors and an edge has one label each way.

The ball is stored as its right-multiplication table, a partial coset
table of the trivial subgroup: right[v][k] is the vertex of
elements[v] * gen_k, or -1 outside the ball. Each edge's product is
formed once while the ball is built, from its earlier end, and its
reverse entry is filled from it. The table is the ball's only record of
its edges: neighbors, edges and labels are read off its rows when asked
for, and no adjacency list is stored. Every other product is formed by
`mul`, on points: a point is a vertex, or an element that lies outside
the ball. Two vertices walk the table; only a walk that leaves the ball,
or a point outside it, uses group arithmetic. The table's products come from the
map x -> x * s on element data that every backend supplies as
`right_multiplier(s)`, as in the multiplier automata of an automatic
group (Epstein et al., Word Processing in Groups, 1992): a
graph-of-groups group maps a packed normal form to a packed normal form,
read from its memo of window products, as right multiplication by a
generator rewrites only a bounded suffix of a normal form; a matrix
group compiles it once per generator into straight-line code from x's
nested tuple to the product's, which forms only the generator's nonzero
terms, from source text that holds nothing but names, indices and ints.
A product is looked up in the ball by its data, and only a product that
becomes a new vertex is made a `GroupElement`: most products are
boundary ones, which only learn that they leave the ball.

Vertex keys (`elements[v].key()`) are not cached: each reader keys only
the vertices it reads.

A ball is a prefix of every larger ball of the group, so one ball
serves a run: `build_ball` cuts a smaller ball from a given one, or grows
a larger one out of it by continuing its BFS.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .cycles import enumerate_short_cycles
from .errors import CapExceeded, VerificationFailure
from .groups import GraphOfGroupsGroup, GroupElement, inverse, multiply

DEFAULT_CAP = 2 * 10**6

# the largest radius torsion_length_bound grows its ball to
TORSION_RADIUS_CAP = 64


class CayleyBall:
    """Immutable once built; vertex 0 is the identity."""

    __slots__ = ("group", "radius", "generators", "elements", "index",
                 "word_length", "words", "right", "inv_gen")

    def __init__(self, group, radius, generators, elements, index,
                 word_length, words, right, inv_gen):
        self.group = group
        self.radius = radius
        self.generators = generators  # list of (symbol, element), symmetric
        self.elements = elements
        self.index = index  # element data -> vertex index
        self.word_length = word_length
        self.words = words  # a shortest word per vertex, as generator indices
        # vertex -> [vertex of elements[v] * gen_k or -1]; the only record
        # of the ball's edges
        self.right = right
        self.inv_gen = inv_gen  # generator index of each generator's inverse

    @property
    def vertex_count(self):
        return len(self.elements)

    @property
    def edge_count(self):
        return sum(w > u for u, row in enumerate(self.right) for w in row)

    def locate(self, g):
        """Vertex index of an element, or None if outside the ball."""
        return self.index.get(g.data)

    def neighbors(self, v):
        """The sorted vertices adjacent to v. Distinct generators reach
        distinct vertices (`gen_symbols` labels each element once), so a
        row holds each neighbor once."""
        return sorted(w for w in self.right[v] if w >= 0 and w != v)

    def inverse(self, v):
        """Vertex of elements[v]^-1: the reversed, inverted stored word of v
        walked from vertex 0, which never leaves the ball."""
        right, inv = self.right, self.inv_gen
        x = 0
        for k in reversed(self.words[v]):
            x = right[x][inv[k]]
        return x

    def point(self, g):
        """The vertex of g, or g itself outside the ball."""
        return self.index.get(g.data, g)

    def mul(self, p, q):
        """The point of p * q: two vertices walk q's stored word from p; a
        walk that leaves the ball, or a point outside it, falls back to
        group arithmetic, as the product may still land inside."""
        if type(p) is int and type(q) is int:
            right, x = self.right, p
            for k in self.words[q]:
                x = right[x][k]
                if x < 0:
                    break
            else:
                return x
        return self.point(multiply(self.elements[p] if type(p) is int else p,
                                   self.elements[q] if type(q) is int else q))

    def edge_pairs(self):
        """The adjacent pairs (u, v) with u < v, in sorted order."""
        return ((u, w) for u, row in enumerate(self.right)
                for w in sorted(row) if w > u)

    def edges(self):
        """Sorted (u, v, labels) triples with u < v; labels holds the one
        generator symbol s with elements[u] * s == elements[v], as
        distinct generators reach distinct vertices."""
        syms = [sym for sym, _ in self.generators]
        return [(u, w, [syms[k]]) for u, row in enumerate(self.right)
                for w, k in sorted((w, k) for k, w in enumerate(row) if w > u)]

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


def build_ball(group, radius, cap=DEFAULT_CAP, ball=None):
    """BFS out to word distance `radius` over `group.gen_symbols()`,
    filling the right-multiplication table. Each edge's product is formed
    once, from its earlier end: when elements[i] * gen_k is vertex j > i,
    the reverse entry right[j][inv_gen[k]] = i is filled from it and row
    j skips that product, so most products left are boundary ones.
    Products are formed and looked up on element data (the backends'
    `right_multiplier`), and one element is made per new vertex.

    The BFS splits at the first vertex at distance `radius`. The rows
    before it create the vertices. The boundary rows from it on only look
    their products up: every vertex is known by then, as each is at most
    one step beyond a row of the first pass. An entry of a boundary row
    that is still -1 lies outside the ball, or is an edge to a later
    vertex of the same layer or a loop, since an earlier neighbour's
    product has filled the reverse entry; so that pass creates nothing
    and checks no cap.

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
        # gen_symbols labels each element once and is symmetric, so each
        # generator's inverse is exactly one of them
        at = {g.data: k for k, (_, g) in enumerate(pairs)}
        inv = [at[inverse(g).data] for _, g in pairs]
        ident = group.identity
        elements, index = [ident], {ident.data: 0}
        word_length, words, right = [0], [()], [[-1] * len(pairs)]
        start = 0
    elif radius <= ball.radius:
        return _restriction(ball, radius, cap)
    else:
        pairs, inv = ball.generators, ball.inv_gen
        elements, index = ball.elements[:], ball.index.copy()
        word_length, words = ball.word_length[:], ball.words[:]
        # the BFS resumes at the boundary, whose rows are copied to be
        # filled; the rows inside it stay, shared with the given ball
        start = bisect_left(word_length, ball.radius)
        right = ball.right[:start] + [row[:] for row in ball.right[start:]]
    times = [group.right_multiplier(g) for _, g in pairs]
    blank = [-1] * len(pairs)
    # vertices are appended in BFS order, so when vertex i is expanded every
    # vertex at distance <= word_length[i] + 1 is either known or new here;
    # only the -1 entries of its row are computed. A later row j is one
    # not yet expanded, and so never a row shared with the given ball; its
    # reverse entry holds index's int for i, so it adds no int object
    i = start
    while i < len(elements) and word_length[i] < radius:
        x = elements[i].data
        i = index[x]
        row, length, word = right[i], word_length[i] + 1, words[i]
        for k, times_k in enumerate(times):
            if row[k] >= 0:
                continue
            y = times_k(x)
            j = index.get(y)
            if j is None:
                if len(elements) >= cap:
                    raise CapExceeded(f"ball exceeded vertex cap {cap}",
                                      reached=len(elements))
                j = index[y] = len(elements)
                elements.append(GroupElement(y, group))
                word_length.append(length)
                words.append(word + (k,))
                right.append(blank[:])
            row[k] = j
            if j > i:
                right[j][inv[k]] = i
        i += 1
    # the boundary rows only look products up: every vertex is known, and
    # an entry still -1 is outside the ball, a loop or an edge to a later
    # vertex of this layer, as each earlier neighbour filled its reverse
    for i in range(i, len(elements)):
        x = elements[i].data
        i = index[x]
        row = right[i]
        for k, times_k in enumerate(times):
            if row[k] < 0:
                j = index.get(times_k(x))
                if j is not None:
                    row[k] = j
                    if j > i:
                        right[j][inv[k]] = i
    return CayleyBall(group, radius, pairs, elements, index, word_length,
                      words, right, inv)


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
                      ball.inv_gen)


def verify_short_cycle_cosets(ball, r, candidate_subgroups):
    """Check that every cycle of length <= r stays in one left coset.

    candidate_subgroups: list of element lists, each closed under the
    operation. A cycle passes if its vertex set lies in g*H for some
    candidate H and some g (equivalently: for H fixed, all quotients
    x0^-1 y from its first vertex x0 land in H). Quotients are compared
    inside the ball, where they all lie once its radius is >= r/2.
    Returns a report dict with the offending cycles.
    """
    subs = [frozenset(i for i in map(ball.locate, hs) if i is not None)
            for hs in candidate_subgroups]
    cycles = enumerate_short_cycles(ball, r)
    violations = []
    for cyc in cycles:
        base_inv = ball.inverse(cyc.vertices[0])
        quotients = {ball.mul(base_inv, y) for y in cyc.vertices}
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
    the based vertex subgroups themselves, and the quotients a^-1 b within
    a subgroup are its elements: the bound is the longest word length of
    an element of a based vertex subgroup. The ball is grown, by doubling
    its radius up to TORSION_RADIUS_CAP, until each of them has a known
    word length.
    """
    if not isinstance(group, GraphOfGroupsGroup):
        raise VerificationFailure("torsion_length_bound needs a graph-of-groups backend")
    needed = {g.data for v in range(len(group.gog.vertices))
              for g in group.based_vertex_subgroup(v)}
    radius, ball = 1, None
    while radius <= TORSION_RADIUS_CAP:
        ball = build_ball(group, radius, ball=ball)
        if all(d in ball.index for d in needed):
            return max(ball.word_length[ball.index[d]] for d in needed)
        radius *= 2
    raise CapExceeded("vertex-group cosets did not close within radius "
                      f"{TORSION_RADIUS_CAP}", reached=TORSION_RADIUS_CAP)

"""Finite truncations of the cover that unrolls everything except short cycles.

The cover covers the Cayley graph, so it is a partial coset table over
the ball's generators, read like `CayleyBall.right`: right[x][k] is the
node reached from x by generator k, or -1, and projection[x] is x's base
vertex.

Construction: breadth-first walk classes from the ball's center, with
immediate backtrack folding (each new edge is installed as k and as
`ball.inv_gen[k]` back). Identification beyond that is forced, never
guessed. The cycles of length <= r are the translates of the simple
closed words at the identity (`cycles.closed_words`). The cover is a
coset enumeration of the group presented by those words, scanned from a
queue of edges (Todd-Coxeter with deductions, as `subgroups._deduce`
scans): an edge (x, k) is queued when a layer's expansion creates it or
a merge moves it onto a surviving node, since only then can a walk
through it newly complete. The words are closed under rotation and
reversal, as a rotation of a simple closed walk at the identity,
translated back there, is another, so the short cycles through (x, k)
are the words that start with k, walked from x; they are indexed by
first letter once. A scan walks each forward from x and, where it
stops, backward from x; when a lift fails to close, its endpoints are
merged and the merge is propagated label by label by Stallings folding,
which queues the edges it moves in turn. The result quotients the walk
tree exactly by closures of short cycles, so identifications are sound;
completeness holds wherever every relevant short cycle is visible, which
is what the certified depth records.

When the cover is the ball: the cover is the Cayley graph of
Γ_r = <S | closed words of length <= r>, and every fold is forced, so a
word whose walk closes at the root of a partial cover is trivial in Γ_r.
Take a presentation of Γ (`subgroups.presentation_from_group`) and spell
each symbol as the ball's stored word of its element. If every relator
closes, the spelling is a homomorphism Γ -> Γ_r, which the projection
Γ_r -> Γ undoes, so it is one-to-one. If each generator s of Γ also
closes against the spelling of its symbol word, it is onto. Then
Γ_r = Γ, and the cover truncated at depth D is B(D) in ball order. The
generator walks are needed: Z generated by t^2 and t^3 has no relator,
yet its cover below r = 5 is not the ball. The walks are taken at the
root before each layer, once the expansion reaches half the longest;
the enumeration runs on to depth + r only while some walk stays open
(a proper cover, Γ_r != Γ), where Γ has no presentation (a table group
or a matrix spec without one), or where a symbol's element lies outside
the ball.

Each node is expanded once. A node's layer is the expansion that created
it: the root is layer 0, and expanding layer L creates layer L + 1.
Nodes are numbered in creation order, so ids rise with layer, a layer's
frontier is the surviving nodes of the last layer created, found with no
search, and `UnionFind`, which keeps the least id, never leaves a
survivor of a higher layer than the node it absorbs. Once a layer's
queue is drained, two invariants hold.

Every edge joins representatives whose layers differ by at most 1. Let q
be a representative of layer l with an edge labelled k, whose far end
only ever moves within one class. If q is expanded, the edge is
the child that the expansion created (layer l + 1), q's parent edge
(l - 1), or one taken over before the expansion from a node of q's own
layer, whose edges reach its parents' layer (l - 1). After that q has an
edge for every generator that moves its base vertex within the ball, so
`fold` moves no edge onto it and only pairs neighbours over one base
vertex. If q is not expanded, the current expansion created it and all
it absorbed, and their edges reach their parents, layer l - 1. Either
way the class reached holds a node of layer at most l + 1, and its
representative is its least member; the edge back gives the other
bound. So no path from the root reaches a representative in fewer steps
than its layer, and the edge to its parent's class, one layer lower,
gives a path of exactly that length: a representative's distance from
the root is its layer, and a frontier is exactly the representatives at
one distance.

Once `fold` returns, a live row holds only representatives. Each union
rewrites the survivor's row through `find`, and the absorbed row dies. A
row that still points at an absorbed node g is a neighbour of g whose
edge the survivor did not take over, as it had one with that label; the
neighbour's class sits on the stack paired with the survivor's
neighbour, and a later union in the same `fold` absorbs it or rewrites
its row. So the scans, the root walks and compaction read rows without
`find`.

Compaction keeps the representatives of layers 0..depth in id order,
which is their order by distance, and reads each one's depth off the
first id of each layer. The frontier is expanded in id order, each node
creating its children in the order of the base vertices they reach, not
in generator order; artifacts depend on this numbering. A deck
transformation acts on the left and labels on the right, gamma * (x * s)
= (gamma * x) * s, so it maps the edge labelled k at x to the edge
labelled k at x's image (`lift_element_action`), with no product in the
ball. A lift is that partial map of nodes, a dict, and its order
(`order_on_region`) composes the map with itself on nodes: gamma's
powers are never formed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from fractions import Fraction
import random

from .cycles import closed_words
from .errors import (CapExceeded, SpecFormatError, UncertifiedRegion,
                     VerificationFailure)
from .graphs import UnionFind, bfs
from .groups import invert_word
from .subgroups import presentation_from_group

# the most nodes the enumeration creates before it raises CapExceeded
NODE_CAP = 500_000
# the most powers order_on_region forms
DECK_ORDER_CAP = 64


class TruncatedCover:
    __slots__ = ("base", "r", "depth", "projection", "right", "node_depth",
                 "certified_depth")

    root = 0

    def __init__(self, base, r, depth, projection, right, node_depth,
                 certified_depth):
        self.base = base
        self.r = r
        self.depth = depth
        self.projection = projection  # cover vertex -> base vertex index
        # cover vertex -> [node reached by generator k, or -1], as base.right
        self.right = right
        self.node_depth = node_depth
        self.certified_depth = certified_depth

    @property
    def vertex_count(self):
        return len(self.projection)

    def certified_vertices(self):
        return [i for i, d in enumerate(self.node_depth)
                if d <= self.certified_depth]

    def neighbors(self, x):
        return [y for y in self.right[x] if y >= 0]

    def to_json(self):
        return {
            "r": self.r,
            "depth": self.depth,
            "certified_depth": self.certified_depth,
            "vertex_count": self.vertex_count,
            "projection": [self.base.elements[p].key() for p in self.projection],
            "edges": sorted(
                [u, v] for u in range(self.vertex_count)
                for v in self.right[u] if u < v
            ),
        }


def build_truncated_cover(ball, r, depth):
    """Walk classes to `depth`, folding closures of cycles of length <= r.

    Expansion runs out to depth + r so every cycle relevant to a kept
    vertex is lifted in full, each node expanded once, in the layer after
    the one that created it; the returned cover is the depth-truncation:
    the representatives that layers 0..depth created, in creation order,
    each at its layer's depth. That depth is its distance from the root,
    as every edge joins representatives whose layers differ by at most 1
    (module docstring).
    Once all the presentation's walks (`_presentation_walks`) close at
    the root, Γ_r = Γ (module docstring) and the cover is read from the
    ball instead: projection range(|B(depth)|), the ball's rows with the
    entries that leave B(depth) set to -1, and the ball's word lengths.
    CapExceeded(reached=NODE_CAP) is raised before node NODE_CAP + 1 is
    added.
    """
    if r < 3:
        raise ValueError("r must be >= 3")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > ball.radius:
        raise ValueError("depth must be <= ball radius")
    inv_gen = ball.inv_gen
    # per generator k: the closed words that start with k, each with its
    # steps inverted for the backward walk
    rotations = [[] for _ in inv_gen]
    for word in closed_words(ball, r):
        rotations[word[0]].append((word, tuple(inv_gen[k] for k in word)))
    expand_depth = depth + r
    certified = depth if _is_closed(ball) else min(depth, max(0, ball.radius - r))
    walks = _presentation_walks(ball)
    walk_depth = max(((len(w) + 1) // 2 for w in walks or ()), default=0)

    uf = UnionFind()
    find, parent = uf.find, uf.parent
    base_of = []
    rows = []  # per node (rep-owned): [node reached by generator k, or -1]
    queue = []  # edges (node, generator index) to scan

    def new_node(bv):
        if len(base_of) >= NODE_CAP:
            raise CapExceeded("cover node cap exceeded", reached=NODE_CAP)
        base_of.append(bv)
        rows.append([-1] * len(inv_gen))
        return uf.add()

    def fold(a, b):
        """Union two nodes (always over one base vertex) and propagate the
        merge through edges of one label, Stallings-style; queue every
        edge that the surviving node takes over."""
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            keep, gone = uf.union(x, y)
            if gone is None:
                continue
            merged = rows[keep]
            for k, node in enumerate(rows[gone]):
                if node < 0:
                    continue
                queue.append((keep, k))
                node = find(node)
                cur = merged[k]
                if cur >= 0 and find(cur) != node:
                    stack.append((find(cur), node))
                else:
                    merged[k] = node
            rows[gone] = None
            # neighbors' back-edges must point at the surviving node
            for k, node in enumerate(merged):
                if node >= 0:
                    node = find(node)
                    merged[k] = node
                    rows[node][inv_gen[k]] = keep

    def scan(x, k):
        """Walk each closed word that starts with k forward from x as far
        as the cover's edges go, and the rest of it backward from x. Where
        the two walks meet, their ends are one vertex of the cycle, so
        they are folded; a complete forward walk meets the empty backward
        walk at x. A cover edge comes only from the expansion, so an entry
        that one word would force is left undefined. Once x is absorbed,
        its edges are queued at the survivor, and the scan stops."""
        for word, back in rotations[k]:
            f, p = x, 0
            while p < len(word):
                y = rows[f][word[p]]
                if y < 0:
                    break
                f, p = y, p + 1
            b, q = x, len(word)
            while q > p:
                y = rows[b][back[q - 1]]
                if y < 0:
                    break
                b, q = y, q - 1
            if q == p and b != f:
                fold(f, b)
                if parent[x] != x:
                    return

    root = new_node(0)

    def closes(word):
        x = root
        for k in word:
            x = rows[x][k]
            if x < 0:
                return False
        return x == root

    # Expand layer by layer and drain the queue before the next layer.
    # Each surviving node is expanded once, in the layer after the one
    # that created it, so the frontier is read off the creation order with
    # no search. Two invariants (module docstring) hold once the queue is
    # drained: every edge joins representatives whose layers differ by at
    # most 1, so a representative's distance from the root is its layer
    # and compaction needs no BFS; and a live row holds only
    # representatives, so only `fold` calls `find`. The closed words are
    # closed under rotation and reversal, so the short cycles through an
    # edge (x, k) are the words that start with k walked from x, and
    # `scan` sees each of them whole. A walk that an edge completes runs
    # through that edge, and one that a merge completes runs through an
    # edge the surviving node took over; the expansion queues every new
    # edge and `fold` every edge it moves, and a node that is absorbed has
    # its edges queued at the survivor. So each layer ends at the least
    # fixpoint, one partition whatever the scan order (UnionFind keeps the
    # least member). The numbering follows the expansion (module
    # docstring); tests/cover_oracle.py holds the full rescan it is
    # checked against.
    # Once the expansion reaches the presentation's walks, the cover is
    # B(depth) if they all close.
    starts = [root]  # starts[L]: the first node of layer L
    for layer in range(expand_depth):
        if walks is not None and layer >= walk_depth \
                and all(map(closes, walks)):
            n = bisect_right(ball.word_length, depth)
            right = [[j if j < n else -1 for j in row] for row in ball.right[:n]]
            return TruncatedCover(ball, r, depth, list(range(n)), right,
                                  ball.word_length[:n], certified)
        frontier = [x for x in range(starts[-1], len(base_of)) if parent[x] == x]
        starts.append(len(base_of))
        if not frontier:
            break
        for x in frontier:
            bv, row = base_of[x], rows[x]
            for bw, k in sorted((bw, k) for k, bw in enumerate(ball.right[bv])
                                if bw >= 0 and bw != bv):
                if row[k] < 0:
                    row[k] = child = new_node(bw)
                    rows[child][inv_gen[k]] = x
                    queue.append((x, k))
        for x, k in queue:  # grows while it is scanned
            if parent[x] == x:
                scan(x, k)
        queue.clear()

    # compact: keep the representatives that layers 0..depth created, in
    # creation order, each at its layer's depth
    kept = [x for x in range(starts[min(depth + 1, len(starts) - 1)])
            if parent[x] == x]
    relabel = {x: i for i, x in enumerate(kept)}
    projection = [base_of[x] for x in kept]
    node_depth = [bisect_right(starts, x) - 1 for x in kept]
    right = [[relabel.get(y, -1) for y in rows[x]] for x in kept]

    return TruncatedCover(ball, r, depth, projection, right, node_depth, certified)


def _presentation_walks(ball):
    """Closed words over the ball's generators that settle Γ_r = Γ when
    they all close at the cover's root: each relator of Γ's presentation,
    and each generator of Γ followed by its symbol word inverted, with
    every symbol spelled as the ball's stored word of its element, freely
    reduced, the empty ones dropped.

    None where there is no presentation: `presentation_from_group` raises
    SpecFormatError for a table group or a matrix spec without one, and
    VerificationFailure for a matrix spec whose torsion words are not
    torsion, which the cover does not read.
    None also where a symbol's element lies outside the ball.
    """
    try:
        pres = presentation_from_group(ball.group)
    except (SpecFormatError, VerificationFailure):
        return None
    words = ball.words
    spelled = {}  # (symbol, +1 or -1) -> generator indices
    for s, g in pres.elements.items():
        v = ball.locate(g)
        if v is None:
            return None
        spelled[s, 1] = words[v]
        spelled[s, -1] = tuple(ball.inv_gen[k] for k in reversed(words[v]))

    def spell(head, word):
        out = list(head)
        for letter in word:
            for k in spelled[letter]:
                if out and out[-1] == ball.inv_gen[k]:
                    out.pop()
                else:
                    out.append(k)
        return tuple(out)

    gens = ball.group.generators
    walks = [spell((), w) for w in pres.relators]
    walks += [spell(words[ball.locate(gens[name])], invert_word(w))
              for name, w in pres.generator_words.items()]
    return [w for w in walks if w]


def _is_closed(ball):
    """True when the ball is the entire (finite) Cayley graph: no product
    of a ball element and a generator falls outside it."""
    return not any(-1 in row for row in ball.right)


def verify_ball_preservation(cover, radius=None, samples=None, seed=0):
    """Projection restricted to small balls is a bijection of vertex sets.

    Each certified vertex x whose radius-ball lies inside the cover (or
    a seeded sample of `samples` of them) is checked: the ball about x
    is read off the cover's rows and the one about x's base vertex off
    the ball's rows, both as BFS vertex sets, and the projection must be
    one-to-one on the first and onto the second. Edges are not compared,
    so this is not a graph isomorphism check: they are counted only for
    a failing vertex's witness.

    radius defaults to floor(r/2), the guaranteed regime; passing a larger
    radius is allowed and is expected to fail on wrapped covers. For even
    r that default lets an (r + 1)-cycle into the base ball: z5 with r 4
    passes at radius 2, each cover ball a 5-vertex path against the whole
    5-cycle. The check fails when no certified vertex has its radius-ball
    inside the cover, since it then checks nothing.
    """
    if samples is not None and samples < 0:
        raise ValueError("samples must be >= 0")
    if radius is None:
        radius = cover.r // 2
    certified = cover.certified_vertices()
    pool = [x for x in certified if cover.node_depth[x] + radius <= cover.depth]
    if samples is not None and samples < len(pool):
        rng = random.Random(seed)
        pool = sorted(rng.sample(pool, samples))
    right, projection = cover.base.right, cover.projection

    def base_neighbors(v):
        return [w for w in right[v] if w >= 0]

    witnesses = []
    for x in pool:
        cov_verts = bfs(cover.neighbors, x, radius)
        base_verts = bfs(base_neighbors, projection[x], radius)
        image = {projection[y] for y in cov_verts}
        # injective on the cover ball, onto the base ball's vertex set
        if len(image) != len(cov_verts) or image != base_verts.keys():
            witnesses.append({
                "vertex": x,
                "cover_vertices": len(cov_verts),
                "cover_edges": _edge_count(cover.neighbors, cov_verts),
                "base_vertices": len(base_verts),
                "base_edges": _edge_count(base_neighbors, base_verts),
            })
    return {"pass": bool(pool) and not witnesses, "radius": radius,
            "checked": len(pool), "witnesses": witnesses}


def _edge_count(neighbors, verts):
    """The number of edges with both ends in verts."""
    return sum(1 for x in verts for y in neighbors(x) if y in verts and y > x)


def classify_cycle_lift(cover, cycle):
    """"lifts-closed" iff the word of the (vertices, word) cycle, walked
    by its generator columns from a lift of its first vertex, returns
    there."""
    vertices, word = cycle
    candidates = [x for x in cover.certified_vertices()
                  if cover.projection[x] == vertices[0]]
    if not candidates:
        raise UncertifiedRegion("cycle basepoint has no certified lift")
    start = min(candidates, key=lambda x: cover.node_depth[x])
    end = start
    for k in word:
        end = cover.right[end][k]
        if end < 0:
            raise UncertifiedRegion("cycle lift exits the truncated region")
    return "lifts-closed" if end == start else "lifts-open"


def lift_element_action(cover, gamma):
    """gamma's deck transformation as a dict {node: image}, extended label
    by label from the root's image, the end of gamma's stored word walked
    from the root; a node reached twice must get one image."""
    ball = cover.base
    gi = ball.locate(gamma)
    if gi is None:
        raise VerificationFailure("gamma lies outside the base ball")
    image = cover.root
    for k in ball.words[gi]:
        image = cover.right[image][k]
        if image < 0:
            raise UncertifiedRegion("no lift of gamma within the truncation")

    mapping = {cover.root: image}
    queue = deque([cover.root])
    while queue:
        x = queue.popleft()
        for xc, yc in zip(cover.right[x], cover.right[mapping[x]]):
            if xc < 0 or yc < 0:
                continue
            if xc in mapping:
                if mapping[xc] != yc:
                    raise VerificationFailure(
                        f"deck lift inconsistent at cover vertex {xc}")
                continue
            mapping[xc] = yc
            queue.append(xc)
    return mapping


def order_on_region(mapping):
    """The least k <= DECK_ORDER_CAP whose k-th power of the partial map
    `mapping` (a deck lift) is the identity on its whole domain, which is
    nonempty; None past the cap or once a power's domain is empty. Each
    power is composed with `mapping` where both are defined, following
    the cover's nodes alone: no group product is formed."""
    current = mapping
    for k in range(1, DECK_ORDER_CAP + 1):
        if current and all(x == y for x, y in current.items()):
            return k
        current = {x: mapping[y] for x, y in current.items() if y in mapping}
        if not current:
            return None
    return None


def estimate_displacement(cover):
    """Min cover-distance between distinct lifts of one base vertex.

    Returns {"delta", "exact", "certified_diameter"}; delta is None when
    no base vertex has two lifts in the certified region (the true
    displacement then exceeds the certified diameter). Each lift's search
    is bounded by the best distance found so far, as a farther lift
    cannot lower it.
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
            dist = bfs(cover.neighbors, s, best)
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

"""Finite portions of the coset tree of a splitting, and actions on them.

Tree vertices are cosets of the based vertex subgroups; two cosets are
adjacent when an edge-group coset connects them. Group elements act by
left multiplication, without inversions (Serre, *Trees*, §I.5), and are
classified as elliptic or hyperbolic with explicit witnesses, declining
to answer when the portion is too small.
"""

from __future__ import annotations

from collections import deque

from .decomp import cyclic_subgroup_in_ball, translate_bag
from .errors import CapExceeded, UncertifiedRegion, VerificationFailure
from .graphs import bfs
from .groups import GraphOfGroupsGroup, inverse, multiply

# the most vertices a tree portion holds
TREE_VERTEX_CAP = 100_000


class BassSerreTreePortion:
    """The ball of radius `radius` about the base vertex's coset H_0 in the
    coset tree.

    Tree vertex x is the coset reps[x] * H_v of v = orbit[x]; words[x] is
    its normal path word, the normal form of reps[x] * p_v for the
    spanning-tree path p_v, so its key (the word without its last item)
    indexes the vertex in key_index. `action` translates that word, which
    normalizes only where gamma's word meets it. A ball of a tree is a
    tree, so `distance` walks parent links to the lowest common ancestor;
    the parents and depths come from one BFS over `adj` from the root, so a
    copy with rewired `adj` (`perturb_tree_portion`) measures its own
    graph.
    """

    __slots__ = ("group", "radius", "orbit", "reps", "words", "adj", "dist",
                 "key_index", "root", "_links")

    def __init__(self, group, radius, orbit, reps, words, adj, dist, key_index):
        self.group = group
        self.radius = radius
        self.orbit = orbit  # per tree vertex: orbit vertex of the model
        self.reps = reps  # per tree vertex: representative element
        self.words = words  # per tree vertex: normal path word of its coset
        self.adj = adj
        self.dist = dist  # from the base vertex
        self.key_index = key_index  # vertex_coset_key -> tree vertex
        self.root = 0
        self._links = None

    @property
    def vertex_count(self):
        return len(self.reps)

    def label(self, x):
        """Vertex-group order of the tree vertex's orbit."""
        return self.group.gog.vertices[self.orbit[x]].order

    def action(self, gamma, x):
        """Left multiplication on cosets; None outside the portion."""
        return self.key_index.get(
            self.group.translate_word(gamma, self.words[x])[:-1])

    def distance(self, x, y):
        """Path length from x to y in `adj`; None when y is not reached."""
        if self._links is None:
            depth = bfs(self.adj.__getitem__, self.root)
            parent = {z: next(p for p in self.adj[z] if depth.get(p) == d - 1)
                      for z, d in depth.items() if d}
            self._links = parent, depth
        parent, depth = self._links
        if x not in depth or y not in depth:
            return None
        d = depth[x] + depth[y]
        while depth[x] > depth[y]:
            x = parent[x]
        while depth[y] > depth[x]:
            y = parent[y]
        while x != y:
            x, y = parent[x], parent[y]
        return d - 2 * depth[x]

    def interior_vertices(self):
        return [x for x in range(self.vertex_count) if self.dist[x] < self.radius]

    def to_dot(self):
        lines = ["graph tree {", "  node [shape=circle];"]
        for x in range(self.vertex_count):
            lines.append(f'  t{x} [label="{self.label(x)}"];')
        for x in range(self.vertex_count):
            for y in self.adj[x]:
                if x < y:
                    lines.append(f"  t{x} -- t{y};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _coset_transversal(elements, image_data):
    """Left coset representatives of a subgroup inside a listed group."""
    reps, seen = [], set()
    for h in elements:
        key = frozenset(multiply(h, g).data for g in elements
                        if g.data in image_data)
        if key not in seen:
            seen.add(key)
            reps.append(h)
    return reps


def build_tree_portion(group, radius):
    """BFS the coset tree out to `radius` from the base vertex's coset,
    raising CapExceeded past TREE_VERTEX_CAP vertices."""
    if not isinstance(group, GraphOfGroupsGroup):
        raise VerificationFailure("tree portions need a graph-of-groups backend")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gog = group.gog
    subgroups = [group.based_vertex_subgroup(v) for v in range(len(gog.vertices))]

    # per edge and side: coset transversal of the edge-group image
    moves = [[] for _ in range(len(gog.vertices))]  # vertex -> (target, step)
    for i, e in enumerate(gog.edges):
        s = group.stable_letter(i)
        img_u = {group.based_vertex_element(e.u, c).data for c in e.into_u}
        img_v = {multiply(multiply(s, group.based_vertex_element(e.u, c)),
                          inverse(s)).data for c in e.into_u}
        for t in _coset_transversal(subgroups[e.u], img_u):
            moves[e.u].append((e.v, multiply(t, s)))
        for t in _coset_transversal(subgroups[e.v], img_v):
            moves[e.v].append((e.u, multiply(t, inverse(s))))

    orbit = [0]
    reps = [group.identity]
    words = [group.coset_word(0, group.identity)]
    key_index = {words[0][:-1]: 0}
    dist = [0]
    adj = [set()]
    queue = deque([0])
    while queue:
        x = queue.popleft()
        if dist[x] == radius:
            continue
        for v, step in moves[orbit[x]]:
            word = group.coset_word(v, reps[x], step)
            y = key_index.get(word[:-1])
            if y is None:
                y = len(reps)
                if y >= TREE_VERTEX_CAP:
                    raise CapExceeded("tree portion cap exceeded", reached=y)
                key_index[word[:-1]] = y
                orbit.append(v)
                reps.append(multiply(reps[x], step))
                words.append(word)
                dist.append(dist[x] + 1)
                adj.append(set())
                queue.append(y)
            if y != x:
                adj[x].add(y)
                adj[y].add(x)
    return BassSerreTreePortion(group, radius, orbit, reps, words,
                                [sorted(a) for a in adj], dist, key_index)


class ElementAction:
    __slots__ = ("kind", "witness", "translation_length")

    def __init__(self, kind, witness, translation_length=None):
        self.kind = kind  # "elliptic" | "hyperbolic"
        self.witness = witness
        self.translation_length = translation_length

    def __repr__(self):
        if self.kind == "hyperbolic":
            return f"ElementAction(hyperbolic, l={self.translation_length})"
        return f"ElementAction({self.kind}, {self.witness})"


def classify_tree_automorphism(tree, gamma):
    """Tits type of gamma on the portion, with a witness.

    Hyperbolic is only declared when the minimum displacement is attained
    on two adjacent vertices (an axis segment); otherwise the portion is
    reported too small.
    """
    displacements = []
    for x in range(tree.vertex_count):
        y = tree.action(gamma, x)
        if y is None:
            continue
        d = tree.distance(x, y)
        if d is not None:
            displacements.append((d, x, y))
    if not displacements:
        raise UncertifiedRegion("no vertex image computable on the portion")
    dmin = min(d for d, _, _ in displacements)
    if dmin == 0:
        x = min(x for d, x, _ in displacements if d == 0)
        return ElementAction("elliptic", x)
    attaining = {x for d, x, _ in displacements if d == dmin}
    for x in sorted(attaining):
        for y in tree.adj[x]:
            if y in attaining:
                return ElementAction("hyperbolic", (x, y),
                                     translation_length=dmin)
    raise UncertifiedRegion(
        f"min displacement {dmin} not certified on an axis segment; "
        "build a larger portion")


def locate_torsion(decomp, tree, gamma):
    """Where a torsion element lives in the decomposition.

    Returns a "bag" locator when the stabilized bags all belong to one
    orbit (the cyclic group sits inside a single bag), and an "adhesion"
    locator when bags of two orbits are stabilized (the element lies in
    the shared adhesion). The tree classification is attached when the
    tree acts on the same group."""
    ball = decomp.ball
    k, cyc = cyclic_subgroup_in_ball(ball, gamma)
    if k is None:
        raise VerificationFailure("element is not torsion within the cap")
    if cyc is None:
        raise VerificationFailure("cyclic subgroup exits the ball")
    stabilized = [i for i, b in enumerate(decomp.bags)
                  if cyc <= b and translate_bag(ball, gamma, b) == b]
    orbits = sorted({decomp.bag_orbit[i] for i in stabilized
                     if decomp.bag_orbit[i] is not None})
    report = {"order": k, "stabilized_bags": stabilized}
    if len(orbits) >= 2:
        pairs = [(i, j) for i in stabilized for j in stabilized
                 if i < j and decomp.bags[i] & decomp.bags[j]]
        report["kind"] = "adhesion"
        report["adhesion"] = sorted(decomp.bags[pairs[0][0]]
                                    & decomp.bags[pairs[0][1]]) if pairs else []
    elif stabilized:
        report["kind"] = "bag"
        report["bag"] = sorted(decomp.bags[stabilized[0]])
        report["bag_size"] = len(decomp.bags[stabilized[0]])
    else:
        report["kind"] = "none"
    if tree is not None and tree.group is gamma.group:
        report["tree_action"] = classify_tree_automorphism(tree, gamma).kind
    return report


def is_non_elementary(tree):
    """Branching of degree >= 3 persisting across two consecutive radii."""
    interior = tree.interior_vertices()
    if not interior or tree.radius < 2:
        raise UncertifiedRegion("portion too small")
    branching = any(len(tree.adj[x]) >= 3 for x in interior)
    shell = [sum(1 for x in range(tree.vertex_count) if tree.dist[x] == d)
             for d in (tree.radius - 1, tree.radius)]
    persistent = shell[0] >= 3 and shell[1] >= 3
    verdict = branching and persistent
    reason = (f"interior branching {'>=3' if branching else '<3'}, "
              f"shell sizes {shell[0]}/{shell[1]}")
    return verdict, reason


def perturb_tree_portion(tree):
    """Copy with one deepest leaf re-attached elsewhere; negative control
    for the equivariance check."""
    adj = [list(a) for a in tree.adj]
    leaves = [x for x in range(tree.vertex_count)
              if len(adj[x]) == 1 and tree.dist[x] == tree.radius]
    if not leaves:
        raise VerificationFailure("no leaf to perturb")
    leaf = leaves[-1]
    parent = adj[leaf][0]
    target = next(x for x in range(tree.vertex_count)
                  if x not in (parent, leaf))
    adj[parent].remove(leaf)
    adj[leaf] = [target]
    adj[target] = sorted(adj[target] + [leaf])
    return BassSerreTreePortion(tree.group, tree.radius, list(tree.orbit),
                                list(tree.reps), list(tree.words),
                                [sorted(a) for a in adj],
                                list(tree.dist), dict(tree.key_index))


def small_index_threshold(n, B, A):
    """min(n*B, 2^A), exact."""
    if n < 1 or B < 1 or A < 0:
        raise ValueError("need n, B >= 1 and A >= 0")
    return min(n * B, 2 ** A)


# ---------------------------------------------------------------------------
# decomposition-side tree and the equivariance check

class DecompositionTree:
    """Bag-adjacency tree portion of a ball decomposition, rooted at the
    smallest bag containing the ball's center."""

    __slots__ = ("decomp", "radius", "nodes", "adj", "dist", "root",
                 "_node_of")

    def __init__(self, decomp, radius):
        ball = decomp.ball
        interior = [i for i in range(decomp.bag_count)
                    if min(ball.word_length[v] for v in decomp.bags[i])
                    <= decomp.interior_radius]
        keep = set(interior)
        root = min((i for i in interior if 0 in decomp.bags[i]),
                   key=lambda i: (len(decomp.bags[i]), i), default=None)
        if root is None:
            raise VerificationFailure("no interior bag contains the center")
        neigh = {i: set() for i in interior}
        for i, j in decomp.adjacent_pairs:
            if i in keep and j in keep and decomp.bags[i] & decomp.bags[j]:
                neigh[i].add(j)
                neigh[j].add(i)
        dist = bfs(lambda x: sorted(neigh[x]), root, radius)
        self.decomp = decomp
        self.radius = radius
        self.nodes = list(dist)  # bag indices, in BFS order
        self.adj = {x: sorted(y for y in neigh[x] if y in dist) for x in dist}
        self.dist = dist
        self.root = root
        self._node_of = {decomp.bags[x]: x for x in dist}

    def label(self, x):
        return len(self.decomp.bags[x])

    def action(self, gamma, x):
        image = translate_bag(self.decomp.ball, gamma, self.decomp.bags[x])
        if image is None:
            return None
        return self._node_of.get(image)


def _tree_isomorphisms(a_adj, a_label, a_root, b_adj, b_label, b_root):
    """Yield root-preserving label-respecting isomorphisms (dicts a->b)."""
    if a_label(a_root) != b_label(b_root):
        return

    def extend(mapping, frontier):
        if not frontier:
            yield dict(mapping)
            return
        x, bx = frontier[0]
        xchildren = [c for c in a_adj[x] if c not in mapping]
        bchildren = [c for c in b_adj[bx] if c not in mapping.values()]
        if len(xchildren) != len(bchildren):
            return
        for perm in _label_matchings(xchildren, bchildren, a_label, b_label):
            new = dict(mapping)
            new.update(perm)
            yield from extend(new, frontier[1:] + sorted(perm.items()))

    yield from extend({a_root: b_root}, [(a_root, b_root)])


def _label_matchings(xs, ys, xl, yl):
    if not xs:
        yield {}
        return
    x, rest = xs[0], xs[1:]
    for i, y in enumerate(ys):
        if xl(x) == yl(y):
            for sub in _label_matchings(rest, ys[:i] + ys[i + 1:], xl, yl):
                out = {x: y}
                out.update(sub)
                yield out


def verify_equivariant_isomorphism(dec_tree, bs_tree, generator_symbols):
    """Search for a root- and label-preserving tree isomorphism that
    intertwines the generator actions; report the first witness mismatch
    of the best candidate if none exists."""
    ball_gens = dict(dec_tree.decomp.ball.group.gen_symbols()) \
        if hasattr(dec_tree.decomp.ball.group, "gen_symbols") else {}
    tree_gens = dict(bs_tree.group.gen_symbols())
    for sym in generator_symbols:
        if sym not in ball_gens or sym not in tree_gens:
            raise VerificationFailure(f"generator {sym!r} missing on one side")

    b_adj = {x: bs_tree.adj[x] for x in range(bs_tree.vertex_count)}
    first_failure = None
    candidates = 0
    for iso in _tree_isomorphisms(dec_tree.adj, dec_tree.label, dec_tree.root,
                                  b_adj, bs_tree.label, bs_tree.root):
        candidates += 1
        mismatch = None
        for sym in generator_symbols:
            ga, gb = ball_gens[sym], tree_gens[sym]
            for x, bx in iso.items():
                ya = dec_tree.action(ga, x)
                yb = bs_tree.action(gb, bx)
                if ya is None or yb is None or ya not in iso:
                    continue
                if iso[ya] != yb:
                    mismatch = {"generator": sym, "node": x,
                                "mapped": iso[ya], "expected": yb}
                    break
            if mismatch:
                break
        if mismatch is None:
            return {"pass": True, "isomorphism_size": len(iso),
                    "candidates_tried": candidates}
        if first_failure is None:
            first_failure = mismatch
    return {"pass": False, "candidates_tried": candidates,
            "witness": first_failure or "no label-respecting isomorphism"}

"""Finite portions of the coset tree of a splitting, and actions on them.

Tree vertices are cosets of the based vertex subgroups. The edges at
g·H_v are the left cosets of an edge group's image in G_v (Serre,
*Trees*, §I.4–I.5), so the moves out of it are g·c·s^±1, for the edge's
stable letter s and the coset representatives c that the normal form
keeps (`GraphOfGroupsGroup.edge_coset_reps`). Group elements act by left
multiplication, without inversions (Serre, *Trees*, §I.5), and are
classified as elliptic or hyperbolic with explicit witnesses.

A tree vertex is its normal path word. Normal forms are closed under
prefixes (Serre, *Trees*, §I.5.2), so the coset of the word w lies at
depth len(w) // 2, its ancestor at depth k has key w[:2k], and the depth
of the lowest common ancestor of two vertices is half the length of
their words' common prefix.

Classification reads the words of the root's images. With no inversion,
every γ either fixes a subtree Fix(γ) or translates an axis by
ℓ(γ) ≥ 1, and d(x, γx) = ℓ(γ) + 2·d(x, A) for A the fixed set or the
axis (Serre, *Trees*, ch. I §6.4; Culler–Morgan 1987). So with
y = γ·root at depth d, γ is elliptic exactly when d is even and γ fixes
the midpoint of [root, y], the nearest point of Fix(γ) to the root.
Otherwise γ·root and γ⁻¹·root branch off the axis at the root's
projection p, at the depth h of their lowest common ancestor, and
ℓ = d − 2h. Kind and ℓ come from the words alone, at any radius; the
portion only names the witness.
"""

from __future__ import annotations

from collections import Counter, deque
from os.path import commonprefix

from .decomp import cyclic_subgroup_in_ball, translate_bag
from .errors import CapExceeded, UncertifiedRegion, VerificationFailure
from .graphs import bfs
from .groups import GraphOfGroupsGroup, inverse

# the most vertices a tree portion holds
TREE_VERTEX_CAP = 100_000


def _meet(a, b):
    """Depth of the lowest common ancestor of the cosets of the normal
    path words a and b."""
    return len(commonprefix((a, b))) // 2


class BassSerreTreePortion:
    """The ball of radius `radius` about the base vertex's coset H_0 in the
    coset tree.

    Tree vertex x is the coset of its normal path word words[x], at the
    vertex orbit[x] of the model; the word without its last item keys x
    in key_index, and its length fixes x's depth. `action` translates the
    word, which normalizes only where gamma's word meets it. Vertices are
    numbered in BFS order from the root, and `adj` lists the portion's
    edges.
    """

    __slots__ = ("group", "radius", "orbit", "words", "adj", "key_index")

    root = 0

    def __init__(self, group, radius, orbit, words, adj, key_index):
        self.group = group
        self.radius = radius
        self.orbit = orbit  # per tree vertex: orbit vertex of the model
        self.words = words  # per tree vertex: normal path word of its coset
        self.adj = adj
        self.key_index = key_index  # words[x][:-1] -> x

    @property
    def vertex_count(self):
        return len(self.words)

    def label(self, x):
        """Vertex-group order of the tree vertex's orbit."""
        return self.group.gog.vertices[self.orbit[x]].order

    def depth(self, x):
        return len(self.words[x]) // 2

    def action(self, gamma, x):
        """Left multiplication on cosets; None outside the portion."""
        return self.key_index.get(
            self.group.translate_word(gamma, self.words[x])[:-1])

    def distance(self, x, y):
        """Path length from x to y in the tree."""
        a, b = self.words[x], self.words[y]
        return len(a) // 2 + len(b) // 2 - 2 * _meet(a, b)

    def interior_vertices(self):
        return [x for x in range(self.vertex_count)
                if self.depth(x) < self.radius]

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


def build_tree_portion(group, radius):
    """BFS the coset tree out to `radius` from the base vertex's coset,
    raising CapExceeded past TREE_VERTEX_CAP vertices.

    The move out of a coset of H_u along an edge end is the packed path
    word c·d·1_v: a coset representative c of the edge group's image in
    G_u, the edge item d with its sign, and the identity at the head v.
    Its coset word g·p_u·c·d·1_v is one `_join` onto the parent's word.
    """
    if not isinstance(group, GraphOfGroupsGroup):
        raise VerificationFailure("tree portions need a graph-of-groups backend")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    pack = group._item_char.__getitem__
    moves = [[] for _ in group.gog.vertices]
    for i, e in enumerate(group.gog.edges):
        for sign, tail, head in ((1, e.u, e.v), (-1, e.v, e.u)):
            step = pack(("e", i, sign)) + pack(("v", head, 0))
            for c in group.edge_coset_reps(i, sign):
                moves[tail].append((head, pack(("v", tail, c)) + step))

    orbit = [0]
    words = [group.identity.data]
    key_index = {"": 0}
    adj = [set()]
    queue = deque([0])
    while queue:
        x = queue.popleft()
        if len(words[x]) // 2 == radius:
            continue
        for v, move in moves[orbit[x]]:
            word = group._join(words[x], move)
            y = key_index.get(word[:-1])
            if y is None:
                y = len(words)
                if y >= TREE_VERTEX_CAP:
                    raise CapExceeded("tree portion cap exceeded", reached=y)
                key_index[word[:-1]] = y
                orbit.append(v)
                words.append(word)
                adj.append(set())
                queue.append(y)
            if y != x:
                adj[x].add(y)
                adj[y].add(x)
    return BassSerreTreePortion(group, radius, orbit, words,
                                [sorted(a) for a in adj], key_index)


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
    """Tits type of gamma on the tree, with a witness in the portion.

    Read from the words of the root's images (module docstring): with
    y = gamma·root at even depth d, gamma is elliptic when it fixes y's
    ancestor m at depth d/2, and m is the witness. Otherwise gamma is
    hyperbolic, and the witness is the root's projection p onto the axis,
    at the depth h of the lowest common ancestor of y and gamma⁻¹·root,
    with the smaller-index of p's two axis neighbours, the ancestors of
    the two images at depth h + 1. Portion vertices are numbered in BFS
    order, so these are the least-index vertices that a scan of every
    vertex's displacement picks. The witness is None when one of its
    vertices lies outside the portion.
    """
    group, root = tree.group, tree.words[tree.root]
    y = group.translate_word(gamma, root)
    d = len(y) // 2
    if d % 2 == 0 and group.translate_word(gamma, y[:d + 1])[:-1] == y[:d]:
        return ElementAction("elliptic", tree.key_index.get(y[:d]))
    y_inv = group.translate_word(inverse(gamma), root)
    h = _meet(y, y_inv)
    # p is the parent of both ends, so it lies in the portion with them
    ends = [tree.key_index.get(w[:2 * h + 2]) for w in (y, y_inv)]
    witness = None if None in ends else (tree.key_index[y[:2 * h]], min(ends))
    return ElementAction("hyperbolic", witness, translation_length=d - 2 * h)


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
    depths = Counter(map(tree.depth, range(tree.vertex_count)))
    shell = [depths[tree.radius - 1], depths[tree.radius]]
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
              if len(adj[x]) == 1 and tree.depth(x) == tree.radius]
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
                                list(tree.words), [sorted(a) for a in adj],
                                dict(tree.key_index))


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
        interior = decomp.interior_bags()
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
    of the best candidate if none exists.

    `checked` counts the (generator, vertex) pairs compared: those whose
    image lies in both portions. A candidate that compares none shows
    nothing, so it does not pass."""
    ball_gens = dict(dec_tree.decomp.ball.group.gen_symbols())
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
        mismatch, checked = None, 0
        for sym in generator_symbols:
            ga, gb = ball_gens[sym], tree_gens[sym]
            for x, bx in iso.items():
                ya = dec_tree.action(ga, x)
                yb = bs_tree.action(gb, bx)
                if ya is None or yb is None or ya not in iso:
                    continue
                checked += 1
                if iso[ya] != yb:
                    mismatch = {"generator": sym, "node": x,
                                "mapped": iso[ya], "expected": yb}
                    break
            if mismatch:
                break
        if mismatch is None and checked:
            return {"pass": True, "isomorphism_size": len(iso),
                    "candidates_tried": candidates, "checked": checked}
        if first_failure is None:
            first_failure = (mismatch or "no (generator, vertex) pair "
                             "compared", checked)
    witness, checked = first_failure or ("no label-respecting isomorphism", 0)
    return {"pass": False, "candidates_tried": candidates,
            "checked": checked, "witness": witness}

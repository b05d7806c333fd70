"""Graphs of finite groups and exact arithmetic in their fundamental groups.

Elements of the fundamental group (based at vertex 0) are stored as
reduced alternating path words

    g0  d1  g1  d2  ...  dn  gn

where each g_i is an element of the vertex group at the current path
position and each d_i is a directed edge traversal. A word is reduced
when it contains no pinch (d, g, d-reversed) with g in the edge-group
image on the head side, and canonical once every g_{i-1} preceding a
traversal is the fixed lowest-index representative of its left coset of
the tail-side edge-group image. With those conventions the canonical
form is unique, so equality is structural comparison and the word
problem is exact.

Every element's data is such a normal form: `op`, `inv` and
`loop_from_sketch` build it with `_normalize`. A product a * b of two
normal forms is their concatenation joined at a's last vertex item, so
only the join can break the form. Pinches cascade left from it, and a
non-trivial edge-group element carried by the coset sweep runs on right
into b. So `op` tells `_normalize` that a's items before the join are a
normal prefix and that b's items after its first are an untouched normal
suffix: the pinch scan stops where its middle item enters the suffix,
and the sweep stops inside the suffix once it carries the identity. A
translate gamma * w of a normal path word w from the base (a coset's word
in the Bass-Serre tree) is normalized the same way.

Right multiplication by a generator g rewrites at most the last
len(g.data) items of a normal form, so `right_multiplier` reads x * g off
a memo of those windows. Items come from a finite alphabet, and `key`
joins their memoized reprs into repr(data).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from ..errors import BackendMismatch, SpecFormatError, VerificationFailure
from ..graphs import bfs
from .element import GroupElement, gen_symbols
from .table import FiniteGroupTable


class GogEdge:
    __slots__ = ("u", "v", "table", "into_u", "into_v", "tree")

    def __init__(self, u, v, table, into_u, into_v, tree):
        self.u = u
        self.v = v
        self.table = table
        self.into_u = tuple(into_u)
        self.into_v = tuple(into_v)
        self.tree = bool(tree)


class GraphOfGroups:
    """Finite connected graph with finite vertex/edge groups and embeddings."""

    def __init__(self, vertices, edges, vertex_names=None, name=None):
        self.vertices = list(vertices)
        self.edges = list(edges)
        self.vertex_names = list(vertex_names or [f"v{i}" for i in range(len(self.vertices))])
        self.name = name or "gog"
        self.verify()

    def verify(self):
        n = len(self.vertices)
        if n == 0:
            raise SpecFormatError("graph of groups needs at least one vertex")
        adj = {i: set() for i in range(n)}
        tree_adj = {i: set() for i in range(n)}
        tree_count = 0
        for e in self.edges:
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise SpecFormatError("edge endpoint out of range")
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
            self._check_embedding(e.table, self.vertices[e.u], e.into_u)
            self._check_embedding(e.table, self.vertices[e.v], e.into_v)
            if e.tree:
                if e.u == e.v:
                    raise SpecFormatError("loop edge cannot be a tree edge")
                tree_adj[e.u].add(e.v)
                tree_adj[e.v].add(e.u)
                tree_count += 1
        if len(bfs(adj.__getitem__, 0)) != n:
            raise SpecFormatError("underlying graph is not connected")
        if tree_count != n - 1:
            raise SpecFormatError("tree-marked edges do not form a spanning tree")
        if len(bfs(tree_adj.__getitem__, 0)) != n:
            raise SpecFormatError("tree-marked edges do not span the graph")

    @staticmethod
    def _check_embedding(src, dst, mapping):
        if len(mapping) != src.order:
            raise SpecFormatError("embedding has wrong domain size")
        if len(set(mapping)) != src.order or mapping[0] != 0:
            raise VerificationFailure("edge embedding is not injective or misses identity")
        for a in range(src.order):
            for b in range(src.order):
                if mapping[src.mul[a][b]] != dst.mul[mapping[a]][mapping[b]]:
                    raise VerificationFailure("edge embedding is not a homomorphism")

    def euler_characteristic(self):
        return sum(Fraction(1, t.order) for t in self.vertices) - sum(
            Fraction(1, e.table.order) for e in self.edges
        )

    def to_json(self):
        return {
            "vertices": [t.to_json() for t in self.vertices],
            "vertex_names": self.vertex_names,
            "edges": [
                {
                    "u": e.u,
                    "v": e.v,
                    "group": e.table.to_json(),
                    "into_u": list(e.into_u),
                    "into_v": list(e.into_v),
                    "tree": e.tree,
                }
                for e in self.edges
            ],
        }


# Path-word items: ("v", vertex_index, element_index) and ("e", edge_index, sign).
# sign +1 traverses u -> v, sign -1 traverses v -> u.


class GraphOfGroupsGroup:
    """Fundamental group of a GraphOfGroups, based at vertex 0."""

    backend = "normal-form"

    def __init__(self, gog, generator_sketches=None, name=None):
        self.gog = gog
        self.name = name or gog.name
        self._prepare_edge_data()
        self._prepare_tree_paths()
        # the finite item alphabet, each item with its repr, and the memo of
        # window products per generator (see `right_multiplier`)
        self._item_reprs = {
            item: repr(item)
            for item in [("v", v, i) for v, t in enumerate(gog.vertices)
                         for i in range(t.order)]
            + [("e", ei, sign) for ei in range(len(gog.edges))
               for sign in (1, -1)]}
        self._window_products = {}
        self.identity = GroupElement("normal-form", (("v", 0, 0),), self)
        self.generators = {}
        for gname, sketch in (generator_sketches or {}).items():
            self.generators[gname] = self.loop_from_sketch(sketch)

    # -- precomputation -------------------------------------------------

    def _prepare_edge_data(self):
        # per (edge, sign): tail vertex, head vertex, tail/head embeddings,
        # image sets and preimage dicts, and lowest-index coset reps.
        self._dir = {}
        for ei, e in enumerate(self.gog.edges):
            for sign in (+1, -1):
                tail, head = (e.u, e.v) if sign == 1 else (e.v, e.u)
                emb_tail = e.into_u if sign == 1 else e.into_v
                emb_head = e.into_v if sign == 1 else e.into_u
                tail_tbl = self.gog.vertices[tail]
                image_tail = frozenset(emb_tail)
                pre_tail = {img: c for c, img in enumerate(emb_tail)}
                pre_head = {img: c for c, img in enumerate(emb_head)}
                # lowest-index representative of each left coset g * image_tail
                rep = [None] * tail_tbl.order
                for g in range(tail_tbl.order):
                    if rep[g] is None:
                        coset = sorted(tail_tbl.mul[g][h] for h in image_tail)
                        r = coset[0]
                        for x in coset:
                            rep[x] = r
                self._dir[(ei, sign)] = {
                    "tail": tail,
                    "head": head,
                    "emb_tail": emb_tail,
                    "emb_head": emb_head,
                    "image_tail": image_tail,
                    "image_head": frozenset(emb_head),
                    "pre_tail": pre_tail,
                    "pre_head": pre_head,
                    "rep": rep,
                }

    def _prepare_tree_paths(self):
        # BFS over tree edges from the base vertex; path[v] = list of
        # ("e", ei, sign) traversals leading base -> v.
        n = len(self.gog.vertices)
        path = {0: []}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for ei, e in enumerate(self.gog.edges):
                    if not e.tree:
                        continue
                    if e.u == x and e.v not in path:
                        path[e.v] = path[x] + [("e", ei, +1)]
                        nxt.append(e.v)
                    elif e.v == x and e.u not in path:
                        path[e.u] = path[x] + [("e", ei, -1)]
                        nxt.append(e.u)
            frontier = nxt
        if len(path) != n:
            raise SpecFormatError("spanning tree does not reach all vertices")
        self._tree_path = path
        # the tree path as a normal path word: it has no backtracking, and
        # the identity is the lowest-index representative of every coset
        self._tree_word = [(("v", 0, 0),) + tuple(self._route(0, v))
                           for v in range(n)]

    # -- word assembly --------------------------------------------------

    def loop_from_sketch(self, sketch):
        """Build a based loop from a sketch of vertex elements / edge letters.

        Sketch entries: ["v", vertex, elem_index] inserts that vertex-group
        element (reaching the vertex along the spanning tree), ["e", edge,
        sign] traverses the edge from its tail (reached along the tree).
        The loop is closed back to the base along the tree and normalized.
        """
        items = [("v", 0, 0)]
        cur = 0
        for entry in sketch:
            # a sketch entry is a path-word item of the graph's alphabet
            if tuple(entry) not in self._item_reprs:
                raise SpecFormatError(f"bad sketch entry {entry!r}")
            if entry[0] == "v":
                _, vtx, idx = entry
                items += self._route(cur, vtx)
                cur = vtx
                items[-1] = self._vmul(items[-1], ("v", vtx, idx))
            else:
                _, ei, sign = entry
                tail = self._dir[(ei, sign)]["tail"]
                items += self._route(cur, tail)
                items.append(("e", ei, sign))
                cur = self._dir[(ei, sign)]["head"]
                items.append(("v", cur, 0))
        items += self._route(cur, 0)
        return GroupElement("normal-form", self._normalize(tuple(items)), self)

    def _route(self, a, b):
        """Tree traversal items from a to b (empty v-item removed at start)."""
        if a == b:
            return []
        back = [(ei, -sign) for (_, ei, sign) in reversed(self._tree_path[a])]
        fwd = [(ei, sign) for (_, ei, sign) in self._tree_path[b]]
        # cancel the common prefix of (reversed a-path) and b-path at the root
        while back and fwd and back[-1] == (fwd[0][0], -fwd[0][1]):
            back.pop()
            fwd.pop(0)
        items = []
        cur = a
        for ei, sign in back + fwd:
            items.append(("e", ei, sign))
            cur = self._dir[(ei, sign)]["head"]
            items.append(("v", cur, 0))
        return items

    def _vmul(self, item_a, item_b):
        _, vtx, a = item_a
        _, vtx2, b = item_b
        assert vtx == vtx2
        return ("v", vtx, self.gog.vertices[vtx].mul[a][b])

    # -- normalization --------------------------------------------------

    def _normalize(self, items, start=0, tail=0):
        """The normal form of a path word whose first `start` items (an
        even count) are a prefix of a normal form and whose last `tail`
        items (an even count, starting with an edge item) are the suffix
        after the first item of a normal form.

        No pinch lies inside the prefix, so the pinch scan starts at the
        first pinch that reaches item `start` and steps left only while
        pinches cascade. No pinch lies inside the suffix either, so the
        scan stops at the first triple whose middle item is in it; a merge
        that eats suffix items shrinks it. Re-sweeping a canonical prefix
        leaves it unchanged, so the coset-representative sweep starts at
        the leftmost item that the join or a merge changed. Each suffix
        vertex item before an edge is already its coset representative,
        so once the sweep is inside the suffix and carries the identity
        of the edge group, nothing after changes and the sweep stops.
        With start 0 and tail 0 this is the full normalization.
        """
        items = list(items)
        # Britton pinch removal to a fixpoint. Edge items sit at odd
        # positions; a pinch is (d, g, d-reversed) with g in the edge-group
        # image on d's head side.
        changed = start
        i = max(1, start - 1)
        # the last triple, or the first whose middle is in the suffix
        end = len(items) - (tail or 1)
        while i + 1 < end:
            d, g, d2 = items[i], items[i + 1], items[i + 2]
            if d2[1] == d[1] and d2[2] == -d[2]:
                info = self._dir[(d[1], d[2])]
                if g[2] in info["pre_head"]:
                    c = info["pre_head"][g[2]]
                    carried = ("v", info["tail"], info["emb_tail"][c])
                    merged = self._vmul(self._vmul(items[i - 1], carried), items[i + 3])
                    items[i - 1 : i + 4] = [merged]
                    changed = min(changed, i - 1)
                    tail = min(tail, len(items) - i)
                    end = len(items) - (tail or 1)
                    i = max(1, i - 2)
                    continue
            i += 2
        # Left-to-right sweep into lowest-index coset representatives.
        suffix = len(items) - tail
        for i in range(changed + 1, len(items), 2):
            d = items[i]
            info = self._dir[(d[1], d[2])]
            g_prev = items[i - 1]
            r = info["rep"][g_prev[2]]
            tbl = self.gog.vertices[info["tail"]]
            h = tbl.mul[tbl.inv[r]][g_prev[2]]  # r * h = g_prev, h in tail image
            c = info["pre_tail"][h]
            if c == 0 and i >= suffix:
                break
            items[i - 1] = ("v", info["tail"], r)
            items[i + 1] = self._vmul(("v", info["head"], info["emb_head"][c]), items[i + 1])
        return tuple(items)

    # -- group operations -----------------------------------------------

    def _join(self, a, b):
        """The normal form of the path word a * b, for normal path words a
        and b with a ending at the vertex where b starts."""
        items = list(a)
        items[-1] = self._vmul(items[-1], b[0])
        items += b[1:]
        return self._normalize(items, len(a) - 1, len(b) - 1)

    def right_multiplier(self, g):
        """The map x -> x * g on elements, read from a memo of window
        products.

        Let g's normal form have e edge items, so n = 2e + 1 items. In the
        join x * g every pinch consumes one edge item of g and one of x,
        so at most e pinches cascade left from the join, and the item they
        merge into is never left of x's item len(x) - n. The coset sweep
        starts at the leftmost item that the join or a pinch changed. So
        x's items before its last n are unchanged, and what follows them
        is the normal form of (the last n items of x, or all of a shorter
        x) * g, which depends on that window and on g alone. A window is a suffix of a normal
        form that starts at a vertex item, hence normal itself, and `_join`
        normalizes it as it does whole words. The memo, held by the group
        per generator, maps each window seen to that normal form; it is
        bounded by the n-item words over the finite item alphabet.
        """
        n = len(g.data)
        memo = self._window_products.setdefault(g.data, {})

        def times(x):
            data = x.data
            window = data[-n:]
            product = memo.get(window)
            if product is None:
                product = memo[window] = self._join(window, g.data)
            return GroupElement("normal-form", data[:-n] + product, self)
        return times

    def op(self, a, b):
        """The product a * b. The words are joined at a's last vertex item;
        a's items before it are a normal prefix and b's items after its
        first an untouched normal suffix. So `_normalize` scans pinches
        from the join, stepping left only while they cascade and stopping
        where the scan enters b's suffix, and sweeps coset representatives
        from the leftmost changed item until, inside b's suffix, the
        carried edge-group element is the identity."""
        return GroupElement("normal-form", self._join(a.data, b.data), self)

    def inv(self, a):
        out = []
        for item in reversed(a.data):
            if item[0] == "v":
                _, vtx, idx = item
                out.append(("v", vtx, self.gog.vertices[vtx].inv[idx]))
            else:
                _, ei, sign = item
                out.append(("e", ei, -sign))
        return GroupElement("normal-form", self._normalize(tuple(out)), self)

    def key(self, g):
        """`repr(g.data)`, joined from the memoized reprs of its items."""
        body = ", ".join(map(self._item_reprs.__getitem__, g.data))
        return "(" + body + ("," if len(g.data) == 1 else "") + ")"

    def render(self, g):
        parts = []
        for item in g.data:
            if item[0] == "v":
                _, vtx, idx = item
                if idx != 0 or len(g.data) == 1:
                    parts.append(self.gog.vertices[vtx].labels[idx])
            else:
                _, ei, sign = item
                parts.append(f"t{ei}" if sign > 0 else f"t{ei}'")
        return "*".join(parts) or "1"

    gen_symbols = gen_symbols

    # -- based subgroup copies ------------------------------------------

    def based_vertex_element(self, vertex, idx):
        """The based loop (tree path) * g * (tree path back), normalized."""
        return self.loop_from_sketch([("v", vertex, idx)])

    def based_vertex_subgroup(self, vertex):
        """All based copies of the vertex group's elements."""
        tbl = self.gog.vertices[vertex]
        return [self.based_vertex_element(vertex, i) for i in range(tbl.order)]

    def coset_word(self, vertex, *factors):
        """The normal path word of (f1 * ... * fk) * p, where p is the
        spanning-tree path from the base to the vertex: `_join` folded
        over the factors' words and p. Normal forms are unique, so the
        order of the joins does not change the word."""
        if any(f.group is not self for f in factors):
            raise BackendMismatch("coset word factors must belong to this group")
        return reduce(self._join, [f.data for f in factors[1:]]
                      + [self._tree_word[vertex]], factors[0].data)

    def translate_word(self, gamma, word):
        """The normal path word gamma * word, for a normal path word from
        the base (such as a `coset_word`): only the join is normalized."""
        if gamma.group is not self:
            raise BackendMismatch("translating element must belong to this group")
        return self._join(gamma.data, word)

    def vertex_coset_key(self, vertex, *factors):
        """Key of the left coset (f1 * ... * fk) * H_v of the based vertex
        subgroup H_v = p G_v p^-1, where p is the spanning-tree path from
        the base to v: the `coset_word` without its last item.

        Right multiplication by G_v changes only the last vertex-group
        item of the unique normal form, so keys are equal exactly when the
        cosets are equal. The key ends with the edge into v (or is empty
        for the base coset), so cosets of different vertex subgroups never
        share a key.
        """
        return self.coset_word(vertex, *factors)[:-1]

    def stable_letter(self, edge_index):
        """Based loop traversing the edge once (trivial for tree edges)."""
        return self.loop_from_sketch([("e", edge_index, +1)])

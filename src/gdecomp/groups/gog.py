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

Items come from a finite alphabet (Serre, Trees, I.5.2): the vertex
items ("v", v, i), then the edge items ("e", ei, +1 or -1), numbered in
that order. An element's data packs its normal form into a str, the k-th
item of the alphabet as the character chr(k), so slices, joins and hashes
work on one flat string, and a str caches its hash. `_normalize`, `_join`
and `_vmul` work on characters, through tables keyed by them, and `items`
decodes packed data into item tuples. `key` joins the memoized reprs of
the items into the repr of the item tuple, so keys do not depend on the
packing.

Right multiplication by a generator g rewrites at most the last
len(g.data) items of a normal form, so `right_multiplier` reads x * g off
a memo of those windows. It maps packed data to packed data, with no
element in between: a Cayley ball looks each product up by its data and
makes an element only of a product that becomes a new vertex.
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

    def __init__(self, gog, generator_sketches=None, name=None):
        self.gog = gog
        self.name = name or gog.name
        # the finite item alphabet, packed one character per item: vertex
        # items, then edge items, the k-th item as chr(k)
        alphabet = [("v", v, i) for v, t in enumerate(gog.vertices)
                    for i in range(t.order)] \
            + [("e", ei, sign) for ei in range(len(gog.edges))
               for sign in (1, -1)]
        chars = list(map(chr, range(len(alphabet))))
        self._char_item = dict(zip(chars, alphabet))
        self._item_char = dict(zip(alphabet, chars))
        self._item_reprs = dict(zip(chars, map(repr, alphabet)))
        self._prepare_edge_data()
        self._prepare_tree_paths()
        self._prepare_char_tables()
        # the memo of window products per generator (see `right_multiplier`)
        self._window_products = {}
        self.identity = GroupElement(self._item_char[("v", 0, 0)], self)
        self.generators = {}
        for gname, sketch in (generator_sketches or {}).items():
            self.generators[gname] = self.loop_from_sketch(sketch)

    # -- precomputation -------------------------------------------------

    def _prepare_edge_data(self):
        # per (edge, sign): tail vertex, head vertex, tail/head embeddings,
        # the head embedding's preimage dict, and lowest-index coset reps.
        self._dir = {}
        for ei, e in enumerate(self.gog.edges):
            for sign in (+1, -1):
                tail, head = (e.u, e.v) if sign == 1 else (e.v, e.u)
                emb_tail = e.into_u if sign == 1 else e.into_v
                emb_head = e.into_v if sign == 1 else e.into_u
                tail_tbl = self.gog.vertices[tail]
                pre_head = {img: c for c, img in enumerate(emb_head)}
                # lowest-index representative of each left coset g * emb_tail
                rep = [None] * tail_tbl.order
                for g in range(tail_tbl.order):
                    if rep[g] is None:
                        coset = sorted(tail_tbl.mul[g][h] for h in emb_tail)
                        r = coset[0]
                        for x in coset:
                            rep[x] = r
                self._dir[(ei, sign)] = {
                    "tail": tail,
                    "head": head,
                    "emb_tail": emb_tail,
                    "emb_head": emb_head,
                    "pre_head": pre_head,
                    "rep": rep,
                }
        # per vertex u: (v, the packed path word c·d·1_v) for each edge end d
        # from u to v and each coset representative c that the normal form
        # keeps, in edge, sign and index order (`coset_moves`)
        char = self._item_char.__getitem__
        self._moves = [[] for _ in self.gog.vertices]
        for (ei, sign), info in self._dir.items():
            tail, head = info["tail"], info["head"]
            step = char(("e", ei, sign)) + char(("v", head, 0))
            for c in self.edge_coset_reps(ei, sign):
                self._moves[tail].append((head, char(("v", tail, c)) + step))

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
        self._tree_word = [self._item_char[("v", 0, 0)] + self._route(0, v)
                           for v in range(n)]

    def _prepare_char_tables(self):
        # what `_normalize`, `_vmul` and `inv` read, keyed by character:
        # each vertex item's first code at its vertex and its row of the
        # vertex group's table, each item's inverse, and for each edge item
        # its reversal, its pinches and its steps of the coset sweep
        char = self._item_char.__getitem__
        self._vrow, self._inverse, self._pinch, self._sweep = {}, {}, {}, {}
        vchars = []  # per vertex, the characters of its items by index
        for v, tbl in enumerate(self.gog.vertices):
            base = ord(char(("v", v, 0)))
            chars = [chr(base + i) for i in range(tbl.order)]
            vchars.append(chars)
            self._vrow.update(zip(chars, [(base, row) for row in tbl.mul]))
            self._inverse.update(zip(range(base, base + tbl.order),
                                     map(chars.__getitem__, tbl.inv)))
        for (ei, sign), info in self._dir.items():
            d = char(("e", ei, sign))
            self._inverse[ord(d)] = reverse = char(("e", ei, -sign))
            tail, head = vchars[info["tail"]], vchars[info["head"]]
            emb_tail, emb_head = info["emb_tail"], info["emb_head"]
            # (d, g, reverse) is a pinch when g is the image of an edge-group
            # element c on the head side; c's tail image carries left
            self._pinch[d] = (reverse, {head[g]: tail[emb_tail[c]]
                                        for g, c in info["pre_head"].items()})
            # the vertex item g before d is r * h with r its coset
            # representative and h the tail image of c: r stays and the head
            # image of c carries right. Representatives (c = 0) are absent.
            mul, sweep = self.gog.vertices[info["tail"]].mul, {}
            for r in set(info["rep"]):
                for c in range(1, len(emb_tail)):
                    sweep[tail[mul[r][emb_tail[c]]]] = (tail[r], head[emb_head[c]])
            self._sweep[d] = sweep

    # -- word assembly --------------------------------------------------

    def items(self, data):
        """The path-word items of an element's packed data, as tuples."""
        return tuple(map(self._char_item.__getitem__, data))

    def loop_from_sketch(self, sketch):
        """Build a based loop from a sketch of vertex elements / edge letters.

        Sketch entries: ["v", vertex, elem_index] inserts that vertex-group
        element (reaching the vertex along the spanning tree), ["e", edge,
        sign] traverses the edge from its tail (reached along the tree).
        The loop is closed back to the base along the tree and normalized.
        """
        items = [self._item_char[("v", 0, 0)]]
        cur = 0
        for entry in sketch:
            # a sketch entry is a path-word item of the graph's alphabet;
            # its parts are checked first, as a nested array is unhashable
            if not all(isinstance(x, (str, int)) for x in entry) \
                    or tuple(entry) not in self._item_char:
                raise SpecFormatError(f"bad sketch entry {entry!r}")
            ch = self._item_char[tuple(entry)]
            if entry[0] == "v":
                vtx = entry[1]
                items += self._route(cur, vtx)
                cur = vtx
                items[-1] = self._vmul(items[-1], ch)
            else:
                _, ei, sign = entry
                items += self._route(cur, self._dir[(ei, sign)]["tail"])
                cur = self._dir[(ei, sign)]["head"]
                items += ch + self._item_char[("v", cur, 0)]
        items += self._route(cur, 0)
        return GroupElement(self._normalize(items), self)

    def _route(self, a, b):
        """Tree traversal items from a to b (empty v-item removed at start),
        packed."""
        if a == b:
            return ""
        back = [(ei, -sign) for (_, ei, sign) in reversed(self._tree_path[a])]
        fwd = [(ei, sign) for (_, ei, sign) in self._tree_path[b]]
        # cancel the common prefix of (reversed a-path) and b-path at the root
        while back and fwd and back[-1] == (fwd[0][0], -fwd[0][1]):
            back.pop()
            fwd.pop(0)
        items = []
        for ei, sign in back + fwd:
            items.append(("e", ei, sign))
            items.append(("v", self._dir[(ei, sign)]["head"], 0))
        return "".join(map(self._item_char.__getitem__, items))

    def _vmul(self, a, b):
        """The product of two vertex items at one vertex, as characters."""
        base, row = self._vrow[a]
        return chr(base + row[ord(b) - base])

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

        The word is packed (or a list of its characters); the result is
        packed.
        """
        items = list(items)
        vmul, pinches, sweeps = self._vmul, self._pinch, self._sweep
        # Britton pinch removal to a fixpoint. Edge items sit at odd
        # positions; a pinch is (d, g, d-reversed) with g in the edge-group
        # image on d's head side.
        changed = start
        i = max(1, start - 1)
        # the last triple, or the first whose middle is in the suffix
        end = len(items) - (tail or 1)
        while i + 1 < end:
            reverse, pinch = pinches[items[i]]
            if items[i + 2] == reverse and items[i + 1] in pinch:
                carried = pinch[items[i + 1]]
                items[i - 1 : i + 4] = [
                    vmul(vmul(items[i - 1], carried), items[i + 3])]
                changed = min(changed, i - 1)
                tail = min(tail, len(items) - i)
                end = len(items) - (tail or 1)
                i = max(1, i - 2)
                continue
            i += 2
        # Left-to-right sweep into lowest-index coset representatives.
        suffix = len(items) - tail
        for i in range(changed + 1, len(items), 2):
            step = sweeps[items[i]].get(items[i - 1])
            if step is None:
                # a representative: the identity carries past the edge
                if i >= suffix:
                    break
                continue
            items[i - 1], carried = step
            items[i + 1] = vmul(carried, items[i + 1])
        return "".join(items)

    # -- group operations -----------------------------------------------

    def _join(self, a, b):
        """The normal form of the path word a * b, for normal path words a
        and b with a ending at the vertex where b starts."""
        items = list(a)
        items[-1] = self._vmul(items[-1], b[0])
        items += b[1:]
        return self._normalize(items, len(a) - 1, len(b) - 1)

    def right_multiplier(self, g):
        """The map x -> x * g on element data, a packed normal form to a
        packed normal form, read from a memo of window products.

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
            window = x[-n:]
            product = memo.get(window)
            if product is None:
                product = memo[window] = self._join(window, g.data)
            return x[:-n] + product
        return times

    def op(self, a, b):
        """The product a * b. The words are joined at a's last vertex item;
        a's items before it are a normal prefix and b's items after its
        first an untouched normal suffix. So `_normalize` scans pinches
        from the join, stepping left only while they cascade and stopping
        where the scan enters b's suffix, and sweeps coset representatives
        from the leftmost changed item until, inside b's suffix, the
        carried edge-group element is the identity."""
        return GroupElement(self._join(a.data, b.data), self)

    def inv(self, a):
        """The reversed word with each item inverted, normalized."""
        return GroupElement(
            self._normalize(a.data[::-1].translate(self._inverse)), self)

    def key(self, g):
        """`repr` of g's item tuple, joined from the memoized reprs of its
        items."""
        body = ", ".join(map(self._item_reprs.__getitem__, g.data))
        return "(" + body + ("," if len(g.data) == 1 else "") + ")"

    def render(self, g):
        items = self.items(g.data)
        parts = []
        for item in items:
            if item[0] == "v":
                _, vtx, idx = item
                if idx != 0 or len(items) == 1:
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
        order of the joins does not change the word.

        Without its last item the word keys the left coset
        (f1 * ... * fk) * H_v of the based vertex subgroup H_v = p G_v p^-1:
        right multiplication by G_v changes only the last vertex-group
        item of the normal form, so the keys are equal exactly when the
        cosets are. The key ends with the edge into v (or is empty for the
        base coset), so cosets of different vertex subgroups never share
        a key."""
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

    def coset_moves(self, word):
        """The edges out of a coset in the coset tree, for the normal path
        word of a coset of H_u (such as a `coset_word`): (v, the word of
        the coset across the edge) for each packed move c·d·1_v out of u,
        in edge, sign and index order. Each word is one `_join` of the move
        onto `word`, whose last item is at u."""
        u = self._char_item[word[-1]][1]
        return [(v, self._join(word, move)) for v, move in self._moves[u]]

    def edge_coset_reps(self, edge_index, sign):
        """The lowest-index representatives, in index order, of the left
        cosets of the edge group's image in the tail vertex group of the
        edge traversed with `sign`: the ones the normal form uses."""
        return sorted(set(self._dir[(edge_index, sign)]["rep"]))

    def stable_letter(self, edge_index):
        """Based loop traversing the edge once (trivial for tree edges)."""
        return self.loop_from_sketch([("e", edge_index, +1)])

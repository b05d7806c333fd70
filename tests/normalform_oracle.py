"""Reference normalization of graph-of-groups path words, for checking the
one that starts at a join.

`normalize(group, items)` is the full normalization that
`GraphOfGroupsGroup._normalize` did before it took a start position and
a suffix length: the pinch scan runs over the whole word and the
coset-representative sweep over every edge. `inv_data` inverts each
item of the reversed word and normalizes it; `op_data` and
`coset_word_data` join words the way `op` and `coset_word` do and
normalize the whole result; `coset_key_data` is the coset word without
its last item, the key of the vertex subgroup's coset.

The oracle works on path-word items as tuples ("v", vertex, index) and
("e", edge, sign). It reads an element's packed data through the group's
decoding, `group.items`, and returns item tuples.
"""

from __future__ import annotations


def normalize(self, items):
    items = list(items)
    # Britton pinch removal to a fixpoint. Edge items sit at odd
    # positions; a pinch is (d, g, d-reversed) with g in the edge-group
    # image on d's head side.
    i = 1
    while i + 2 < len(items):
        d, g, d2 = items[i], items[i + 1], items[i + 2]
        if d2[1] == d[1] and d2[2] == -d[2]:
            info = self._dir[(d[1], d[2])]
            if g[2] in info["pre_head"]:
                c = info["pre_head"][g[2]]
                carried = ("v", info["tail"], info["emb_tail"][c])
                merged = _vmul(self, _vmul(self, items[i - 1], carried),
                               items[i + 3])
                items[i - 1 : i + 4] = [merged]
                i = max(1, i - 2)
                continue
        i += 2
    # Left-to-right sweep into lowest-index coset representatives.
    for i in range(1, len(items), 2):
        d = items[i]
        info = self._dir[(d[1], d[2])]
        g_prev = items[i - 1]
        r = info["rep"][g_prev[2]]
        tbl = self.gog.vertices[info["tail"]]
        h = tbl.mul[tbl.inv[r]][g_prev[2]]  # r * h = g_prev, h in tail image
        c = info["emb_tail"].index(h)
        items[i - 1] = ("v", info["tail"], r)
        items[i + 1] = _vmul(self, ("v", info["head"], info["emb_head"][c]),
                             items[i + 1])
    return tuple(items)


def _vmul(group, item_a, item_b):
    _, vtx, a = item_a
    _, vtx2, b = item_b
    assert vtx == vtx2
    return ("v", vtx, group.gog.vertices[vtx].mul[a][b])


def _join(group, *words):
    items = list(words[0])
    for w in words[1:]:
        items[-1] = _vmul(group, items[-1], w[0])
        items += w[1:]
    return items


def op_data(group, a, b):
    """Normal form of a * b from the fully normalized joined words."""
    return normalize(group, _join(group, group.items(a.data),
                                   group.items(b.data)))


def inv_data(group, a):
    """Normal form of a^-1: a's items reversed, each one inverted, and the
    whole word normalized."""
    return normalize(group, [
        ("v", x, group.gog.vertices[x].inv[i]) if kind == "v" else ("e", x, -i)
        for kind, x, i in reversed(group.items(a.data))])


def coset_word_data(group, vertex, *factors):
    """Normal path word of (f1 * ... * fk) * p_v from the fully normalized
    joined words followed by the tree path to the vertex."""
    items = _join(group, *(group.items(f.data) for f in factors))
    items += group.items(group._route(0, vertex))
    return normalize(group, items)


def coset_key_data(group, vertex, *factors):
    """Key of (f1 * ... * fk) * H_v: its normal path word without the last
    item."""
    return coset_word_data(group, vertex, *factors)[:-1]

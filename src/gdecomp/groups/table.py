"""Finite groups as explicit multiplication tables.

Index 0 is always the identity. Tables are immutable once built and are
hashable, so they can serve as vertex/edge groups in a graph of groups
and as targets of finite quotients.
"""

from __future__ import annotations

import itertools

from ..errors import CapExceeded, VerificationFailure
from ..graphs import bfs


class FiniteGroupTable:
    __slots__ = ("order", "mul", "inv", "labels")

    def __init__(self, mul, labels=None):
        self.mul = tuple(tuple(row) for row in mul)
        self.order = len(self.mul)
        if labels is None:
            labels = tuple(f"g{i}" for i in range(self.order))
        self.labels = tuple(labels)
        inv = [None] * self.order
        for x in range(self.order):
            for y in range(self.order):
                if self.mul[x][y] == 0:
                    inv[x] = y
                    break
        if any(v is None for v in inv):
            raise VerificationFailure("multiplication table has no inverse for some element")
        self.inv = tuple(inv)

    # -- constructors ---------------------------------------------------

    @classmethod
    def cyclic(cls, n, label=None):
        mul = [[(i + j) % n for j in range(n)] for i in range(n)]
        stem = label or "g"
        labels = ["e"] + [f"{stem}^{i}" if i > 1 else stem for i in range(1, n)]
        return cls(mul, labels)

    @classmethod
    def trivial(cls):
        return cls([[0]], ["e"])

    @classmethod
    def from_permutations(cls, perms, degree):
        """Closure of permutation generators (tuples of images, 0-based)."""
        gens = [tuple(p) for p in perms]
        elems = list(bfs(lambda a: (tuple(p[x] for x in a) for p in gens),
                         tuple(range(degree))))
        index = {q: i for i, q in enumerate(elems)}
        mul = [[index[tuple(a[x] for x in b)] for b in elems] for a in elems]
        return cls(mul)

    @classmethod
    def from_elements(cls, elements, op, identity, labels):
        """Table for an explicitly listed closed set of abstract elements,
        each labelled by the dict `labels`.

        Returns (table, index_map). `elements` need not start with the
        identity; indices are remapped so it sits at 0.
        """
        elems = [identity] + [e for e in elements if e != identity]
        index = {e: i for i, e in enumerate(elems)}
        if len(index) != len(elems):
            raise VerificationFailure("duplicate elements in from_elements")
        mul = []
        for a in elems:
            row = []
            for b in elems:
                c = op(a, b)
                if c not in index:
                    raise VerificationFailure("element set not closed under the operation")
                row.append(index[c])
            mul.append(row)
        return cls(mul, [labels[e] for e in elems]), index

    # -- basic structure ------------------------------------------------

    def verify(self):
        n = self.order
        for row in self.mul:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise VerificationFailure("table not closed")
        for x in range(n):
            if self.mul[0][x] != x or self.mul[x][0] != x:
                raise VerificationFailure("index 0 is not an identity")
            if self.mul[x][self.inv[x]] != 0:
                raise VerificationFailure("inverse table broken")
        for a, b, c in itertools.product(range(n), repeat=3):
            if self.mul[self.mul[a][b]][c] != self.mul[a][self.mul[b][c]]:
                raise VerificationFailure(f"not associative at ({a},{b},{c})")
        return True

    def element_order(self, x):
        k, acc = 1, x
        while acc != 0:
            acc = self.mul[acc][x]
            k += 1
        return k

    def closure(self, seed):
        """Subgroup generated by the given element indices, as a frozenset."""
        gens = set(seed) | {self.inv[x] for x in seed}
        return frozenset(bfs(lambda a: (self.mul[a][g] for g in gens), 0))

    def subgroups(self, cap=256):
        """All subgroups, as frozensets of element indices.

        Incremental closure: extend each known subgroup by one outside
        element and close. Every subgroup is reachable this way because a
        maximal chain of subgroups refines any generation order.
        """
        if self.order > cap:
            raise CapExceeded(f"group order {self.order} exceeds subgroup cap {cap}", self.order)
        found = {frozenset({0})}
        frontier = [frozenset({0})]
        while frontier:
            h = frontier.pop()
            for x in range(1, self.order):
                if x in h:
                    continue
                bigger = self.closure(h | {x})
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def minimal_generators(self):
        """A small generating set (greedy; exact for cyclic groups)."""
        for x in range(1, self.order):
            if len(self.closure({x})) == self.order:
                return (x,)
        gens = []
        span = frozenset({0})
        for x in range(1, self.order):
            if x not in span:
                gens.append(x)
                span = self.closure(gens)
                if len(span) == self.order:
                    break
        return tuple(gens)

    def is_cyclic(self):
        return len(self.minimal_generators()) <= 1

    # -- plumbing -------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FiniteGroupTable) and self.mul == other.mul

    def __hash__(self):
        return hash(self.mul)

    def __repr__(self):
        return f"FiniteGroupTable(order={self.order})"

    def to_json(self):
        return {"order": self.order, "mul": [list(r) for r in self.mul], "labels": list(self.labels)}

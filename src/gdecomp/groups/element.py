"""Backend-tagged group elements and the element-level operations.

An element is immutable data (a nested tuple) plus a pointer to its
owning group, which supplies the arithmetic. Equality and hashing use
the canonical data only, so elements work as dict keys in balls and
coset tables.
"""

from __future__ import annotations

from ..errors import BackendMismatch, UnknownGenerator


class GroupElement:
    __slots__ = ("backend", "data", "group")

    def __init__(self, backend, data, group):
        self.backend = backend
        self.data = data
        self.group = group

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.backend == other.backend
            and self.data == other.data
        )

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return self.group.render(self)

    def key(self):
        """Deterministic sort/serialization key."""
        return self.group.key(self)


def multiply(a, b):
    if not isinstance(a, GroupElement) or not isinstance(b, GroupElement):
        raise BackendMismatch("multiply expects two GroupElements")
    if a.backend != b.backend or a.group is not b.group:
        raise BackendMismatch(
            f"cannot multiply across backends/groups ({a.backend} vs {b.backend})"
        )
    return a.group.op(a, b)


def inverse(a):
    return a.group.inv(a)


def gen_symbols(group):
    """Symmetric closure as (label, element) pairs; inverses labeled X'.

    Shared as the `gen_symbols` method of the matrix and graph-of-groups
    backends."""
    out = []
    seen = set()
    for name, g in group.generators.items():
        if g.data not in seen:
            out.append((name, g))
            seen.add(g.data)
    for name, g in list(group.generators.items()):
        gi = group.inv(g)
        if gi.data not in seen:
            out.append((name + "'", gi))
            seen.add(gi.data)
    return out


def element_order(g, cap):
    """Smallest k <= cap with g^k = 1, else None ("exceeds cap")."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    ident = g.group.identity
    acc = g
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = g.group.op(acc, g)
    return None


def normal_form(group, word):
    """Evaluate a generator-symbol sequence to a canonical element.

    Symbols are generator names, optionally suffixed with ' for the
    inverse (e.g. "S'" or "S^-1").
    """
    acc = group.identity
    gens = group.generators
    for sym in word:
        invert = False
        name = sym
        if name.endswith("^-1"):
            name, invert = name[:-3], True
        elif name.endswith("'") or name.endswith("-"):
            name, invert = name[:-1], True
        if name not in gens:
            raise UnknownGenerator(f"unknown generator symbol {sym!r}")
        g = gens[name]
        if invert:
            g = group.inv(g)
        acc = group.op(acc, g)
    return acc

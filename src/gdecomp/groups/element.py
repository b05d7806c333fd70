"""Group elements and the element-level operations.

An element is immutable data (a nested tuple of a matrix, or a normal
form packed into a str) plus a pointer to its owning group, which
supplies the arithmetic. Equality and hashing use the canonical data
only, so elements work as dict keys in balls and coset tables; a
matrix's data is a tuple and a normal form's a str, so elements of the
two backends are never equal.

Words share one vocabulary across the layers (conventions as in
Lyndon-Schupp, Combinatorial Group Theory, ch. I): a word is a tuple of
letters (generator name, +1 or -1). As text, the letters of a generator
X are X and, for its inverse, X' or X^-1; `render_word` writes X'.
"""

from __future__ import annotations

from ..errors import BackendMismatch, UnknownGenerator


class GroupElement:
    __slots__ = ("data", "group")

    def __init__(self, data, group):
        self.data = data
        self.group = group

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.data == other.data

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
    if a.group is not b.group:
        raise BackendMismatch(f"cannot multiply across groups "
                              f"({a.group.name} vs {b.group.name})")
    return a.group.op(a, b)


def inverse(a):
    return a.group.inv(a)


def gen_symbols(group):
    """Symmetric closure as (label, element) pairs; inverses labeled X'.
    Each element gets one label, so no two labels name one neighbour.

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
            out.append((render_letter((name, -1)), gi))
            seen.add(gi.data)
    return out


def parse_word(symbols):
    """The word of a sequence of symbols, each X, X' or X^-1."""
    word = []
    for s in symbols:
        if s.endswith("^-1"):
            word.append((s[:-3], -1))
        elif s.endswith("'"):
            word.append((s[:-1], -1))
        else:
            word.append((s, 1))
    return tuple(word)


def invert_word(word):
    return tuple((s, -e) for s, e in reversed(word))


def free_reduce(word):
    out = []
    for s, e in word:
        if out and out[-1][0] == s and out[-1][1] == -e:
            out.pop()
        else:
            out.append((s, e))
    return tuple(out)


def render_letter(letter):
    name, e = letter
    return name if e > 0 else name + "'"


def render_word(word):
    if not word:
        return "1"
    return "*".join(map(render_letter, word))


def evaluate(group, word):
    """The product of a word over `group.generators`."""
    gens = group.generators
    acc = group.identity
    for name, e in word:
        if name not in gens:
            raise UnknownGenerator(f"unknown generator symbol {name!r}")
        acc = group.op(acc, gens[name] if e > 0 else group.inv(gens[name]))
    return acc


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


def normal_form(group, symbols):
    """The element of a sequence of generator symbols (`parse_word`)."""
    return evaluate(group, parse_word(symbols))

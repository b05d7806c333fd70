"""Integer matrix groups with exact (arbitrary-precision) arithmetic.

Matrices are nested tuples of Python ints, so products never overflow
and elements hash/compare structurally. An optional modulus turns the
same machinery into a finite congruence quotient.

Right multiplication by a fixed g, the product a Cayley ball forms for
each of its edges, is compiled once per g into straight-line code over
x's entries: entry (i, j) of x * g is the sum of x[i][k] * g[k][j] over
g's nonzero entries in column j, so no zero term is multiplied and no
loop runs. The code maps element data to data, x's nested tuple to the
product's, and makes no element: a Cayley ball looks each product up by
its data and makes an element only of a new vertex. The source text is
built from generated names, indices and the ints of g and the modulus,
each passed through `operator.index`: the spec loader accepts only JSON
integers as matrix entries and `MatrixGroup` applies `int()` to each, so
no text from a spec reaches `exec`.
"""

from __future__ import annotations

from operator import index, mul

from ..errors import SpecFormatError, VerificationFailure
from .element import GroupElement, gen_symbols


def mat_mul(a, b, modulus=None):
    cols = tuple(zip(*b))
    if modulus is None:
        return tuple([tuple([sum(map(mul, row, col)) for col in cols])
                      for row in a])
    return tuple([tuple([sum(map(mul, row, col)) % modulus for col in cols])
                  for row in a])


def mat_det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    det = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in a[1:])
        det += (-1) ** j * a[0][j] * mat_det(minor)
    return det


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_inv(a, modulus=None):
    """Inverse via the adjugate; requires det a unit (±1 over Z)."""
    n = len(a)
    det = mat_det(a)
    if modulus is not None:
        det %= modulus
        det_inv = pow(det, -1, modulus)
    else:
        if det not in (1, -1):
            raise VerificationFailure(f"matrix with det {det} is not invertible over Z")
        det_inv = det  # 1/±1 == ±1
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                tuple(a[r][c] for c in range(n) if c != i) for r in range(n) if r != j
            )
            cof = (-1) ** (i + j) * (mat_det(minor) if n > 1 else 1)
            row.append(cof * det_inv % modulus if modulus is not None else cof * det_inv)
        adj.append(tuple(row))
    return tuple(adj)


def mat_reduce(a, modulus):
    return tuple(tuple(x % modulus for x in row) for row in a)


def _compile_right_product(g, modulus):
    """The straight-line function x -> x * g on matrix data, for the
    matrix g: x's nested tuple is unpacked into names, and each entry of
    the product's nested tuple is the sum of its nonzero terms, a
    coefficient 1 written as the bare name and an all-zero column as 0,
    reduced mod `modulus` if there is one. Its namespace is empty: the
    code reads only its argument."""
    names = [[f"x{i}_{k}" for k in range(len(g))] for i in range(len(g))]

    def entry(row, col):
        terms = " + ".join(v if c == 1 else f"{v}*{index(c)}"
                           for v, c in zip(row, col) if c)
        if not terms:
            return "0"
        return terms if modulus is None else f"({terms}) % {index(modulus)}"

    cols = tuple(zip(*g))
    unpack = "".join(f"({''.join(v + ', ' for v in row)}), " for row in names)
    product = "".join(f"({''.join(entry(row, c) + ', ' for c in cols)}), "
                      for row in names)
    namespace = {}
    exec(f"def times(x):\n    {unpack}= x\n    return ({product})\n",
         namespace)
    return namespace["times"]


class MatrixGroup:
    """Group generated by named integer matrices (optionally mod m)."""

    def __init__(
        self,
        name,
        dimension,
        generators,
        modulus=None,
        special_linear=False,
        presentation=None,
        torsion_words=None,
    ):
        self.name = name
        self.dimension = dimension
        self.modulus = modulus
        self.presentation = presentation
        self.torsion_words = torsion_words or []
        self.generators = {}
        for gname, mat in generators.items():
            m = tuple(tuple(int(x) for x in row) for row in mat)
            if len(m) != dimension or any(len(r) != dimension for r in m):
                raise SpecFormatError(f"generator {gname} is not {dimension}x{dimension}")
            if special_linear and modulus is None and mat_det(m) != 1:
                raise VerificationFailure(f"generator {gname} has det {mat_det(m)} != 1")
            if modulus is not None:
                m = mat_reduce(m, modulus)
            self.generators[gname] = GroupElement(m, self)
        self.identity = GroupElement(mat_identity(dimension), self)
        # the compiled right multiplier per matrix (see `right_multiplier`)
        self._right_products = {}

    def op(self, a, b):
        return GroupElement(mat_mul(a.data, b.data, self.modulus), self)

    def right_multiplier(self, g):
        """The map x -> x * g on element data, compiled on the first call
        for g and kept in a memo on the group (see the module docstring)."""
        times = self._right_products.get(g.data)
        if times is None:
            times = self._right_products[g.data] = _compile_right_product(
                g.data, self.modulus)
        return times

    def inv(self, a):
        return GroupElement(mat_inv(a.data, self.modulus), self)

    def key(self, g):
        return repr([list(r) for r in g.data])

    def render(self, g):
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in g.data) + "]"

    gen_symbols = gen_symbols

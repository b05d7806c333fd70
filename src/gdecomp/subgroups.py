"""Finite quotients and certified torsion-free / free subgroups of them.

The pipeline: extract a presentation, find a homomorphism onto a finite
group that is injective on every finite vertex subgroup (systematic
coset-table search, or congruence reduction for matrix groups), take
the kernel, and attempt a freeness certificate by Schreier rewriting
plus Tietze elimination. A graph of finite groups is presented by its
vertex tables, whatever their shape: one rule gives every vertex group
its symbols, relators and maximal cyclic subgroup words. The hom's one
enumeration of its image group is the kernel's prefix-closed Schreier
transversal and coset table, stored as a `CayleyBall` stores its
table: int rows indexed by step, with a Schreier vector beside them
(Sims, *Computation with Finitely Presented Groups*, 1994, ch. 5).
Since kernels are normal, torsion-freeness reduces to "no nontrivial
torsion representative maps to the identity": no conjugate is checked,
and `conjugates_per_representative` records the index, the number of
conjugates that normality covers.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .decomp import TORSION_ORDER_CAP
from .errors import CapExceeded, SpecFormatError, VerificationFailure
from .groups import (GraphOfGroupsGroup, MatrixGroup, element_order, evaluate,
                     free_reduce, invert_word, parse_word, render_word)
from .groups.matrix import mat_identity, mat_mul, mat_reduce

# the largest image group a finite quotient enumerates
QUOTIENT_CAP = 200_000
# the largest degree construct_finite_quotient searches for a coset action
DEGREE_CAP = 12
# the largest order of a subgroup word's image that a quotient computes
WORD_ORDER_CAP = 10_000


class Presentation:
    """Symbols, relators, and the finite-subgroup words used for
    injectivity and torsion checks: (word, order) pairs whose powers are
    every torsion word up to conjugacy. A hom is injective on a finite
    group exactly when it is on each of its maximal cyclic subgroups, as
    a nontrivial kernel holds an element of prime order.

    `elements` maps each symbol to the group element it stands for, and
    `generator_words` maps each name in the group's `generators` to a
    symbol word equal to it; together they carry words between the
    presentation and the group's generators (the truncated cover reads
    both). Both are empty for a presentation given without a group."""

    __slots__ = ("symbols", "relators", "subgroup_words", "elements",
                 "generator_words")

    def __init__(self, symbols, relators, subgroup_words, elements=(),
                 generator_words=()):
        self.symbols = list(symbols)
        self.relators = [free_reduce(r) for r in relators]
        # per finite subgroup: (generator word, order)
        self.subgroup_words = list(subgroup_words)
        self.elements = dict(elements)
        self.generator_words = dict(generator_words)

    @property
    def torsion_words(self):
        """The nontrivial powers w^k, 1 <= k < n, of each subgroup word w
        of order n."""
        return [free_reduce(w * k) for w, n in self.subgroup_words
                for k in range(1, n)]


def presentation_from_group(group):
    if isinstance(group, MatrixGroup):
        if not group.presentation:
            raise SpecFormatError(f"{group.name}: no presentation in the spec")
        relators = [parse_word(r) for r in group.presentation["relators"]]
        symbols = list(group.generators)
        subs = []
        for wsyms in group.torsion_words or []:
            w = parse_word(wsyms)
            order = element_order(evaluate(group, w), TORSION_ORDER_CAP)
            if order is None:
                raise VerificationFailure(f"word {render_word(w)} is not torsion")
            subs.append((w, order))
        return Presentation(symbols, relators, subs, group.generators,
                            {s: ((s, 1),) for s in symbols})
    if isinstance(group, GraphOfGroupsGroup):
        return _presentation_from_gog(group)
    raise SpecFormatError("unsupported group backend for presentations")


def _presentation_from_gog(group):
    """The presentation of the fundamental group of a graph of finite
    groups (Serre, *Trees*, §I.5.1): each vertex group by its table, one
    stable letter per non-tree edge, and the edge gluing relators.

    A nontrivial vertex table v gets the symbol x{v} for its first minimal
    generator and x{v}_{j} for the j-th further one, each standing for the
    based copy of that generator, and t{i} is the based loop over edge i.
    Each vertex element g gets its BFS word w_g over the vertex's symbols,
    and the relators w_g·x·w_{g·x}⁻¹, freely reduced and without
    duplicates, present the table: they make every word equal to the BFS
    word of its value. They are formed for the edges (g, x) off the BFS
    tree; on it w_{g·x} = w_g·x, and the relator is empty. A cyclic table
    of order n gives x{v} and the single relator x{v}^n. Every torsion
    element is conjugate into a vertex group and lies in a maximal cyclic
    subgroup of it, so the subgroup words are w_x for the least generator
    x of each maximal cyclic subgroup. The edge relators and each
    generator's symbol word read w: a normal form's vertex item (v, g) is
    w_g, a traversal of a non-tree edge its stable letter, and a tree edge
    is trivial in the fundamental group."""
    gog = group.gog
    symbols, relators, subs, elements, vwords = [], [], [], {}, []
    for v, table in enumerate(gog.vertices):
        gens = [(f"x{v}_{j}" if j else f"x{v}", x)
                for j, x in enumerate(table.minimal_generators())]
        words, found, rels = [()] + [None] * (table.order - 1), [0], {}
        for g in found:  # BFS from the identity; found grows as it runs
            for sym, x in gens:
                h = table.mul[g][x]
                if words[h] is None:
                    words[h] = words[g] + ((sym, 1),)
                    found.append(h)
                else:  # a dict drops repeated relators and keeps order
                    rels[free_reduce(words[g] + ((sym, 1),)
                                     + invert_word(words[h]))] = None
        vwords.append(words)
        relators += rels
        for sym, x in gens:
            symbols.append(sym)
            elements[sym] = group.based_vertex_element(v, x)
        cyclic = {}
        for x in range(1, table.order):
            # an x inside a listed subgroup generates no larger one
            if not any(x in c for c in cyclic):
                cyclic[table.closure({x})] = x
        subs += [(words[x], len(c)) for c, x in cyclic.items()
                 if not any(c < d for d in cyclic)]
    stable = {}
    for i, e in enumerate(gog.edges):
        if not e.tree:
            stable[i] = f"t{i}"
            symbols.append(stable[i])
            elements[stable[i]] = group.stable_letter(i)
        for c in range(e.table.order):
            wu, wv = vwords[e.u][e.into_u[c]], vwords[e.v][e.into_v[c]]
            if i in stable:
                wu = ((stable[i], -1),) + wu + ((stable[i], 1),)
            rel = free_reduce(wu + invert_word(wv))
            if rel:
                relators.append(rel)
    generator_words = {}
    for name, g in group.generators.items():
        word = ()
        for kind, x, y in group.items(g.data):
            if kind == "v":
                word += vwords[x][y]
            elif x in stable:
                word += ((stable[x], y),)
        generator_words[name] = free_reduce(word)
    return Presentation(symbols, relators, subs, elements, generator_words)


# ---------------------------------------------------------------------------
# finite quotients

class FiniteQuotientHom:
    """Generator images in a concrete finite group (permutations of a
    coset action, or matrices mod m), with the image group enumerated.

    The steps are each symbol and then its inverse, `steps[k]` = (sym, ±1)
    with step k ^ 1 the inverse of step k, as the generators of a
    `CayleyBall`. One BFS from the identity, trying the steps in order,
    gives `elements` in BFS order, `words`, the kernel's prefix-closed
    Schreier transversal, and `table`, its coset table in the ball's row
    layout: table[i][k] is the index of elements[i] times step k's image.
    `last[j]`, the Schreier vector, is the step that first reached
    elements[j] (the last letter of words[j]), -1 at the identity.

    Each edge's product is formed once: when elements[i] times step k is
    elements[j], the reverse entry table[j][k ^ 1] = i is filled from it,
    and row j skips that product. A filled entry leads to an element
    already found, so the BFS order and words are those of forming every
    product, and the enumeration forms |symbols| * order products.
    """

    __slots__ = ("kind", "symbols", "images", "inverses", "op", "identity",
                 "order", "steps", "elements", "words", "last", "table",
                 "detail")

    def __init__(self, kind, symbols, images, op, identity, detail=None):
        self.kind = kind
        self.symbols = list(symbols)
        self.images = dict(images)
        self.op = op
        self.identity = identity
        self.detail = detail or {}
        self.inverses = {s: _generic_inverse(g, op, identity)
                         for s, g in self.images.items()}
        steps = self.steps = [(s, e) for s in self.symbols for e in (1, -1)]
        imgs = [self.images[s] if e > 0 else self.inverses[s]
                for s, e in steps]
        blank = [-1] * len(steps)
        elems, words, last, table = [identity], [()], [-1], [blank[:]]
        index = {identity: 0}
        for x in elems:
            # index's own int, so a reverse entry adds no int object
            i = index[x]
            row = table[i]
            for k, img in enumerate(imgs):
                if row[k] >= 0:
                    continue
                y = op(x, img)
                j = index.get(y)
                if j is None:
                    if len(elems) >= QUOTIENT_CAP:
                        raise CapExceeded("finite quotient exceeded "
                                          f"QUOTIENT_CAP {QUOTIENT_CAP} "
                                          "elements", reached=QUOTIENT_CAP)
                    j = index[y] = len(elems)
                    elems.append(y)
                    words.append(words[i] + (steps[k],))
                    last.append(k)
                    table.append(blank[:])
                row[k] = j
                table[j][k ^ 1] = i
        self.elements, self.words, self.last, self.table = \
            elems, words, last, table
        self.order = len(elems)

    def image_of_word(self, word):
        acc = self.identity
        for s, e in word:
            acc = self.op(acc, self.images[s] if e > 0 else self.inverses[s])
        return acc

    def word_order(self, word):
        g = self.image_of_word(word)
        acc, k = g, 1
        while acc != self.identity:
            acc = self.op(acc, g)
            k += 1
            if k > WORD_ORDER_CAP:
                raise CapExceeded("order cap in quotient",
                                  reached=WORD_ORDER_CAP)
        return k

    def check_relators(self, pres):
        return [r for r in pres.relators
                if self.image_of_word(r) != self.identity]

    def injective_on_subgroups(self, pres):
        return all(self.word_order(w) == n for w, n in pres.subgroup_words)


def _generic_inverse(g, op, identity):
    acc, prev = g, identity
    while acc != identity:
        prev = acc
        acc = op(acc, g)
    return prev


def _perm_op(a, b):
    return tuple(map(b.__getitem__, a))


# an undefined entry in a frontier node's bytes; a defined one is a coset of
# a table of degree below max_degree <= 256, so it is at most 254
_UNDEFINED = 255


def low_index_action(pres, max_degree=DEGREE_CAP):
    """Smallest-degree transitive action satisfying the relators and
    injective on the finite subgroups; deterministic first solution.

    A Sims-style search over coset tables (Sims, *Computation with
    Finitely Presented Groups*, 1994, ch. 5). Column i of the table is a
    symbol or its inverse, and entry table[c][i] is the coset that c goes
    to under it. The relators are indexed once, by column, as the cyclic
    rotations that start with that column, each with its list of inverse
    columns. A definition table[c][i] = d goes on a deduction queue;
    draining the queue scans only the rotations that start with i from c
    and those that start with i's inverse from d, and fills every entry
    such a scan forces. Every definition is recorded on a trail, which a
    backtrack pops to its mark. A table that another base coset renumbers
    smaller is pruned (`_least_numbering`): renumbering from coset b gives
    the table of b's stabilizer, a conjugate subgroup, so as in Sims's
    algorithm only the least table of conjugate subgroups is searched. The
    first action found is the same.

    Each degree is searched once. The search to degree d + 1 is the one
    to degree d with one more branch at each node that holds d cosets and
    has an undefined entry: a new coset there, tried after the node's
    existing-coset subtrees. Deduction and the prune do not depend on the
    degree, and the degree-d search finds no action. So degree d + 1
    takes those branches alone, in the order in which degree d finished
    their nodes (post-order): `_search` records each node when its
    candidate loop ends, on a frontier list, and degree d + 1 takes the
    new-coset step from each in turn and searches on from there. Every
    table searched at degree d has d rows, and none is searched twice.
    A frontier node is its table's entries as one `bytes`, an undefined
    one as _UNDEFINED. So the frontier that degree d leaves holds at most
    one node per table it searched that is not a leaf, d * 2|symbols|
    bytes each; it is all that passes from one degree to the next, it is
    given back as the next degree consumes it, and none is kept at
    `max_degree`.
    """
    if max_degree > _UNDEFINED + 1:
        raise ValueError(f"max_degree must be at most {_UNDEFINED + 1}")
    syms = pres.symbols
    cols = [(s, 1) for s in syms] + [(s, -1) for s in syms]
    ncols = len(cols)
    col_of = {c: i for i, c in enumerate(cols)}
    inv = [col_of[(s, -e)] for s, e in cols]
    rotations = [[] for _ in cols]
    seen = set()
    for rel in pres.relators:
        word = [col_of[x] for x in rel]
        for t in range(len(word)):
            rot = tuple(word[t:] + word[:t])
            if rot not in seen:
                seen.add(rot)
                rotations[rot[0]].append((rot, tuple(inv[k] for k in rot)))
    frontier = None
    for degree in range(1, max_degree + 1):
        nodes, frontier = frontier, [] if degree < max_degree else None
        if nodes is None:
            result = _search([[None] * ncols], [], inv, rotations, col_of,
                             pres, frontier, 0)
        else:
            result = None
            # popped from the end, so the frontier's memory is given back
            # as this degree's own grows
            nodes.reverse()
            while nodes and result is None:
                snap = nodes.pop()
                flat = [None if x == _UNDEFINED else x for x in snap]
                table = [flat[k:k + ncols] for k in range(0, len(flat), ncols)]
                table.append([None] * ncols)
                slot = snap.index(_UNDEFINED)
                trail = []
                if _deduce(table, trail, inv, rotations, *divmod(slot, ncols),
                           degree - 1) and _least_numbering(table):
                    result = _search(table, trail, inv, rotations, col_of,
                                     pres, frontier, slot + 1)
        if result is not None:
            perms = {}
            for s in syms:
                perms[s] = tuple(result[c][col_of[(s, 1)]]
                                 for c in range(len(result)))
            hom = FiniteQuotientHom(
                "coset-action", syms, perms, _perm_op,
                tuple(range(len(result))),
                detail={"degree": len(result)})
            return hom
    raise CapExceeded("no adequate action within the degree cap",
                      reached=max_degree)


def _search(table, trail, inv, rotations, col_of, pres, frontier, slot):
    """Fill the first undefined entry at or after `slot` (row-major) with
    each existing coset in turn and recurse; return the first complete
    table that satisfies the relators and is injective on the subgroups.
    Every entry before `slot` is defined.

    No coset is created here: `low_index_action` adds them, one degree at
    a time. When `frontier` is a list, each node is appended to it as one
    `bytes` of its entries when its candidate loop ends; its slot is its
    first undefined entry. A search that could add a coset would try that
    branch at that point, after every existing-coset subtree of the node,
    so the list holds the next degree's new-coset branches in the order
    in which that search reaches them: the post-order of their nodes. It
    holds at most one node per call that is not a leaf, n * len(inv)
    bytes each.

    The deductions cut only dead subtrees, so this finds the same first
    table as a search that fills every entry by choice and rescans every
    relator from every coset: every walk that a definition completes
    uses the new entry, so it starts some rotation from one of the entry's
    two ends; an entry a scan forces holds in every consistent completion,
    and it never creates a coset. The leaves, their coset numbering and
    their order are therefore unchanged.

    A leaf needs no relator check. Every entry of a complete table was
    defined in a `_deduce` call that drained its queue, which scanned the
    rotations that start with the entry from both of its ends. Take a
    relator's walk from any coset and the rotation that starts at the
    walk's entry defined last: its scan saw the whole walk, forward to
    the walk's end and backward to its start, and returned False unless
    those are one coset (the columns are injective). So every relator
    closes from every coset; `construct_finite_quotient` still checks
    the relators on the hom.

    After each successful deduction the table is renumbered from every
    other base coset, and the subtree is pruned when some renumbering is
    smaller at the first entry that is defined on both sides and differs
    (`_least_numbering`). That difference holds in every completion. The
    first solution is never pruned: the search reaches complete tables in
    lexicographic row-major order, since a choice fixes every earlier
    entry and the candidates ascend; and the first solution renumbered
    from any base coset is another standardized table, with the same
    relators closed and the same subgroup-word orders, hence a leaf of
    this search and no smaller.
    """
    ncols = len(inv)
    n = len(table)
    while slot < n * ncols and table[slot // ncols][slot % ncols] is not None:
        slot += 1
    if slot == n * ncols:
        return table if _injective(table, col_of, pres) else None
    c, i = divmod(slot, ncols)
    j = inv[i]
    for d in range(n):
        if table[d][j] is not None:
            continue
        mark = len(trail)
        if _deduce(table, trail, inv, rotations, c, i, d) \
                and _least_numbering(table):
            out = _search(table, trail, inv, rotations, col_of, pres,
                          frontier, slot + 1)
            if out is not None:
                return out
        while len(trail) > mark:
            x, k = trail.pop()
            table[table[x][k]][inv[k]] = None
            table[x][k] = None
    if frontier is not None:
        frontier.append(bytes([_UNDEFINED if x is None else x
                               for row in table for x in row]))
    return None


def _deduce(table, trail, inv, rotations, c, i, d):
    """Define table[c][i] = d and drain the deduction queue; False when a
    scan shows that no completion satisfies the relators.

    A scan walks a rotation forward from its coset and backward from the
    same coset, each to its first undefined entry. A complete walk must
    return to its start; walks that meet must meet at one coset; and when
    exactly one entry lies between them, the relator forces it.
    """
    table[c][i] = d
    table[d][inv[i]] = c
    trail.append((c, i))
    queue = [(c, i)]
    while queue:
        u, a = queue.pop()
        for x, k in ((u, a), (table[u][a], inv[a])):
            for word, back in rotations[k]:
                length = len(word)
                f, p = x, 0
                while p < length:
                    y = table[f][word[p]]
                    if y is None:
                        break
                    f, p = y, p + 1
                if p == length:
                    if f != x:
                        return False
                    continue
                b, q = x, length
                while q > p:
                    y = table[b][back[q - 1]]
                    if y is None:
                        break
                    b, q = y, q - 1
                if q == p:
                    # the backward walk stepped over the gap: word[p]
                    # already leads into its coset from one other than f
                    return False
                if q == p + 1:
                    g = word[p]
                    table[f][g] = b
                    table[b][inv[g]] = f
                    trail.append((f, g))
                    queue.append((f, g))
    return True


def _least_numbering(table):
    """True unless renumbering the partial table from some other base
    coset b makes it smaller at the first entry where the two differ.

    The walk renumbers b as 0 and each other coset by its first
    appearance in row-major order, next to the table itself, and stops at
    the first entry undefined on either side. A difference before that
    holds in every completion, as every earlier entry, and so the
    renumbering up to there, is already fixed."""
    n = len(table)
    head = table[0][0]
    for b in range(1, n):
        # the first entry renumbered: 0 when b is fixed there, else the
        # new coset 1; most bases already differ from the table here
        v = table[b][0]
        if v is None:
            continue
        x = 0 if v == b else 1
        if x != head:
            if x < head:
                return False
            continue
        new = [-1] * n
        new[b] = 0
        old = [b]
        # the defined entries connect every coset, so old keeps ahead of r
        for r, row in enumerate(table):
            for v, w in zip(table[old[r]], row):
                if v is None or w is None:
                    break
                x = new[v]
                if x < 0:
                    x = new[v] = len(old)
                    old.append(v)
                if x != w:
                    if x < w:
                        return False
                    break
            else:
                continue
            break
    return True


def _injective(table, col_of, pres):
    n = len(table)
    for word, order in pres.subgroup_words:
        perm = list(range(n))
        for s, e in word:
            perm = [table[x][col_of[(s, e)]] for x in perm]
        acc, k = perm, 1
        ident = list(range(n))
        while acc != ident:
            acc = [perm[x] for x in acc]
            k += 1
            if k > WORD_ORDER_CAP:
                return False
        if k != order:
            return False
    return True


def construct_finite_quotient(group, pres=None, modulus=None):
    """Hom to a finite group injective on the finite vertex subgroups.

    Matrix groups reduce mod the smallest adequate modulus; other groups
    get the smallest-degree adequate coset action, of degree at most
    DEGREE_CAP. `check_relators` verifies either hom."""
    if modulus is not None and not isinstance(group, MatrixGroup):
        raise ValueError("modulus needs a matrix group")
    pres = pres or presentation_from_group(group)
    if isinstance(group, MatrixGroup):
        if modulus is not None:
            # explicit modulus: build it even when inadequate (negative
            # controls); relators must still hold
            hom = congruence_hom(group, modulus)
            bad = hom.check_relators(pres)
            if bad:
                raise VerificationFailure(f"relators not satisfied mod "
                                          f"{modulus}: {bad}")
            return hom
        for m in range(2, 30):
            hom = congruence_hom(group, m)
            if not hom.check_relators(pres) and hom.injective_on_subgroups(pres):
                return hom
        raise CapExceeded("no adequate congruence modulus found", reached=29)
    hom = low_index_action(pres)
    bad = hom.check_relators(pres)
    if bad:
        raise VerificationFailure(f"relators not satisfied: {bad}")
    return hom


def congruence_hom(group, modulus):
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    images = {s: mat_reduce(g.data, modulus) for s, g in group.generators.items()}
    def op(a, b):
        return mat_mul(a, b, modulus)
    return FiniteQuotientHom("congruence", list(group.generators), images, op,
                             mat_identity(group.dimension),
                             detail={"modulus": modulus})


# ---------------------------------------------------------------------------
# kernel, transversal, Reidemeister-Schreier

class SubgroupCertificate:
    """A finite-index subgroup, given by the hom whose kernel it is, with
    its certificate. `transversal[c]` is coset c's transversal word, and
    `coset_table` is the hom's table: coset_table[c][k] is the coset of c
    times step k of `hom.steps`, in int rows laid out as a `CayleyBall`'s
    (step k ^ 1 is the inverse of step k)."""

    __slots__ = ("hom", "index", "transversal", "coset_table", "free_basis",
                 "rank", "torsion_free", "evidence")

    def __init__(self, hom, index, transversal, coset_table):
        self.hom = hom
        self.index = index
        self.transversal = transversal
        self.coset_table = coset_table
        self.free_basis = None
        self.rank = None
        self.torsion_free = None
        self.evidence = {}

    def to_json(self):
        return {
            "quotient_kind": self.hom.kind,
            "quotient_order": self.hom.order,
            "index": self.index,
            "transversal": [render_word(w) for w in self.transversal],
            "free_basis": None if self.free_basis is None
            else [render_word(w) for w in self.free_basis],
            "rank": self.rank,
            "torsion_free": self.torsion_free,
            "evidence": self.evidence,
        }


def kernel_subgroup(hom, pres):
    """Kernel of the hom with a prefix-closed Schreier transversal over
    the image group's regular action: the hom's own enumeration, whose
    rows are the coset table and whose `last` is the transversal's
    Schreier vector. `pres`, the presentation the hom was built for, is
    not read."""
    return SubgroupCertificate(hom, hom.order, hom.words, hom.table)


def reidemeister_schreier(cert, pres):
    """Schreier generators + rewritten relators; freeness via Tietze
    elimination when every rewritten relator dies.

    The Schreier generator of (coset c, symbol s) is t[c]·s·t[c·s]^-1,
    over the transversal t, the hom's BFS tree. It is trivial exactly
    when (c, s) is a tree edge: c·s was first reached by s from c, or c
    by s^-1 from c·s. The others are generators g = 1, 2, ... in (coset,
    symbol) order, letters g and -g for g^-1. Transversal words are
    reduced, and by the same rule neither junction of a free-basis word
    cancels, so it is reduced as formed. The inverse words t[d]^-1 come
    from the Schreier vector `last`, once each in index order (BFS
    order): t[d] is t[e] then step last[d], for e = table[d][last[d] ^ 1]
    found before d, so t[d]^-1 is step last[d] ^ 1 then t[e]^-1. Each
    step k has two columns: the coset table's column k, the coset each
    coset goes to, and the letter read there (0 for none); each relator
    is rewritten from every coset at once along them."""
    n, table, t = cert.index, cert.coset_table, cert.transversal
    steps = cert.hom.steps
    pairs = _schreier_pairs(cert)
    cols = list(zip(*table))
    letters = [[0] * n for _ in steps]
    for g, (c, k) in enumerate(pairs, 1):
        letters[k][c] = g
        letters[k ^ 1][table[c][k]] = -g
    step = {x: k for k, x in enumerate(steps)}
    rewrites = []
    # zip(*rewrites) would stop at an empty relator's empty list
    for rel in filter(None, pres.relators):
        cur, words = range(n), []
        for k in map(step.__getitem__, rel):
            words.append(list(map(letters[k].__getitem__, cur)))
            cur = list(map(cols[k].__getitem__, cur))
        if cur != list(range(n)):
            raise VerificationFailure("relator conjugate leaves the subgroup")
        rewrites.append([tuple(filter(None, w)) for w in zip(*words)])
    relators, eliminated = _tietze([w for ws in zip(*rewrites) for w in ws])
    cert.evidence["free"] = not relators
    if relators:
        cert.evidence["residual_relators"] = len(relators)
        return cert
    inv = [()]
    for d, k in enumerate(cert.hom.last[1:], 1):
        inv.append((steps[k ^ 1],) + inv[table[d][k ^ 1]])
    cert.free_basis = [t[c] + (steps[k],) + inv[table[c][k]]
                       for g, (c, k) in enumerate(pairs, 1)
                       if g not in eliminated]
    cert.rank = len(cert.free_basis)
    cert.evidence["schreier_generators"] = len(pairs)
    cert.evidence["eliminated"] = len(eliminated)
    return cert


def _schreier_pairs(cert):
    """The (coset, step) pairs, over each symbol's step, whose Schreier
    generator is nontrivial, in (coset, symbol) order: those that are not
    edges of the transversal tree, read off the Schreier vector."""
    last = cert.hom.last
    return [(c, k) for c, row in enumerate(cert.coset_table)
            for k in range(0, len(row), 2)
            if last[row[k]] != k and last[c] != k ^ 1]


def _tietze(relators):
    """Eliminate generators occurring exactly once in some relator.

    Letters are nonzero ints, g and -g for g^-1. Each step solves the
    first relator, in list order, with a generator occurring once for the
    least such g (a rotation of it is g^e·v·u, so g^e = (v·u)^-1), drops
    the other relators that are rotations p·g^e·q of it (q·p = v·u, so the
    solution makes them p·(q·p)^-1·q, freely trivial) and substitutes
    into the rest, dropping those that reduce to the empty word. That is
    the order of rewriting and rescanning every relator after each step:
    relators keep their list positions, an index from each generator to
    its relators limits the substitutions, and a heap of positions, seeded
    with all of them, gives the next step. A relator is tested when
    popped: it gains a single generator only through a substitution,
    which pushes it. Returns the surviving relators in list order, and
    {g: replacement} in elimination order.
    """
    rels = dict(enumerate(r for r in map(_reduce, relators) if r))
    holders = {}
    for i, r in rels.items():
        for x in r:
            holders.setdefault(abs(x), set()).add(i)
    queue, eliminated = list(rels), {}
    while queue:
        idx = heapq.heappop(queue)
        rel, counts = rels.get(idx), {}
        if rel is None:
            continue
        for h in rel:
            counts[abs(h)] = counts.get(abs(h), 0) + 1
        g = min((h for h, k in counts.items() if k == 1), default=None)
        if g is None:
            continue
        x = g if g in rel else -g
        pos = rel.index(x)
        rot = rel[pos:] + rel[:pos]
        vu = _reduce(rot[1:])
        repl = {x: tuple(-y for y in reversed(vu)), -x: vu}
        eliminated[g] = repl[g]
        del rels[idx]
        for h in rel:
            holders[abs(h)].discard(idx)
        for j in holders.pop(g):
            old = rels.pop(j)
            for h in old:
                if abs(h) != g:
                    holders[abs(h)].discard(j)
            if x in old and old[(p := old.index(x)):] + old[:p] == rot:
                continue
            new = _reduce([y for h in old for y in repl.get(h, (h,))])
            if new:
                rels[j] = new
                for h in new:
                    holders[abs(h)].add(j)
                heapq.heappush(queue, j)
    return [rels[i] for i in sorted(rels)], eliminated


def _reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def verify_torsion_free(cert, pres):
    """No nontrivial torsion representative maps into the kernel. Kernels
    are normal, so this covers the conjugates by the index transversal
    words, which are not formed; the index is recorded as
    `conjugates_per_representative`."""
    torsion = pres.torsion_words
    witnesses = [render_word(w) for w in torsion
                 if cert.hom.image_of_word(w) == cert.hom.identity]
    cert.torsion_free = not witnesses
    cert.evidence["torsion_checked"] = len(torsion)
    cert.evidence["conjugates_per_representative"] = cert.index
    cert.evidence["witnesses"] = witnesses
    return cert.torsion_free, witnesses


# ---------------------------------------------------------------------------
# bounds and rank arithmetic

def index_lower_bound(B, k_max):
    if B < 1 or k_max < 1:
        raise ValueError("need B, k_max >= 1")
    return -(-B // k_max)


def index_upper_bound(B, n):
    if B < 1 or n < 1:
        raise ValueError("need B, n >= 1")
    return math.factorial(B) ** n


def expected_free_rank(gog, index):
    """rank = 1 + index * (-chi), exact; errors if not an integer."""
    chi = gog.euler_characteristic()
    rank = 1 + Fraction(index) * (-chi)
    if rank.denominator != 1:
        raise VerificationFailure(f"index {index} incompatible with chi {chi}")
    return int(rank)

"""Reference Reidemeister-Schreier rewriting on (generator, ±1) letters,
for checking the rewriting on signed-integer letters in gdecomp.subgroups.

It numbers the Schreier generators that reduce to a nonempty word,
rewrites each relator from each coset one letter at a time through a
(coset, symbol) -> generator dict, eliminates with the full-rescan Tietze
loop (tietze_oracle.py), and forms each free-basis word by free reduction.
"""

from __future__ import annotations

from tietze_oracle import tietze

from gdecomp.errors import VerificationFailure
from gdecomp.groups import free_reduce, invert_word


def reidemeister_schreier(cert, pres):
    """Fill cert's free_basis, rank and evidence as
    gdecomp.subgroups.reidemeister_schreier does."""
    n = cert.index
    pairs = schreier_pairs(cert, pres.symbols)
    gen_id = {pair: g for g, pair in enumerate(pairs)}

    def rewrite(start, word):
        out, c = [], start
        for s, e in word:
            if e > 0:
                g = gen_id.get((c, s))
                if g is not None:
                    out.append((g, 1))
                c = cert.coset_table[c][(s, 1)]
            else:
                c = cert.coset_table[c][(s, -1)]
                g = gen_id.get((c, s))
                if g is not None:
                    out.append((g, -1))
        if c != start:
            raise VerificationFailure("relator conjugate leaves the subgroup")
        return tuple(out)

    relators = [rewrite(c, rel) for c in range(n) for rel in pres.relators]
    relators, eliminated = tietze(relators)
    if not relators:
        t, table = cert.transversal, cert.coset_table
        cert.free_basis = [
            free_reduce(t[c] + ((s, 1),) + invert_word(t[table[c][(s, 1)]]))
            for g, (c, s) in enumerate(pairs) if g not in eliminated]
        cert.rank = len(cert.free_basis)
        cert.evidence["schreier_generators"] = len(pairs)
        cert.evidence["eliminated"] = len(eliminated)
        cert.evidence["free"] = True
    else:
        cert.evidence["free"] = False
        cert.evidence["residual_relators"] = len(relators)
    return cert


def schreier_pairs(cert, symbols):
    """The (coset, symbol) pairs whose Schreier generator reduces to a
    nonempty word, in (coset, symbol) order."""
    t, table = cert.transversal, cert.coset_table
    return [(c, s) for c in range(cert.index) for s in symbols
            if free_reduce(t[c] + ((s, 1),) + invert_word(t[table[c][(s, 1)]]))]

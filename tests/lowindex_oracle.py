"""Reference low-index search, for checking the one by deduction.

After each definition this search rescans every relator from every coset
and fills no entry it could deduce: only the slot order and the candidate
order decide which action comes first.
"""

from __future__ import annotations

from gdecomp.errors import CapExceeded
from gdecomp.subgroups import FiniteQuotientHom, _injective, _perm_op


def low_index_action(pres, max_degree=12):
    """Smallest-degree transitive action satisfying the relators and
    injective on the finite subgroups; deterministic first solution."""
    syms = pres.symbols
    cols = [(s, 1) for s in syms] + [(s, -1) for s in syms]
    col_of = {c: i for i, c in enumerate(cols)}
    for degree in range(1, max_degree + 1):
        table = [[None] * len(cols)]
        result = _search(table, cols, col_of, pres, degree)
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


def _search(table, cols, col_of, pres, degree):
    # find first undefined slot
    slot = None
    for c in range(len(table)):
        for i in range(len(cols)):
            if table[c][i] is None:
                slot = (c, i)
                break
        if slot:
            break
    if slot is None:
        if len(table) != degree:
            return None
        if _relators_ok(table, col_of, pres, complete=True) \
                and _injective(table, col_of, pres):
            return table
        return None
    c, i = slot
    s, e = cols[i]
    j = col_of[(s, -e)]
    candidates = list(range(len(table)))
    if len(table) < degree:
        candidates.append(len(table))
    for d in candidates:
        created = d == len(table)
        if created:
            table.append([None] * len(cols))
        elif table[d][j] is not None:
            continue
        table[c][i] = d
        table[d][j] = c
        if _relators_ok(table, col_of, pres, complete=False):
            out = _search(table, cols, col_of, pres, degree)
            if out is not None:
                return out
        table[c][i] = None
        table[d][j] = None
        if created:
            table.pop()
    return None


def _relators_ok(table, col_of, pres, complete):
    for rel in pres.relators:
        for c in range(len(table)):
            cur, defined = c, True
            for s, e in rel:
                cur = table[cur][col_of[(s, e)]]
                if cur is None:
                    defined = False
                    break
            if defined and cur != c:
                return False
            if complete and not defined:
                return False
    return True

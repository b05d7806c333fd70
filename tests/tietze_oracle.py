"""Reference Tietze elimination, for checking the indexed one.

After each elimination this loop rewrites every relator and restarts its
scan from the first one: the relator list order and the generator order
alone decide which generator goes next.
"""

from __future__ import annotations

from gdecomp.subgroups import free_reduce, invert_word


def tietze(relators):
    """Eliminate generators occurring exactly once in some relator."""
    relators = [free_reduce(r) for r in relators if free_reduce(r)]
    eliminated = {}
    changed = True
    while changed and relators:
        changed = False
        for idx, rel in enumerate(relators):
            counts = {}
            for g, _ in rel:
                counts[g] = counts.get(g, 0) + 1
            single = [g for g, k in counts.items() if k == 1]
            if not single:
                continue
            g = min(single)
            pos = next(i for i, (h, _) in enumerate(rel) if h == g)
            _, e = rel[pos]
            # rel = u g^e v  =>  g^e = u^-1 v^-1
            u, v = rel[:pos], rel[pos + 1:]
            repl = free_reduce(invert_word(u) + invert_word(v))
            if e < 0:
                repl = invert_word(repl)
            eliminated[g] = repl
            new = []
            for j, r in enumerate(relators):
                if j == idx:
                    continue
                out = []
                for h, ee in r:
                    if h == g:
                        out.extend(repl if ee > 0 else invert_word(repl))
                    else:
                        out.append((h, ee))
                r2 = free_reduce(tuple(out))
                if r2:
                    new.append(r2)
            relators = new
            changed = True
            break
    return relators, eliminated

"""Reference searches of the decomposition layer, for checking the coset
reading in `gdecomp.decomp`.

Here subgroups are closed over all pairs of their members, every merge
pair is looked at again after each merge (its closure is kept by pair,
since it depends on the pair alone), every coset is formed from every
one of its vertices by group arithmetic, a bag's orbit is found by
trying a translation onto each orbit representative so far, conjugacy
is tested on every member of a subgroup, and a stabilizer is filtered
by translating the bag, and two bag pairs are compared by trying every
translation of one bag onto another. Bag adjacency is found from the
bags alone: per-vertex bag lists, pairs of bags sharing a vertex, and
the meeting test on the bags at both ends of every ball edge, singletons
included; the covering report tests every interior edge in `edge_pairs`
order for a bag holding both ends, two meeting bags or a recorded pair.
Their results must equal what `compute_global_decomposition` and
`compute_stabilizers` read off the cosets: the families, the bags,
`vertex_bags`, `adjacent_pairs`, `bag_orbit`, `orbit_rep_bag`,
`model_edges`, the covering report, the pair keys and the stabilizers.
"""

from __future__ import annotations

from itertools import combinations

from gdecomp.decomp import (_eccentricity, _subgroup_key, _translators,
                            translate_bag)
from gdecomp.groups import multiply


def closure_in_ball(ball, indices, size_cap=256):
    """Subgroup closure of ball vertices; None if it leaves the ball/cap."""
    have = set(indices)
    have.add(0)
    frontier = list(have)
    while frontier:
        nxt = []
        for i in frontier:
            for j in list(have):
                for a, b in ((i, j), (j, i)):
                    k = ball.mul(a, b)
                    if type(k) is not int:
                        return None
                    if k not in have:
                        have.add(k)
                        nxt.append(k)
                        if len(have) > size_cap:
                            return None
        frontier = nxt
    return frozenset(have)


def conjugate_in_ball(ball, idx_a, idx_b):
    """Some ball vertex c has c·a·c⁻¹ ∈ B for every member a of A."""
    if len(idx_a) != len(idx_b):
        return False
    for c in range(ball.vertex_count):
        ci = ball.inverse(c)
        if all(ball.mul(ball.mul(c, a), ci) in idx_b for a in idx_a):
            return True
    return False


def maximal_finite_subgroups(ball, r, order_cap=64, size_cap=256):
    cyclic = {}
    for i in range(1, ball.vertex_count):
        if ball.word_length[i] > r:
            continue
        idxs, p = [0], i
        while p != 0:
            if type(p) is not int or len(idxs) >= order_cap:
                break
            idxs.append(p)
            p = ball.mul(p, i)
        else:
            if _eccentricity(ball, idxs) <= r:
                cyclic[frozenset(idxs)] = True
    subs = sorted(cyclic, key=lambda s: _subgroup_key(ball, s))

    # merge the first mergeable pair, then rescan every pair from the start
    closures = {}
    changed = True
    while changed:
        changed = False
        for i in range(len(subs)):
            for j in range(i + 1, len(subs)):
                if subs[i] <= subs[j] or subs[j] <= subs[i]:
                    continue
                pair = (subs[i], subs[j])
                if pair not in closures:
                    closures[pair] = closure_in_ball(ball, subs[i] | subs[j],
                                                     size_cap)
                merged = closures[pair]
                if merged is not None and _eccentricity(ball, merged) <= r:
                    subs = [s for k, s in enumerate(subs) if k not in (i, j)]
                    subs.append(merged)
                    subs.sort(key=lambda s: _subgroup_key(ball, s))
                    changed = True
                    break
            if changed:
                break
    subs = [s for s in subs if not any(s < t for t in subs)]

    order = sorted(range(len(subs)),
                   key=lambda i: (_eccentricity(ball, subs[i]),
                                  _subgroup_key(ball, subs[i])))
    reps = []
    for i in order:
        if any(conjugate_in_ball(ball, subs[i], subs[j]) for j in reps):
            continue
        reps.append(i)
    return [sorted(subs[i], key=lambda v: ball.elements[v].key()) for i in reps]


def coset_bags(ball, families):
    """(bags, bag_family): every coset x·F formed by group arithmetic from
    every vertex x, kept when it lies wholly in the ball, then a singleton
    for each vertex no coset covers, sorted by size and keys."""
    family_of = {}
    for x in ball.elements:
        for fi, fam in enumerate(families):
            coset = [ball.locate(multiply(x, ball.elements[h])) for h in fam]
            if None not in coset:
                family_of.setdefault(frozenset(coset), fi)
    covered = set().union(*family_of)
    for v in range(ball.vertex_count):
        if v not in covered:
            family_of[frozenset([v])] = -1
    keys = [g.key() for g in ball.elements]
    bags = sorted(family_of, key=lambda b: (len(b), sorted(keys[v] for v in b)))
    return bags, [family_of[b] for b in bags]


def vertex_bags(ball, bags):
    """The indices of the bags holding each vertex, in index order."""
    out = [[] for _ in range(ball.vertex_count)]
    for i, b in enumerate(bags):
        for v in b:
            out[v].append(i)
    return out


def adjacent_pairs(ball, bags):
    """Bag pairs (i, j), i < j, that share a vertex, or that hold the two
    ends of a ball edge lying in no bag and joining no two meeting bags
    (a bag holding both ends meets itself)."""
    at = vertex_bags(ball, bags)
    pairs = set()
    for bs in at:
        pairs.update(combinations(bs, 2))
    for u, v in ball.edge_pairs():
        if all(not bags[a] & bags[b] for a in at[u] for b in at[v]):
            pairs.update((min(a, b), max(a, b)) for a in at[u] for b in at[v])
    return pairs


def covering_report(ball, interior_radius, bags, at, pairs):
    """H1 and H2 over the interior vertices, with `at` the bags at each
    vertex and `pairs` the adjacent bag pairs: an interior edge is covered
    when a bag holds both ends, a bag at one end meets one at the other,
    or a pair of them is adjacent; a vertex fails H2 when it has several
    bags and one of them does not hold it."""
    interior = [v for v in range(ball.vertex_count)
                if ball.word_length[v] <= interior_radius]
    inside = set(interior)
    uncovered = []
    for u, v in ball.edge_pairs():
        if u not in inside or v not in inside:
            continue
        if any(v in bags[b] for b in at[u]):
            continue
        if any(bags[a] & bags[b] for a in at[u] for b in at[v]):
            continue
        if any((min(a, b), max(a, b)) in pairs for a in at[u] for b in at[v]):
            continue
        uncovered.append((u, v))
    bad = [v for v in interior
           if len(at[v]) > 1 and not all(v in bags[b] for b in at[v])]
    return {"h1_pass": not uncovered, "h1_uncovered_edges": uncovered,
            "h2_pass": not bad, "h2_disconnected_vertices": bad}


def bags_equivalent(ball, b1, b2):
    """Some ball-expressible element maps b1 onto b2 exactly; returns it."""
    if len(b1) != len(b2):
        return None
    for gamma in _translators(ball, b1, b2):
        if translate_bag(ball, gamma, b1) == frozenset(b2):
            return gamma
    return None


def bag_orbits(ball, bags, boundary_flag):
    """(bag_orbit, orbit_rep_bag) by scanning the representatives so far."""
    bag_orbit = [None] * len(bags)
    orbit_rep_bag = []
    for i, b in enumerate(bags):
        if boundary_flag[i]:
            continue
        for o, rep in enumerate(orbit_rep_bag):
            if bags_equivalent(ball, bags[rep], b) is not None:
                bag_orbit[i] = o
                break
        else:
            bag_orbit[i] = len(orbit_rep_bag)
            orbit_rep_bag.append(i)
    return bag_orbit, orbit_rep_bag


def pairs_equivalent(ball, p1, p2):
    """A translation carrying the bag pair p1 onto p2, in either
    orientation, or None."""
    (a1, b1), (a2, b2) = p1, p2
    for x2, y2 in ((a2, b2), (b2, a2)):
        if len(a1) != len(x2) or len(b1) != len(y2):
            continue
        for gamma in _translators(ball, a1, x2):
            if translate_bag(ball, gamma, a1) == frozenset(x2) \
                    and translate_bag(ball, gamma, b1) == frozenset(y2):
                return gamma
    return None


def model_edges(ball, bags, bag_orbit, adjacent_pairs):
    """One representative bag pair per translation class of interior pairs."""
    interior_pairs = sorted(
        (i, j) for i, j in adjacent_pairs
        if bag_orbit[i] is not None and bag_orbit[j] is not None)
    edges = []
    for i, j in interior_pairs:
        pair = (bags[i], bags[j])
        for e in edges:
            ri, rj = e["rep_pair"]
            if pairs_equivalent(ball, (bags[ri], bags[rj]), pair) is not None:
                break
        else:
            edges.append({
                "u": min(bag_orbit[i], bag_orbit[j]),
                "v": max(bag_orbit[i], bag_orbit[j]),
                "rep_pair": (i, j),
                "adhesion": sorted(bags[i] & bags[j]),
                "adhesion_size": len(bags[i] & bags[j]),
            })
    edges.sort(key=lambda e: (e["u"], e["v"], e["adhesion_size"],
                              e["rep_pair"]))
    return edges


def bag_stabilizer(ball, bag):
    """Translations carrying the bag onto itself, as group elements."""
    bag = frozenset(bag)
    return [gamma for gamma in _translators(ball, bag, bag)
            if translate_bag(ball, gamma, bag) == bag]

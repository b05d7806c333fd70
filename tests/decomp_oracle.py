"""Reference searches of the decomposition layer, for checking the coset
reading in `gdecomp.decomp`.

Here subgroups are closed over all pairs of their members, every merge
pair is looked at again after each merge (its closure is kept by pair,
since it depends on the pair alone), a bag's orbit is found by trying a
translation onto each orbit representative so far, conjugacy is tested
on every member of a subgroup, and a stabilizer is filtered by
translating the bag. Their results must equal what
`compute_global_decomposition` and `compute_stabilizers` read off the
cosets: the families, `bag_orbit`, `orbit_rep_bag`, `model_edges` and
the stabilizers.
"""

from __future__ import annotations

from gdecomp.decomp import (_eccentricity, _pairs_equivalent, _subgroup_key,
                            _translators, translate_bag)


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
                    k = ball.product(a, b)
                    if k is None:
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
        if all(ball.product(c, a, ci) in idx_b for a in idx_a):
            return True
    return False


def maximal_finite_subgroups(ball, r, order_cap=64, size_cap=256):
    cyclic = {}
    for i in range(1, ball.vertex_count):
        if ball.word_length[i] > r:
            continue
        idxs, p = [0], i
        while p != 0:
            if p is None or len(idxs) >= order_cap:
                break
            idxs.append(p)
            p = ball.product(p, i)
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
            if _pairs_equivalent(ball, (bags[ri], bags[rj]), pair) is not None:
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

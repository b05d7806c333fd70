"""Canonical decomposition of a Cayley ball into bags with small adhesions.

`compute_global_decomposition` takes bags to be left cosets x·F of the
minimal-eccentricity representatives F of the conjugacy classes of
maximal finite subgroups visible in the ball, with singleton bags
elsewhere. On the virtually free examples this reproduces the
bags-are-cosets picture exactly, and it is manifestly equivariant under
left translation. A vertex in no coset lies in its singleton bag alone,
and that bag meets no other bag. So a singleton needs no per-bag work
beyond its vertex's key: its family is -1, it is a boundary bag when its
vertex's word length passes the interior radius, and a ball edge at it
joins bags with no test, since no bag at one end can meet a bag at the
other (`_joins_bags` is asked only about edges between two vertices in
cosets). A torsion-free group has only singleton bags.

The model graph is the quotient of the bag structure by left
translation, read off the cosets: x·F is the translate of F by x, and a
coset determines its subgroup, so a bag's orbit is its family (all
singletons form one orbit). Every γ with γ·min(A) ∈ B carries a coset
bag A onto B, so a bag's stabilizer x·F·x⁻¹ is its translators onto
itself. An edge orbit is read off the cosets too (`_pair_key`): the
translations carrying x·F onto F are the f·x⁻¹ with f ∈ F, so
(x·F, y·G) and (x′·F, y′·G) are translates exactly when the double
cosets F·x⁻¹y·G and F·x′⁻¹y′·G agree, as the edges at F in the
Bass–Serre tree are the double cosets F·g·G (Serre, *Trees*, §I.3–I.5).
Read in the ball's table, with group arithmetic where a product leaves
it, the key is exact for every pair. The scan for the first pair of
each class stops once it has as many classes as the identity reading
below finds, when that reading is exact: its classes are then exactly
those of the interior pairs, and stopping after the first pair of the
last class leaves the first pair of every class unchanged.

Discovery needs only the model graph of each doubling, and reads it at
the identity: each family F is its own bag there, and every interior bag
pair is a translate of a pair (F, B′) with B′ adjacent to F, so the
edge orbits are the keys of those pairs. The reading is exact when F and
every bag adjacent to it are interior; where they are not, discovery
builds the full decomposition instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations

from .cayley import build_ball
from .graphs import UnionFind
from .groups import FiniteGroupTable, GogEdge, GraphOfGroups, inverse, multiply

# the largest order of a cyclic subgroup that maximal_finite_subgroups keeps
CYCLIC_ORDER_CAP = 64
# the largest finite subgroup a closure in the ball grows to
CLOSURE_SIZE_CAP = 256
# the largest order a torsion element is checked for
TORSION_ORDER_CAP = 512


# ---------------------------------------------------------------------------
# maximal finite subgroup discovery

def _closure_in_ball(ball, gens, r):
    """The subgroup generated by the ball vertices `gens`, as a frozenset
    of vertices, or None.

    One BFS from the identity by right multiplication with `gens`. A
    finite set closed under right multiplication by g is closed under
    g⁻¹, so the search ends on the subgroup exactly when it is finite,
    of eccentricity <= r and of at most CLOSURE_SIZE_CAP elements.
    Otherwise it returns None at the first product outside the ball or
    longer than r, or before element CLOSURE_SIZE_CAP + 1: a subgroup
    with an element longer than r is not kept, so its closure need not
    be finished. Any generating set of the subgroup gives the same
    verdict, so callers pass one generator per cyclic subgroup.
    """
    have = {0}
    queue = [0]
    for x in queue:
        for g in gens:
            y = ball.mul(x, g)
            if type(y) is not int or ball.word_length[y] > r:
                return None
            if y not in have:
                if len(have) >= CLOSURE_SIZE_CAP:
                    return None
                have.add(y)
                queue.append(y)
    return frozenset(have)


def _eccentricity(ball, indices):
    return max(ball.word_length[i] for i in indices)


def _interior_radius(ball, families):
    # a bag is interior when its vertices keep a margin of one more than
    # the largest family eccentricity from the boundary
    return ball.radius - 1 - max((_eccentricity(ball, f) for f in families),
                                 default=0)


def _subgroup_key(ball, indices):
    return tuple(sorted(ball.elements[i].key() for i in indices))


def maximal_finite_subgroups(ball, r):
    """Maximal finite subgroups inside the ball with eccentricity <= r,
    one minimal-eccentricity representative per conjugacy class.

    Of the cyclic subgroups within distance r, sorted by key, the first
    pair whose closure is a subgroup in the ball with eccentricity <= r
    is replaced by it, and the scan restarts; each pair's verdict is
    computed once, by a closure over the pair's generators. The families
    depend on this order: a worklist merge can keep different ones.
    Walks stop at their first element longer than r, as its subgroup is
    dropped; conjugacy is tested on generators (`_conjugate_in_ball`).
    """
    gens = {}  # subgroup -> generators: (g,) for <g>, the pair's for a merge
    for i in ball.interior(r)[1:]:
        # powers of g through the ball; g is dropped once a power leaves
        # the ball or distance r, or its order would exceed CYCLIC_ORDER_CAP
        idxs, p = [0], i
        while p != 0:
            if type(p) is not int or ball.word_length[p] > r \
                    or len(idxs) >= CYCLIC_ORDER_CAP:
                break
            idxs.append(p)
            p = ball.mul(p, i)
        else:
            gens.setdefault(frozenset(idxs), (i,))
    key = cache(lambda s: _subgroup_key(ball, s))

    @cache
    def verdict(s, t):
        # the pair's merged subgroup, or None: decided once per pair
        if s <= t or t <= s:
            return None
        merged = _closure_in_ball(ball, gens[s] + gens[t], r)
        if merged is not None:
            gens.setdefault(merged, gens[s] + gens[t])
        return merged

    # merge the first mergeable pair in key order, then rescan from the start
    subs = sorted(gens, key=key)
    merged = True
    while merged:
        merged = None
        for i, j in combinations(range(len(subs)), 2):
            merged = verdict(subs[i], subs[j])
            if merged is not None:
                subs = [s for k, s in enumerate(subs) if k not in (i, j)]
                subs.append(merged)
                subs.sort(key=key)
                break
    subs = [s for s in subs if not any(s < t for t in subs)]

    # conjugacy classes, smallest-eccentricity representative first
    order = sorted(range(len(subs)),
                   key=lambda i: (_eccentricity(ball, subs[i]), key(subs[i])))
    reps = []
    for i in order:
        if any(_conjugate_in_ball(ball, subs[i], subs[j], gens[subs[i]])
               for j in reps):
            continue
        reps.append(i)
    return [sorted(subs[i], key=lambda v: ball.elements[v].key())
            for i in reps]


def _conjugate_in_ball(ball, idx_a, idx_b, gens_a):
    """Whether c·A·c⁻¹ = B for a ball vertex c, for finite subgroups A
    and B as vertex sets and generators `gens_a` of A. c·g·c⁻¹ ∈ B for
    each generator g puts c·A·c⁻¹ in the subgroup B; |A| = |B| then
    makes them equal."""
    if len(idx_a) != len(idx_b):
        return False
    for c in range(ball.vertex_count):
        ci = ball.inverse(c)
        if all(ball.mul(ball.mul(c, a), ci) in idx_b for a in gens_a):
            return True
    return False


# ---------------------------------------------------------------------------
# global decomposition

class GlobalDecomposition:
    __slots__ = ("ball", "keys", "r", "families", "bags", "bag_family",
                 "boundary_flag", "vertex_bags", "interior_radius",
                 "bag_orbit", "model_vertex_sizes",
                 "model_edges", "orbit_rep_bag", "adjacent_pairs",
                 "covering_report")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @property
    def bag_count(self):
        return len(self.bags)

    @property
    def model_vertex_count(self):
        return len(self.model_vertex_sizes)

    def interior_vertices(self):
        return [v for v in range(self.ball.vertex_count)
                if self.ball.word_length[v] <= self.interior_radius]

    def interior_bags(self):
        """The bags that touch the interior region, by index; bags lying
        wholly in the boundary annulus are truncation artifacts."""
        length = self.ball.word_length
        return [i for i, b in enumerate(self.bags)
                if min(length[v] for v in b) <= self.interior_radius]

    def verify_axioms(self):
        """(H1) interior edge coverage, (H2) connectivity of each vertex's
        bag family. An interior edge is covered when a bag at one end is
        adjacent to a bag at the other (`adjacent_pairs`), or meets one: a
        bag holding both ends meets itself, so an edge inside a bag is
        covered by the second test. The tests are ORed, the recorded
        adjacency first; the uncovered edges come in sorted order."""
        length, limit = self.ball.word_length, self.interior_radius
        bags, at, pairs = self.bags, self.vertex_bags, self.adjacent_pairs
        uncovered = sorted(
            (u, v) for u, row in enumerate(self.ball.right)
            if length[u] <= limit for v in row
            if v > u and length[v] <= limit
            and not any(((a, b) if a < b else (b, a)) in pairs
                        or not bags[a].isdisjoint(bags[b])
                        for a in at[u] for b in at[v]))
        # bags sharing a vertex are adjacent, and all of v's bags share v
        h2_bad = [v for v in range(self.ball.vertex_count)
                  if length[v] <= limit and len(at[v]) > 1
                  and not all(v in bags[b] for b in at[v])]
        return {"h1_pass": not uncovered, "h1_uncovered_edges": uncovered,
                "h2_pass": not h2_bad, "h2_disconnected_vertices": h2_bad}

    def max_adhesion(self):
        return max((e["adhesion_size"] for e in self.model_edges), default=0)

    def to_json(self):
        return {
            "r": self.r,
            "method": "torsion",
            "interior_radius": self.interior_radius,
            "families": [[self.keys[v] for v in f] for f in self.families],
            "bag_count": self.bag_count,
            "bag_sizes": sorted({len(b) for b in self.bags}),
            "model": {
                "vertices": [{"orbit": i, "bag_size": s}
                             for i, s in enumerate(self.model_vertex_sizes)],
                "edges": [{"u": e["u"], "v": e["v"],
                           "adhesion_size": e["adhesion_size"]}
                          for e in self.model_edges],
            },
            "bags": [{"vertices": [self.keys[v] for v in b],
                      "orbit": self.bag_orbit[i],
                      "boundary": self.boundary_flag[i]}
                     for i, b in enumerate(self.bags)],
            "covering": self.covering_report,
        }


def translate_bag(ball, gamma, bag):
    """Left-translate a bag of vertex indices by a group element; None if
    it leaves the ball. Products are the ball's (`CayleyBall.mul`)."""
    g = ball.point(gamma)
    out = set()
    for v in bag:
        i = ball.mul(g, v)
        if type(i) is not int:
            return None
        out.add(i)
    return frozenset(out)


def _translators(ball, src, dst):
    """Every gamma with gamma * min(src) in dst, in the order of dst.
    Each carries a coset bag src onto a coset bag dst of its family."""
    i0 = ball.inverse(min(src))
    out = []
    for w in sorted(dst):
        g = ball.mul(w, i0)
        out.append(ball.elements[g] if type(g) is int else g)
    return out


def _joins_bags(at_u, at_v):
    """Whether a ball edge, with `at_u` and `at_v` every bag holding each
    end, makes those bags adjacent: when it lies in no bag and joins no
    two meeting bags (a bag holding both ends meets itself)."""
    for a in at_u:  # plain loops: this runs once per ball edge
        for b in at_v:
            if not a.isdisjoint(b):
                return False
    return True


def _pair_key(ball, families, fa, a, fb, b):
    """The translation class of the unordered pair of bags a = x·F and
    b = y·G of the families fa <= fb (-1: a singleton): the double coset
    F·x⁻¹y·G, read from both bags when fa = fb, as a set of the ball's
    points (`CayleyBall.mul`)."""
    if fa > fb:
        return _pair_key(ball, families, fb, b, fa, a)

    def double_coset(F, x, y, G):
        m, out = ball.mul(ball.inverse(x), y), set()
        for f in F:
            z = ball.mul(f, m)
            if z not in out:  # the cosets f·m·G are equal or disjoint
                out.update(ball.mul(z, g) for g in G)
        return frozenset(out)

    F, G = ((families[i] if i >= 0 else (0,)) for i in (fa, fb))
    side = double_coset(F, min(a), min(b), G)
    if fa == fb:
        side = frozenset((side, double_coset(G, min(b), min(a), F)))
    return fa, fb, side


def compute_global_decomposition(ball, r, families=None):
    """Bags, boundary flags, and the translation-quotient model graph.
    `families`, if given, are maximal_finite_subgroups(ball, r).

    Bags are sorted by size, then by their vertices' keys: the
    singletons first, in key order, as a family has at least two
    elements. A singleton is a vertex in no coset: it has family -1, is
    flagged when its word length passes the interior radius, and joins
    the bags at each neighbour with no `_joins_bags` test. Only the
    cosets are sorted by rank and flagged by their longest vertex, and
    only edges with both ends in cosets are tested. Each edge orbit is
    the first interior adjacent pair of its `_pair_key` class, in sorted
    order; where `_read_at_identity` is exact, its classes are those of
    the interior pairs, so the scan stops once it has found as many."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if families is None:
        families = maximal_finite_subgroups(ball, r)

    # cosets of F partition the group, so each is formed once, from its
    # first vertex; one that leaves the ball marks the members it reached
    # done. A coset has one family, and the bags are sorted below
    n, length = ball.vertex_count, ball.word_length
    bag_set, covered = {}, bytearray(n)
    for fi, fam in enumerate(families):
        done = set()
        for x in range(n):
            if x in done:
                continue
            coset = set()
            for h in fam:
                i = ball.mul(x, h)
                if type(i) is not int:
                    break
                coset.add(i)
            else:
                bag_set.setdefault(frozenset(coset), fi)
                for i in coset:
                    covered[i] = 1
            done |= coset

    # a family has at least two elements, so the singletons sort first,
    # in key order, each of family -1 and flagged by its word length;
    # keys are injective, so the cosets sort by their vertices' ranks in
    # that order as they would by their keys
    keys = [g.key() for g in ball.elements]
    by_key = sorted(range(n), key=keys.__getitem__)
    singles = [v for v in by_key if not covered[v]]
    rank = dict(zip(by_key, range(n))) if bag_set else None
    cosets = sorted(bag_set,
                    key=lambda b: (len(b), sorted(map(rank.__getitem__, b))))
    bags = [frozenset((v,)) for v in singles] + cosets
    interior_radius = _interior_radius(ball, families)
    bag_family = [-1] * len(singles) + [bag_set[b] for b in cosets]
    boundary_flag = [length[v] > interior_radius for v in singles] + [
        _eccentricity(ball, b) > interior_radius for b in cosets]
    vertex_bags = [[] for _ in range(n)]
    for i, b in enumerate(bags):
        for v in b:
            vertex_bags[v].append(i)

    # adjacency source 1: intersecting bag pairs, which meet in cosets
    adjacent_pairs = {p for bs, c in zip(vertex_bags, covered) if c
                      for p in combinations(bs, 2)}
    # adjacency source 2: ball edges that join bags (`_joins_bags`). A
    # vertex in no coset lies only in its singleton, which meets no other
    # bag, so an edge at one joins bags untested
    held = [[bags[b] for b in bs] if c else None
            for bs, c in zip(vertex_bags, covered)]
    adjacent_pairs.update([
        (a, b) if a < b else (b, a)
        for u, row in enumerate(ball.right) for v in row
        if v > u and (not (covered[u] and covered[v])
                      or _joins_bags(held[u], held[v]))
        for a in vertex_bags[u] for b in vertex_bags[v]])

    # a bag's orbit is its family, numbered by the family's first
    # interior bag; boundary bags belong to no orbit
    first = {}
    for i, fi in enumerate(bag_family):
        if not boundary_flag[i]:
            first.setdefault(fi, i)
    orbit_of = {fi: o for o, fi in enumerate(first)}
    orbit_rep_bag = list(first.values())
    bag_orbit = [None if flag else orbit_of[fi]
                 for fi, flag in zip(bag_family, boundary_flag)]
    model_vertex_sizes = [len(bags[rep]) for rep in orbit_rep_bag]

    # edge orbits: the first interior pair of each `_pair_key` class; the
    # scan stops once it has every class the identity reading finds
    classes = (_read_at_identity(ball, families) or {}).get("model_edges")
    rep_pairs = {}
    for i, j in sorted(adjacent_pairs):
        if len(rep_pairs) == classes:
            break
        if bag_orbit[i] is not None and bag_orbit[j] is not None:
            rep_pairs.setdefault(_pair_key(ball, families, bag_family[i],
                                           bags[i], bag_family[j], bags[j]),
                                 (i, j))
    model_edges = sorted(
        ({"u": min(bag_orbit[i], bag_orbit[j]),
          "v": max(bag_orbit[i], bag_orbit[j]), "rep_pair": (i, j),
          "adhesion": sorted(bags[i] & bags[j]),
          "adhesion_size": len(bags[i] & bags[j])}
         for i, j in rep_pairs.values()),
        key=lambda e: (e["u"], e["v"], e["adhesion_size"], e["rep_pair"]))

    decomp = GlobalDecomposition(
        ball=ball, keys=keys, r=r, families=families, bags=bags,
        bag_family=bag_family, boundary_flag=boundary_flag,
        vertex_bags=vertex_bags, interior_radius=interior_radius,
        bag_orbit=bag_orbit, model_vertex_sizes=model_vertex_sizes,
        model_edges=model_edges, orbit_rep_bag=orbit_rep_bag,
        adjacent_pairs=adjacent_pairs,
        covering_report=None)
    decomp.covering_report = decomp.verify_axioms()
    return decomp


# ---------------------------------------------------------------------------
# stabilizers and section-6/3 parameters

class StabilizerRecord:
    __slots__ = ("orbit", "bag", "elements", "closed", "order")

    def __init__(self, orbit, bag, elements, closed):
        self.orbit = orbit
        self.bag = bag
        self.elements = elements
        self.closed = closed
        self.order = len(elements)


def compute_stabilizers(decomp):
    """Setwise stabilizer of one representative bag per model vertex: the
    bag's translators onto itself, x·F·x⁻¹ for the coset x·F."""
    ball = decomp.ball
    records = []
    for orbit, rep in enumerate(decomp.orbit_rep_bag):
        bag = decomp.bags[rep]
        stab = _translators(ball, bag, bag)
        points = {ball.point(g) for g in stab}
        closed = all(ball.mul(a, b) in points for a in points for b in points)
        stab.sort(key=lambda g: g.key())
        records.append(StabilizerRecord(orbit, sorted(bag), stab, closed))
    return records


def check_periodicity(decomp, ball, sample_elements):
    """Left translation by each sample must carry bags onto bags exactly."""
    bag_ids = {b: i for i, b in enumerate(decomp.bags)}
    mismatches = []
    checked = 0
    for gamma in sample_elements:
        for i, b in enumerate(decomp.bags):
            if decomp.boundary_flag[i]:
                continue
            image = translate_bag(ball, gamma, b)
            if image is None:
                continue  # pushed outside the ball; not a judgment
            if _eccentricity(ball, image) > decomp.interior_radius:
                continue
            checked += 1
            if image not in bag_ids:
                mismatches.append({"gamma": gamma.key(),
                                   "bag": sorted(b),
                                   "image": sorted(image)})
    return {"pass": not mismatches, "checked": checked,
            "mismatches": mismatches}


def edge_incidence_bound(decomp):
    """M = max over interior vertices of (#bags containing the vertex - 1)."""
    interior = decomp.interior_vertices()
    return max((len(decomp.vertex_bags[v]) - 1 for v in interior), default=0)


def bag_size_bound(M, K, component_sizes):
    """M * (ceil(K) - 1) + sum of component sizes, exact."""
    if M < 0 or K < 1:
        raise ValueError("need M >= 0 and K >= 1")
    return M * (math.ceil(Fraction(K)) - 1) + sum(component_sizes)


def cyclic_subgroup_in_ball(ball, g):
    """(k, vertices of ⟨g⟩) for g of order k <= TORSION_ORDER_CAP; k is
    None past the cap, and the vertices None when a power of g lies
    outside the ball. The powers are the ball's points (`CayleyBall.mul`);
    the identity is vertex 0."""
    g = ball.point(g)
    cyc, power = {0}, g
    for k in range(1, TORSION_ORDER_CAP + 1):
        if power == 0:
            return k, (cyc if all(type(i) is int for i in cyc) else None)
        cyc.add(power)
        power = ball.mul(power, g)
    return None, None


def check_vtf_conditions(decomp, stabilizers, torsion_sample):
    """The three virtually-torsion-free conditions at ball scale."""
    ball = decomp.ball
    cond_i = {
        "model_vertices": decomp.model_vertex_count,
        "max_adhesion": decomp.max_adhesion(),
        "pass": True,
    }
    failures = []
    for g in torsion_sample:
        k, cyc = cyclic_subgroup_in_ball(ball, g)
        if k is None:
            failures.append({"element": g.key(), "reason": "order cap"})
        elif cyc is None:
            failures.append({"element": g.key(), "reason": "cyclic group exits ball"})
        elif not any(cyc <= set(b) for b in decomp.bags):
            failures.append({"element": g.key(),
                             "reason": "cyclic group in no bag"})
    cond_ii = {"pass": not failures, "failures": failures,
               "sampled": len(torsion_sample)}
    orders = [s.order for s in stabilizers]
    cond_iii = {"pass": all(s.closed for s in stabilizers),
                "max_finite_subgroup_order": max(orders, default=1)}
    return {"i": cond_i, "ii": cond_ii, "iii": cond_iii,
            "pass": cond_i["pass"] and cond_ii["pass"] and cond_iii["pass"]}


def build_nerve_complex(decomp):
    """Nerve of the bag covering: maximal simplices, dimension, connectivity.

    Only the interior bags participate (`GlobalDecomposition.interior_bags`)."""
    keep = decomp.interior_bags()
    keep_set = set(keep)
    families = {}
    for v in range(decomp.ball.vertex_count):
        bs = tuple(b for b in decomp.vertex_bags[v] if b in keep_set)
        if bs:
            families.setdefault(bs, []).append(v)
    simplices = set(families)
    maximal = sorted(s for s in simplices
                     if not any(set(s) < set(t) for t in simplices if t != s))
    uf = UnionFind(decomp.bag_count)
    for s in simplices:
        for b in s[1:]:
            uf.union(s[0], b)
    components = len({uf.find(i) for i in keep})
    dimension = max((len(s) - 1 for s in maximal), default=0)
    return {"maximal_simplices": [list(s) for s in maximal],
            "dimension": dimension,
            "components": components,
            "connected": components <= 1}


# ---------------------------------------------------------------------------
# discovery (doubling loop, stabilizer assembly)

def discover_graph_of_groups(group, r0=2, max_doublings=5, ball=None):
    """Double r until the model graph and stabilizer orders repeat, then
    assemble the graph of groups with edge groups G_h ∩ G_h'. Each
    doubling's ball is cut from, or grown out of, the largest ball so far,
    starting from `ball` (a ball of the group) if given.

    A doubling's transcript entry is read at the identity
    (`_read_at_identity`) where every bag adjacent to a family
    representative is interior, and off the full decomposition elsewhere.
    Only the kept doubling needs its full decomposition, for the graph of
    groups; it is built once."""
    if max_doublings < 1:
        raise ValueError("max_doublings must be >= 1")
    if r0 < 1:
        # 0 doubles to 0: the loop would stop at once, on a splitting
        # that is not the group's
        raise ValueError("r0 must be >= 1")
    transcript = []
    previous = None
    stable = None
    largest = ball
    r = r0
    for step in range(max_doublings + 1):
        # families have eccentricity <= r, so margin <= r + 1; radius
        # r + 4 leaves a nonempty interior at every iteration
        ball = build_ball(group, r + 4, ball=largest)
        if largest is None or ball.radius > largest.radius:
            largest = ball
        families = maximal_finite_subgroups(ball, r)
        decomp = None
        fields = _read_at_identity(ball, families)
        if fields is None:
            decomp = compute_global_decomposition(ball, r, families=families)
            fields = _transcript_fields(
                decomp.model_vertex_sizes,
                [(e["u"], e["v"], e["adhesion_size"])
                 for e in decomp.model_edges])
        transcript.append({"r": r, "radius": ball.radius,
                           "ball_vertices": ball.vertex_count, **fields})
        if previous is not None and fields["signature"] == previous[0]:
            stable = previous[1]
            break
        previous = (fields["signature"], (r, ball, families, decomp))
        r *= 2
    if stable is None:
        return None, {"stabilized": False, "iterations": transcript,
                      "diagnosis": "no stabilization within max doublings"}
    R, ball, families, decomp = stable
    if decomp is None:
        decomp = compute_global_decomposition(ball, R, families=families)
    stabs = compute_stabilizers(decomp)
    gog = _assemble_graph_of_groups(group, ball, decomp, stabs)
    return gog, {"stabilized": True, "R": R, "iterations": transcript}


def _transcript_fields(sizes, edges):
    # a stabilizer x·F·x⁻¹ has one translator per vertex of its bag, so
    # the stabilizer orders are the bag sizes
    return {"model_vertices": len(sizes), "model_edges": len(edges),
            "bag_sizes": list(sizes), "stabilizer_orders": list(sizes),
            "signature": (tuple(sorted(sizes)), tuple(sorted(edges)),
                          tuple(sorted(sizes)))}


def _read_at_identity(ball, families):
    """The transcript fields of compute_global_decomposition(ball, r),
    `families` being r's, read from the pairs (F, B′) of each family F
    (or {1} when there are none) and a bag B′ adjacent to it. None unless
    F and every such B′ are interior: only then do these pairs stand for
    every interior pair. Every interior vertex v lies in v·F, so once
    there are families no interior bag is a singleton.

    Edge orbits are `_pair_key` classes; with x = 1 the key of (F, B′)
    is F·B′, as (F, B′) and (F, B″) are translates exactly when B″ is
    some f·B′ with f ∈ F.
    """
    interior_radius = _interior_radius(ball, families)
    # without families every bag is a singleton, a coset of {1}
    families = families or [[0]]
    reps = [frozenset(f) for f in families]
    if any(_eccentricity(ball, f) > interior_radius for f in reps):
        return None

    @cache
    def bags_at(v):
        # bag -> family of each bag holding v; for v in or next to an
        # interior F, every v·G lies in the ball
        return {frozenset(ball.mul(v, h) for h in g): gi
                for gi, g in enumerate(families)}

    # a bag is adjacent to F if it meets F, or if an edge from F joins
    # them (`_joins_bags`); each key class keeps its first pair's fields
    classes = {}
    for fi, rep in enumerate(reps):
        adjacent = {}
        for u in rep:
            adjacent.update(bags_at(u))
            for w in ball.neighbors(u):
                if _joins_bags(bags_at(u), bags_at(w)):
                    adjacent.update(bags_at(w))
        adjacent.pop(rep)
        for b, gi in adjacent.items():
            if _eccentricity(ball, b) > interior_radius:
                return None
            classes.setdefault(_pair_key(ball, families, fi, rep, gi, b),
                               (fi, gi, len(rep & b)))

    # orbits are numbered by each family's first interior bag in the
    # scan's (size, sorted keys) order; only a tie in size needs keys
    sizes = [len(f) for f in reps]

    def first_bag(fi):
        cosets = ([ball.mul(x, h) for h in families[fi]]
                  for x in ball.interior(interior_radius))
        return min(sorted(ball.elements[v].key() for v in c) for c in cosets
                   if _eccentricity(ball, c) <= interior_radius)

    order = sorted(range(len(reps)), key=lambda fi: (
        sizes[fi], first_bag(fi) if sizes.count(sizes[fi]) > 1 else ()))
    orbit = {fi: o for o, fi in enumerate(order)}
    return _transcript_fields(
        [sizes[fi] for fi in order],
        [(min(orbit[fi], orbit[gi]), max(orbit[fi], orbit[gi]), adhesion)
         for fi, gi, adhesion in classes.values()])


def _assemble_graph_of_groups(group, ball, decomp, stabs):
    tables = []
    index_maps = []
    for s in stabs:
        table, imap = FiniteGroupTable.from_elements(
            s.elements, multiply, group.identity,
            {g: g.key() for g in s.elements})
        tables.append(table)
        index_maps.append(imap)

    edges = []
    for e in decomp.model_edges:
        i, j = e["rep_pair"]
        ou, ov = decomp.bag_orbit[i], decomp.bag_orbit[j]
        bi, bj = decomp.bags[i], decomp.bags[j]
        # conjugate each endpoint's stabilizer back to the orbit
        # representative; every translator of a bag onto it will do
        du = _translators(ball, bi, decomp.bags[decomp.orbit_rep_bag[ou]])[0]
        dv = _translators(ball, bj, decomp.bags[decomp.orbit_rep_bag[ov]])[0]
        stab_j = set(_translators(ball, bj, bj))
        # from_elements moves the identity to index 0; keep orders aligned
        shared = sorted((g for g in _translators(ball, bi, bi) if g in stab_j),
                        key=lambda g: (g != group.identity, g.key()))
        etable, _ = FiniteGroupTable.from_elements(
            shared, multiply, group.identity, {g: g.key() for g in shared})
        into_u = [index_maps[ou][multiply(multiply(du, g), inverse(du))]
                  for g in shared]
        into_v = [index_maps[ov][multiply(multiply(dv, g), inverse(dv))]
                  for g in shared]
        edges.append(GogEdge(ou, ov, etable, into_u, into_v, tree=False))

    # mark a spanning tree
    seen = {0} if tables else set()
    changed = True
    while changed:
        changed = False
        for edge in edges:
            if (edge.u in seen) != (edge.v in seen):
                edge.tree = True
                seen.update((edge.u, edge.v))
                changed = True
    names = [f"orbit{i}(|G|={t.order})" for i, t in enumerate(tables)]
    return GraphOfGroups(tables, edges, names,
                         name=f"discovered:{getattr(group, 'name', 'group')}")

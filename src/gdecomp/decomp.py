"""Canonical decomposition of a Cayley ball into bags with small adhesions.

`compute_global_decomposition` takes bags to be left cosets of the
minimal-eccentricity representatives of the conjugacy classes of maximal
finite subgroups visible in the ball, with singleton bags elsewhere. On
the virtually free examples this reproduces the bags-are-cosets picture
exactly, and it is manifestly equivariant under left translation.

The model graph is the quotient of the bag structure by left
translation: two bags (or adjacent bag pairs) are equivalent when some
group element carries one onto the other exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cayley import build_ball
from .graphs import UnionFind
from .groups import (FiniteGroupTable, GogEdge, GraphOfGroups, element_order,
                     inverse, multiply)


# ---------------------------------------------------------------------------
# maximal finite subgroup discovery

def _closure_in_ball(ball, indices, size_cap=256):
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


def _eccentricity(ball, indices):
    return max(ball.word_length[i] for i in indices)


def _subgroup_key(ball, indices):
    return tuple(sorted(ball.elements[i].key() for i in indices))


def maximal_finite_subgroups(ball, r, order_cap=64, size_cap=256):
    """Maximal finite subgroups inside the ball with eccentricity <= r,
    one minimal-eccentricity representative per conjugacy class."""
    cyclic = {}
    for i in range(1, ball.vertex_count):
        if ball.word_length[i] > r:
            continue
        # powers of g through the ball; g is dropped once a power leaves
        # the ball or its order would exceed order_cap
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

    # merge pairs whose joint closure is still a small subgroup in the ball
    changed = True
    while changed:
        changed = False
        for i in range(len(subs)):
            for j in range(i + 1, len(subs)):
                if subs[i] <= subs[j] or subs[j] <= subs[i]:
                    continue
                merged = _closure_in_ball(ball, subs[i] | subs[j], size_cap)
                if merged is not None and _eccentricity(ball, merged) <= r:
                    subs = [s for k, s in enumerate(subs) if k not in (i, j)]
                    subs.append(merged)
                    subs.sort(key=lambda s: _subgroup_key(ball, s))
                    changed = True
                    break
            if changed:
                break
    subs = [s for s in subs if not any(s < t for t in subs)]

    # conjugacy classes, smallest-eccentricity representative first
    order = sorted(range(len(subs)),
                   key=lambda i: (_eccentricity(ball, subs[i]),
                                  _subgroup_key(ball, subs[i])))
    reps = []
    for i in order:
        if any(_conjugate_in_ball(ball, subs[i], subs[j]) for j in reps):
            continue
        reps.append(i)
    return [sorted(subs[i], key=lambda v: ball.elements[v].key()) for i in reps]


def _conjugate_in_ball(ball, idx_a, idx_b):
    if len(idx_a) != len(idx_b):
        return False
    for c in range(ball.vertex_count):
        ci = ball.inverse(c)
        if all(ball.product(c, a, ci) in idx_b for a in idx_a):
            return True
    return False


# ---------------------------------------------------------------------------
# global decomposition

class GlobalDecomposition:
    __slots__ = ("ball", "r", "families", "bags", "bag_family",
                 "boundary_flag", "vertex_bags", "interior_radius",
                 "bag_orbit", "model_vertex_count", "model_vertex_sizes",
                 "model_edges", "orbit_rep_bag", "adjacent_pairs",
                 "covering_report")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @property
    def bag_count(self):
        return len(self.bags)

    def interior_vertices(self):
        return [v for v in range(self.ball.vertex_count)
                if self.ball.word_length[v] <= self.interior_radius]

    def verify_axioms(self):
        """(H1) interior edge coverage, (H2) connectivity of each vertex's
        bag family. Coverage counts whether the edge lies inside a bag or
        joins two intersecting bags."""
        interior = set(self.interior_vertices())
        uncovered = []
        for u, v, _ in self.ball.edges():
            if u not in interior or v not in interior:
                continue
            if any(v in self.bags[b] for b in self.vertex_bags[u]):
                continue
            if any(self.bags[bu] & self.bags[bv]
                   for bu in self.vertex_bags[u] for bv in self.vertex_bags[v]):
                continue
            if any((min(bu, bv), max(bu, bv)) in self.adjacent_pairs
                   for bu in self.vertex_bags[u] for bv in self.vertex_bags[v]):
                continue
            uncovered.append((u, v))
        h2_bad = []
        for v in interior:
            bs = self.vertex_bags[v]
            # bags sharing a vertex are adjacent, and all of v's bags share v
            if len(bs) > 1 and not all(v in self.bags[b] for b in bs):
                h2_bad.append(v)
        return {"h1_pass": not uncovered, "h1_uncovered_edges": uncovered,
                "h2_pass": not h2_bad, "h2_disconnected_vertices": h2_bad}

    def max_adhesion(self):
        return max((e["adhesion_size"] for e in self.model_edges), default=0)

    def to_json(self):
        return {
            "r": self.r,
            "method": "torsion",
            "interior_radius": self.interior_radius,
            "families": [[self.ball.elements[v].key() for v in f]
                         for f in self.families],
            "bag_count": self.bag_count,
            "bag_sizes": sorted({len(b) for b in self.bags}),
            "model": {
                "vertices": [{"orbit": i, "bag_size": s}
                             for i, s in enumerate(self.model_vertex_sizes)],
                "edges": [{"u": e["u"], "v": e["v"],
                           "adhesion_size": e["adhesion_size"]}
                          for e in self.model_edges],
            },
            "bags": [{"vertices": [self.ball.elements[v].key() for v in b],
                      "orbit": self.bag_orbit[i],
                      "boundary": self.boundary_flag[i]}
                     for i, b in enumerate(self.bags)],
            "covering": self.covering_report,
        }

    def to_dot(self):
        lines = ["graph model {", "  node [shape=circle];"]
        for i, s in enumerate(self.model_vertex_sizes):
            lines.append(f'  h{i} [label="{s}"];')
        for e in self.model_edges:
            lines.append(f'  h{e["u"]} -- h{e["v"]} [label="{e["adhesion_size"]}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def translate_bag(ball, gamma, bag):
    """Left-translate a bag of vertex indices by a group element; None if
    it leaves the ball. A gamma inside the ball is applied by walking the
    ball's table."""
    g = ball.locate(gamma)
    out = set()
    for v in bag:
        i = (ball.product(g, v) if g is not None
             else ball.locate(multiply(gamma, ball.elements[v])))
        if i is None:
            return None
        out.add(i)
    return frozenset(out)


def _translators(ball, src, dst):
    """Candidate gammas with gamma * min(src) landing in dst."""
    i0 = ball.inverse(min(src))
    out = []
    for w in sorted(dst):
        g = ball.product(w, i0)
        # a candidate outside the ball has no vertex: group arithmetic
        # builds it, and translate_bag then applies it the same way
        out.append(ball.elements[g] if g is not None
                   else multiply(ball.elements[w], ball.elements[i0]))
    return out


def bags_equivalent(ball, b1, b2):
    """Some ball-expressible element maps b1 onto b2 exactly; returns it."""
    if len(b1) != len(b2):
        return None
    for gamma in _translators(ball, b1, b2):
        if translate_bag(ball, gamma, b1) == frozenset(b2):
            return gamma
    return None


def _pairs_equivalent(ball, p1, p2):
    """Translation carrying the bag pair p1 onto p2 (either orientation)."""
    (a1, b1), (a2, b2) = p1, p2
    for x2, y2 in ((a2, b2), (b2, a2)):
        if len(a1) != len(x2) or len(b1) != len(y2):
            continue
        for gamma in _translators(ball, a1, x2):
            if translate_bag(ball, gamma, a1) == frozenset(x2) \
                    and translate_bag(ball, gamma, b1) == frozenset(y2):
                return gamma
    return None


def compute_global_decomposition(ball, r, order_cap=64):
    """Bags, boundary flags, and the translation-quotient model graph."""
    if r < 0:
        raise ValueError("r must be >= 0")
    families = maximal_finite_subgroups(ball, r, order_cap=order_cap)

    bag_set = {}
    for x in range(ball.vertex_count):
        for fi, fam in enumerate(families):
            coset = set()
            for h in fam:
                i = ball.product(x, h)
                if i is None:
                    coset = None
                    break
                coset.add(i)
            if coset is not None:
                bag_set.setdefault(frozenset(coset), fi)

    covered = set().union(*bag_set) if bag_set else set()
    for v in range(ball.vertex_count):
        if v not in covered:
            bag_set.setdefault(frozenset([v]), -1)

    bags = sorted(bag_set, key=lambda b: (len(b), sorted(
        ball.elements[v].key() for v in b)))
    bag_family = [bag_set[b] for b in bags]
    margin = max((_eccentricity(ball, f) for f in families), default=0) + 1
    interior_radius = ball.radius - margin
    boundary_flag = [_eccentricity(ball, b) > interior_radius for b in bags]

    vertex_bags = [[] for _ in range(ball.vertex_count)]
    for i, b in enumerate(bags):
        for v in b:
            vertex_bags[v].append(i)

    # adjacency source 1: intersecting bag pairs
    pair_ids = set()
    for v in range(ball.vertex_count):
        bs = vertex_bags[v]
        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                pair_ids.add((bs[i], bs[j]))
    # adjacency source 2: ball edges not covered by a bag and with no
    # intersecting bag pair across them (the acyclic/singleton regime)
    edge_pairs = set()
    for u, v, _ in ball.edges():
        if any(v in bags[b] for b in vertex_bags[u]):
            continue
        if any(bags[bu] & bags[bv]
               for bu in vertex_bags[u] for bv in vertex_bags[v]):
            continue
        for bu in vertex_bags[u]:
            for bv in vertex_bags[v]:
                edge_pairs.add((min(bu, bv), max(bu, bv)))
    all_pairs = pair_ids | edge_pairs

    # bag orbits under translation (interior bags only)
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
    model_vertex_sizes = [len(bags[rep]) for rep in orbit_rep_bag]

    # edge orbits
    interior_pairs = sorted(
        (i, j) for i, j in all_pairs
        if bag_orbit[i] is not None and bag_orbit[j] is not None)
    model_edges = []
    for i, j in interior_pairs:
        pair = (bags[i], bags[j])
        for e in model_edges:
            ri, rj = e["rep_pair"]
            if _pairs_equivalent(ball, (bags[ri], bags[rj]), pair) is not None:
                break
        else:
            model_edges.append({
                "u": min(bag_orbit[i], bag_orbit[j]),
                "v": max(bag_orbit[i], bag_orbit[j]),
                "rep_pair": (i, j),
                "adhesion": sorted(bags[i] & bags[j]),
                "adhesion_size": len(bags[i] & bags[j]),
            })
    model_edges.sort(key=lambda e: (e["u"], e["v"], e["adhesion_size"],
                                    e["rep_pair"]))

    decomp = GlobalDecomposition(
        ball=ball, r=r, families=families, bags=bags,
        bag_family=bag_family, boundary_flag=boundary_flag,
        vertex_bags=vertex_bags, interior_radius=interior_radius,
        bag_orbit=bag_orbit, model_vertex_count=len(orbit_rep_bag),
        model_vertex_sizes=model_vertex_sizes, model_edges=model_edges,
        orbit_rep_bag=orbit_rep_bag,
        adjacent_pairs={(min(i, j), max(i, j)) for i, j in all_pairs},
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


def compute_stabilizers(decomp, ball=None):
    """Setwise stabilizer of one representative bag per model vertex."""
    ball = ball or decomp.ball
    records = []
    for orbit, rep in enumerate(decomp.orbit_rep_bag):
        bag = decomp.bags[rep]
        stab = _bag_stabilizer(ball, bag)
        data = {g.data for g in stab}
        closed = all(multiply(a, b).data in data for a in stab for b in stab)
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
        k = element_order(g, 512)
        if k is None:
            failures.append({"element": g.key(), "reason": "order cap"})
            continue
        cyc, power, ok = set(), ball.group.identity, True
        for _ in range(k):
            i = ball.locate(power)
            if i is None:
                ok = False
                break
            cyc.add(i)
            power = multiply(power, g)
        if not ok:
            failures.append({"element": g.key(), "reason": "cyclic group exits ball"})
            continue
        if not any(cyc <= set(b) for b in decomp.bags):
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

    Only bags touching the interior region participate; bags living
    entirely in the boundary annulus are truncation artifacts."""
    ball = decomp.ball
    keep = [i for i in range(decomp.bag_count)
            if min(ball.word_length[v] for v in decomp.bags[i])
            <= decomp.interior_radius]
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

def discover_graph_of_groups(group, generators=None, r0=2, max_doublings=5,
                             radius_fn=None):
    """Double r until the model graph and stabilizer orders repeat, then
    assemble the graph of groups with edge groups G_h ∩ G_h'."""
    if max_doublings < 1:
        raise ValueError("max_doublings must be >= 1")
    if r0 < 1:
        # 0 doubles to 0: the loop would stop at once, on a splitting
        # that is not the group's
        raise ValueError("r0 must be >= 1")
    # families have eccentricity <= r, so margin <= r + 1; radius r + 4
    # leaves a nonempty interior at every iteration
    radius_fn = radius_fn or (lambda r: r + 4)
    transcript = []
    previous = None
    stable = None
    r = r0
    for step in range(max_doublings + 1):
        ball = build_ball(group, radius_fn(r), generators)
        decomp = compute_global_decomposition(ball, r)
        stabs = compute_stabilizers(decomp, ball)
        signature = _model_signature(decomp, stabs)
        transcript.append({
            "r": r, "radius": ball.radius, "ball_vertices": ball.vertex_count,
            "model_vertices": decomp.model_vertex_count,
            "model_edges": len(decomp.model_edges),
            "bag_sizes": decomp.model_vertex_sizes,
            "stabilizer_orders": [s.order for s in stabs],
            "signature": signature,
        })
        if previous is not None and signature == previous[0]:
            stable = previous[1]
            break
        previous = (signature, (r, ball, decomp, stabs))
        r *= 2
    if stable is None:
        return None, {"stabilized": False, "iterations": transcript,
                      "diagnosis": "no stabilization within max doublings"}
    R, ball, decomp, stabs = stable
    gog = _assemble_graph_of_groups(group, ball, decomp, stabs)
    return gog, {"stabilized": True, "R": R, "iterations": transcript}


def _model_signature(decomp, stabs):
    edges = sorted((e["u"], e["v"], e["adhesion_size"])
                   for e in decomp.model_edges)
    return (tuple(sorted(decomp.model_vertex_sizes)),
            tuple(edges),
            tuple(sorted(s.order for s in stabs)))


def _assemble_graph_of_groups(group, ball, decomp, stabs):
    tables = []
    index_maps = []
    for s in stabs:
        labels = {g.data: g.key() for g in s.elements}
        table, imap = FiniteGroupTable.from_elements(
            [g.data for g in s.elements],
            lambda a, b, _g=group: _op_data(_g, a, b),
            group.identity.data, labels)
        tables.append(table)
        index_maps.append(imap)
    stab_data = [{g.data for g in s.elements} for s in stabs]

    edges = []
    for e in decomp.model_edges:
        i, j = e["rep_pair"]
        ou, ov = decomp.bag_orbit[i], decomp.bag_orbit[j]
        # conjugate each endpoint's stabilizer back to the orbit representative
        du = bags_equivalent(ball, decomp.bags[i],
                             decomp.bags[decomp.orbit_rep_bag[ou]])
        dv = bags_equivalent(ball, decomp.bags[j],
                             decomp.bags[decomp.orbit_rep_bag[ov]])
        stab_i = _bag_stabilizer(ball, decomp.bags[i])
        stab_j_data = {g.data for g in _bag_stabilizer(ball, decomp.bags[j])}
        shared = [g for g in stab_i if g.data in stab_j_data]
        shared.sort(key=lambda g: g.key())
        # from_elements moves the identity to index 0; keep orders aligned
        ident = group.identity
        shared = [ident] + [g for g in shared if g.data != ident.data]
        labels = {g.data: g.key() for g in shared}
        etable, _ = FiniteGroupTable.from_elements(
            [g.data for g in shared],
            lambda a, b, _g=group: _op_data(_g, a, b),
            group.identity.data, labels)
        into_u = [index_maps[ou][_conj_data(du, g)] for g in shared]
        into_v = [index_maps[ov][_conj_data(dv, g)] for g in shared]
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


def _op_data(group, a, b):
    cls = group.identity.__class__
    backend = group.identity.backend
    return multiply(cls(backend, a, group), cls(backend, b, group)).data


def _conj_data(delta, g):
    return multiply(multiply(delta, g), inverse(delta)).data


def _bag_stabilizer(ball, bag):
    """Translations carrying the bag onto itself, as group elements."""
    bag = frozenset(bag)
    return [gamma for gamma in _translators(ball, bag, bag)
            if translate_bag(ball, gamma, bag) == bag]

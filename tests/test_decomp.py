import random
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import decomp_oracle as oracle
from gdecomp import (build_ball, build_nerve_complex, check_periodicity,
                     check_vtf_conditions, compute_global_decomposition,
                     compute_stabilizers, discover_graph_of_groups)
from gdecomp.decomp import (GlobalDecomposition, _eccentricity,
                            _joins_bags, _pair_key, _read_at_identity,
                            _translators, bag_size_bound,
                            edge_incidence_bound, maximal_finite_subgroups)
from gdecomp.errors import CapExceeded
from gdecomp.fixtures import (load_fixture, make_cyclic_amalgam,
                              make_free_group)
from gdecomp.groups import (FiniteGroupTable, GogEdge, GraphOfGroups,
                            GraphOfGroupsGroup, MatrixGroup, multiply)
from gdecomp.groups.matrix import mat_det


def test_sl2z_decomposition_frozen(sl2z_decomp):
    dec = sl2z_decomp
    assert sorted(dec.model_vertex_sizes) == [4, 6]
    assert [(e["u"], e["v"], e["adhesion_size"]) for e in dec.model_edges] \
        == [(0, 1, 2)]
    assert dec.max_adhesion() == 2
    assert sorted({len(b) for b in dec.bags}) == [1, 4, 6]
    assert dec.interior_radius == 7


def test_sl2z_axioms(sl2z_decomp):
    report = sl2z_decomp.verify_axioms()
    assert report["h1_pass"] and report["h2_pass"]


def _with(dec, **fields):
    return GlobalDecomposition(**{k: fields.get(k, getattr(dec, k))
                                  for k in dec.__slots__})


def test_verify_axioms_failures(sl2z_decomp, f2):
    """H1 and H2 hold by construction on a decomposition as built.
    Adjacency source 2 adds the bag pairs of exactly the ball edges that
    fail H1's first two tests (no bag holds both ends, no bag at one end
    meets one at the other), so every edge passes H1's third test; and
    `vertex_bags[v]` lists only bags that hold v, so all of v's bags
    share v. The failure paths are reached on copies that break one of
    these facts. H1 is broken on F2, whose singleton bags make every ball
    edge a source-2 edge; the sl2z decomposition has no interior one,
    since each of its interior edges lies in a bag or joins two meeting
    bags. Two controls pin the other H1 branches: with no adjacency
    recorded, sl2z's meeting bags still cover every interior edge; and
    with singleton bags, no adjacency and so nothing to cover an edge,
    the uncovered edges are the interior edges, each once and in sorted
    order, which sl2z's rows are not."""
    dec = compute_global_decomposition(build_ball(f2, 5), 3)
    interior = set(dec.interior_vertices())
    u, v = next((u, v) for u, v in dec.ball.edge_pairs()
                if u in interior and v in interior)
    (bu,), (bv,) = dec.vertex_bags[u], dec.vertex_bags[v]
    pair = (min(bu, bv), max(bu, bv))
    assert pair in dec.adjacent_pairs and not dec.bags[bu] & dec.bags[bv]
    report = _with(dec, adjacent_pairs=dec.adjacent_pairs - {pair}) \
        .verify_axioms()
    assert not report["h1_pass"] and report["h1_uncovered_edges"] == [(u, v)]
    assert report["h2_pass"]

    dec = sl2z_decomp
    # w, on the boundary, is not checked
    v, w = dec.interior_vertices()[-1], dec.ball.vertex_count - 1
    foreign = next(i for i, b in enumerate(dec.bags)
                   if v not in b and w not in b)
    vertex_bags = list(dec.vertex_bags)
    for x in (v, w):
        vertex_bags[x] = vertex_bags[x] + [foreign]
    report = _with(dec, vertex_bags=vertex_bags).verify_axioms()
    assert not report["h2_pass"] and report["h2_disconnected_vertices"] == [v]
    assert report["h1_pass"]

    report = _with(dec, adjacent_pairs=set()).verify_axioms()
    assert report["h1_pass"] and report["h2_pass"]
    n = dec.ball.vertex_count
    report = _with(dec, bags=[frozenset((v,)) for v in range(n)],
                   vertex_bags=[[v] for v in range(n)],
                   adjacent_pairs=set()).verify_axioms()
    interior = set(dec.interior_vertices())
    edges = [(u, v) for u, v in dec.ball.edge_pairs()
             if u in interior and v in interior]
    assert report["h1_uncovered_edges"] == edges and report["h2_pass"]
    in_rows = [(u, v) for u, row in enumerate(dec.ball.right) for v in row
               if (u, v) in set(edges)]
    assert sorted(in_rows) == edges != in_rows


def test_sl2z_stabilizers(sl2z_decomp):
    stabs = compute_stabilizers(sl2z_decomp)
    assert sorted(s.order for s in stabs) == [4, 6]
    assert all(s.closed for s in stabs)


def test_sl2z_maximal_finite_subgroups(sl2z_ball10):
    families = maximal_finite_subgroups(sl2z_ball10, 6)
    assert sorted(len(f) for f in families) == [4, 6]


def test_sl2z_periodicity(sl2z_ball10, sl2z_decomp):
    rng = random.Random(0)
    interior = [v for v in range(sl2z_ball10.vertex_count)
                if sl2z_ball10.word_length[v] <= sl2z_decomp.interior_radius]
    sample = [sl2z_ball10.elements[v] for v in rng.sample(interior, 20)]
    report = check_periodicity(sl2z_decomp, sl2z_ball10, sample)
    assert report["pass"]
    assert report["checked"] == 455


def test_sl2z_vtf_conditions(sl2z, sl2z_decomp):
    S = sl2z.generators["S"]
    ST = multiply(S, sl2z.generators["T"])
    stabs = compute_stabilizers(sl2z_decomp)
    report = check_vtf_conditions(sl2z_decomp, stabs, [S, ST, multiply(S, S)])
    assert report["pass"]
    assert report["iii"]["max_finite_subgroup_order"] == 6


@pytest.mark.parametrize("radius, reason", [
    (1, "cyclic group exits ball"), (4, "cyclic group in no bag")])
def test_sl2z_vtf_condition_ii_failures(sl2z, radius, reason):
    # at r = 1 no family is found, so every bag is a singleton; a radius-1
    # ball does not hold <S> or <ST>, a radius-4 ball holds both
    S, T = sl2z.generators["S"], sl2z.generators["T"]
    dec = compute_global_decomposition(build_ball(sl2z, radius), 1)
    report = check_vtf_conditions(dec, compute_stabilizers(dec),
                                  [S, multiply(S, T), T])
    assert not report["pass"] and not report["ii"]["pass"]
    assert [f["reason"] for f in report["ii"]["failures"]] \
        == [reason, reason, "order cap"]  # T has infinite order


def test_c2c3_decomposition(c2c3):
    ball = build_ball(c2c3, 7)
    dec = compute_global_decomposition(ball, 3)
    assert sorted(dec.model_vertex_sizes) == [2, 3]
    assert [(e["u"], e["v"], e["adhesion_size"]) for e in dec.model_edges] \
        == [(0, 1, 1)]
    assert dec.verify_axioms()["h1_pass"]


def test_f2_decomposition_singletons(f2):
    ball = build_ball(f2, 5)
    dec = compute_global_decomposition(ball, 3)
    assert dec.model_vertex_sizes == [1]
    assert all(len(b) == 1 for b in dec.bags)
    loops = [e for e in dec.model_edges if e["u"] == e["v"]]
    assert len(loops) == 2
    assert dec.max_adhesion() == 0
    assert dec.verify_axioms()["h1_pass"]


def test_z5_single_bag(z5):
    ball = build_ball(z5, 8)
    dec = compute_global_decomposition(ball, 5)
    assert dec.model_vertex_sizes == [5]
    assert dec.model_edges == []


def test_edge_incidence_and_bag_bounds(sl2z_decomp):
    assert edge_incidence_bound(sl2z_decomp) == 1
    assert bag_size_bound(1, 3, [4]) == 6
    assert bag_size_bound(0, 7, []) == 0
    assert bag_size_bound(2, 2, [1, 1]) == 4
    assert bag_size_bound(1, Fraction(9, 4), [4]) == 6
    with pytest.raises(ValueError):
        bag_size_bound(-1, 2, [])


def test_nerve_sl2z(sl2z_decomp):
    nerve = build_nerve_complex(sl2z_decomp)
    assert nerve["dimension"] == 1
    assert nerve["connected"]


def test_nerve_f2(f2):
    ball = build_ball(f2, 5)
    dec = compute_global_decomposition(ball, 3)
    nerve = build_nerve_complex(dec)
    assert nerve["dimension"] == 0
    assert not nerve["connected"]
    assert all(len(s) == 1 for s in nerve["maximal_simplices"])


def test_discover_sl2z(sl2z):
    gog, trace = discover_graph_of_groups(sl2z)
    assert trace["stabilized"]
    assert sorted(t.order for t in gog.vertices) == [4, 6]
    assert [e.table.order for e in gog.edges] == [2]
    assert gog.euler_characteristic() == Fraction(-1, 12)


def test_discover_c4c2c6_matches_sl2z(c4c2c6):
    gog, trace = discover_graph_of_groups(c4c2c6)
    assert sorted(t.order for t in gog.vertices) == [4, 6]
    assert [e.table.order for e in gog.edges] == [2]
    assert gog.euler_characteristic() == Fraction(-1, 12)


def test_discover_f2(f2):
    gog, trace = discover_graph_of_groups(f2)
    assert [t.order for t in gog.vertices] == [1]
    assert len(gog.edges) == 2
    assert all(e.u == e.v == 0 for e in gog.edges)
    assert gog.euler_characteristic() == -1


def test_discover_c2c3(c2c3):
    gog, trace = discover_graph_of_groups(c2c3)
    assert sorted(t.order for t in gog.vertices) == [2, 3]
    assert [e.table.order for e in gog.edges] == [1]
    assert gog.euler_characteristic() == Fraction(-1, 6)


def test_discover_z_and_z5(zgroup, z5):
    gog, _ = discover_graph_of_groups(zgroup)
    assert [t.order for t in gog.vertices] == [1]
    assert len(gog.edges) == 1 and gog.edges[0].u == gog.edges[0].v
    assert gog.euler_characteristic() == 0
    gog5, _ = discover_graph_of_groups(z5, r0=5)
    assert [t.order for t in gog5.vertices] == [5]
    assert gog5.edges == []
    assert gog5.euler_characteristic() == Fraction(1, 5)


def test_discover_idempotent(c2c3):
    gog, trace = discover_graph_of_groups(c2c3)
    gog2, trace2 = discover_graph_of_groups(c2c3, r0=trace["R"])
    assert sorted(t.order for t in gog.vertices) \
        == sorted(t.order for t in gog2.vertices)
    assert sorted(e.table.order for e in gog.edges) \
        == sorted(e.table.order for e in gog2.edges)


def _matrix_group(p, gens):
    return MatrixGroup(f"gl2_mod{p}", 2, dict(zip("ab", gens)), modulus=p)


@cache
def _invertible_matrices(p):
    return [m for m in product(product(range(p), repeat=2), repeat=2)
            if mat_det(m) % p]


@st.composite
def _decomp_inputs(draw):
    """(group, radius, r): C_a *_{C_c} C_b with a, b <= 8, F_1..F_3, or a
    group generated by two invertible 2x2 matrices mod 2, 3 or 5. Most
    draws are matrix groups mod 3 at radius 4 or mod 5 at radius 5, with
    r up to 10: there, about one draw in ten (mod 3) or twenty (mod 5)
    tells a worklist merge from the restarting scan."""
    kind = draw(st.sampled_from(["matrix"] * 4 + ["amalgam", "free"]))
    if kind == "free":
        n = draw(st.integers(1, 3))
        return make_free_group(n), draw(st.integers(1, 7 - n)), \
            draw(st.integers(0, 4))
    if kind == "amalgam":
        c = draw(st.integers(1, 4))
        order = st.sampled_from(range(max(2, c), 9)).filter(
            lambda n: n % c == 0)
        return make_cyclic_amalgam(draw(order), c, draw(order)), \
            draw(st.integers(2, 8)), draw(st.integers(1, 8))
    p = draw(st.sampled_from([3, 3, 5, 2]))
    # the pair is drawn uniformly: pairs drawn by st.sampled_from told
    # the two merges apart about a quarter as often
    rnd = draw(st.randoms(use_true_random=False))
    matrices = _invertible_matrices(p)
    group = _matrix_group(p, (rnd.choice(matrices), rnd.choice(matrices)))
    if p == 2:
        return group, draw(st.integers(1, 6)), draw(st.integers(1, 8))
    radius = {3: 4, 5: 5}[p]
    return group, radius, draw(st.integers(radius, 10))


# small draws on which the identity reading is exact, so the class scan
# stops once it has as many classes as the reading
EARLY_STOP = [(load_fixture("f2"), 5, 3), (load_fixture("c2*c3"), 6, 2)]


@example(EARLY_STOP[0])
@example(EARLY_STOP[1])
# draws on which merging from a worklist, instead of restarting the scan
# after each merge, keeps other families
@example((_matrix_group(3, (((0, 1), (1, 0)), ((0, 2), (1, 1)))), 3, 6))
@example((_matrix_group(3, (((0, 2), (1, 1)), ((0, 2), (2, 2)))), 4, 7))
@settings(max_examples=300, deadline=None)
@given(_decomp_inputs())
def test_decomposition_matches_searches(case):
    # bags, orbits, stabilizers and translators read off the cosets, and
    # the memoized merge, must agree with the searches they replace
    group, radius, r = case
    try:
        ball = build_ball(group, radius, cap=2000)
    except CapExceeded:
        assume(False)
    dec = compute_global_decomposition(ball, r)
    assert dec.families == oracle.maximal_finite_subgroups(ball, r)
    assert (dec.bags, dec.bag_family) \
        == oracle.coset_bags(ball, dec.families)
    # the singleton fast path: flags, bag lists, adjacency and the
    # covering report as the per-bag rule finds them from the bags alone
    assert dec.boundary_flag == [_eccentricity(ball, b) > dec.interior_radius
                                 for b in dec.bags]
    vertex_bags = oracle.vertex_bags(ball, dec.bags)
    adjacent_pairs = oracle.adjacent_pairs(ball, dec.bags)
    assert dec.vertex_bags == vertex_bags
    assert dec.adjacent_pairs == adjacent_pairs
    assert dec.covering_report == oracle.covering_report(
        ball, dec.interior_radius, dec.bags, vertex_bags, adjacent_pairs)
    bag_orbit, orbit_rep_bag = oracle.bag_orbits(ball, dec.bags,
                                                 dec.boundary_flag)
    assert dec.bag_orbit == bag_orbit
    assert dec.orbit_rep_bag == orbit_rep_bag
    assert dec.model_edges == oracle.model_edges(ball, dec.bags, bag_orbit,
                                                 dec.adjacent_pairs)
    for s in compute_stabilizers(dec):
        rep = dec.bags[orbit_rep_bag[s.orbit]]
        assert [g.key() for g in s.elements] \
            == sorted(g.key() for g in oracle.bag_stabilizer(ball, rep))
    for i, o in enumerate(bag_orbit):
        if o is not None:
            rep = dec.bags[orbit_rep_bag[o]]
            assert _translators(ball, dec.bags[i], rep)[0] \
                == oracle.bags_equivalent(ball, dec.bags[i], rep)


@settings(max_examples=100, deadline=None)
@given(_decomp_inputs(), st.randoms(use_true_random=False))
def test_pair_key_matches_search(case, rnd):
    # on every adjacent pair, boundary pairs included, two pairs have
    # equal keys exactly when a translation carries one onto the other;
    # the model edges only see interior pairs
    group, radius, r = case
    try:
        ball = build_ball(group, radius, cap=2000)
    except CapExceeded:
        assume(False)
    dec = compute_global_decomposition(ball, r)
    pairs = sorted(dec.adjacent_pairs)
    key = {(i, j): _pair_key(ball, dec.families, dec.bag_family[i],
                             dec.bags[i], dec.bag_family[j], dec.bags[j])
           for i, j in pairs}
    by_key, by_families = {}, {}
    for i, j in pairs:
        by_key.setdefault(key[i, j], []).append((i, j))
        by_families.setdefault(tuple(sorted(
            (dec.bag_family[i], dec.bag_family[j]))), []).append((i, j))
    # two pairs of one class, and two pairs of the same families, which
    # the search must tell apart by translating
    same = [c for c in by_key.values() if len(c) > 1]
    alike = [c for c in by_families.values() if len(c) > 1]
    checks = [rnd.sample(rnd.choice(same), 2) for _ in range(20) if same] \
        + [rnd.sample(rnd.choice(alike), 2) for _ in range(20) if alike]
    for p, q in checks:
        found = oracle.pairs_equivalent(
            ball, (dec.bags[p[0]], dec.bags[p[1]]),
            (dec.bags[q[0]], dec.bags[q[1]]))
        assert (key[p] == key[q]) == (found is not None)


def _c4_c2_c4_free_c4():
    """(C4 *_{C2} C4) * C4: three families of order 4, two of them
    sharing a C2, so the orbit numbers of tied families show in the
    model edges."""
    cyclic = FiniteGroupTable.cyclic
    gog = GraphOfGroups(
        [cyclic(4, "x"), cyclic(4, "y"), cyclic(4, "z")],
        [GogEdge(0, 1, cyclic(2, "c"), [0, 2], [0, 2], tree=True),
         GogEdge(1, 2, FiniteGroupTable.trivial(), [0], [0], tree=True)],
        ["C4", "C4", "C4"], name="c4_c2_c4_c4")
    gens = {s: [("v", i, 1)] for i, s in enumerate("xyz")}
    return GraphOfGroupsGroup(gog, gens, name="c4_c2_c4_c4")


# draws on which every bag adjacent to a family representative is
# interior, so that the identity reading is exact; the last has a tie in
# family size that the orbit numbering must break by keys
IDENTITY_EXACT = [(load_fixture("f2"), 8, 4), (load_fixture("c2*c3"), 8, 4),
                  (make_cyclic_amalgam(6, 3, 9), 12, 8),
                  (_c4_c2_c4_free_c4(), 7, 2)]


@pytest.mark.parametrize("case", IDENTITY_EXACT + EARLY_STOP,
                         ids=lambda c: f"{c[0].name}-{c[1]}-{c[2]}")
def test_identity_reading_exact_on_examples(case):
    group, radius, r = case
    ball = build_ball(group, radius)
    assert _read_at_identity(ball, maximal_finite_subgroups(ball, r)) \
        is not None


@example(IDENTITY_EXACT[0])
@example(IDENTITY_EXACT[1])
@example(IDENTITY_EXACT[2])
@example(IDENTITY_EXACT[3])
@settings(max_examples=100, deadline=None)
@given(_decomp_inputs())
def test_identity_reading_matches_scan(case):
    # where every bag adjacent to a family representative is interior,
    # the transcript fields read at the identity equal those read off the
    # full decomposition and its stabilizers
    group, radius, r = case
    try:
        ball = build_ball(group, radius, cap=20000)
    except CapExceeded:
        assume(False)
    dec = compute_global_decomposition(ball, r)
    fields = _read_at_identity(ball, dec.families)
    if fields is None:
        return  # the reading is not exact here, and discovery scans
    # the decomposition's class scan stops at the reading's class count,
    # so its edges are checked against a search over every interior pair
    assert dec.model_edges == oracle.model_edges(ball, dec.bags, dec.bag_orbit,
                                                 dec.adjacent_pairs)
    stabs = compute_stabilizers(dec)
    edges = sorted((e["u"], e["v"], e["adhesion_size"])
                   for e in dec.model_edges)
    assert fields == {
        "model_vertices": dec.model_vertex_count,
        "model_edges": len(dec.model_edges),
        "bag_sizes": dec.model_vertex_sizes,
        "stabilizer_orders": [s.order for s in stabs],
        "signature": (tuple(sorted(dec.model_vertex_sizes)), tuple(edges),
                      tuple(sorted(s.order for s in stabs)))}


def test_class_scan_stops_early(monkeypatch):
    # F2 has no torsion: its 4,373 bags are singletons and its 2 edge
    # classes are found among the first of its 1,456 interior pairs
    calls = []

    def counting(*args):
        calls.append(args)
        return _pair_key(*args)

    monkeypatch.setattr("gdecomp.decomp._pair_key", counting)
    dec = compute_global_decomposition(build_ball(load_fixture("f2"), 7), 3)
    interior = [(i, j) for i, j in dec.adjacent_pairs
                if dec.bag_orbit[i] is not None
                and dec.bag_orbit[j] is not None]
    assert len(dec.model_edges) == 2 and len(interior) == 1456
    assert 0 < len(calls) <= 10


def test_singleton_edges_join_untested(monkeypatch, sl2z_ball10):
    # a vertex in no coset lies in its singleton alone, which meets no
    # other bag, so only edges between two vertices in cosets are asked
    # whether they join bags: F2's bags are all singletons, and its
    # decomposition asks nothing beyond the identity reading's questions
    calls = []

    def counting(at_u, at_v):
        calls.append((list(at_u), list(at_v)))
        return _joins_bags(at_u, at_v)

    monkeypatch.setattr("gdecomp.decomp._joins_bags", counting)
    ball = build_ball(load_fixture("f2"), 7)
    dec = compute_global_decomposition(ball, 3)
    made = len(calls)
    calls.clear()
    _read_at_identity(ball, dec.families)
    assert made == len(calls) > 0
    assert len(dec.adjacent_pairs) == ball.edge_count

    # sl2z's boundary singletons have edges, none of them asked about
    calls.clear()
    dec = compute_global_decomposition(sl2z_ball10, 6)
    singles = {b for b, fi in zip(dec.bags, dec.bag_family) if fi < 0}
    assert any(frozenset((u,)) in singles or frozenset((v,)) in singles
               for u, v in sl2z_ball10.edge_pairs())
    assert calls and all(any(len(b) > 1 for b in at)
                         for pair in calls for at in pair)

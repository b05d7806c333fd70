from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gdecomp import cover
from gdecomp import (build_ball, build_truncated_cover, classify_cycle_lift,
                     enumerate_short_cycles, estimate_displacement,
                     lift_element_action, order_threshold,
                     verify_ball_preservation)
from gdecomp.cover import TruncatedCover
from gdecomp.cycles import closed_words
from gdecomp.errors import CapExceeded, UncertifiedRegion, VerificationFailure
from gdecomp.fixtures import load_fixture, make_cyclic_amalgam, make_free_group
from gdecomp.graphs import bfs
from gdecomp.groups import GraphOfGroupsGroup, MatrixGroup, multiply

from cover_oracle import build_truncated_cover as oracle_cover
from cover_oracle import lift_element_action as oracle_lift

SL2Z = load_fixture("sl2z")


def test_z5_cover_is_path(z5):
    ball = build_ball(z5, 8)
    cov = build_truncated_cover(ball, 4, 8)
    # the 5-cycle is not locally generated at r=4, so the cover unrolls
    # into a line segment
    assert cov.vertex_count == 17
    degrees = sorted(len(cov.neighbors(x)) for x in range(cov.vertex_count))
    assert degrees == [1, 1] + [2] * 15
    assert cov.certified_depth == 8


def test_z5_cover_closes_at_r5(z5):
    ball = build_ball(z5, 8)
    cov = build_truncated_cover(ball, 5, 5)
    assert cov.vertex_count == 5  # cover == base once the cycle closes


def test_z5_cycle_lift(z5):
    ball = build_ball(z5, 8)
    cyc = enumerate_short_cycles(ball, 5)[0]
    open_cov = build_truncated_cover(ball, 4, 8)
    closed_cov = build_truncated_cover(ball, 5, 5)
    assert classify_cycle_lift(open_cov, cyc) == "lifts-open"
    assert classify_cycle_lift(closed_cov, cyc) == "lifts-closed"


def test_z5_displacement_and_threshold(z5):
    ball = build_ball(z5, 8)
    cov = build_truncated_cover(ball, 4, 8)
    disp = estimate_displacement(cov)
    assert disp["delta"] == 5 and disp["exact"]
    assert order_threshold(5, 4) == Fraction(9, 4)


def test_z5_ball_preservation(z5):
    ball = build_ball(z5, 8)
    cov = build_truncated_cover(ball, 4, 8)
    assert verify_ball_preservation(cov, radius=2)["pass"]
    report = verify_ball_preservation(cov, radius=3)
    assert not report["pass"]
    assert report["witnesses"]  # cover radius-3 ball folds onto C5


def test_f2_cover_equals_ball(f2):
    ball = build_ball(f2, 4)
    cov = build_truncated_cover(ball, 3, 2)
    # trees have no cycles to unroll
    pool = [x for x in range(cov.vertex_count) if cov.node_depth[x] <= 2]
    assert len(pool) == build_ball(f2, 2).vertex_count
    assert estimate_displacement(cov)["delta"] is None


def test_sl2z_cover_frozen(sl2z, sl2z_ball10):
    cov = build_truncated_cover(sl2z_ball10, 6, 3)
    assert cov.vertex_count == 36
    assert cov.certified_depth == 3
    assert verify_ball_preservation(cov)["pass"]


def test_sl2z_relator_lifts_closed(sl2z_ball10):
    # length-<=6 cycles already force the full set of relations: the
    # word S T S T S^-1 T is a simple 6-cycle equal to (ST)^3 S^-2
    # modulo the central square commutator, so the length-8 relator
    # closes too
    cov = build_truncated_cover(sl2z_ball10, 6, 3)
    relator = ["S", "S", "T'", "S'", "T'", "S'", "T'", "S'"]
    column = {sym: k for k, (sym, _) in enumerate(sl2z_ball10.generators)}
    x = cov.root
    for sym in relator:
        x = cov.right[x][column[sym]]
        assert x >= 0
    assert x == cov.root
    assert estimate_displacement(cov)["delta"] is None


def test_sl2z_deck_lift_order(sl2z, sl2z_ball10):
    cov = build_truncated_cover(sl2z_ball10, 6, 3)
    S = sl2z.generators["S"]
    lift = lift_element_action(cov, S)
    assert len(lift.mapping) == 24
    assert lift.order_on_region() == 4


def test_depth_guard(z5):
    ball = build_ball(z5, 4)
    with pytest.raises(ValueError):
        build_truncated_cover(ball, 4, 8)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        build_truncated_cover(ball, 4, -1)


def test_node_cap_reached_is_cap(z5, monkeypatch):
    # r = 4 leaves the 5-cycle open, so the walk tree is a path of
    # 2 * (depth + r) + 1 = 25 nodes; like graphs.bfs, a cap of N raises
    # with reached == N before node N + 1 is added
    ball = build_ball(z5, 8)
    monkeypatch.setattr(cover, "NODE_CAP", 25)
    assert build_truncated_cover(ball, 4, 8).vertex_count == 17
    for cap in (1, 5, 24):
        monkeypatch.setattr(cover, "NODE_CAP", cap)
        with pytest.raises(CapExceeded) as exc:
            build_truncated_cover(ball, 4, 8)
        assert exc.value.reached == cap


@pytest.mark.parametrize("group, r, depth, size", [
    # relators of lengths 6, 10 and 8; expanding to depth + r = 15 passes
    # every node cap up to 20,000
    (make_cyclic_amalgam(6, 2, 10), 10, 5, 326),
    # T is x0*x1*x0*x0, and x1 is spelled with two letters; expanding to
    # depth + r passes 1,393 nodes here and for SL(2, Z)
    (load_fixture("c4*c2*c6"), 6, 3, 36),
    (SL2Z, 6, 3, 36),
])
def test_cover_read_from_ball_within_node_cap(group, r, depth, size,
                                             monkeypatch):
    # the presentation's walks close in the cover expanded to half the
    # longest, so the cover is B(depth) in ball order
    ball = build_ball(group, 10)
    monkeypatch.setattr(cover, "NODE_CAP", 500)
    cov = build_truncated_cover(ball, r, depth)
    assert cov.projection == ball.interior(depth) == list(range(size))
    assert cov.node_depth == ball.word_length[:size]
    assert cov.certified_depth == min(depth, 10 - r)
    _assert_coset_table(cov)


def test_generators_off_the_presentation_keep_the_enumeration():
    # Z generated by a = t^2 and b = t^3 has no relator, but the cover is
    # a tree below r = 5 (a^3 b^-2); the walks a t^-2 and b t^-3 stay open
    # there, so the enumeration runs, and once they close it is the ball
    f1 = make_free_group(1)
    group = GraphOfGroupsGroup(
        f1.gog, {"a": [("e", 0, 1)] * 2, "b": [("e", 0, 1)] * 3}, name="z23")
    ball = build_ball(group, 6)
    counts = []
    for r in (3, 4, 5):
        cov = build_truncated_cover(ball, r, 3)
        assert cov.to_json() == oracle_cover(ball, r, 3).to_json()
        counts.append(cov.vertex_count)
    assert counts == [53, 25, len(ball.interior(3))]


def test_deck_lift_inconsistent():
    # a hand-built table over the C5 ball: the path 0 -g-> 1 -g-> 2 -g-> 3
    # with 0 -g'-> 2 as well; lifting g sends the root to 1, so 1 -> 2 and
    # 2 -> 0 from the root, and then node 2 gets 0 and 3 from node 1
    ball = build_ball(load_fixture("z5"), 2)
    g, gi = ball.generators[0][1], ball.inv_gen[0]
    right = [[-1, -1] for _ in range(4)]
    for x, y in ((0, 1), (1, 2), (2, 3)):
        right[x][0], right[y][gi] = y, x
    right[0][gi] = 2
    cov = TruncatedCover(ball, 3, 2, [0, 1, 3, 4], right, [0, 1, 2, 2], 2)
    with pytest.raises(VerificationFailure,
                       match="deck lift inconsistent at cover vertex 2"):
        lift_element_action(cov, g)


def test_every_short_cycle_lifts_closed_all_fixtures(sl2z_ball10, c2c3, c4c2c6):
    # AGL(1, 5) = <a, b | a^5, b^4, b a b^-1 = a^2>: no anti-automorphism
    # fixes a and b, so a cycle's reversed labels need not close
    agl = MatrixGroup("agl15", 2, {"a": [[1, 1], [0, 1]],
                                   "b": [[2, 0], [0, 1]]}, modulus=5)
    cases = [(sl2z_ball10, 6), (build_ball(c2c3, 8), 4),
             (build_ball(c4c2c6, 8), 6), (build_ball(agl, 8), 5)]
    for ball, r in cases:
        cov = build_truncated_cover(ball, r, 2)
        for cyc in enumerate_short_cycles(ball, r):
            if all(ball.word_length[v] <= 2 for v in cyc.vertices):
                assert classify_cycle_lift(cov, cyc) == "lifts-closed"


@st.composite
def _covers_past_relators(draw):
    """C_a *_{C_c} C_b with a, b <= 9, with r its longest defining relator
    (x^a, y^b or x^(a/c) y^-(b/c)), or F_1..F_3 (no relators) with r = 3."""
    if draw(st.integers(0, 3)) == 0:
        return make_free_group(draw(st.integers(1, 3))), 3
    c = draw(st.integers(1, 9))
    order = st.integers(1, 9 // c).map(lambda i: c * i).filter(
        lambda n: n >= 2)
    a, b = draw(order), draw(order)
    return make_cyclic_amalgam(a, c, b), max(3, a, b, a // c + b // c)


@settings(max_examples=40, deadline=None)
@given(_covers_past_relators(), st.integers(1, 4))
def test_cover_is_cayley_graph_past_longest_relator(group_r, depth):
    # once r reaches the longest defining relator, the cover is the Cayley
    # graph itself: its certified nodes project one-to-one onto the ball
    group, r = group_r
    try:
        ball = build_ball(group, r + depth, cap=2000)
    except CapExceeded:
        assume(False)
    cov = build_truncated_cover(ball, r, depth)
    assert cov.certified_depth == depth
    assert sorted(cov.projection[x] for x in cov.certified_vertices()) \
        == ball.interior(depth)


@st.composite
def _cover_inputs(draw):
    """C_a *_{C_c} C_b with a, b <= 8, F_1..F_3, or SL(2, Z) in its matrix
    backend, with r drawn both below and at or above the longest defining
    relator, so that unrolled covers are compared as well as the Cayley
    graphs that are read from the ball once the relators close."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return make_free_group(draw(st.integers(1, 3))), draw(st.integers(3, 5))
    if kind == 1:
        return SL2Z, draw(st.integers(3, 8))
    c = draw(st.integers(1, 4))
    order = st.integers(1, 8 // c).map(lambda i: c * i).filter(
        lambda n: n >= 2)
    a, b = draw(order), draw(order)
    longest = max(3, a, b, a // c + b // c)
    return make_cyclic_amalgam(a, c, b), draw(st.integers(3, longest + 1))


def _assert_coset_table(cov):
    """Edges follow the base table and come in inverse pairs, a node below
    the depth has an edge for every generator that moves its base vertex
    within the ball (no hole), and every closed word walked from a node
    that completes returns to it."""
    ball = cov.base
    for x, row in enumerate(cov.right):
        v = cov.projection[x]
        for k, y in enumerate(row):
            if y >= 0:
                assert cov.projection[y] == ball.right[v][k]
                assert cov.right[y][ball.inv_gen[k]] == x
        if cov.node_depth[x] < cov.depth:
            assert [k for k, y in enumerate(row) if y >= 0] \
                == [k for k, w in enumerate(ball.right[v]) if w >= 0 and w != v]
    words = closed_words(ball, cov.r)
    for x in range(cov.vertex_count):
        for word in words:
            node = x
            for k in word:
                node = cov.right[node][k]
                if node < 0:
                    break
            else:
                assert node == x


@settings(max_examples=60, deadline=None)
@given(_cover_inputs(), st.integers(1, 4), st.integers(0, 3))
# a layer expanded in BFS order, or children created in generator order,
# number this cover differently
@example((make_cyclic_amalgam(2, 1, 4), 3), 3, 0)
# proper covers: r is below the longest relator, so the enumeration runs
@example((make_cyclic_amalgam(4, 2, 6), 3), 3, 1)
@example((make_cyclic_amalgam(4, 2, 6), 4), 2, 2)
@example((SL2Z, 4), 3, 1)
# no presentation (the sl3z spec has none), so the enumeration runs
@example((load_fixture("sl3z"), 3), 1, 0)
def test_cover_matches_full_rescan(group_r, depth, slack):
    # the queued build must give the same cover, numbering and depths
    # included, as rescanning every unsaturated node until nothing folds,
    # and the bounded displacement search the unbounded one's answer; a
    # small slack makes the ball's boundary cut walks near the cover's edge
    group, r = group_r
    try:
        ball = build_ball(group, max(depth, r // 2) + slack, cap=1500)
    except CapExceeded:
        assume(False)
    cov = build_truncated_cover(ball, r, depth)
    oracle = oracle_cover(ball, r, depth)
    assert cov.to_json() == oracle.to_json()
    assert cov.node_depth == oracle.node_depth
    _assert_coset_table(cov)
    assert estimate_displacement(cov) == _full_search_displacement(cov)


def _full_search_displacement(cov):
    """estimate_displacement by an unbounded BFS from every certified lift
    of every base vertex."""
    certified = cov.certified_vertices()
    best = None
    for s in certified:
        dist = bfs(cov.neighbors, s)
        for t in certified:
            if t != s and t in dist and cov.projection[t] == cov.projection[s] \
                    and (best is None or dist[t] < best):
                best = dist[t]
    return {"delta": best,
            "exact": best is not None and best <= cov.certified_depth,
            "certified_diameter": 2 * cov.certified_depth}


def _lift_or_error(lift, cov, gamma):
    try:
        return lift(cov, gamma).mapping
    except (UncertifiedRegion, VerificationFailure) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(_cover_inputs(), st.integers(1, 4), st.integers(0, 3), st.data())
def test_deck_lift_matches_base_vertex_lift(group_r, depth, slack, data):
    # following labels gives the lift, or the error, that mapping each
    # edge by the ball product gamma * v of its base vertex v gives
    group, r = group_r
    try:
        ball = build_ball(group, max(depth, r // 2) + slack, cap=1500)
    except CapExceeded:
        assume(False)
    cov = build_truncated_cover(ball, r, depth)
    gamma = ball.elements[data.draw(st.integers(0, ball.vertex_count - 1))]
    assert _lift_or_error(lift_element_action, cov, gamma) \
        == _lift_or_error(oracle_lift, cov, gamma)

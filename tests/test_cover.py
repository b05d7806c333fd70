from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gdecomp import (build_ball, build_truncated_cover, classify_cycle_lift,
                     enumerate_short_cycles, estimate_displacement,
                     lift_element_action, order_threshold,
                     verify_ball_preservation)
from gdecomp.errors import CapExceeded
from gdecomp.fixtures import make_cyclic_amalgam, make_free_group
from gdecomp.groups import multiply, normal_form

from cover_oracle import build_truncated_cover as oracle_cover


def test_z5_cover_is_path(z5):
    ball = build_ball(z5, 8)
    cov = build_truncated_cover(ball, 4, 8)
    # the 5-cycle is not locally generated at r=4, so the cover unrolls
    # into a line segment
    assert cov.vertex_count == 17
    degrees = sorted(len(cov.adj[x]) for x in range(cov.vertex_count))
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


def test_sl2z_relator_lifts_closed(sl2z, sl2z_ball10):
    # length-<=6 cycles already force the full set of relations: the
    # word S T S T S^-1 T is a simple 6-cycle equal to (ST)^3 S^-2
    # modulo the central square commutator, so the length-8 relator
    # closes too
    cov = build_truncated_cover(sl2z_ball10, 6, 3)
    relator = ["S", "S", "T'", "S'", "T'", "S'", "T'", "S'"]
    x = 0
    path = [sl2z_ball10.locate(normal_form(sl2z, relator[: i + 1]))
            for i in range(len(relator))]
    assert cov.walk(x, path) == x
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


def test_node_cap_reached_is_cap(z5):
    # r = 4 leaves the 5-cycle open, so the walk tree is a path of
    # 2 * (depth + r) + 1 = 25 nodes; like graphs.bfs, a cap of N raises
    # with reached == N before node N + 1 is added
    ball = build_ball(z5, 8)
    assert build_truncated_cover(ball, 4, 8, node_cap=25).vertex_count == 17
    for cap in (1, 5, 24):
        with pytest.raises(CapExceeded) as exc:
            build_truncated_cover(ball, 4, 8, node_cap=cap)
        assert exc.value.reached == cap


def test_every_short_cycle_lifts_closed_all_fixtures(sl2z_ball10, c2c3, c4c2c6):
    cases = [(sl2z_ball10, 6), (build_ball(c2c3, 8), 4),
             (build_ball(c4c2c6, 8), 6)]
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
    """C_a *_{C_c} C_b with a, b <= 8, or F_1..F_3, with r drawn both
    below and at or above the longest defining relator, so that unrolled
    covers are compared as well as Cayley graphs."""
    if draw(st.integers(0, 3)) == 0:
        return make_free_group(draw(st.integers(1, 3))), draw(st.integers(3, 5))
    c = draw(st.integers(1, 4))
    order = st.integers(1, 8 // c).map(lambda i: c * i).filter(
        lambda n: n >= 2)
    a, b = draw(order), draw(order)
    longest = max(3, a, b, a // c + b // c)
    return make_cyclic_amalgam(a, c, b), draw(st.integers(3, longest + 1))


@settings(max_examples=60, deadline=None)
@given(_cover_inputs(), st.integers(1, 4), st.integers(0, 3))
def test_cover_matches_full_rescan(group_r, depth, slack):
    # the queued build must give the same cover, numbering included, as
    # rescanning every unsaturated node until nothing folds; a small slack
    # makes the ball's boundary cut walks near the cover's edge
    group, r = group_r
    try:
        ball = build_ball(group, max(depth, r // 2) + slack, cap=1500)
    except CapExceeded:
        assume(False)
    assert build_truncated_cover(ball, r, depth).to_json() \
        == oracle_cover(ball, r, depth).to_json()

from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from cycle_oracle import simple_cycles
from gdecomp import (build_ball, enumerate_short_cycles,
                     verify_short_cycle_cosets)
from gdecomp.cayley import (coset_subgraph, subgraph_diameter,
                            torsion_length_bound)
from gdecomp.cycles import Cycle
from gdecomp.errors import CapExceeded
from gdecomp.fixtures import (load_fixture, make_cyclic_amalgam,
                              make_free_group)
from gdecomp.groups import inverse, multiply


def powers(group, g, n):
    out, acc = [], group.identity
    for _ in range(n):
        out.append(acc)
        acc = multiply(acc, g)
    return out


def test_sl2z_ball_sizes(sl2z, sl2z_ball10):
    assert build_ball(sl2z, 1).vertex_count == 5
    assert build_ball(sl2z, 8).vertex_count == 560
    assert sl2z_ball10.vertex_count == 1492
    layers = sl2z_ball10.layer_counts()
    assert layers[0] == 1 and layers[1] == 4
    assert sum(layers) == 1492


def test_f2_ball_is_tree(f2):
    ball = build_ball(f2, 2)
    assert ball.vertex_count == 17
    assert ball.edge_count == 16  # tree: V - 1


def test_z5_ball_is_cycle(z5):
    ball = build_ball(z5, 4)
    assert ball.vertex_count == 5
    assert ball.edge_count == 5
    assert all(len(ball.adj[v]) == 2 for v in range(5))


def test_ball_cap():
    from gdecomp.fixtures import load_fixture
    with pytest.raises(CapExceeded):
        build_ball(load_fixture("f2"), 8, cap=100)


def test_locate_and_edge_labels(sl2z, sl2z_ball10):
    S = sl2z.generators["S"]
    i = sl2z_ball10.locate(S)
    assert i is not None and sl2z_ball10.word_length[i] == 1
    assert sl2z_ball10.edge_label(0, i) == "S"


def test_coset_subgraphs(sl2z, sl2z_ball10):
    S = sl2z.generators["S"]
    T = sl2z.generators["T"]
    s_coset, complete = coset_subgraph(sl2z_ball10, powers(sl2z, S, 4),
                                       sl2z.identity)
    assert complete and len(s_coset) == 4
    assert subgraph_diameter(sl2z_ball10, s_coset) == 2
    st_coset, complete = coset_subgraph(sl2z_ball10,
                                        powers(sl2z, multiply(S, T), 6),
                                        sl2z.identity)
    assert complete and len(st_coset) == 6
    # <ST> cosets span no Cayley edges: no generator is a power of ST
    assert subgraph_diameter(sl2z_ball10, st_coset) is None


def test_short_cycle_cosets_r4(sl2z, sl2z_ball8):
    S = sl2z.generators["S"]
    ST = multiply(S, sl2z.generators["T"])
    candidates = [powers(sl2z, S, 4), powers(sl2z, ST, 6),
                  powers(sl2z, multiply(S, S), 2)]
    report = verify_short_cycle_cosets(sl2z_ball8, 4, candidates)
    # every 4-cycle is an <S>-coset square
    assert report["pass"] and report["cycles_checked"] == 105


def test_short_cycle_cosets_r6_violations(sl2z, sl2z_ball10):
    # the central commutator S^2 T S^-2 T^-1 is a 6-cycle in no single
    # coset; the coset claim fails at r = 6
    S = sl2z.generators["S"]
    ST = multiply(S, sl2z.generators["T"])
    candidates = [powers(sl2z, S, 4), powers(sl2z, ST, 6),
                  powers(sl2z, multiply(S, S), 2)]
    report = verify_short_cycle_cosets(sl2z_ball10, 6, candidates)
    assert not report["pass"]
    assert report["cycles_checked"] == 2707
    assert len(report["violations"]) == 2424
    labels = {v.canonical for v in report["violations"]}
    # the central square commutator is among the violating words
    assert any("T" in "".join(lab) for lab in labels)


def test_torsion_length_bound(c2c3, c4c2c6):
    # inverse generators make b^2 = b' and T^3 = S^2 short
    assert torsion_length_bound(c2c3) == 1
    assert torsion_length_bound(c4c2c6) == 2


def test_ball_json_deterministic(z5):
    a = build_ball(z5, 3).to_json()
    b = build_ball(z5, 3).to_json()
    assert a == b
    assert {"vertices", "edges", "radius"} <= set(a)


# the right-multiplication table against group arithmetic, on small balls
# of C_a *_{C_c} C_b and F_n

@lru_cache(maxsize=None)
def _table_group(family, params):
    return (make_cyclic_amalgam(*params) if family == "amalgam"
            else make_free_group(*params))


@lru_cache(maxsize=None)
def _table_ball(family, params, radius):
    return build_ball(_table_group(family, params), radius)


_amalgams = st.tuples(st.integers(1, 3), st.integers(1, 3),
                      st.integers(1, 3)).filter(
    lambda t: t[0] * t[1] >= 2 and t[0] * t[2] >= 2).map(
    lambda t: ("amalgam", (t[0] * t[1], t[0], t[0] * t[2])))
_free = st.integers(1, 3).map(lambda n: ("free", (n,)))
_balls = st.tuples(st.one_of(_amalgams, _free), st.integers(0, 4)).map(
    lambda t: _table_ball(t[0][0], t[0][1], t[1]))


def _arith_label(ball, u, v):
    """Least generator symbol s with elements[u] * s == elements[v]."""
    x, y = ball.elements[u], ball.elements[v]
    return min((sym for sym, g in ball.generators if multiply(x, g) == y),
               default=None)


@settings(max_examples=60, deadline=None)
@given(_balls, st.data())
def test_table_products_match_arithmetic(ball, data):
    vertex = st.integers(0, ball.vertex_count - 1)
    u, v, w = data.draw(vertex), data.draw(vertex), data.draw(vertex)
    x, y, z = (ball.elements[i] for i in (u, v, w))
    assert ball.product(u, v) == ball.locate(multiply(x, y))
    assert ball.product(u, v, w) == ball.locate(multiply(multiply(x, y), z))
    assert ball.inverse(v) == ball.locate(inverse(y))


@settings(max_examples=60, deadline=None)
@given(_balls, st.data())
def test_table_labels_match_arithmetic(ball, data):
    u = data.draw(st.integers(0, ball.vertex_count - 1))
    for v in ball.adj[u]:
        assert ball.edge_label(u, v) == _arith_label(ball, u, v)
        assert ball.edge_label(v, u) == _arith_label(ball, v, u)


@settings(max_examples=30, deadline=None)
@given(_balls)
def test_table_edges_match_arithmetic(ball):
    expected = {}
    for u, x in enumerate(ball.elements):
        for sym, g in ball.generators:
            v = ball.locate(multiply(x, g))
            if v is not None and v != u:
                labels = expected.setdefault((min(u, v), max(u, v)), set())
                if u < v:
                    labels.add(sym)
    assert ball.edges() == [(u, v, sorted(expected[(u, v)]))
                            for u, v in sorted(expected)]
    assert ball.edge_count == len(expected)


@pytest.mark.filterwarnings("ignore:ball radius")
@settings(max_examples=60, deadline=None)
@given(_balls, st.data())
def test_cycles_match_vertex_dfs(ball, data):
    # translates of the closed words at vertex 0 against a DFS over every
    # vertex of the ball, labelled edge by edge
    assume(ball.radius >= 1)
    r = data.draw(st.integers(3, 2 * ball.radius + 1))
    expected = [Cycle(vs, [ball.edge_label(u, v)
                           for u, v in zip(vs, vs[1:] + vs[:1])])
                for vs in simple_cycles(ball.adj, r)]
    expected.sort(key=lambda c: (len(c), c.canonical, c.vertices))
    assert [c.to_json() for c in enumerate_short_cycles(ball, r)] \
        == [c.to_json() for c in expected]


# a ball cut from a larger one, or grown out of a smaller one, against a
# fresh build at its radius

def _table_fields(ball):
    return ([g.data for g in ball.elements], ball.index, ball.word_length,
            ball.words, ball.right, ball.adj, ball.generators, ball.radius)


_resize_groups = st.one_of(
    st.one_of(_amalgams, _free).map(lambda t: _table_group(*t)),
    st.just(load_fixture("sl2z")))


@settings(max_examples=60, deadline=None)
@given(_resize_groups, st.integers(0, 5), st.integers(0, 5))
def test_resized_balls_match_fresh_builds(group, r1, r2):
    r1, r2 = min(r1, r2), max(r1, r2)
    small, large = build_ball(group, r1), build_ball(group, r2)
    before = _table_fields(small), _table_fields(large)
    cut = build_ball(group, r1, ball=large)
    grown = build_ball(group, r2, ball=small)
    assert _table_fields(cut) == _table_fields(small)
    assert _table_fields(grown) == _table_fields(large)
    # the given balls are left as they were
    assert (_table_fields(small), _table_fields(large)) == before

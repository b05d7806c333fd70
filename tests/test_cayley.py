from functools import lru_cache, reduce
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cycle_oracle import coset_report, labelled_cycles
from gdecomp import (build_ball, cayley, enumerate_short_cycles,
                     verify_short_cycle_cosets)
from gdecomp.cayley import torsion_length_bound
from gdecomp.cycles import closed_words
from gdecomp.errors import CapExceeded
from gdecomp.fixtures import (load_fixture, make_cyclic_amalgam,
                              make_free_group)
from gdecomp.graphs import bfs
from gdecomp.groups import GroupElement, MatrixGroup, inverse, multiply


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
    assert all(len(ball.neighbors(v)) == 2 for v in range(5))


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
    ball = sl2z_ball10
    S = ball.point(sl2z.generators["S"])
    ST = ball.mul(S, ball.point(sl2z.generators["T"]))

    def coset_at_identity(g, n):
        # the powers 1, g, ..., g^(n-1): all ball vertices here
        powers = [0]
        for _ in range(n - 1):
            powers.append(ball.mul(powers[-1], g))
        assert all(type(p) is int for p in powers)
        return set(powers)

    s_coset = coset_at_identity(S, 4)
    assert len(s_coset) == 4
    # the <S> coset's induced subgraph is connected, of diameter 2
    dists = [bfs(lambda u: (w for w in ball.neighbors(u) if w in s_coset), v)
             for v in s_coset]
    assert all(len(d) == 4 for d in dists)
    assert max(max(d.values()) for d in dists) == 2
    st_coset = coset_at_identity(ST, 6)
    assert len(st_coset) == 6
    # <ST> cosets span no Cayley edges: no generator is a power of ST
    assert not any(w in st_coset for v in st_coset for w in ball.neighbors(v))


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
    # the central square commutator is among the violating words, so
    # some violating word uses T or T'
    t_cols = {k for k, (sym, _) in enumerate(sl2z_ball10.generators)
              if sym in ("T", "T'")}
    assert any(t_cols & set(word) for _, word in report["violations"])


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
# of C_a *_{C_c} C_b, F_n, and C5 with the identity among its generators,
# whose rows each hold their own vertex

@lru_cache(maxsize=None)
def _table_group(family, params):
    if family == "loop":
        return MatrixGroup("loop", 2, {"e": [[1, 0], [0, 1]],
                                       "t": [[1, 1], [0, 1]]}, modulus=5)
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
_balls = st.tuples(st.one_of(_amalgams, _free, st.just(("loop", ()))),
                   st.integers(0, 4)).map(
    lambda t: _table_ball(t[0][0], t[0][1], t[1]))


def _neighbor_lists(ball):
    return [ball.neighbors(v) for v in range(ball.vertex_count)]


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
    assert ball.mul(u, v) == ball.point(multiply(x, y))
    assert ball.mul(ball.mul(u, v), w) == ball.point(multiply(multiply(x, y), z))
    assert ball.inverse(v) == ball.locate(inverse(y))
    # points: vertices, or elements of words up to twice the radius + 2,
    # which mostly lie outside the ball
    gens = [g for _, g in ball.generators]
    word = st.lists(st.sampled_from(gens), max_size=2 * ball.radius + 2)
    for _ in range(3):
        x, y = (reduce(multiply, data.draw(word), ball.group.identity)
                for _ in range(2))
        p, q = ball.index.get(x.data, x), ball.index.get(y.data, y)
        xy = multiply(x, y)
        assert ball.mul(p, q) == ball.index.get(xy.data, xy)
        assert ball.mul(u, q) == ball.point(multiply(ball.elements[u], y))


@settings(max_examples=60, deadline=None)
@given(_balls, st.data())
def test_table_labels_match_arithmetic(ball, data):
    u = data.draw(st.integers(0, ball.vertex_count - 1))
    x = ball.elements[u]
    assert ball.neighbors(u) == sorted(
        {ball.locate(multiply(x, g)) for _, g in ball.generators} - {None, u})
    for v in ball.neighbors(u):
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
    cycles = enumerate_short_cycles(ball, r)
    assert sorted(cycles) == sorted(labelled_cycles(ball, r))
    # per word in closed_words order, its translates by least vertex
    words = closed_words(ball, r)
    assert cycles == sorted(cycles, key=lambda c: (words.index(c[1]), c[0][0]))


@pytest.mark.filterwarnings("ignore:ball radius")
@settings(max_examples=100, deadline=None)
@given(_balls, st.data())
def test_coset_verdicts_per_word_match_per_cycle(ball, data):
    # one verdict per word, from its prefix vertices at 0, against the
    # quotients of each cycle's first vertex. Any vertex sets will do as
    # candidates, as both rules test the same quotient set against them;
    # drawing some as a closed word's walk at 0 lets a ball's verdicts mix
    assume(ball.radius >= 1)
    r = data.draw(st.integers(3, 2 * ball.radius + 1))
    right, words = ball.right, closed_words(ball, r)
    walks = [set(accumulate(w, lambda v, k: right[v][k], initial=0))
             for w in words]
    vertex_sets = st.sets(st.sampled_from(ball.interior(r // 2)))
    subs = data.draw(st.lists(
        st.one_of(vertex_sets, st.sampled_from(walks)) if walks
        else vertex_sets, max_size=3))
    _assert_coset_report(ball, r, subs)


def test_coset_verdicts_match_per_cycle_sl2z(sl2z, sl2z_ball8):
    S = sl2z.generators["S"]
    ST = multiply(S, sl2z.generators["T"])
    candidates = [powers(sl2z, S, 4), powers(sl2z, ST, 6),
                  powers(sl2z, multiply(S, S), 2)]
    subs = [{sl2z_ball8.locate(g) for g in hs} - {None} for hs in candidates]
    for r in (4, 5, 6):
        _assert_coset_report(sl2z_ball8, r, subs)


def _assert_coset_report(ball, r, subs):
    report = verify_short_cycle_cosets(
        ball, r, [[ball.elements[v] for v in h] for h in subs])
    expected = coset_report(ball, r, subs)
    assert report["cycles_checked"] == expected["cycles_checked"]
    assert sorted(report["violations"]) == expected["violations"]
    assert report["pass"] == (not expected["violations"])


# a ball cut from a larger one, or grown out of a smaller one, against a
# fresh build at its radius

def _table_fields(ball):
    return ([g.data for g in ball.elements], ball.index, ball.word_length,
            ball.words, ball.right, _neighbor_lists(ball), ball.generators,
            ball.inv_gen, ball.radius)


_resize_groups = st.one_of(
    st.one_of(_amalgams, _free).map(lambda t: _table_group(*t)),
    st.just(load_fixture("sl2z")))


# the outermost layers of these balls hold edges within the layer, which
# the boundary rows' lookup-only pass fills: a^2 * a = a^-2 in C5 at
# radius 2, and b * b = b' in C2 * C3 at radius 1
@example(load_fixture("z5"), 1, 2)
@example(load_fixture("z5"), 0, 2)
@example(load_fixture("c2*c3"), 0, 1)
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


# each edge's product is formed once, from its earlier end: a fresh build
# forms exactly the products of the entries that leave the ball or point
# to a later vertex, and a grown one those of them that its given ball
# had not filled

class _CountingGroup:
    """A group whose right multipliers count the products they form."""

    def __init__(self, group):
        self.group, self.products = group, 0

    def __getattr__(self, name):
        return getattr(self.group, name)

    def right_multiplier(self, g):
        times = self.group.right_multiplier(g)

        def counted(x):
            self.products += 1
            return times(x)
        return counted


def _formed_products(ball, given=None):
    """The products a build of `ball` forms, out of `given` if one is
    given: the entries that leave the ball or point to a later vertex,
    less those that `given` already fills."""
    filled = given.right if given is not None else []
    return sum(1 for v, row in enumerate(ball.right) for k, j in enumerate(row)
               if (j == -1 or j >= v)
               and not (v < len(filled) and filled[v][k] >= 0))


# the examples' outermost layers hold edges within the layer (see
# test_resized_balls_match_fresh_builds)
@example(build_ball(load_fixture("sl2z"), 8))
@example(build_ball(load_fixture("z5"), 2))
@example(build_ball(load_fixture("c2*c3"), 1))
@settings(max_examples=30, deadline=None)
@given(_balls)
def test_ball_forms_each_edge_once(ball):
    counting = _CountingGroup(ball.group)
    fresh = build_ball(counting, ball.radius)
    assert fresh.right == ball.right
    assert counting.products == _formed_products(fresh)
    for r in range(ball.radius):
        small = build_ball(ball.group, r)
        counting = _CountingGroup(ball.group)
        grown = build_ball(counting, ball.radius, ball=small)
        assert grown.right == ball.right
        assert counting.products == _formed_products(grown, small)


# a build makes one element per new vertex: products are formed and looked
# up as element data

@pytest.mark.parametrize("name, r1, r2", [("f2", 3, 5), ("sl2z", 4, 8),
                                          ("c4*c2*c6", 3, 6), ("z5", 1, 2),
                                          ("c2*c3", 0, 1)])
def test_ball_makes_one_element_per_new_vertex(monkeypatch, name, r1, r2):
    made = []

    def counted(data, group):
        made.append(data)
        return GroupElement(data, group)

    monkeypatch.setattr(cayley, "GroupElement", counted)
    group = load_fixture(name)
    small = build_ball(group, r1)
    assert made == [g.data for g in small.elements[1:]]
    del made[:]
    large = build_ball(group, r2, ball=small)
    assert made == [g.data for g in large.elements[small.vertex_count:]]
    del made[:]
    build_ball(group, r1, ball=large)
    assert made == []


# every table entry and inverse index against arithmetic, on matrix
# backends, for fresh, cut and grown balls

_matrix_radius = {"sl2z": 5, "sl3z": 3, "agl15": 5}


@lru_cache(maxsize=None)
def _matrix_group(name):
    if name == "agl15":
        return MatrixGroup("agl15", 2, {"a": [[1, 1], [0, 1]],
                                        "b": [[2, 0], [0, 1]]}, modulus=5)
    return load_fixture(name)


def _assert_table_matches_arithmetic(ball):
    gens = [g for _, g in ball.generators]
    for x, row in zip(ball.elements, ball.right):
        assert row == [ball.index.get(multiply(x, g).data, -1) for g in gens]
    identity = ball.group.identity.data
    assert [multiply(g, gens[k]).data for g, k in zip(gens, ball.inv_gen)] \
        == [identity] * len(gens)


@example("sl2z", 0, 2)
@example("sl3z", 0, 1)
@example("agl15", 1, 2)
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_matrix_radius)), st.integers(0, 5),
       st.integers(0, 5))
def test_matrix_tables_match_arithmetic(name, r1, r2):
    r1, r2 = min(r1, r2), max(r1, r2)
    assume(r2 <= _matrix_radius[name])
    group = _matrix_group(name)
    small, large = build_ball(group, r1), build_ball(group, r2)
    for ball in (small, large, build_ball(group, r1, ball=large),
                 build_ball(group, r2, ball=small)):
        _assert_table_matches_arithmetic(ball)
    # the given balls are left as they were
    _assert_table_matches_arithmetic(small)
    _assert_table_matches_arithmetic(large)

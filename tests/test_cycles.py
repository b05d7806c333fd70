import pytest
from hypothesis import given, settings, strategies as st

from cycle_oracle import simple_cycles as py_cycles
from gdecomp import build_ball, enumerate_short_cycles
from gdecomp.cycles import closed_words
from gdecomp.fixtures import FIXTURES, load_fixture
from gdecomp.groups import invert_word, parse_word, render_word


def test_counts_frozen(sl2z_ball8, sl2z_ball10):
    assert len(enumerate_short_cycles(sl2z_ball8, 4)) == 105
    assert len(enumerate_short_cycles(sl2z_ball10, 6)) == 2707


def test_cycle_shape(sl2z_ball8):
    cycles = enumerate_short_cycles(sl2z_ball8, 4)
    first = cycles[0]
    assert first.vertices == (0, 1, 5, 3)
    assert first.labels == ("S", "S", "S", "S")
    for c in cycles:
        assert 3 <= len(c.vertices) <= 4
        assert len(c.labels) == len(c.vertices)


def test_z5_single_cycle(z5):
    ball = build_ball(z5, 4)
    assert enumerate_short_cycles(ball, 4) == []
    with pytest.warns(UserWarning, match="ball radius"):
        cycles = enumerate_short_cycles(ball, 5)
    assert len(cycles) == 1
    assert len(cycles[0].vertices) == 5


def test_f2_no_cycles(f2):
    ball = build_ball(f2, 3)
    with pytest.warns(UserWarning, match="ball radius"):
        assert enumerate_short_cycles(ball, 6) == []


def test_r_minimum(sl2z_ball8):
    with pytest.raises(ValueError):
        enumerate_short_cycles(sl2z_ball8, 2)


def test_invert_symbol():
    # the inverse rule cycle labels share with every other word reader
    assert render_word(invert_word(parse_word(["S"]))) == "S'"
    assert render_word(invert_word(parse_word(["S'"]))) == "S"


def test_canonical_rotation_invariant(sl2z_ball8):
    # the canonical form dedups rotations and the reversed traversal, so
    # the 105 cycles have 105 distinct (canonical, vertex-set) pairs
    cycles = enumerate_short_cycles(sl2z_ball8, 4)
    seen = {(c.canonical, frozenset(c.vertices)) for c in cycles}
    assert len(seen) == len(cycles)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_closed_words_closed_under_rotation_and_reversal(name):
    # the cover scans an edge labelled k over the words that start with
    # k, which sees every short cycle through the edge only because of this
    ball = build_ball(load_fixture(name), 4)
    inv = ball.inv_gen
    for r in range(3, 9):
        words = set(closed_words(ball, r))
        assert {w[i:] + w[:i] for w in words for i in range(len(w))} == words
        assert {tuple(inv[k] for k in reversed(w)) for w in words} == words


@st.composite
def small_graphs(draw):
    n = draw(st.integers(3, 8))
    edges = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] < e[1]),
        max_size=14))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(ns) for ns in adj]


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(3, 6))
def test_cycles_are_simple_closed(adj, max_len):
    for cyc in py_cycles(adj, max_len):
        assert 3 <= len(cyc) <= max_len
        assert len(set(cyc)) == len(cyc)
        for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
            assert b in adj[a]

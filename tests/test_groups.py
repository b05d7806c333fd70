import json
from functools import cache, reduce
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import normalform_oracle as oracle
from gdecomp import subgroups
from gdecomp.cayley import build_ball
from gdecomp.errors import (BackendMismatch, CapExceeded, SpecFormatError,
                            UnknownGenerator, VerificationFailure)
from gdecomp.fixtures import (fixture_path, load_fixture, make_cyclic_amalgam,
                              make_cyclic_group, make_free_group)
from gdecomp.groups import (FiniteGroupTable, GogEdge, GraphOfGroups,
                            GraphOfGroupsGroup, GroupElement, MatrixGroup,
                            element_order, inverse, load_group, multiply,
                            normal_form)
from gdecomp.groups.matrix import mat_det, mat_inv, mat_mul


def cyclic_table(n):
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroupTable(mul, [f"g{i}" for i in range(n)])


def test_table_verification():
    t = cyclic_table(6)
    assert t.verify()
    assert t.element_order(1) == 6
    assert t.element_order(3) == 2
    bad = [[0, 1], [1, 1]]
    with pytest.raises(VerificationFailure):
        FiniteGroupTable(bad, ["e", "x"]).verify()


def test_minimal_generators_cyclic():
    assert cyclic_table(5).minimal_generators() == (1,)


@given(st.integers(2, 12))
def test_cyclic_group_arithmetic(n):
    g = make_cyclic_group(n)
    x = g.generators["g"]
    assert element_order(x, 64) == n
    acc = g.identity
    for _ in range(n):
        acc = multiply(acc, x)
    assert acc == g.identity


def test_matrix_arithmetic(sl2z):
    S = sl2z.generators["S"]
    T = sl2z.generators["T"]
    assert element_order(S, 16) == 4
    assert element_order(multiply(S, T), 16) == 6
    assert element_order(T, 16) is None  # infinite order
    assert mat_det(S.data) == 1
    assert mat_mul(S.data, mat_inv(S.data)) == sl2z.identity.data
    minus_i = multiply(S, S)
    assert minus_i.data == ((-1, 0), (0, -1))
    # -I is central
    assert multiply(minus_i, T) == multiply(T, minus_i)


def test_element_identity(sl2z, c4c2c6):
    # an element is its data and its group: equal data from two loads of
    # one fixture are equal elements, but only one group multiplies them
    S, T = sl2z.generators["S"], c4c2c6.generators["T"]
    with pytest.raises(BackendMismatch):
        multiply(S, T)
    for name in ("sl2z", "c4*c2*c6"):
        a, b = load_fixture(name), load_fixture(name)
        for gname, x in a.generators.items():
            y = b.generators[gname]
            assert x == y and hash(x) == hash(y)
            with pytest.raises(BackendMismatch):
                multiply(x, y)
    # a matrix's data is a tuple and a normal form's a str
    matrices = [sl2z.identity, *sl2z.generators.values()]
    normal_forms = [c4c2c6.identity, *c4c2c6.generators.values()]
    assert not any(x == y or y == x for x in matrices for y in normal_forms)


def test_congruence_orders(monkeypatch):
    sl2z = load_fixture("sl2z")
    assert subgroups.congruence_hom(sl2z, 2).order == 6
    assert subgroups.congruence_hom(sl2z, 3).order == 24
    # |SL(2, Z/5)| = 120: the enumeration stops at its cap
    monkeypatch.setattr(subgroups, "QUOTIENT_CAP", 10)
    with pytest.raises(CapExceeded) as exc:
        subgroups.congruence_hom(sl2z, 5)
    assert exc.value.reached == 10
    assert str(exc.value) == "finite quotient exceeded QUOTIENT_CAP 10 elements"


def test_normal_form_words(sl2z):
    w = normal_form(sl2z, ["S", "T", "S'", "T'"])
    back = normal_form(sl2z, ["T", "S", "T'", "S'"])
    assert multiply(w, back) == sl2z.identity


def test_inverse_symbols(sl2z):
    # an inverse is written X' or X^-1, and no other way
    S, T = sl2z.generators["S"], sl2z.generators["T"]
    assert normal_form(sl2z, ["S'", "T^-1"]) \
        == multiply(inverse(S), inverse(T))
    for sym in ("S-", "S^1", "S''", "S^-1'", "s"):
        with pytest.raises(UnknownGenerator, match="unknown generator symbol"):
            normal_form(sl2z, [sym])


def test_spec_words_take_inverse_symbols():
    # a spec's relators and torsion words are read by the same parser
    spec = json.loads(fixture_path("sl2z").read_text())
    primed = subgroups.presentation_from_group(load_group(spec))
    spec["presentation"]["relators"] = [
        [s.replace("'", "^-1") for s in r]
        for r in spec["presentation"]["relators"]]
    assert subgroups.presentation_from_group(load_group(spec)).relators \
        == primed.relators
    spec["torsion_words"] = [["S-"]]
    with pytest.raises(SpecFormatError, match="names no generator 'S-'"):
        load_group(spec)


def test_gog_relations(c2c3):
    a = c2c3.generators["a"]
    b = c2c3.generators["b"]
    assert element_order(a, 8) == 2
    assert element_order(b, 8) == 3
    assert element_order(multiply(a, b), 64) is None


def test_amalgam_edge_relation(c4c2c6):
    # SL(2,Z)-style generators: S^2 = (ST)^3 is the amalgamated C2
    S = c4c2c6.generators["S"]
    T = c4c2c6.generators["T"]
    st = multiply(S, T)
    assert multiply(S, S) == multiply(st, multiply(st, st))
    assert element_order(S, 8) == 4
    assert element_order(T, 8) is None
    assert element_order(st, 8) == 6


def test_make_cyclic_amalgam():
    g = make_cyclic_amalgam(6, 3, 12)
    x = g.generators["x"]
    y = g.generators["y"]
    assert element_order(x, 16) == 6
    assert element_order(y, 16) == 12
    # x^2 and y^4 generate the shared C3
    assert multiply(x, x) == multiply(multiply(y, y), multiply(y, y))


def test_free_group_no_torsion():
    g = make_free_group(2)
    for name in g.generators:
        assert element_order(g.generators[name], 32) is None


@given(st.lists(st.sampled_from(["a", "b", "a'", "b'"]), max_size=8))
def test_gog_inverse_involution(word):
    g = load_fixture("c2*c3")
    x = normal_form(g, word)
    assert inverse(inverse(x)) == x
    assert multiply(x, inverse(x)) == g.identity


# Normalization from the join against the full normalization of the
# joined words: f2 has loop edges, c4*c2*c6 and the amalgams nontrivial
# edge groups. The reference works on item tuples; an element's packed
# data is decoded by `group.items`, and `_element` packs items.

def _element(group, items):
    return GroupElement("".join(map(group._item_char.__getitem__, items)),
                        group)


@cache
def _normal_form_group(spec):
    if isinstance(spec, str):
        return load_fixture(spec)
    if len(spec) == 1:
        return make_free_group(*spec)
    return make_cyclic_amalgam(*spec)


@st.composite
def _normal_form_cases(draw):
    """(group, a, b). A third of the time b = a^-1 * g for a short g, so
    that pinches cascade across the join through the whole of a, and a
    third of the time b is long, so that a carry can run far into it. The
    products are built with the reference normalization, a^-1 with `inv`,
    which normalizes from the start."""
    kind = draw(st.sampled_from(["fixture", "amalgam", "free"]))
    if kind == "fixture":
        spec = draw(st.sampled_from(["f2", "c4*c2*c6", "amalgam"]))
    elif kind == "free":
        spec = (draw(st.integers(1, 3)),)
    else:
        c = draw(st.integers(1, 4))
        order = st.sampled_from(range(max(2, c), 9)).filter(
            lambda n: n % c == 0)
        spec = (draw(order), c, draw(order))
    group = _normal_form_group(spec)
    gens = [g for _, g in group.gen_symbols()]

    def word(max_len):
        acc = group.identity
        for g in draw(st.lists(st.sampled_from(gens), max_size=max_len)):
            acc = _element(group, oracle.op_data(group, acc, g))
        return acc

    a = word(12)
    shape = draw(st.sampled_from(["cancel", "short", "long"]))
    if shape == "cancel":
        b = _element(group, oracle.op_data(group, inverse(a), word(3)))
    else:
        b = word(12 if shape == "short" else 40)
    return group, a, b


@settings(max_examples=300, deadline=None)
@given(_normal_form_cases())
def test_normalization_from_join_matches_full(case):
    group, a, b = case
    items = group.items
    assert items(group.op(a, b).data) == oracle.op_data(group, a, b)
    for v in range(len(group.gog.vertices)):
        assert items(group.coset_word(v, a, b)[:-1]) \
            == oracle.coset_key_data(group, v, a, b)
        assert items(group.coset_word(v, a)[:-1]) \
            == oracle.coset_key_data(group, v, a)
        # a translate of a coset's normal path word, as a tree action
        # normalizes it
        word = oracle.coset_word_data(group, v, b)
        assert items(group.coset_word(v, b)) == word
        packed = _element(group, word).data
        assert items(group.translate_word(a, packed)) \
            == oracle.coset_word_data(group, v, a, b)


# Right multiplication by a generator from the window memo against the full
# normalization of the joined words, on long normal forms: amalgams whose
# edge group is non-trivial, so the coset sweep carries, free groups, and
# HNN extensions C_n *_{C_c} whose loop edge embeds C_c twice, the second
# time twisted by the automorphism i -> k * i.

@cache
def _hnn(n, c, k):
    edge = GogEdge(0, 0, FiniteGroupTable.cyclic(c, "c"),
                   [i * (n // c) for i in range(c)],
                   [(i * k % c) * (n // c) for i in range(c)], tree=False)
    gog = GraphOfGroups([FiniteGroupTable.cyclic(n, "x")], [edge], [f"C{n}"],
                        name=f"hnn{n}_{c}_{k}")
    return GraphOfGroupsGroup(gog, {"x": [("v", 0, 1)], "t": [("e", 0, 1)]})


@st.composite
def _long_normal_forms(draw):
    """(group, x) with x a normal form of at least 20 items, built by the
    reference normalization one step at a time. A step is a word of one
    or two generators that lengthens the form; one always exists."""
    kind = draw(st.sampled_from(["amalgam", "free", "hnn"]))
    if kind == "free":
        group = _normal_form_group((draw(st.integers(1, 3)),))
    elif kind == "amalgam":
        c = draw(st.integers(2, 4))
        order = st.sampled_from(range(2 * c, 13, c))
        group = _normal_form_group((draw(order), c, draw(order)))
    else:
        c = draw(st.integers(2, 4))
        k = draw(st.sampled_from([k for k in range(1, c) if gcd(k, c) == 1]))
        group = _hnn(c * draw(st.integers(1, 3)), c, k)
    gens = [g for _, g in group.gen_symbols()]
    steps = [(g,) for g in gens] + [(g, h) for g in gens for h in gens]
    x = group.identity
    while len(x.data) < 20:
        longer = []
        for step in steps:
            y = x
            for g in step:
                y = _element(group, oracle.op_data(group, y, g))
            if len(y.data) > len(x.data):
                longer.append(y)
        x = draw(st.sampled_from(longer))
    return group, x


@settings(max_examples=200, deadline=None)
@given(_long_normal_forms())
def test_window_products_match_full_normalization(case):
    group, x = case
    items = group.items
    for _, g in group.gen_symbols():
        times = group.right_multiplier(g)
        # the first call may fill the memo, the second reads it
        assert items(times(x.data)) == oracle.op_data(group, x, g)
        assert items(times(x.data)) == oracle.op_data(group, x, g)
        assert GroupElement(times(x.data), group).key() \
            == repr(items(times(x.data)))
    assert x.key() == repr(items(x.data))
    # one-item data keep the trailing comma of a 1-tuple's repr
    for i in range(group.gog.vertices[0].order):
        y = _element(group, (("v", 0, i),))
        assert y.key() == repr(items(y.data)) == repr((("v", 0, i),))


# An item alphabet past 256 items: C300 * C2 and C300 *_{C3} C6 (where the
# coset sweep carries) pack items into characters past chr(255).

@cache
def _wide_amalgam(c, b):
    group = make_cyclic_amalgam(300, c, b)
    assert len(group._char_item) > 256
    return group


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(1, 2), (3, 6)]),
       st.lists(st.tuples(st.integers(0, 1), st.integers(1, 299)),
                max_size=6),
       st.lists(st.tuples(st.integers(0, 1), st.integers(1, 299)),
                max_size=6))
@example((1, 2), [(0, 299), (1, 1), (0, 256)], [(0, 44), (1, 1)])
def test_wide_alphabet_matches_reference(cb, word_a, word_b):
    group = _wide_amalgam(*cb)
    items = group.items

    def element(word):
        # each letter a based vertex-group element, its index taken modulo
        # the vertex group's order
        acc = group.identity
        for v, k in word:
            g = group.based_vertex_element(v, k % group.gog.vertices[v].order)
            acc = _element(group, oracle.op_data(group, acc, g))
        return acc

    a, b = element(word_a), element(word_b)
    assert items(group.op(a, b).data) == oracle.op_data(group, a, b)
    assert items(inverse(a).data) == oracle.inv_data(group, a)
    for x in (a, b, group.op(a, b), inverse(a)):
        assert x.key() == repr(items(x.data))
    for _, g in group.gen_symbols():
        assert items(group.right_multiplier(g)(a.data)) \
            == oracle.op_data(group, a, g)


# Matrix products by columns against the triple loop, on words of SL(2, Z),
# SL(3, Z) and AGL(1, 5) mod 5, and on arbitrary integer matrices.

def _triple_loop(a, b, modulus=None):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] += a[i][k] * b[k][j]
            if modulus is not None:
                out[i][j] %= modulus
    return tuple(tuple(row) for row in out)


@cache
def _matrix_group(name):
    if name == "agl15":
        return MatrixGroup("agl15", 2, {"a": [[1, 1], [0, 1]],
                                        "b": [[2, 0], [0, 1]]}, modulus=5)
    return load_fixture(name)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["sl2z", "sl3z", "agl15"]), st.data())
def test_matrix_products_match_triple_loop(name, data):
    group = _matrix_group(name)
    gens = [g for _, g in group.gen_symbols()]

    def word():
        return reduce(
            lambda x, g: GroupElement(
                _triple_loop(x.data, g.data, group.modulus), group),
            data.draw(st.lists(st.sampled_from(gens), max_size=12)),
            group.identity)

    x, y = word(), word()
    expected = _triple_loop(x.data, y.data, group.modulus)
    assert mat_mul(x.data, y.data, group.modulus) == expected
    assert group.op(x, y).data == expected
    for g in gens:
        assert group.right_multiplier(g)(x.data) \
            == _triple_loop(x.data, g.data, group.modulus)


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
           st.lists(st.integers(-50, 50), min_size=n, max_size=n),
           min_size=2 * n, max_size=2 * n)),
       st.sampled_from([None, 2, 7]))
def test_mat_mul_matches_triple_loop(rows, modulus):
    n = len(rows) // 2
    a, b = tuple(map(tuple, rows[:n])), tuple(map(tuple, rows[n:]))
    assert mat_mul(a, b, modulus) == _triple_loop(a, b, modulus)


# the compiled right multipliers against the triple loop, on random square
# matrices: entries mostly 0 and ±1, as generators have them, and also up
# to 50 in size and near 10**20

_unit_entries = st.sampled_from([0, 1, -1])
_entries = st.one_of(
    _unit_entries, _unit_entries, _unit_entries, st.integers(-50, 50),
    st.integers(10**20, 10**20 + 99).flatmap(lambda v: st.sampled_from([v, -v])))


def _matrix_pairs(n):
    matrix = st.lists(st.lists(_entries, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    return st.tuples(matrix, matrix)


@example(([[1, 0, 2], [-3, 0, 0], [5, 0, 1]], [[2, 5, -1], [7, 1, 0],
                                              [10**20, 0, 1]]), None)
@example(([[7, 1], [14, 1]], [[3, 10**20 + 1], [-1, 4]]), 7)
@given(st.integers(1, 4).flatmap(_matrix_pairs), st.sampled_from([None, 2, 7]))
def test_right_multiplier_matches_triple_loop(pair, modulus):
    # the examples give g an all-zero column, the second after reduction
    g_rows, x_rows = pair
    group = MatrixGroup("random", len(g_rows), {"g": g_rows}, modulus=modulus)
    g = group.generators["g"]
    x = tuple(map(tuple, x_rows))
    times = group.right_multiplier(g)
    assert times(x) == _triple_loop(x, g.data, modulus)
    assert group.right_multiplier(g) is times


class _TripleLoopGroup:
    """A matrix group whose right multipliers form each product by the
    triple loop."""

    def __init__(self, group):
        self.group = group

    def __getattr__(self, name):
        return getattr(self.group, name)

    def right_multiplier(self, g):
        return lambda x: _triple_loop(x, g.data, self.group.modulus)


@pytest.mark.parametrize("name, radius", [("sl2z", 8), ("sl3z", 3),
                                          ("agl15", 6)])
def test_ball_matches_triple_loop_ball(name, radius):
    group = _matrix_group(name)
    ball = build_ball(group, radius)
    reference = build_ball(_TripleLoopGroup(group), radius)
    assert ball.right == reference.right
    assert ball.words == reference.words
    assert [x.data for x in ball.elements] \
        == [x.data for x in reference.elements]

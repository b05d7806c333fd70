from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import normalform_oracle as oracle
from gdecomp.errors import CapExceeded, VerificationFailure
from gdecomp.fixtures import (load_fixture, make_cyclic_amalgam,
                              make_cyclic_group, make_free_group)
from gdecomp.groups import (FiniteGroupTable, GroupElement, element_order,
                            inverse, multiply, normal_form)
from gdecomp.groups.matrix import (congruence_quotient_order, mat_det, mat_inv,
                                   mat_mul)


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


def test_c6_subgroups():
    subs = cyclic_table(6).subgroups()
    assert sorted(len(s) for s in subs) == [1, 2, 3, 6]


def test_minimal_generators_cyclic():
    assert cyclic_table(5).minimal_generators() == (1,)
    assert cyclic_table(5).is_cyclic()


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


def test_congruence_orders():
    sl2z = load_fixture("sl2z")
    assert congruence_quotient_order(sl2z, 2) == 6
    assert congruence_quotient_order(sl2z, 3) == 24
    # |SL(2, Z/5)| = 120: the closure stops at its cap
    with pytest.raises(CapExceeded) as exc:
        congruence_quotient_order(sl2z, 5, cap=10)
    assert exc.value.reached == 10


def test_normal_form_words(sl2z):
    w = normal_form(sl2z, ["S", "T", "S'", "T'"])
    back = normal_form(sl2z, ["T", "S", "T'", "S'"])
    assert multiply(w, back) == sl2z.identity


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
# edge groups.

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
            acc = GroupElement("normal-form", oracle.op_data(group, acc, g),
                               group)
        return acc

    a = word(12)
    shape = draw(st.sampled_from(["cancel", "short", "long"]))
    if shape == "cancel":
        b = GroupElement("normal-form",
                         oracle.op_data(group, inverse(a), word(3)), group)
    else:
        b = word(12 if shape == "short" else 40)
    return group, a, b


@settings(max_examples=300, deadline=None)
@given(_normal_form_cases())
def test_normalization_from_join_matches_full(case):
    group, a, b = case
    assert group.op(a, b).data == oracle.op_data(group, a, b)
    for v in range(len(group.gog.vertices)):
        assert group.vertex_coset_key(v, a, b) \
            == oracle.coset_key_data(group, v, a, b)
        assert group.vertex_coset_key(v, a) \
            == oracle.coset_key_data(group, v, a)
        # a translate of a coset's normal path word, as a tree action
        # normalizes it
        word = oracle.coset_word_data(group, v, b)
        assert group.coset_word(v, b) == word
        assert group.translate_word(a, word) \
            == oracle.coset_word_data(group, v, a, b)

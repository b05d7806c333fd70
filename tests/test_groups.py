import pytest
from hypothesis import given, strategies as st

from gdecomp.errors import CapExceeded, VerificationFailure
from gdecomp.fixtures import (load_fixture, make_cyclic_amalgam,
                              make_cyclic_group, make_free_group)
from gdecomp.groups import (FiniteGroupTable, element_order, inverse,
                            multiply, normal_form)
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

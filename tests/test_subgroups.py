import hashlib
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from lowindex_oracle import low_index_action as reference_low_index_action
from rs_oracle import reidemeister_schreier as reference_reidemeister_schreier
from tietze_oracle import tietze as reference_tietze

from gdecomp import subgroups
from gdecomp.cli import canonical_json
from gdecomp.errors import CapExceeded, GdecompError, VerificationFailure
from gdecomp.fixtures import load_fixture, make_cyclic_amalgam
from gdecomp.graphs import bfs
from gdecomp.subgroups import (Presentation, _tietze, congruence_hom,
                               construct_finite_quotient,
                               expected_free_rank,
                               free_reduce, index_lower_bound,
                               index_upper_bound, invert_word, kernel_subgroup,
                               low_index_action, parse_word,
                               presentation_from_group, reidemeister_schreier,
                               render_word, verify_torsion_free)


def build_cert(group, hom=None):
    pres = presentation_from_group(group)
    hom = hom or construct_finite_quotient(group, pres)
    cert = kernel_subgroup(hom, pres)
    reidemeister_schreier(cert, pres)
    verify_torsion_free(cert, pres)
    return pres, cert


def test_presentation_extraction(sl2z, c2c3):
    pres = presentation_from_group(sl2z)
    assert [render_word(r) for r in pres.relators] \
        == ["S*S*S*S", "S*S*T'*S'*T'*S'*T'*S'"]
    assert [(render_word(w), n) for w, n in pres.subgroup_words] \
        == [("S", 4), ("S*T", 6)]
    # the nontrivial powers of each subgroup word, in order
    assert [render_word(w) for w in pres.torsion_words] \
        == ["S", "S*S", "S*S*S"] + ["*".join(["S*T"] * k) for k in range(1, 6)]
    pres2 = presentation_from_group(c2c3)
    assert [render_word(r) for r in pres2.relators] == ["x0*x0", "x1*x1*x1"]
    assert [render_word(w) for w in pres2.torsion_words] \
        == ["x0", "x1", "x1*x1"]


@pytest.mark.parametrize("name", ["sl2z", "c2*c3", "c4*c2*c6", "amalgam",
                                  "z5", "z", "f2"])
def test_presentation_symbols_name_elements(name):
    # each relator is trivial on the symbols' elements, and each generator
    # equals its symbol word: c4*c2*c6's T is x0*x1*x0*x0
    group = load_fixture(name)
    pres = presentation_from_group(group)
    assert sorted(pres.elements) == sorted(pres.symbols)

    def value(word):
        acc = group.identity
        for s, e in word:
            g = pres.elements[s]
            acc = group.op(acc, g if e > 0 else group.inv(g))
        return acc
    assert all(value(r) == group.identity for r in pres.relators)
    assert sorted(pres.generator_words) == sorted(group.generators)
    for gname, word in pres.generator_words.items():
        assert value(word) == group.generators[gname]


def test_c2c3_certificate(c2c3):
    pres, cert = build_cert(c2c3)
    assert cert.hom.detail == {"degree": 3}
    assert cert.hom.order == 6  # onto S3
    assert cert.index == 6
    assert cert.rank == 2
    assert cert.torsion_free
    assert cert.evidence["free"]
    # prefix-closed Schreier transversal
    words = [render_word(w) for w in cert.transversal]
    assert words[0] == "1"
    assert all(w[: w.rfind("*")] in words or "*" not in w
               for w in words[1:])
    assert expected_free_rank(c2c3.gog, 6) == 2
    assert c2c3.gog.euler_characteristic() == Fraction(-1, 6)


def test_sl2z_congruence_certificate(sl2z):
    pres, cert = build_cert(sl2z)
    assert cert.hom.kind == "congruence"
    assert cert.hom.detail == {"modulus": 3}
    assert cert.index == 24
    assert cert.rank == 3  # 1 + 24/12
    assert cert.torsion_free


def test_sl2z_mod2_negative_control(sl2z):
    pres = presentation_from_group(sl2z)
    hom = congruence_hom(sl2z, 2)
    assert hom.order == 6
    assert not hom.injective_on_subgroups(pres)
    cert = kernel_subgroup(hom, pres)
    assert cert.index == 6
    ok, witnesses = verify_torsion_free(cert, pres)
    assert not ok
    assert "S*S" in witnesses  # -I dies mod 2


def test_c4c2c6_certificate(c4c2c6):
    pres, cert = build_cert(c4c2c6)
    assert cert.hom.detail == {"degree": 8}
    assert cert.hom.order == 24  # SL(2,3) again
    assert cert.index == 24
    assert cert.rank == 3
    assert cert.torsion_free
    assert expected_free_rank(c4c2c6.gog, 24) == 3


def test_free_and_cyclic_certificates(f2, zgroup, z5):
    _, cert = build_cert(f2)
    assert cert.index == 1 and cert.rank == 2 and cert.torsion_free
    _, cert = build_cert(zgroup)
    assert cert.index == 1 and cert.rank == 1
    _, cert = build_cert(z5)
    assert cert.index == 5 and cert.rank == 0


def test_index_bounds():
    assert index_lower_bound(6, 6) == 1
    assert index_upper_bound(6, 2) == 518400
    assert index_lower_bound(6, 4) == 2
    assert index_lower_bound(7, 3) == 3
    assert index_upper_bound(3, 1) == 6
    with pytest.raises(ValueError):
        index_lower_bound(0, 1)


def test_expected_rank_rejects_bad_index(c2c3):
    with pytest.raises(VerificationFailure):
        expected_free_rank(c2c3.gog, 5)  # 5/6 is not an integer rank


def test_low_index_degree_cap(c2c3):
    pres = presentation_from_group(c2c3)
    with pytest.raises(CapExceeded):
        low_index_action(pres, max_degree=2)
    # a frontier node holds one byte per entry
    with pytest.raises(ValueError):
        low_index_action(pres, max_degree=257)


@pytest.mark.parametrize("abc", [(8, 4, 12), (10, 5, 15), (14, 7, 21)])
def test_exhausted_search_keeps_nothing_at_cap(monkeypatch, abc):
    # every degree up to the cap runs out of cosets; the last one records
    # no frontier, as no degree follows it
    pres = presentation_from_group(make_cyclic_amalgam(*abc))
    search = subgroups._search
    kept = set()

    def checked(table, *args):
        kept.add((len(table), args[-2] is not None))
        return search(table, *args)

    monkeypatch.setattr(subgroups, "_search", checked)
    with pytest.raises(CapExceeded,
                       match="no adequate action within the degree cap") \
            as exc:
        low_index_action(pres)
    assert exc.value.reached == subgroups.DEGREE_CAP
    assert (subgroups.DEGREE_CAP, False) in kept
    assert all(keep == (n < subgroups.DEGREE_CAP) for n, keep in kept)


def test_parse_render_roundtrip():
    w = parse_word(["S", "T'", "S^-1", "T"])
    assert w == (("S", 1), ("T", -1), ("S", -1), ("T", 1))
    assert render_word(w) == "S*T'*S'*T"
    assert render_word(()) == "1"


word_strategy = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([1, -1])),
    max_size=12).map(tuple)


@given(word_strategy)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    # no adjacent cancelling pair survives
    assert all(not (r[i][0] == r[i + 1][0] and r[i][1] == -r[i + 1][1])
               for i in range(len(r) - 1))


@given(word_strategy)
def test_word_times_inverse_reduces_to_identity(w):
    assert free_reduce(w + invert_word(w)) == ()


# sha256 of canonical_json(cert.to_json()), computed with the low-index
# search that rescanned every relator after each definition
# (lowindex_oracle.py) and, all but (6, 2, 10), with the loop that rewrote
# every relator after each Tietze elimination (tietze_oracle.py)
CERT_DIGESTS = {
    (6, 2, 8): "67f62dd8a7e8c6fccad01232ad5c01e43a7eb9cade1981df2475a05f23853dd3",
    (6, 2, 10):
        "8a85fbc2f0657376ed1c0db6a6214239fa7a34e92536076c755cdef2350c551b",
    (6, 3, 9): "418ffd3db85c0bd076e8aece8d909a41badd0bbf666aa5e8313c9b21a4a43bd7",
    (3, 1, 7): "ac84aeefc3bf05c1315ca2d08a26b14af8d5418311b0db54aad2db77e6f31310",
}


@pytest.mark.parametrize("abc", sorted(CERT_DIGESTS))
def test_amalgam_certificates_pinned(abc):
    group = make_cyclic_amalgam(*abc)
    pres, cert = build_cert(group)
    # the search checks no relator at its leaves: its deductions do
    assert cert.hom.check_relators(pres) == []
    text = canonical_json(cert.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_DIGESTS[abc]
    assert cert.evidence["free"] and cert.torsion_free
    assert cert.rank == expected_free_rank(group.gog, cert.index)
    if abc == (3, 1, 7):
        assert (cert.index, cert.rank) == (2520, 1321)


# (fixture name or amalgam (a, c, b), congruence modulus or None for the
# quotient that construct_finite_quotient picks)
QUOTIENT_CASES = [("sl2z", 2), ("sl2z", 3), ("c2*c3", None),
                  ("c4*c2*c6", None)] + [(abc, None) for abc in
                                         sorted(CERT_DIGESTS)]


@pytest.mark.parametrize("name, modulus", QUOTIENT_CASES,
                         ids=[f"{n}-{m}" for n, m in QUOTIENT_CASES])
def test_quotient_enumeration_is_coset_table(name, modulus):
    group = (make_cyclic_amalgam(*name) if isinstance(name, tuple)
             else load_fixture(name))
    hom = (congruence_hom(group, modulus) if modulus
           else construct_finite_quotient(group))
    index = {x: i for i, x in enumerate(hom.elements)}
    assert len(index) == hom.order == len(hom.words) == len(hom.table)
    steps = [(s, e) for s in hom.symbols for e in (1, -1)]
    for i, row in enumerate(hom.table):
        assert list(row) == steps
        for (s, e), j in row.items():
            img = hom.images[s] if e > 0 else hom.inverses[s]
            assert index[hom.op(hom.elements[i], img)] == j
    for word, x in zip(hom.words, hom.elements):
        assert hom.image_of_word(word) == x
    # the enumeration this one replaced, kept as the reference
    gens = list(hom.images.values()) + list(hom.inverses.values())
    assert hom.order == len(bfs(lambda x: (hom.op(x, g) for g in gens),
                                hom.identity))


@pytest.mark.parametrize("name, modulus", QUOTIENT_CASES,
                         ids=[f"{n}-{m}" for n, m in QUOTIENT_CASES])
def test_quotient_enumeration_forms_each_edge_once(monkeypatch, name,
                                                   modulus):
    # each product fills an entry and its reverse, so the enumeration
    # forms |symbols| * order of them, not one per entry; the inverses'
    # products are not counted
    group = (make_cyclic_amalgam(*name) if isinstance(name, tuple)
             else load_fixture(name))
    hom = (congruence_hom(group, modulus) if modulus
           else construct_finite_quotient(group))
    inverse = subgroups._generic_inverse
    monkeypatch.setattr(subgroups, "_generic_inverse",
                        lambda g, op, identity: inverse(g, hom.op, identity))
    products = []

    def op(a, b):
        products.append(b)
        return hom.op(a, b)

    again = subgroups.FiniteQuotientHom(hom.kind, hom.symbols, hom.images,
                                        op, hom.identity)
    assert len(products) == len(hom.symbols) * hom.order
    assert (again.elements, again.words, again.table) \
        == (hom.elements, hom.words, hom.table)


# relators over up to 6 generators, including empty and unreduced words
relator_lists = st.lists(
    st.lists(st.tuples(st.integers(0, 5), st.sampled_from([1, -1])),
             max_size=8).map(tuple),
    max_size=8)


def _decode(word):
    return tuple((abs(x) - 1, 1 if x > 0 else -1) for x in word)


@settings(max_examples=400)
@given(relator_lists)
# a relator next to two of its rotations: both are dropped unsubstituted
@example([((0, -1), (1, 1), (2, 1)), ((2, 1), (0, -1), (1, 1)),
          ((1, 1), (2, 1), (0, -1))])
# the first relator has no single generator until the second's solution
# is substituted into it, which pushes it back onto the heap
@example([((3, -1), (2, -1), (2, -1), (3, 1), (2, 1)), ((2, -1), (3, -1))])
def test_tietze_matches_full_rescan(relators):
    # _tietze reads generator g as the letter g + 1, its inverse as -(g + 1)
    got, eliminated = _tietze([tuple((g + 1) * e for g, e in r)
                               for r in relators])
    want, want_eliminated = reference_tietze(relators)
    assert list(map(_decode, got)) == want
    assert [(g - 1, _decode(w)) for g, w in eliminated.items()] \
        == list(want_eliminated.items())


@st.composite
def _small_amalgams(draw):
    """(a, c, b) for C_a *_{C_c} C_b with a, b <= 6: indices up to 120,
    small enough for the full-rescan Tietze loop."""
    c = draw(st.integers(1, 3))
    order = st.integers(1, 6 // c).map(lambda i: c * i).filter(
        lambda n: n >= 2)
    return draw(order), c, draw(order)


def _assert_rewriting_matches_oracle(pres, hom):
    got = reidemeister_schreier(kernel_subgroup(hom, pres), pres)
    want = reference_reidemeister_schreier(kernel_subgroup(hom, pres), pres)
    assert got.to_json() == want.to_json()
    for word in got.free_basis or ():
        assert word == free_reduce(word)


@settings(max_examples=30, deadline=None)
@given(_small_amalgams())
def test_rewriting_matches_tuple_letters(abc):
    group = make_cyclic_amalgam(*abc)
    pres = presentation_from_group(group)
    try:
        hom = construct_finite_quotient(group, pres)
    except CapExceeded:
        assume(False)
    _assert_rewriting_matches_oracle(pres, hom)


@pytest.mark.parametrize("modulus", [2, 3])
def test_sl2z_rewriting_matches_tuple_letters(sl2z, modulus):
    _assert_rewriting_matches_oracle(presentation_from_group(sl2z),
                                     congruence_hom(sl2z, modulus))


def test_relator_outside_kernel_fails(c2c3):
    # x0 has order 2 in the quotient, so its conjugates leave the kernel
    pres = presentation_from_group(c2c3)
    cert = kernel_subgroup(construct_finite_quotient(c2c3, pres), pres)
    bad = Presentation(pres.symbols, pres.relators + [(("x0", 1),)],
                       pres.subgroup_words)
    with pytest.raises(VerificationFailure,
                       match="relator conjugate leaves the subgroup"):
        reidemeister_schreier(cert, bad)


def test_non_free_kernel():
    # Z^2 onto C2 x C2: the kernel is Z^2 again, which no Tietze step frees
    pres = Presentation(["a", "b"], [parse_word(["a", "b", "a'", "b'"])], [])
    hom = subgroups.FiniteQuotientHom(
        "coset-action", ["a", "b"], {"a": (1, 0, 3, 2), "b": (2, 3, 0, 1)},
        subgroups._perm_op, (0, 1, 2, 3))
    assert hom.check_relators(pres) == [] and hom.order == 4
    cert = reidemeister_schreier(kernel_subgroup(hom, pres), pres)
    assert cert.evidence["free"] is False
    assert cert.evidence["residual_relators"] >= 1
    assert cert.rank is None and cert.free_basis is None


def test_amalgam_fixture_quotient_pinned():
    # C6 *_{C3} C12 needs degree 12; the sha256 was computed with the
    # rescanning search (lowindex_oracle.py), which took about 80 s on
    # 2 CPUs to find this action, too long to run with the tests
    group = load_fixture("amalgam")
    pres = presentation_from_group(group)
    hom = construct_finite_quotient(group, pres)
    assert hom.detail == {"degree": 12}
    images = canonical_json({s: list(p) for s, p in hom.images.items()})
    assert hashlib.sha256(images.encode()).hexdigest() \
        == "525b13e966aab50a347195c12e6c6748b3e035fef75a502cb74765354bc61a8d"


@st.composite
def _low_index_inputs(draw):
    """A presentation on 1-3 symbols with up to 4 relators of length <= 7
    and 0-2 subgroup words, searched to degree <= 4; or C_a *_{C_c} C_b
    with a, b <= 8, searched to the default degree cap."""
    if draw(st.integers(0, 3)) == 0:
        c = draw(st.integers(1, 4))
        order = st.integers(1, 8 // c).map(lambda i: c * i).filter(
            lambda n: n >= 2)
        group = make_cyclic_amalgam(draw(order), c, draw(order))
        return presentation_from_group(group), 12
    symbols = ["a", "b", "c"][:draw(st.integers(1, 3))]
    letter = st.tuples(st.sampled_from(symbols), st.sampled_from([1, -1]))
    words = st.lists(letter, max_size=7).map(tuple)
    relators = draw(st.lists(words, max_size=4))
    subgroup_words = draw(st.lists(
        st.tuples(words, st.integers(1, 6)), max_size=2))
    return Presentation(symbols, relators, subgroup_words), \
        draw(st.integers(0, 4))


def _images_or_error(search, pres, max_degree):
    try:
        hom = search(pres, max_degree)
    except GdecompError as e:
        return type(e)
    # the search checks no relator at its leaves: its deductions do
    assert hom.check_relators(pres) == []
    return hom.images


@settings(max_examples=200, deadline=None)
@given(_low_index_inputs())
def test_low_index_matches_full_rescan(pres_degree):
    # the search by deduction must find the same first action, numbering
    # included, as filling every entry by choice and rescanning every
    # relator, or fail the same way
    pres, max_degree = pres_degree
    assert _images_or_error(low_index_action, pres, max_degree) \
        == _images_or_error(reference_low_index_action, pres, max_degree)


def _deduction_gaps(table, pres):
    """The relator walks that a full deduction pass would still act on:
    from each coset, each rotation walked forward and backward to its
    first undefined entry, where at least one entry is defined and the
    walk is not closed, with one entry or none between the two walks."""
    cols = [(s, 1) for s in pres.symbols] + [(s, -1) for s in pres.symbols]
    col_of = {c: i for i, c in enumerate(cols)}
    inv = [col_of[(s, -e)] for s, e in cols]
    found = []
    for rel in pres.relators:
        word = [col_of[x] for x in rel]
        for t in range(len(word)):
            rot = word[t:] + word[:t]
            for x in range(len(table)):
                f, p = x, 0
                while p < len(rot) and table[f][rot[p]] is not None:
                    f, p = table[f][rot[p]], p + 1
                if p == len(rot):
                    if f != x:
                        found.append((x, rot, "open"))
                    continue
                b, q = x, len(rot)
                while q > p and table[b][inv[rot[q - 1]]] is not None:
                    b, q = table[b][inv[rot[q - 1]]], q - 1
                if (p > 0 or q < len(rot)) and q - p <= 1:
                    found.append((x, rot, "forced" if q > p else "crossed"))
    return found


SEARCH_CASES = [(2, 1, 3), (4, 2, 6), (6, 3, 9), (3, 1, 7)]


@pytest.mark.parametrize("abc", SEARCH_CASES)
def test_search_tables_closed_under_deduction(monkeypatch, abc):
    # a search without deductions finds the same actions, so comparing
    # actions cannot see them; check the tables instead: every table the
    # search branches on has its forced entries filled and no walk that
    # the scans should have rejected
    pres = presentation_from_group(make_cyclic_amalgam(*abc))
    search = subgroups._search
    seen = []

    def checked(table, *args):
        seen.append(_deduction_gaps(table, pres))
        return search(table, *args)

    monkeypatch.setattr(subgroups, "_search", checked)
    hom = low_index_action(pres)
    assert len(seen) > hom.detail["degree"]
    assert not any(seen)


def _renumbered(table, b):
    """The row-major entries of the table renumbered from base coset b,
    each other coset by its first appearance, up to the first undefined
    entry."""
    num, order, out = {b: 0}, [b], []
    for coset in order:  # order grows as cosets appear
        for y in table[coset]:
            if y is None:
                return out
            if y not in num:
                num[y] = len(order)
                order.append(y)
            out.append(num[y])
    return out


def _smaller_renumberings(table):
    """The base cosets whose renumbering is smaller than the table at the
    first entry, defined on both sides, where the two differ."""
    flat = [y for row in table for y in row]
    smaller = []
    for b in range(1, len(table)):
        for x, y in zip(_renumbered(table, b), flat):
            if y is None:
                break
            if x != y:
                if x < y:
                    smaller.append(b)
                break
    return smaller


@pytest.mark.parametrize("abc", SEARCH_CASES)
def test_search_tables_least_numbered(monkeypatch, abc):
    # the search branches only on tables that no other base coset
    # renumbers smaller on their decided prefix, and the action it finds
    # is the least numbering of its table from every base coset
    pres = presentation_from_group(make_cyclic_amalgam(*abc))
    search = subgroups._search
    seen = []

    def checked(table, *args):
        seen.append(_smaller_renumberings(table))
        return search(table, *args)

    monkeypatch.setattr(subgroups, "_search", checked)
    hom = low_index_action(pres)
    degree = hom.detail["degree"]
    assert len(seen) > degree
    assert not any(seen)
    table = [[hom.images[s][c] for s in pres.symbols]
             + [hom.inverses[s][c] for s in pres.symbols]
             for c in range(degree)]
    flat = [y for row in table for y in row]
    assert all(_renumbered(table, b) >= flat for b in range(degree))


@pytest.mark.parametrize("abc", SEARCH_CASES + [(6, 3, 12)])
def test_search_visits_each_table_once(monkeypatch, abc):
    # each degree resumes from the nodes where the one before ran out of
    # cosets, so no table is searched twice and the row counts of the
    # tables searched never fall
    pres = presentation_from_group(make_cyclic_amalgam(*abc))
    search = subgroups._search
    seen = []

    def checked(table, *args):
        seen.append(tuple(map(tuple, table)))
        return search(table, *args)

    monkeypatch.setattr(subgroups, "_search", checked)
    hom = low_index_action(pres)
    assert len(seen) > hom.detail["degree"]
    assert len(set(seen)) == len(seen)
    rows = [len(table) for table in seen]
    assert rows == sorted(rows)
    assert rows[-1] == hom.detail["degree"]


@st.composite
def _schreier_cases(draw):
    """sl2z with a congruence modulus 2-5, or C_a *_{C_c} C_b with a, b <= 8
    with the quotient construct_finite_quotient picks."""
    if draw(st.booleans()):
        return load_fixture("sl2z"), draw(st.integers(2, 5))
    c = draw(st.integers(1, 4))
    order = st.integers(1, 8 // c).map(lambda i: c * i).filter(
        lambda n: n >= 2)
    return make_cyclic_amalgam(draw(order), c, draw(order)), None


@settings(max_examples=25, deadline=None)
@given(_schreier_cases())
def test_schreier_tree_rule_matches_word_rule(case):
    # a Schreier generator is numbered when it is no edge of the
    # transversal tree; the word rule forms and reduces every generator
    group, modulus = case
    pres = presentation_from_group(group)
    hom = (congruence_hom(group, modulus) if modulus
           else construct_finite_quotient(group, pres))
    cert = kernel_subgroup(hom, pres)
    t, table = cert.transversal, cert.coset_table
    want = [(c, s) for c in range(cert.index) for s in pres.symbols
            if free_reduce(t[c] + ((s, 1),) + invert_word(t[table[c][(s, 1)]]))]
    assert subgroups._schreier_pairs(cert, pres.symbols) == want

import functools
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from gdecomp import (build_tree_portion, classify_tree_automorphism,
                     locate_torsion, verify_equivariant_isomorphism)
from gdecomp.bassserre import (DecompositionTree, is_non_elementary,
                               perturb_tree_portion, small_index_threshold)
from gdecomp.errors import VerificationFailure
from gdecomp.fixtures import load_fixture, make_cyclic_amalgam
from gdecomp.graphs import bfs
from gdecomp.groups import (FiniteGroupTable, GogEdge, GraphOfGroups,
                            GraphOfGroupsGroup, inverse, multiply, normal_form)
from tree_oracle import classify_by_scan, tree_portion as reference_tree_portion


def test_c2c3_tree_shape(c2c3):
    tree = build_tree_portion(c2c3, 4)
    assert tree.vertex_count == 19
    degrees = {len(tree.adj[x]) for x in tree.interior_vertices()}
    assert degrees == {2, 3}  # C2 cosets branch 2 ways, C3 cosets 3
    assert {tree.label(x) for x in range(tree.vertex_count)} == {2, 3}


def test_c2c3_classification(c2c3):
    tree = build_tree_portion(c2c3, 12)
    a = c2c3.generators["a"]
    b = c2c3.generators["b"]
    assert classify_tree_automorphism(tree, a).kind == "elliptic"
    assert classify_tree_automorphism(tree, b).kind == "elliptic"
    ab = multiply(a, b)
    act = classify_tree_automorphism(tree, ab)
    assert act.kind == "hyperbolic" and act.translation_length == 2


def test_translation_length_scales_linearly(c2c3):
    tree = build_tree_portion(c2c3, 12)
    ab = multiply(c2c3.generators["a"], c2c3.generators["b"])
    acc = ab
    for k in range(1, 5):
        act = classify_tree_automorphism(tree, acc)
        assert act.kind == "hyperbolic"
        assert act.translation_length == 2 * k
        acc = multiply(acc, ab)


def test_conjugates_of_torsion_stay_elliptic(c2c3):
    tree = build_tree_portion(c2c3, 8)
    rng = random.Random(1)
    gens = list(c2c3.generators.values())
    a = c2c3.generators["a"]
    for _ in range(50):
        w = c2c3.identity
        for _ in range(rng.randrange(3)):
            w = multiply(w, rng.choice(gens))
        gamma = multiply(multiply(w, a), inverse(w))
        assert classify_tree_automorphism(tree, gamma).kind == "elliptic"


def test_c4c2c6_classification(c4c2c6):
    tree = build_tree_portion(c4c2c6, 3)
    assert tree.vertex_count == 11
    S = c4c2c6.generators["S"]
    T = c4c2c6.generators["T"]
    assert classify_tree_automorphism(tree, S).kind == "elliptic"
    assert classify_tree_automorphism(tree, multiply(S, T)).kind == "elliptic"


def test_non_elementary(c2c3, c4c2c6, zgroup):
    assert is_non_elementary(build_tree_portion(c2c3, 4))[0]
    assert is_non_elementary(build_tree_portion(c4c2c6, 3))[0]
    assert not is_non_elementary(build_tree_portion(zgroup, 4))[0]


def test_locate_torsion(c2c3, c4c2c6):
    ball_needed = 7  # decomposition context for the locator
    from gdecomp import build_ball, compute_global_decomposition
    ball = build_ball(c2c3, ball_needed)
    dec = compute_global_decomposition(ball, 3)
    tree = build_tree_portion(c2c3, 4)
    loc = locate_torsion(dec, tree, c2c3.generators["a"])
    assert loc["kind"] == "bag"
    assert loc["bag_size"] == 2
    assert loc["order"] == 2
    assert loc["tree_action"] == "elliptic"


@pytest.mark.parametrize("word, message", [
    ("ST", "cyclic subgroup exits the ball"),
    ("T", "element is not torsion within the cap")])
def test_locate_torsion_failures(sl2z, word, message):
    from gdecomp import build_ball, compute_global_decomposition
    dec = compute_global_decomposition(build_ball(sl2z, 1), 1)
    gamma = normal_form(sl2z, list(word))
    with pytest.raises(VerificationFailure, match=message):
        locate_torsion(dec, None, gamma)


def test_small_index_threshold():
    assert small_index_threshold(2, 6, 2) == 4
    assert small_index_threshold(1, 1, 0) == 1
    assert small_index_threshold(3, 4, 10) == 12
    with pytest.raises(ValueError):
        small_index_threshold(0, 1, 0)


def test_equivariant_isomorphism(sl2z_decomp, c4c2c6):
    dt = DecompositionTree(sl2z_decomp, 3)
    bt = build_tree_portion(c4c2c6, 3)
    report = verify_equivariant_isomorphism(dt, bt, ["S", "T"])
    assert report["pass"]
    assert report["isomorphism_size"] == 11
    assert report["checked"] == 18


def test_equivariant_fails_when_nothing_compared(sl2z_decomp, c4c2c6):
    # each radius-0 portion is its root alone, and T moves the root out of
    # both: the one candidate compares no pair, so it shows nothing
    dt = DecompositionTree(sl2z_decomp, 0)
    bt = build_tree_portion(c4c2c6, 0)
    report = verify_equivariant_isomorphism(dt, bt, ["T"])
    assert not report["pass"]
    assert report["checked"] == 0
    assert report["candidates_tried"] == 1
    # S fixes the root on both sides, which is one pair compared
    report = verify_equivariant_isomorphism(dt, bt, ["S", "T"])
    assert report["pass"] and report["checked"] == 1


def test_equivariant_negative_control(sl2z_decomp, c4c2c6):
    dt = DecompositionTree(sl2z_decomp, 3)
    perturbed = perturb_tree_portion(build_tree_portion(c4c2c6, 3))
    report = verify_equivariant_isomorphism(dt, perturbed, ["S", "T"])
    assert not report["pass"]
    assert report["witness"]


def test_decomposition_tree_root(sl2z_decomp):
    dt = DecompositionTree(sl2z_decomp, 3)
    assert len(dt.nodes) == 11
    assert dt.label(dt.root) == 4  # smallest bag through the identity


# Coset keys against the element-set reference: the coset gamma * H_v as
# the set of its |H_v| elements.

KEY_GROUPS = ["c2*c3", "c4*c2*c6", "z", "f2", "amalgam",
              (2, 1, 3), (2, 1, 5), (3, 1, 3), (4, 2, 6), (2, 2, 4), (6, 3, 9)]


@functools.cache
def _key_group(name):
    group = (load_fixture(name) if isinstance(name, str)
             else make_cyclic_amalgam(*name))
    subgroups = [group.based_vertex_subgroup(v)
                 for v in range(len(group.gog.vertices))]
    return group, subgroups


def reference_coset_key(subgroups, v, gamma):
    return frozenset(multiply(gamma, h).data for h in subgroups[v])


def _random_element(group, rng, max_len):
    gens = [g for _, g in group.gen_symbols()]
    w = group.identity
    for _ in range(rng.randrange(max_len + 1)):
        w = multiply(w, rng.choice(gens))
    return w


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KEY_GROUPS), st.randoms(use_true_random=False))
def test_vertex_coset_key_matches_element_sets(name, rng):
    # a coset of a vertex subgroup is keyed by its coset word without the
    # last item
    group, subgroups = _key_group(name)
    gamma = _random_element(group, rng, 6)
    for v, sub in enumerate(subgroups):
        # half the time a second element of gamma's own coset
        other = (multiply(gamma, rng.choice(sub)) if rng.random() < 0.5
                 else _random_element(group, rng, 6))
        same = (group.coset_word(v, gamma)[:-1]
                == group.coset_word(v, other)[:-1])
        assert same == (reference_coset_key(subgroups, v, gamma)
                        == reference_coset_key(subgroups, v, other))
        rep = _random_element(group, rng, 3)
        assert group.coset_word(v, gamma, rep)[:-1] \
            == group.coset_word(v, multiply(gamma, rep))[:-1]


@pytest.mark.parametrize("name", KEY_GROUPS, ids=str)
def test_tree_action_matches_element_set_keys(name):
    group, subgroups = _key_group(name)
    rng = random.Random(str(name))
    for radius in (2, 4):
        tree = build_tree_portion(group, radius)
        orbit, reps, words, _, _ = reference_tree_portion(group, radius)
        assert words == tree.words  # the same vertices in the same order
        n = tree.vertex_count
        ref_index = {reference_coset_key(subgroups, orbit[y], reps[y]): y
                     for y in range(n)}
        assert len(ref_index) == n
        for _ in range(6):
            gamma = _random_element(group, rng, 5)
            for x in range(n):
                key = reference_coset_key(subgroups, orbit[x],
                                          multiply(gamma, reps[x]))
                assert tree.action(gamma, x) == ref_index.get(key)


def test_degenerate_edge_is_one_tree_edge():
    # C3 *_{C3} C3: both vertex subgroups are the whole group, so the tree
    # is one edge whose two ends lie in different orbits
    group = make_cyclic_amalgam(3, 3, 3)
    tree = build_tree_portion(group, 4)
    assert tree.orbit == [0, 1] and tree.adj == [[1], [0]]
    x = group.generators["x"]
    assert [tree.action(x, v) for v in (0, 1)] == [0, 1]


# Tree moves from the normal form's coset representatives against the
# reference transversal search, on amalgams and HNN extensions of C_n and
# S3 whose associated subgroups are drawn: cyclic embeddings twisted by an
# automorphism, and any of S3's three C2s or its C3 on either end, so an
# HNN extension of S3 may associate two distinct C2s.

_VERTEX_TABLES = [FiniteGroupTable.cyclic(n) for n in range(1, 7)] + [
    FiniteGroupTable.from_permutations([(1, 0, 2), (1, 2, 0)], 3)]


def _embeddings(table, c):
    """Every embedding of C_c into the table: the powers of an element of
    order c, as a list of element indices."""
    out = []
    for g in range(table.order):
        if table.element_order(g) == c:
            powers = [0]
            while len(powers) < c:
                powers.append(table.mul[powers[-1]][g])
            out.append(powers)
    return out


@st.composite
def _splittings(draw):
    hnn = draw(st.booleans())
    u = draw(st.sampled_from(_VERTEX_TABLES))
    v = u if hnn else draw(st.sampled_from(_VERTEX_TABLES))
    orders = sorted({u.element_order(g) for g in range(u.order)}
                    & {v.element_order(g) for g in range(v.order)})
    c = draw(st.sampled_from(orders))
    edge = GogEdge(0, 0 if hnn else 1, FiniteGroupTable.cyclic(c),
                   draw(st.sampled_from(_embeddings(u, c))),
                   draw(st.sampled_from(_embeddings(v, c))), tree=not hnn)
    return GraphOfGroupsGroup(GraphOfGroups([u] if hnn else [u, v], [edge]))


@settings(max_examples=60, deadline=None)
@given(_splittings(), st.integers(0, 4))
def test_tree_moves_match_transversal_search(group, radius):
    tree = build_tree_portion(group, radius)
    orbit, _, words, adj, dist = reference_tree_portion(group, radius)
    assert (tree.orbit, tree.words, tree.adj) == (orbit, words, adj)
    assert [len(w) // 2 for w in tree.words] == dist


# Pinned tree actions: sha256 of the canonical JSON of each output, computed
# while every action still normalized the whole word gamma * g * p_v for a
# representative g of the vertex's coset.
# The amalgam and c4*c2*c6 have nontrivial edge groups, so a carried
# edge-group element can run on into the translated path word.

def _classify_words(seed):
    """The 60 words of the tree-certificate benchmark workload: word i has
    1 + i mod 8 alternating syllables before reduction."""
    rng = random.Random(seed)
    words = []
    for i in range(60):
        letter = rng.choice("ab")
        word = []
        for _ in range(1 + i % 8):
            if letter == "a":
                word.append(rng.choice(["a", "a'"]))
            else:
                word += rng.choice([["b"], ["b'"], ["b", "b"], ["b'", "b'"]])
            letter = "b" if letter == "a" else "a"
        words.append(word)
    return words


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


_fixture = functools.cache(load_fixture)


@functools.cache
def _portion(name, radius):
    # one group per fixture, so portions of any radius share its elements
    return build_tree_portion(_fixture(name), radius)


CLASSIFY_DIGESTS = {
    1: "ee4361318ede9526f023ac5f37b86e4fa6055493d1839a061918bca98544f258",
    2: "b66f13af219253aed500f4cd727172bfcf37524186f5c92edb0a588c5d5aa50a",
    5: "589866386a7058f3aeb4b3d3d415fe299bfd5d6631357cf87a1607cda346419f",
    9: "f358b861df676615524f122097dca7ce127b32555846f972772b247c2aaa4bc7",
}


@pytest.mark.parametrize("seed", sorted(CLASSIFY_DIGESTS))
def test_classification_digests(seed):
    tree = _portion("c2*c3", 14)
    out = []
    for word in _classify_words(seed):
        act = classify_tree_automorphism(tree, normal_form(tree.group, word))
        out.append([act.kind, act.translation_length, act.witness])
    assert _digest(out) == CLASSIFY_DIGESTS[seed]


ACTION_DIGESTS = {
    ("amalgam", 5):
        "53d0234bb25fd4f5b9eed1d0d9f398f0f622fc1473065b8fce3bfdf5f2976209",
    ("c2*c3", 14):
        "063390cc918836d249034889ff12678553a15c503b83b6a8cc0021a89f1f3a6d",
    ("c4*c2*c6", 7):
        "acb6ec13799f60a25aa5091283ebcffd81bef2ebbdb109dca35150fff5d13bfd",
    ("f2", 6):
        "3912465f8c8182c6a85afee698aadf45d999e8df5d8a14a144db937e15944dd3",
}


@pytest.mark.parametrize("case", sorted(ACTION_DIGESTS), ids=str)
def test_action_digests(case):
    tree = _portion(*case)
    rng = random.Random(str(case))
    images = []
    for _ in range(40):
        gamma = _random_element(tree.group, rng, 10)
        images.append([tree.action(gamma, x) for x in range(tree.vertex_count)])
    assert _digest(images) == ACTION_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(ACTION_DIGESTS), ids=str)
def test_distance_matches_bfs(case):
    tree = _portion(*case)
    n = tree.vertex_count
    for x in random.Random(str(case)).sample(range(n), 12):
        ref = bfs(tree.adj.__getitem__, x)
        assert [tree.distance(x, y) for y in range(n)] \
            == [ref[y] for y in range(n)]


# The word classification against the whole-portion scan. The scan runs
# on a portion reaching one past gamma·root, which holds every vertex it
# picks: an elliptic gamma's least fixed vertex lies at half the depth of
# gamma·root, and the axis neighbours' images no deeper than one past it.
# Words of at most 10 letters keep that portion small, far under
# TREE_VERTEX_CAP. Radii 0 and 1 draw witnesses outside the portion. On
# the amalgams' trees every displacement is even; z, an HNN extension,
# draws odd ones.

@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["c2*c3", "c4*c2*c6", "amalgam", "z"]),
       st.integers(0, 8),
       st.randoms(use_true_random=False))
def test_classify_matches_scan(name, radius, rng):
    tree = _portion(name, radius)
    if rng.random() < 0.3:  # a conjugate of a generator: often elliptic
        w = _random_element(tree.group, rng, 4)
        g = rng.choice([g for _, g in tree.group.gen_symbols()])
        gamma = multiply(multiply(w, g), inverse(w))
    else:
        gamma = _random_element(tree.group, rng, 10)
    depth = len(tree.group.translate_word(gamma, tree.words[0])) // 2
    kind, length, witness = classify_by_scan(_portion(name, depth + 1), gamma)
    # BFS numbering: the small portion's vertices come first in the large
    inside = max(witness if kind == "hyperbolic" else (witness,)) \
        < tree.vertex_count
    act = classify_tree_automorphism(tree, gamma)
    assert (act.kind, act.translation_length, act.witness) \
        == (kind, length, witness if inside else None)


@pytest.mark.parametrize("radius, witness", [(4, None), (8, None), (16, 635)])
def test_deep_conjugate_is_elliptic_at_any_radius(c2c3, radius, witness):
    # (ab)^7·a·(ab)^-7 fixes a vertex at depth 14, outside the smaller
    # portions: the type does not depend on the radius, the witness does
    tree = build_tree_portion(c2c3, radius)
    w = normal_form(c2c3, ["a", "b"] * 7)
    gamma = multiply(multiply(w, c2c3.generators["a"]), inverse(w))
    act = classify_tree_automorphism(tree, gamma)
    assert (act.kind, act.witness) == ("elliptic", witness)


def test_classify_reads_the_root_path(c2c3, zgroup, monkeypatch):
    calls = []
    translate = GraphOfGroupsGroup.translate_word

    def counted(group, gamma, word):
        calls.append(word)
        return translate(group, gamma, word)

    monkeypatch.setattr(GraphOfGroupsGroup, "translate_word", counted)
    tree = build_tree_portion(c2c3, 12)
    a, b = c2c3.generators["a"], c2c3.generators["b"]
    ab = multiply(a, b)
    w = multiply(multiply(b, a), b)
    for gamma, kind in ((ab, "hyperbolic"),
                        (multiply(multiply(ab, ab), multiply(ab, ab)),
                         "hyperbolic"),
                        (multiply(multiply(w, a), inverse(w)), "elliptic")):
        calls.clear()
        assert classify_tree_automorphism(tree, gamma).kind == kind
        assert len(calls) <= 3  # the scan makes one per vertex: 379 here
    # an odd displacement needs no midpoint image: the root's two images
    calls.clear()
    act = classify_tree_automorphism(build_tree_portion(zgroup, 12),
                                     zgroup.generators["t"])
    assert (act.kind, act.translation_length) == ("hyperbolic", 1)
    assert len(calls) == 2

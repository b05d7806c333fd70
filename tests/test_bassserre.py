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
from gdecomp.errors import UncertifiedRegion, VerificationFailure
from gdecomp.fixtures import load_fixture, make_cyclic_amalgam
from gdecomp.graphs import bfs
from gdecomp.groups import inverse, multiply, normal_form


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
        try:
            act = classify_tree_automorphism(tree, gamma)
        except UncertifiedRegion:
            continue
        assert act.kind == "elliptic"


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
    group, subgroups = _key_group(name)
    gamma = _random_element(group, rng, 6)
    for v, sub in enumerate(subgroups):
        # half the time a second element of gamma's own coset
        other = (multiply(gamma, rng.choice(sub)) if rng.random() < 0.5
                 else _random_element(group, rng, 6))
        same = (group.vertex_coset_key(v, gamma)
                == group.vertex_coset_key(v, other))
        assert same == (reference_coset_key(subgroups, v, gamma)
                        == reference_coset_key(subgroups, v, other))
        rep = _random_element(group, rng, 3)
        assert group.vertex_coset_key(v, gamma, rep) \
            == group.vertex_coset_key(v, multiply(gamma, rep))


@pytest.mark.parametrize("name", KEY_GROUPS, ids=str)
def test_tree_action_matches_element_set_keys(name):
    group, subgroups = _key_group(name)
    rng = random.Random(str(name))
    for radius in (2, 4):
        tree = build_tree_portion(group, radius)
        n = tree.vertex_count
        ref_index = {reference_coset_key(subgroups, tree.orbit[y], tree.reps[y]): y
                     for y in range(n)}
        assert len(ref_index) == n
        for _ in range(6):
            gamma = _random_element(group, rng, 5)
            for x in range(n):
                key = reference_coset_key(subgroups, tree.orbit[x],
                                          multiply(gamma, tree.reps[x]))
                assert tree.action(gamma, x) == ref_index.get(key)


def test_degenerate_edge_is_one_tree_edge():
    # C3 *_{C3} C3: both vertex subgroups are the whole group, so the tree
    # is one edge whose two ends lie in different orbits
    group = make_cyclic_amalgam(3, 3, 3)
    tree = build_tree_portion(group, 4)
    assert tree.orbit == [0, 1] and tree.adj == [[1], [0]]
    x = group.generators["x"]
    assert [tree.action(x, v) for v in (0, 1)] == [0, 1]


# Pinned tree actions: sha256 of the canonical JSON of each output, computed
# while every action still normalized the whole word gamma * reps[x] * p_v.
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


@functools.cache
def _portion(name, radius):
    return build_tree_portion(load_fixture(name), radius)


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
    built = _portion(*case)
    for tree in (built, perturb_tree_portion(built)):
        n = tree.vertex_count
        for x in random.Random(str(case)).sample(range(n), 12):
            ref = bfs(tree.adj.__getitem__, x)
            assert [tree.distance(x, y) for y in range(n)] \
                == [ref.get(y) for y in range(n)]

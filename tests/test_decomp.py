import random
from fractions import Fraction

import pytest

from gdecomp import (build_ball, build_nerve_complex, check_periodicity,
                     check_vtf_conditions, compute_global_decomposition,
                     compute_stabilizers, discover_graph_of_groups)
from gdecomp.decomp import (bag_size_bound, edge_incidence_bound,
                            maximal_finite_subgroups)
from gdecomp.groups import multiply


def test_sl2z_decomposition_frozen(sl2z_decomp):
    dec = sl2z_decomp
    assert sorted(dec.model_vertex_sizes) == [4, 6]
    assert [(e["u"], e["v"], e["adhesion_size"]) for e in dec.model_edges] \
        == [(0, 1, 2)]
    assert dec.max_adhesion() == 2
    assert sorted({len(b) for b in dec.bags}) == [1, 4, 6]
    assert dec.interior_radius == 7


def test_sl2z_axioms(sl2z_decomp):
    report = sl2z_decomp.verify_axioms()
    assert report["h1_pass"] and report["h2_pass"]


def test_sl2z_stabilizers(sl2z_decomp):
    stabs = compute_stabilizers(sl2z_decomp)
    assert sorted(s.order for s in stabs) == [4, 6]
    assert all(s.closed for s in stabs)


def test_sl2z_maximal_finite_subgroups(sl2z_ball10):
    families = maximal_finite_subgroups(sl2z_ball10, 6)
    assert sorted(len(f) for f in families) == [4, 6]


def test_sl2z_periodicity(sl2z_ball10, sl2z_decomp):
    rng = random.Random(0)
    interior = [v for v in range(sl2z_ball10.vertex_count)
                if sl2z_ball10.word_length[v] <= sl2z_decomp.interior_radius]
    sample = [sl2z_ball10.elements[v] for v in rng.sample(interior, 20)]
    report = check_periodicity(sl2z_decomp, sl2z_ball10, sample)
    assert report["pass"]
    assert report["checked"] == 455


def test_sl2z_vtf_conditions(sl2z, sl2z_decomp):
    S = sl2z.generators["S"]
    ST = multiply(S, sl2z.generators["T"])
    stabs = compute_stabilizers(sl2z_decomp)
    report = check_vtf_conditions(sl2z_decomp, stabs, [S, ST, multiply(S, S)])
    assert report["pass"]
    assert report["iii"]["max_finite_subgroup_order"] == 6


def test_c2c3_decomposition(c2c3):
    ball = build_ball(c2c3, 7)
    dec = compute_global_decomposition(ball, 3)
    assert sorted(dec.model_vertex_sizes) == [2, 3]
    assert [(e["u"], e["v"], e["adhesion_size"]) for e in dec.model_edges] \
        == [(0, 1, 1)]
    assert dec.verify_axioms()["h1_pass"]


def test_f2_decomposition_singletons(f2):
    ball = build_ball(f2, 5)
    dec = compute_global_decomposition(ball, 3)
    assert dec.model_vertex_sizes == [1]
    assert all(len(b) == 1 for b in dec.bags)
    loops = [e for e in dec.model_edges if e["u"] == e["v"]]
    assert len(loops) == 2
    assert dec.max_adhesion() == 0
    assert dec.verify_axioms()["h1_pass"]


def test_z5_single_bag(z5):
    ball = build_ball(z5, 8)
    dec = compute_global_decomposition(ball, 5)
    assert dec.model_vertex_sizes == [5]
    assert dec.model_edges == []


def test_edge_incidence_and_bag_bounds(sl2z_decomp):
    assert edge_incidence_bound(sl2z_decomp) == 1
    assert bag_size_bound(1, 3, [4]) == 6
    assert bag_size_bound(0, 7, []) == 0
    assert bag_size_bound(2, 2, [1, 1]) == 4
    assert bag_size_bound(1, Fraction(9, 4), [4]) == 6
    with pytest.raises(ValueError):
        bag_size_bound(-1, 2, [])


def test_nerve_sl2z(sl2z_decomp):
    nerve = build_nerve_complex(sl2z_decomp)
    assert nerve["dimension"] == 1
    assert nerve["connected"]


def test_nerve_f2(f2):
    ball = build_ball(f2, 5)
    dec = compute_global_decomposition(ball, 3)
    nerve = build_nerve_complex(dec)
    assert nerve["dimension"] == 0
    assert not nerve["connected"]
    assert all(len(s) == 1 for s in nerve["maximal_simplices"])


def test_discover_sl2z(sl2z):
    gog, trace = discover_graph_of_groups(sl2z)
    assert trace["stabilized"]
    assert sorted(t.order for t in gog.vertices) == [4, 6]
    assert [e.table.order for e in gog.edges] == [2]
    assert gog.euler_characteristic() == Fraction(-1, 12)


def test_discover_c4c2c6_matches_sl2z(c4c2c6):
    gog, trace = discover_graph_of_groups(c4c2c6)
    assert sorted(t.order for t in gog.vertices) == [4, 6]
    assert [e.table.order for e in gog.edges] == [2]
    assert gog.euler_characteristic() == Fraction(-1, 12)


def test_discover_f2(f2):
    gog, trace = discover_graph_of_groups(f2)
    assert [t.order for t in gog.vertices] == [1]
    assert len(gog.edges) == 2
    assert all(e.u == e.v == 0 for e in gog.edges)
    assert gog.euler_characteristic() == -1


def test_discover_c2c3(c2c3):
    gog, trace = discover_graph_of_groups(c2c3)
    assert sorted(t.order for t in gog.vertices) == [2, 3]
    assert [e.table.order for e in gog.edges] == [1]
    assert gog.euler_characteristic() == Fraction(-1, 6)


def test_discover_z_and_z5(zgroup, z5):
    gog, _ = discover_graph_of_groups(zgroup)
    assert [t.order for t in gog.vertices] == [1]
    assert len(gog.edges) == 1 and gog.edges[0].u == gog.edges[0].v
    assert gog.euler_characteristic() == 0
    gog5, _ = discover_graph_of_groups(z5, r0=5)
    assert [t.order for t in gog5.vertices] == [5]
    assert gog5.edges == []
    assert gog5.euler_characteristic() == Fraction(1, 5)


def test_discover_idempotent(c2c3):
    gog, trace = discover_graph_of_groups(c2c3)
    gog2, trace2 = discover_graph_of_groups(c2c3, r0=trace["R"])
    assert sorted(t.order for t in gog.vertices) \
        == sorted(t.order for t in gog2.vertices)
    assert sorted(e.table.order for e in gog.edges) \
        == sorted(e.table.order for e in gog2.edges)

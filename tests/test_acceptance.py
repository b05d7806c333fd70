"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Criterion 2's "zero violations" half is asserted exactly as stated even
though the central square commutator S^2 T S^-2 T^-1 is a genuine
6-cycle crossing cosets; that half fails honestly (the r = 8 control
half holds).
"""

import random
import time
from fractions import Fraction

from gdecomp import (build_ball, build_nerve_complex, build_tree_portion,
                     build_truncated_cover, check_periodicity,
                     classify_cycle_lift, classify_tree_automorphism,
                     compute_global_decomposition, discover_graph_of_groups,
                     enumerate_short_cycles, estimate_displacement,
                     order_threshold, verify_ball_preservation,
                     verify_equivariant_isomorphism,
                     verify_short_cycle_cosets)
from gdecomp.bassserre import DecompositionTree, perturb_tree_portion
from gdecomp.fixtures import load_fixture, make_cyclic_amalgam
from gdecomp.groups import inverse, multiply
from gdecomp.subgroups import (congruence_hom, construct_finite_quotient,
                               index_lower_bound, index_upper_bound,
                               kernel_subgroup, presentation_from_group,
                               reidemeister_schreier, verify_torsion_free)


def verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {tag}{suffix}")
    return ok


def powers(group, g, n):
    out, acc = [], group.identity
    for _ in range(n):
        out.append(acc)
        acc = multiply(acc, g)
    return out


def test_criterion_01_sl2z_decomposition(sl2z):
    t0 = time.perf_counter()
    ball = build_ball(sl2z, 10)
    dec = compute_global_decomposition(ball, 6)
    elapsed = time.perf_counter() - t0
    single_edge = [(e["u"], e["v"]) for e in dec.model_edges] == [(0, 1)]
    ok = (single_edge
          and sorted(dec.model_vertex_sizes) == [4, 6]
          and dec.max_adhesion() == 2
          and elapsed < 60)
    assert verdict(1, "sl2z decomposition single edge 4/6 adhesion 2", ok,
                   f"{elapsed:.1f}s")


def test_criterion_02_short_cycle_coset_claim(sl2z, sl2z_ball10):
    S = sl2z.generators["S"]
    ST = multiply(S, sl2z.generators["T"])
    candidates = [powers(sl2z, S, 4), powers(sl2z, ST, 6),
                  powers(sl2z, multiply(S, S), 2)]
    control = verify_short_cycle_cosets(sl2z_ball10, 8, candidates)
    main = verify_short_cycle_cosets(sl2z_ball10, 6, candidates)
    ok = main["pass"] and not control["pass"]
    assert verdict(
        2, "length-<=6 cycles in single cosets (zero violations)", ok,
        f"{len(main['violations'])} violations at r=6 "
        "(central square commutator); control at r=8 finds violations "
        "as required")


def test_criterion_03_discovery_stabilization(sl2z, f2):
    gog, trace = discover_graph_of_groups(sl2z)
    sl2z_ok = (trace["stabilized"]
               and sorted(t.order for t in gog.vertices) == [4, 6]
               and [e.table.order for e in gog.edges] == [2])
    gog2, trace2 = discover_graph_of_groups(f2)
    f2_ok = ([t.order for t in gog2.vertices] == [1]
             and len(gog2.edges) == 2
             and all(e.u == e.v for e in gog2.edges)
             and all(e.table.order == 1 for e in gog2.edges))
    gog3, _ = discover_graph_of_groups(sl2z, r0=trace["R"])
    idem = (sorted(t.order for t in gog3.vertices)
            == sorted(t.order for t in gog.vertices)
            and sorted(e.table.order for e in gog3.edges)
            == sorted(e.table.order for e in gog.edges))
    assert verdict(3, "discovery stabilizes and is idempotent",
                   sl2z_ok and f2_ok and idem)


def test_criterion_04_index_bounds():
    ok = (index_lower_bound(6, 6) == 1
          and index_upper_bound(6, 2) == 518400)
    assert verdict(4, "index bounds ceil(6/6)=1 and (6!)^2=518400", ok)


def test_criterion_05_free_subgroup_certificates(c2c3, sl2z):
    pres = presentation_from_group(c2c3)
    cert = kernel_subgroup(construct_finite_quotient(c2c3, pres), pres)
    reidemeister_schreier(cert, pres)
    tf, _ = verify_torsion_free(cert, pres)
    m = cert.index
    c2c3_ok = (tf and cert.evidence["free"]
               and 1 <= m <= 36
               and cert.rank == 1 + Fraction(m, 6))
    pres_z = presentation_from_group(sl2z)
    cert_z = kernel_subgroup(construct_finite_quotient(sl2z, pres_z), pres_z)
    reidemeister_schreier(cert_z, pres_z)
    tf_z, _ = verify_torsion_free(cert_z, pres_z)
    sl2z_ok = (tf_z and cert_z.rank == 1 + Fraction(cert_z.index, 12))
    mod2 = kernel_subgroup(congruence_hom(sl2z, 2), pres_z)
    tf2, witnesses = verify_torsion_free(mod2, pres_z)
    control_ok = (not tf2) and "S*S" in witnesses
    assert verdict(
        5, "free subgroup certificates", c2c3_ok and sl2z_ok and control_ok,
        f"c2*c3 index {m} rank {cert.rank}; sl2z index {cert_z.index} "
        f"rank {cert_z.rank}; mod-2 control witness S*S")


def test_criterion_06_tits_classification(c2c3, c4c2c6, z5, zgroup):
    trees = {name: build_tree_portion(g, 6)
             for name, g in [("c2*c3", c2c3), ("c4*c2*c6", c4c2c6),
                             ("z5", z5), ("z", zgroup)]}
    groups = {"c2*c3": c2c3, "c4*c2*c6": c4c2c6, "z5": z5, "z": zgroup}
    torsion = []
    for name, g in groups.items():
        for v in range(len(g.gog.vertices)):
            for i in range(1, g.gog.vertices[v].order):
                torsion.append((name, g.based_vertex_element(v, i)))
    hyperbolic_hits, classified = 0, 0
    for name, gamma in torsion:
        act = classify_tree_automorphism(trees[name], gamma)
        classified += 1
        if act.kind == "hyperbolic":
            hyperbolic_hits += 1
    rng = random.Random(6)
    for _ in range(500):
        name, gamma = torsion[rng.randrange(len(torsion))]
        g = groups[name]
        gens = list(g.generators.values())
        w = g.identity
        for _ in range(rng.randrange(4)):
            w = multiply(w, gens[rng.randrange(len(gens))])
        conj = multiply(multiply(w, gamma), inverse(w))
        act = classify_tree_automorphism(trees[name], conj)
        classified += 1
        if act.kind == "hyperbolic":
            hyperbolic_hits += 1
    tree = build_tree_portion(c2c3, 12)
    ab = multiply(c2c3.generators["a"], c2c3.generators["b"])
    acc, scaling_ok = ab, True
    for k in range(1, 5):
        act = classify_tree_automorphism(tree, acc)
        if act.kind != "hyperbolic" or act.translation_length != 2 * k:
            scaling_ok = False
        acc = multiply(acc, ab)
    ok = hyperbolic_hits == 0 and scaling_ok
    assert verdict(6, "torsion never hyperbolic; ab translates linearly", ok,
                   f"{classified} classifications, {hyperbolic_hits} "
                   "hyperbolic among torsion")


def test_criterion_07_cover_invariants(z5, sl2z_ball10, c2c3, c4c2c6):
    ball = build_ball(z5, 8)
    cov = build_truncated_cover(ball, 4, 8)
    degrees = sorted(len(cov.neighbors(x)) for x in range(cov.vertex_count))
    is_path = degrees[:2] == [1, 1] and all(d == 2 for d in degrees[2:])
    disp = estimate_displacement(cov)
    bp2 = verify_ball_preservation(cov, radius=2)
    bp3 = verify_ball_preservation(cov, radius=3)
    lifts_ok = True
    cases = [(sl2z_ball10, 6), (build_ball(c2c3, 8), 4),
             (build_ball(c4c2c6, 8), 6), (ball, 5)]
    for b, r in cases:
        c = build_truncated_cover(b, r, 2)
        for cyc in enumerate_short_cycles(b, r):
            if all(b.word_length[v] <= 2 for v in cyc.vertices):
                if classify_cycle_lift(c, cyc) != "lifts-closed":
                    lifts_ok = False
    ok = (is_path and disp["delta"] == 5 and disp["exact"]
          and order_threshold(disp["delta"], 4) == Fraction(9, 4)
          and bp2["pass"] and not bp3["pass"] and bp3["witnesses"]
          and lifts_ok)
    assert verdict(7, "cover invariants on the 5-cycle; short cycles lift "
                   "closed", ok, "delta=5 K=9/4")


def test_criterion_08_equivariance_periodicity(sl2z_ball10, sl2z_decomp):
    rng = random.Random(0)
    interior = [v for v in range(sl2z_ball10.vertex_count)
                if sl2z_ball10.word_length[v] <= sl2z_decomp.interior_radius]
    sample = [sl2z_ball10.elements[v] for v in rng.sample(interior, 20)]
    report = check_periodicity(sl2z_decomp, sl2z_ball10, sample)
    ok = report["pass"] and not report["mismatches"]
    assert verdict(8, "interior bags translate onto bags (20 samples)", ok,
                   f"{report['checked']} translate checks")


def test_criterion_09_equivariant_tree_isomorphism(sl2z_decomp, c4c2c6):
    dec_tree = DecompositionTree(sl2z_decomp, 3)
    bs_tree = build_tree_portion(c4c2c6, 3)
    report = verify_equivariant_isomorphism(dec_tree, bs_tree, ["S", "T"])
    perturbed = perturb_tree_portion(bs_tree)
    control = verify_equivariant_isomorphism(dec_tree, perturbed, ["S", "T"])
    ok = report["pass"] and not control["pass"] and bool(control["witness"])
    assert verdict(9, "decomposition tree == Bass-Serre portion "
                   "(equivariantly); perturbed control fails", ok,
                   f"isomorphism on {report.get('isomorphism_size')} vertices, "
                   f"{report['checked']} (generator, vertex) pairs compared")


def test_criterion_10_congruence_orders(sl2z):
    sl3z = load_fixture("sl3z")
    orders = (congruence_hom(sl2z, 2).order,
              congruence_hom(sl2z, 3).order,
              congruence_hom(sl3z, 3).order)
    ok = orders == (6, 24, 5616)
    assert verdict(10, "congruence quotient orders 6/24/5616", ok,
                   str(orders))


def test_criterion_11_nerve(f2, sl2z_decomp):
    ball = build_ball(f2, 5)
    dec = compute_global_decomposition(ball, 3)
    nf = build_nerve_complex(dec)
    f2_ok = nf["dimension"] == 0 and not nf["connected"] \
        and all(len(s) == 1 for s in nf["maximal_simplices"])
    nz = build_nerve_complex(sl2z_decomp)
    sl2z_ok = nz["dimension"] == 1 and nz["connected"]
    assert verdict(11, "nerves: f2 points, sl2z connected 1-dimensional",
                   f2_ok and sl2z_ok)


def test_criterion_12_cyclic_amalgam_discovery():
    # oracle (c): discovery recovers C_a *_{C_c} C_b from its Cayley graph
    found = {}
    for a, c, b in [(2, 1, 3), (2, 1, 5), (4, 2, 6), (3, 1, 3), (6, 3, 9)]:
        gog, trace = discover_graph_of_groups(make_cyclic_amalgam(a, c, b))
        found[(a, c, b)] = (
            trace["stabilized"]
            and sorted(t.order for t in gog.vertices) == sorted([a, b])
            and [e.table.order for e in gog.edges] == [c]
            and gog.euler_characteristic()
            == Fraction(1, a) + Fraction(1, b) - Fraction(1, c))
    assert verdict(12, "discovery recovers cyclic amalgams C_a *_C_c C_b",
                   all(found.values()),
                   ", ".join(f"{k}: {'ok' if v else 'wrong'}"
                             for k, v in found.items()))

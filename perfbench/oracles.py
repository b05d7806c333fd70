"""Checks made apart from gdecomp: every expected value here is computed
from the group specs (or the builder arguments) with arithmetic written
for the benchmark, never by calling the package.

Each check returns a list of error strings; an empty list means the
output is correct. `self_check()` runs every oracle on hand-computed
cases and raises AssertionError if one disagrees.
"""

from __future__ import annotations

from fractions import Fraction


# ---------------------------------------------------------------------------
# specs

def spec_orders(spec):
    """(vertex orders, edge orders, loop count) of a graph-of-groups spec."""
    def order(table):
        if table.get("trivial"):
            return 1
        if "cyclic" in table:
            return table["cyclic"]
        if "mul" in table:
            return len(table["mul"])
        raise ValueError(f"unsupported table spec {sorted(table)}")
    vertices = [order(v) for v in spec["vertices"]]
    edges = [order(e["group"]) for e in spec["edges"]]
    loops = sum(1 for e in spec["edges"] if e["u"] == e["v"])
    return vertices, edges, loops


def euler_characteristic(vertex_orders, edge_orders):
    """chi = sum 1/|G_v| - sum 1/|G_e| (oracle b)."""
    return (sum(Fraction(1, n) for n in vertex_orders)
            - sum(Fraction(1, n) for n in edge_orders))


def expected_summary(name, vertex_orders, edge_orders, loops, source):
    """The report's summary row for a splitting with these orders."""
    n, plain = len(vertex_orders), len(edge_orders) - loops
    if n == 1 and plain == 0 and loops > 0:
        shape = f"rose with {loops} loops" if loops > 1 else "single loop"
    elif n == 1 and loops == 0:
        shape = "single vertex"
    elif n == 2 and plain == 1 and loops == 0:
        shape = "single edge"
    else:
        shape = f"{n} vertices, {plain + loops} edges"
    sizes = sorted(vertex_orders)
    bags = "1" if all(s == 1 for s in sizes) else " and ".join(map(str, sizes))
    return {"group": name, "model_graph": shape, "bag_sizes": bags,
            "source": source}


# ---------------------------------------------------------------------------
# (a) Tits type of a word in C2 * C3 from its syllable length

_C2C3_ORDER = {"a": 2, "b": 3}


def c2c3_classify(word):
    """("elliptic", None) or ("hyperbolic", translation length) for a word
    in the letters a, b with optional ' for inverses."""
    syl = []  # [letter, exponent]
    for sym in word:
        letter, e = sym[0], -1 if sym.endswith("'") else 1
        n = _C2C3_ORDER[letter]
        if syl and syl[-1][0] == letter:
            k = (syl[-1][1] + e) % n
            if k:
                syl[-1][1] = k
            else:
                syl.pop()
        else:
            syl.append([letter, e % n])
    # cyclic reduction: conjugate the last syllable onto the first
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        letter, e = syl.pop()
        k = (syl[0][1] + e) % _C2C3_ORDER[letter]
        if k:
            syl[0][1] = k
        else:
            syl.pop(0)
    if len(syl) <= 1:
        return "elliptic", None
    return "hyperbolic", len(syl)


def check_classification(word, kind, translation_length):
    want_kind, want_len = c2c3_classify(word)
    if (kind, translation_length) != (want_kind, want_len):
        return [f"classify {'*'.join(word)}: got {kind}/{translation_length}, "
                f"expected {want_kind}/{want_len}"]
    return []


# ---------------------------------------------------------------------------
# (b) certificates against the Euler characteristic

def check_certificate(cert_json, chi, label):
    errors = []
    index, rank = cert_json["index"], cert_json["rank"]
    want = 1 + Fraction(index) * (-chi)
    if rank is None or Fraction(rank) != want:
        errors.append(f"{label}: rank {rank} != 1 + {index}*(-chi) = {want}")
    if not cert_json["evidence"].get("free"):
        errors.append(f"{label}: no freeness certificate")
    if cert_json["torsion_free"] is not True:
        errors.append(f"{label}: not certified torsion-free")
    if cert_json["quotient_order"] != index:
        errors.append(f"{label}: index {index} != quotient order "
                      f"{cert_json['quotient_order']}")
    return errors


# ---------------------------------------------------------------------------
# (c) coset actions of cyclic amalgams

def amalgam_relators(a, c, b):
    """Relators of C_a *_{C_c} C_b on x0 (order a) and x1 (order b), with
    x0^(a/c) = x1^(b/c) generating the edge group."""
    rels = [[("x0", 1)] * a, [("x1", 1)] * b]
    for i in range(1, c):
        rels.append([("x0", 1)] * (i * a // c) + [("x1", -1)] * (i * b // c))
    return rels


def _compose(p, q):
    """Right action: first p, then q."""
    return tuple(q[x] for x in p)


def _perm_inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _perm_order(p):
    ident, acc, k = tuple(range(len(p))), p, 1
    while acc != ident:
        acc, k = _compose(acc, p), k + 1
    return k


def perm_group_order(perms):
    gens = list(perms) + [_perm_inverse(p) for p in perms]
    ident = tuple(range(len(gens[0])))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def check_coset_action(perms, relators, orders, index, label):
    """Every relator acts as the identity, each generator image has its
    vertex-group order, and the image group has the certified index."""
    errors = []
    degree = len(next(iter(perms.values())))
    ident = tuple(range(degree))
    inv = {s: _perm_inverse(p) for s, p in perms.items()}
    for rel in relators:
        acc = ident
        for s, e in rel:
            acc = _compose(acc, perms[s] if e > 0 else inv[s])
        if acc != ident:
            errors.append(f"{label}: relator of length {len(rel)} acts "
                          "nontrivially")
    for s, n in orders.items():
        if _perm_order(perms[s]) != n:
            errors.append(f"{label}: image of {s} has order "
                          f"{_perm_order(perms[s])}, expected {n}")
    size = perm_group_order([perms[s] for s in sorted(perms)])
    if size != index:
        errors.append(f"{label}: image group has order {size}, index {index}")
    return errors


# ---------------------------------------------------------------------------
# (d) truncated covers: sphere sizes of the base group, counted apart

def amalgam_sphere_sizes(a, c, b, radius):
    """Sphere sizes of C_a *_{C_c} C_b for the generators x^+-1, y^+-1.

    The edge group z = x^(a/c) = y^(b/c) is central, so an element is
    z^k times an alternating word in x^i (0 < i < a/c), y^j (0 < j < b/c).
    """
    period = {"x": a // c, "y": b // c}

    def times(el, letter, e):
        k, syl = el
        total = e
        if syl and syl[-1][0] == letter:
            total += syl[-1][1]
            syl = syl[:-1]
        k = (k + total // period[letter]) % c
        if total % period[letter]:
            syl = syl + ((letter, total % period[letter]),)
        return k, syl

    steps = [("x", 1), ("x", -1), ("y", 1), ("y", -1)]
    return _sphere_sizes((0, ()), lambda el: (times(el, l, e) for l, e in steps),
                         radius)


def matrix_sphere_sizes(matrices, radius):
    """Sphere sizes of the group generated by 2x2 integer matrices of
    determinant 1 and their inverses."""
    def mul(m, g):
        (p, q), (r, s) = m
        (e, f), (g_, h) = g
        return ((p * e + q * g_, p * f + q * h), (r * e + s * g_, r * f + s * h))
    gens = [((a, b), (c, d)) for (a, b), (c, d) in matrices]
    gens += [((d, -b), (-c, a)) for (a, b), (c, d) in gens]
    return _sphere_sizes(((1, 0), (0, 1)), lambda m: (mul(m, g) for g in gens),
                         radius)


def _sphere_sizes(start, neighbours, radius):
    seen, frontier, sizes = {start}, [start], [1]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for y in neighbours(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        sizes.append(len(nxt))
    return sizes


def check_cover(node_depth, projection, preservation, spheres, label):
    """The cover's projection is a bijection onto the base ball of radius
    depth, layer by layer, and ball preservation was really checked."""
    errors = []
    depth = len(spheres) - 1
    layers = [0] * (depth + 1)
    for d in node_depth:
        if d > depth:
            errors.append(f"{label}: cover node at depth {d} > {depth}")
            return errors
        layers[d] += 1
    if layers != spheres:
        errors.append(f"{label}: cover layers {layers} != base spheres {spheres}")
    if len(set(projection)) != len(projection):
        errors.append(f"{label}: projection is not injective")
    if preservation["checked"] == 0:
        errors.append(f"{label}: ball preservation checked 0 vertices")
    if not preservation["pass"]:
        errors.append(f"{label}: ball preservation failed at "
                      f"{len(preservation['witnesses'])} vertices")
    return errors


# ---------------------------------------------------------------------------
# (e) report bundles

def check_report(bundle, spec, schema_validator, label, splitting=None):
    """Schema, summary row, splitting orders, chi and certificate of one
    `gdecomp report` bundle.

    `splitting` is the graph-of-groups spec whose orders the group must
    show; it defaults to `spec` itself (matrix groups pass the spec of a
    known splitting instead)."""
    errors = [f"{label}: schema: {e.message}"
              for e in schema_validator.iter_errors(bundle)]
    matrix = spec["kind"] == "matrix"
    vertices, edges, loops = spec_orders(splitting or spec)
    chi = euler_characteristic(vertices, edges)
    want = expected_summary(spec["name"], vertices, edges, loops,
                            "decomposition" if matrix else "discovery")
    if bundle.get("summary") != want:
        errors.append(f"{label}: summary {bundle.get('summary')} != {want}")
    stages = bundle.get("stages", {})
    if matrix:
        model = stages["decomposition"]["model"]
        sizes = sorted(v["bag_size"] for v in model["vertices"])
        adhesions = sorted(e["adhesion_size"] for e in model["edges"])
        if sizes != sorted(vertices) or adhesions != sorted(edges):
            errors.append(f"{label}: bags {sizes} / adhesions {adhesions}, "
                          f"expected {sorted(vertices)} / {sorted(edges)}")
    else:
        disc = stages.get("discovery")
        if disc is None:
            return errors + [f"{label}: no discovery stage"]
        got_v = sorted(t["order"] for t in disc["vertices"])
        got_e = sorted(e["group"]["order"] for e in disc["edges"])
        if got_v != sorted(vertices) or got_e != sorted(edges):
            errors.append(f"{label}: discovered orders {got_v} / {got_e}, "
                          f"expected {sorted(vertices)} / {sorted(edges)}")
        if Fraction(disc["euler_characteristic"]) != chi:
            errors.append(f"{label}: discovered chi "
                          f"{disc['euler_characteristic']} != {chi}")
    if "certificate" not in stages:
        return errors + [f"{label}: no certificate stage"]
    return errors + check_certificate(stages["certificate"], chi, label)


# ---------------------------------------------------------------------------

def self_check():
    """Hand-computed cases for every oracle."""
    cases = {
        ("a",): ("elliptic", None),
        ("a", "a"): ("elliptic", None),
        ("b", "b"): ("elliptic", None),
        ("b", "a", "b'"): ("elliptic", None),
        ("a", "b", "a"): ("elliptic", None),
        ("a", "b"): ("hyperbolic", 2),
        ("a", "b'", "a", "b"): ("hyperbolic", 4),
        ("b", "a", "b", "a", "b"): ("hyperbolic", 4),  # b(a b a b^2)b^-1
        ("b", "b", "b", "a", "b"): ("hyperbolic", 2),
    }
    for word, want in cases.items():
        assert c2c3_classify(word) == want, (word, c2c3_classify(word))

    assert euler_characteristic([2, 3], [1]) == Fraction(-1, 6)
    assert euler_characteristic([1], [1, 1]) == -1
    assert euler_characteristic([4, 6], [2]) == Fraction(-1, 12)
    cert = {"index": 6, "rank": 2, "quotient_order": 6,
            "torsion_free": True, "evidence": {"free": True}}
    assert check_certificate(cert, Fraction(-1, 6), "c2*c3") == []
    assert check_certificate(dict(cert, rank=3), Fraction(-1, 6), "c2*c3")

    # C2 * C3 onto S3: x0 a transposition, x1 a 3-cycle
    s3 = {"x0": (1, 0, 2), "x1": (1, 2, 0)}
    rels = amalgam_relators(2, 1, 3)
    assert check_coset_action(s3, rels, {"x0": 2, "x1": 3}, 6, "S3") == []
    assert check_coset_action({"x0": (1, 0, 2), "x1": (0, 2, 1)}, rels,
                              {"x0": 2, "x1": 3}, 6, "bad")

    # SL(2, Z) under S, T, S^-1, T^-1: 16 products of two generators, less
    # the 4 trivial ones, less S^2 = S^-2 = -I counted twice
    assert matrix_sphere_sizes([[[0, -1], [1, 0]], [[1, 1], [0, 1]]], 2) \
        == [1, 4, 11]
    # C6 *_{C3} C12: x and y have distinct inverses, x^2 = y^4 is central;
    # the 12 elements at distance 2 are x^2, x^-2, y^2, y^-2, x y, x y^-1,
    # x^-1 y, x^-1 y^-1 and the same four with y first
    assert amalgam_sphere_sizes(6, 3, 12, 2) == [1, 4, 12]
    assert check_cover([0, 1, 1, 1, 1], [0, 1, 2, 3, 4],
                       {"checked": 1, "pass": True, "witnesses": []},
                       [1, 4], "toy") == []
    assert check_cover([0, 1, 1, 1, 1], [0, 1, 2, 3, 4],
                       {"checked": 0, "pass": True, "witnesses": []},
                       [1, 4], "toy")

    spec = {"kind": "graph-of-groups", "name": "f2",
            "vertices": [{"trivial": True}],
            "edges": [{"u": 0, "v": 0, "group": {"trivial": True}}] * 2}
    assert expected_summary("f2", *spec_orders(spec), "discovery") == {
        "group": "f2", "model_graph": "rose with 2 loops", "bag_sizes": "1",
        "source": "discovery"}

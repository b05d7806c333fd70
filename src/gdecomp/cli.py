"""Command-line pipeline: balls, covers, decompositions, splittings,
tree classification, subgroup certificates, and summary tables.

Exit codes: 0 success, 2 a stage hit a configured cap (partial output),
3 a verification failed, a parameter was invalid (a usage error, or a
ValueError from the library, such as a cover depth beyond the ball
radius), a group spec was malformed (SpecFormatError), or an answer
needed more than the built region holds (UncertifiedRegion, such as a
cover lift that leaves the truncation, or a classify portion of radius
below 2, too small for the non-elementary check; an element's type
never depends on the radius). JSON artifacts are canonical (sorted keys,
two-space indent, trailing newline) so reruns are byte-identical;
timings go to stderr only. An indent sends json.dumps to its
pure-Python encoder, so `canonical_json` writes the bytes of
json.dumps(obj, sort_keys=True, indent=2) itself, recursively: strings
through json's C string encoder, int, bool and None inline, any other
scalar through json.dumps. A key that is not a string raises TypeError.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from . import bassserre, cover, decomp, subgroups
from .cayley import DEFAULT_CAP, build_ball, torsion_length_bound
from .errors import (CapExceeded, GdecompError, SpecFormatError,
                     VerificationFailure)
from .fixtures import FIXTURES, fixture_path
from .groups import GraphOfGroupsGroup, MatrixGroup, load_group, normal_form

SCHEMA_VERSION = 1
_string = json.encoder.encode_basestring_ascii


def canonical_json(obj):
    chunks = []
    _write(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _write(o, nl, put):
    # put o as canonical JSON, nested after the line break and indent `nl`
    if type(o) is str:
        put(_string(o))
    elif type(o) is int:
        put(repr(o))
    elif o is None or o is True or o is False:
        put("null" if o is None else "true" if o else "false")
    elif isinstance(o, (dict, list, tuple)):
        keyed = isinstance(o, dict)
        sep, close = "{}" if keyed else "[]"
        inner = nl + "  "
        for v in sorted(o.items()) if keyed else o:
            put(sep + inner + _string(v[0]) + ": " if keyed else sep + inner)
            sep = ","
            _write(v[1] if keyed else v, inner, put)
        put(nl + close if o else sep + close)
    else:
        put(json.dumps(o))


def _load_group_arg(value):
    if value in FIXTURES:
        path = fixture_path(value)
    else:
        path = Path(value)
        # os.path.exists is False, not OSError, for an overlong name
        if not os.path.exists(path):
            raise SpecFormatError(f"no such group spec or fixture: {value}")
    return load_group(path)


def _emit(text, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _dot(name, prefix, labels, edges):
    """An undirected graph as DOT text: one node per label, node i named
    prefix + i, and one line per (u, v, label), bare where label is None."""
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    lines += [f'  {prefix}{i} [label="{s}"];' for i, s in enumerate(labels)]
    for u, v, label in edges:
        tail = "" if label is None else f' [label="{label}"]'
        lines.append(f"  {prefix}{u} -- {prefix}{v}{tail};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _log(msg, t0):
    print(f"[{time.perf_counter() - t0:7.2f}s] {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def cmd_ball(args):
    t0 = time.perf_counter()
    ball = build_ball(args.group, args.radius, cap=args.cap)
    _log(f"ball: {ball.vertex_count} vertices", t0)
    if args.format == "dot":
        text = _dot("ball", "n", [g.key() for g in ball.elements],
                    ((u, v, ",".join(labels)) for u, v, labels in ball.edges()))
    else:
        text = canonical_json(ball.to_json())
    _emit(text, args.out)
    return 0


def cmd_cover(args):
    t0 = time.perf_counter()
    ball = build_ball(args.group, args.radius)
    cov = cover.build_truncated_cover(ball, args.r, args.depth)
    _log(f"cover: {cov.vertex_count} nodes, certified depth {cov.certified_depth}", t0)
    report = cov.to_json()
    report["ball_preservation"] = cover.verify_ball_preservation(
        cov, samples=args.samples, seed=args.seed)
    disp = cover.estimate_displacement(cov)
    report["displacement"] = {
        "delta": disp["delta"], "exact": disp["exact"],
        "certified_diameter": disp["certified_diameter"],
        "order_threshold": None if disp["delta"] is None
        else str(cover.order_threshold(disp["delta"], args.r)),
    }
    _emit(canonical_json(report), args.out)
    return 0


def cmd_decompose(args):
    t0 = time.perf_counter()
    ball = build_ball(args.group, args.radius)
    dec = decomp.compute_global_decomposition(ball, args.r)
    _log(f"decompose: {dec.bag_count} bags", t0)
    if args.format == "dot":
        _emit(_dot("model", "h", dec.model_vertex_sizes,
                   ((e["u"], e["v"], e["adhesion_size"]) for e in dec.model_edges)),
              args.out)
        return 0
    report = dec.to_json()
    report["axioms"] = dec.covering_report
    report["stabilizers"] = [_stab_json(s) for s in decomp.compute_stabilizers(dec)]
    _emit(canonical_json(report), args.out)
    if not (report["axioms"]["h1_pass"] and report["axioms"]["h2_pass"]):
        return 3
    return 0


def _stab_json(s):
    return {"orbit": s.orbit, "order": s.order, "closed": s.closed,
            "elements": [g.key() for g in s.elements]}


def cmd_discover(args):
    t0 = time.perf_counter()
    gog, trace = decomp.discover_graph_of_groups(
        args.group, r0=args.r0, max_doublings=args.max_doublings)
    if gog is None:
        print(f"gdecomp: {trace['diagnosis']}", file=sys.stderr)
        _emit(canonical_json(trace), args.out)
        return 2
    _log(f"discover: stabilized at r={trace['R']}", t0)
    if args.format == "dot":
        _emit(_dot("splitting", "v", [tbl.order for tbl in gog.vertices],
                   ((e.u, e.v, e.table.order) for e in gog.edges)), args.out)
        return 0
    report = gog.to_json()
    report["trace"] = trace
    report["euler_characteristic"] = str(gog.euler_characteristic())
    _emit(canonical_json(report), args.out)
    return 0


def cmd_classify(args):
    if not isinstance(args.group, GraphOfGroupsGroup):
        raise SpecFormatError("tree classification needs a graph-of-groups spec")
    t0 = time.perf_counter()
    tree = bassserre.build_tree_portion(args.group, args.radius)
    gamma = normal_form(args.group, args.element.split("*"))
    action = bassserre.classify_tree_automorphism(tree, gamma)
    report = {
        "element": args.element,
        "kind": action.kind,
        "translation_length": action.translation_length,
        "witness": action.witness,
        "tree_vertices": tree.vertex_count,
        "non_elementary": bassserre.is_non_elementary(tree),
    }
    _log(f"classify: tree portion {tree.vertex_count} vertices", t0)
    if args.format == "dot":
        nodes = range(tree.vertex_count)
        _emit(_dot("tree", "t", [tree.label(x) for x in nodes],
                   ((x, y, None) for x in nodes for y in tree.adj[x] if x < y)),
              args.out)
        return 0
    _emit(canonical_json(report), args.out)
    return 0


def cmd_subgroup(args):
    t0 = time.perf_counter()
    group = args.group
    hom, cert, tf = _certify(group, args.modulus)
    _log(f"subgroup: index {cert.index}", t0)
    report = cert.to_json()
    report["quotient_detail"] = hom.detail
    if isinstance(group, GraphOfGroupsGroup):
        report["euler_characteristic"] = str(group.gog.euler_characteristic())
        if cert.rank is not None:
            report["rank_chi_consistent"] = True
    _emit(canonical_json(report), args.out)
    if not tf or cert.rank is None:
        return 3
    return 0


def _certify(group, modulus=None):
    """The certificate chain: presentation, finite quotient, kernel,
    Reidemeister-Schreier and the torsion check. A free kernel of a
    graph-of-groups group must have the rank 1 + index·(-χ) that the
    Euler characteristic forces, or VerificationFailure is raised.
    Returns (hom, cert, torsion_free)."""
    pres = subgroups.presentation_from_group(group)
    hom = subgroups.construct_finite_quotient(group, pres, modulus=modulus)
    cert = subgroups.kernel_subgroup(hom, pres)
    subgroups.reidemeister_schreier(cert, pres)
    tf, _ = subgroups.verify_torsion_free(cert, pres)
    if isinstance(group, GraphOfGroupsGroup) and cert.rank is not None:
        want = subgroups.expected_free_rank(group.gog, cert.index)
        if cert.rank != want:
            raise VerificationFailure(f"certified rank {cert.rank} contradicts "
                                      f"1 + index*(-chi) = {want}")
    return hom, cert, tf


def cmd_bounds(args):
    report = {
        "B": args.B, "n": args.n, "k_max": args.kmax,
        "index_lower_bound": subgroups.index_lower_bound(args.B, args.kmax),
        "index_upper_bound": subgroups.index_upper_bound(args.B, args.n),
    }
    if args.orders:
        if min(args.orders) < 1:
            raise ValueError("orders must be >= 1")
        prod = 1
        for x in args.orders:
            prod *= x
        report["vertex_order_product_bound"] = prod
    _emit(canonical_json(report), args.out)
    return 0


def cmd_nerve(args):
    t0 = time.perf_counter()
    ball = build_ball(args.group, args.radius)
    dec = decomp.compute_global_decomposition(ball, args.r)
    nerve = decomp.build_nerve_complex(dec)
    _log("nerve computed", t0)
    _emit(canonical_json(nerve), args.out)
    return 0


# ---------------------------------------------------------------------------
# pipeline orchestration

@dataclass
class RunConfig:
    r: int = None
    radius: int = None
    depth: int = None
    max_doublings: int = 5
    seed: int = 0
    out_dir: Path = None

    def resolve(self, group):
        """Fill parameter defaults from the group: r just above twice the
        torsion diameter (6 for the matrix backend), radius r + 4."""
        if self.r is None:
            if isinstance(group, GraphOfGroupsGroup):
                self.r = max(3, 2 * torsion_length_bound(group) + 2)
            else:
                self.r = 6
        if self.r < 3:
            raise SpecFormatError("need r >= 3")
        if self.radius is None:
            self.radius = self.r + 4
        if self.depth is None:
            self.depth = max(2, self.r // 2)


def run_pipeline(group, config):
    """ball -> cover -> decompose -> discover -> tree -> subgroup on a
    loaded group; returns the report bundle and writes per-stage artifacts
    when out_dir is set."""
    config.resolve(group)
    bundle = {"schema_version": SCHEMA_VERSION, "group": group.name,
              "parameters": {"r": config.r, "radius": config.radius,
                             "depth": config.depth, "seed": config.seed},
              "stages": {}}
    t0 = time.perf_counter()

    def save(stage, payload):
        bundle["stages"][stage] = payload
        if config.out_dir:
            p = Path(config.out_dir)
            p.mkdir(parents=True, exist_ok=True)
            (p / f"{stage}.json").write_text(canonical_json(payload))
        _log(f"stage {stage} done", t0)

    ball = build_ball(group, config.radius)
    save("ball", {"radius": config.radius, "vertices": ball.vertex_count,
                  "edges": ball.edge_count, "layers": ball.layer_counts()})

    cov = cover.build_truncated_cover(ball, config.r, config.depth)
    disp = cover.estimate_displacement(cov)
    save("cover", {"r": config.r, "depth": config.depth,
                   "vertices": cov.vertex_count,
                   "certified_depth": cov.certified_depth,
                   "displacement": disp["delta"],
                   "ball_preservation": cover.verify_ball_preservation(
                       cov, seed=config.seed)["pass"]})

    dec = decomp.compute_global_decomposition(ball, config.r)
    for axiom in ("H1", "H2"):
        if not dec.covering_report[axiom.lower() + "_pass"]:
            raise VerificationFailure(f"decomposition axiom {axiom} failed")
    dec_json = dec.to_json()
    dec_json["axioms"] = dec.covering_report
    save("decomposition", dec_json)

    gog = None
    if isinstance(group, GraphOfGroupsGroup):
        gog, trace = decomp.discover_graph_of_groups(
            group, max_doublings=config.max_doublings, ball=ball)
        if gog is None:
            raise CapExceeded(trace["diagnosis"],
                              reached=config.max_doublings)
        gj = gog.to_json()
        gj["trace"] = trace
        gj["euler_characteristic"] = str(gog.euler_characteristic())
        save("discovery", gj)

        tree = bassserre.build_tree_portion(group, max(3, config.depth))
        save("tree", {"vertices": tree.vertex_count,
                      "non_elementary": bassserre.is_non_elementary(tree)})

    if gog is not None or (isinstance(group, MatrixGroup)
                           and group.presentation):
        save("certificate", _certify(group)[1].to_json())

    bundle["summary"] = _summary_row(group.name, gog, dec_json)
    if config.out_dir:
        (Path(config.out_dir) / "report.json").write_text(canonical_json(bundle))
    return bundle


def _summary_row(name, gog, dec_json):
    """The model graph's shape and bag sizes, from the discovered
    splitting when there is one, else from the decomposition's model."""
    if gog is not None:
        sizes = [t.order for t in gog.vertices]
        ends = [(e.u, e.v) for e in gog.edges]
    else:
        model = dec_json["model"]
        sizes = [v["bag_size"] for v in model["vertices"]]
        ends = [(e["u"], e["v"]) for e in model["edges"]]
    n = len(sizes)
    loops = sum(1 for u, v in ends if u == v)
    plain = len(ends) - loops
    if n == 1 and plain == 0 and loops > 0:
        shape = f"rose with {loops} loops" if loops > 1 else "single loop"
    elif n == 1 and loops == 0:
        shape = "single vertex"
    elif n == 2 and plain == 1 and loops == 0:
        shape = "single edge"
    else:
        shape = f"{n} vertices, {plain + loops} edges"
    bag_str = ("1" if all(s == 1 for s in sizes)
               else " and ".join(map(str, sorted(sizes))))
    return {"group": name, "model_graph": shape, "bag_sizes": bag_str,
            "source": "discovery" if gog is not None else "decomposition"}


def _out_of_scope(group):
    # the splitting pipeline covers virtually free groups; higher-rank
    # matrix groups contain Z^2 and are out
    return isinstance(group, MatrixGroup) and group.dimension > 2


def emit_table1(specs, config):
    """Aligned text table with one summary row per group spec. Each group
    runs on a fresh copy of `config`, since `resolve` fills in its
    defaults per group."""
    rows = []
    for spec in specs:
        group = _load_group_arg(str(spec))
        if _out_of_scope(group):
            rows.append((group.name, "out of scope: not virtually free pipeline", ""))
            continue
        row = run_pipeline(group, replace(config))["summary"]
        rows.append((row["group"], row["model_graph"], row["bag_sizes"]))
    header = ("Group", "Model graph", "Bag sizes")
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def cmd_report(args):
    # discovery is the fourth stage; check its parameter before the first
    if args.max_doublings < 1:
        raise ValueError("max_doublings must be >= 1")
    config = RunConfig(r=args.r, radius=args.radius, depth=args.depth,
                       max_doublings=args.max_doublings, seed=args.seed)
    if args.format == "text-table":
        _emit(emit_table1(args.groups, config), args.out)
        return 0
    if len(args.groups) != 1:
        raise SpecFormatError("json report takes exactly one --group")
    group = _load_group_arg(args.groups[0])
    if _out_of_scope(group):
        raise VerificationFailure(f"{group.name}: out of scope, not virtually free")
    if args.out and Path(args.out).suffix == "":
        config.out_dir = args.out
    bundle = run_pipeline(group, config)
    if config.out_dir is None:
        _emit(canonical_json(bundle), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _add_group(p):
    p.add_argument("--group", required=True,
                   help="fixture name or path to a group spec JSON")


class _Parser(argparse.ArgumentParser):
    """A usage error is an invalid parameter: exit 3, not argparse's 2,
    which here means a cap was hit. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(
        prog="gdecomp",
        description="local-to-global decomposition pipeline for "
                    "finitely generated groups")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball", help="Cayley ball export")
    _add_group(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_common(p, ["json", "dot"])
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("cover", help="truncated local cover")
    _add_group(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--samples", type=int, default=None)
    _add_common(p, ["json"], seed=True)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("decompose", help="canonical decomposition of a ball")
    _add_group(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_common(p, ["json", "dot"])
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("discover", help="stabilized splitting discovery")
    _add_group(p)
    p.add_argument("--r0", type=int, default=2)
    p.add_argument("--max-doublings", type=int, default=5)
    _add_common(p, ["json", "dot"])
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("classify", help="Tits type of an element on the tree")
    _add_group(p)
    p.add_argument("--element", required=True,
                   help="generator names joined by *, X' or X^-1 for the "
                        "inverse of X, e.g. \"a*b'\" or \"a*b^-1\"")
    p.add_argument("--radius", type=int, default=4)
    _add_common(p, ["json", "dot"])
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("subgroup", help="finite-index subgroup certificate")
    _add_group(p)
    p.add_argument("--modulus", type=int, default=None)
    _add_common(p, ["json"])
    p.set_defaults(func=cmd_subgroup)

    p = sub.add_parser("bounds", help="index bounds from ball data")
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--orders", type=int, nargs="*", default=None,
                   help="vertex group orders for the product bound")
    _add_common(p, ["json"])
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("nerve", help="nerve complex of the bag covering")
    _add_group(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_common(p, ["json"])
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("report", help="full pipeline report / summary table")
    p.add_argument("--group", dest="groups", action="append", required=True,
                   help="repeatable for text-table output")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--max-doublings", type=int, default=5)
    _add_common(p, ["json", "text-table"], seed=True)
    p.set_defaults(func=cmd_report)
    return ap


def _add_common(p, formats, seed=False):
    """--format with the formats the command writes, --out, and --seed
    for the commands that sample."""
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--out", default=None)
    if seed:
        p.add_argument("--seed", type=int, default=0)


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if hasattr(args, "group") and args.command != "report":
            args.group = _load_group_arg(args.group)
        return args.func(args)
    except CapExceeded as e:
        print(f"gdecomp: cap exceeded: {e}", file=sys.stderr)
        return 2
    except (GdecompError, ValueError) as e:
        print(f"gdecomp: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

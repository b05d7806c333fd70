"""Spans and counters around gdecomp's layers, recorded from outside.

`Tracer.install()` replaces module functions and class methods of the
imported package with wrappers. A module function is replaced in every
gdecomp module that holds it, so `from .cayley import build_ball` copies
are caught too; a method is replaced on its class. Nothing under `src/`
changes.

Three kinds of boundary:

* span  - recorded: (name, start, end, parent, job) kept in memory and
  written out by `write()`;
* hot   - timed like a span, for self-time accounting, but not recorded
  one by one (group arithmetic and edge labels run millions of times);
* count - only counted (the recursive low-index search).

A counter is attributed to the layer of the innermost open span or hot
boundary when it is incremented. A layer's self time is the time its
spans and hot boundaries were open minus the time their children were.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

perf = time.perf_counter


# (module, attribute, kind, name, hook) - hook(result) -> {counter: n}
TARGETS = [
    ("gdecomp.groups.gog", "GraphOfGroupsGroup.op", "hot", "groups.op", None),
    ("gdecomp.groups.gog", "GraphOfGroupsGroup.inv", "hot", "groups.inv", None),
    ("gdecomp.groups.gog", "GraphOfGroupsGroup._normalize", "hot",
     "groups.normalize", None),
    ("gdecomp.groups.matrix", "MatrixGroup.op", "hot", "groups.op", None),
    ("gdecomp.groups.matrix", "MatrixGroup.inv", "hot", "groups.inv", None),

    ("gdecomp.cayley", "build_ball", "span", "cayley.build_ball",
     lambda r: {"vertices": r.vertex_count}),
    ("gdecomp.cayley", "torsion_length_bound", "span",
     "cayley.torsion_length_bound", None),
    ("gdecomp.cayley", "verify_short_cycle_cosets", "span",
     "cayley.verify_short_cycle_cosets", None),
    ("gdecomp.cayley", "CayleyBall.edge_label", "hot", "cayley.edge_label",
     None),

    ("gdecomp.cycles", "enumerate_short_cycles", "span", "cycles.enumerate",
     lambda r: {"cycles": len(r)}),
    ("gdecomp.cycles", "_kernel", "span", "cycles.kernel", None),

    ("gdecomp.cover", "build_truncated_cover", "span", "cover.build",
     lambda r: {"vertices": r.vertex_count}),
    ("gdecomp.cover", "verify_ball_preservation", "span", "cover.verify",
     lambda r: {"preservation_checked": r["checked"]}),
    ("gdecomp.cover", "estimate_displacement", "span", "cover.displacement",
     None),
    ("gdecomp.cover", "TruncatedCover.to_json", "span", "cover.to_json", None),

    ("gdecomp.decomp", "compute_global_decomposition", "span",
     "decomp.decompose", lambda r: {"bags": r.bag_count}),
    ("gdecomp.decomp", "maximal_finite_subgroups", "span", "decomp.max_finite",
     None),
    ("gdecomp.decomp", "compute_stabilizers", "span", "decomp.stabilizers",
     None),
    ("gdecomp.decomp", "discover_graph_of_groups", "span", "decomp.discover",
     lambda r: {"discover_iterations": len(r[1]["iterations"])}),
    ("gdecomp.decomp", "GlobalDecomposition.verify_axioms", "span",
     "decomp.verify_axioms", None),
    ("gdecomp.decomp", "GlobalDecomposition.to_json", "span", "decomp.to_json",
     None),

    ("gdecomp.bassserre", "build_tree_portion", "span", "bassserre.tree",
     lambda r: {"tree_vertices": r.vertex_count}),
    ("gdecomp.bassserre", "classify_tree_automorphism", "span",
     "bassserre.classify", lambda r: {"classified": 1}),
    ("gdecomp.bassserre", "is_non_elementary", "span",
     "bassserre.non_elementary", None),

    ("gdecomp.subgroups", "presentation_from_group", "span",
     "subgroups.presentation", None),
    ("gdecomp.subgroups", "construct_finite_quotient", "span",
     "subgroups.quotient", None),
    ("gdecomp.subgroups", "_search", "count", "subgroups.search", None),
    ("gdecomp.subgroups", "kernel_subgroup", "span", "subgroups.kernel",
     lambda r: {"index": r.index}),
    ("gdecomp.subgroups", "reidemeister_schreier", "span", "subgroups.rewrite",
     lambda r: {"schreier_generators":
                r.evidence.get("schreier_generators", 0)}),
    ("gdecomp.subgroups", "verify_torsion_free", "span",
     "subgroups.torsion_free", None),

    ("gdecomp.cli", "main", "span", "cli.main", None),
    ("gdecomp.cli", "run_pipeline", "span", "cli.run_pipeline", None),
]


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


LAYERS = ["groups", "cayley", "cycles", "cover", "decomp", "bassserre",
          "subgroups", "cli"]


class Tracer:
    def __init__(self):
        self.t0 = perf()
        self.job = None
        self.spans = []  # (name, start, end, parent, job)
        # open frames: [layer, child seconds, span index or -1]
        self.stack = [["bench", 0.0, -1]]
        self.counts = defaultdict(int)  # (layer, counter) -> n
        self.layer_self = defaultdict(float)  # layer -> seconds
        self.name_incl = defaultdict(float)  # span name -> seconds
        self.name_self = defaultdict(float)
        self.name_calls = defaultdict(int)

    # -- wrappers -------------------------------------------------------

    def _span(self, fn, name, hook):
        layer = name.split(".")[0]
        stack, spans, counts = self.stack, self.spans, self.counts

        def wrapper(*args, **kwargs):
            parent = stack[-1][2]
            idx = len(spans)
            spans.append(None)
            frame = [layer, 0.0, idx]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                stack[-1][1] += dur
                spans[idx] = (name, start - self.t0, end - self.t0, parent,
                              self.job)
                self.layer_self[layer] += dur - frame[1]
                self.name_incl[name] += dur
                self.name_self[name] += dur - frame[1]
                self.name_calls[name] += 1
            if hook is not None:
                for counter, n in hook(result).items():
                    counts[(layer, counter)] += n
            return result
        return wrapper

    def _hot(self, fn, name):
        layer, counter = name.split(".")
        stack, counts, layer_self = self.stack, self.counts, self.layer_self
        label = name == "cayley.edge_label"

        def wrapper(*args):
            caller = stack[-1][0]
            counts[(caller, counter)] += 1
            if label and args[1] > args[2]:
                counts[(caller, "reverse_label")] += 1
            frame = [layer, 0.0, stack[-1][2]]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args)
            finally:
                dur = perf() - start
                stack.pop()
                layer_self[layer] += dur - frame[1]
                stack[-1][1] += dur
        return wrapper

    def _count(self, fn, name):
        counter = name.split(".")[1]
        stack, counts = self.stack, self.counts

        def wrapper(*args):
            counts[(stack[-1][0], counter)] += 1
            return fn(*args)
        return wrapper

    def install(self, modules):
        """Wrap every target in the already imported gdecomp `modules`
        (a dict of module name -> module)."""
        for mod_name, attr, kind, name, hook in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            if kind == "span":
                wrapped = self._span(original, name, hook)
            elif kind == "hot":
                wrapped = self._hot(original, name)
            else:
                wrapped = self._count(original, name)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    # -- results --------------------------------------------------------

    def total(self, counter, layer=None):
        return sum(n for (lay, c), n in self.counts.items()
                   if c == counter and (layer is None or lay == layer))

    def group_ops(self, layer):
        return self.total("op", layer) + self.total("inv", layer)

    def metrics(self):
        """The per-layer metrics, by name (see perfbench/README.md)."""
        incl, t = self.name_incl, self.total
        classify_calls = self.name_calls["bassserre.classify"]
        return {
            "groups.op_calls": t("op"),
            "groups.inv_calls": t("inv"),
            "groups.normalize_calls": t("normalize"),
            "groups.busy_s": self.layer_self["groups"],
            "cayley.busy_s": self.layer_self["cayley"],
            "cayley.calls": self.name_calls["cayley.build_ball"],
            "cayley.vertices": t("vertices", "cayley"),
            "cayley.reverse_label_calls": t("reverse_label"),
            "cayley.group_ops": self.group_ops("cayley"),
            "cycles.busy_s": self.layer_self["cycles"],
            "cycles.kernel_s": incl["cycles.kernel"],
            "cycles.count": t("cycles"),
            "cycles.calls": self.name_calls["cycles.enumerate"],
            "cycles.group_ops": self.group_ops("cycles"),
            "cover.build_s": self.name_self["cover.build"],
            "cover.verify_s": incl["cover.verify"],
            "cover.vertices": t("vertices", "cover"),
            "cover.preservation_checked": t("preservation_checked"),
            "cover.group_ops": self.group_ops("cover"),
            "decomp.decompose_s": incl["decomp.decompose"],
            "decomp.max_finite_s": incl["decomp.max_finite"],
            "decomp.stabilizers_s": incl["decomp.stabilizers"],
            "decomp.discover_s": incl["decomp.discover"],
            "decomp.discover_iterations": t("discover_iterations"),
            "decomp.decompose_calls": self.name_calls["decomp.decompose"],
            "decomp.bags": t("bags"),
            "decomp.group_ops": self.group_ops("decomp"),
            "bassserre.tree_s": incl["bassserre.tree"],
            "bassserre.tree_vertices": t("tree_vertices"),
            "bassserre.classify_s": incl["bassserre.classify"],
            "bassserre.classify_calls": classify_calls,
            "bassserre.classified_ratio":
                t("classified") / classify_calls if classify_calls else 0.0,
            "bassserre.group_ops": self.group_ops("bassserre"),
            "subgroups.quotient_s": incl["subgroups.quotient"],
            "subgroups.search_nodes": t("search"),
            "subgroups.kernel_s": incl["subgroups.kernel"],
            "subgroups.rewrite_s": incl["subgroups.rewrite"],
            "subgroups.index": t("index"),
            "subgroups.schreier_generators": t("schreier_generators"),
            "cli.self_s": self.layer_self["cli"],
        }

    def layer_table(self):
        """Rows (layer, self seconds, group ops, recorded spans)."""
        spans = defaultdict(int)
        for name, *_ in self.spans:
            spans[name.split(".")[0]] += 1
        return [(layer, self.layer_self[layer], self.group_ops(layer),
                 spans[layer]) for layer in LAYERS]

    def write(self, path, header):
        with open(path, "w") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps({"name": name, "start": round(start, 9),
                                    "end": round(end, 9), "parent": parent,
                                    "job": job}) + "\n")

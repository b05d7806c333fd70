"""JSON group-spec files.

One versioned format ("gdecomp-group/1") covers both backends:

    {"format": "gdecomp-group/1", "kind": "matrix", "name": "...",
     "dimension": 2, "special_linear": true,
     "generators": {"S": [[0,-1],[1,0]], "T": [[1,1],[0,1]]},
     "presentation": {"relators": [["S","S","S","S"], ...]},
     "torsion_words": [["S"], ["S","T"]]}

    {"format": "gdecomp-group/1", "kind": "graph-of-groups", "name": "...",
     "vertices": [{"cyclic": 4, "label": "S"}, ...],
     "edges": [{"u": 0, "v": 1, "group": {"cyclic": 2}, "into_u": [0, 2],
                "into_v": [0, 3], "tree": true}],
     "generators": {"S": [["v", 0, 1]], "T": [["v", 0, 3], ["v", 1, 1]]}}

Vertex/edge group tables may be given as {"cyclic": n}, {"trivial": true},
{"mul": [[...]], "labels": [...]}, or {"permutations": [...], "degree": d}.
A spec that is not of this shape raises SpecFormatError.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..errors import SpecFormatError
from .gog import GogEdge, GraphOfGroups, GraphOfGroupsGroup
from .matrix import MatrixGroup
from .table import FiniteGroupTable

FORMAT = "gdecomp-group/1"


def _fields(obj, what, *required):
    """Check that `obj` is a JSON object holding every `required` key."""
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{what} must be a JSON object, got {obj!r}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SpecFormatError(f"{what} lacks {', '.join(map(repr, missing))}")


def table_from_spec(spec):
    _fields(spec, "group table spec")
    if spec.get("trivial"):
        return FiniteGroupTable.trivial()
    if "cyclic" in spec:
        n = spec["cyclic"]
        if not isinstance(n, int) or n < 1:
            raise SpecFormatError(f"cyclic group order must be >= 1, got {n!r}")
        return FiniteGroupTable.cyclic(n, spec.get("label"))
    if "mul" in spec:
        return FiniteGroupTable(spec["mul"], spec.get("labels"))
    if "permutations" in spec:
        _fields(spec, "permutation table spec", "degree")
        return FiniteGroupTable.from_permutations(spec["permutations"], spec["degree"])
    raise SpecFormatError(f"unrecognized group table spec: {sorted(spec)}")


def load_group(source):
    """Build a group backend from a spec dict, JSON string, or file path."""
    if isinstance(source, (str, Path)):
        # os.path.exists is False, not OSError, for an overlong JSON string
        if os.path.exists(source):
            data = json.loads(Path(source).read_text())
        else:
            data = json.loads(str(source))
    else:
        data = source
    _fields(data, "group spec")
    if data.get("format") != FORMAT:
        raise SpecFormatError(f"expected format {FORMAT!r}, got {data.get('format')!r}")
    kind = data.get("kind")
    name = data.get("name", "group")
    if kind == "matrix":
        _fields(data, "matrix group spec", "dimension", "generators")
        return MatrixGroup(
            name,
            data["dimension"],
            data["generators"],
            modulus=data.get("modulus"),
            special_linear=data.get("special_linear", False),
            presentation=data.get("presentation"),
            torsion_words=data.get("torsion_words"),
        )
    if kind == "graph-of-groups":
        _fields(data, "graph-of-groups spec", "vertices", "edges")
        vertices = [table_from_spec(v) for v in data["vertices"]]
        edges = []
        for e in data["edges"]:
            _fields(e, "edge spec", "u", "v", "group", "into_u", "into_v", "tree")
            edges.append(GogEdge(e["u"], e["v"], table_from_spec(e["group"]),
                                 e["into_u"], e["into_v"], e["tree"]))
        gog = GraphOfGroups(vertices, edges, data.get("vertex_names"), name=name)
        group = GraphOfGroupsGroup(gog, data.get("generators", {}), name=name)
        group.companion_matrix = data.get("companion_matrix")
        return group
    raise SpecFormatError(f"unknown group kind {kind!r}")

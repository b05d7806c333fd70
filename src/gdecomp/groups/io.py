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
A matrix spec's `dimension` is an integer >= 1, its relators and
torsion words are words of symbols X, X' or X^-1 over its generator
names (`parse_word`), and its optional `modulus` is an integer >= 2. An
edge's `tree` and a matrix spec's `special_linear` are JSON booleans,
and `vertex_names`, if given, is an array of strings with one name per
vertex. A spec that is not of this shape, or holds a field of the wrong
JSON type, a word naming no generator, a `mul` that is not a square
table with identity 0 or a permutation not of its degree, raises
SpecFormatError; a `mul` that is not associative raises
VerificationFailure.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..errors import SpecFormatError
from .element import parse_word
from .gog import GogEdge, GraphOfGroups, GraphOfGroupsGroup
from .matrix import MatrixGroup
from .table import FiniteGroupTable

FORMAT = "gdecomp-group/1"


# the JSON types a field is checked for; "ints" and "strs" are arrays of
# integers and of strings
_JSON_TYPES = {dict: "a JSON object", list: "a JSON array", int: "an integer",
               bool: "a JSON boolean", "ints": "an array of integers",
               "strs": "an array of strings"}
_ITEM_TYPES = {"ints": int, "strs": str}


def _typed(value, kind, what):
    """`value`, checked to be of the JSON type `kind`."""
    item = _ITEM_TYPES.get(kind)
    if not (type(value) is list and all(type(x) is item for x in value)
            if item else type(value) is kind):
        raise SpecFormatError(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _words(value, gens, what):
    """Check that `value` is an array of words over the names `gens`."""
    for word in _typed(value, list, what):
        for name, _ in parse_word(_typed(word, "strs", f"{what} word")):
            if name not in gens:
                raise SpecFormatError(f"{what} word {word!r} names no "
                                      f"generator {name!r}")


def _permutation(value, n, what):
    """Check that `value` is a permutation of 0..n-1."""
    if sorted(_typed(value, "ints", what)) != list(range(n)):
        raise SpecFormatError(f"{what} {value!r} is not a permutation of 0..{n - 1}")


def _fields(obj, what, *required):
    """Check that `obj` is a JSON object holding every `required` key."""
    _typed(obj, dict, what)
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
        mul = _typed(spec["mul"], list, "group table 'mul'")
        # a group table's rows permute its elements, and 0 is its identity
        for row in mul:
            _permutation(row, len(mul), "group table row")
        if not mul or mul[0] != list(range(len(mul))) \
                or [row[0] for row in mul] != mul[0]:
            raise SpecFormatError("group table 'mul' has no identity at 0")
        table = FiniteGroupTable(mul, spec.get("labels"))
        table.verify()  # a Latin square need not be associative
        return table
    if "permutations" in spec:
        _fields(spec, "permutation table spec", "degree")
        degree = _typed(spec["degree"], int, "permutation table 'degree'")
        perms = _typed(spec["permutations"], list, "permutation table 'permutations'")
        for p in perms:
            _permutation(p, degree, "permutation table entry")
        return FiniteGroupTable.from_permutations(perms, degree)
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
        dimension = _typed(data["dimension"], int, "matrix group 'dimension'")
        if dimension < 1:
            raise SpecFormatError("matrix group 'dimension' must be an integer "
                                  f">= 1, got {dimension}")
        gens = _typed(data["generators"], dict, "matrix group 'generators'")
        for gname, mat in gens.items():
            for row in _typed(mat, list, f"generator {gname}"):
                _typed(row, "ints", f"generator {gname} row")
        # a null optional field reads as an absent one
        modulus = data.get("modulus")
        if modulus is not None and _typed(modulus, int, "matrix group 'modulus'") < 2:
            raise SpecFormatError(f"matrix group 'modulus' must be >= 2, got {modulus}")
        presentation = data.get("presentation")
        if presentation is not None:
            _fields(presentation, "matrix group 'presentation'", "relators")
            _words(presentation["relators"], gens, "presentation 'relators'")
        torsion_words = data.get("torsion_words")
        if torsion_words is not None:
            _words(torsion_words, gens, "matrix group 'torsion_words'")
        special_linear = data.get("special_linear")
        if special_linear is not None:
            _typed(special_linear, bool, "matrix group 'special_linear'")
        return MatrixGroup(
            name,
            dimension,
            gens,
            modulus=modulus,
            special_linear=bool(special_linear),
            presentation=presentation,
            torsion_words=torsion_words,
        )
    if kind == "graph-of-groups":
        _fields(data, "graph-of-groups spec", "vertices", "edges")
        vertices = [table_from_spec(v) for v in
                    _typed(data["vertices"], list, "graph-of-groups 'vertices'")]
        edges = []
        for e in _typed(data["edges"], list, "graph-of-groups 'edges'"):
            _fields(e, "edge spec", "u", "v", "group", "into_u", "into_v", "tree")
            edges.append(GogEdge(e["u"], e["v"], table_from_spec(e["group"]),
                                 _typed(e["into_u"], "ints", "edge 'into_u'"),
                                 _typed(e["into_v"], "ints", "edge 'into_v'"),
                                 _typed(e["tree"], bool, "edge 'tree'")))
        names = data.get("vertex_names")
        if names is not None and len(_typed(
                names, "strs", "graph-of-groups 'vertex_names'")) != len(vertices):
            raise SpecFormatError(f"graph-of-groups 'vertex_names' must name "
                                  f"each of {len(vertices)} vertices, got {names!r}")
        gog = GraphOfGroups(vertices, edges, names, name=name)
        sketches = _typed(data.get("generators", {}), dict, "graph-of-groups 'generators'")
        for gname, sketch in sketches.items():
            for entry in _typed(sketch, list, f"generator {gname}"):
                _typed(entry, list, f"generator {gname} entry")
        return GraphOfGroupsGroup(gog, sketches, name=name)
    raise SpecFormatError(f"unknown group kind {kind!r}")

import hashlib
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from gdecomp import cli
from gdecomp.cli import canonical_json, emit_table1, main
from gdecomp.decomp import discover_graph_of_groups
from gdecomp.fixtures import make_cyclic_amalgam
from gdecomp.groups import load_group

FIXTURES = Path(__file__).resolve().parents[1] / "src/gdecomp/fixtures"
SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1]
     / "src/gdecomp/schema/report.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_bounds_command(capsys):
    code, out = run(capsys, "bounds", "--B", "6", "--n", "2", "--kmax", "6",
                    "--orders", "4", "6")
    assert code == 0
    data = json.loads(out)
    assert data["index_lower_bound"] == 1
    assert data["index_upper_bound"] == 518400
    assert data["vertex_order_product_bound"] == 24


def test_canonical_json_shape():
    text = canonical_json({"b": 1, "a": [2, 1]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-10**30, 10**30) | st.floats() | st.text(),
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=30)


@example({"q\"\\": ["\u00e9\u2603\U0001f600", "\x00\x1f\n\t\x7f"],
          "": [[], {}, (), -10**25, True, False, None]})
@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_canonical_json_matches_json(obj):
    assert canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=2) \
        + "\n"


@pytest.mark.parametrize("obj", [{1: "a"}, [{"a": {None: 1}}], {("a",): 1}])
def test_canonical_json_rejects_non_string_keys(obj):
    # json.dumps would write int, float, bool and None keys as strings;
    # no artifact has one, so the writer refuses them
    with pytest.raises(TypeError):
        canonical_json(obj)


def test_ball_command_json(capsys):
    code, out = run(capsys, "ball", "--group", "z5", "--radius", "3")
    assert code == 0
    data = json.loads(out)
    assert data["vertex_count"] == 5


def test_ball_command_dot(capsys):
    code, out = run(capsys, "ball", "--group", "z5", "--radius", "2",
                    "--format", "dot")
    assert code == 0
    assert out.startswith("graph") and "--" in out


def test_decompose_dot(capsys):
    code, out = run(capsys, "decompose", "--group", "c2*c3", "--radius", "7",
                    "--r", "3", "--format", "dot")
    assert code == 0
    assert 'label="2"' in out and 'label="3"' in out


def test_discover_command(capsys):
    code, out = run(capsys, "discover", "--group", "c2*c3")
    assert code == 0
    data = json.loads(out)
    assert data["euler_characteristic"] == "-1/6"
    assert data["trace"]["stabilized"]


def test_classify_command(capsys):
    code, out = run(capsys, "classify", "--group", "c2*c3", "--element",
                    "a*b", "--radius", "5")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "hyperbolic"
    assert data["translation_length"] == 2


def test_classify_element_syntax(capsys):
    # an inverse is X' or X^-1; "a-" names no generator
    outs = [run(capsys, "classify", "--group", "c2*c3", "--element", word,
                "--radius", "5") for word in ("a'*b", "a^-1*b")]
    assert [code for code, _ in outs] == [0, 0]
    assert json.loads(outs[0][1])["kind"] == json.loads(outs[1][1])["kind"]
    code = main(["classify", "--group", "c2*c3", "--element", "a-",
                 "--radius", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "gdecomp: unknown generator symbol 'a-'\n"


def test_classify_rejects_matrix_backend(capsys):
    code, _ = run(capsys, "classify", "--group", "sl2z", "--element", "S")
    assert code == 3


@pytest.mark.parametrize("radius", ["0", "1"])
def test_classify_uncertified_exits_3(capsys, radius):
    # the element's type needs no portion, but the non-elementary check
    # needs two shells: an UncertifiedRegion is a verification that could
    # not be made on the portion built, not a cap that was hit
    code = main(["classify", "--group", "c2*c3", "--element", "a*b",
                 "--radius", radius])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "gdecomp: portion too small\n"


def test_classify_deep_conjugate(capsys):
    # (ab)^7·a·(ab)^-7 fixes a vertex at depth 14: elliptic at radius 4,
    # with no witness inside the portion
    element = "*".join(["a*b"] * 7 + ["a"] + ["b'*a'"] * 7)
    code, out = run(capsys, "classify", "--group", "c2*c3", "--element",
                    element, "--radius", "4")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "elliptic" and data["witness"] is None


def test_subgroup_command(capsys):
    code, out = run(capsys, "subgroup", "--group", "c2*c3")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 6 and data["rank"] == 2
    assert data["torsion_free"] and data["rank_chi_consistent"]


@pytest.mark.parametrize("command", ["subgroup", "report"])
def test_rank_contradicting_chi_exits_3(capsys, monkeypatch, command):
    # a certificate one basis word short of the rank that chi forces
    rewrite = cli.subgroups.reidemeister_schreier

    def drop_one(cert, pres):
        rewrite(cert, pres)
        cert.free_basis.pop()
        cert.rank -= 1
        return cert

    monkeypatch.setattr(cli.subgroups, "reidemeister_schreier", drop_one)
    code = main([command, "--group", "c2*c3"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert "certified rank 1 contradicts 1 + index*(-chi) = 2" in out.err


# S3 by permutations: element 1 is a transposition, element 2 a 3-cycle
_S3 = {"permutations": [[1, 0, 2], [1, 2, 0]], "degree": 3}
_A, _B, _C, _D = ([["v", v, x]] for v in (0, 1) for x in (1, 2))
_NON_CYCLIC = {
    # S3 * C2: index 6 and rank 1 + 6 * (1 - 1/6 - 1/2) = 3
    "s3_c2": ([_S3, {"cyclic": 2}], {"trivial": True}, [0], [0],
              {"a": _A, "b": _B, "c": _C}, 3),
    # S3 *_{C2} S3: index 6 and rank 1 + 6 * (1/2 - 1/6 - 1/6) = 2
    "s3_c2_s3": ([_S3, _S3], {"cyclic": 2}, [0, 1], [0, 1],
                 {"a": _A, "b": _B, "c": _C, "d": _D}, 2),
}


@pytest.mark.parametrize("name", sorted(_NON_CYCLIC))
def test_report_non_cyclic_vertex_groups(tmp_path, capsys, name):
    # the certificate reads each vertex group's presentation from its
    # table, and its rank is the one that chi forces
    vertices, edge_group, into_u, into_v, generators, rank = _NON_CYCLIC[name]
    spec = {"format": "gdecomp-group/1", "kind": "graph-of-groups",
            "name": name, "vertices": vertices,
            "edges": [{"u": 0, "v": 1, "group": edge_group,
                       "into_u": into_u, "into_v": into_v, "tree": True}],
            "generators": generators}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "report", "--group", str(path))
    assert code == 0
    cert = json.loads(out)["stages"]["certificate"]
    assert (cert["index"], cert["rank"]) == (6, rank)
    assert cert["torsion_free"] and cert["evidence"]["free"]


@pytest.mark.parametrize("fmt", ["json", "text-table"])
@pytest.mark.parametrize("axiom", ["h1", "h2"])
def test_failed_axiom_exits_3(capsys, monkeypatch, axiom, fmt):
    verify = cli.decomp.GlobalDecomposition.verify_axioms

    def failing(dec):
        return {**verify(dec), f"{axiom}_pass": False}

    monkeypatch.setattr(cli.decomp.GlobalDecomposition, "verify_axioms",
                        failing)
    code = main(["report", "--group", "c2*c3", "--format", fmt])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert f"decomposition axiom {axiom.upper()} failed" in out.err


def test_subgroup_mod2_exits_3(capsys):
    code, out = run(capsys, "subgroup", "--group", "sl2z", "--modulus", "2")
    assert code == 3
    data = json.loads(out)
    assert data["torsion_free"] is False
    assert "S*S" in data["evidence"]["witnesses"]


def test_nerve_command(capsys):
    code, out = run(capsys, "nerve", "--group", "f2", "--radius", "4",
                    "--r", "3")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 0 and not data["connected"]


def test_unknown_group_exits_3(capsys):
    # a name too long for a path raised OSError from Path.exists
    for name in ("nosuch", "x" * 300):
        code = main(["ball", "--group", name, "--radius", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == f"gdecomp: no such group spec or fixture: {name}\n"


_MATRIX = {"format": "gdecomp-group/1", "kind": "matrix",
           "generators": {"S": [[0, -1], [1, 0]]}}
_GOG = {"format": "gdecomp-group/1", "kind": "graph-of-groups",
        "vertices": [{"cyclic": 2}], "edges": []}


def _c2c3_with(tree=True, **fields):
    spec = json.loads((FIXTURES / "c2_c3.json").read_text())
    spec.update(fields)
    spec["edges"][0]["tree"] = tree
    return spec


@pytest.mark.parametrize("spec, message", [
    ([], "group spec must be a JSON object, got []"),
    (_MATRIX, "matrix group spec lacks 'dimension'"),
    ({k: v for k, v in _GOG.items() if k != "edges"},
     "graph-of-groups spec lacks 'edges'"),
    ({**_GOG, "vertices": [{"cyclic": 2}] * 2, "edges": [{"u": 0}]},
     "edge spec lacks 'v', 'group', 'into_u', 'into_v', 'tree'"),
    ({**_GOG, "vertices": [{"cyclic": 0}]},
     "cyclic group order must be >= 1, got 0"),
    ({**_GOG, "generators": {"a": [["v", 0, 5]]}},
     "bad sketch entry ['v', 0, 5]"),
    # wrong JSON types, and tables that are no group's
    ({**_GOG, "edges": None},
     "graph-of-groups 'edges' must be a JSON array, got None"),
    ({**_GOG, "generators": {"a": [5]}},
     "generator a entry must be a JSON array, got 5"),
    ({**_GOG, "generators": {"a": [["v", [0], 0]]}},
     "bad sketch entry ['v', [0], 0]"),
    ({**_MATRIX, "dimension": 2, "generators": None},
     "matrix group 'generators' must be a JSON object, got None"),
    ({**_GOG, "generators": [1]},
     "graph-of-groups 'generators' must be a JSON object, got [1]"),
    ({**_GOG, "vertices": [{"permutations": [[1, 0]], "degree": 3}]},
     "permutation table entry [1, 0] is not a permutation of 0..2"),
    ({**_GOG, "vertices": [{"mul": [[0, 1]]}]},
     "group table row [0, 1] is not a permutation of 0..0"),
    ({**_GOG, "vertices": [{"mul": [[0, 1], [1, 2]]}]},
     "group table row [1, 2] is not a permutation of 0..1"),
    ({**_GOG, "vertices": [{"mul": [[1, 0], [0, 1]]}]},
     "group table 'mul' has no identity at 0"),
    # a Latin square with identity 0 that is no group: it loaded and ran
    ({**_GOG, "vertices": [{"mul": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2],
                                    [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                                    [4, 3, 1, 2, 0]]}],
      "generators": {"a": [["v", 0, 1]], "b": [["v", 0, 2]]}},
     "not associative at (1,1,2)"),
    # these ended in a TypeError traceback, or were read by truthiness
    (_c2c3_with(vertex_names=5),
     "graph-of-groups 'vertex_names' must be an array of strings, got 5"),
    (_c2c3_with(vertex_names=["a"]),
     "graph-of-groups 'vertex_names' must name each of 2 vertices, "
     "got ['a']"),
    (_c2c3_with(vertex_names=["a", 2]),
     "graph-of-groups 'vertex_names' must be an array of strings, "
     "got ['a', 2]"),
    (_c2c3_with(tree="no"), "edge 'tree' must be a JSON boolean, got 'no'"),
    (_c2c3_with(tree=1), "edge 'tree' must be a JSON boolean, got 1"),
], ids=["list", "no-dimension", "no-edges", "edge-u-only",
        "cyclic-0", "sketch-index", "edges-null", "sketch-int", "sketch-nested",
        "matrix-generators-null", "generators-list", "permutation-degree",
        "mul-not-square", "mul-not-closed", "mul-no-identity",
        "mul-not-associative",
        "vertex-names-int", "vertex-names-short", "vertex-names-mixed",
        "tree-string", "tree-int"])
def test_malformed_spec_exits_3(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["ball", "--group", str(path), "--radius", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"gdecomp: {message}\n"


def _sl2z_with(**fields):
    spec = json.loads((FIXTURES / "sl2z.json").read_text())
    spec.update(fields)
    return spec


_RELATORS = [["S", "S", "S", "S"]]


@pytest.mark.parametrize("command", [
    ["subgroup"], ["cover", "--radius", "4", "--r", "4", "--depth", "2"],
    ["report"]], ids=["subgroup", "cover", "report"])
@pytest.mark.parametrize("spec, message", [
    (_sl2z_with(presentation={"relators": [["S", "Q"]]}),
     "presentation 'relators' word ['S', 'Q'] names no generator 'Q'"),
    (_sl2z_with(torsion_words=[["S", "Q"]]),
     "matrix group 'torsion_words' word ['S', 'Q'] names no generator 'Q'"),
    (_sl2z_with(torsion_words=[["S", 1]]),
     "matrix group 'torsion_words' word must be an array of strings, "
     "got ['S', 1]"),
    (_sl2z_with(presentation=_RELATORS),
     f"matrix group 'presentation' must be a JSON object, got {_RELATORS}"),
    (_sl2z_with(modulus="5"),
     "matrix group 'modulus' must be an integer, got '5'"),
    (_sl2z_with(presentation={"relators": "SSSS"}),
     "presentation 'relators' must be a JSON array, got 'SSSS'"),
    (_sl2z_with(special_linear="no"),
     "matrix group 'special_linear' must be a JSON boolean, got 'no'"),
    (_sl2z_with(dimension=0, generators={"S": []}),
     "matrix group 'dimension' must be an integer >= 1, got 0"),
    (_sl2z_with(dimension=-1, generators={}),
     "matrix group 'dimension' must be an integer >= 1, got -1"),
], ids=["relator-unknown", "torsion-unknown", "symbol-int",
        "presentation-list", "modulus-string", "relators-string",
        "special-linear-string", "dimension-zero", "dimension-negative"])
def test_malformed_matrix_spec_exits_3(tmp_path, capsys, command, spec,
                                       message):
    # these reached the pipeline unchecked: a KeyError, AttributeError or
    # TypeError traceback, or relators read letter by letter
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main([command[0], "--group", str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.endswith(f"gdecomp: {message}\n")


def test_null_optional_fields_read_as_absent(tmp_path, capsys):
    path = tmp_path / "spec.json"
    for spec, fixture in [(_c2c3_with(vertex_names=None), "c2*c3"),
                          (_sl2z_with(special_linear=None), "sl2z")]:
        path.write_text(json.dumps(spec))
        assert run(capsys, "ball", "--group", str(path), "--radius", "2") \
            == run(capsys, "ball", "--group", fixture, "--radius", "2")


def test_cap_exits_2(capsys):
    code, _ = run(capsys, "ball", "--group", "f2", "--radius", "9",
                  "--cap", "50")
    assert code == 2


def test_report_validates_schema(capsys):
    code, out = run(capsys, "report", "--group", "c2*c3")
    assert code == 0
    bundle = json.loads(out)
    jsonschema.validate(bundle, SCHEMA)
    assert bundle["summary"] == {"group": "c2_c3", "model_graph": "single edge",
                                 "bag_sizes": "2 and 3", "source": "discovery"}


def test_report_byte_identical_rerun(capsys):
    _, out1 = run(capsys, "report", "--group", "f2")
    _, out2 = run(capsys, "report", "--group", "f2")
    assert out1 == out2
    assert json.loads(out1)["summary"]["model_graph"] == "rose with 2 loops"


def test_report_artifact_dir(tmp_path, capsys):
    code, _ = run(capsys, "report", "--group", "f2", "--out",
                  str(tmp_path / "artifacts"))
    assert code == 0
    names = {p.name for p in (tmp_path / "artifacts").iterdir()}
    assert {"ball.json", "cover.json", "decomposition.json", "discovery.json",
            "tree.json", "certificate.json", "report.json"} <= names
    bundle = json.loads((tmp_path / "artifacts" / "report.json").read_text())
    jsonschema.validate(bundle, SCHEMA)


def _count_loads(monkeypatch):
    calls = []

    def counting(path):
        calls.append(path)
        return load_group(path)
    monkeypatch.setattr(cli, "load_group", counting)
    return calls


def test_report_loads_spec_once(capsys, monkeypatch):
    calls = _count_loads(monkeypatch)
    code, _ = run(capsys, "report", "--group", "c4*c2*c6")
    assert code == 0 and len(calls) == 1


def test_emit_table1_rows(monkeypatch):
    calls = _count_loads(monkeypatch)
    table = emit_table1(["f2", "c2*c3"], cli.RunConfig())
    assert len(calls) == 2
    lines = table.strip().splitlines()
    assert lines[0].split() == ["Group", "Model", "graph", "Bag", "sizes"]
    assert "rose with 2 loops" in table and "1" in table
    assert "single edge" in table and "2 and 3" in table


def test_emit_table1_empty_and_out_of_scope():
    assert emit_table1([], cli.RunConfig()).startswith("Group")
    table = emit_table1(["sl3z"], cli.RunConfig())
    assert "out of scope: not virtually free pipeline" in table


def test_text_table_runs_with_report_options(capsys, monkeypatch):
    # every group of the table gets its own copy of the report's options
    seen = []
    pipeline = cli.run_pipeline

    def recording(group, config):
        seen.append(config)
        return pipeline(group, config)
    monkeypatch.setattr(cli, "run_pipeline", recording)
    code, out = run(capsys, "report", "--group", "c2*c3", "--group", "f2",
                    "--format", "text-table", "--max-doublings", "2",
                    "--depth", "3", "--seed", "4")
    assert code == 0 and "single edge" in out
    assert len(seen) == 2 and seen[0] is not seen[1]
    assert all((c.max_doublings, c.depth, c.seed, c.out_dir) == (2, 3, 4, None)
               for c in seen)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "bounds.json"
    code, out = run(capsys, "bounds", "--B", "3", "--n", "1", "--kmax", "3",
                    "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["index_upper_bound"] == 6


def test_cover_vacuous_preservation_fails(capsys):
    # depth 2 < floor(r/2) = 4: no certified vertex has its radius-4 ball
    # inside the cover, so the preservation check has nothing to check
    code, out = run(capsys, "cover", "--group", "sl2z", "--radius", "10",
                    "--r", "8", "--depth", "2")
    assert code == 0
    preservation = json.loads(out)["ball_preservation"]
    assert preservation["checked"] == 0
    assert preservation["pass"] is False


def test_invalid_parameter_exits_3(capsys):
    code = main(["cover", "--group", "sl2z", "--radius", "4", "--r", "3",
                 "--depth", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "gdecomp: depth must be <= ball radius\n"
    # a closed word of length 8 reaches distance 4 from its base point
    code = main(["cover", "--group", "sl2z", "--radius", "3", "--r", "8",
                 "--depth", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "gdecomp: ball radius must be >= r // 2\n"
    # a negative depth, in the cover command and in the report pipeline;
    # a negative sample count, which random.sample rejected with a message
    # about its population
    for argv, message in (
            (["cover", "--group", "z5", "--radius", "8", "--r", "4",
              "--depth", "-1"], "depth must be >= 0"),
            (["report", "--group", "z5", "--depth", "-1"],
             "depth must be >= 0"),
            (["cover", "--group", "sl2z", "--radius", "6", "--r", "6",
              "--depth", "2", "--samples", "-1"], "samples must be >= 0")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.endswith(f"gdecomp: {message}\n")
    # a modulus of 0 divided by zero, and 1 or -3 never reached the
    # identity; a modulus was ignored on a group without matrices; r0 = 0
    # stayed 0 when doubled; a negative radius built a tree portion up to
    # its cap; a negative r decomposed; orders below 1 gave a product bound
    # of 0 or less; a cap below 1, which cannot hold the identity, read as
    # a hit cap (exit 2); max_doublings 0 failed only after three stages
    # in the report pipeline, and is rejected by discover itself
    for argv, message in (
            (["subgroup", "--group", "sl2z", "--modulus", "0"],
             "modulus must be >= 2"),
            (["subgroup", "--group", "sl2z", "--modulus", "1"],
             "modulus must be >= 2"),
            (["subgroup", "--group", "sl2z", "--modulus", "-3"],
             "modulus must be >= 2"),
            (["subgroup", "--group", "c2*c3", "--modulus", "5"],
             "modulus needs a matrix group"),
            (["discover", "--group", "c2*c3", "--r0", "0"],
             "r0 must be >= 1"),
            (["classify", "--group", "c2*c3", "--element", "a*b",
              "--radius", "-1"], "radius must be >= 0"),
            (["decompose", "--group", "sl2z", "--radius", "4", "--r", "-1"],
             "r must be >= 0"),
            (["nerve", "--group", "sl2z", "--radius", "4", "--r", "-1"],
             "r must be >= 0"),
            (["bounds", "--B", "2", "--n", "2", "--kmax", "3",
              "--orders", "0", "-3"], "orders must be >= 1"),
            (["ball", "--group", "z5", "--radius", "2", "--cap", "0"],
             "cap must be >= 1"),
            (["ball", "--group", "z5", "--radius", "2", "--cap", "-5"],
             "cap must be >= 1"),
            (["report", "--group", "c2*c3", "--max-doublings", "0"],
             "max_doublings must be >= 1"),
            (["discover", "--group", "c2*c3", "--max-doublings", "0"],
             "max_doublings must be >= 1")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"gdecomp: {message}\n"
    # argparse usage errors: a malformed and a missing value; an option
    # the subcommand does not read (a format it does not write, a seed it
    # does not sample with, the removed subgroup --method)
    for argv in (["cover", "--group", "sl2z", "--radius", "abc", "--r", "6",
                  "--depth", "2"],
                 ["ball", "--group", "sl2z"],
                 ["ball", "--group", "z5", "--radius", "2",
                  "--format", "text-table"],
                 ["cover", "--group", "z5", "--radius", "8", "--r", "4",
                  "--depth", "2", "--format", "dot"],
                 ["decompose", "--group", "z5", "--radius", "4", "--r", "5",
                  "--seed", "1"],
                 ["discover", "--group", "c2*c3", "--format", "text-table"],
                 ["classify", "--group", "c2*c3", "--element", "a*b",
                  "--seed", "1"],
                 ["subgroup", "--group", "sl2z", "--method", "quotient"],
                 ["bounds", "--B", "6", "--n", "2", "--kmax", "6",
                  "--format", "dot"],
                 ["nerve", "--group", "f2", "--radius", "5", "--r", "3",
                  "--format", "dot"],
                 ["report", "--group", "z5", "--format", "dot"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3


# sha256 of the canonical `gdecomp report --group G` bundle; a refactor
# that changes any byte of a report changes these
REPORT_DIGESTS = {
    "z5": "ce58646e596ddf020644a58def0abd8e442ac7459b9a57534c7e56c3a862d231",
    "z": "a3fcbd187bce3c664a8ee70249d76ade0fd8416f5c75815456a4214b23916f73",
    "c2*c3": "6ca19f20b0e2ce21ff21406af2e6d4bacaa6c6d5d38f68ca644086cd8919ecbe",
    "sl2z": "9c7c06d47f87464c8d6e1f05a99f9d66d9ad177a2f982ba1ee6f7c20eefefc4b",
    "f2": "543acfaa593348142334e1962d9b808d675bff392156763c564774f67a4ce0c8",
    "c4*c2*c6":
        "0a905a84926f91c64c03925b4babaa6fe4ebbbd23967756319ee2cc98cd410a5",
}


@pytest.mark.parametrize("group", sorted(REPORT_DIGESTS))
def test_report_digest_pinned(capsys, group):
    code, out = run(capsys, "report", "--group", group)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[group]


# sha256 of `gdecomp cover --group G --radius R --r r --depth D`; the cover
# build may change its algorithm but not a byte of its output
COVER_DIGESTS = {
    ("amalgam", 12, 8, 5):
        "94f5662302d8512b86f445f3c8c2d9f1387aa576ed7305a8d1589a5ffc983d81",
    ("sl2z", 12, 6, 6):
        "bd747d1f9315e756cdd794e8c8d862ba891557aa3b874dcdb3500910eadc1f34",
    ("c4*c2*c6", 12, 6, 6):
        "bbc731cf72965780b4b64633bdb34dead6ef4dbe3db42d350b8dc13809308f67",
    ("sl2z", 10, 8, 2):
        "cf1e91d928bea4093f727765062a4e1983b641e89de7d67573e696414785478f",
    ("z5", 8, 4, 8):
        "f2e1ff7db80fd36fe6db39aec5e853e1a1bc4978d43915f61fbc73ada5c970e9",
    # proper covers (Γ_r != Γ): the enumeration runs to depth + r
    ("sl2z", 12, 4, 6):
        "15d5429606dfcb799abcb432dea8846cf6646bc7dbf489b05a1ab615f70e11b3",
    ("amalgam", 12, 5, 5):
        "67f46ce149fb97ce628b530d1664270be31fb8d172fe31487ded5c4a4a98d808",
    ("c4*c2*c6", 12, 5, 6):
        "b1a3b5df1d25ed71a94a4bd88f88d47369905f76d1e49f0a76696b08e452c851",
}


@pytest.mark.parametrize("case", sorted(COVER_DIGESTS))
def test_cover_digest_pinned(capsys, case):
    group, radius, r, depth = case
    code, out = run(capsys, "cover", "--group", group, "--radius", str(radius),
                    "--r", str(r), "--depth", str(depth))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COVER_DIGESTS[case]


# sha256 of `gdecomp decompose --group G --radius R --r r`: families, bags,
# orbits, model graph and stabilizers, however they are found
DECOMP_DIGESTS = {
    ("amalgam", 12, 8):
        "6bae71d338819ebee6a9afab30c4be44c7c1f4a9352695f27041d94edcdd5619",
    ("sl2z", 10, 6):
        "5f31e5a346566853375dff5e466ed8438c88ce2463b46b5937d1b139d71e8dc5",
    ("c4*c2*c6", 10, 6):
        "a6593234c090de1107a229b54dc65c5ded37764dbae42130f72fa685fb583745",
}


@pytest.mark.parametrize("case", sorted(DECOMP_DIGESTS))
def test_decompose_digest_pinned(capsys, case):
    group, radius, r = case
    code, out = run(capsys, "decompose", "--group", group,
                    "--radius", str(radius), "--r", str(r))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMP_DIGESTS[case]


# sha256 of `gdecomp ball --group G --radius R --format F`: every vertex's
# key string, distance and word, and every edge's labels
BALL_DIGESTS = {
    ("amalgam", 6, "json"):
        "fdc657ff6fc5a0534c75d1621786177cd4df37550914adae9d871fac2e0a1296",
    ("amalgam", 6, "dot"):
        "91ab21f736d3053b5e01235fcef2acd07ccc54b6de3471e37843b4623f5fd14d",
    ("f2", 5, "json"):
        "148ece0e5dc7c6b2edfd9c056c3f55266115d40607fb2ea1529d3d3a0cec3e15",
    ("f2", 5, "dot"):
        "1de2103e49a222d64bb21c16b1bca67e2ae2569cbe3c1e056d411f23cde9bfd1",
    ("sl2z", 6, "json"):
        "7fdbe5db5023d6dcffdff8b7b73bd97c4d5caa094ac6387ef91f7bb31283503e",
    ("sl2z", 6, "dot"):
        "38fdee27950cd290baf80762f81b2f6465935bbbad0f73ba9eb6b05a6dd722bd",
    ("sl3z", 3, "json"):
        "3c0cf4a5719783ebd827a9ead5a0722c2cdfaee3e3415ef18f209d35e1429635",
}


@pytest.mark.parametrize("case", sorted(BALL_DIGESTS))
def test_ball_digest_pinned(capsys, case):
    group, radius, fmt = case
    code, out = run(capsys, "ball", "--group", group, "--radius", str(radius),
                    "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BALL_DIGESTS[case]


# sha256 of `gdecomp discover --group G`: the splitting and the doubling
# transcript. sl2z is discovered from its matrices here; `report` skips
# discovery on matrix input
DISCOVER_DIGESTS = {
    "sl2z": "674f702103c5cabc5ad377ff8b0f24364fb9d49a4c17b550359da255cbf0a186",
    "c4*c2*c6":
        "a202a62c2db0e4dd6fb2934dd20e1759fd724fa80db101b6ee878c4afc252359",
    "f2": "22db35c7dd56f0b6d0920990ccb1b8ea506da269412e9b4028207b83607c51e7",
}


@pytest.mark.parametrize("group", sorted(DISCOVER_DIGESTS))
def test_discover_digest_pinned(capsys, group):
    code, out = run(capsys, "discover", "--group", group)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DISCOVER_DIGESTS[group]


# sha256 of canonical_json([gog.to_json(), trace]) from
# discover_graph_of_groups(make_cyclic_amalgam(a, c, b))
AMALGAM_DISCOVER_DIGESTS = {
    (4, 2, 6):
        "036c90ced25ced5f2a3901eeeb22da65265325f5c0b9d74be2446420a28817df",
    (6, 3, 9):
        "3934b3a0ba8bb933ac6e896007004c8a95a9f399a39bc625bfe57655352425ff",
}


@pytest.mark.parametrize("case", sorted(AMALGAM_DISCOVER_DIGESTS))
def test_amalgam_discover_digest_pinned(case):
    gog, trace = discover_graph_of_groups(make_cyclic_amalgam(*case))
    text = canonical_json([gog.to_json(), trace])
    assert hashlib.sha256(text.encode()).hexdigest() \
        == AMALGAM_DISCOVER_DIGESTS[case]


# sha256 of `gdecomp report --group amalgam` and `gdecomp discover --group
# amalgam`, whose r = 16 confirming doubling is most of the report's time.
# The report runs with the tests; `discover` is marked slow (deselected by
# default; run it with `pytest -m slow`)
AMALGAM_DIGESTS = {
    "report": "654cfdd8b939e5f543d2d35f2215f8e6958dfdd2de7ffbef5081a2ecd2a2a3cc",
    "discover":
        "94cfc100048132869fb8a7ba43709a7f1f3933048685ee366dd6a67385635ee2",
}


@pytest.mark.parametrize("command", [
    pytest.param("discover", marks=pytest.mark.slow), "report"])
def test_amalgam_digest_pinned(capsys, command):
    code, out = run(capsys, command, "--group", "amalgam")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == AMALGAM_DIGESTS[command]


# sha256 of `gdecomp decompose|discover|classify ... --format dot`: the
# model graph, the splitting and the tree portion as DOT text. The ball's
# DOT is pinned in BALL_DIGESTS
DOT_DIGESTS = {
    ("decompose", "c2*c3", "--radius", "7", "--r", "3"):
        "f416d0e2df650b8e934852f0a37e66a8389eaae60a3265c8008bb081b2ec3e71",
    ("decompose", "sl2z", "--radius", "10", "--r", "6"):
        "9ad675ff7fba646de32892ddf7ff69ddffe69180e97aec4867cd11f21bbd1239",
    ("decompose", "amalgam", "--radius", "12", "--r", "8"):
        "c570b50f1e8425425bf9a38f6acff8541ac9cc482039760ed41af9c53393a2e0",
    ("discover", "c2*c3"):
        "549becc5b630a673957802d51794c512d82832815673efb3c2d97bb4bc276638",
    ("discover", "f2"):
        "84dc2d31fa9b94096fa78f0964f46e4dafbbffab04c4b29ef52293b787cccb18",
    ("discover", "c4*c2*c6"):
        "feaf83fa9384cc78222c7eef015bc22528a174864e93652818408d360afbc7e9",
    ("classify", "c2*c3", "--element", "a*b", "--radius", "5"):
        "2a6fa43c2a1e2a8f72e71c163dbff324ab04ce0eee9a00c8117d769cabfe1dc3",
    ("classify", "c4*c2*c6", "--element", "S*T", "--radius", "4"):
        "48d317e4556751097346de12696bacce520cd7b82e4ba8f64169e06c5cc480e1",
    ("classify", "amalgam", "--element", "x*y", "--radius", "3"):
        "bb6defcf4b603d8c1e7367787aca5c77b7121397c6a6fdca471bcef1dc27b048",
}


@pytest.mark.parametrize("case", sorted(DOT_DIGESTS))
def test_dot_digest_pinned(capsys, case):
    command, group, *rest = case
    code, out = run(capsys, command, "--group", group, *rest, "--format", "dot")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DOT_DIGESTS[case]

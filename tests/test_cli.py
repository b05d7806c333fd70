import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

from gdecomp.cli import canonical_json, emit_table1, main
from gdecomp.decomp import discover_graph_of_groups
from gdecomp.fixtures import make_cyclic_amalgam

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


def test_classify_rejects_matrix_backend(capsys):
    code, _ = run(capsys, "classify", "--group", "sl2z", "--element", "S")
    assert code == 3


@pytest.mark.parametrize("radius, message", [
    ("1", "min displacement 2 not certified on an axis segment; "
          "build a larger portion"),
    ("0", "no vertex image computable on the portion")])
def test_classify_uncertified_exits_3(capsys, radius, message):
    # an UncertifiedRegion is a verification that could not be made on
    # the portion built, not a cap that was hit
    code = main(["classify", "--group", "c2*c3", "--element", "a*b",
                 "--radius", radius])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"gdecomp: {message}\n"


def test_subgroup_command(capsys):
    code, out = run(capsys, "subgroup", "--group", "c2*c3")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 6 and data["rank"] == 2
    assert data["torsion_free"] and data["rank_chi_consistent"]


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
], ids=["list", "no-dimension", "no-edges", "edge-u-only",
        "cyclic-0", "sketch-index"])
def test_malformed_spec_exits_3(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["ball", "--group", str(path), "--radius", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"gdecomp: {message}\n"


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


def test_emit_table1_rows():
    table = emit_table1(["f2", "c2*c3"])
    lines = table.strip().splitlines()
    assert lines[0].split() == ["Group", "Model", "graph", "Bag", "sizes"]
    assert "rose with 2 loops" in table and "1" in table
    assert "single edge" in table and "2 and 3" in table


def test_emit_table1_empty_and_out_of_scope():
    assert emit_table1([]).startswith("Group")
    table = emit_table1(["sl3z"])
    assert "out of scope: not virtually free pipeline" in table


def test_cache_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GDECOMP_CACHE", str(tmp_path))
    _, out1 = run(capsys, "ball", "--group", "z5", "--radius", "2")
    assert list(tmp_path.iterdir())  # artifact cached
    _, out2 = run(capsys, "ball", "--group", "z5", "--radius", "2")
    assert out1 == out2
    # the cap is part of the key: a cached radius-2 ball does not hide
    # that 2 vertices are too few for it
    code, out3 = run(capsys, "ball", "--group", "z5", "--radius", "2",
                     "--cap", "2")
    assert code == 2 and out3 == ""


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
# Marked slow (deselected by default; run them with `pytest -m slow`)
AMALGAM_DIGESTS = {
    "report": "654cfdd8b939e5f543d2d35f2215f8e6958dfdd2de7ffbef5081a2ecd2a2a3cc",
    "discover":
        "94cfc100048132869fb8a7ba43709a7f1f3933048685ee366dd6a67385635ee2",
}


@pytest.mark.slow
@pytest.mark.parametrize("command", sorted(AMALGAM_DIGESTS))
def test_amalgam_digest_pinned(capsys, command):
    code, out = run(capsys, command, "--group", "amalgam")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == AMALGAM_DIGESTS[command]

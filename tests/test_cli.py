import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

from gdecomp.cli import canonical_json, emit_table1, main

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
    code, _ = run(capsys, "ball", "--group", "nosuch", "--radius", "2")
    assert code == 3


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
    # a negative depth, in the cover command and in the report pipeline
    for argv in (["cover", "--group", "z5", "--radius", "8", "--r", "4",
                  "--depth", "-1"],
                 ["report", "--group", "z5", "--depth", "-1"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.endswith("gdecomp: depth must be >= 0\n")
    # argparse usage errors: a malformed and a missing value
    for argv in (["cover", "--group", "sl2z", "--radius", "abc", "--r", "6",
                  "--depth", "2"],
                 ["ball", "--group", "sl2z"]):
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

"""The benchmark's workloads: their groups, seeded inputs and jobs.

A job is one operation of the closed loop: `run()` calls gdecomp and is
the only timed part; `check(result)` compares the result with the
oracles and returns error strings; `artifact(result)` gives the job's
canonical bytes, which the traced run compares with the untraced run's.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "gdecomp" / "fixtures"
SCHEMA = ROOT / "src" / "gdecomp" / "schema" / "report.schema.json"

class JobFailed(Exception):
    """The program returned a failure status (not an exception)."""


class Job:
    __slots__ = ("name", "slot", "run", "check", "artifact", "writes")

    def __init__(self, name, slot, run, check, artifact, writes=False):
        self.name = name
        self.slot = slot  # job1_s..job3_s, or None: counted only in pass_s
        self.run = run
        self.check = check
        self.artifact = artifact
        self.writes = writes  # the artifact is a file gdecomp wrote


def canonical(obj):
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def read_spec(filename):
    return json.loads((FIXTURES / filename).read_text())


# ---------------------------------------------------------------------------
# report: `gdecomp report --group G --out FILE` for each bundled fixture

REPORT_GROUPS = [  # (fixture, spec file, slot)
    ("z5", "z5.json", None),
    ("z", "z.json", None),
    ("c2*c3", "c2_c3.json", None),
    ("sl2z", "sl2z.json", "job1_s"),
    ("f2", "f2.json", "job2_s"),
    ("c4*c2*c6", "c4_c2_c6.json", "job3_s"),
]


def report_inputs(seed):
    import jsonschema
    schema = json.loads(SCHEMA.read_text())
    return {"seed": seed,
            "validator": jsonschema.Draft7Validator(schema),
            "specs": {g: read_spec(f) for g, f, _ in REPORT_GROUPS},
            # SL(2, Z) = C4 *_{C2} C6; the c4*c2*c6 spec names the same S, T
            # as its companion matrices
            "splitting": {"sl2z": read_spec("c4_c2_c6.json")}}


def report_setup(gd, inputs, out_dir):
    # set-up loads the groups as for the other workloads; the jobs then
    # load them again inside `gdecomp report`, as users' runs do
    for fixture, _, _ in REPORT_GROUPS:
        gd["gdecomp.fixtures"].load_fixture(fixture)
    cli = gd["gdecomp.cli"]
    jobs = []
    for fixture, _, slot in REPORT_GROUPS:
        out = out_dir / f"report_{fixture.replace('*', '_')}.json"
        argv = ["report", "--group", fixture, "--out", str(out),
                "--seed", str(inputs["seed"])]

        def run(argv=argv, out=out):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                tail = err.getvalue().strip().splitlines()[-1:]
                raise JobFailed(f"exit code {code}: {' '.join(tail)}")
            return out.read_bytes()

        def check(data, fixture=fixture):
            return oracles.check_report(
                json.loads(data), inputs["specs"][fixture],
                inputs["validator"], f"report {fixture}",
                splitting=inputs["splitting"].get(fixture))

        jobs.append(Job(f"report_{fixture.replace('*', '')}", slot, run,
                        check, lambda data: data, writes=True))
    return jobs


# ---------------------------------------------------------------------------
# cover: the `cover` command's path on C6 *_{C3} C12 and on SL(2, Z) in
# both backends; every relator is no longer than r, so the truncated
# cover must be the Cayley graph itself out to the depth

COVER_JOBS = [  # (fixture, spec file, radius, r, depth, slot)
    ("amalgam", "amalgam_template.json", 12, 8, 5, "job1_s"),
    ("sl2z", "sl2z.json", 12, 6, 6, "job2_s"),
    ("c4*c2*c6", "c4_c2_c6.json", 12, 6, 6, "job3_s"),
]


def _spheres(spec, depth):
    if spec["kind"] == "matrix":
        return oracles.matrix_sphere_sizes(spec["generators"].values(), depth)
    if "companion_matrix" in spec:
        return oracles.matrix_sphere_sizes(
            spec["companion_matrix"]["generators"].values(), depth)
    (a, b), (c,), _ = oracles.spec_orders(spec)
    return oracles.amalgam_sphere_sizes(a, c, b, depth)


def cover_inputs(seed):
    return {"seed": seed,
            "spheres": {f: _spheres(read_spec(s), depth)
                        for f, s, _, _, depth, _ in COVER_JOBS}}


def cover_setup(gd, inputs, out_dir):
    groups = {f: gd["gdecomp.fixtures"].load_fixture(f) for f, *_ in COVER_JOBS}
    cayley, cover = gd["gdecomp.cayley"], gd["gdecomp.cover"]
    jobs = []
    for fixture, _, radius, r, depth, slot in COVER_JOBS:
        def run(group=groups[fixture], radius=radius, r=r, depth=depth):
            ball = cayley.build_ball(group, radius)
            cov = cover.build_truncated_cover(ball, r, depth)
            report = cov.to_json()
            report["ball_preservation"] = cover.verify_ball_preservation(
                cov, seed=inputs["seed"])
            disp = cover.estimate_displacement(cov)
            report["displacement"] = {
                "delta": disp["delta"], "exact": disp["exact"],
                "certified_diameter": disp["certified_diameter"],
                "order_threshold": None if disp["delta"] is None
                else str(cover.order_threshold(disp["delta"], r))}
            return cov, report

        def check(result, fixture=fixture):
            cov, report = result
            return oracles.check_cover(
                cov.node_depth, cov.projection, report["ball_preservation"],
                inputs["spheres"][fixture], f"cover {fixture}")

        jobs.append(Job(f"cover_{fixture.replace('*', '')}", slot, run, check,
                        lambda result: canonical(result[1])))
    return jobs


# ---------------------------------------------------------------------------
# tree-certificate: subgroup certificates and Tits classification on the
# Bass-Serre tree, with no Cayley ball

# (job name, slot, amalgams (a, c, b)): the low-index search finds degrees
# 8 and 9; Reidemeister-Schreier and Tietze run at index 2520
CERTIFICATES = [
    ("certificate_search", "job1_s", [(6, 2, 8), (6, 3, 9)]),
    ("certificate_rewrite", "job2_s", [(3, 1, 7)]),
]
TREE_RADIUS = 14
CLASSIFY_WORDS = 60
MAX_SYLLABLES = 8


def random_c2c3_word(rng, syllables):
    """A word with exactly `syllables` alternating syllables before any
    reduction; the seed picks the first letter and how each is written."""
    letter = rng.choice("ab")
    word = []
    for _ in range(syllables):
        if letter == "a":
            word.append(rng.choice(["a", "a'"]))
        else:
            word += rng.choice([["b"], ["b'"], ["b", "b"], ["b'", "b'"]])
        letter = "b" if letter == "a" else "a"
    return word


def tree_inputs(seed):
    rng = random.Random(seed)
    # the syllable counts are fixed, so every seed does the same work
    words = [random_c2c3_word(rng, 1 + i % MAX_SYLLABLES)
             for i in range(CLASSIFY_WORDS)]
    return {"words": words}


def tree_setup(gd, inputs, out_dir):
    fixtures, subgroups = gd["gdecomp.fixtures"], gd["gdecomp.subgroups"]
    bassserre, groups = gd["gdecomp.bassserre"], gd["gdecomp.groups"]
    jobs = []
    for name, slot, params in CERTIFICATES:
        amalgams = [fixtures.make_cyclic_amalgam(*abc) for abc in params]

        def run(amalgams=amalgams):
            out = []
            for group in amalgams:
                pres = subgroups.presentation_from_group(group)
                hom = subgroups.construct_finite_quotient(group, pres)
                cert = subgroups.kernel_subgroup(hom, pres)
                subgroups.reidemeister_schreier(cert, pres)
                subgroups.verify_torsion_free(cert, pres)
                out.append((hom, cert))
            return out

        def check(result, params=params):
            errors = []
            for (a, c, b), (hom, cert) in zip(params, result):
                label = f"certificate C{a} *_C{c} C{b}"
                chi = oracles.euler_characteristic([a, b], [c])
                errors += oracles.check_certificate(cert.to_json(), chi, label)
                if hom.kind != "coset-action":
                    errors.append(f"{label}: quotient kind {hom.kind}")
                    continue
                errors += oracles.check_coset_action(
                    hom.images, oracles.amalgam_relators(a, c, b),
                    {"x0": a, "x1": b}, cert.index, label)
            return errors

        jobs.append(Job(name, slot, run, check, lambda result: canonical(
            [cert.to_json() for _, cert in result])))

    c2c3 = fixtures.load_fixture("c2*c3")

    def classify():
        tree = bassserre.build_tree_portion(c2c3, TREE_RADIUS)
        out = []
        for word in inputs["words"]:
            action = bassserre.classify_tree_automorphism(
                tree, groups.normal_form(c2c3, word))
            out.append([action.kind, action.translation_length,
                        action.witness])
        return out

    def check(result):
        errors = []
        for word, (kind, length, _) in zip(inputs["words"], result):
            errors += oracles.check_classification(word, kind, length)
        return errors

    jobs.append(Job("classify", "job3_s", classify, check, canonical))
    return jobs


WORKLOADS = {
    "report": (report_inputs, report_setup),
    "cover": (cover_inputs, cover_setup),
    "tree-certificate": (tree_inputs, tree_setup),
}

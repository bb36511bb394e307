import hashlib
import json
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from coretorus import bundle, curves, search
from coretorus.cli import run
from coretorus.curves import make_61_curve
from coretorus.layered import family
from coretorus.normal import reconstruct
from coretorus.search import BudgetExhausted, SearchBudget, _enumerate_raw, enumerate_admissible
from coretorus.slopes import fib
from coretorus.triangulation import Triangulation, TriangulationError, serialize_tri

from test_curves import crowded_curve
from test_homology import COVER_PASS_TEXT, TWO_VERTEX_TEXT
from test_triangulation import gluing_tables


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_gen_validate_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "t2.tri")
    code, _ = _capture(capsys, ["gen", "--family", "2", "--out", path, "--labels"])
    assert code == 0
    code, out = _capture(capsys, ["validate", "--in", path])
    assert code == 0
    assert "valid: True" in out


def test_validate_broken_input(tmp_path, capsys):
    bad = tmp_path / "broken.tri"
    bad.write_text("tets 1\n0: 0:0123 - - -\n")
    code, _ = _capture(capsys, ["validate", "--in", str(bad)])
    assert code == 2
    bad.write_text("not a triangulation\n")
    code, _ = _capture(capsys, ["validate", "--in", str(bad)])
    assert code == 2


def test_homology_report(tmp_path, capsys):
    path = str(tmp_path / "t0.tri")
    _capture(capsys, ["gen", "--family", "0", "--out", path])
    code, out = _capture(capsys, ["--json", "homology", "--in", path])
    assert code == 0
    data = json.loads(out)
    assert data["results"]["kernel_slope"] == "(0,1)"
    assert data["results"]["h1_rank"] == 1


def test_homology_on_two_vertex_boundary(tmp_path, capsys):
    # valid input whose boundary torus has two vertices
    path = tmp_path / "two_vertex.tri"
    path.write_text("tets 3\n0: - 1:1032 - 2:1230\n1: 0:1032 2:3102 - -\n"
                    "2: 0:3012 1:2130 2:1230 2:3012\n")
    code, _ = _capture(capsys, ["validate", "--in", str(path)])
    assert code == 0
    code, out = _capture(capsys, ["--json", "homology", "--in", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["results"]["kernel_slope"] == "(0,1)"
    assert data["results"]["h1_rank"] == 1


def test_meridian_budget_exit_codes(tmp_path, capsys):
    path = str(tmp_path / "t1.tri")
    _capture(capsys, ["gen", "--family", "1", "--out", path])
    code, _ = _capture(capsys, ["meridian", "--in", path, "--max-pieces", "4"])
    assert code == 3
    disc_path = str(tmp_path / "d1.json")
    code, out = _capture(capsys, ["--json", "meridian", "--in", path,
                                  "--max-pieces", "9", "--out", disc_path])
    assert code == 0
    assert json.loads(out)["results"]["discs_found"] >= 1
    code, out = _capture(capsys, ["--json", "bundle", "--in", path, "--disc", disc_path])
    assert code == 0
    data = json.loads(out)
    assert data["results"]["cut_euler"] == 1
    assert all(c["is_product"] for c in data["results"]["bundle_components"])


def test_verify_subcommands(capsys):
    code, out = _capture(capsys, ["--json", "verify", "61-2", "--i", "20"])
    assert code == 0
    data = json.loads(out)
    assert data["results"]["status"] == "pass"
    assert data["results"]["check"] == "theorem-6.1(2)"
    code, out = _capture(capsys, ["--json", "verify", "61-1", "--i", "1"])
    assert code == 0
    code, out = _capture(capsys, ["--json", "verify", "61-1", "--i", "99"])
    assert code == 0
    code, out = _capture(capsys, ["--json", "verify", "curve-bounds", "--i", "1"])
    assert code == 0


def test_verify_claims_needs_a_certified_minimum(capsys, monkeypatch):
    code, out = _capture(capsys, ["--json", "verify", "claims", "--i", "1"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["status"] == "pass" and results["minimal_certified"] is True
    # the same disc without its certificate: the claims hold on it, but they
    # are stated for the minimal disc, so the run settles nothing
    real = bundle.minimal_complexity_disc

    def uncertified(tri, budget):
        return replace(real(tri, budget), certified=False, inconclusive=True,
                       note="certification pass hit the budget")
    monkeypatch.setattr(bundle, "minimal_complexity_disc", uncertified)
    code, out = _capture(capsys, ["--json", "verify", "claims", "--i", "1"])
    assert code == 3
    results = json.loads(out)["results"]
    assert results["status"] == "inconclusive" and results["minimal_certified"] is False
    assert results["claim1_all_products"] and results["claim2_prime_meets_both_copies"]


def test_verify_failures_exit_1(capsys, monkeypatch):
    # each check's fail verdict reaches exit code 1 through the VERIFY table
    real_claims = bundle.check_claims

    def claim1_false(*args, **kwargs):
        return replace(real_claims(*args, **kwargs), claim1=False)
    monkeypatch.setattr(bundle, "check_claims", claim1_false)
    code, out = _capture(capsys, ["--json", "verify", "claims", "--i", "1"])
    assert code == 1
    results = json.loads(out)["results"]
    assert results["status"] == "fail" and results["claim1_all_products"] is False

    # at i >= 1 the refined curve's interior junctions stop push_off (exit 2),
    # so the face bound fails on T_0's curve
    cert = make_61_curve(family(0))
    crowded, face = crowded_curve(cert.curve)
    monkeypatch.setattr(curves, "make_61_curve", lambda lt: replace(cert, curve=crowded))
    code, out = _capture(capsys, ["--json", "verify", "curve-bounds", "--i", "0"])
    assert code == 1
    results = json.loads(out)["results"]
    assert results["status"] == "fail" and results["face_bound"]["violations"] == [face]

    monkeypatch.setattr(search, "min_pre_core_intersection", lambda slopes: (0, 0))
    code, out = _capture(capsys, ["--json", "verify", "61-2", "--i", "5"])
    assert code == 1
    results = json.loads(out)["results"]
    assert results["status"] == "fail" and results["min_intersection"] == 0


def test_curve_roundtrip(tmp_path, capsys):
    tri_path = str(tmp_path / "t1.tri")
    curve_path = str(tmp_path / "c1.json")
    disc_path = str(tmp_path / "d1.json")
    _capture(capsys, ["gen", "--family", "1", "--out", tri_path])
    _capture(capsys, ["meridian", "--in", tri_path, "--max-pieces", "9",
                      "--out", disc_path])
    code, out = _capture(capsys, ["--json", "curve", "make-61", "--i", "1",
                                  "--out", curve_path])
    assert code == 0
    assert json.loads(out)["results"]["kind"] == "core"
    code, out = _capture(capsys, ["--json", "curve", "check", "--in", curve_path,
                                  "--tri", tri_path, "--disc", disc_path])
    assert code == 0
    data = json.loads(out)
    assert data["results"]["embedded"] is True
    assert data["results"]["one_skeleton_hits"] == 1
    assert abs(data["results"]["pairing"]) == 1


def test_deterministic_reports_are_byte_identical(tmp_path, capsys):
    path = str(tmp_path / "t0.tri")
    _capture(capsys, ["gen", "--family", "0", "--out", path])
    args = ["--json", "--deterministic", "meridian", "--in", path, "--max-pieces", "4"]
    _, out1 = _capture(capsys, args)
    _, out2 = _capture(capsys, args)
    assert out1 == out2
    # without --deterministic a timing block appears
    _, out3 = _capture(capsys, ["--json", "meridian", "--in", path, "--max-pieces", "4"])
    assert "timing" in json.loads(out3)


def test_meridian_stopped_search_is_inconclusive(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "t3.tri")
    _capture(capsys, ["gen", "--family", "3", "--out", path])

    def out_of_time(tri, budget):
        # every vector is admitted, then the time limit runs out
        yield from _enumerate_raw(tri, budget)
        raise BudgetExhausted("time limit reached")

    monkeypatch.setattr(search, "_enumerate_raw", out_of_time)
    disc_path = tmp_path / "d3.json"
    code, out = _capture(capsys, ["--json", "meridian", "--in", path, "--max-pieces", "30",
                                  "--out", str(disc_path)])
    assert code == 3
    data = json.loads(out)["results"]
    assert data["status"] == "inconclusive" and data["discs_found"] == 1
    assert not disc_path.exists()


# the triangle through the midpoints of face 0's edges, a curve on any table
_FACE_0_TRIANGLE = [{"face": 0, "p0": ["1/2", "1/2", "0"], "p1": ["0", "1/2", "1/2"]},
                    {"face": 0, "p0": ["0", "1/2", "1/2"], "p1": ["1/2", "0", "1/2"]},
                    {"face": 0, "p0": ["1/2", "0", "1/2"], "p1": ["1/2", "1/2", "0"]}]


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(gluing_tables())
def test_every_command_exits_0_to_3_on_valid_input(table):
    try:
        text = serialize_tri(Triangulation(table))
    except TriangulationError:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.tri")
        with open(path, "w") as fh:
            fh.write(text)
        curve = os.path.join(tmp, "curve.json")
        with open(curve, "w") as fh:
            json.dump(_FACE_0_TRIANGLE, fh)
        for argv in (["validate", "--in", path], ["homology", "--in", path],
                     ["meridian", "--in", path, "--max-pieces", "6", "--time-limit", "1"],
                     ["curve", "check", "--in", curve, "--tri", path]):
            assert run(["--json", "--deterministic"] + argv) in (0, 1, 2, 3)


@pytest.mark.parametrize("text, code", [
    ("tets 1\n0: - - - -\n", 0),
    # two of face 0's edges are one edge class, so two midpoints are one point
    ("tets 1\n0: 0:1230 0:3012 0:1230 0:3012\n", 1),
], ids=["ball", "L(4,1)"])
def test_curve_check_reports_no_winding_unless_h1_is_z(tmp_path, capsys, text, code):
    # H1 = 0 has no winding to read and Z/4 only a residue: both report null
    (tmp_path / "in.tri").write_text(text)
    (tmp_path / "curve.json").write_text(json.dumps(_FACE_0_TRIANGLE))
    got, out = _capture(capsys, ["--json", "curve", "check", "--in", str(tmp_path / "curve.json"),
                                 "--tri", str(tmp_path / "in.tri")])
    results = json.loads(out)["results"]
    assert (got, results["embedded"]) == (code, code == 0)
    assert results["one_skeleton_hits"] == 3 and results["winding"] is None


def test_meridian_rejects_a_negative_time_limit(tmp_path, capsys):
    path = str(tmp_path / "t0.tri")
    _capture(capsys, ["gen", "--family", "0", "--out", path])
    code, _ = _capture(capsys, ["meridian", "--in", path, "--max-pieces", "4",
                                "--time-limit", "-1"])
    assert code == 2


@pytest.fixture(scope="module")
def t1_files(tmp_path_factory):
    """T_1, its one-crossing curve and its admissible vectors up to 12 pieces."""
    lt = family(1)
    d = tmp_path_factory.mktemp("t1")
    (d / "t1.tri").write_text(serialize_tri(lt.tri))
    (d / "c1.json").write_text(json.dumps(make_61_curve(lt).curve.to_json()))
    return d, [v.to_json() for v in enumerate_admissible(lt.tri, SearchBudget(12))]


_SEGMENT = {"face": 0, "p0": ["1/2", "1/2", "0"], "p1": ["0", "1/2", "1/2"]}


@pytest.mark.parametrize("curve", [
    {"points": []}, "x", [7], [[0, 1]],
    [dict(_SEGMENT, face="0")], [dict(_SEGMENT, face=True)],
    [dict(_SEGMENT, face=99)], [dict(_SEGMENT, face=-1)],
    [{"face": 0, "p1": _SEGMENT["p1"]}], [dict(_SEGMENT, p0=["1/2", "1/2"])],
    [dict(_SEGMENT, p0=["1/0", "1/2", "1/2"])], [dict(_SEGMENT, p1=["0", "x", "1"])],
    [dict(_SEGMENT, p1=[0, float("nan"), 1])], [dict(_SEGMENT, p1=[0, float("inf"), 1])],
    [dict(_SEGMENT, p1=[0, [1], 0])],
], ids=["object", "string", "number-segment", "list-segment", "string-face", "bool-face",
        "face-out-of-range", "negative-face", "missing-p0", "two-coordinates",
        "zero-denominator", "not-a-number", "nan", "infinity", "list-coordinate"])
def test_curve_check_rejects_a_malformed_curve_file(t1_files, tmp_path, capsys, curve):
    d, _ = t1_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(curve))
    code, _ = _capture(capsys, ["curve", "check", "--in", str(bad), "--tri", str(d / "t1.tri")])
    assert code == 2


def test_curve_check_fails_a_crowded_face(t1_files, tmp_path, capsys):
    d, _ = t1_files
    curve, face = crowded_curve(make_61_curve(family(1)).curve)
    crowded = tmp_path / "crowded.json"
    crowded.write_text(json.dumps(curve.to_json()))
    code, out = _capture(capsys, ["--json", "curve", "check", "--in", str(crowded),
                                  "--tri", str(d / "t1.tri")])
    assert code == 1
    assert json.loads(out)["results"]["face_bound"]["violations"] == [face]


# T_1 has two tetrahedra and [[1,1,0,0,1,0,0],[0,0,0,0,0,2,0]] is a two-sided
# surface in it: read with int(), the fraction row gives the zero vector and
# the string, bool and float rows that surface, so only a type check rejects them
_ZERO_ROW, _ROW_2 = [0] * 7, [0, 0, 0, 0, 0, 2, 0]


@pytest.mark.parametrize("disc", [
    5, [5], [[[0], 0, 0, 0, 0, 0, 0]], [[None] * 7], "x",
    [[0.9, 0, 0, 0, 0, 0, 0], _ZERO_ROW], [["1", 1, 0, 0, 1, 0, 0], _ROW_2],
    [[True, 1, 0, 0, 1, 0, 0], _ROW_2], [[1.0, 1, 0, 0, 1, 0, 0], _ROW_2],
    [[1e300, 0, 0, 0, 0, 0, 0], _ZERO_ROW],
], ids=["number", "number-row", "list-entry", "null-entry", "string", "fraction",
        "string-entry", "bool-entry", "float-entry", "huge-float-entry"])
def test_bundle_rejects_a_malformed_disc_file(t1_files, tmp_path, capsys, disc):
    d, _ = t1_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(disc))
    code, _ = _capture(capsys, ["bundle", "--in", str(d / "t1.tri"), "--disc", str(bad)])
    assert code == 2


def test_bundle_reconstructs_the_disc_once(tmp_path, capsys, monkeypatch):
    # the cut complex and the parallelity bundle read one surface
    calls = []

    def counting(tri, v):
        calls.append(v)
        return reconstruct(tri, v)

    monkeypatch.setattr(bundle, "reconstruct", counting)
    for i in (0, 1, 2):
        tri_path, disc_path = str(tmp_path / f"t{i}.tri"), str(tmp_path / f"d{i}.json")
        _capture(capsys, ["gen", "--family", str(i), "--out", tri_path])
        _capture(capsys, ["meridian", "--in", tri_path, "--max-pieces", str(fib(i + 6) - 4),
                          "--out", disc_path])
        calls.clear()
        code, _ = _capture(capsys, ["bundle", "--in", tri_path, "--disc", disc_path])
        assert code == 0 and len(calls) == 1


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(gluing_tables(), st.data())
def test_bundle_exits_0_to_3_on_admissible_vectors(table, data):
    # one-sided and disconnected vectors included; at least half the faces
    # glued, so that the enumeration stays small
    try:
        tri = Triangulation(table)
    except TriangulationError:
        assume(False)
    assume(len(tri.boundary_faces) <= 2 * tri.tet_count)
    vectors = enumerate_admissible(tri, SearchBudget(6))
    picks = data.draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=4, unique=True))
    with tempfile.TemporaryDirectory() as tmp:
        path, disc = os.path.join(tmp, "in.tri"), os.path.join(tmp, "disc.json")
        with open(path, "w") as fh:
            fh.write(serialize_tri(tri))
        for v in picks:
            with open(disc, "w") as fh:
                json.dump(v.to_json(), fh)
            assert run(["--json", "--deterministic", "bundle", "--in", path,
                        "--disc", disc]) in (0, 1, 2, 3)


_ROWS = st.lists(st.lists(st.integers(-1, 5), min_size=7, max_size=7), min_size=2, max_size=2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_curve_check_exits_0_to_3_on_any_disc(t1_files, data):
    d, admissible = t1_files
    disc = d / "disc.json"
    disc.write_text(json.dumps(data.draw(st.one_of(_ROWS, st.sampled_from(admissible)))))
    code = run(["--json", "--deterministic", "curve", "check", "--in", str(d / "c1.json"),
                "--tri", str(d / "t1.tri"), "--disc", str(disc)])
    assert code in (0, 1, 2, 3)


def _report_commands():
    """(name, argv, written file) for every command whose --json
    --deterministic report and written file are pinned, in run order."""
    cmds = []
    for i in (0, 1, 2, 3, 8):
        cmds += [(f"gen {i}", ["gen", "--family", str(i), "--out", f"t{i}.tri"], f"t{i}.tri"),
                 (f"homology {i}", ["homology", "--in", f"t{i}.tri"], None),
                 (f"make-61 {i}", ["curve", "make-61", "--i", str(i), "--out", f"c{i}.json"],
                  f"c{i}.json"),
                 (f"curve-bounds {i}", ["verify", "curve-bounds", "--i", str(i)], None),
                 (f"61-1 {i}", ["verify", "61-1", "--i", str(i)], None)]
    for i in (0, 1, 2):
        cmds += [(f"meridian {i}", ["meridian", "--in", f"t{i}.tri", "--max-pieces",
                                    str(fib(i + 6) - 4), "--out", f"d{i}.json"], f"d{i}.json"),
                 (f"bundle {i}", ["bundle", "--in", f"t{i}.tri", "--disc", f"d{i}.json"], None),
                 (f"curve check {i}", ["curve", "check", "--in", f"c{i}.json", "--tri",
                                       f"t{i}.tri", "--disc", f"d{i}.json"], None),
                 (f"claims {i}", ["verify", "claims", "--i", str(i)], None)]
    cmds.append(("homology two-vertex", ["homology", "--in", "two_vertex.tri"], None))
    cmds.append(("homology cover-pass", ["homology", "--in", "cover_pass.tri"], None))
    return cmds


# sha256 prefixes of each command's report and written file
REPORT_DIGESTS = {
    "gen 0": "0c0d16ab032d08c9", "homology 0": "f1ffbd9a33db3d8b",
    "make-61 0": "7a073508dd184ad2", "curve-bounds 0": "781a4a22fca0d64f",
    "61-1 0": "7c72cbc7fa339aea", "gen 1": "7690ea17f8c747b3",
    "homology 1": "81e8323b7834074e", "make-61 1": "7890df390b5948e0",
    "curve-bounds 1": "39dcf1ba337cac76", "61-1 1": "2139a66cdb699b6e",
    "gen 2": "1095f84c96730777", "homology 2": "157ae1ad5c992661",
    "make-61 2": "bfe78fd44fe1b5e4", "curve-bounds 2": "996379f850e4d7cf",
    "61-1 2": "a816b6e64f15602e", "gen 3": "e8cb48e565be98a3",
    "homology 3": "8a3b7e8edb0290ae", "make-61 3": "584b4cd3377e0dd8",
    "curve-bounds 3": "3d7264fc9164c7e9", "61-1 3": "e68f7af4763048cb",
    "gen 8": "49ae4d57800caa49", "homology 8": "29d05eaba7150ea8",
    "make-61 8": "180f4a5852353448", "curve-bounds 8": "ffcbc56319bdfde3",
    "61-1 8": "1a1426d20b2bd617", "meridian 0": "497659af0a332893",
    "bundle 0": "88197d07854c8dbe", "curve check 0": "842370bd2fd60bc3",
    "claims 0": "c02a7393bd6bf74f", "meridian 1": "e47c0d92b30e0220",
    "bundle 1": "761488600c4821b9", "curve check 1": "fe627cbff8044720",
    "claims 1": "56437150c6d45d6f", "meridian 2": "4aff6073e5aaabfb",
    "bundle 2": "05c94ac3659edca2", "curve check 2": "857689b106238821",
    "claims 2": "e3796c1c53c3fbd7", "homology two-vertex": "3fa55e843c13da87",
    "homology cover-pass": "f6dc3faf37f3d792",
}


def test_reports_keep_their_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two_vertex.tri").write_text(TWO_VERTEX_TEXT)
    (tmp_path / "cover_pass.tri").write_text(COVER_PASS_TEXT)
    got = {}
    for name, argv, written in _report_commands():
        code, out = _capture(capsys, ["--json", "--deterministic"] + argv)
        assert code == 0, name
        data = out.encode() + (b"" if written is None else (tmp_path / written).read_bytes())
        got[name] = hashlib.sha256(data).hexdigest()[:16]
    assert got == REPORT_DIGESTS

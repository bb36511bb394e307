import json
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from coretorus import cli, search
from coretorus.cli import run
from coretorus.curves import make_61_curve
from coretorus.layered import family
from coretorus.search import BudgetExhausted, SearchBudget, _enumerate_raw, enumerate_admissible
from coretorus.triangulation import Triangulation, TriangulationError, serialize_tri

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
    real = cli.minimal_complexity_disc

    def uncertified(tri, budget):
        return replace(real(tri, budget), certified=False, inconclusive=True,
                       note="certification pass hit the budget")
    monkeypatch.setattr(cli, "minimal_complexity_disc", uncertified)
    code, out = _capture(capsys, ["--json", "verify", "claims", "--i", "1"])
    assert code == 3
    results = json.loads(out)["results"]
    assert results["status"] == "inconclusive" and results["minimal_certified"] is False
    assert results["claim1_all_products"] and results["claim2_prime_meets_both_copies"]


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
        for argv in (["validate", "--in", path], ["homology", "--in", path],
                     ["meridian", "--in", path, "--max-pieces", "6", "--time-limit", "1"]):
            assert run(["--json", "--deterministic"] + argv) in (0, 1, 2, 3)


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

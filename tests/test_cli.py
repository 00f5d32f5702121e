import hashlib
import json

import pytest

from seqcs import covering
from seqcs.cli import main
from seqcs.covering import AffineCover, AffineSubspace
from seqcs.phi_km import phi_system

PHI31 = {"p": 5, "forms": [[1, 0], [1, 1], [1, 2]]}
REMARK_F7 = {"p": 7, "forms": [[1, 1, 0], [1, 0, 1], [1, 0, 2], [1, 1, 3], [1, 2, 3], [1, 3, 3]]}
REMARK_F23 = {"p": 23, "forms": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 10, 1], [1, 1, 2], [1, 2, 2]]}
PHI562 = phi_system(5, 6, 2).to_json()


@pytest.fixture
def files(tmp_path):
    paths = {}
    named = [("phi31", PHI31), ("rem1", REMARK_F7), ("rem2", REMARK_F23), ("phi562", PHI562)]
    for name, payload in named:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_analyze_progression(files, capsys):
    code, report = run(capsys, "analyze", files["phi31"])
    assert code == 0
    assert report["translation_invariant"] is True
    assert [entry["s_cs"] for entry in report["complexity"]["per_index"]] == [1, 1, 1]
    assert report["complexity"]["tensor_criterion"]["value"] == 1
    assert report["config"]["command"] == "analyze"


def test_analyze_remark_overall(files, capsys):
    code, report = run(capsys, "analyze", files["rem1"])
    assert code == 0
    assert report["complexity"]["s_cs"] == 2
    assert report["associated_set"] == [[1, 0], [0, 1], [0, 2], [1, 3], [2, 3], [3, 3]]


def test_analyze_malformed_exits_2(files, capsys):
    bad = files["dir"] / "bad.json"
    bad.write_text(json.dumps({"p": 4, "forms": [[1, 0]]}))
    assert main(["analyze", str(bad)]) == 2


def test_analyze_non_object_exits_2(files, capsys):
    bad = files["dir"] / "bad.json"
    bad.write_text(json.dumps([[1, 0]]))
    assert main(["analyze", str(bad)]) == 2


def test_analyze_missing_file_exits_2(capsys):
    assert main(["analyze", "/nonexistent/x.json"]) == 2


def test_witness_all_indices(files, capsys):
    code, report = run(capsys, "witness", files["rem1"], "--k", "1", "--max-len", "2")
    assert code == 0
    assert report["all_found"] is True
    lengths = [entry["length"] for entry in report["results"]]
    assert lengths == [1, 1, 1, 1, 1, 2]


def test_witness_none_found_exits_1(files, capsys):
    code, report = run(capsys, "witness", files["rem2"], "--k", "1", "--max-len", "6")
    assert code == 1
    assert report["all_found"] is False


def test_witness_max_len_one_matches_cs(files, capsys):
    code, report = run(capsys, "witness", files["rem1"], "--k", "1", "--max-len", "1", "--at", "5")
    assert code == 1  # index 5 needs length 2 at k=1
    code, report = run(capsys, "witness", files["rem1"], "--k", "2", "--max-len", "1", "--at", "5")
    assert code == 0  # its plain complexity is 2


def test_verify_round_trip_and_mutation(files, capsys, tmp_path):
    code, report = run(capsys, "witness", files["rem1"], "--k", "1", "--at", "5", "--max-len", "2")
    cert = report["results"][0]["certificate"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    assert main(["verify", str(cert_path), files["rem1"]]) == 0
    capsys.readouterr()

    cert["covers"][1]["parts"][0] = cert["covers"][1]["parts"][0][1:]
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(cert))
    code, report = run(capsys, "verify", str(mutated), files["rem1"])
    assert code == 1
    assert report["verdict"]["passed"] is False


def test_phikm_witness_verify_and_bridge(files, capsys, tmp_path):
    sys_path = tmp_path / "phi342.json"
    cert_path = tmp_path / "cert342.json"
    code, report = run(
        capsys,
        "phikm", "--p", "3", "--k", "4", "--M", "2", "--witness", "--verify",
        "--system-out", str(sys_path), "--cert-out", str(cert_path),
    )
    assert code == 0
    assert report["witness"]["length"] == 8
    assert report["witness"]["verified"] is True
    assert report["witness"]["sequence_points"][-1] == [0, 0]
    assert len(report["witness"]["geometric_covers"]) == 8
    # round trip through the verify command
    assert main(["verify", str(cert_path), str(sys_path)]) == 0
    capsys.readouterr()


def test_cover_phikm_origin_lower_bound(files, capsys):
    code, report = run(
        capsys, "cover", "--phikm-origin", "--p", "5", "--k", "6", "--M", "2", "--hyperplanes-only"
    )
    assert code == 0
    assert report["minimum"] == 6
    assert report["verified"] is True
    code, report = run(
        capsys,
        "cover", "--phikm-origin", "--p", "5", "--k", "6", "--M", "2",
        "--hyperplanes-only", "--max-count", "5",
    )
    assert code == 1
    assert report["feasible"] is False


def test_cover_point_file(files, capsys, tmp_path):
    payload = {"p": 3, "M": 2, "points": [[1, 0], [0, 1], [1, 1]], "excluded": [[0, 0]]}
    path = tmp_path / "pts.json"
    path.write_text(json.dumps(payload))
    code, report = run(capsys, "cover", str(path))
    assert code == 0
    assert report["minimum"] >= 1


def test_verify_malformed_certificate_exits_2(files, capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({"i": 0}))
    assert main(["verify", str(cert_path), files["rem1"]]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "sequence" in err and "covers" in err


def test_cover_point_file_without_points_exits_2(capsys, tmp_path):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"p": 5, "M": 2, "excluded": [[0, 0]]}))
    assert main(["cover", str(path)]) == 2
    assert "points missing" in capsys.readouterr().err


def test_cover_point_file_with_wrong_dimension_exits_2(capsys, tmp_path):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"p": 5, "M": 2, "points": [[1, 0], [1, 2, 3]], "excluded": [[0, 0]]}))
    assert main(["cover", str(path)]) == 2
    assert "points[1] has 3 coordinates" in capsys.readouterr().err


def test_cover_unverified_exits_1(capsys, monkeypatch):
    def bad_cover(p, M, points, excluded, **kwargs):
        sub = AffineSubspace.make(p, (0, 0), [(1, 0), (0, 1)])  # the whole plane
        return 1, AffineCover(p, M, (sub,), tuple(points), tuple(excluded))

    monkeypatch.setattr(covering, "min_cover_excluding", bad_cover)
    code, report = run(capsys, "cover", "--phikm-origin", "--p", "3", "--k", "2", "--M", "2")
    assert code == 1
    assert report["verified"] is False


# SHA-256 of reports produced before the pool walks were merged; any change in
# pool order or canonical subspace form shows up here.
GOLDEN_COVERS = {
    (3, 4, 3, False): "41fed964bca27e8185715252eff25452af8aff857c014920bfbd701eebe8c915",
    (3, 4, 3, True): "80fc72e6d1a462c0e8aa876794d24a36e8a5ab80fcafaba33e55e38f08088493",
    (5, 4, 3, False): "9c705d73de8f81fb328abedd81ef3c0cb34fd3b951ac7f1804af6efdcc40dcc2",
    (5, 4, 3, True): "2ed69fb71f4046fcdf1e82eab62c9d7bcd1a3fe01753f8cde3043c787386a3a4",
}
GOLDEN_ANALYZE = {
    "phi562": "b064f98892993ac8abd55d4867f3d764d8cc8d23e004d530fc843ab79572d8c6",
    "rem1": "dced1db0e45e699983f13dbde1a3a1f9895a97d3f35e1bc741b9d41314d19259",
}


@pytest.mark.parametrize("p, k, M, planes", sorted(GOLDEN_COVERS))
def test_cover_report_bytes_are_pinned(capsys, p, k, M, planes):
    argv = ["cover", "--phikm-origin", "--p", str(p), "--k", str(k), "--M", str(M)]
    assert main(argv + ["--hyperplanes-only"] * planes) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_COVERS[p, k, M, planes]


@pytest.mark.parametrize("name", sorted(GOLDEN_ANALYZE))
def test_analyze_report_bytes_are_pinned(files, capsys, name):
    code, report = run(capsys, "analyze", files[name])
    assert code == 0
    body = {key: val for key, val in report.items() if key != "config"}
    assert hashlib.sha256(json.dumps(body, indent=1).encode()).hexdigest() == GOLDEN_ANALYZE[name]


def test_reduce_with_numeric_check(files, capsys, tmp_path):
    code, report = run(capsys, "witness", files["rem1"], "--k", "1", "--at", "5", "--max-len", "2")
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(report["results"][0]["certificate"]))
    code, report = run(
        capsys,
        "reduce", files["rem1"], "--witness", str(cert_path),
        "--numeric-check", "--trials", "5", "--seed", "3",
    )
    assert code == 0
    assert report["steps"] == 1
    assert report["final_forms"] == 10
    assert report["numeric_max_violation"] <= 1e-9


def test_gvn_command(files, capsys):
    code, report = run(
        capsys,
        "gvn", "--system", files["phi31"], "--at", "0", "--k", "1", "--ell", "1",
        "--trials", "20", "--seed", "5",
    )
    assert code == 0
    assert report["report"]["passed"] is True
    assert report["config"]["seed"] == 5


def test_gvn_at_origin_counterexample(files, capsys, tmp_path):
    sys_path = tmp_path / "phi342.json"
    main(["phikm", "--p", "3", "--k", "4", "--M", "2", "--system-out", str(sys_path), "--out", str(tmp_path / "ignore.json")])
    code, report = run(
        capsys,
        "gvn", "--system", str(sys_path), "--at-origin", "--k", "2", "--ell", "8", "--n", "2",
        "--family", "counterexample", "--phi-k", "4", "--phi-M", "2",
    )
    assert code == 0
    rec = report["report"]["records"][0]
    assert rec["abs_lambda"] == pytest.approx(1.0, abs=1e-12)
    assert rec["norm"] == pytest.approx(1.0, abs=1e-12)


def test_gowers_command(files, capsys, tmp_path):
    from seqcs.analysis import quadratic_table

    table = quadratic_table(5, 1, [[1]])
    fn_path = tmp_path / "f.json"
    fn_path.write_text(json.dumps(table.to_json()))
    code, report = run(capsys, "gowers", str(fn_path), "--k", "2", "--direct")
    assert code == 0
    assert report["norm"] == pytest.approx(5 ** (-0.25), abs=1e-12)
    assert report["difference"] <= 1e-10


def test_reports_are_reproducible(files, capsys):
    code1, rep1 = run(capsys, "gvn", "--system", files["phi31"], "--at", "0", "--k", "1",
                      "--ell", "1", "--trials", "10", "--seed", "9")
    code2, rep2 = run(capsys, "gvn", "--system", files["phi31"], "--at", "0", "--k", "1",
                      "--ell", "1", "--trials", "10", "--seed", "9")
    assert code1 == code2 == 0
    assert rep1 == rep2


def test_out_flag_writes_file(files, capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", files["phi31"], "--out", str(out)])
    assert code == 0
    written = json.loads(out.read_text())
    assert written["p"] == 5


def write_certificate(capsys, files, tmp_path):
    code, report = run(capsys, "witness", files["rem1"], "--k", "1", "--at", "5", "--max-len", "2")
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(report["results"][0]["certificate"]))
    return str(cert_path)


def test_reduce_rejects_an_unverified_base_certificate(files, capsys, tmp_path):
    # a length-1 certificate whose only part spans the excluded target form
    bad = {
        "system_hash": "",
        "i": 0,
        "k": 1,
        "sequence": [0],
        "covers": [{"targets": [0], "parts": [[1, 2, 3, 4, 5]]}],
    }
    cert_path = tmp_path / "bad.json"
    cert_path.write_text(json.dumps(bad))
    code, report = run(capsys, "verify", str(cert_path), files["rem1"])
    assert code == 1 and report["verdict"]["passed"] is False
    code, report = run(capsys, "reduce", files["rem1"], "--witness", str(cert_path))
    assert code == 1
    assert "witness failed verification" in report["error"]
    assert "chain" not in report


@pytest.mark.parametrize("at", ["9", "-1"])
def test_witness_at_out_of_range_exits_2(files, capsys, at):
    code = main(["witness", files["rem1"], "--k", "1", "--at", at])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "valid form indices are 0..5" in captured.err


@pytest.mark.parametrize("at", ["9", "-1"])
def test_gvn_at_out_of_range_exits_2(files, capsys, at):
    code = main(["gvn", "--system", files["rem1"], "--at", at, "--k", "1", "--ell", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "valid form indices are 0..5" in captured.err


def test_reduce_numeric_check_lists_skipped_steps(files, capsys, tmp_path):
    cert_path = write_certificate(capsys, files, tmp_path)
    code, report = run(
        capsys, "reduce", files["rem1"], "--witness", cert_path, "--numeric-check", "--point-guard", "10"
    )
    assert code == 0
    assert "numeric_checks" not in report and "numeric_max_violation" not in report
    assert [s["step"] for s in report["numeric_skipped"]] == [0]
    assert all(s["reason"] for s in report["numeric_skipped"])


# SHA-256 of `reduce` report bodies (config left out), generated before the
# change of variables and the chain verification were rewritten; any change
# in the chain JSON shows up here.
GOLDEN_REDUCE = {
    "phi342-at-2-1": "57bf99656003e9f7dea856c3ea2c28e3b2f236d0ecd52b87cee0ff22377590b7",
    "rem1-at-5": "42d7f8e2d78a4e158d81d3c35f18432d394f1c01f7ce48a6e049b505c7d12b48",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REDUCE))
def test_reduce_report_bytes_are_pinned(files, capsys, tmp_path, name):
    if name == "rem1-at-5":
        system, cert_path = files["rem1"], write_certificate(capsys, files, tmp_path)
    else:
        system, cert_path = str(tmp_path / "phi342.json"), str(tmp_path / "cert342.json")
        argv = ["phikm", "--p", "3", "--k", "4", "--M", "2", "--witness", "--at", "2,1"]
        main(argv + ["--system-out", system, "--cert-out", cert_path, "--out", str(tmp_path / "phikm.json")])
    code, report = run(capsys, "reduce", system, "--witness", cert_path)
    assert code == 0
    body = {key: val for key, val in report.items() if key != "config"}
    assert hashlib.sha256(json.dumps(body, indent=1).encode()).hexdigest() == GOLDEN_REDUCE[name]

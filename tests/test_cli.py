import argparse
import errno
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqcs import cli, covering, phi_km, systems
from seqcs.analysis import FunctionTable, quadratic_table
from seqcs.cli import _emit, _json_chunks, _json_text, build_parser, main
from seqcs.covering import AffineCover, AffineSubspace
from seqcs.phi_km import phi_system, phi_witness_certificate

PHI31 = {"p": 5, "forms": [[1, 0], [1, 1], [1, 2]]}
REMARK_F7 = {"p": 7, "forms": [[1, 1, 0], [1, 0, 1], [1, 0, 2], [1, 1, 3], [1, 2, 3], [1, 3, 3]]}
REMARK_F23 = {"p": 23, "forms": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 10, 1], [1, 1, 2], [1, 2, 2]]}
PHI562 = phi_system(5, 6, 2).to_json()
# a length-1 certificate for REMARK_F7 whose only part spans the excluded target form
UNVERIFIED_CERTIFICATE = {"system_hash": "", "i": 0, "k": 1, "sequence": [0],
                          "covers": [{"targets": [0], "parts": [[1, 2, 3, 4, 5]]}]}


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


def test_analyze_table_output(files, capsys):
    code, text = run(capsys, "analyze", files["phi31"], "--output", "table")
    assert code == 0
    lines = text.splitlines()
    assert lines[:2] == ["config:", "  command: analyze"]
    for line in ["p: 5", "r: 3", "d: 2", "translation_invariant: True", "  - [1]", "  s_cs: 1",
                 "    reason: independent", "      - [0, 2]"]:
        assert line in lines, line


def test_analyze_normalizes_once(files, capsys, monkeypatch):
    calls = []
    normalize = systems.normalize_translation_invariant
    monkeypatch.setattr(systems, "normalize_translation_invariant", lambda s: calls.append(s) or normalize(s))
    code, report = run(capsys, "analyze", files["rem1"])
    assert code == 0 and report["associated_set"] == [[1, 0], [0, 1], [0, 2], [1, 3], [2, 3], [3, 3]]
    assert len(calls) == 1


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


def test_verify_reports_an_unbound_certificate(files, capsys, tmp_path):
    code, report = run(capsys, "witness", files["rem1"], "--k", "1", "--at", "5", "--max-len", "2")
    cert = report["results"][0]["certificate"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, report = run(capsys, "verify", str(cert_path), files["rem1"])
    assert code == 0 and "unbound" not in report["verdict"]

    cert["system_hash"] = ""
    cert_path.write_text(json.dumps(cert))
    code, report = run(capsys, "verify", str(cert_path), files["rem1"])
    assert code == 0
    assert report["verdict"] == {"passed": True, "failures": [], "unbound": True}


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


@pytest.mark.parametrize("flags", [
    ["--phikm-origin", "--p", "3", "--k", "2", "--M", "2"],
    ["--phikm-origin"],
    ["--p", "7", "--k", "2", "--M", "2"],
    ["--p", "3"],
    ["--k", "2"],
    ["--M", "2"],
])
def test_cover_point_file_refuses_phikm_flags(capsys, tmp_path, flags):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"p": 3, "M": 2, "points": [[1, 0], [0, 1], [1, 1]], "excluded": [[0, 0]]}))
    assert main(["cover", str(path)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "--phikm-origin" in captured.err


@pytest.mark.parametrize("k, M", [(0, 2), (2, 0), (2, -1), (-3, 2)])
def test_cover_phikm_origin_validates_k_and_M(capsys, k, M):
    assert main(["cover", "--phikm-origin", "--p", "3", "--k", str(k), "--M", str(M)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need M >= 1 and k >= 1" in captured.err


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
# `witness --k 1 --max-len 2` reports (without config) and exit codes, taken
# while every prefix query still walked its own closure lattice.
GOLDEN_WITNESS = {
    "phi562": (1, "f9faecf01aed47883a5db79d7a1da37f8cf09cf3ebba01e2838e5b0ae00fab05"),
    "rem1": (0, "24f251585ce8f6d4e35a8980523cbd3daee0c9d03242c72bc408a63272bed549"),
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


@pytest.mark.parametrize("name", sorted(GOLDEN_WITNESS))
def test_witness_report_bytes_are_pinned(files, capsys, name):
    code, report = run(capsys, "witness", files[name], "--k", "1", "--max-len", "2")
    body = {key: val for key, val in report.items() if key != "config"}
    assert (code, hashlib.sha256(json.dumps(body, indent=1).encode()).hexdigest()) == GOLDEN_WITNESS[name]


# `--node-guard` bounds one closure-lattice walk per system, which visits each
# flat once: 50 flats for phi(5,6,2), 18 for the F_7 remark system.  At guard
# N-1 `analyze` trips in the walk too, before its first set cover.
@pytest.mark.parametrize("name, flats", [("phi562", 50), ("rem1", 18)])
def test_node_guard_counts_the_flats_of_one_lattice(files, capsys, name, flats):
    witness = ["witness", files[name], "--k", "1", "--max-len", "1", "--at", "5", "--node-guard"]
    assert main(witness + [str(flats)]) == 1
    assert capsys.readouterr().err == ""
    for argv in (witness, ["analyze", files[name], "--node-guard"]):
        assert main(argv + [str(flats - 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: closure-lattice walk passed {flats - 1} nodes (")


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


def phi342_variant(kind):
    """phi(3,4,2) with its forms shuffled, its variables scaled by (1, 2, 2) or a copy of column 1 appended."""
    forms = [list(f) for f in phi_system(3, 4, 2).forms]
    if kind == "shuffled":
        random.Random(0).shuffle(forms)
    elif kind == "scaled":
        forms = [[a, 2 * b % 3, 2 * c % 3] for a, b, c in forms]
    elif kind == "copied-column":
        forms = [f + [f[1]] for f in forms]
    return {"p": 3, "forms": forms}


@pytest.mark.parametrize("kind", ["scaled", "copied-column"])
def test_gvn_counterexample_holds_under_a_change_of_variables(capsys, tmp_path, kind):
    sys_path = tmp_path / "phi342.json"
    sys_path.write_text(json.dumps(phi342_variant(kind)))
    code, report = run(
        capsys,
        "gvn", "--system", str(sys_path), "--at-origin", "--k", "2", "--ell", "8", "--n", "2",
        "--family", "counterexample", "--phi-k", "4", "--phi-M", "2",
    )
    assert code == 0
    assert report["report"]["records"][0]["abs_lambda"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind, phi_k", [("shuffled", "4"), ("in-order", "3")])
def test_gvn_counterexample_refuses_a_system_that_is_not_its_phi(capsys, tmp_path, kind, phi_k):
    """The family is ordered like s_km_points: shuffled forms, or phi(3,4,2) under --phi-k 3, exit 2."""
    sys_path = tmp_path / "phi342.json"
    sys_path.write_text(json.dumps(phi342_variant(kind)))
    code = main(["gvn", "--system", str(sys_path), "--at-origin", "--k", "2", "--ell", "8", "--n", "2",
                 "--family", "counterexample", "--phi-k", phi_k, "--phi-M", "2"])
    assert code == 2
    assert capsys.readouterr() == ("", f"input error: --phi-k {phi_k} --phi-M 2: the system is not phi(3, {phi_k}, 2) "
                                       "up to a change of variables, with its forms in s_km_points order\n")


@pytest.mark.parametrize("argv", [
    ["phikm", "--p", "3", "--k", "4", "--M", "2", "--witness"],
    ["cover", "--phikm-origin", "--p", "3", "--k", "4", "--M", "2"],
    ["gvn", "--system", "phi342.json", "--at-origin", "--k", "2", "--ell", "8", "--n", "2",
     "--family", "counterexample", "--phi-k", "4", "--phi-M", "2"],
], ids=["phikm-witness", "cover-phikm-origin", "gvn-counterexample"])
def test_phi_runs_enumerate_the_simplex_once(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "phi342.json").write_text(json.dumps(phi342_variant("in-order")))
    calls = []
    simplex = phi_km._simplex
    monkeypatch.setattr(phi_km, "_simplex", lambda *args: calls.append(args) or simplex(*args))
    assert main(argv) == 0
    assert len(calls) == 1


def test_gowers_command(files, capsys, tmp_path):
    table = quadratic_table(5, 1, [[1]])
    fn_path = tmp_path / "f.json"
    fn_path.write_text(json.dumps(table.to_json()))
    code, report = run(capsys, "gowers", str(fn_path), "--k", "2", "--direct")
    assert code == 0
    assert report["norm"] == pytest.approx(5 ** (-0.25), abs=1e-12)
    assert report["difference"] <= 1e-10
    assert report["config"]["direct"] is True
    code, report = run(capsys, "gowers", str(fn_path), "--k", "2")
    assert code == 0 and "direct" not in report
    assert report["config"]["direct"] is False


ONES = [[1.0, 0.0]] * 5


@pytest.mark.parametrize(
    "payload, messages",
    [
        ({"p": 5, "n": 1}, ["values missing or not a list"]),
        (ONES, ["function table is not a JSON object"]),
        ({"p": 5, "n": 1, "values": [["a", 0]] + ONES[1:]}, ["values[0] is not a pair of finite real numbers"]),
        ({"p": 4, "n": 1, "values": ONES[1:]}, ["p not prime: 4"]),
        ({"p": 5, "n": 0, "values": ONES[:1]}, ["n missing or not a positive integer"]),
        ({"p": 5, "n": 1, "values": [[float("nan"), 0.0]] + ONES[1:]}, ["values[0] is not a pair"]),
        ({"p": 6, "n": -1, "values": [[1.0], [True, 0], [1, 2, 3]]},
         ["p not prime: 6", "n missing", "values[0]", "values[1]", "values[2]"]),
    ],
    ids=["no-values", "list", "string-value", "p-not-prime", "n-zero", "nan-value", "every-violation"],
)
def test_gowers_rejects_malformed_tables(tmp_path, capsys, payload, messages):
    """A malformed function table exits 2 with every violation listed and no report."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps(payload))
    assert main(["gowers", str(path), "--k", "2", "--direct"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error:")
    assert all(message in captured.err for message in messages)


def test_gowers_refuses_a_table_whose_norm_overflows(tmp_path, capsys):
    """One value of 1e200 makes the U^3 products overflow float64: exit 2 by name,
    with no numpy warning and no report (no `"norm": NaN`)."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"p": 5, "n": 1, "values": ONES[:2] + [[1e200, 0.0]] + ONES[3:]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["gowers", str(path), "--k", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: the U^3 norm overflows float64") and "1e+200" in captured.err


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    """The parser of each subcommand, by name."""
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def replay_argv(config):
    """Rebuild a command line from a report's config by walking its subcommand's parser."""
    actions = [a for a in subcommand_parsers()[config["command"]]._actions if a.dest not in ("help", "output", "out")]
    assert set(config) == {"command"} | {a.dest for a in actions}
    argv = [config["command"]]
    for action in actions:
        value = config[action.dest]
        if not action.option_strings:
            argv += [] if value is None else [str(value)]
        elif action.nargs == 0:
            argv += [action.option_strings[0]] if value == action.const else []
        elif value is not None:
            argv += [action.option_strings[0], str(value)]
    return argv


def test_reports_are_reproducible(files, capsys, tmp_path):
    cert_path = write_certificate(capsys, files, tmp_path)
    mutated = json.loads(Path(cert_path).read_text())
    mutated["covers"][1]["parts"][0] = mutated["covers"][1]["parts"][0][1:]
    mutated_path = tmp_path / "mutated.json"
    mutated_path.write_text(json.dumps(mutated))
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(UNVERIFIED_CERTIFICATE))
    phi342 = tmp_path / "phi342.json"
    phi342.write_text(json.dumps(phi_system(3, 4, 2).to_json()))
    fn_path = tmp_path / "f.json"
    fn_path.write_text(json.dumps(quadratic_table(5, 1, [[1]]).to_json()))
    cases = [
        (["analyze", files["rem1"], "--k-max", "3", "--node-guard", "100000"], 0),
        (["witness", files["rem1"], "--k", "1", "--at", "5", "--max-len", "2", "--node-guard", "100000"], 0),
        (["witness", files["phi31"], "--k", "0", "--max-len", "3"], 1),  # no witness found
        (["verify", cert_path, files["rem1"]], 0),
        (["verify", str(mutated_path), files["rem1"]], 1),
        (["reduce", files["rem1"], "--witness", cert_path, "--max-forms", "64", "--numeric-check",
          "--trials", "3", "--seed", "4", "--tol", "1e-8", "--point-guard", "1000000"], 0),
        (["reduce", files["rem1"], "--witness", str(bad_path), "--max-forms", "64"], 1),  # an error report
        (["reduce", files["rem1"], "--witness", cert_path, "--max-forms", "8"], 1),  # truncated
        (["gvn", "--system", files["phi31"], "--at", "0", "--k", "1", "--ell", "1", "--trials", "10", "--seed", "9"], 0),
        (["gvn", "--system", str(phi342), "--at-origin", "--k", "2", "--ell", "8", "--n", "4",
          "--family", "counterexample", "--phi-k", "4", "--phi-M", "2", "--ell-family", "2"], 0),
        (["phikm", "--p", "3", "--k", "4", "--M", "2", "--witness", "--verify", "--at", "2,1",
          "--system-out", str(tmp_path / "sys.json"), "--cert-out", str(tmp_path / "cert-out.json")], 0),
        (["cover", "--phikm-origin", "--p", "3", "--k", "4", "--M", "2", "--max-count", "5", "--node-guard", "100000"], 0),
        (["cover", "--phikm-origin", "--p", "3", "--k", "4", "--M", "2", "--max-count", "1"], 1),  # infeasible
        (["cover", "--phikm-origin", "--p", "3", "--k", "4", "--M", "2", "--hyperplanes-only"], 0),
        (["gowers", str(fn_path), "--k", "2", "--direct", "--point-guard", "1000"], 0),
    ]
    for argv, expected in cases:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == expected, argv
        replayed = replay_argv(json.loads(out)["config"])
        assert (main(replayed), capsys.readouterr().out) == (code, out), argv


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


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone, as when it is piped into `head`: every write fails."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("output", ["json", "table"])
def test_closed_stdout_is_an_output_error(files, capsys, tmp_path, monkeypatch, output):
    """A report that cannot be written exits 2 as an output error, not an input error, with no traceback."""
    argv = ["reduce", files["rem1"], "--witness", write_certificate(capsys, files, tmp_path), "--output", output]
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == "output error: stdout closed before the report was written: [Errno 32] Broken pipe\n"


def test_reduce_rejects_an_unverified_base_certificate(files, capsys, tmp_path):
    cert_path = tmp_path / "bad.json"
    cert_path.write_text(json.dumps(UNVERIFIED_CERTIFICATE))
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


@pytest.mark.parametrize("where", [["--at", "0", "--at-origin"], []])
def test_gvn_needs_exactly_one_of_at_and_at_origin(files, where):
    with pytest.raises(SystemExit) as exc:
        main(["gvn", "--system", files["phi31"], *where, "--k", "1", "--ell", "1"])
    assert exc.value.code == 2


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


# SHA-256 of the raw stdout of `reduce` on phi(3,4,2) cut at (2,1), run from the
# input directory so the config holds relative paths.  Generated while reports
# were still written by `json.dumps(report, indent=1)`, so it pins the writer
# byte for byte, which the parsed-body digests above cannot see.
GOLDEN_REDUCE_STDOUT = "165a249864baa4720e9ded749189be933a09e594c3c70c69937a5146d72c6333"


def test_reduce_stdout_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["phikm", "--p", "3", "--k", "4", "--M", "2", "--witness", "--at", "2,1"]
    main(argv + ["--system-out", "phi342.json", "--cert-out", "cert342.json", "--out", "phikm.json"])
    capsys.readouterr()
    assert main(["reduce", "phi342.json", "--witness", "cert342.json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_REDUCE_STDOUT


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**63 - 2, 2**80) | st.integers(-(2**80), -(2**63) + 2),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 1e300, 5e-324]),
    st.text(max_size=6),
    st.sampled_from(["é", "日本", "\n\t\"\\/", "\u2028", "\x00\x1f", "\ud800", "\U0001f600"]),
)


class TaggedInt(int):
    """An int subclass whose repr is not its JSON text: json writes it by int.__repr__."""

    def __repr__(self):
        return f"TaggedInt({int(self)})"


INT_LISTS = st.lists(st.integers() | st.integers(2**63, 2**80) | st.booleans(), max_size=6)
# the items a scalar row may hold, by exact type: ints (past 2^64 too), bools, floats and None
ROW_SCALARS = st.one_of(
    st.integers(),
    st.integers(2**64, 2**80) | st.integers(-(2**80), -(2**64)),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), 5e-324]),
)
# items that keep a row off the one-encode path: strings holding the separators, int subclasses
ROW_BREAKERS = st.one_of(
    st.sampled_from([",", "[", "]", "],[", "[1,2]", "],\n[", "a, b"]),
    st.text(alphabet=",[] 0", max_size=5),
    st.integers().map(TaggedInt),
)
SCALAR_ROWS = st.lists(ROW_SCALARS, min_size=1, max_size=1) | st.lists(ROW_SCALARS, min_size=1, max_size=5)
MIXED_ROWS = st.lists(ROW_SCALARS | ROW_BREAKERS, min_size=1, max_size=5)
# scalar-row matrices, and lists of scalar rows mixed with other rows and scalars
ROW_LISTS = st.lists(SCALAR_ROWS, min_size=1, max_size=6) | st.lists(
    SCALAR_ROWS | MIXED_ROWS | INT_LISTS | JSON_SCALARS | ROW_BREAKERS, max_size=6
)
JSON_KEYS = st.text(max_size=4) | st.sampled_from(["é", "\"", "a\nb"])
JSON_VALUES = st.recursive(
    JSON_SCALARS | INT_LISTS | SCALAR_ROWS | MIXED_ROWS | ROW_LISTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(JSON_KEYS, inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3) | st.booleans() | st.none() | st.floats(), inner, max_size=3),
    max_leaves=25,
)


@settings(max_examples=400)
@given(JSON_VALUES, st.integers(0, 3), st.sampled_from([1, 2, 5, cli._PIECE_INTS]))
def test_report_writer_matches_json_dumps(obj, level, piece_ints):
    """The pieces, with scalar-row matrices split after any number of items, join to json.dumps's text at `level`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_PIECE_INTS", piece_ints)
        assert "".join(_json_chunks(obj, level)) == json.dumps(obj, indent=1).replace("\n", "\n" + " " * level)
    assert _json_text(obj) == json.dumps(obj, indent=1)
    assert _json_text({"nested": [obj, [], {}]}) == json.dumps({"nested": [obj, [], {}]}, indent=1)


def test_report_file_is_written_in_pieces(tmp_path):
    """`--out` streams the report: writing a 2000 × 200 int matrix peaks below
    half its text, and the file holds json.dumps's bytes and a newline."""
    forms = np.random.default_rng(7).integers(0, 10**6, (2000, 200)).tolist()
    report = {"config": {"command": "reduce"}, "forms": forms}
    text = json.dumps(report, indent=1) + "\n"
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        _emit(report, argparse.Namespace(output="json", out=str(out)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text) / 2
    assert out.read_text(encoding="utf-8") == text


def test_reduce_error_report_carries_the_full_config(files, capsys, tmp_path):
    cert_path = tmp_path / "bad.json"
    cert_path.write_text(json.dumps(UNVERIFIED_CERTIFICATE))
    code, report = run(capsys, "reduce", files["rem1"], "--witness", str(cert_path), "--max-forms", "64")
    assert code == 1 and "error" in report
    config = report["config"]
    assert config["system"] == files["rem1"]
    assert config["witness"] == str(cert_path)
    assert config["max_forms"] == 64


def test_reduce_consistency_alarm_exits_1_without_traceback(files, capsys, tmp_path, monkeypatch):
    from seqcs import reduction
    from seqcs.complexity import CoverCertificate

    cert_path = write_certificate(capsys, files, tmp_path)
    relabel = reduction._relabel_cover

    def dropping(cover, new_index):
        out = relabel(cover, new_index)
        parts = (out.parts[0][1:],) + out.parts[1:] if out.parts else out.parts
        return CoverCertificate(out.targets, parts, out.k)

    monkeypatch.setattr(reduction, "_relabel_cover", dropping)
    code = main(["reduce", files["rem1"], "--witness", cert_path])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    assert "internal consistency alarm" in report["alarm"]
    assert "error" not in report and "chain" not in report
    assert report["config"]["witness"] == cert_path and report["config"]["max_forms"] == 4096
    assert "internal consistency alarm" in captured.err


def test_reduce_marks_an_unbound_witness(files, capsys, tmp_path):
    cert_path = write_certificate(capsys, files, tmp_path)
    code, report = run(capsys, "reduce", files["rem1"], "--witness", cert_path)
    assert code == 0 and "unbound" not in report
    cert = json.loads(Path(cert_path).read_text())
    cert["system_hash"] = ""
    Path(cert_path).write_text(json.dumps(cert))
    code, report = run(capsys, "reduce", files["rem1"], "--witness", cert_path)
    assert code == 0 and report["steps"] == 1
    assert report["unbound"] is True

    Path(cert_path).write_text(json.dumps(UNVERIFIED_CERTIFICATE))
    code, report = run(capsys, "reduce", files["rem1"], "--witness", cert_path)
    assert code == 1 and "error" in report
    assert report["unbound"] is True


@pytest.mark.parametrize("argv, message", [
    (["gvn", "--n", "0"], "n must be >= 1, got 0"),
    (["gvn", "--n", "-1"], "n must be >= 1, got -1"),
    (["gvn", "--trials", "-3"], "trials must be >= 1, got -3"),
    (["gvn", "--trials", "0"], "trials must be >= 1, got 0"),
    (["reduce", "--n", "0"], "n must be >= 1, got 0"),
    (["reduce", "--trials", "0"], "trials must be >= 1, got 0"),
    (["witness", "--k", "-1"], "k must be >= 0, got -1"),
    (["gvn", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["reduce", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["gvn", "--ell", "0"], "ell must be >= 1, got 0"),
    (["gvn", "--ell", "-3"], "ell must be >= 1, got -3"),
    (["gvn", "--k", "0"], "k must be >= 1, got 0"),
    (["gvn", "--k", "8"], "--k 8: U^9 above cap U^8"),
    (["gowers", "--k", "9"], "k=9 above cap 8"),
    (["cover", "--max-count", "-1"], "max_count must be >= 0, got -1"),
    (["reduce", "--max-forms", "-1"], "max_forms must be >= 0, got -1"),
    (["gvn", "--tol=nan"], "tol must be finite and >= 0, got nan"),
    (["gvn", "--tol=inf"], "tol must be finite and >= 0, got inf"),
    (["gvn", "--tol=-inf"], "tol must be finite and >= 0, got -inf"),
    (["gvn", "--tol=-1e-9"], "tol must be finite and >= 0, got -1e-09"),
    (["reduce", "--tol=nan"], "tol must be finite and >= 0, got nan"),
    (["reduce", "--tol=inf"], "tol must be finite and >= 0, got inf"),
    (["reduce", "--tol=-inf"], "tol must be finite and >= 0, got -inf"),
    (["reduce", "--tol=-1e-9"], "tol must be finite and >= 0, got -1e-09"),
    (["reduce-unchecked", "--n", "0"], "n must be >= 1, got 0"),
    (["reduce-unchecked", "--trials", "0"], "trials must be >= 1, got 0"),
    (["reduce-unchecked", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["analyze", "--node-guard", "-1"], "--node-guard -1: must be >= 1"),
    (["witness", "--node-guard", "-1"], "--node-guard -1: must be >= 1"),
    (["witness", "--node-guard", "0"], "--node-guard 0: must be >= 1"),
    (["cover", "--node-guard", "0"], "--node-guard 0: must be >= 1"),
    (["reduce", "--point-guard", "0"], "--point-guard 0: must be >= 1"),
    (["reduce-unchecked", "--point-guard", "-1"], "--point-guard -1: must be >= 1"),
    (["gvn", "--point-guard", "0"], "--point-guard 0: must be >= 1"),
    (["gowers", "--point-guard", "-1"], "--point-guard -1: must be >= 1"),
    (["phikm", "--at", "x"], "--at x: expected comma-separated integers"),
    (["phikm", "--at", ","], "--at ,: expected comma-separated integers"),
    (["gvn-counterexample", "--w", "x"], "--w x: expected comma-separated integers"),
    (["gvn-counterexample", "--n", "1"], "--n 1: --family counterexample needs --n = --phi-M × --ell-family = 2 × 1 = 2"),
    (["gvn-counterexample", "--ell-family", "2"],
     "--n 2: --family counterexample needs --n = --phi-M × --ell-family = 2 × 2 = 4"),
], ids=["gvn-n-0", "gvn-n-neg", "gvn-trials-neg", "gvn-trials-0", "reduce-n-0", "reduce-trials-0", "witness-k-neg",
        "gvn-seed-neg", "reduce-seed-neg", "gvn-ell-0", "gvn-ell-neg", "gvn-k-0", "gvn-k-above-cap",
        "gowers-k-above-cap", "cover-max-count-neg",
        "reduce-max-forms-neg", "gvn-tol-nan", "gvn-tol-inf", "gvn-tol-minus-inf", "gvn-tol-neg",
        "reduce-tol-nan", "reduce-tol-inf", "reduce-tol-minus-inf", "reduce-tol-neg",
        "reduce-unchecked-n-0", "reduce-unchecked-trials-0", "reduce-unchecked-seed-neg",
        "analyze-node-guard-neg", "witness-node-guard-neg", "witness-node-guard-0", "cover-node-guard-0",
        "reduce-point-guard-0", "reduce-unchecked-point-guard-neg", "gvn-point-guard-0", "gowers-point-guard-neg",
        "phikm-at-not-int", "phikm-at-comma", "gvn-w-not-int", "gvn-counterexample-n",
        "gvn-counterexample-n-ell-family"])
def test_out_of_range_integer_flags_exit_2_by_name(files, capsys, tmp_path, argv, message):
    command, *flags = argv
    table = tmp_path / "f.json"
    table.write_text(json.dumps(FunctionTable.constant(3, 1).to_json()))
    phi342 = tmp_path / "phi342.json"
    phi342.write_text(json.dumps(phi_system(3, 4, 2).to_json()))
    base = {
        "analyze": ["analyze", files["phi31"]],
        "gvn": ["gvn", "--system", files["phi31"], "--at", "0", "--k", "1", "--ell", "1", "--trials", "2"],
        "reduce": ["reduce", files["rem1"], "--witness", write_certificate(capsys, files, tmp_path),
                   "--numeric-check", "--trials", "2"],
        "reduce-unchecked": ["reduce", files["rem1"], "--witness", write_certificate(capsys, files, tmp_path)],
        "witness": ["witness", files["phi31"], "--k", "1", "--at", "0"],
        "cover": ["cover", "--phikm-origin", "--p", "3", "--k", "3", "--M", "2"],
        "gowers": ["gowers", str(table), "--k", "2"],
        "phikm": ["phikm", "--p", "3", "--k", "4", "--M", "2", "--witness"],
        "gvn-counterexample": ["gvn", "--system", str(phi342), "--at-origin", "--k", "2", "--ell", "8", "--n", "2",
                               "--family", "counterexample", "--phi-k", "4", "--phi-M", "2"],
    }[command]
    code = main(base + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["gvn", "--system", "{rem1}", "--at-origin", "--k", "1", "--ell", "1"],
     "input error: no form equals (1, 0, ..., 0); cannot use --at-origin"),
    (["gvn", "--system", "{phi31}", "--at", "0", "--k", "1", "--ell", "1", "--family", "counterexample", "--phi-k", "3"],
     "input error: --family counterexample needs --phi-k and --phi-M"),
    (["cover", "--phikm-origin", "--p", "3", "--k", "3"], "input error: --phikm-origin needs --p, --k, --M"),
    (["cover"], "input error: give a point-set file or --phikm-origin"),
    (["cover", "--phikm-origin", "--p", "3", "--k", "4", "--M", "2", "--hyperplanes-only", "--node-guard", "52"],
     "error: set-cover search passed 52 nodes"),
], ids=["gvn-at-origin-missing", "gvn-counterexample-flags", "cover-phikm-flags", "cover-no-input", "cover-guard"])
def test_command_input_errors_exit_2_through_main(files, capsys, argv, message):
    code = main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize("level, message", [
    ("0", "--ell-family must be >= 1, got 0"),
    ("40", "--ell-family 40: the product table would have p^(n·ell) = 3^80 entries, above the guard 100000000"),
])
def test_ell_family_out_of_range_is_named(tmp_path, capsys, level, message):
    phi342 = tmp_path / "phi342.json"
    phi342.write_text(json.dumps(phi_system(3, 4, 2).to_json()))
    n = str(2 * max(int(level), 1))  # --phi-M × --ell-family, so that only the level is at fault
    code = main(["gvn", "--system", str(phi342), "--at-origin", "--k", "2", "--ell", "8", "--n", n,
                 "--family", "counterexample", "--phi-k", "4", "--phi-M", "2", "--ell-family", level])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("flags", [
    ["--verify"],
    ["--at", "2,1"],
    ["--cert-out", "c.json"],
    ["--cert-out", "c.json", "--at", "2,1", "--verify"],
], ids=["verify", "at", "cert-out", "all-three"])
def test_phikm_witness_flags_need_witness(tmp_path, capsys, monkeypatch, flags):
    """`--verify`, `--at` and `--cert-out` act on a witness: without `--witness`
    the run exits 2 naming each one given, with no report and no side file."""
    monkeypatch.chdir(tmp_path)
    argv = ["phikm", "--p", "3", "--k", "4", "--M", "2", "--system-out", "s.json", "--out", "r.json"]
    assert main(argv + flags) == 2
    named = [flag for flag in ("--verify", "--at", "--cert-out") if flag in flags]
    assert capsys.readouterr() == ("", "input error: " + "; ".join(f"{flag} needs --witness" for flag in named) + "\n")
    assert list(tmp_path.iterdir()) == []
    assert main(argv + flags + ["--witness"]) == 0


def contract_inputs(tmp_path):
    """Tiny valid input files made from phi(3,3,1), by kind, and a run of every
    subcommand on them."""
    texts = {
        "system": json.dumps(phi_system(3, 3, 1).to_json()),
        "certificate": json.dumps(phi_witness_certificate(3, 3, 1).to_json()),
        "function": json.dumps(FunctionTable.constant(3, 1).to_json()),
        "points": json.dumps({"p": 3, "M": 1, "points": [[1], [2]], "excluded": [[0]]}),
    }
    inputs = {}
    for name, text in texts.items():
        inputs[name] = str(tmp_path / f"{name}.json")
        Path(inputs[name]).write_text(text)
    system, certificate, function, points = inputs.values()
    bases = [
        ["analyze", system],
        ["witness", system, "--k", "1", "--max-len", "2"],
        ["verify", certificate, system],
        ["reduce", system, "--witness", certificate, "--numeric-check", "--trials", "2"],
        ["gvn", "--system", system, "--at", "0", "--k", "1", "--ell", "1", "--trials", "2"],
        ["gvn", "--system", system, "--at-origin", "--k", "1", "--ell", "2",
         "--family", "counterexample", "--phi-k", "3", "--phi-M", "1"],
        ["phikm", "--p", "3", "--k", "3", "--M", "1", "--witness", "--verify"],
        ["cover", "--phikm-origin", "--p", "3", "--k", "3", "--M", "1"],
        ["cover", points],
        ["gowers", function, "--k", "2", "--direct"],
    ]
    assert {base[0] for base in bases} == set(subcommand_parsers())
    return inputs, bases


def test_contract_fuzzer(tmp_path, capsys):
    """Every subcommand, with each integer option at -1, 0 and 1 and each input
    file empty, truncated, `[]` or `3`, exits 0, 1 or 2 without a traceback.

    The valid inputs are tiny and made from phi(3,3,1).  The bounded runs
    below must exit with the code given within one second, where only a size
    guard, a bound on the search or a fast primality test can stop them: each
    command that takes `--M` at `--M 1000000`, `gvn` at `--n 1000000`,
    `--n 1000000000` and `--ell-family 1000000`, `cover --hyperplanes-only` on
    a one-point file in F_3^30, on the (3,2,25) simplex and on the (3,21,10)
    simplex (29 524 normals times 59 049 points), `witness` at
    `--max-len 1000000000` where no witness exists, and every input that gives
    a modulus, at the prime 2^61 - 1 and at the prime 2^89 - 1, which is past
    the bound of the primality test."""
    inputs, bases = contract_inputs(tmp_path)
    broken = {}
    for name, path in inputs.items():
        text = Path(path).read_text()
        broken[path] = []
        for label, content in [("empty", ""), ("truncated", text[: len(text) // 2]), ("list", "[]"), ("int", "3")]:
            bad = tmp_path / f"{name}-{label}.json"
            bad.write_text(content)
            broken[path].append(str(bad))
    parsers = subcommand_parsers()
    cases = []
    for base in bases:
        options = [a.option_strings[0] for a in parsers[base[0]]._actions if a.type is int]
        cases += [base + [option, str(value)] for option in options for value in (-1, 0, 1)]
        for at, arg in enumerate(base):
            cases += [base[:at] + [bad] + base[at + 1:] for bad in broken.get(arg, ())]
    huge = [base + ["--M", "1000000"] for base in bases if "--M" in base]
    assert len(huge) == 2
    gvn_random, gvn_counterexample = (base for base in bases if base[0] == "gvn")
    huge += [gvn_random + ["--n", "1000000"], gvn_random + ["--n", "1000000000"],
             gvn_counterexample + ["--ell-family", "1000000"]]
    wide = str(tmp_path / "wide-points.json")
    Path(wide).write_text(json.dumps({"p": 3, "M": 30, "points": [[1] * 30], "excluded": []}))
    huge += [["cover", wide, "--hyperplanes-only"],
             ["cover", "--phikm-origin", "--p", "3", "--k", "2", "--M", "25", "--hyperplanes-only"],
             ["cover", "--phikm-origin", "--p", "3", "--k", "21", "--M", "10", "--hyperplanes-only"]]
    bounded = [(argv, 2) for argv in huge]
    bounded.append((["witness", inputs["system"], "--k", "0", "--max-len", "1000000000", "--at", "0"], 1))
    for p, code in [(2**61 - 1, 0), (2**89 - 1, 2)]:
        moduli = {}
        for name in ("system", "points", "function"):
            moduli[name] = str(tmp_path / f"{name}-p{p.bit_length()}.json")
            Path(moduli[name]).write_text(json.dumps({**json.loads(Path(inputs[name]).read_text()), "p": p}))
        bounded += [
            (["analyze", moduli["system"]], code),
            (["cover", moduli["points"]], code),
            (["gowers", moduli["function"], "--k", "2"], 2),  # three values are not p^1 of them
            (["phikm", "--p", str(p), "--k", "3", "--M", "1", "--witness", "--verify"], code),
            (["cover", "--phikm-origin", "--p", str(p), "--k", "3", "--M", "1"], code),
        ]

    def overdue(signum, frame):
        raise TimeoutError("no exit within one second")

    failures = []
    for argv, expected in [(argv, None) for argv in cases] + bounded:
        limit = 0.0 if expected is None else 1.0  # 0 sets no alarm
        previous = signal.signal(signal.SIGALRM, overdue)
        signal.setitimer(signal.ITIMER_REAL, limit)
        started = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        except Exception as exc:  # any exception escaping main breaks the contract
            code = repr(exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or "Traceback" in err or (expected is not None and (code != expected or elapsed >= limit)):
            failures.append((argv, code, err[-200:]))
    assert not failures


def test_directories_are_input_errors(tmp_path, capsys):
    """A directory in place of any input or output file exits 2 with no report and no traceback."""
    inputs, bases = contract_inputs(tmp_path)
    directory = str(tmp_path)
    cases = [base[:at] + [directory] + base[at + 1:]
             for base in bases for at, arg in enumerate(base) if arg in inputs.values()]
    assert {argv[0] for argv in cases} == {"analyze", "witness", "verify", "reduce", "gvn", "cover", "gowers"}
    cases += [base + ["--out", directory] for base in bases]
    phikm = next(base for base in bases if base[0] == "phikm")
    cases += [phikm + ["--system-out", directory], phikm + ["--cert-out", directory]]
    for argv in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err.startswith("input error: ") and "Traceback" not in captured.err, argv


def test_the_shared_parser_carries_nothing_between_calls(tmp_path, capsys):
    """`main` parses every call with one parser per process.  Each subcommand run
    twice in one process, its second run following other commands, writes the
    same report bytes, `config` included, and exit code as its first run and as
    a fresh interpreter, and every default the parser holds is an immutable scalar."""
    _, bases = contract_inputs(tmp_path)
    runs = {}
    for argv in bases + bases[::-1]:
        code = main(argv)
        runs.setdefault(tuple(argv), []).append((code, capsys.readouterr().out))
    assert all(first == second for first, second in runs.values())
    assert build_parser() is build_parser()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "seqcs.cli", *bases[0]], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert (proc.returncode, proc.stdout) == runs[tuple(bases[0])][0], proc.stderr[-2000:]
    defaults = [action.default for parser in [build_parser(), *subcommand_parsers().values()]
                for action in parser._actions]
    assert all(type(default) in (type(None), bool, int, float, str) for default in defaults), defaults


def test_phikm_writes_no_side_file_when_its_report_fails(tmp_path, capsys, monkeypatch):
    """`--system-out` and `--cert-out` are written only after the report: a report
    path that is a directory exits 2 and leaves neither file behind."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "reports").mkdir()
    argv = ["phikm", "--p", "3", "--k", "4", "--M", "2", "--witness",
            "--system-out", "s.json", "--cert-out", "c.json", "--out", "reports"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reports"]
    assert main(argv[:-1] + ["report.json"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "report.json", "reports", "s.json"]

"""Command line interface: output schemas, formats, and exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import kacfusion.cli as cli_module
import kacfusion.smatrix as smatrix_module
from kacfusion.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# ------------------------------------------------------------------ happy paths

def test_rootsys_json_schema(capsys):
    code, doc, _ = run_json(capsys, "rootsys", "--type", "G2")
    assert code == 0
    assert set(doc) == {
        "type", "rank", "positive_roots", "coxeter_number",
        "dual_coxeter_number", "lacing", "weyl_order", "marks", "comarks",
        "dual_marks", "cartan_determinant", "node_orbit", "dual_node_orbit",
        "twisted_partner",
    }
    assert doc["twisted_partner"] == "D4^(3)"
    assert doc["weyl_order"] == 12


def test_enumerate_json(capsys):
    code, doc, _ = run_json(capsys, "enumerate", "--type", "A1", "--pq", "5,2")
    assert code == 0
    assert doc["count"] == 8
    assert doc["level"] == "1/2"
    assert doc["all_verified"] is True
    assert {"lam", "nu", "beta", "ybar_sign", "degenerate"} == set(doc["labels"][0])


def test_enumerate_level_flag_matches_pq(capsys):
    # k = 2/5 - 2; negative rationals need the = form so argparse keeps the dash
    code1, doc1, _ = run_json(capsys, "enumerate", "--type", "A1",
                              "--level=-8/5")
    code2, doc2, _ = run_json(capsys, "enumerate", "--type", "A1",
                              "--pq", "2,5")
    assert code1 == code2 == 0
    assert doc1 == doc2


def test_smatrix_verify_passes(capsys):
    code, doc, _ = run_json(capsys, "smatrix", "--type", "A1", "--pq", "5,2",
                            "--verify")
    assert code == 0
    assert doc["size"] == 8
    assert doc["relations"]["max_error"] < 1e-9
    assert len(doc["matrix"]) == 8 and len(doc["matrix"][0][0]) == 2


@pytest.mark.parametrize("argv", [["smatrix", "--verify"], ["verify"]])
def test_s_matrix_built_once(capsys, monkeypatch, argv):
    calls = []
    original = smatrix_module.build_smatrix

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli_module, "build_smatrix", counting)
    monkeypatch.setattr(smatrix_module, "build_smatrix", counting)
    code, doc, _ = run_json(capsys, argv[0], "--type", "A2", "--pq", "4,3",
                            *argv[1:])
    assert code == 0
    assert doc["relations"]["max_error"] < 1e-9
    assert len(calls) == 1


def test_tmatrix_csv(capsys):
    code, out, _ = run(capsys, "tmatrix", "--type", "A1", "--pq", "3,4",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["exponent", "re", "im"]
    assert len(rows) == 9


def test_verify_reports_residuals(capsys):
    code, doc, _ = run_json(capsys, "verify", "--type", "A2", "--pq", "4,3")
    assert code == 0
    assert doc["pass"] is True
    assert doc["spot_check_max_diff"] < 1e-12
    assert set(doc["relations"]) >= {
        "unitarity_error", "s_squared_error", "st_cubed_error", "max_error",
    }


def test_chars_eval(capsys):
    code, doc, _ = run_json(capsys, "chars-eval", "--type", "A1",
                            "--pq", "5,2", "--tau", "2i", "--x", "0.13")
    assert code == 0
    assert len(doc["values"]) == 8
    for entry in doc["values"]:
        assert set(entry) == {"value", "tail_bound", "N"}
        # a proved bound, at most the --tol default
        assert 0 < entry["tail_bound"] <= 1e-9


def test_theta_check(capsys):
    code, doc, _ = run_json(capsys, "theta-check", "--type", "A1",
                            "--seed", "3")
    assert code == 0
    assert doc["pass"] is True
    assert doc["scalar_residual"] < 1e-10
    assert doc["lattice_residual"] < 1e-10


@pytest.mark.parametrize("argv", [
    ("--type", "D4", "--tau", "0.3i"), ("--type", "A2", "--tau", "0.1i"),
])
def test_theta_check_small_im_tau(capsys, argv):
    # the point budget stays per theta function: these evaluate
    code, doc, _ = run_json(capsys, "theta-check", *argv)
    assert code == 0
    assert doc["pass"] is True


def test_theta_check_index_must_make_the_lattice_integral(capsys):
    # the G2 root lattice has (alpha, alpha) = 2/3 on short roots
    code, out, err = run(capsys, "theta-check", "--type", "G2", "--lattice", "Q")
    assert (code, out) == (1, "")
    assert err.startswith("kacfusion: error: --index 4 ")
    assert "multiple of 3" in err
    code, doc, _ = run_json(capsys, "theta-check", "--type", "G2", "--lattice", "Q",
                            "--index", "3")
    assert code == 0
    assert doc["pass"] is True


def test_wlabels(capsys):
    code, doc, _ = run_json(capsys, "wlabels", "--type", "A1", "--pq", "2,5")
    assert code == 0
    assert doc["count"] == 2
    assert doc["central_charge"] == "-22/5"


# sha256 of the JSON output; every value in it is an exact rational or an
# integer, so the digests hold on every platform
GOLDEN = [
    ("enumerate", "A1", "3,4", 0,
     "28de0f13c9cd0d4614bda0e651bd5874345624a0167992c3bfaa20cd7124ea3a"),
    ("wlabels", "A1", "3,4", 0,
     "b1765026a2d2b79c0c1d6fc52d7b3061667581f7718cf8b8eb74889608d8e2c9"),
    ("enumerate", "A2", "3,5", 0,
     "ebde531668666c177099e2dba87ea0d2454bd17fd104b85cdf07d54a3092e17a"),
    ("wlabels", "A2", "3,5", 0,
     "8b8e2f602ad8c7365f266897fe0ce56f375527e1168f59fa31684681f883982f"),
    ("enumerate", "B2", "5,2", 0,
     "5334b775c2b6c709d44eb22d02c4a48c0ed9f6eedd0d7001fa854ba35b240d34"),
    # coprincipal: W-labels are refused with exit 1 and no output
    ("wlabels", "B2", "5,2", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("enumerate", "A3", "5,3", 0,
     "54072436e56be01a7c4d8dbf3ee0e8ab5e128715b9b9eac564b3da0cfd07a10c"),
    ("wlabels", "A3", "5,3", 0,
     "ca2af19a34fc3098fa9e9a63d0b66438af6de4ddca24bd4b688236218fe4cb0e"),
]


@pytest.mark.parametrize("command,name,pq,code,digest", GOLDEN)
def test_label_outputs_are_pinned(capsys, command, name, pq, code, digest):
    got, out, _ = run(capsys, command, "--type", name, "--pq", pq, "--format", "json")
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fusion_ising(capsys):
    code, out, _ = run(capsys, "fusion", "--type", "A1", "--pq", "3,4")
    assert code == 0
    assert "[1] x [1] = [0] + [2]" in out
    code, doc, _ = run_json(capsys, "fusion", "--type", "A1", "--pq", "3,4")
    assert code == 0
    assert doc["vacuum"] == 0
    assert {"a": 1, "b": 1, "c": 2, "N": 1} in doc["table"]
    assert doc["central_charge"] == "1/2"


def test_factorize_clean(capsys):
    code, doc, _ = run_json(capsys, "factorize", "--type", "A1", "--pq", "3,5")
    assert code == 0
    assert doc["hypothesis_ok"] is True and doc["equal"] is True


# ------------------------------------------------------------------- exit codes

def test_factorize_hypothesis_violation_exits_two(capsys):
    code, doc, err = run_json(capsys, "factorize", "--type", "A1",
                              "--pq", "5,2")
    assert code == 2
    assert doc["hypothesis_ok"] is False
    assert "hypothesis violated" in err
    assert "gcd" in err


def test_verification_failure_exits_two(capsys):
    code, _, err = run(capsys, "verify", "--type", "A1", "--pq", "5,2",
                       "--tol", "1e-30")
    assert code == 2
    assert "exceeds tolerance" in err


def test_smatrix_verify_failure_exits_two(capsys):
    code, _, err = run(capsys, "smatrix", "--type", "A1", "--pq", "5,2",
                       "--verify", "--tol", "1e-30")
    assert code == 2


def test_bad_inputs_exit_one(capsys):
    assert run(capsys, "rootsys", "--type", "Z9")[0] == 1
    assert run(capsys, "enumerate", "--type", "A1")[0] == 1
    assert run(capsys, "enumerate", "--type", "A1", "--pq", "4,2")[0] == 1
    assert run(capsys, "enumerate", "--type", "A1", "--pq", "abc")[0] == 1
    assert run(capsys, "enumerate", "--type", "A1", "--level", "x/y")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "chars-eval", "--type", "A2", "--pq", "4,3",
               "--x", "0.1")[0] == 1  # wrong coordinate count
    code, out, err = run(capsys, "theta-check", "--type", "A2",
                         "--x", "0.1,0.2,0.3")
    assert (code, out) == (1, "")
    assert err.startswith("kacfusion: error: --x needs 2 coordinates for A2")


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "--type", "A1", "--pq", ""], "--pq expects two comma"),
    (["enumerate", "--type", "A1", "--pq", "5"], "--pq expects two comma"),
    (["enumerate", "--type", "A1", "--pq", "5,2,1"], "--pq expects two comma"),
    (["enumerate", "--type", "A1", "--pq", "a,b"], "--pq expects two comma"),
    (["enumerate", "--type", "A1", "--level="], "argument --level"),
    (["enumerate", "--type", "A1", "--level=1/0"], "argument --level"),
    (["chars-eval", "--type", "A1", "--pq", "5,2", "--tau", "abc"],
     "argument --tau"),
    (["theta-check", "--x", " "], "argument --x"),
    (["theta-check", "--index", "0"], "argument --index"),
    (["theta-check", "--index", "-2"], "argument --index"),
], ids=["pq-blank", "pq-one-part", "pq-three-parts", "pq-not-integers",
        "level-blank", "level-zero-denominator", "tau-malformed", "x-blank",
        "index-zero", "index-negative"])
def test_malformed_flags_exit_one_with_usage(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: kacfusion ")
    assert message in err


@pytest.mark.parametrize("argv", [
    ["chars-eval", "--type", "A1", "--pq", "5,2", "--x", ""],
    ["chars-eval", "--type", "A1", "--pq", "5,2", "--t", ""],
    ["theta-check", "--seed", "4", "--x", ""],
])
def test_blank_point_flags_mean_not_given(capsys, argv):
    given = run(capsys, *argv, "--format", "json")
    omitted = run(capsys, *argv[:-2], "--format", "json")
    assert given[0] == 0
    assert given == omitted


def test_wlabels_coprincipal_exits_one(capsys):
    code, _, err = run(capsys, "wlabels", "--type", "B2", "--pq", "5,2")
    assert code == 1
    assert "principal" in err


# ---------------------------------------------------------------- determinism

def test_identical_seeds_identical_reports(capsys):
    a = run(capsys, "verify", "--type", "A1", "--pq", "2,5", "--seed", "11",
            "--format", "json")
    b = run(capsys, "verify", "--type", "A1", "--pq", "2,5", "--seed", "11",
            "--format", "json")
    assert a == b
    c = run(capsys, "theta-check", "--seed", "9", "--format", "json")
    d = run(capsys, "theta-check", "--seed", "9", "--format", "json")
    assert c == d


def test_json_keys_sorted(capsys):
    _, out, _ = run(capsys, "rootsys", "--type", "A2", "--format", "json")
    doc = json.loads(out)
    assert list(doc) == sorted(doc)


def test_parser_reuse_keeps_calls_independent(capsys):
    # the parser is built once per process; every call still parses into a
    # fresh namespace, so a call's output does not depend on the calls before
    calls = [
        ["theta-check", "--seed", "9"],
        ["enumerate", "--type", "A1", "--level=-8/5"],
        ["chars-eval", "--type", "A1", "--pq", "5,2", "--x", "0.13"],
        ["theta-check", "--seed", "9"],
    ]
    assert cli_module.build_parser() is cli_module.build_parser()
    in_sequence = [run(capsys, *argv, "--format", "json") for argv in calls]
    alone = []
    for argv in calls:
        cli_module.build_parser.cache_clear()
        alone.append(run(capsys, *argv, "--format", "json"))
    assert in_sequence == alone
    assert in_sequence[0] == in_sequence[3]


def test_module_entry_point_matches_main(capsys):
    argv = ["rootsys", "--type", "G2", "--format", "json"]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli_module.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "kacfusion.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)

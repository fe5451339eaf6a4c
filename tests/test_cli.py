"""Command line interface: output schemas, formats, and exit codes."""

import cmath
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import kacfusion.cli as cli_module
import kacfusion.smatrix as smatrix_module
from kacfusion import chars
from kacfusion.cli import main
from kacfusion.ratlin import lattice_coset_reps, transpose


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


def test_theta_check_gates_the_relative_residual(capsys):
    # |Theta| is about 1.8e7 at tau = 0.02i: rounding alone leaves an
    # absolute Jacobi residual near 2e-8, above the default --tol
    code, doc, _ = run_json(capsys, "theta-check", "--type", "A1", "--tau", "0.02i")
    assert code == 0
    assert doc["pass"] is True
    assert doc["scalar_relative_residual"] < 1e-13
    assert doc["lattice_relative_residual"] < 1e-10
    assert doc["scalar_residual"] >= doc["scalar_relative_residual"]
    assert doc["lattice_residual"] >= doc["lattice_relative_residual"]


def _theta_lattice_check_wrong_phase(rs, lattice, mu, m, tau, z=None, t=0j,
                                     tol=1e-10, max_points=2_000_000):
    """chars.theta_lattice_check with the mu' phase e^{-2 pi i (mu, mu')/m}
    squared: a wrong transform."""
    n = rs.rank
    lat = chars._lattice(rs, lattice)
    zc = np.zeros(n, dtype=complex) if z is None else np.array(z, dtype=complex)
    zz = complex(zc @ lat.gram @ zc)
    tau = complex(tau)
    lhs = chars.theta_lattice(rs, lattice, mu, m, -1 / tau, zc / tau,
                              complex(t) - zz / (2 * tau), tol=tol,
                              max_points=max_points)
    cols = transpose(lattice)
    mL = tuple(tuple(m * rs.inner_finite(a, b) for b in cols) for a in cols)
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    reps = (np.array(lattice_coset_reps(eye, mL), dtype=float)
            @ np.linalg.inv(lat.gram @ lat.basis))
    tpref = cmath.exp(2j * math.pi * m * complex(t))
    sums, _, bound = chars._theta_sums(lat, reps, m, tau, zc, tol / abs(tpref),
                                       max_points)
    phases = np.exp(-4j * math.pi * (reps @ lat.gram @ chars._floats(mu)) / m)
    pref = cmath.exp((n / 2) * cmath.log(-1j * tau)) / math.sqrt(len(reps)) * tpref
    rhs = pref * complex(phases @ sums)
    return {"lhs": lhs.value, "rhs": rhs, "abs_error": abs(lhs.value - rhs),
            "tail_bound": lhs.tail_bound + abs(pref) * len(reps) * bound}


@pytest.mark.parametrize("tau", ["i", "0.02i"])
def test_theta_check_wrong_transform_exits_two(capsys, monkeypatch, tau):
    monkeypatch.setattr(cli_module, "theta_lattice_check",
                        _theta_lattice_check_wrong_phase)
    code, doc, err = run_json(capsys, "theta-check", "--type", "A1", "--tau", tau)
    assert code == 2
    assert doc["pass"] is False
    assert doc["lattice_relative_residual"] > 1e-3
    assert "theta transform relative residual" in err


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


# sha256 of the fusion and factorize output in every format. The fusion
# payload carries max_rounding_error, a float from numpy's matrix products:
# the digests assume numpy's float result of those products on x86-64.
W_GOLDEN = [
    ("fusion", "A1", "3,4", "json", 0,
     "9ddbcb853de3250c004f5203b4108a45f52c14c83092e4378b9f1855b4a7eeea"),
    ("fusion", "A1", "3,4", "csv", 0,
     "1d956875d8c7d575b79e7a33d39403ee4b998df2bd286bf1e008b75f8efce18b"),
    ("fusion", "A1", "3,4", "pretty", 0,
     "55693f70095fba6dd6e195ed60a26bb26771a26d5bd77920c7b3734e5d9c9908"),
    ("fusion", "A1", "4,9", "json", 0,
     "f17f3b4882483176ccb615e255603259abd257d1339832832b07f3010aa19c3b"),
    ("fusion", "A1", "4,9", "csv", 0,
     "c59713bcb37838207e12bd2dac498de962af1dbb0ea7d85db37f62161f8ea210"),
    ("fusion", "A1", "4,9", "pretty", 0,
     "4225cba1c137a36134f6f8437457359b56b6fcc89f25b7d75541cc31d668567d"),
    ("fusion", "A2", "3,4", "json", 0,
     "8052656d94f0e12c4964836443d997cdb128d1da29c0ecdb7755ec40005e1c06"),
    ("fusion", "A2", "3,4", "csv", 0,
     "d2e2d74df3a0520e2c2127be3c346ba1f588d1a607cf342d3b1e534346f05c02"),
    ("fusion", "A2", "3,4", "pretty", 0,
     "e56c9683e4173a92f2be56b1767c9bb4c5505fc6c63c8ff753dd37dfb6404eff"),
    ("fusion", "A2", "3,5", "json", 0,
     "09995e1d14e8e08426179db965fc46396dd83bf6f99d7807bd69703f7a49c129"),
    ("fusion", "A2", "3,5", "csv", 0,
     "062274ec1c4e6e2ac562cd649c31b5edd7f4bb3f6273aefce5e1c03be72049b8"),
    ("fusion", "A2", "3,5", "pretty", 0,
     "8fb20f902b663f9af576a890d59f8ef0775c46e1713bf08251edb6982dbd8193"),
    ("factorize", "A1", "3,4", "json", 2,
     "639b3921f7557cfa43a16d0e3c0ff13a02592acf7130d05231d374fc5ff6c9dc"),
    ("factorize", "A1", "3,4", "csv", 2,
     "2043c886c53bc3cf9c102afcc0955fc09a63fe2f489db48c64b1953483946874"),
    ("factorize", "A1", "3,4", "pretty", 2,
     "926c1a853bb7f1a9ca9943ce943ea1a2c76b4128a13d06e5b50345f0c199c48b"),
    ("factorize", "A1", "4,9", "json", 0,
     "4dc0f03ee2aebe70248fe5ebdd36dc55802c29adfd07d75943ad9743b40e3304"),
    ("factorize", "A1", "4,9", "csv", 0,
     "65bffdb81ea2529134147c2380f4236418682f2ca30b21dfd982dc397a69e7d6"),
    ("factorize", "A1", "4,9", "pretty", 0,
     "135689f8fd2bc1a2f6063d8118e6c779a3aeaaee4f15950db3cfc084cdf6f1cc"),
    ("factorize", "A2", "3,4", "json", 0,
     "791c4eac59f6952b76c738f57c2f414ce3ea8eccc860605ee72ac0fdc78633bc"),
    ("factorize", "A2", "3,4", "csv", 0,
     "bc25f349e482a4faacec789353013dba782d1c985ec4ca058ef493a9da2b9f00"),
    ("factorize", "A2", "3,4", "pretty", 0,
     "48bce7daf76d84dcc9d943d862fbfa2f1be16a1e4062043680e08db3e60468c6"),
    ("factorize", "A2", "3,5", "json", 0,
     "e861421394e3bba0f5fd1078622b0507882b883b799c478aae737604b2676c7c"),
    ("factorize", "A2", "3,5", "csv", 0,
     "382fc456d78bd1acd0053f458920950449790b63de173f9111e1246c6a161077"),
    ("factorize", "A2", "3,5", "pretty", 0,
     "e54b323ac4062c191db93a46c8957b4d52c93cf9c66bd98cf73ba767cf620c12"),
]


@pytest.mark.parametrize("command,name,pq,fmt,code,digest", W_GOLDEN)
def test_w_outputs_are_pinned(capsys, command, name, pq, fmt, code, digest):
    got, out, _ = run(capsys, command, "--type", name, "--pq", pq, "--format", fmt)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _rat_by_rebuild(x):
    """_rat as it was: every input rebuilt as a Fraction."""
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@pytest.mark.parametrize("x", [
    0, 7, -3, True, Fraction(6, 3), Fraction(-3, 4), Fraction(0),
    np.int64(5), np.int64(-12), 0.5, 2.0, 0.1, -1.25,
])
def test_rat_matches_the_fraction_rebuild(x):
    got, want = cli_module._rat(x), _rat_by_rebuild(x)
    assert got == want
    assert type(got) is type(want)


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

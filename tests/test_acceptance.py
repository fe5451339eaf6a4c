"""End-to-end acceptance checks, one printed PASS/FAIL line per check.

Each check enforces a stated numerical tolerance and a wall-clock budget.
Run with ``pytest tests/test_acceptance.py -s`` to see the summary lines,
or directly with ``python tests/test_acceptance.py``.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np

from kacfusion import (
    EvalPoint,
    LevelData,
    all_specs,
    build_root_system,
    build_smatrix,
    central_charge_w,
    char_chi,
    check_fkw_factorization,
    enumerate_admissible,
    enumerate_wlabels,
    label_is_degenerate,
    langlands_dual_datum,
    psi_w,
    theta_jacobi_check,
    theta_lattice_check,
    verify_sl2_relations,
    verlinde,
    w_smatrix,
)

# twisted affine partners of the non simply laced finite types
TWISTED = {
    "B2": "D3^(2)", "B3": "D4^(2)", "B4": "D5^(2)", "B5": "D6^(2)",
    "B6": "D7^(2)", "B7": "D8^(2)", "B8": "D9^(2)",
    "C2": "A3^(2)", "C3": "A5^(2)", "C4": "A7^(2)", "C5": "A9^(2)",
    "C6": "A11^(2)", "C7": "A13^(2)", "C8": "A15^(2)",
    "F4": "E6^(2)", "G2": "D4^(3)",
}


def report(num, desc, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"acceptance {num} [{tag}] {desc}: {detail}", flush=True)
    assert ok, f"acceptance check {num} failed: {detail}"


def test_acceptance_1_root_data_tables():
    t0 = time.perf_counter()
    checked = 0
    for spec in all_specs():
        rs = build_root_system(spec)
        # theta = sum_i a_i alpha_i with the marks a_i, exactly
        combo = [
            sum(rs.marks[i] * rs.simple_roots[i][j] for i in range(rs.rank))
            for j in range(rs.rank)
        ]
        assert tuple(combo) == tuple(rs.theta), str(spec)
        assert rs.h == 1 + sum(rs.marks), str(spec)
        assert rs.hvee == 1 + sum(rs.comarks), str(spec)
        if rs.rvee > 1:
            assert langlands_dual_datum(rs).twisted_type == TWISTED[str(spec)]
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 32 and elapsed < 5.0
    report(1, "root data tables, all types of rank <= 8",
           ok, f"{checked} types, {elapsed:.2f} s < 5 s")


def test_acceptance_2_modular_group_relations():
    cases = [("A1", 3, 1), ("A1", 5, 2), ("A1", 2, 5), ("A1", 3, 4),
             ("A2", 4, 3), ("G2", 7, 3)]
    worst = 0.0
    slowest = 0.0
    for name, p, q in cases:
        t0 = time.perf_counter()
        ld = LevelData.from_pq(build_root_system(name), p, q)
        rel = verify_sl2_relations(ld)
        elapsed = time.perf_counter() - t0
        assert rel["is_permutation"], (name, p, q)
        assert rel["max_error"] < 1e-9, (name, p, q, rel["max_error"])
        assert elapsed < 30.0, (name, p, q, elapsed)
        worst = max(worst, rel["max_error"])
        slowest = max(slowest, elapsed)
    report(2, "S, T satisfy S^4 = 1 and (ST)^3 = S^2 for six levels",
           True, f"max deviation {worst:.2e} < 1e-9, slowest {slowest:.2f} s < 30 s")


def test_acceptance_3_su2_integrable_closed_form():
    worst = 0.0
    rs = build_root_system("A1")
    for p in (3, 4, 5, 6, 8):
        sm = build_smatrix(LevelData.from_pq(rs, p, 1))
        n = len(sm.labels)
        assert n == p - 1
        for a in range(n):
            for b in range(n):
                ref = math.sqrt(2.0 / p) * math.sin(math.pi * (a + 1) * (b + 1) / p)
                worst = max(worst, abs(sm.matrix[a, b] - ref))
    ok = worst < 1e-12
    report(3, "A1 integrable S-matrix equals the sine closed form",
           ok, f"max entry error {worst:.2e} < 1e-12")


def test_acceptance_4_theta_transforms():
    t0 = time.perf_counter()
    r1 = theta_jacobi_check(1j, 0.3 + 0.1j)["abs_error"]
    rs = build_root_system("A1")
    r2 = theta_lattice_check(
        rs, rs.latt_Q, rs.theta, 10, 1j, (0.23 + 0.11j,), tol=1e-12
    )["abs_error"]
    elapsed = time.perf_counter() - t0
    ok = r1 < 1e-8 and r2 < 1e-6 and elapsed < 10.0
    report(4, "Jacobi and lattice theta inversion formulas",
           ok, f"scalar {r1:.2e} < 1e-8, lattice {r2:.2e} < 1e-6, {elapsed:.2f} s < 10 s")


def _char_transform_residual(ld, tau, x, tol):
    """Max over labels of |chi(-1/tau, x/tau) - Gaussian * S-row sum|."""
    labels = enumerate_admissible(ld)
    sm = build_smatrix(ld)
    rs = ld.rs
    k = float(ld.k)
    G = [[float(v) for v in row] for row in rs.gram]
    xx = sum(x[i] * sum(G[i][j] * x[j] for j in range(rs.rank))
             for i in range(rs.rank))
    pref = cmath.exp(1j * cmath.pi * k * xx / tau)
    evals = [char_chi(ld, lab, EvalPoint(tau, x), tol=tol) for lab in labels]
    max_tail = max(se.tail_bound for se in evals)
    worst = 0.0
    for i in range(len(labels)):
        lhs_se = char_chi(
            ld, labels[i], EvalPoint(-1 / tau, tuple(v / tau for v in x)), tol=tol
        )
        max_tail = max(max_tail, lhs_se.tail_bound)
        rhs = pref * sum(
            sm.matrix[i, j] * evals[j].value for j in range(len(labels))
        )
        worst = max(worst, abs(lhs_se.value - rhs))
    return worst, max_tail


def test_acceptance_5_character_modularity():
    t0 = time.perf_counter()
    ld = LevelData.from_pq(build_root_system("A1"), 5, 2)
    res, tail = _char_transform_residual(ld, 1j, (0.13,), tol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = res < 1e-5 and tail <= 1e-10 and elapsed < 10.0
    report(5, "A1 (5,2) character S-transform against the a(.,.) matrix",
           ok, f"residual {res:.2e} < 1e-5, tail {tail:.2e} <= 1e-10, {elapsed:.1f} s < 10 s")

    ldc = LevelData.from_pq(build_root_system("G2"), 7, 3)
    assert ldc.variant == "coprincipal"
    resc, _ = _char_transform_residual(
        ldc, 1j, (0.11 + 0.02j, 0.07 + 0.015j), tol=1e-8
    )
    report(5, "G2 (7,3) coprincipal character S-transform",
           resc < 1e-3, f"residual {resc:.2e} < 1e-3")


def test_acceptance_6_walgebra_and_fusion():
    t0 = time.perf_counter()
    ld25 = LevelData.from_pq(build_root_system("A1"), 2, 5)
    ld34 = LevelData.from_pq(build_root_system("A1"), 3, 4)
    assert central_charge_w(ld25) == Fraction(-22, 5)
    assert central_charge_w(ld34) == Fraction(1, 2)
    assert len(enumerate_wlabels(ld25)) == 2
    assert len(enumerate_wlabels(ld34)) == 3
    ft = verlinde(w_smatrix(ld34))
    assert np.issubdtype(ft.N.dtype, np.integer)
    assert (ft.N >= 0).all()
    assert ft.max_rounding_error < 1e-6
    # labels in order: vacuum, sigma, epsilon
    assert tuple(ft.N[1, 1]) == (1, 0, 1)   # sigma x sigma = 1 + eps
    assert tuple(ft.N[1, 2]) == (0, 1, 0)   # sigma x eps = sigma
    assert tuple(ft.N[2, 2]) == (1, 0, 0)   # eps x eps = 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report(6, "central charges -22/5 and 1/2, label counts, Ising fusion",
           ok, f"rounding {ft.max_rounding_error:.2e} < 1e-6, {elapsed:.2f} s < 5 s")


def test_acceptance_7_factorization():
    t0 = time.perf_counter()
    ld = LevelData.from_pq(build_root_system("A1"), 3, 5)
    rpt = check_fkw_factorization(ld)
    elapsed = time.perf_counter() - t0
    ok = (rpt["hypothesis_ok"] and rpt["equal"]
          and rpt["max_abs_diff"] == 0 and elapsed < 30.0)
    report(7, "A1 (3,5) fusion factorizes through integrable levels",
           ok, f"max integer diff {rpt['max_abs_diff']}, {elapsed:.2f} s < 30 s")


def test_acceptance_8_psi_modularity():
    ld = LevelData.from_pq(build_root_system("A1"), 2, 5)
    labels = enumerate_admissible(ld)
    sm = build_smatrix(ld)
    tau = 1j
    vals = []
    worst_deg = 0.0
    for lab in labels:
        v, _ = psi_w(ld, lab, tau)
        vals.append(v)
        if label_is_degenerate(ld, lab):
            worst_deg = max(worst_deg, abs(v))
    worst = 0.0
    npos = ld.rs.num_positive_roots
    for i, lab in enumerate(labels):
        if label_is_degenerate(ld, lab):
            continue
        lhs, _ = psi_w(ld, lab, -1 / tau)
        rhs = (-1j) ** npos * sum(
            sm.matrix[i, j] * vals[j] for j in range(len(labels))
        )
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-10 and worst_deg < 1e-12
    report(8, "closed-form psi transforms by the reduced S-matrix",
           ok, f"row residual {worst:.2e} < 1e-10, degenerate |psi| {worst_deg:.2e} < 1e-12")


if __name__ == "__main__":
    failures = 0
    for fn in [
        test_acceptance_1_root_data_tables,
        test_acceptance_2_modular_group_relations,
        test_acceptance_3_su2_integrable_closed_form,
        test_acceptance_4_theta_transforms,
        test_acceptance_5_character_modularity,
        test_acceptance_6_walgebra_and_fusion,
        test_acceptance_7_factorization,
        test_acceptance_8_psi_modularity,
    ]:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(exc)
    raise SystemExit(1 if failures else 0)

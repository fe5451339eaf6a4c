"""Modular S and T matrices over admissible weights."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kacfusion import (
    LevelData,
    all_specs,
    build_smatrix,
    build_root_system,
    conformal_weight,
    enumerate_admissible,
    smatrix_entry,
    tmatrix,
    tmatrix_exponents,
    verify_sl2_relations,
)
from kacfusion import smatrix as smatrix_module
from kacfusion.errors import CapacityError
from kacfusion.smatrix import norm_index

rng = np.random.default_rng(814)


def level_data(name, p, q):
    return LevelData.from_pq(build_root_system(name), p, q)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_su2_sine_closed_form(k):
    # integrable level k: S_ab = sqrt(2/(k+2)) sin(pi (a+1)(b+1)/(k+2))
    ld = level_data("A1", k + 2, 1)
    labels = enumerate_admissible(ld)
    sm = build_smatrix(ld)
    n = k + 2
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            aa, bb = int(a.lam.finite[0]), int(b.lam.finite[0])
            ref = math.sqrt(2 / n) * math.sin(math.pi * (aa + 1) * (bb + 1) / n)
            assert abs(sm.matrix[i, j] - ref) < 1e-12


@pytest.mark.parametrize("name,p,q", [
    ("A1", 5, 2), ("A1", 2, 5), ("A1", 3, 4), ("A1", 3, 5),
    ("A2", 4, 3), ("B2", 5, 2), ("G2", 7, 3), ("C3", 7, 2),
    # rank six at p = hvee: Weyl sums of 51840 and 23040 terms
    ("E6", 12, 1), ("D6", 10, 1),
])
def test_sl2_relations(name, p, q):
    report = verify_sl2_relations(level_data(name, p, q))
    assert report["is_permutation"]
    assert report["conjugation"]
    assert report["max_error"] < 1e-12


@pytest.mark.parametrize("name,p,q", [("A1", 5, 2), ("A2", 4, 3), ("B2", 5, 2)])
def test_symmetry_and_conjugation(name, p, q):
    ld = level_data(name, p, q)
    sm = build_smatrix(ld)
    S = sm.matrix
    assert np.abs(S - S.T).max() < 1e-14
    C = S @ S
    # charge conjugation: entries 0 or unit modulus, squares to identity
    assert np.abs(C @ C - np.eye(len(S))).max() < 1e-12
    mags = np.abs(C)
    assert ((mags < 1e-12) | (np.abs(mags - 1) < 1e-12)).all()
    assert (np.abs(mags.sum(axis=0) - 1) < 1e-10).all()


def test_norm_index_values():
    assert norm_index(level_data("A1", 5, 2)) == 20
    assert norm_index(level_data("A2", 4, 3)) == 432


def _det(a):
    """Determinant by Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in a]
    n, det = len(m), Fraction(1)
    for i in range(n):
        piv = next(r for r in range(i, n) if m[r][i] != 0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    return det


def _lattice_index(amb, sub):
    return abs(_det(sub) / _det(amb))


@pytest.mark.parametrize("name", [str(s) for s in all_specs()])
def test_norm_index_matches_lattice_index(name):
    # the closed form against the index of pq L in the weight side lattice,
    # for principal levels and, off the simply laced types, coprincipal ones
    rs = build_root_system(name)
    levels = [(p, q) for p in range(rs.h, rs.h + 4) for q in (1, 2, 3, 5)
              if math.gcd(p, q) == 1 and p >= rs.hvee]
    checked = set()
    for p, q in levels:
        ld = LevelData.from_pq(rs, p, q)
        if ld.variant == "principal":
            amb, sub = rs.latt_P, rs.latt_Qvee
        else:
            amb, sub = rs.latt_Qstar, rs.latt_Q
        ref = _lattice_index(amb, tuple(tuple(p * q * x for x in row) for row in sub))
        assert norm_index(ld) == ref
        checked.add(ld.variant)
    assert checked == ({"principal", "coprincipal"} if rs.rvee > 1 else {"principal"})


def _entry_reference(ld, labels):
    return np.array([[smatrix_entry(ld, a, b) for b in labels] for a in labels])


@pytest.mark.parametrize("name,p,q", [
    ("A1", 7, 3), ("A2", 4, 3), ("B2", 5, 2), ("C2", 5, 2), ("G2", 7, 3),
    ("B3", 7, 2), ("A4", 6, 1),
])
def test_build_matches_entry_reference(name, p, q):
    ld = level_data(name, p, q)
    if name == "G2":
        assert ld.variant == "coprincipal"
    sm = build_smatrix(ld)
    assert np.abs(sm.matrix - _entry_reference(ld, sm.labels)).max() < 1e-13


def test_build_in_single_row_blocks(monkeypatch):
    # one row per block: every block offset and the mirrored triangle are used
    monkeypatch.setattr(smatrix_module, "_BLOCK_TERMS", 1)
    ld = level_data("A2", 4, 3)
    sm = build_smatrix(ld)
    assert np.abs(sm.matrix - _entry_reference(ld, sm.labels)).max() < 1e-13
    assert (sm.matrix == sm.matrix.T).all()


def test_build_on_label_subset():
    ld = level_data("B2", 5, 4)
    full = build_smatrix(ld)
    picked = list(range(0, len(full.labels), 3))
    sub = build_smatrix(ld, tuple(full.labels[i] for i in picked))
    assert np.abs(sub.matrix - full.matrix[np.ix_(picked, picked)]).max() < 1e-15


def test_build_refuses_large_phase_denominator(monkeypatch):
    monkeypatch.setattr(smatrix_module, "_MAX_DENOMINATOR", 16)
    with pytest.raises(CapacityError):
        build_smatrix(level_data("A2", 4, 3))  # D = lcm(12, 4, 3, 9) = 36


def test_tmatrix_is_diagonal_unitary():
    ld = level_data("A1", 3, 4)
    T = tmatrix(ld)
    assert np.abs(T - np.diag(np.diag(T))).max() == 0
    assert np.abs(np.abs(np.diag(T)) - 1).max() < 1e-14
    exps = tmatrix_exponents(ld)
    for e, t in zip(exps, np.diag(T)):
        assert abs(t - np.exp(2j * np.pi * float(e))) < 1e-14


def test_tmatrix_exponent_is_weight_minus_central():
    for name, p, q in [("A1", 5, 2), ("A2", 4, 3), ("B2", 5, 2)]:
        ld = level_data(name, p, q)
        labels = enumerate_admissible(ld)
        exps = tmatrix_exponents(ld)
        c = ld.central_charge
        for lab, e in zip(labels, exps):
            assert e == conformal_weight(ld, lab.lam) - Fraction(c, 24)


def test_vacuum_conformal_weight_is_zero():
    for name, p, q in [("A1", 5, 2), ("A1", 3, 4), ("A2", 4, 3), ("G2", 7, 3)]:
        ld = level_data(name, p, q)
        labels = enumerate_admissible(ld)
        vac = [lab for lab in labels if all(v == 0 for v in lab.lam.finite)]
        assert len(vac) == 1
        assert conformal_weight(ld, vac[0].lam) == 0


def test_rank_one_conformal_weights():
    # (Lambda_1, Lambda_1) = 1/2, so h = lam (lam + 2) / 4m in coordinates
    ld = level_data("A1", 2, 5)
    labels = enumerate_admissible(ld)
    got = {lab.lam.finite[0]: conformal_weight(ld, lab.lam) for lab in labels}
    assert got[Fraction(-8, 5)] == Fraction(-2, 5)
    assert got[Fraction(-6, 5)] == Fraction(-3, 5)
    for lam, h in got.items():
        assert h == lam * (lam + 2) / (4 * ld.m)


def test_random_coprime_levels_stay_unitary():
    picked = set()
    while len(picked) < 3:
        p = int(rng.integers(2, 7))
        q = int(rng.integers(1, 7))
        if math.gcd(p, q) == 1:
            picked.add((p, q))
    for p, q in sorted(picked):
        report = verify_sl2_relations(level_data("A1", p, q))
        assert report["unitarity_error"] < 1e-10

"""W-algebra labels, S-matrix, Verlinde fusion, and tensor factorization."""

import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from kacfusion import (
    FusionError,
    LevelData,
    LevelError,
    build_root_system,
    build_smatrix,
    central_charge_w,
    check_fkw_factorization,
    enumerate_admissible,
    enumerate_wlabels,
    label_from_mu,
    label_is_degenerate,
    vacuum_index,
    verlinde,
    w_smatrix,
    weyl_order,
)
from kacfusion.ratlin import vec, vec_add, vec_scale, vec_sub
from kacfusion.rootsys import AffineWeight, dual_root_system
from kacfusion.walg import (
    WLabel,
    _affine_class,
    _diagonal_generators,
    _diagonal_orbit,
)
from kacfusion.weyl import enumerate_weyl, extended_generators


def level_data(name, p, q):
    return LevelData.from_pq(build_root_system(name), p, q)


# ----------------------------------------------------------------- structure

@pytest.mark.parametrize("p,q,c", [
    (2, 5, Fraction(-22, 5)),
    (3, 4, Fraction(1, 2)),
    (2, 3, Fraction(0)),
    (4, 5, Fraction(7, 10)),
    (5, 6, Fraction(4, 5)),
])
def test_rank_one_central_charges(p, q, c):
    assert central_charge_w(level_data("A1", p, q)) == c


@pytest.mark.parametrize("name,p,q", [
    ("A1", 2, 5), ("A1", 3, 4), ("A2", 4, 3), ("A2", 5, 4), ("G2", 7, 2),
])
def test_central_charge_strange_formula_consistency(name, p, q):
    # c_w differs from the affine central charge by the exact combination
    # fixed by |rho|^2 = hvee dim / 12
    ld = level_data(name, p, q)
    rs = ld.rs
    m = ld.m
    expected = (
        ld.central_charge
        - 2 * rs.num_positive_roots
        - 12 * m * rs.inner_finite(rs.rhovee, rs.rhovee)
        + 24 * rs.inner_finite(rs.rho, rs.rhovee)
    )
    assert central_charge_w(ld) == expected


@pytest.mark.parametrize("name,p,q,count", [
    ("A1", 2, 3, 1), ("A1", 2, 5, 2), ("A1", 3, 4, 3), ("A1", 3, 5, 4),
    ("A2", 4, 3, 1), ("A2", 5, 4, 6),
])
def test_label_counts(name, p, q, count):
    ld = level_data(name, p, q)
    labels = enumerate_wlabels(ld)
    assert len(labels) == count
    # each label stands for a full Weyl orbit of nondegenerate weights
    ndeg = sum(1 for lab in enumerate_admissible(ld)
               if not label_is_degenerate(ld, lab))
    assert count * weyl_order(ld.rs) == ndeg


def _fraction_orbit(ld, pair):
    """The diagonal sigma_j orbit of a pair, in Fraction arithmetic."""
    rs = ld.rs
    rsd = dual_root_system(rs)
    n1, n2 = ld.p - rs.hvee, ld.q - rs.h
    lam, lamp = pair
    return [
        (tuple(x + n1 * b for x, b in zip(g.wbar.act(lam), g.beta)),
         tuple(x + n2 * c for x, c in zip(gd.wbar.act(lamp), gd.beta)))
        for g, gd in zip(extended_generators(rs, "principal"),
                         extended_generators(rsd, "principal"))
    ]


def _wlabels_by_fraction_orbits(ld):
    """Orbit-reduced W-labels from Fraction weights and Fraction orbits."""
    rs = ld.rs
    n1, n2 = ld.p - rs.hvee, ld.q - rs.h
    if n1 < 0 or n2 < 0:
        return []

    def dominant(coeffs, level):
        out = [()]
        for c in coeffs:
            out = [w + (n,) for w in out
                   for n in range((level - sum(a * x for a, x in zip(coeffs, w))) // c + 1)]
        return [vec(w) for w in out]

    seen, out = set(), []
    for lam in dominant(rs.comarks, n1):
        for lamp in dominant(dual_root_system(rs).comarks, n2):
            if (lam, lamp) in seen:
                continue
            orbit = _fraction_orbit(ld, (lam, lamp))
            seen.update(orbit)
            rep = min(orbit)
            out.append(WLabel(AffineWeight(rep[0], Fraction(n1), Fraction(0)),
                              AffineWeight(rep[1], Fraction(n2), Fraction(0))))
    return sorted(out, key=WLabel.key)


@pytest.mark.parametrize("name,p,q", [
    ("A1", 2, 3), ("A1", 2, 5), ("A1", 3, 4), ("A1", 3, 5), ("A1", 4, 5),
    ("A1", 5, 6), ("A1", 3, 1), ("A1", 5, 2), ("A2", 4, 3), ("A2", 5, 4),
    ("A2", 3, 4), ("A2", 4, 1), ("A3", 5, 4), ("G2", 7, 2), ("B2", 5, 3),
] + [("A1", p, 9) for p in range(2, 9) if math.gcd(p, 9) == 1])
def test_integer_orbits_match_fraction_orbits(name, p, q):
    # the integer orbit route gives the labels of the Fraction route, with
    # Fraction coordinates, and the orbit of a label's Fraction key stays
    # in Fractions
    ld = level_data(name, p, q)
    labels = enumerate_wlabels(ld)
    assert repr(labels) == repr(_wlabels_by_fraction_orbits(ld))
    assert all(type(x) is Fraction
               for wl in labels for x in wl.lam.finite + wl.lamprime.finite)
    rs = ld.rs
    gens = _diagonal_generators(rs, dual_root_system(rs))
    for wl in labels:
        orbit = _diagonal_orbit(gens, wl.key(), ld.p - rs.hvee, ld.q - rs.h)
        assert repr(orbit) == repr(_fraction_orbit(ld, wl.key()))


def test_no_labels_below_threshold():
    # q below the Coxeter number leaves no room for the dual weight
    assert enumerate_wlabels(level_data("A1", 3, 1)) == []
    assert enumerate_wlabels(level_data("A2", 4, 1)) == []
    # p below the dual Coxeter number is not admissible at all
    with pytest.raises(LevelError):
        level_data("A2", 2, 5)


def test_wlabels_reject_coprincipal():
    with pytest.raises(LevelError):
        enumerate_wlabels(level_data("B2", 5, 2))


def test_vacuum_index():
    labels = enumerate_wlabels(level_data("A1", 3, 4))
    assert vacuum_index(labels) == 0
    with pytest.raises(FusionError):
        vacuum_index(labels[1:])


# ------------------------------------------------------------------- S-matrix

def minimal_model_s(p, q, rs_pair, rs_pair2):
    r, s = rs_pair
    rr, ss = rs_pair2
    return (2 * math.sqrt(2 / (p * q)) * (-1) ** (1 + s * rr + r * ss)
            * math.sin(math.pi * q * r * rr / p)
            * math.sin(math.pi * p * s * ss / q))


@pytest.mark.parametrize("p,q", [(3, 4), (2, 5), (3, 5), (4, 5)])
def test_rank_one_matches_minimal_model_closed_form(p, q):
    # the A1 W-algebra is the (p, q) minimal model; its S-matrix has the
    # classical double-sine closed form on labels (r, s) = (lam+1, lam'+1)
    ld = level_data("A1", p, q)
    sm = w_smatrix(ld)
    for i, a in enumerate(sm.labels):
        for j, b in enumerate(sm.labels):
            ref = minimal_model_s(
                p, q,
                (int(a.lam.finite[0]) + 1, int(a.lamprime.finite[0]) + 1),
                (int(b.lam.finite[0]) + 1, int(b.lamprime.finite[0]) + 1),
            )
            assert abs(sm.matrix[i, j] - ref) < 1e-12


def test_ising_smatrix():
    sm = w_smatrix(level_data("A1", 3, 4))
    r = 1 / math.sqrt(2)
    ref = np.array([[0.5, r, 0.5], [r, 0.0, -r], [0.5, -r, 0.5]])
    assert np.abs(sm.matrix - ref).max() < 1e-12


def test_lee_yang_smatrix():
    sm = w_smatrix(level_data("A1", 2, 5))
    s1 = math.sqrt((5 - math.sqrt(5)) / 10)   # 2/sqrt(5) sin(pi/5)
    s2 = math.sqrt((5 + math.sqrt(5)) / 10)   # 2/sqrt(5) sin(2pi/5)
    ref = np.array([[-s2, s1], [s1, s2]])
    assert np.abs(sm.matrix - ref).max() < 1e-12


@pytest.mark.parametrize("name,p,q", [("A1", 3, 5), ("A2", 4, 3), ("A2", 5, 4)])
def test_w_smatrix_unitary_symmetric(name, p, q):
    sm = w_smatrix(level_data(name, p, q))
    S = sm.matrix
    n = len(S)
    assert np.abs(S - S.T).max() < 1e-12
    assert np.abs(S @ S.conj().T - np.eye(n)).max() < 1e-12
    assert np.abs((S @ S) @ (S @ S) - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize("name,p,q", [("A1", 3, 4), ("A2", 3, 4), ("A3", 5, 4)])
def test_affine_classes_are_label_from_mu_images(name, p, q):
    # the class lookup returns exactly the positions of the labels
    # label_from_mu derives from the Weyl images of
    # lam + rho - (p/q)(lamprime + rho_dual)
    ld = level_data(name, p, q)
    rs, rsd = ld.rs, dual_root_system(ld.rs)
    admissible = build_smatrix(ld).labels
    position = {tuple(int(q * x) for x in vec_add(lab.lam.finite, rs.rho)): i
                for i, lab in enumerate(admissible)}
    W = enumerate_weyl(rs)
    labels = enumerate_wlabels(ld)
    assert labels
    for wl in labels:
        base = vec_sub(vec_add(wl.lam.finite, rs.rho),
                       vec_scale(ld.m, vec_add(wl.lamprime.finite, rsd.rho)))
        images = {label_from_mu(ld, w.act(base)) for w in W}
        expected = sorted(images, key=lambda lab: lab.lam.finite)
        got = [admissible[i] for i in _affine_class(ld, W, wl, position)]
        assert got == expected
    missing = dict(position)
    del missing[tuple(int(q * x) for x in vec_add(expected[0].lam.finite, rs.rho))]
    weight = ", ".join(str(x) for x in expected[0].lam.finite)
    with pytest.raises(AssertionError, match=re.escape(f"({weight})")):
        _affine_class(ld, W, labels[-1], missing)


# --------------------------------------------------------------------- fusion

def fusion_dict(ft):
    n = ft.N.shape[0]
    return {(a, b): tuple(ft.N[a, b]) for a in range(n) for b in range(n)}


def test_ising_fusion():
    # labels in order: vacuum, sigma, epsilon
    ft = verlinde(w_smatrix(level_data("A1", 3, 4)))
    d = fusion_dict(ft)
    assert d[(0, 0)] == (1, 0, 0)
    assert d[(1, 1)] == (1, 0, 1)   # sigma x sigma = 1 + eps
    assert d[(1, 2)] == (0, 1, 0)   # sigma x eps = sigma
    assert d[(2, 2)] == (1, 0, 0)   # eps x eps = 1
    assert ft.max_rounding_error < 1e-12


def test_lee_yang_fusion():
    ft = verlinde(w_smatrix(level_data("A1", 2, 5)))
    d = fusion_dict(ft)
    vac = vacuum_index(ft.labels)
    tau = 1 - vac
    assert d[(tau, tau)][vac] == 1 and d[(tau, tau)][tau] == 1
    assert d[(vac, tau)] == tuple(int(i == tau) for i in range(2))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_su2_integrable_fusion_closed_form(k):
    # Verlinde on the affine S-matrix at q = 1 gives the truncated
    # Clebsch-Gordan rule: c from |a-b| to min(a+b, 2k-a-b), a+b+c even
    ld = level_data("A1", k + 2, 1)
    sm = build_smatrix(ld)
    labels = sm.labels
    vac = next(i for i, lab in enumerate(labels) if not any(lab.lam.finite))
    ft = verlinde(sm, vacuum=vac)
    for a in range(k + 1):
        for b in range(k + 1):
            for c in range(k + 1):
                allowed = (abs(a - b) <= c <= min(a + b, 2 * k - a - b)
                           and (a + b + c) % 2 == 0)
                assert ft.N[a, b, c] == (1 if allowed else 0)


def test_fusion_symmetries():
    ft = verlinde(w_smatrix(level_data("A1", 3, 5)))
    N = ft.N
    n = N.shape[0]
    vac = vacuum_index(ft.labels)
    assert (N >= 0).all()
    # commutativity and unit
    assert (N == N.transpose(1, 0, 2)).all()
    assert (N[vac] == np.eye(n, dtype=np.int64)).all()
    # associativity: sum_e N_abe N_ecd == sum_e N_bce N_aed
    lhs = np.einsum("abe,ecd->abcd", N, N)
    rhs = np.einsum("bce,aed->abcd", N, N)
    assert (lhs == rhs).all()


def test_verlinde_rejects_zero_vacuum_row():
    sm = w_smatrix(level_data("A1", 3, 4))
    bad = replace(sm, matrix=np.eye(3, dtype=np.complex128))
    with pytest.raises(FusionError):
        verlinde(bad, vacuum=1)  # identity S has zero off-diagonal vacuum row


def test_verlinde_rejects_non_integer_fusion():
    sm = w_smatrix(level_data("A1", 3, 4))
    noisy = sm.matrix.copy()
    noisy[1, 1] += 0.05
    with pytest.raises(FusionError):
        verlinde(replace(sm, matrix=noisy))


# -------------------------------------------------------------- factorization

def test_factorization_holds_rank_one():
    report = check_fkw_factorization(level_data("A1", 3, 5))
    assert report["hypothesis_ok"]
    assert report["equal"]
    assert report["max_abs_diff"] == 0
    report = check_fkw_factorization(level_data("A1", 2, 5))
    assert report["hypothesis_ok"] and report["equal"]


def test_factorization_holds_rank_two():
    report = check_fkw_factorization(level_data("A2", 5, 4))
    assert report["hypothesis_ok"]
    assert report["equal"]


def test_factorization_hypothesis_violations():
    report = check_fkw_factorization(level_data("A1", 5, 2))
    assert not report["hypothesis_ok"]
    assert "gcd" in report["reason"]
    report = check_fkw_factorization(level_data("A1", 3, 4))
    assert not report["hypothesis_ok"]
    report = check_fkw_factorization(level_data("B2", 5, 3))
    assert not report["hypothesis_ok"]
    assert "simply laced" in report["reason"]

"""Theta series, denominators, characters and their modular transforms."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from kacfusion import (
    EvalPoint,
    InvalidTypeError,
    LevelData,
    PolarPointError,
    build_root_system,
    build_smatrix,
    char_at_zero,
    char_chi,
    char_numerator,
    dedekind_eta,
    enumerate_admissible,
    enumerate_weyl,
    label_is_degenerate,
    psi_w,
    theta_g,
    theta_jacobi,
    theta_jacobi_check,
    theta_lattice,
    theta_lattice_check,
)
import kacfusion
from kacfusion import chars
from kacfusion.chars import _char_denominator, _theta_sums, theta_jacobi_sum
from kacfusion.ratlin import lattice_coset_reps

rng = np.random.default_rng(31415)


def level_data(name, p, q):
    return LevelData.from_pq(build_root_system(name), p, q)


def random_point(rank, scale=0.3):
    re = rng.uniform(0.05, scale, size=rank)
    im = rng.uniform(0.01, scale / 4, size=rank)
    return tuple(complex(a, b) for a, b in zip(re, im))


# ---------------------------------------------------------------- scalar theta

def test_theta_jacobi_product_matches_sum():
    for tau in [1.1j, 0.3 + 0.9j, -0.4 + 1.7j]:
        for z in [0.2, 0.31 + 0.12j, -0.6 + 0.05j]:
            a = theta_jacobi(tau, z)
            b = theta_jacobi_sum(tau, z)
            assert abs(a - b) < 1e-12 * max(1, abs(a))


def test_theta_jacobi_is_odd_and_vanishes_on_lattice():
    tau = 0.2 + 1.3j
    for z in [0.17, 0.4 + 0.2j]:
        assert abs(theta_jacobi(tau, -z) + theta_jacobi(tau, z)) < 1e-13
    # nearby lattice points; far ones drown the zero in dynamic range
    for m, n in [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)]:
        assert abs(theta_jacobi(tau, m + n * tau)) < 1e-9


def test_theta_jacobi_quasi_periodicity():
    tau = 0.3 + 1.1j
    z = 0.21 + 0.07j
    t0 = theta_jacobi(tau, z)
    assert abs(theta_jacobi(tau, z + 1) + t0) < 1e-12
    shifted = theta_jacobi(tau, z + tau)
    factor = -cmath.exp(-1j * cmath.pi * tau) * cmath.exp(-2j * cmath.pi * z)
    assert abs(shifted - factor * t0) < 1e-10 * abs(shifted)


@pytest.mark.parametrize("tau,z", [
    (1j, 0.3 + 0.1j), (0.5 + 0.8j, 0.2), (2j, -0.4 + 0.25j),
])
def test_theta_jacobi_transform(tau, z):
    assert theta_jacobi_check(tau, z)["abs_error"] < 1e-10


def test_dedekind_eta_values():
    assert abs(dedekind_eta(1j) - math.gamma(0.25) / (2 * math.pi ** 0.75)) < 1e-14
    # eta(-1/tau) = sqrt(-i tau) eta(tau)
    for tau in [0.6j, 0.3 + 1.2j]:
        lhs = dedekind_eta(-1 / tau)
        rhs = cmath.sqrt(-1j * tau) * dedekind_eta(tau)
        assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------- lattice theta

def test_lattice_theta_rank_one_reduces_to_classical():
    # Theta_{mu,m} over the A1 coroot lattice is sum_n q^{(mu+2mn)^2/4m} w^..
    rs = build_root_system("A1")
    m, mu = 3, (Fraction(1),)
    tau, z = 0.2 + 0.9j, (0.11 + 0.04j,)
    got = theta_lattice(rs, rs.latt_Qvee, mu, m, tau, z).value
    q = cmath.exp(2j * cmath.pi * tau)
    ref = 0j
    for n in range(-30, 31):
        lam = 1 + 2 * m * n  # mu + m gamma in weight coordinates
        ref += q ** (lam * lam / (4 * m)) * cmath.exp(2j * cmath.pi * lam * z[0] / 2)
    assert abs(got - ref) < 1e-12 * abs(ref)


def test_lattice_theta_oddness_symmetry():
    rs = build_root_system("A2")
    tau = 1.2j
    z = random_point(2)
    mu = (Fraction(1), Fraction(2))
    a = theta_lattice(rs, rs.latt_Qvee, mu, 5, tau, z).value
    b = theta_lattice(rs, rs.latt_Qvee, tuple(-x for x in mu), 5, tau,
                      tuple(-v for v in z)).value
    assert abs(a - b) < 1e-12 * max(1, abs(a))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "D4"])
@pytest.mark.parametrize("lattice", ["Q", "Qvee"])
@pytest.mark.parametrize("im_z", [0.01, 0.4])
def test_theta_tail_bound_dominates_the_omitted_terms(name, lattice, im_z):
    # |S(tol) - S(1e-30)| <= bound(tol): the reference sum is exact to 1e-30,
    # and rounding adds about 1e-16 of the largest terms
    rs = build_root_system(name)
    L = rs.latt_Q if lattice == "Q" else rs.latt_Qvee
    z = tuple(complex(0.1 + 0.07 * i, im_z) for i in range(rs.rank))
    for tau in (0.1 + 0.3j, 1j, 2j):
        loose = theta_lattice(rs, L, rs.rho, 3, tau, z, tol=1e-7)
        tight = theta_lattice(rs, L, rs.rho, 3, tau, z, tol=1e-30)
        assert 0 < loose.tail_bound <= 1e-7
        assert 0 < tight.tail_bound <= 1e-30
        assert loose.truncation_order < tight.truncation_order
        assert abs(loose.value - tight.value) <= (
            loose.tail_bound + tight.tail_bound + 1e-13 * max(1, abs(tight.value)))


@pytest.mark.parametrize("name,p", [("A1", 3), ("A2", 4), ("B2", 4), ("G2", 5),
                                    ("A3", 5), ("B3", 6), ("D4", 6)])
def test_char_at_zero_bound_dominates_the_omitted_terms(name, p):
    ld = level_data(name, p, 1)
    for tau in (0.1 + 0.3j, 1j):
        for lab in enumerate_admissible(ld)[:3]:
            loose, e_loose = char_at_zero(ld, lab, tau, tol=1e-6)
            tight, e_tight = char_at_zero(ld, lab, tau, tol=1e-30)
            assert 0 < e_loose <= 1e-6 and 0 < e_tight <= 1e-30
            assert abs(loose - tight) <= e_loose + e_tight + 1e-12 * max(1, abs(tight))


def test_lattice_theta_tail_bound_is_honest():
    rs = build_root_system("B2")
    tau, z = 0.9j, random_point(2)
    mu = (Fraction(1), Fraction(0))
    loose = theta_lattice(rs, rs.latt_Q, mu, 4, tau, z, tol=1e-6)
    tight = theta_lattice(rs, rs.latt_Q, mu, 4, tau, z, tol=1e-14)
    assert abs(loose.value - tight.value) <= max(loose.tail_bound, 1e-13)
    assert tight.truncation_order >= loose.truncation_order


@pytest.mark.parametrize("name,lattice,m", [
    ("A1", "Qvee", 10), ("A2", "Qvee", 4), ("B2", "Q", 3),
])
def test_lattice_theta_transform(name, lattice, m):
    rs = build_root_system(name)
    L = rs.latt_Qvee if lattice == "Qvee" else rs.latt_Q
    # the label must pair integrally with the lattice: rho does for Qvee,
    # the highest root does for Q
    mu = rs.rho if lattice == "Qvee" else rs.theta
    z = random_point(rs.rank, scale=0.2)
    out = theta_lattice_check(rs, L, mu, m, 1j, z, tol=1e-12)
    assert out["abs_error"] < 1e-8


# ---------------------------------------------------------- denominator and numerator

def weyl_sum_denominator(rs, pt, tol):
    """The Weyl denominator as the alternating theta sum over W(rho)."""
    W = enumerate_weyl(rs)
    x = pt.x_or_zero(rs.rank)
    return sum(
        w.sign * theta_lattice(rs, rs.latt_Qvee, w.act(rs.rho), rs.hvee, pt.tau,
                               x, pt.t, tol=tol / len(W)).value
        for w in W
    )


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3"])
def test_denominator_product_identity(name):
    # Macdonald identity: the alternating theta sum over W(rho) at level hvee
    # equals (-1)^{#positive roots} eta^rank times the theta product
    rs = build_root_system(name)
    for tau, t in [(1.3j, 0j), (0.2 + 0.9j, 0.07 + 0.02j)]:
        x = random_point(rs.rank, scale=0.25)
        pt = EvalPoint(tau, x, t)
        lhs = weyl_sum_denominator(rs, pt, 1e-12)
        rhs = ((-1) ** rs.num_positive_roots * cmath.exp(2j * cmath.pi * rs.hvee * t)
               * dedekind_eta(tau) ** rs.rank * theta_g(rs, tau, x))
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)
        assert abs(_char_denominator(rs, pt) - rhs) < 1e-13 * abs(rhs)


@pytest.mark.parametrize("name,p,q", [("A1", 5, 2), ("A2", 4, 3)])
def test_numerator_weyl_equivariance(name, p, q):
    # moving x by w permutes the labels: N_lam(tau, w(x)) equals the
    # numerator at x of the label reducing w^{-1}(lam + rho), with the
    # chamber sign carried by that label's ybar
    from kacfusion import label_from_mu
    from kacfusion.ratlin import vec_add

    ld = level_data(name, p, q)
    rs = ld.rs
    x = random_point(rs.rank)
    for label in enumerate_admissible(ld)[:4]:
        for w in enumerate_weyl(rs):
            wx = tuple(
                sum(w.matrix[i][j] * x[j] for j in range(rs.rank))
                for i in range(rs.rank)
            )
            moved = char_numerator(ld, label, EvalPoint(1.1j, wx),
                                   tol=1e-12).value
            partner = label_from_mu(
                ld, w.inverse().act(vec_add(label.lam.finite, rs.rho))
            )
            base = char_numerator(ld, partner, EvalPoint(1.1j, x),
                                  tol=1e-12).value
            assert abs(moved - base) < 1e-9 * max(1, abs(base))


# ------------------------------------------------------------------- characters

def su2_level1_reference(tau, which):
    # Theta_{0,1}/eta and Theta_{1,1}/eta by direct summation
    q = cmath.exp(2j * cmath.pi * tau)
    if which == 0:
        s = sum(q ** (n * n) for n in range(-60, 61))
    else:
        s = sum(q ** ((n + 0.5) ** 2) for n in range(-60, 61))
    return s / dedekind_eta(tau)


def test_level_one_characters_at_zero():
    ld = level_data("A1", 3, 1)
    labels = enumerate_admissible(ld)
    for lab, which in zip(labels, [0, 1]):
        v, err = char_at_zero(ld, lab, 2j)
        assert abs(v - su2_level1_reference(2j, which)) < 1e-12
        assert err < 1e-12


@pytest.mark.parametrize("name,p,q", [("A2", 4, 1), ("B2", 4, 1), ("G2", 5, 1)])
def test_characters_at_zero_s_transform(name, p, q):
    # at x = 0 the Gaussian factor is 1: chi(-1/tau, 0) = sum_j S_ij chi_j(tau, 0)
    ld = level_data(name, p, q)
    labels = enumerate_admissible(ld)
    sm = build_smatrix(ld)
    tau = 0.2 + 1.1j
    vals = [char_at_zero(ld, lab, tau)[0] for lab in labels]
    for i, lab in enumerate(labels):
        lhs = char_at_zero(ld, lab, -1 / tau)[0]
        rhs = sum(sm.matrix[i, j] * vals[j] for j in range(len(labels)))
        assert abs(lhs - rhs) < 1e-10 * max(1, abs(lhs))


def char_stransform_residual(ld, tau, x, tol=1e-10):
    """Max residual of the S covariance over all labels at one point."""
    labels = enumerate_admissible(ld)
    sm = build_smatrix(ld)
    k = float(ld.k)
    rs = ld.rs
    G = [[float(v) for v in row] for row in rs.gram]
    xx = sum(x[i] * sum(G[i][j] * x[j] for j in range(rs.rank))
             for i in range(rs.rank))
    pref = cmath.exp(1j * cmath.pi * k * xx / tau)
    vals = [char_chi(ld, lab, EvalPoint(tau, x), tol=tol).value
            for lab in labels]
    worst = 0.0
    for i, lab in enumerate(labels):
        lhs = char_chi(
            ld, lab, EvalPoint(-1 / tau, tuple(v / tau for v in x)), tol=tol
        ).value
        rhs = pref * sum(sm.matrix[i, j] * vals[j] for j in range(len(labels)))
        worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.mark.parametrize("name,p,q", [("A1", 3, 1), ("A1", 5, 2), ("A1", 2, 5)])
def test_character_s_transform(name, p, q):
    ld = level_data(name, p, q)
    assert char_stransform_residual(ld, 1j, (0.13,)) < 1e-9


def test_character_rejects_wall_points():
    ld = level_data("A1", 5, 2)
    lab = enumerate_admissible(ld)[0]
    with pytest.raises(PolarPointError):
        char_chi(ld, lab, EvalPoint(1j, (0j,)))
    with pytest.raises(PolarPointError):
        char_chi(ld, lab, EvalPoint(1j, (1.0 + 0j,)))


def test_wall_gate_reads_the_distance_to_the_wall():
    # For A1, (alpha, x) = x; near 0, |Theta(tau, x)| / (2 pi |eta|^2) = |x|
    # since Theta'(tau, 0) = -2 pi i eta^2. At tau = 0.15i, |eta| = 0.45, so
    # points 1% either side of the 1e-9 gate tell 2 pi |eta|^2 from any other
    # power of |eta|.
    ld = level_data("A1", 5, 2)
    lab = enumerate_admissible(ld)[0]
    tau = 0.15j
    for x in [5e-10, 0.99e-9, 1 - 0.99e-9]:
        with pytest.raises(PolarPointError):
            char_chi(ld, lab, EvalPoint(tau, (x,)))
    for x in [1.01e-9, 1e-6]:
        assert cmath.isfinite(char_chi(ld, lab, EvalPoint(tau, (x,))).value)


def test_eval_point_validation():
    with pytest.raises(InvalidTypeError):
        EvalPoint(-1j)
    with pytest.raises(InvalidTypeError):
        EvalPoint(0.5 + 0j)
    ld = level_data("A1", 5, 2)
    lab = enumerate_admissible(ld)[0]
    with pytest.raises(InvalidTypeError):
        char_chi(ld, lab, EvalPoint(1j, (0.1, 0.2)))


# ------------------------------------------------------------------ psi limits

def lee_yang_reference(tau, which):
    # products over n = +-1 or +-2 mod 5
    q = cmath.exp(2j * cmath.pi * tau)
    resids = (2, 3) if which == (1, 1) else (1, 4)
    expo = Fraction(11, 60) if which == (1, 1) else Fraction(-1, 60)
    out = q ** float(expo)
    for n in range(1, 400):
        if n % 5 in resids:
            out /= 1 - q ** n
    return out


def test_psi_matches_lee_yang_products():
    ld = level_data("A1", 2, 5)
    labels = enumerate_admissible(ld)
    by_lam = {lab.lam.finite[0]: lab for lab in labels}
    tau = 2j
    v1, e1 = psi_w(ld, by_lam[Fraction(-8, 5)], tau)
    v2, e2 = psi_w(ld, by_lam[Fraction(-6, 5)], tau)
    # the limit carries the sign (-1)^{#positive roots} relative to the
    # reduced character
    assert abs(v1 + lee_yang_reference(tau, (1, 1))) < 1e-9
    assert abs(v2 + lee_yang_reference(tau, (1, 2))) < 1e-9
    assert e1 < 1e-6 and e2 < 1e-6


def test_psi_constant_on_classes_and_vanishes_when_degenerate():
    ld = level_data("A1", 2, 5)
    labels = enumerate_admissible(ld)
    tau = 2j
    vals = {}
    for lab in labels:
        v, _ = psi_w(ld, lab, tau)
        vals[lab.lam.finite[0]] = v
        if label_is_degenerate(ld, lab):
            assert abs(v) < 1e-8
    assert abs(vals[Fraction(-8, 5)] - vals[Fraction(-2, 5)]) < 1e-9
    assert abs(vals[Fraction(-6, 5)] - vals[Fraction(-4, 5)]) < 1e-9


@pytest.mark.parametrize("name,p,q", [
    ("A1", 3, 4), ("A2", 4, 3), ("B2", 5, 2), ("C2", 5, 2), ("G2", 7, 3),
])
def test_psi_rows_and_degenerate_labels(name, p, q):
    # every S row of psi at tau = i, and vanishing on degenerate labels; at
    # B2/C2 (5,2) and G2 (7,3) every label is degenerate
    ld = level_data(name, p, q)
    labels = enumerate_admissible(ld)
    sm = build_smatrix(ld)
    tau = 1j
    psis = [psi_w(ld, lab, tau)[0] for lab in labels]
    assert all(cmath.isfinite(v) for v in psis)
    pref = (-1j) ** ld.rs.num_positive_roots
    for i, lab in enumerate(labels):
        if label_is_degenerate(ld, lab):
            assert abs(psis[i]) < 1e-12
        lhs = psi_w(ld, lab, -1 / tau)[0]
        rhs = pref * sum(sm.matrix[i, j] * psis[j] for j in range(len(labels)))
        assert abs(lhs - rhs) < 1e-10


def test_psi_down_transform_row():
    # psi_lam(-1/tau) = (-i)^{#pos roots} sum_mu a(lam, mu) psi_mu(tau), tau=i
    ld = level_data("A1", 2, 5)
    labels = enumerate_admissible(ld)
    sm = build_smatrix(ld)
    tau = 1j
    psis = [psi_w(ld, lab, tau)[0] for lab in labels]
    i = 0
    lhs = psi_w(ld, labels[i], -1 / tau)[0]
    rhs = (-1j) * sum(sm.matrix[i, j] * psis[j] for j in range(len(labels)))
    assert abs(lhs - rhs) < 1e-6


# --------------------------------------- batched numerators against per-w sums

# the chi/psi and chars-eval levels of the characters benchmark workload
CHAR_LEVELS = [
    ("A1", 5, 2), ("A1", 3, 4), ("A1", 2, 5), ("A1", 5, 7),
    ("A2", 4, 3), ("B2", 5, 2), ("C2", 5, 2), ("G2", 7, 3),
]
CHARS_EVAL_LEVELS = [
    ("A1", 5, 2), ("A2", 4, 3), ("B2", 5, 2), ("G2", 7, 3),
    ("A3", 4, 1), ("B3", 5, 1), ("A4", 5, 1), ("D4", 6, 1),
]
ORACLE_TAUS = (0.15 + 0.3j, 1j, -0.2 + 2j)


def numerator_oracle(ld, label, tau, z, tol, weights=None):
    """The numerator as one lattice sum per Weyl element, over exact labels
    q w(nu) + p beta; each sum is to tol / |W|. Returns (value, bound)."""
    rs = ld.rs
    W = enumerate_weyl(rs)
    pbeta = tuple(ld.p * b for b in label.beta)
    acc, tail = 0j, 0.0
    for w in W:
        mu = tuple(ld.q * a + b for a, b in zip(w.act(label.nu.finite), pbeta))
        if weights is None:
            ev = theta_lattice(rs, ld.translation_lattice, mu, ld.p * ld.q, tau, z,
                               tol=tol / len(W))
            value, bound = ev.value, ev.tail_bound
        else:
            sums, _, bound = _theta_sums(
                chars._lattice(rs, ld.translation_lattice),
                np.array([[float(v) for v in mu]]), ld.p * ld.q, tau,
                np.array(z, dtype=complex), tol / len(W), weights=weights)
            value = complex(sums[0])
        acc += label.ybar.sign * w.sign * value
        tail += bound
    return acc, tail


def assert_agree(got, got_bound, ref, ref_bound, scale):
    # two truncations of one sum differ by at most the sum of their bounds,
    # plus the rounding of sums whose terms are at most about scale
    assert abs(got - ref) <= got_bound + ref_bound + 1e-12 * max(1, scale)


@pytest.mark.parametrize("name,p,q", sorted(set(CHAR_LEVELS + CHARS_EVAL_LEVELS)))
def test_batched_characters_match_per_weyl_element_sums(name, p, q):
    ld = level_data(name, p, q)
    rs = ld.rs
    x = tuple(complex(0.07 + 0.03 * i, 0.02 + 0.01 * i) for i in range(rs.rank))
    zero = (0j,) * rs.rank
    npos = rs.num_positive_roots
    pi_rho = float(math.prod(rs.inner_finite(a, rs.rho) for a in rs.positive_roots))
    weights = 2j * math.pi / q * chars._root_pairings(rs)
    for tau in ORACLE_TAUS:
        point = EvalPoint(tau, x)
        den = _char_denominator(rs, point)
        eta = dedekind_eta(tau)
        const = (-1) ** npos * eta ** rs.rank
        den0 = const * (-2j * math.pi * eta * eta) ** npos * len(enumerate_weyl(rs)) * pi_rho
        for lab in enumerate_admissible(ld):
            ref, ref_tail = numerator_oracle(ld, lab, tau, tuple(v / q for v in x), 1e-13)
            num = char_numerator(ld, lab, point, tol=1e-10)
            assert num.tail_bound <= 1e-10
            assert_agree(num.value, num.tail_bound, ref, ref_tail, abs(ref))
            chi = char_chi(ld, lab, point, tol=1e-10)
            assert chi.tail_bound <= 1e-10
            assert_agree(chi.value * den, chi.tail_bound * abs(den), ref, ref_tail, abs(ref))

            ref, ref_tail = numerator_oracle(ld, lab, tau, zero, 1e-15)
            psi, err = psi_w(ld, lab, tau)
            assert err <= 1e-12
            assert_agree(psi * const, err * abs(const), ref, ref_tail, abs(ref))

            ref, ref_tail = numerator_oracle(ld, lab, tau, zero, 1e-15, weights)
            v0, err0 = char_at_zero(ld, lab, tau)
            assert err0 <= 1e-12
            assert_agree(v0 * den0, err0 * abs(den0), ref, ref_tail, abs(ref))


def theta_check_rhs_oracle(rs, L, mu, m, tau, z, tol):
    """The right side of the theta transform as one theta_lattice call per
    coset representative, with exact phases. Returns (value, bound)."""
    dual = chars.dual_lattice(rs, L)
    cols = tuple(zip(*L))
    mL = tuple(tuple(m * rs.inner_finite(a, b) for b in cols) for a in cols)
    reps = lattice_coset_reps(dual, mL)
    pref = cmath.exp((rs.rank / 2) * cmath.log(-1j * tau)) / math.sqrt(len(reps))
    acc, tail = 0j, 0.0
    for rep in reps:
        phase = cmath.exp(-2j * math.pi * float(rs.inner_finite(mu, rep)) / m)
        ev = theta_lattice(rs, L, rep, m, tau, z, tol=tol)
        acc += phase * ev.value
        tail += abs(pref) * ev.tail_bound
    return pref * acc, tail


@pytest.mark.parametrize("name", ["A1", "A2", "G2", "A3", "B3", "A4", "D4"])
def test_batched_theta_check_matches_per_representative_sums(name):
    rs = build_root_system(name)
    z = tuple(complex(0.1 + 0.05 * i, 0.03) for i in range(rs.rank))
    for tau in ORACLE_TAUS:
        out = theta_lattice_check(rs, rs.latt_Qvee, rs.rho, 2, tau, z, tol=1e-10)
        ref, ref_tail = theta_check_rhs_oracle(rs, rs.latt_Qvee, rs.rho, 2, tau, z, 1e-13)
        assert_agree(out["rhs"], out["tail_bound"], ref, ref_tail, abs(ref))
        assert out["abs_error"] < 1e-9


# ------------------------------------------------------------------- exports

@pytest.mark.parametrize("module", [kacfusion, chars])
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        assert getattr(module, name) is not None, name

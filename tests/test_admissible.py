"""Enumeration and verification of admissible weights at fractional level."""

import random
from fractions import Fraction
from math import gcd

import pytest
from test_weyl import _composed_affine_reduce

from kacfusion import (
    ExtAffineElement,
    LevelData,
    LevelError,
    build_root_system,
    coroot_basis_Sq,
    enumerate_admissible,
    enumerate_weyl,
    is_admissible,
    label_from_mu,
    label_is_degenerate,
    verify_admissible,
    weyl_order,
)
from kacfusion.admissible import AdmissibleLabel, _chamber_nu, _triple_key
from kacfusion.ratlin import (
    int_vector,
    lattice_coset_reps,
    vec_add,
    vec_scale,
    vec_sub,
)
from kacfusion.rootsys import AffineWeight, affine
from kacfusion.weyl import affine_action

COUNTS = [
    ("A1", 3, 1, 2),
    ("A1", 2, 3, 3),
    ("A1", 2, 5, 5),
    ("A1", 3, 4, 8),
    ("A1", 3, 5, 10),
    ("A1", 5, 2, 8),
    ("A2", 4, 3, 27),
    ("A2", 5, 4, 96),
    ("B2", 3, 1, 1),
    ("B2", 5, 2, 4),
    ("B3", 7, 2, 8),
    ("C2", 5, 4, 16),
    ("C3", 7, 2, 4),
    ("F4", 9, 1, 1),
    ("G2", 5, 2, 8),
    ("G2", 7, 3, 3),
]


def level_data(name, p, q):
    return LevelData.from_pq(build_root_system(name), p, q)


@pytest.mark.parametrize("name,p,q,count", COUNTS)
def test_enumeration_counts(name, p, q, count):
    ld = level_data(name, p, q)
    labels = enumerate_admissible(ld)
    assert len(labels) == count
    assert len({lab.lam.finite for lab in labels}) == count


@pytest.mark.parametrize("p,q", [(2, 3), (3, 2), (4, 3), (5, 2), (5, 3), (5, 4)])
def test_a1_closed_form_count(p, q):
    # rank one: q choices of translation times p - 1 chamber weights
    ld = level_data("A1", p, q)
    assert len(enumerate_admissible(ld)) == q * (p - 1)


@pytest.mark.parametrize("name,p,q", [
    ("A1", 5, 2), ("A2", 4, 3), ("B2", 5, 2), ("G2", 7, 3), ("C3", 7, 2),
])
def test_labels_satisfy_contracts(name, p, q):
    ld = level_data(name, p, q)
    rs = ld.rs
    for lab in enumerate_admissible(ld):
        assert lab.lam.k0 == ld.k
        assert lab.nu.k0 == ld.m * (1 if ld.variant == "principal" else ld.rs.rvee) \
            or lab.nu.k0 > 0
        assert rs.in_lattice(rs.latt_Qstar, lab.beta)
        ok, hits = verify_admissible(ld, lab.lam)
        assert ok
        # nondegenerate labels have a full set of integral coroot directions
        if not label_is_degenerate(ld, lab):
            assert len(hits) >= rs.rank


@pytest.mark.parametrize("name,p,q", [("A1", 5, 2), ("A2", 4, 3), ("B2", 5, 2)])
def test_label_from_mu_roundtrip(name, p, q):
    ld = level_data(name, p, q)
    rs = ld.rs
    for lab in enumerate_admissible(ld):
        again = label_from_mu(ld, vec_add(lab.lam.finite, rs.rho))
        assert again.lam.finite == lab.lam.finite
        assert again.nu.finite == lab.nu.finite
        assert again.beta == lab.beta
        assert again.ybar.sign == lab.ybar.sign


def test_non_admissible_weight_detected():
    ld = level_data("A1", 5, 2)
    # lam + rho pairs to zero with the simple coroot
    ok, _ = verify_admissible(ld, affine((Fraction(-1),), k0=ld.k))
    assert not ok
    assert not is_admissible(ld, affine((Fraction(-1),), k0=ld.k))
    # pairing hits a negative integer further down the orbit
    ok, _ = verify_admissible(ld, affine((Fraction(-3),), k0=ld.k))
    assert not ok
    assert not is_admissible(ld, affine((Fraction(-3),), k0=ld.k))


@pytest.mark.parametrize("name,p,q,degenerate", [
    ("A1", 5, 2, 4),
    ("A1", 3, 4, 2),
    ("A1", 2, 5, 1),
    ("A2", 5, 4, 60),
])
def test_degenerate_counts(name, p, q, degenerate):
    ld = level_data(name, p, q)
    labels = enumerate_admissible(ld)
    found = sum(1 for lab in labels if label_is_degenerate(ld, lab))
    assert found == degenerate
    # nondegenerate labels come in full Weyl orbits of chamber data
    nondeg = len(labels) - found
    assert nondeg % weyl_order(ld.rs) == 0 or ld.rs.rank == 1


def test_variant_inference():
    assert level_data("A1", 5, 2).variant == "principal"
    assert level_data("B2", 5, 2).variant == "coprincipal"
    assert level_data("B2", 5, 3).variant == "principal"
    assert level_data("G2", 7, 3).variant == "coprincipal"
    assert level_data("G2", 7, 2).variant == "principal"


def test_from_level_matches_from_pq():
    rs = build_root_system("A1")
    ld = LevelData.from_level(rs, Fraction(-1, 2))
    assert (ld.p, ld.q) == (3, 2)
    assert ld.k == Fraction(-1, 2)
    assert ld.m == Fraction(3, 2)
    assert len(enumerate_admissible(ld)) == 4


def test_level_validation():
    rs = build_root_system("A1")
    with pytest.raises(LevelError):
        LevelData.from_pq(rs, 4, 2)  # not coprime
    with pytest.raises(LevelError):
        LevelData.from_pq(rs, 0, 1)
    with pytest.raises(LevelError):
        LevelData.from_pq(rs, -3, 2)
    with pytest.raises(LevelError):
        LevelData.from_level(rs, Fraction(-2))  # m = 0
    with pytest.raises(LevelError):
        LevelData.from_level(rs, Fraction(-5, 2))  # m < 0


def test_central_charge_values():
    # c = k dim / (k + hvee)
    assert level_data("A1", 5, 2).central_charge == Fraction(3, 5)
    # k = -1/2: c = 3k/(k+2) = -1
    ld = LevelData.from_level(build_root_system("A1"), Fraction(-1, 2))
    assert ld.central_charge == Fraction(-1)
    # A2 at k = -5/4: c = 8k/(k+3)
    ld = level_data("A2", 7, 4)
    assert ld.central_charge == 8 * ld.k / (ld.k + 3)


def test_integrable_level_reduces_to_dominant_weights():
    ld = level_data("A1", 6, 1)  # k = 4 integrable
    labels = enumerate_admissible(ld)
    assert [lab.lam.finite for lab in labels] == [
        (Fraction(i),) for i in range(5)
    ]
    assert all(verify_admissible(ld, lab.lam)[0] for lab in labels)
    # at q = 1 every pairing with a finite coroot is a positive integer
    assert all(label_is_degenerate(ld, lab) for lab in labels)


def _verify_by_scan(ld, lam):
    """verify_admissible by scanning every progression below zero, with
    Fraction pairings through the form: the reference for the closed form."""
    rs = ld.rs
    mu = vec_add(lam.finite, rs.rho)
    ok = True
    hits = []
    for alpha in rs.positive_roots:
        av = rs.coroot_image(alpha)
        v = rs.inner_finite(mu, av)
        s = int(2 / rs.norm2_finite(alpha))
        for sign in (1, -1):
            base = v if sign == 1 else -v
            start = 0 if sign == 1 else s
            m = start
            while base + m * ld.m <= 0:
                if (base + m * ld.m).denominator == 1:
                    ok = False
                m += s
            for m in range(start, start + ld.q * s, s):
                if (base + m * ld.m).denominator == 1:
                    hits.append(AffineWeight(
                        vec_scale(Fraction(sign), av), Fraction(0), Fraction(m)))
    return ok, tuple(hits)


def _degenerate_by_form(ld, label):
    rs = ld.rs
    mu = vec_add(label.lam.finite, rs.rho)
    return any(rs.inner_finite(mu, rs.coroot_image(alpha)).denominator == 1
               for alpha in rs.positive_roots)


ORACLE_LEVELS = [(name, p, q) for name, p, q, _ in COUNTS] + [
    ("A1", 2, 3), ("A2", 3, 5), ("B2", 3, 5), ("C2", 3, 5), ("G2", 4, 7),
    ("A3", 5, 3), ("C2", 5, 2), ("B3", 5, 1), ("D4", 7, 1),
]


@pytest.mark.parametrize("name,p,q", ORACLE_LEVELS)
def test_closed_forms_match_scan_and_form(name, p, q):
    # every label of the level, then seeded weights of level k that are
    # mostly not admissible
    ld = level_data(name, p, q)
    labels = enumerate_admissible(ld)
    for lab in labels:
        got = verify_admissible(ld, lab.lam)
        assert repr(got) == repr(_verify_by_scan(ld, lab.lam))
        assert label_is_degenerate(ld, lab) == _degenerate_by_form(ld, lab)
    rng = random.Random(f"{name} {p},{q}")
    rejected = 0
    for _ in range(40):
        den = rng.choice((1, q, 2 * q, 3 * q))
        lam = affine([Fraction(rng.randint(-3 * den, 3 * den), den)
                      for _ in range(ld.rs.rank)], k0=ld.k)
        got = verify_admissible(ld, lam)
        assert repr(got) == repr(_verify_by_scan(ld, lam))
        rejected += not got[0]
        label = AdmissibleLabel(labels[0].nu, labels[0].ybar, labels[0].beta, lam)
        assert label_is_degenerate(ld, label) == _degenerate_by_form(ld, label)
    assert rejected > 0


def _enumerate_by_cosets(ld):
    """The coset route to the labels, kept as the reference: Qstar / qL
    representatives from the Hermite box, each reduced into the level-q
    chamber with an infinitesimal rho tie-break, then |chamber| Fraction
    weights per representative."""
    rs = ld.rs
    qL = tuple(tuple(ld.q * di * x for x in row)
               for di, row in zip(rs.d, ld.translation_lattice))
    nodes = rs.J if ld.variant == "principal" else rs.LJ
    found = {}
    for beta0 in lattice_coset_reps(rs.latt_Qstar, qL):
        u, _, _ = _composed_affine_reduce(
            rs, ld.q, ld.variant, Fraction(1), vec_scale(-1, beta0), rs.rho)
        ybar = u.wbar.inverse()
        gamma = vec_scale(Fraction(-1, ld.q), ybar.act(u.beta))
        assert rs.in_lattice(ld.translation_lattice, gamma)
        beta = vec_add(beta0, vec_scale(ld.q, gamma))
        for nu in _chamber_nu(ld):
            mu = vec_add(ybar.act(nu.finite), vec_scale(ld.m, beta))
            found.setdefault(mu, []).append((nu, ybar, beta))
    labels = []
    for mu in sorted(found):
        assert len(found[mu]) == len(nodes)
        nu, ybar, beta = min(found[mu], key=lambda t: _triple_key(*t))
        lam = AffineWeight(vec_sub(mu, rs.rho), ld.k, Fraction(0))
        labels.append(AdmissibleLabel(nu, ybar, beta, lam))
    return tuple(labels)


# the levels of the four benchmark workloads
WORKLOAD_LEVELS = [
    ("A1", 5, 2), ("A1", 7, 3), ("A1", 3, 4), ("A2", 4, 3), ("A2", 7, 2),
    ("B2", 5, 2), ("C2", 5, 2), ("G2", 7, 3), ("B3", 7, 2), ("A2", 5, 4),
    ("A2", 3, 4), ("A2", 3, 5), ("B2", 3, 5), ("C2", 3, 5), ("G2", 4, 7),
    ("A2", 4, 5), ("A2", 7, 5), ("A3", 5, 3), ("A1", 2, 5), ("A1", 5, 7),
    ("A3", 4, 1), ("B3", 5, 1), ("A4", 5, 1), ("D4", 6, 1),
] + [("A1", p, q) for q in range(3, 10) for p in range(2, q) if gcd(p, q) == 1] + [
    ("A1", p, 1) for p in range(3, 9)
] + [
    ("A5", 6, 1), ("B4", 7, 1), ("C4", 5, 1), ("D5", 8, 1), ("F4", 9, 1),
    ("A6", 7, 1), ("A4", 6, 1), ("D4", 7, 1),
    ("E7", 18, 1), ("E8", 30, 1), ("B8", 15, 1), ("C8", 9, 1), ("D8", 14, 1),
]
# and those of the other tests, coprincipal levels of every non-simply-laced
# type, exceptional and rank-8 levels at q = 1 and E6 at q = 2
ALCOVE_LEVELS = sorted(set(WORKLOAD_LEVELS + ORACLE_LEVELS + [
    ("B2", 5, 4), ("B2", 7, 6), ("C2", 5, 4), ("C3", 7, 4), ("C3", 7, 6),
    ("G2", 7, 6), ("G2", 8, 9), ("F4", 13, 2), ("A3", 5, 4), ("E6", 13, 2),
    ("E6", 12, 1), ("E6", 13, 1), ("E7", 19, 1), ("E8", 31, 1),
    ("B8", 16, 1), ("C8", 10, 1), ("D8", 15, 1),
    ("A1", 2, 1), ("A1", 3, 2), ("A1", 4, 3), ("A1", 5, 3), ("A1", 5, 4),
    ("A2", 4, 1), ("A2", 5, 1), ("A3", 5, 1), ("B2", 4, 1), ("B3", 6, 1),
    ("D6", 10, 1), ("G2", 5, 1),
]))


@pytest.mark.parametrize("name,p,q", ALCOVE_LEVELS)
def test_alcove_enumeration_matches_coset_route(name, p, q):
    ld = level_data(name, p, q)
    labels = enumerate_admissible(ld)
    ref = _enumerate_by_cosets(ld)
    assert repr(labels) == repr(ref)
    rs = ld.rs
    for lab in labels[:200]:
        again = label_from_mu(ld, vec_add(lab.lam.finite, rs.rho))
        assert repr(again) == repr(lab)


@pytest.mark.parametrize("name,p,q", [
    ("A2", 5, 4), ("B2", 5, 4), ("C3", 7, 4), ("G2", 8, 9), ("B3", 7, 2),
    ("A3", 5, 3), ("F4", 13, 2), ("D4", 7, 1),
])
def test_labels_carry_chamber_basis_to_positive_coroots(name, p, q):
    ld = level_data(name, p, q)
    rs = ld.rs
    basis = coroot_basis_Sq(rs, ld.q, ld.variant)
    for lab in enumerate_admissible(ld):
        y = ExtAffineElement(lab.beta, lab.ybar)
        assert all(rs.affine_is_positive(affine_action(rs, y, g)) for g in basis)


@pytest.mark.parametrize("name,p", [("E7", 19), ("E8", 30), ("D8", 14)])
def test_enumeration_never_lists_the_weyl_group(name, p):
    ld = level_data(name, p, 1)
    misses = enumerate_weyl.cache_info().misses
    labels = enumerate_admissible.__wrapped__(ld)
    assert enumerate_weyl.cache_info().misses == misses
    assert len(labels) == len(_chamber_nu(ld))


def _verify_one_loop(ld, lam):
    """verify_admissible as one loop that builds the hits as it scans: the
    reference for the scan shared with is_admissible."""
    rs = ld.rs
    fin = lam.finite
    u, den = int_vector(fin)
    u = tuple(x + den for x in u)
    p, q = ld.p, ld.q
    zero = Fraction(0)
    ok = True
    hits = []
    for alpha, row, s in zip(rs.positive_roots, rs.coroot_coords, rs.coroot_steps):
        v = sum(a * x for a, x in zip(row, u))
        for sign, start in ((1, 0), (-1, s)):
            ms = [m for m in range(start, start + q * s, s)
                  if (sign * v * q + m * p * den) % (q * den) == 0]
            if ms:
                ok = ok and sign * v * q + ms[0] * p * den > 0
                av = tuple(Fraction(sign * s * int(x)) for x in alpha)
                hits.extend(AffineWeight(av, zero, Fraction(m)) for m in ms)
    return ok, tuple(hits)


# the W-algebra levels of the w-fusion benchmark and every A1 level with
# p, q <= 9
W_ALGEBRA_LEVELS = [
    ("A2", 3, 4), ("A2", 3, 5), ("B2", 3, 5), ("C2", 3, 5), ("G2", 4, 7),
    ("A2", 4, 5), ("A2", 7, 5), ("A3", 5, 3),
] + [("A1", p, q) for q in range(1, 10) for p in range(2, 10) if gcd(p, q) == 1]


@pytest.mark.parametrize("name,p,q", W_ALGEBRA_LEVELS)
def test_is_admissible_matches_verify_admissible(name, p, q):
    # every label, and each label shifted by -1 in one coordinate
    ld = level_data(name, p, q)
    weights = []
    for lab in enumerate_admissible(ld):
        weights.append(lab.lam)
        for i in range(ld.rs.rank):
            fin = list(lab.lam.finite)
            fin[i] -= 1
            weights.append(affine(fin, k0=ld.k))
    rejected = 0
    for lam in weights:
        got = verify_admissible(ld, lam)
        assert repr(got) == repr(_verify_one_loop(ld, lam))
        assert is_admissible(ld, lam) is got[0]
        rejected += not got[0]
    assert rejected > 0

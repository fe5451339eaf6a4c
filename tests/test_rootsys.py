"""Structural data of the finite root systems and their twisted partners."""

import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from kacfusion import (
    InvalidTypeError,
    RootSystemSpec,
    affine,
    all_specs,
    build_root_system,
    dual_root_system,
    langlands_dual_datum,
    parse_spec,
)
from kacfusion.ratlin import mat_vec, transpose
from kacfusion.rootsys import _build_from_cartan, _root_norm2

# type, marks, comarks, dual_marks, h, hvee, rvee, n_pos, cartan_det
STRUCTURE = [
    ("A1", (1,), (1,), (1,), 2, 2, 1, 1, 2),
    ("A2", (1, 1), (1, 1), (1, 1), 3, 3, 1, 3, 3),
    ("B2", (1, 2), (1, 1), (2, 1), 4, 3, 2, 4, 2),
    ("B3", (1, 2, 2), (1, 2, 1), (2, 2, 1), 6, 5, 2, 9, 2),
    ("C3", (2, 2, 1), (1, 1, 1), (1, 2, 2), 6, 4, 2, 9, 2),
    ("D4", (1, 2, 1, 1), (1, 2, 1, 1), (1, 2, 1, 1), 6, 6, 1, 12, 4),
    ("E6", (1, 2, 2, 3, 2, 1), (1, 2, 2, 3, 2, 1), (1, 2, 2, 3, 2, 1),
     12, 12, 1, 36, 3),
    ("E7", (2, 2, 3, 4, 3, 2, 1), (2, 2, 3, 4, 3, 2, 1),
     (2, 2, 3, 4, 3, 2, 1), 18, 18, 1, 63, 2),
    ("E8", (2, 3, 4, 6, 5, 4, 3, 2), (2, 3, 4, 6, 5, 4, 3, 2),
     (2, 3, 4, 6, 5, 4, 3, 2), 30, 30, 1, 120, 1),
    ("F4", (2, 3, 4, 2), (2, 3, 2, 1), (2, 4, 3, 2), 12, 9, 2, 24, 1),
    ("G2", (2, 3), (2, 1), (3, 2), 6, 4, 3, 6, 1),
]


@pytest.mark.parametrize("name,marks,comarks,dmarks,h,hvee,rvee,npos,det",
                         STRUCTURE)
def test_structure_table(name, marks, comarks, dmarks, h, hvee, rvee, npos, det):
    rs = build_root_system(name)
    assert rs.marks == marks
    assert rs.comarks == comarks
    assert rs.dual_marks == dmarks
    assert rs.h == h
    assert rs.hvee == hvee
    assert rs.rvee == rvee
    assert rs.num_positive_roots == npos
    assert rs.fundamental_group_order == det
    assert rs.h == 1 + sum(marks)
    assert rs.hvee == 1 + sum(comarks)
    assert rs.dim_g == rs.rank + 2 * npos


def test_supported_types():
    specs = all_specs()
    assert len(specs) == 32
    names = {str(s) for s in specs}
    assert {"A1", "A8", "B2", "B8", "C2", "C8", "D4", "D8",
            "E6", "E7", "E8", "F4", "G2"} <= names
    assert "D3" not in names and "B1" not in names


def test_parse_spec_rejects_bad_labels():
    assert str(parse_spec("g2")) == "G2"
    for bad in ["Z9", "A0", "A9", "D3", "E9", "F5", "", "B"]:
        with pytest.raises(InvalidTypeError):
            parse_spec(bad)


@pytest.mark.parametrize("name", [str(s) for s in all_specs()])
def test_form_normalization(name):
    # long roots have squared length 2; short roots 2 / rvee
    rs = build_root_system(name)
    norms = {rs.norm2_finite(alpha) for alpha in rs.positive_roots}
    assert max(norms) == 2
    assert norms <= {Fraction(2), Fraction(2, rs.rvee), Fraction(1)}
    assert rs.norm2_finite(rs.theta) == 2
    if rs.rvee > 1:
        assert rs.norm2_finite(rs.theta_short) == Fraction(2, rs.rvee)


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "F4", "G2", "D5"])
def test_rho_and_pairings(name):
    rs = build_root_system(name)
    assert rs.rho == (Fraction(1),) * rs.rank
    for i in range(rs.rank):
        assert rs.pairing(rs.rho, rs.simple_coroots[i]) == 1
        # (rhovee, alpha_i) = 1 for every simple root
        assert rs.inner_finite(rs.rhovee, rs.simple_roots[i]) == 1
    # Freudenthal / de Vries: |rho|^2 = hvee dim / 12
    assert rs.inner_finite(rs.rho, rs.rho) == Fraction(rs.hvee * rs.dim_g, 12)


def _gauss(a, b):
    """(det a, a^-1 b) by Fraction Gauss-Jordan elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    det = Fraction(1)
    for i in range(n):
        piv = next(r for r in range(i, n) if m[r][i] != 0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        m[i] = [x / m[i][i] for x in m[i]]
        for r in range(n):
            if r != i and m[r][i] != 0:
                f = m[r][i]
                m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    return det, tuple(row[n] for row in m)


def _member(gens, v):
    return all(x.denominator == 1 for x in _gauss(gens, v)[1])


@pytest.mark.parametrize("name", [str(s) for s in all_specs()])
def test_lattice_predicates(name):
    rs = build_root_system(name)
    lattices = (rs.latt_P, rs.latt_Q, rs.latt_Qvee, rs.latt_Qstar)
    for alpha in rs.positive_roots:
        assert rs.in_lattice(rs.latt_Q, alpha)
        assert rs.in_lattice(rs.latt_P, alpha)
    assert rs.in_lattice(rs.latt_P, rs.rho)
    for i in range(rs.rank):
        cv = rs.coroot_image(rs.simple_roots[i])
        assert rs.in_lattice(rs.latt_Qvee, cv)
        # coroots pair integrally with roots, so Qvee sits inside Qstar
        assert rs.in_lattice(rs.latt_Qstar, cv)
    # index of Q in P is the determinant of the Cartan matrix
    det_q = _gauss(rs.latt_Q, rs.rho)[0]
    assert det_q / _gauss(rs.latt_P, rs.rho)[0] == rs.fundamental_group_order
    # non-members: rho / 2 lies in none, and some fundamental weight lies
    # outside Q exactly when det A > 1
    half_rho = tuple(x / 2 for x in rs.rho)
    assert not any(rs.in_lattice(latt, half_rho) for latt in lattices)
    with pytest.raises(ValueError):
        rs.in_lattice(tuple(tuple(3 * x for x in row) for row in rs.latt_P), rs.rho)
    outside = [i for i in range(1, rs.rank + 1)
               if not rs.in_lattice(rs.latt_Q, rs.fundamental_weight(i))]
    assert bool(outside) == (rs.fundamental_group_order > 1)
    # seeded rational vectors and lattice points against the Fraction solver
    rng = random.Random(name)
    for _ in range(12):
        v = tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 6)))
                  for _ in range(rs.rank))
        coeffs = [rng.randint(-3, 3) for _ in range(rs.rank)]
        assert rs.root_coords(v) == _gauss(rs.latt_Q, v)[1]
        for latt in lattices:
            assert rs.in_lattice(latt, v) == _member(latt, v)
            point = tuple(sum(x * c for x, c in zip(row, coeffs)) for row in latt)
            assert rs.in_lattice(latt, point)
            w = rs.fundamental_weight(rng.randint(1, rs.rank))
            assert rs.in_lattice(latt, w) == _member(latt, w)


def test_node_orbits():
    assert build_root_system("A1").J == (0, 1)
    assert build_root_system("D4").J == (0, 1, 3, 4)
    assert build_root_system("E6").J == (0, 1, 6)
    assert build_root_system("E7").J == (0, 7)
    assert build_root_system("E8").J == (0,)
    assert build_root_system("G2").J == (0,)
    assert build_root_system("G2").LJ == (0,)
    assert build_root_system("B2").LJ == (0, 2)
    assert build_root_system("B3").LJ == (0, 3)
    assert build_root_system("C3").LJ == (0, 1)
    for name, _, _, _, _, _, _, _, det in STRUCTURE:
        rs = build_root_system(name)
        assert len(rs.J) == det


@pytest.mark.parametrize("name,twisted", [
    ("B2", "D3^(2)"), ("B3", "D4^(2)"), ("C3", "A5^(2)"),
    ("F4", "E6^(2)"), ("G2", "D4^(3)"),
])
def test_twisted_partner(name, twisted):
    rs = build_root_system(name)
    datum = langlands_dual_datum(rs)
    assert datum.twisted_type == twisted
    # levels of the dual basis weights sum to the level of their total
    assert sum(w.k0 for w in datum.circ_lambda) == datum.circ_rho_level


def test_twisted_partner_rejects_simply_laced():
    with pytest.raises(InvalidTypeError):
        langlands_dual_datum(build_root_system("A2"))


@pytest.mark.parametrize("name", ["B3", "C3", "F4", "G2"])
def test_dual_root_system(name):
    rs = build_root_system(name)
    rsd = dual_root_system(rs)
    # transposed Cartan matrix, swapped marks, equal Weyl data
    assert rsd.cartan == tuple(zip(*rs.cartan))
    assert rsd.marks == rs.dual_marks
    assert rsd.h == rs.h or name in ("B3", "C3")  # B/C duals swap h and hvee roles
    assert rsd.num_positive_roots == rs.num_positive_roots
    assert dual_root_system(rsd).cartan == rs.cartan


def test_affine_weight_arithmetic():
    a = affine((Fraction(1), Fraction(2)), k0=3, d0=Fraction(1, 2))
    b = affine((1, 0), k0=1)
    s = a + b
    assert s.finite == (Fraction(2), Fraction(2))
    assert s.k0 == 4 and s.d0 == Fraction(1, 2)
    assert (-a).finite == (Fraction(-1), Fraction(-2))
    assert a.scale(2).k0 == 6
    assert a.drop_d0().d0 == 0


def test_affine_positivity():
    rs = build_root_system("A2")
    delta = rs.delta()
    for alpha in rs.positive_roots:
        assert rs.affine_is_positive(affine(alpha))
        assert rs.affine_is_positive(delta - affine(alpha))
        assert not rs.affine_is_positive(affine(alpha) - delta)
        assert not rs.affine_is_positive(-affine(alpha))


@pytest.mark.parametrize("name", [str(s) for s in all_specs()])
def test_integer_root_data(name):
    # positive roots are the Cartan images of their simple-root coordinates,
    # and the one-pass norm formula agrees with the Gram form
    rs = build_root_system(name)
    for sys in (rs, dual_root_system(rs)):
        assert len(sys.positive_roots) == len(sys.positive_root_coords)
        for alpha, coords in zip(sys.positive_roots, sys.positive_root_coords):
            assert alpha == mat_vec(sys.cartan, coords)
            assert all(type(x) is Fraction for x in alpha)
            weight_coords = tuple(int(x) for x in alpha)
            assert _root_norm2(coords, weight_coords, sys.d) == sys.norm2_finite(alpha)
        # the integer lattice data against the Fraction forms it replaces
        mu = tuple(Fraction(i + 2, 7 * (i + 1)) for i in range(sys.rank))
        def form(a, b):
            return sum(x * g * y for x, row in zip(a, sys.gram) for g, y in zip(row, b))

        for alpha, row, step in zip(sys.positive_roots, sys.coroot_coords,
                                    sys.coroot_steps):
            n2, pairing = form(alpha, alpha), form(mu, alpha)
            assert sum(k * x for k, x in zip(row, mu)) == 2 * pairing / n2
            assert sys.inner_finite(mu, alpha) == pairing
            assert step == 2 / n2
            # verify_admissible takes the coroot image as this integer multiple
            assert repr(sys.coroot_image(alpha)) == repr(tuple(step * x for x in alpha))
        assert sys.fundamental_group_order == _gauss(sys.cartan, mu)[0]
        assert all(Fraction(a, sys.fundamental_group_order) == b
                   for ra, rb in zip(sys.cartan_adj, sys.cartan_inv)
                   for a, b in zip(ra, rb))
        assert all(Fraction(a, sys.gram_den) == b
                   for ra, rb in zip(sys.gram_num, sys.gram) for a, b in zip(ra, rb))


def test_build_is_memoised_per_type():
    rs = build_root_system("b3")
    assert build_root_system(RootSystemSpec("B", 3)) is rs
    assert build_root_system(" B3 ") is rs
    assert build_root_system("C3") is not rs
    for spec in all_specs():
        rs = build_root_system(spec)
        rsd = dual_root_system(rs)
        assert dual_root_system(rs) is rsd
        fresh = _build_from_cartan(
            rs.spec, transpose(rs.cartan),
            tuple(Fraction(1) / (rs.rvee * di) for di in rs.d))
        assert all(getattr(rsd, f.name) == getattr(fresh, f.name)
                   for f in fields(rsd))


def test_hash_consistent_with_equality():
    for name in ("A3", "B3", "G2", "E6"):
        rs = build_root_system(name)
        copy = replace(rs)
        assert copy == rs and copy is not rs
        assert hash(copy) == hash(rs)
        rsd = dual_root_system(rs)
        assert (rsd == rs) == (rs.rvee == 1)
        if rsd == rs:
            assert hash(rsd) == hash(rs)

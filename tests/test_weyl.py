"""Weyl group enumeration, dominance, and extended affine symmetries."""

import random
from fractions import Fraction

import numpy as np
import pytest

from kacfusion import (
    all_specs,
    build_root_system,
    enumerate_weyl,
    extended_generators,
    simple_reflection,
    to_dominant,
    weyl_order,
)
from kacfusion.errors import CapacityError
from kacfusion.weyl import (
    ExtAffineElement,
    WeylElement,
    _affine_reduce,
    affine_action,
    ext_identity,
    weyl_identity,
)

rng = np.random.default_rng(20260814)

ORDERS = [
    ("A1", 2), ("A2", 6), ("A3", 24), ("A4", 120),
    ("B2", 8), ("B3", 48), ("C4", 384), ("D4", 192), ("D5", 1920),
    ("E6", 51840), ("F4", 1152), ("G2", 12),
]


@pytest.mark.parametrize("name,order", ORDERS)
def test_weyl_order(name, order):
    assert weyl_order(build_root_system(name)) == order


@pytest.mark.parametrize("name", ["A2", "B2", "B3", "G2", "D4"])
def test_enumeration_closure(name):
    rs = build_root_system(name)
    W = enumerate_weyl(rs)
    assert len(W) == weyl_order(rs)
    assert len({w.matrix for w in W}) == len(W)
    # sign is a homomorphism: checked on random products of reflections
    for _ in range(10):
        i, j = rng.integers(rs.rank, size=2)
        si = simple_reflection(rs, int(i) + 1)
        sj = simple_reflection(rs, int(j) + 1)
        v = tuple(Fraction(int(c)) for c in rng.integers(-3, 4, size=rs.rank))
        once = si.act(sj.act(v))
        prod = [w for w in W if w.act(v) == once]
        assert any(w.sign == si.sign * sj.sign for w in prod)
    # half the elements are even
    assert sum(1 for w in W if w.sign == 1) == len(W) // 2
    for w in W:
        inv = w.inverse()
        assert inv.compose(w).is_identity() and w.compose(inv).is_identity()
        assert inv.sign == w.sign


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "C3"])
def test_reflections_preserve_form(name):
    rs = build_root_system(name)
    for i in range(rs.rank):
        s = simple_reflection(rs, i + 1)
        assert s.sign == -1
        for _ in range(4):
            u = tuple(Fraction(int(c)) for c in rng.integers(-4, 5, size=rs.rank))
            v = tuple(Fraction(int(c)) for c in rng.integers(-4, 5, size=rs.rank))
            assert rs.inner_finite(s.act(u), s.act(v)) == rs.inner_finite(u, v)
        # s_i fixes the wall and negates the root
        assert s.act(rs.simple_roots[i]) == tuple(-c for c in rs.simple_roots[i])


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_to_dominant(name):
    rs = build_root_system(name)
    W = enumerate_weyl(rs)
    for _ in range(20):
        v = tuple(Fraction(int(c)) for c in rng.integers(-5, 6, size=rs.rank))
        w, dom = to_dominant(rs, v)
        assert rs.is_dominant(dom)
        assert w.act(v) == dom
        assert any(u.matrix == w.matrix and u.sign == w.sign for u in W)
    w, dom = to_dominant(rs, rs.zero())
    assert dom == rs.zero() and w.is_identity()


def test_to_dominant_strict_rejects_walls():
    rs = build_root_system("A2")
    from kacfusion.errors import ChamberError
    with pytest.raises(ChamberError):
        to_dominant(rs, (Fraction(1), Fraction(0)), strict=True)


@pytest.mark.parametrize("name,count", [
    ("A1", 2), ("A2", 3), ("D4", 4), ("E6", 3), ("E7", 2), ("E8", 1), ("G2", 1),
])
def test_extended_generator_count(name, count):
    rs = build_root_system(name)
    gens = extended_generators(rs, "principal")
    assert len(gens) == count
    assert gens[0].beta == rs.zero()


def test_extended_generators_permute_admissible_level():
    # each generator acts on level-k weights as weight -> wbar(weight) + k beta
    rs = build_root_system("A2")
    gens = extended_generators(rs, "principal")
    k = Fraction(2)
    from kacfusion import affine
    lam = affine((Fraction(1), Fraction(0)), k0=k)
    for g in gens[1:]:
        out = affine_action(rs, g, lam)
        assert out.k0 == k
        # the translation part is a fundamental weight of mark one
        assert g.beta in {rs.fundamental_weight(i + 1) for i in range(rs.rank)}
    assert affine_action(rs, ext_identity(rs.rank), lam).finite == lam.finite


@pytest.mark.parametrize("name", ["B2", "C3", "G2"])
def test_coprincipal_generators_exist(name):
    rs = build_root_system(name)
    gens = extended_generators(rs, "coprincipal")
    assert len(gens) == len(rs.LJ)


# Reference algorithms: the tuple-composition breadth-first search and the
# matrix-composition chamber reductions that the integer kernels replaced.
# They are kept here only as oracles.


def _bfs_weyl(rs):
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    start = weyl_identity(rs.rank)
    seen = {start.matrix}
    queue = [start]
    pos = 0
    while pos < len(queue):
        w = queue[pos]
        pos += 1
        for g in gens:
            nxt = g.compose(w)
            if nxt.matrix not in seen:
                seen.add(nxt.matrix)
                queue.append(nxt)
    return queue


def _composed_to_dominant(rs, xi):
    cur = tuple(Fraction(x) for x in xi)
    w = weyl_identity(rs.rank)
    while True:
        neg = next((i for i, x in enumerate(cur) if x < 0), None)
        if neg is None:
            return w, cur
        s = simple_reflection(rs, neg + 1)
        cur = s.act(cur)
        w = s.compose(w)


def _composed_affine_reduce(rs, q, variant, k0, fin, eps):
    if variant == "principal":
        coeffs, root = rs.comarks, rs.theta
    else:
        coeffs, root = rs.dual_marks, rs.theta_short
    n = rs.rank
    m = tuple(
        tuple(int(r == c) - int(root[r]) * coeffs[c] for c in range(n))
        for r in range(n)
    )
    refl0 = ExtAffineElement(tuple(q * x for x in root), WeylElement(m, -1))
    u = ext_identity(n)
    fin = tuple(Fraction(x) for x in fin)
    eps = tuple(Fraction(x) for x in eps) if eps is not None else None
    qk0 = Fraction(q) * k0
    while True:
        hit = None
        node0_main = qk0 - sum(coeffs[i] * fin[i] for i in range(n))
        node0_eps = (
            -sum(coeffs[i] * eps[i] for i in range(n)) if eps is not None else 0
        )
        if node0_main < 0 or (node0_main == 0 and eps is not None and node0_eps < 0):
            hit = 0
        else:
            for i in range(n):
                if fin[i] < 0 or (fin[i] == 0 and eps is not None and eps[i] < 0):
                    hit = i + 1
                    break
        if hit is None:
            return u, fin, eps
        if hit == 0:
            r = refl0
            fin = tuple(
                x + k0 * b for x, b in zip(r.wbar.act(fin), r.beta)
            )
            if eps is not None:
                eps = r.wbar.act(eps)
        else:
            s = simple_reflection(rs, hit)
            r = ExtAffineElement(rs.zero(), s)
            fin = s.act(fin)
            if eps is not None:
                eps = s.act(eps)
        u = r.compose(u)


SMALL_GROUPS = [str(s) for s in all_specs() if weyl_order(build_root_system(s)) <= 1920]


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_enumeration_matches_composition_bfs(name):
    rs = build_root_system(name)
    W = enumerate_weyl(rs)
    ref = _bfs_weyl(rs)
    assert [(w.matrix, w.sign) for w in W] == [(w.matrix, w.sign) for w in ref]
    assert all(type(x) is int for w in W[-3:] for row in w.matrix for x in row)


def test_enumeration_a6_signs_and_orbit():
    rs = build_root_system("A6")
    W = enumerate_weyl(rs)
    assert len(W) == weyl_order(rs) == 5040
    mats = np.array([w.matrix for w in W], dtype=np.int64)
    dets = np.rint(np.linalg.det(mats)).astype(int)
    assert (dets == [w.sign for w in W]).all()
    images = mats.sum(axis=2)
    assert len(np.unique(images, axis=0)) == len(W)


def test_enumeration_bound_refuses_large_groups():
    with pytest.raises(CapacityError):
        enumerate_weyl(build_root_system("E7"))
    with pytest.raises(CapacityError):
        enumerate_weyl(build_root_system("B3"), bound=47)


@pytest.mark.parametrize("name", ["A1", "A4", "B3", "C4", "D5", "E6", "F4", "G2", "A8"])
def test_to_dominant_matches_composition(name):
    rs = build_root_system(name)
    draw = random.Random(f"dominant-{name}")
    for _ in range(15):
        xi = tuple(Fraction(draw.randint(-6, 6), draw.choice([1, 2])) for _ in range(rs.rank))
        w, dom = to_dominant(rs, xi)
        w_ref, dom_ref = _composed_to_dominant(rs, xi)
        assert (w.matrix, w.sign, dom) == (w_ref.matrix, w_ref.sign, dom_ref)
        assert all(type(x) is Fraction for x in dom)


# the coprincipal data of a simply laced type equal the principal data
@pytest.mark.parametrize("name,variant", [
    (name, variant)
    for name in ("A1", "A3", "D4", "D5", "E6", "B2", "C3", "G2", "F4", "B8")
    for variant in ("principal", "coprincipal")
    if variant == "principal" or name[0] in "BCFG"
])
def test_affine_reduce_matches_composition(name, variant):
    rs = build_root_system(name)
    draw = random.Random(f"affine-{name}-{variant}")
    for _ in range(6):
        q = draw.randint(1, 3)
        k0 = Fraction(draw.randint(1, 4), draw.choice([1, 2, 3]))
        fin = tuple(
            Fraction(draw.randint(-3, 3), draw.choice([1, 1, 2, 3]))
            for _ in range(rs.rank)
        )
        u, out = _affine_reduce(rs, q, variant, k0, fin)
        u_ref, out_ref, _ = _composed_affine_reduce(rs, q, variant, k0, fin, None)
        assert u == u_ref
        assert out == out_ref
        assert all(type(x) is Fraction for x in out + u.beta)

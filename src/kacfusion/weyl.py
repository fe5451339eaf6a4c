"""Finite and extended affine Weyl groups acting on weight coordinates.

A finite Weyl element is an integer matrix acting on fundamental weight
coordinates together with its determinant sign. Affine elements are pairs
t_beta * wbar with a rational translation vector beta; they act on
AffineWeight values and, through the same formula, on the nu images of
affine coroots (which carry k0 = 0).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import CapacityError, ChamberError
from .ratlin import frac, vec, vec_add, vec_neg, vec_scale
from .rootsys import AffineWeight, FiniteRootSystem, FiniteWeight, IntMatrix


@dataclass(frozen=True)
class WeylElement:
    """An element of the finite Weyl group with its sign character."""

    matrix: IntMatrix
    sign: int

    def act(self, v) -> FiniteWeight:
        return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in self.matrix)

    def compose(self, other: "WeylElement") -> "WeylElement":
        bt = list(zip(*other.matrix))
        m = tuple(
            tuple(sum(ra[k] * cb[k] for k in range(len(ra))) for cb in bt)
            for ra in self.matrix
        )
        return WeylElement(m, self.sign * other.sign)

    def inverse(self) -> "WeylElement":
        """w^-1 = w^(k-1), for k the order of w in the finite Weyl group."""
        power = self
        while not (nxt := power.compose(self)).is_identity():
            power = nxt
        return power

    def is_identity(self) -> bool:
        n = len(self.matrix)
        return all(
            self.matrix[i][j] == (1 if i == j else 0)
            for i in range(n)
            for j in range(n)
        )


def weyl_identity(rank: int) -> WeylElement:
    return WeylElement(
        tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank)), 1
    )


def simple_reflection(rs: FiniteRootSystem, i: int) -> WeylElement:
    """Reflection in the i-th simple root (1-based)."""
    n = rs.rank
    k = i - 1
    m = tuple(
        tuple(int(r == c) - (int(rs.cartan[r][k]) if c == k else 0) for c in range(n))
        for r in range(n)
    )
    return WeylElement(m, -1)


def weyl_order(rs: FiniteRootSystem) -> int:
    """Order of the finite Weyl group, from the classical product formulas."""
    fam, n = rs.spec.family, rs.spec.rank
    if fam == "A":
        return factorial(n + 1)
    if fam in ("B", "C"):
        return 2**n * factorial(n)
    if fam == "D":
        return 2 ** (n - 1) * factorial(n)
    if fam == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    if fam == "F":
        return 1152
    return 12


@lru_cache(maxsize=None)
def enumerate_weyl(rs: FiniteRootSystem, bound: int = 10**6):
    """All elements of the finite Weyl group, identity first.

    The elements are listed by length, as a breadth-first search over left
    multiplication by simple reflections would list them. Since rho is
    regular, l(s_i w) > l(w) exactly when the i-th coordinate of w(rho) is
    positive, so layer l + 1 is {s_i w : w in layer l, w(rho)_i > 0} and only
    layer l is needed to build it. Candidates are ordered by (parent,
    generator) and the first occurrence of each is kept, which is the order
    a queue would give; the sign of every element of layer l is (-1)^l.
    Each child matrix is a rank-one update of its parent, s_i M = M -
    alpha_i (x) M[i], in integer numpy arrays. Groups larger than the bound
    are refused up front.
    """
    order = weyl_order(rs)
    if order > bound:
        raise CapacityError(
            f"Weyl group of {rs.spec} has order {order}, above the bound {bound}"
        )
    n = rs.rank
    # column i is alpha_i in fundamental weight coordinates
    cartan = np.array([[int(x) for x in row] for row in rs.cartan], dtype=np.int64)
    layer = np.eye(n, dtype=np.int64)[None]
    out = []
    sign = 1
    while len(layer):
        out.extend(
            WeylElement(tuple(map(tuple, m)), sign) for m in layer.tolist()
        )
        images = layer.sum(axis=2)
        parent, gen = np.nonzero(images > 0)
        # s_i(w rho) identifies s_i w, because rho has trivial stabiliser;
        # a dict keeps first occurrences in order
        child = images[parent] - cartan[:, gen].T * images[parent, gen][:, None]
        seen = {}
        for k, key in enumerate(map(tuple, child.tolist())):
            seen.setdefault(key, k)
        first = list(seen.values())
        parent, gen = parent[first], gen[first]
        rows = layer[parent, gen]
        layer = layer[parent] - cartan[:, gen].T[:, :, None] * rows[:, None, :]
        sign = -sign
    if len(out) != order:
        raise AssertionError("Weyl enumeration does not match the group order")
    return tuple(out)


def to_dominant(rs: FiniteRootSystem, xi, strict: bool = False):
    """Reduce a finite weight to the dominant chamber.

    Returns (w, w(xi)) with w(xi) dominant, by greedy reflection at the
    first negative coordinate. Each reflection is the rank-one update
    v - v_i alpha_i on the weight and on the rows of the matrix of w. With
    strict=True a wall point (some zero coordinate after reduction) raises
    ChamberError.
    """
    cols = _cartan_columns(rs)
    cur = list(vec(xi))
    mat = _identity_rows(rs.rank)
    sign = 1
    cap = rs.num_positive_roots + 2
    for _ in range(cap):
        neg = next((i for i, x in enumerate(cur) if x < 0), None)
        if neg is None:
            if strict and any(x == 0 for x in cur):
                raise ChamberError("weight lies on a reflection wall")
            return _weyl_from_rows(mat, sign), tuple(cur)
        root = cols[neg]
        _reflect(cur, cur[neg], root)
        _reflect_rows(mat, mat[neg], root)
        sign = -sign
    raise ChamberError("dominance reduction did not terminate")


def _identity_rows(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _weyl_from_rows(mat, sign: int) -> WeylElement:
    return WeylElement(tuple(map(tuple, mat)), sign)


@lru_cache(maxsize=None)
def _cartan_columns(rs: FiniteRootSystem):
    """Simple roots alpha_i as integer columns, with their nonzero entries."""
    n = rs.rank
    return tuple(
        tuple((r, int(rs.cartan[r][i])) for r in range(n) if rs.cartan[r][i] != 0)
        for i in range(n)
    )


def _reflect(v: list, pairing, root) -> None:
    """v -= pairing * root in place; root holds its nonzero (index, entry) pairs."""
    if pairing:
        for r, a in root:
            v[r] -= pairing * a


def _reflect_rows(mat: list, row, root) -> None:
    """Left-multiply the matrix rows by a reflection: M -= root (x) row.

    Rows are rebound, never mutated, so row may be one of them.
    """
    for r, a in root:
        mat[r] = [x - a * y for x, y in zip(mat[r], row)]


@dataclass(frozen=True)
class ExtAffineElement:
    """t_beta * wbar in the extended affine Weyl group."""

    beta: FiniteWeight
    wbar: WeylElement

    def compose(self, other: "ExtAffineElement") -> "ExtAffineElement":
        return ExtAffineElement(
            vec_add(self.beta, self.wbar.act(other.beta)),
            self.wbar.compose(other.wbar),
        )

    def inverse(self) -> "ExtAffineElement":
        winv = self.wbar.inverse()
        return ExtAffineElement(vec_neg(winv.act(self.beta)), winv)

    @property
    def sign(self) -> int:
        return self.wbar.sign

    def is_identity(self) -> bool:
        return all(x == 0 for x in self.beta) and self.wbar.is_identity()


def ext_identity(rank: int) -> ExtAffineElement:
    return ExtAffineElement(tuple(Fraction(0) for _ in range(rank)), weyl_identity(rank))


def affine_action(rs: FiniteRootSystem, y: ExtAffineElement, lam: AffineWeight) -> AffineWeight:
    """Apply t_beta * wbar to an affine weight.

    The translation acts by lam + k0 beta - ((lam, beta) + k0 (beta, beta)/2) delta,
    which also covers adjoint transport of coroot images (k0 = 0).
    """
    fin = y.wbar.act(lam.finite)
    b = y.beta
    shift = rs.inner_finite(fin, b) + lam.k0 * rs.inner_finite(b, b) / 2
    return AffineWeight(vec_add(fin, vec_scale(lam.k0, b)), lam.k0, lam.d0 - shift)


def _node0_data(rs: FiniteRootSystem, variant: str):
    """Pairing coefficients and reflection root for the affine node.

    The affine basis element is q K minus the highest coroot of the short
    chamber family: for the principal variant the coroot of theta, with
    pairing coefficients the comarks; for the coprincipal variant the
    coroot of theta_short, with coefficients the dual marks.
    """
    if variant == "principal":
        return rs.comarks, rs.theta
    if variant == "coprincipal":
        return rs.dual_marks, rs.theta_short
    raise ValueError(f"unknown variant {variant!r}")


def coroot_basis_Sq(rs: FiniteRootSystem, q: int, variant: str = "principal"):
    """nu images of the level-q chamber coroot basis.

    Index 0 carries q K minus the relevant highest coroot, the rest are the
    finite simple coroots. At q = 1 the principal basis is the ordinary
    affine one.
    """
    _, root = _node0_data(rs, variant)
    gamma0 = AffineWeight(
        vec_neg(rs.coroot_image(root)), Fraction(0), Fraction(q)
    )
    basis = [gamma0]
    for j in range(rs.rank):
        basis.append(AffineWeight(vec(rs.simple_coroots[j]), Fraction(0), Fraction(0)))
    return tuple(basis)


def _affine_reduce(rs, q, variant, k0, fin, cap=200000):
    """Greedy reduction into the closed level-q chamber.

    A condition is violated when its value is negative. Returns (u, fin')
    with u in the affine group generated by the finite reflections and the
    level-q node reflection.

    Every reflection is a rank-one update v - <v, a> root: for s_i the
    pairing a is the i-th coordinate and the root alpha_i; for the node-0
    reflection the pairing is coeffs . v and the root the relevant highest
    root, with the level-q shift added to the value and to the translation.
    The matrix of u is kept as integer rows and u is built once, on return.
    """
    coeffs, theta = _node0_data(rs, variant)
    cols = _cartan_columns(rs)
    node0_root = tuple((r, int(x)) for r, x in enumerate(theta) if x != 0)
    n = rs.rank
    fin = list(vec(fin))
    beta = [Fraction(0)] * n
    mat = _identity_rows(n)
    sign = 1
    q = frac(q)
    qk0 = q * k0
    for _ in range(cap):
        node0 = qk0 - sum(coeffs[i] * fin[i] for i in range(n))
        if node0 < 0:
            _reflect(fin, -node0, node0_root)
            _reflect(beta, sum(coeffs[i] * beta[i] for i in range(n)) - q, node0_root)
            _reflect_rows(
                mat,
                [sum(coeffs[k] * mat[k][c] for k in range(n)) for c in range(n)],
                node0_root,
            )
        else:
            k = next((i for i in range(n) if fin[i] < 0), None)
            if k is None:
                return ExtAffineElement(tuple(beta), _weyl_from_rows(mat, sign)), tuple(fin)
            root = cols[k]
            _reflect(fin, fin[k], root)
            _reflect(beta, beta[k], root)
            _reflect_rows(mat, mat[k], root)
        sign = -sign
    raise ChamberError("affine chamber reduction did not terminate")


def affine_to_dominant(
    rs: FiniteRootSystem,
    xi: AffineWeight,
    q: int = 1,
    variant: str = "principal",
    strict: bool = False,
):
    """Reduce an affine weight into the closed level-q chamber.

    The acting group is the finite Weyl group extended by translations in
    q times the coroot lattice (principal) or q times the root lattice
    (coprincipal). Returns (u, u(xi)). Requires positive level; with
    strict=True a wall point raises ChamberError.
    """
    if xi.k0 <= 0:
        raise ChamberError("chamber reduction needs a positive level")
    u, fin = _affine_reduce(rs, q, variant, xi.k0, xi.finite)
    out = affine_action(rs, u, xi)
    if strict:
        coeffs, _ = _node0_data(rs, variant)
        walls = [x for x in fin]
        walls.append(frac(q) * xi.k0 - sum(coeffs[i] * fin[i] for i in range(rs.rank)))
        if any(x == 0 for x in walls):
            raise ChamberError("affine weight lies on a chamber wall")
    return u, out


@lru_cache(maxsize=None)
def _longest_element(rs: FiniteRootSystem) -> WeylElement:
    w, img = to_dominant(rs, vec_neg(rs.rho))
    if img != rs.rho:
        raise AssertionError("longest element computation failed")
    return w


@lru_cache(maxsize=None)
def _longest_parabolic(rs: FiniteRootSystem, j: int) -> WeylElement:
    """Longest element of the parabolic generated by all s_i with i != j."""
    big = Fraction(10**6)
    xi = [Fraction(-1)] * rs.rank
    xi[j - 1] = big
    w, img = to_dominant(rs, tuple(xi))
    if any(img[i] < 0 for i in range(rs.rank)):
        raise AssertionError("parabolic reduction failed")
    return w


@lru_cache(maxsize=None)
def extended_generators(rs: FiniteRootSystem, variant: str = "principal"):
    """Automorphisms sigma_j = t_{Lambda_j} sigma_j_bar of the level-1 chamber.

    Returns the identity together with one element per nonzero node of J
    (principal) or LJ (coprincipal). The translation part is the chamber
    vertex Lambda_j (the mark coefficient there is 1), and sigma_j_bar is
    the unique finite element carrying minus the relevant highest root to
    alpha_j; this defining property is checked.
    """
    nodes = rs.J if variant == "principal" else rs.LJ
    _, root = _node0_data(rs, variant)
    out = [ext_identity(rs.rank)]
    w0 = _longest_element(rs)
    for j in nodes:
        if j == 0:
            continue
        sbar = _longest_parabolic(rs, j).compose(w0)
        if sbar.act(vec_neg(root)) != rs.simple_roots[j - 1]:
            raise AssertionError("sigma_j does not carry -theta to alpha_j")
        out.append(ExtAffineElement(rs.fundamental_weight(j), sbar))
    return tuple(out)

"""Exact root-system data for the simple types of rank at most 8.

Weights are tuples of Fractions holding coordinates in the fundamental
weight basis. The invariant form is normalised so long roots have squared
length 2 and is stored as an exact rational Gram matrix, so inner products,
coroot pairings and lattice membership tests are all exact.

Coroots are represented through the form: an affine coroot gamma is stored
as the weight nu(gamma), so that the pairing <lam, gamma> is the inner
product of lam with that weight. In particular nu(K) = delta and
<lam, K> is the level of lam.

Simple root ordering follows the standard numbering: chains for A through
D with the short roots last in type B and the long root last in type C,
branch nodes (1,3),(3,4),(4,5),(5,6),(2,4) and onward for E, the double
edge between nodes 2 and 3 for F4, and for G2 the first root long.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from .errors import InvalidTypeError
from .ratlin import (
    Matrix,
    Vector,
    frac,
    int_vector,
    is_integral_vec,
    mat_from_rows,
    mat_inv,
    mat_vec,
    transpose,
    vec,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
)

FiniteWeight = Tuple[Fraction, ...]
IntMatrix = Tuple[Tuple[int, ...], ...]

_RANK_RANGE = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(2, 9),
    "D": range(4, 9),
    "E": (6, 7, 8),
    "F": (4,),
    "G": (2,),
}


@dataclass(frozen=True)
class RootSystemSpec:
    """A simple type label, e.g. family 'B' and rank 3."""

    family: str
    rank: int

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_spec(name: str) -> RootSystemSpec:
    """Parse a label like 'A1' or 'e6' (case insensitive, rank <= 8)."""
    text = str(name).strip().upper()
    if len(text) < 2 or not text[1:].isdigit():
        raise InvalidTypeError(f"cannot parse simple type label {name!r}")
    family, rank = text[0], int(text[1:])
    if family not in _RANK_RANGE:
        raise InvalidTypeError(f"unknown family {family!r} in {name!r}")
    if rank not in _RANK_RANGE[family]:
        raise InvalidTypeError(f"rank {rank} not supported for family {family!r}")
    return RootSystemSpec(family, rank)


def all_specs():
    """All supported simple types, ordered by family then rank."""
    return [
        RootSystemSpec(fam, rank)
        for fam in sorted(_RANK_RANGE)
        for rank in _RANK_RANGE[fam]
    ]


def _cartan_data(spec: RootSystemSpec):
    """Cartan matrix rows and the half square lengths d_i of simple roots."""
    fam, n = spec.family, spec.rank
    half = Fraction(1, 2)
    if fam == "G":
        cartan = ((2, -1), (-3, 2))
        d = (Fraction(1), Fraction(1, 3))
        return mat_from_rows(cartan), d
    edges = []
    d = [Fraction(1)] * n
    if fam in ("A", "B", "C"):
        edges = [(i, i + 1) for i in range(1, n)]
        if fam == "B":
            d[n - 1] = half
        if fam == "C":
            d = [half] * (n - 1) + [Fraction(1)]
    elif fam == "D":
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    elif fam == "E":
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if n >= 7:
            edges.append((6, 7))
        if n == 8:
            edges.append((7, 8))
    elif fam == "F":
        edges = [(1, 2), (2, 3), (3, 4)]
        d = [Fraction(1), Fraction(1), half, half]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(2)
    # (alpha_i, alpha_j) = -max(d_i, d_j) on every edge of these diagrams
    for i, j in edges:
        i, j = i - 1, j - 1
        inner = -max(d[i], d[j])
        rows[i][j] = inner / d[i]
        rows[j][i] = inner / d[j]
    for row in rows:
        for x in row:
            if x.denominator != 1:
                raise AssertionError("Cartan matrix must be integral")
    return mat_from_rows(rows), tuple(d)


@dataclass(frozen=True)
class AffineWeight:
    """finite + k0 * Lambda0 + d0 * delta, with exact rational coordinates."""

    finite: FiniteWeight
    k0: Fraction
    d0: Fraction

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(
            vec_add(self.finite, other.finite), self.k0 + other.k0, self.d0 + other.d0
        )

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(
            vec_sub(self.finite, other.finite), self.k0 - other.k0, self.d0 - other.d0
        )

    def __neg__(self) -> "AffineWeight":
        return AffineWeight(vec_neg(self.finite), -self.k0, -self.d0)

    def scale(self, c) -> "AffineWeight":
        c = frac(c)
        return AffineWeight(vec_scale(c, self.finite), c * self.k0, c * self.d0)

    def drop_d0(self) -> "AffineWeight":
        return AffineWeight(self.finite, self.k0, Fraction(0))


def affine(finite, k0=0, d0=0) -> AffineWeight:
    return AffineWeight(vec(finite), frac(k0), frac(d0))


@dataclass(frozen=True)
class FiniteRootSystem:
    """All exact data attached to a simple type.

    Lattice generator matrices hold generators as columns, in fundamental
    weight coordinates: latt_P (weight lattice), latt_Q (root lattice),
    latt_Qvee (image of the coroot lattice under the form) and latt_Qstar
    (dual of the root lattice, spanned by the fundamental coweight images).

    The integer fields are fixed when the system is built: cartan_adj is
    det A times cartan_inv (det A is the fundamental group order), gram is
    gram_num / gram_den, and for the a-th positive root alpha the row
    coroot_coords[a] gives (mu, alpha_vee) = sum_i row_i mu_i, while
    coroot_steps[a] = 2 / (alpha, alpha) is the delta step of its affine
    coroots.
    """

    spec: RootSystemSpec
    cartan: Matrix
    cartan_inv: Matrix
    d: Tuple[Fraction, ...]
    gram: Matrix
    simple_roots: Tuple[FiniteWeight, ...]
    simple_coroots: Tuple[FiniteWeight, ...]
    positive_roots: Tuple[FiniteWeight, ...]
    positive_root_coords: Tuple[Tuple[int, ...], ...]
    theta: FiniteWeight
    theta_short: FiniteWeight
    marks: Tuple[int, ...]
    comarks: Tuple[int, ...]
    dual_marks: Tuple[int, ...]
    h: int
    hvee: int
    rvee: int
    rho: FiniteWeight
    rhovee: FiniteWeight
    J: Tuple[int, ...]
    LJ: Tuple[int, ...]
    latt_P: Matrix
    latt_Q: Matrix
    latt_Qvee: Matrix
    latt_Qstar: Matrix
    fundamental_group_order: int
    cartan_adj: IntMatrix = field(repr=False, compare=False)
    gram_num: IntMatrix = field(repr=False, compare=False)
    gram_den: int = field(repr=False, compare=False)
    coroot_coords: IntMatrix = field(repr=False, compare=False)
    coroot_steps: Tuple[int, ...] = field(repr=False, compare=False)

    def __hash__(self) -> int:
        # consistent with __eq__, since equal systems have equal spec and d,
        # and cheap for the lru_caches keyed on root systems
        return hash((self.spec, self.d))

    @property
    def rank(self) -> int:
        return self.spec.rank

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    @property
    def dim_g(self) -> int:
        return self.rank + 2 * self.num_positive_roots

    def zero(self) -> FiniteWeight:
        return tuple(Fraction(0) for _ in range(self.rank))

    def fundamental_weight(self, i: int) -> FiniteWeight:
        """The i-th fundamental weight, 1-based."""
        return tuple(Fraction(int(j == i - 1)) for j in range(self.rank))

    def weight(self, coords) -> FiniteWeight:
        w = vec(coords)
        if len(w) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(w)}")
        return w

    def lambda0(self) -> AffineWeight:
        return AffineWeight(self.zero(), Fraction(1), Fraction(0))

    def delta(self) -> AffineWeight:
        return AffineWeight(self.zero(), Fraction(0), Fraction(1))

    def inner_finite(self, a, b) -> Fraction:
        """Invariant form on finite weight coordinates (exact on Fractions)."""
        ua, da = int_vector(a)
        ub, db = int_vector(b)
        num = sum(x * sum(g * y for g, y in zip(row, ub))
                  for x, row in zip(ua, self.gram_num))
        return Fraction(num, self.gram_den * da * db)

    def inner(self, a, b):
        """Invariant form; accepts finite tuples or AffineWeight on each side."""
        af = a.finite if isinstance(a, AffineWeight) else a
        bf = b.finite if isinstance(b, AffineWeight) else b
        val = self.inner_finite(af, bf)
        ak0 = a.k0 if isinstance(a, AffineWeight) else 0
        ad0 = a.d0 if isinstance(a, AffineWeight) else 0
        bk0 = b.k0 if isinstance(b, AffineWeight) else 0
        bd0 = b.d0 if isinstance(b, AffineWeight) else 0
        return val + ak0 * bd0 + ad0 * bk0

    def norm2_finite(self, a):
        return self.inner_finite(a, a)

    def coroot_image(self, root) -> "AffineWeight | FiniteWeight":
        """nu(alpha_vee) = 2 alpha / (alpha, alpha) for a real root alpha.

        Accepts a finite root or an affine real root; the squared length of
        the finite part must be nonzero.
        """
        fin = root.finite if isinstance(root, AffineWeight) else root
        n2 = self.norm2_finite(fin)
        if n2 == 0:
            raise InvalidTypeError("zero-norm root passed as real coroot")
        c = Fraction(2) / n2
        if isinstance(root, AffineWeight):
            return root.scale(c)
        return vec_scale(c, fin)

    def pairing(self, lam, coroot):
        """<lam, gamma> where coroot is the weight nu(gamma)."""
        return self.inner(lam, coroot)

    def level(self, lam: AffineWeight) -> Fraction:
        return lam.k0

    def root_coords(self, xi) -> Vector:
        """Coordinates of a finite weight in the simple root basis."""
        u, den = int_vector(xi)
        den *= self.fundamental_group_order
        return tuple(Fraction(sum(a * x for a, x in zip(row, u)), den)
                     for row in self.cartan_adj)

    def is_dominant(self, xi, strict: bool = False) -> bool:
        if strict:
            return all(x > 0 for x in xi)
        return all(x >= 0 for x in xi)

    def in_lattice(self, gens: Matrix, v) -> bool:
        """Whether v lies in latt_P, latt_Q, latt_Qvee or latt_Qstar (gens).

        The coordinates over the generators are v or the root coordinates of
        v, times d_i for the coroot and coweight lattices.
        """
        if gens == self.latt_Q or gens == self.latt_Qvee:
            v = self.root_coords(v)
        elif not (gens == self.latt_P or gens == self.latt_Qstar):
            raise ValueError(f"not a lattice of {self.spec}")
        if gens == self.latt_Qvee or gens == self.latt_Qstar:
            v = [x * di for x, di in zip(v, self.d)]
        return is_integral_vec(v)

    def theta_short_coroot_image(self) -> FiniteWeight:
        """nu of the coroot of the highest short root (the highest coroot)."""
        return self.coroot_image(self.theta_short)

    def affine_is_positive(self, x: AffineWeight) -> bool:
        """Whether x (a multiple of a real affine root, level 0) is positive.

        Positive means a positive delta coefficient, or zero delta
        coefficient and a positive finite part.
        """
        if x.k0 != 0:
            raise InvalidTypeError("affine root test expects a level-zero vector")
        if x.d0 != 0:
            return x.d0 > 0
        rc = self.root_coords(x.finite)
        return any(c != 0 for c in rc) and all(c >= 0 for c in rc)

    def __str__(self) -> str:
        return f"FiniteRootSystem({self.spec})"


def _positive_roots_by_closure(cartan, rank: int):
    """Positive roots as integer simple-root coordinates, by height closure.

    cartan is the integer Cartan matrix. A candidate r + alpha_i at height
    h+1 is a root iff the alpha_i string through r descends further than
    <r, alpha_i_vee>, which only involves roots of height <= h. Returns the
    roots ordered by (height, coordinates) with their integer weight
    coordinates <r, alpha_i_vee>.
    """
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    weights = {}
    layer = simple
    while layer:
        nxt = set()
        for r in layer:
            wc = mat_vec(cartan, r)
            weights[r] = wc
            for i in range(rank):
                down = 0
                probe = list(r)
                while True:
                    probe[i] -= 1
                    if tuple(probe) in weights:
                        down += 1
                    else:
                        break
                if down - wc[i] > 0:
                    cand = list(r)
                    cand[i] += 1
                    nxt.add(tuple(cand))
        layer = nxt
    ordered = sorted(weights, key=lambda r: (sum(r), r))
    return ordered, [weights[r] for r in ordered]


def _root_norm2(coords, weight_coords, d) -> Fraction:
    """(alpha, alpha) = sum_i c_i d_i <alpha, alpha_i_vee> for alpha = sum c_i alpha_i."""
    return sum(c * di * w for c, di, w in zip(coords, d, weight_coords))


def _int_rows(rows) -> IntMatrix:
    """Rows of Fractions as integers; they must be integral."""
    if not all(is_integral_vec(row) for row in rows):
        raise AssertionError("integer root data must be integral")
    return tuple(tuple(int(x) for x in row) for row in rows)


def build_root_system(spec) -> FiniteRootSystem:
    """Construct the full exact datum for a simple type, memoised per type.

    Accepts a RootSystemSpec or a string label; both spellings of a type
    return the same object. Everything downstream (marks, comarks, dual
    marks, lattices, index sets) is derived from the Cartan matrix, not
    hard-coded; the positive roots and their squared lengths come from the
    integer Cartan matrix.
    """
    if not isinstance(spec, RootSystemSpec):
        spec = parse_spec(spec)
    return _build_root_system(spec)


@lru_cache(maxsize=None)
def _build_root_system(spec: RootSystemSpec) -> FiniteRootSystem:
    cartan, d = _cartan_data(spec)
    return _build_from_cartan(spec, cartan, d)


def _build_from_cartan(spec: RootSystemSpec, cartan: Matrix, d) -> FiniteRootSystem:
    rank = len(cartan)
    d = tuple(frac(x) for x in d)
    cartan_int = tuple(tuple(int(x) for x in row) for row in cartan)
    cartan_inv = mat_inv(cartan)
    # G_ij = d_j * (A^-1)_ji, symmetric and positive definite
    gram = tuple(
        tuple(d[j] * cartan_inv[j][i] for j in range(rank)) for i in range(rank)
    )
    root_coords, root_weights = _positive_roots_by_closure(cartan_int, rank)
    pos_roots = tuple(tuple(Fraction(x) for x in wc) for wc in root_weights)
    norms = [_root_norm2(rc, wc, d) for rc, wc in zip(root_coords, root_weights)]

    long_norm = max(norms)
    if long_norm != 2:
        raise AssertionError("long root normalisation broken")
    short_norm = min(norms)
    rvee = int(Fraction(2) / short_norm)
    theta_coords = root_coords[-1]
    theta = pos_roots[-1]
    short_list = [
        (rc, wc)
        for rc, wc, n2 in zip(root_coords, pos_roots, norms)
        if n2 == short_norm
    ]
    theta_short_coords, theta_short = short_list[-1]

    marks = tuple(int(c) for c in theta_coords)
    comarks_f = tuple(frac(c) * d[i] for i, c in enumerate(theta_coords))
    dual_marks_f = tuple(
        rvee * d[i] * frac(c) for i, c in enumerate(theta_short_coords)
    )
    if not is_integral_vec(comarks_f) or not is_integral_vec(dual_marks_f):
        raise AssertionError("comarks and dual marks must be integers")
    comarks = tuple(int(x) for x in comarks_f)
    dual_marks = tuple(int(x) for x in dual_marks_f)
    h = 1 + sum(marks)
    hvee = 1 + sum(comarks)
    if 1 + sum(dual_marks) != h:
        raise AssertionError("dual marks must sum to the Coxeter number minus one")

    simple_roots = tuple(
        tuple(cartan[i][j] for i in range(rank)) for j in range(rank)
    )
    simple_coroots = tuple(
        tuple(cartan[i][j] / d[j] for i in range(rank)) for j in range(rank)
    )
    rho = tuple(Fraction(1) for _ in range(rank))
    rhovee = tuple(1 / d[i] for i in range(rank))

    latt_P = tuple(
        tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank)
    )
    latt_Q = cartan
    latt_Qvee = tuple(
        tuple(cartan[i][j] / d[j] for j in range(rank)) for i in range(rank)
    )
    latt_Qstar = tuple(
        tuple(Fraction(int(i == j)) / d[j] for j in range(rank)) for i in range(rank)
    )

    J = (0,) + tuple(i + 1 for i in range(rank) if marks[i] == 1)
    LJ = (0,) + tuple(i + 1 for i in range(rank) if dual_marks[i] == 1)
    # |P / Q| = det A is the number of nodes of mark one, node 0 included
    order = len(J)
    gram_den = math.lcm(*(x.denominator for row in gram for x in row))
    return FiniteRootSystem(
        spec=spec,
        cartan=cartan,
        cartan_inv=cartan_inv,
        d=d,
        gram=gram,
        simple_roots=simple_roots,
        simple_coroots=simple_coroots,
        positive_roots=pos_roots,
        positive_root_coords=tuple(tuple(int(x) for x in rc) for rc in root_coords),
        theta=theta,
        theta_short=theta_short,
        marks=marks,
        comarks=comarks,
        dual_marks=dual_marks,
        h=h,
        hvee=hvee,
        rvee=rvee,
        rho=rho,
        rhovee=rhovee,
        J=J,
        LJ=LJ,
        latt_P=latt_P,
        latt_Q=latt_Q,
        latt_Qvee=latt_Qvee,
        latt_Qstar=latt_Qstar,
        fundamental_group_order=order,
        cartan_adj=_int_rows([[order * x for x in row] for row in cartan_inv]),
        gram_num=_int_rows([[gram_den * x for x in row] for row in gram]),
        gram_den=gram_den,
        # alpha_vee = sum_i c_i (d_i / d_alpha) alpha_i_vee, 2 d_alpha = (alpha, alpha)
        coroot_coords=_int_rows([
            [2 * c * di / n2 for c, di in zip(rc, d)]
            for rc, n2 in zip(root_coords, norms)
        ]),
        coroot_steps=_int_rows([[2 / n2 for n2 in norms]])[0],
    )


_TWISTED_NAME = {
    "B": lambda n: f"D{n + 1}^(2)",
    "C": lambda n: f"A{2 * n - 1}^(2)",
    "F": lambda n: "E6^(2)",
    "G": lambda n: "D4^(3)",
}


@dataclass(frozen=True)
class TwistedAffineDatum:
    """Coroot basis and fundamental weights of the twisted partner algebra.

    coroot_basis holds nu images; index 0 is nu applied to the coroot
    K minus the highest coroot, that is delta - rvee * theta_short,
    followed by the finite simple coroots.
    circ_lambda[i] are the weights dual to that basis; their levels sum to
    circ_rho_level, the level of their total.
    """

    base: FiniteRootSystem
    twisted_type: str
    circ_rho_level: Fraction
    coroot_basis: Tuple[AffineWeight, ...]
    circ_lambda: Tuple[AffineWeight, ...]
    twisted_cartan: Matrix


def langlands_dual_datum(rs: FiniteRootSystem) -> TwistedAffineDatum:
    """Twisted affine datum attached to a non simply laced type."""
    if rs.rvee == 1:
        raise InvalidTypeError(
            f"{rs.spec} is simply laced and has no twisted affine partner"
        )
    name = _TWISTED_NAME[rs.spec.family](rs.rank)
    theta_vee_long = rs.theta_short_coroot_image()
    basis = [AffineWeight(vec_neg(theta_vee_long), Fraction(0), Fraction(1))]
    for j in range(rs.rank):
        basis.append(affine(rs.simple_coroots[j]))
    lambdas = [rs.lambda0()]
    for i in range(1, rs.rank + 1):
        lambdas.append(
            AffineWeight(
                rs.fundamental_weight(i), Fraction(rs.dual_marks[i - 1]), Fraction(0)
            )
        )
    n = rs.rank + 1
    cart = tuple(
        tuple(
            2 * rs.inner(basis[i], basis[j]) / rs.inner(basis[i], basis[i])
            for j in range(n)
        )
        for i in range(n)
    )
    for row in cart:
        if not is_integral_vec(row):
            raise AssertionError("twisted Cartan matrix must be integral")
    return TwistedAffineDatum(
        base=rs,
        twisted_type=name,
        circ_rho_level=Fraction(rs.h),
        coroot_basis=tuple(basis),
        circ_lambda=tuple(lambdas),
        twisted_cartan=mat_from_rows(cart),
    )


@lru_cache(maxsize=None)
def dual_root_system(rs: FiniteRootSystem) -> FiniteRootSystem:
    """Root system whose roots are the rescaled coroots of rs, memoised.

    The Cartan matrix transposes and d_i becomes 1 / (rvee * d_i); node
    numbering is preserved. Simply laced types are self dual. Every call on
    an equal system returns the same object, so the caches keyed on the dual
    system hit.
    """
    cartan = transpose(rs.cartan)
    d = tuple(Fraction(1) / (rs.rvee * di) for di in rs.d)
    return _build_from_cartan(rs.spec, cartan, d)

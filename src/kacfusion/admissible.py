"""Admissible weights of rational level and their chamber labels.

A level is encoded by coprime positive integers p, q with k = p/q - hvee.
Every admissible weight lambda arises as lambda + rho = t_beta ybar phi(nu)
modulo delta, where nu is a regular dominant integral weight of level p in
the denominator-1 chamber, phi rescales Lambda0 by 1/q, ybar is a finite
Weyl element and beta lies in the coweight lattice Qstar. The pair
(ybar, beta) is constrained so that the transported chamber basis consists
of positive coroots; each weight admits exactly |J| such triples, related
by the extended generators sigma_j (Kac-Wakimoto 1989, Thm 2.1).

The pairs are enumerated from the closed level-q alcove of Qstar: beta =
-ybar(eta) for an alcove point eta and ybar one of the minimal coset
representatives of W modulo the stabiliser of eta, which an integer gallery
search over simple reflections lists without enumerating W.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Tuple

from .errors import ChamberError, LatticeError, LevelError
from .ratlin import frac, int_vector, is_integral_vec, vec, vec_add, vec_scale, vec_sub
from .rootsys import AffineWeight, FiniteRootSystem, FiniteWeight
from .weyl import (
    WeylElement,
    _affine_reduce,
    _cartan_columns,
    _node0_data,
    _reflect_rows,
    extended_generators,
    to_dominant,
)

__all__ = [
    "AdmissibleLabel",
    "LevelData",
    "decompose_mu",
    "enumerate_admissible",
    "is_admissible",
    "label_from_mu",
    "label_is_degenerate",
    "verify_admissible",
]


@dataclass(frozen=True)
class LevelData:
    """A rational level k = p/q - hvee together with its chamber variant."""

    rs: FiniteRootSystem
    p: int
    q: int
    variant: str

    @classmethod
    def from_pq(cls, rs: FiniteRootSystem, p: int, q: int, variant: str = None):
        if p <= 0 or q <= 0:
            raise LevelError("p and q must be positive")
        if gcd(p, q) != 1:
            raise LevelError(f"p = {p} and q = {q} are not coprime")
        inferred = (
            "coprincipal" if rs.rvee > 1 and q % rs.rvee == 0 else "principal"
        )
        if variant is None:
            variant = inferred
        elif variant not in ("principal", "coprincipal"):
            raise LevelError(f"unknown variant {variant!r}")
        elif variant != inferred:
            if variant == "coprincipal":
                raise LevelError(
                    f"coprincipal levels need rvee = {rs.rvee} > 1 dividing q = {q}"
                )
            raise LevelError(
                f"denominator {q} divisible by rvee = {rs.rvee} is coprincipal"
            )
        bound = rs.hvee if variant == "principal" else rs.h
        if p < bound:
            raise LevelError(
                f"no {variant} admissible weights for {rs.spec}: p = {p} < {bound}"
            )
        return cls(rs, p, q, variant)

    @classmethod
    def from_level(cls, rs: FiniteRootSystem, k, variant: str = None):
        m = frac(k) + rs.hvee
        if m <= 0:
            raise LevelError(f"level {k} is not above the critical level")
        return cls.from_pq(rs, m.numerator, m.denominator, variant)

    @property
    def k(self) -> Fraction:
        return Fraction(self.p, self.q) - self.rs.hvee

    @property
    def m(self) -> Fraction:
        """The shifted level k + hvee = p/q."""
        return Fraction(self.p, self.q)

    @property
    def central_charge(self) -> Fraction:
        """Virasoro central charge of the level-k vacuum module."""
        return self.k * self.rs.dim_g / self.m

    @property
    def node0_coeffs(self) -> Tuple[int, ...]:
        coeffs, _ = _node0_data(self.rs, self.variant)
        return coeffs

    @property
    def translation_lattice(self):
        """Generator matrix of the lattice L with W_(q) = W x t_{qL}."""
        return self.rs.latt_Qvee if self.variant == "principal" else self.rs.latt_Q

    def __str__(self) -> str:
        return f"LevelData({self.rs.spec}, p={self.p}, q={self.q}, {self.variant})"


@dataclass(frozen=True)
class AdmissibleLabel:
    """An admissible weight with one canonical chamber triple.

    lam + rho = t_beta ybar phi(nu) modulo delta: nu is the regular dominant
    integral weight of level p, ybar the finite Weyl part, beta the
    translation in Qstar. lam carries level k and d0 = 0.
    """

    nu: AffineWeight
    ybar: WeylElement
    beta: FiniteWeight
    lam: AffineWeight

    def __str__(self) -> str:
        lam = ",".join(str(x) for x in self.lam.finite)
        return f"AdmissibleLabel([{lam}]; level {self.lam.k0})"


def _dominant_weights(coeffs, level: int) -> Tuple[Tuple[int, ...], ...]:
    """Dominant integral weights with sum c_i lambda_i <= level, sorted.

    The weights are integer tuples; callers build Fractions where they keep
    a weight.
    """
    out = []

    def rec(prefix, used):
        i = len(prefix)
        if i == len(coeffs):
            out.append(tuple(prefix))
            return
        for n in range((level - used) // coeffs[i] + 1):
            rec(prefix + [n], used + coeffs[i] * n)

    rec([], 0)
    return tuple(out)


def _chamber_points(ld: LevelData) -> Tuple[Tuple[int, ...], ...]:
    """Regular dominant integral weights of level p in the q = 1 chamber.

    Coordinates satisfy n_i >= 1 with sum c_i n_i <= p - 1, where c are the
    node-0 pairing coefficients of the variant: rho = (1, ..., 1) plus the
    dominant weights with sum c_i lambda_i <= p - 1 - sum c_i. Output is
    sorted integer tuples.
    """
    coeffs = ld.node0_coeffs
    return tuple(
        tuple(x + 1 for x in lam)
        for lam in _dominant_weights(coeffs, ld.p - 1 - sum(coeffs))
    )


def _chamber_nu(ld: LevelData):
    """The chamber points as AffineWeights of level p, in the same order."""
    return tuple(
        AffineWeight(vec(nu), Fraction(ld.p), Fraction(0)) for nu in _chamber_points(ld)
    )


def _triple_key(nu: AffineWeight, ybar: WeylElement, beta):
    return (nu.finite, tuple(beta), ybar.matrix)


def _sigma_orbit(ld: LevelData, nu: AffineWeight, ybar: WeylElement, beta):
    """All |J| chamber triples of the weight represented by (nu, ybar, beta)."""
    rs = ld.rs
    out = []
    for sig in extended_generators(rs, ld.variant):
        sbar, b = sig.wbar, sig.beta
        nu_j = AffineWeight(
            vec_add(sbar.act(nu.finite), vec_scale(Fraction(ld.p), b)),
            nu.k0,
            Fraction(0),
        )
        sinv = sbar.inverse()
        w_j = ybar.compose(sinv)
        beta_j = vec_sub(beta, vec_scale(Fraction(ld.q), w_j.act(b)))
        out.append((nu_j, w_j, vec(beta_j)))
    out.sort(key=lambda t: _triple_key(*t))
    return out


def _alcove_reps(ld: LevelData, eta):
    """The finite Weyl elements ybar with ybar(pi) > 0 for every wall pi of eta.

    The walls are alpha_i where eta_i = 0, and -theta0 where eta lies on the
    node-0 wall sum c_i eta_i = q; the ybar are one per coset of W modulo
    the stabiliser of eta. Their chambers ybar^-1(rho) fill the convex cone
    (x, pi_vee) > 0, so they are gallery connected: s_i ybar is one of them
    unless ybar(pi) = alpha_i for a wall pi. The search starts from the
    chamber of N (q rho - H eta) + rho, H = 1 + sum c_i, a regular point of
    the cone since N = h exceeds every (rho, alpha_vee); elements are keyed
    by ybar(rho), and each step is a rank-one update of the matrix rows.
    """
    rs = ld.rs
    coeffs, theta0 = _node0_data(rs, ld.variant)
    cols = _cartan_columns(rs)
    simple = [tuple(int(x) for x in col) for col in zip(*rs.cartan)]
    walls = [simple[i] for i, x in enumerate(eta) if x == 0]
    if sum(c * x for c, x in zip(coeffs, eta)) == ld.q:
        walls.append(tuple(-int(x) for x in theta0))
    big = 1 + sum(coeffs)
    w, _ = to_dominant(rs, [rs.h * (ld.q - big * x) + 1 for x in eta])
    stack = [([list(row) for row in w.matrix], w.sign)]
    seen = {tuple(map(sum, w.matrix))}
    while stack:
        mat, sign = stack.pop()
        ybar = WeylElement(tuple(map(tuple, mat)), sign)
        yield ybar
        images = [ybar.act(pi) for pi in walls]
        for i, root in enumerate(cols):
            if simple[i] in images:
                continue
            child = list(mat)
            _reflect_rows(child, mat[i], root)
            key = tuple(map(sum, child))
            if key not in seen:
                seen.add(key)
                stack.append((child, -sign))


@lru_cache(maxsize=None)
def enumerate_admissible(ld: LevelData):
    """All admissible weights of the level, sorted by finite coordinates.

    The classes of Qstar / qL are the W-translates of the points eta of
    Qstar in the closed level-q alcove, beta = -ybar(eta) with ybar from
    _alcove_reps (the rho tie-break of a chamber reduction of -beta, worked
    out). Qstar coordinates are the multiples of 1/d_i, so eta_i = n_i / d_i
    with n dominant and sum (c_i / d_i) n_i <= q. With nu over the q = 1
    chamber, q mu = ybar(q nu - p eta) is an integer vector. Each weight
    must be reached exactly |J| times (|LJ| for the coprincipal variant),
    once per sigma twist, and is stored with its least triple (nu, beta,
    ybar).
    """
    rs = ld.rs
    p, q = ld.p, ld.q
    nodes = rs.J if ld.variant == "principal" else rs.LJ
    chamber = dict(zip(_chamber_points(ld), _chamber_nu(ld)))
    steps = [int(1 / di) for di in rs.d]
    found = {}
    for pt in _dominant_weights([c * s for c, s in zip(ld.node0_coeffs, steps)], q):
        eta = [n * s for n, s in zip(pt, steps)]
        for ybar in _alcove_reps(ld, eta):
            beta = tuple(-x for x in ybar.act(eta))
            for nu in chamber:
                qmu = ybar.act([q * a - p * b for a, b in zip(nu, eta)])
                found.setdefault(qmu, []).append((nu, beta, ybar))
    labels = []
    for qmu in sorted(found):
        triples = found[qmu]
        if len(triples) != len(nodes):
            raise AssertionError(
                f"weight reached {len(triples)} times, expected {len(nodes)}"
            )
        nu, beta, ybar = min(triples, key=lambda t: (t[0], t[1], t[2].matrix))
        # lam = mu - rho with rho = (1, ..., 1)
        lam = tuple(Fraction(x - q, q) for x in qmu)
        labels.append(AdmissibleLabel(
            chamber[nu], ybar, vec(beta), AffineWeight(lam, ld.k, Fraction(0))
        ))
    return tuple(labels)


def decompose_mu(ld: LevelData, mu):
    """All |J| chamber triples (nu, ybar, beta) with mu = ybar(nu) + (p/q) beta.

    mu is the finite part of lambda + rho at level p/q. The splitting uses
    Bezout coefficients for (p, q), then a chamber reduction at denominator 1;
    a wall hit means mu is not regular. Validity of the result (nu integral,
    beta in Qstar) is checked by label_from_mu, not here.
    """
    rs = ld.rs
    mu = vec(mu)
    u_bez, v_bez = _bezout(ld.p, ld.q)
    w = vec_scale(Fraction(ld.q), mu)
    nu0 = vec_scale(Fraction(v_bez), w)
    beta0 = vec_scale(Fraction(u_bez), w)
    # The Bezout split leaves beta0 in the weight lattice; shift the pair by
    # (q pi, -p pi) with pi in P to move beta0 into Qstar, whose i-th
    # coordinates are the multiples of 1/d_i: one condition per coordinate.
    pi = []
    for b, di in zip(beta0, rs.d):
        step = int(1 / di)
        shift = next((j for j in range(step) if (b + ld.q * j) % step == 0), None)
        if shift is None:
            raise LatticeError("weight does not split over the coweight lattice")
        pi.append(shift)
    beta0 = vec_add(beta0, vec_scale(ld.q, pi))
    nu0 = vec_sub(nu0, vec_scale(ld.p, pi))
    red, fin = _affine_reduce(rs, 1, ld.variant, Fraction(ld.p), nu0)
    coeffs = ld.node0_coeffs
    node0 = ld.p - sum(coeffs[i] * fin[i] for i in range(rs.rank))
    if node0 == 0 or any(x == 0 for x in fin):
        raise ChamberError("weight is not regular at this level")
    wprime = red.wbar
    winv = wprime.inverse()
    nu = AffineWeight(vec(fin), Fraction(ld.p), Fraction(0))
    ybar = winv
    beta = vec_sub(beta0, vec_scale(Fraction(ld.q), winv.act(red.beta)))
    return tuple(_sigma_orbit(ld, nu, ybar, beta))


def _bezout(p: int, q: int):
    """(u, v) with u p + v q = 1."""
    u, v = 0, 1
    u1, v1, a, b = 1, 0, p, q
    while b:
        t = a // b
        a, b = b, a - t * b
        u1, u = u, u1 - t * u
        v1, v = v, v1 - t * v
    if a != 1:
        raise LevelError(f"p = {p} and q = {q} are not coprime")
    return u1, v1


def label_from_mu(ld: LevelData, mu) -> AdmissibleLabel:
    """The admissible label with lambda + rho having finite part mu.

    Raises LatticeError when mu does not decompose over integral nu and
    beta in Qstar, and ChamberError when mu is non-regular.
    """
    rs = ld.rs
    triples = decompose_mu(ld, mu)
    nu, ybar, beta = triples[0]
    if not is_integral_vec(nu.finite):
        raise LatticeError("chamber weight nu is not integral")
    coeffs = ld.node0_coeffs
    node0 = ld.p - sum(coeffs[i] * nu.finite[i] for i in range(rs.rank))
    if node0 < 1 or any(x < 1 for x in nu.finite):
        raise ChamberError("chamber weight nu is not regular dominant")
    if not rs.in_lattice(rs.latt_Qstar, beta):
        raise LatticeError("translation part beta lies outside Qstar")
    lam = AffineWeight(vec_sub(vec(mu), rs.rho), ld.k, Fraction(0))
    return AdmissibleLabel(nu, ybar, beta, lam)


def _shifted_by_rho(fin):
    """(u, den) with fin + rho = u / den, den the least common denominator.

    rho is (1, ..., 1), so the shift adds den to the numerators of fin.
    """
    u, den = int_vector(fin)
    return tuple(x + den for x in u), den


def _progressions(ld: LevelData, lam):
    """The progressions of verify_admissible with an integral value in their
    first period: (alpha, sign s, the m's of those values, whether the first
    value is positive) per finite root direction and sign."""
    rs = ld.rs
    fin = lam.finite if isinstance(lam, AffineWeight) else vec(lam)
    if isinstance(lam, AffineWeight) and lam.k0 != ld.k:
        raise LevelError(f"weight has level {lam.k0}, expected {ld.k}")
    # lam + rho = u / den, and <lam + rho, alpha_vee> = (row . u) / den
    u, den = _shifted_by_rho(fin)
    p, q = ld.p, ld.q
    for alpha, row, s in zip(rs.positive_roots, rs.coroot_coords, rs.coroot_steps):
        v = sum(a * x for a, x in zip(row, u))
        for sign, start in ((1, 0), (-1, s)):
            # the value at m is (sign v q + m p den) / (q den)
            ms = [m for m in range(start, start + q * s, s)
                  if (sign * v * q + m * p * den) % (q * den) == 0]
            if ms:
                yield alpha, sign * s, ms, sign * v * q + ms[0] * p * den > 0


def is_admissible(ld: LevelData, lam) -> bool:
    """The ok flag of verify_admissible, without building the coroots."""
    return all(positive for *_, positive in _progressions(ld, lam))


def verify_admissible(ld: LevelData, lam):
    """Check the pairing condition of admissibility directly.

    lam is an AffineWeight of level k or its finite coordinates. For every
    positive real coroot gamma the value <lam + rho, gamma> must avoid the
    nonpositive integers. Per finite root direction and sign these values
    are v + m p/q over m in a progression of step s = 2 / (alpha, alpha);
    they grow and are integral with period q s in m, so the weight is
    admissible exactly when the first integral value of each progression,
    which lies in its first period, is positive. Returns (ok,
    integral_coroots) where the second entry holds one coroot per direction
    and residue class with an integral pairing (delta coefficients within
    the first period). The coroot image 2 alpha / (alpha, alpha) is s alpha,
    and rho is (1, ..., 1), so lam + rho = (u + den) / den for lam = u / den:
    the pairings are integer sums.
    """
    zero = Fraction(0)
    ok = True
    hits = []
    for alpha, step, ms, positive in _progressions(ld, lam):
        ok = ok and positive
        av = tuple(Fraction(step * int(x)) for x in alpha)
        hits.extend(AffineWeight(av, zero, Fraction(m)) for m in ms)
    return ok, tuple(hits)


def label_is_degenerate(ld: LevelData, label: AdmissibleLabel) -> bool:
    """Whether some finite positive coroot pairs integrally with lam + rho.

    The pairings are integer sums over lam + rho = (u + den) / den, the rho
    shift taken on the integer numerators.
    """
    rs = ld.rs
    u, den = _shifted_by_rho(label.lam.finite)
    return any(
        sum(a * x for a, x in zip(row, u)) % den == 0 for row in rs.coroot_coords
    )

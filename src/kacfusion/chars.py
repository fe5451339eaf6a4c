"""Characters of admissible modules as convergent q-series.

Characters are ratios of alternating sums of lattice theta functions. All
modular weights and prefactor exponents are carried as exact rationals;
floating point enters through the lattice sums. Every lattice sum is
truncated to a ball about the peak of its Gaussian, with the smallest radius
whose proved bound on the omitted terms is at most the requested tolerance,
and that bound is returned with the value. The numerator of a character is
one batched sum over the theta labels q w(nu) + p beta of all w in W. The
Weyl denominator and the x -> 0 limits (psi and the character at x = 0) are
closed forms from the Macdonald identity. The scalar Jacobi theta function
and its modular transform serve as the base case for verification.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Tuple

import numpy as np

from .admissible import AdmissibleLabel, LevelData
from .errors import CapacityError, InvalidTypeError, PolarPointError
from .ratlin import lattice_coset_reps, mat_inv, transpose
from .rootsys import FiniteRootSystem
from .weyl import enumerate_weyl

__all__ = [
    "EvalPoint",
    "SeriesEval",
    "char_at_zero",
    "char_chi",
    "char_numerator",
    "dedekind_eta",
    "dual_lattice",
    "psi_w",
    "theta_g",
    "theta_jacobi",
    "theta_jacobi_check",
    "theta_jacobi_sum",
    "theta_lattice",
    "theta_lattice_check",
]

_TWO_PI_I = 2j * math.pi

# Theta labels are summed in blocks of about this many candidate lattice
# points, so the working arrays stay small whatever the number of labels.
_BLOCK_POINTS = 1 << 12


@dataclass(frozen=True)
class EvalPoint:
    """An evaluation point (tau, x, t) with tau in the upper half plane.

    x holds complex coordinates over the fundamental weights; pairings use
    the invariant form.
    """

    tau: complex
    x: Tuple[complex, ...] = ()
    t: complex = 0j

    def __post_init__(self):
        if not (self.tau.imag > 0):
            raise InvalidTypeError("tau must lie in the upper half plane")
        object.__setattr__(self, "tau", complex(self.tau))
        object.__setattr__(self, "x", tuple(complex(v) for v in self.x))
        object.__setattr__(self, "t", complex(self.t))

    def x_or_zero(self, rank: int) -> Tuple[complex, ...]:
        if len(self.x) == 0:
            return (0j,) * rank
        if len(self.x) != rank:
            raise InvalidTypeError(
                f"evaluation point has {len(self.x)} coordinates, expected {rank}"
            )
        return self.x


@dataclass(frozen=True)
class SeriesEval:
    """A truncated series value, the number of lattice points kept and a
    proved bound on the modulus of the omitted terms."""

    value: complex
    truncation_order: int
    tail_bound: float


def theta_jacobi(tau: complex, z: complex, tol: float = 1e-15) -> complex:
    """The odd Jacobi theta function in product form.

    Theta(tau, z) = q^{1/12} e^{-pi i z} prod_{n>=1}
    (1 - e^{2 pi i z} q^{n-1}) (1 - e^{-2 pi i z} q^n), q = e^{2 pi i tau}.
    It vanishes for z in Z + tau Z, is odd in z, and satisfies
    Theta(-1/tau, z/tau) = -i e^{pi i z^2 / tau} Theta(tau, z).
    """
    if not (complex(tau).imag > 0):
        raise InvalidTypeError("tau must lie in the upper half plane")
    q = cmath.exp(_TWO_PI_I * tau)
    w = cmath.exp(_TWO_PI_I * z)
    out = cmath.exp(_TWO_PI_I * tau / 12) * cmath.exp(-1j * math.pi * z)
    a = w  # e^{2 pi i z} q^{n-1}
    b = w ** -1 * q  # e^{-2 pi i z} q^n
    for n in range(1, 10001):
        out *= (1 - a) * (1 - b)
        a *= q
        b *= q
        if abs(a) < tol and abs(b) < tol and n > 4:
            return out
    raise CapacityError("Jacobi theta product did not converge in 10000 factors")


def theta_jacobi_sum(tau: complex, z: complex, terms: int = 64) -> complex:
    """Sum-form evaluation of theta_jacobi through the triple product.

    q^{1/12} e^{-pi i z} sum_n (-1)^n q^{n(n-1)/2} e^{2 pi i n z}
    divided by prod_{m>=1} (1 - q^m). Slower; used as a cross check.
    """
    q = cmath.exp(_TWO_PI_I * tau)
    w = cmath.exp(_TWO_PI_I * z)
    s = 0j
    for n in range(-terms, terms + 1):
        s += (-1) ** n * q ** (Fraction(n * (n - 1), 2)) * w**n
    denom = 1 + 0j
    for m in range(1, 4 * terms):
        denom *= 1 - q**m
    return cmath.exp(_TWO_PI_I * tau / 12) * cmath.exp(-1j * math.pi * z) * s / denom


def theta_jacobi_check(tau: complex, z: complex) -> dict:
    """Residual of Theta(-1/tau, z/tau) = -i e^{pi i z^2/tau} Theta(tau, z)."""
    lhs = theta_jacobi(-1 / tau, z / tau)
    rhs = -1j * cmath.exp(1j * math.pi * z * z / tau) * theta_jacobi(tau, z)
    return {"lhs": lhs, "rhs": rhs, "abs_error": abs(lhs - rhs)}


def dedekind_eta(tau: complex, tol: float = 1e-15) -> complex:
    """eta(tau) = q^{1/24} prod_{n>=1} (1 - q^n)."""
    q = cmath.exp(_TWO_PI_I * tau)
    out = cmath.exp(_TWO_PI_I * tau / 24)
    qn = q
    for n in range(1, 10001):
        out *= 1 - qn
        qn *= q
        if abs(qn) < tol and n > 4:
            return out
    raise CapacityError("eta product did not converge in 10000 factors")


def dual_lattice(rs: FiniteRootSystem, lattice) -> tuple:
    """Generator matrix of the dual lattice under the invariant form."""
    gl = tuple(
        tuple(sum(rs.gram[i][k] * lattice[k][j] for k in range(rs.rank))
              for j in range(rs.rank))
        for i in range(rs.rank)
    )
    return transpose(mat_inv(gl))


def _readonly(a: np.ndarray) -> np.ndarray:
    """An array that a cache hands to every caller, made read-only."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _gram(rs: FiniteRootSystem) -> np.ndarray:
    """The invariant form on fundamental weight coordinates, in floats."""
    return _readonly(np.array(rs.gram_num, dtype=float) / rs.gram_den)


@dataclass(frozen=True)
class _Lattice:
    """Float data of a lattice L (generators as columns), built once per
    (root system, lattice)."""

    gram: np.ndarray
    basis: np.ndarray
    basis_inv: np.ndarray
    # L^T G L, the form on coefficients over L
    coeff_gram: np.ndarray
    # sqrt of the diagonal of (L^T G L)^-1: the half-widths, in coefficients
    # over L, of the box around a ball of unit radius
    widths: np.ndarray
    # the largest distance from the centre of a unit coefficient cell to
    # one of its corners
    cell: float
    # half of sqrt(lambda_min(L^T G L)), a lower bound for half the shortest
    # nonzero vector, so balls of m * packing about the points of mu + mL
    # are disjoint
    packing: float


@lru_cache(maxsize=None)
def _lattice(rs: FiniteRootSystem, lattice) -> _Lattice:
    G = _gram(rs)
    L = np.array([[float(x) for x in row] for row in lattice])
    Gc = L.T @ G @ L
    signs = np.array(list(product((-0.5, 0.5), repeat=len(L))))
    return _Lattice(
        gram=G,
        basis=_readonly(L),
        basis_inv=_readonly(np.linalg.inv(L)),
        coeff_gram=_readonly(Gc),
        widths=_readonly(np.sqrt(np.diag(np.linalg.inv(Gc)))),
        cell=math.sqrt(np.einsum("ij,jk,ik->i", signs, Gc, signs).max()),
        # the margin covers the rounding of the eigenvalue
        packing=math.sqrt(np.linalg.eigvalsh(Gc)[0] * (1 - 1e-9)) / 2,
    )


def _scaled_upper_gammas(top: int, x: float) -> list:
    """e^x Gamma(k/2 + 1, x) for k = 0..top.

    From Gamma(s + 1, x) = s Gamma(s, x) + x^s e^-x, starting at
    Gamma(1, x) = e^-x and Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)); past
    x = 700, where e^x overflows, e^x Gamma(1/2, x) is bounded by 1/sqrt(x).
    """
    g_half = (math.sqrt(math.pi) * math.erfc(math.sqrt(x)) * math.exp(x)
              if x < 700 else 1 / math.sqrt(x))
    g = [1.0, g_half / 2 + math.sqrt(x)]
    for k in range(top - 1):
        g.append((k / 2 + 1) * g[k] + x ** (k / 2 + 1))
    return g[: top + 1]


def _log_tail(x: float, n: int, u: float, degree: int) -> float:
    """log of sum_j C(n, j) u^-j Gamma((j + degree)/2 + 1, x), j = 0..n."""
    g = _scaled_upper_gammas(n + degree, x)
    return -x + math.log(sum(math.comb(n, j) * u ** -j * g[j + degree]
                             for j in range(n + 1)))


def _truncation(n: int, u: float, log_scale: float, degree: int, tol: float):
    """The least x = a R^2 whose tail bound e^log_scale * e^_log_tail is <= tol.

    The log of every Gamma(s, x) with s >= 1 falls with slope in [-1, 0], so
    the steps x += log(bound / tol) approach that x from below; each step
    overshoots by 1e-6 so that the loop ends with the bound at most tol. The
    start x = degree / 2 puts R past the maximum of R^degree e^{-a R^2}.
    Returns (x, bound).
    """
    log_tol = math.log(tol)
    x = degree / 2
    excess = log_scale + _log_tail(x, n, u, degree) - log_tol
    while excess > 0:
        x += excess + 1e-6
        excess = log_scale + _log_tail(x, n, u, degree) - log_tol
    if not excess <= 0:
        raise CapacityError("theta tail bound is not finite")
    return x, math.exp(log_tol + excess)


def _theta_sums(lat: _Lattice, mus: np.ndarray, m: int, tau: complex, z: np.ndarray,
                tol: float, max_points: int = 2_000_000, weights: np.ndarray = None):
    """Truncated theta sums over mu + m L for every row mu of mus.

    Each sum is over the points X of the coset of the terms
    q^{|X|^2 / 2m} e^{2 pi i (X, z)}, times prod_k weights[k] . X when
    weights (rows of complex coefficients, which need z real) are given.
    |term| = K e^{-a |X - c|^2} with a = pi Im tau / m, peak
    c = -(m / Im tau) Im z and K = e^{pi^2 |Im z|^2 / a}, so the points kept
    are those with |X - c| <= R.

    The tail bound: balls of radius r = m * lat.packing about the points of
    the coset are disjoint, so at most ((t + r) / r)^n of them lie within t
    of c; Stieltjes integration of the Gaussian against that count gives
    tail <= K sum_j C(n, j) r^-j a^{-j/2} Gamma(j/2 + 1, a R^2). A weight
    adds |X|^d with d forms of norms |w_k|: the factor prod_k |w_k| a^{-d/2}
    and j -> j + d inside Gamma, valid once R^2 >= d / 2a. R is the least
    radius whose bound is at most tol. The bound holds for each label alike.

    Candidates are the points of the integer box about each label's center
    that can lie within R, in blocks of about _BLOCK_POINTS points;
    max_points bounds the box of one label.
    Returns (sums, counts, bound): complex sums and numbers of kept points,
    one per label, and the bound.
    """
    tau = complex(tau)
    if not tau.imag > 0:
        raise InvalidTypeError("tau must lie in the upper half plane")
    if not tol > 0:
        raise InvalidTypeError("the tolerance must be positive")
    G = lat.gram
    n = G.shape[0]
    a = math.pi * tau.imag / m
    y = z.imag
    c = -(m / tau.imag) * y
    log_scale = math.pi * m * float(y @ G @ y) / tau.imag
    degree = 0 if weights is None else len(weights)
    if degree:
        if y.any():
            raise InvalidTypeError("weighted theta sums need a real z")
        norms2 = np.einsum("kj,jk->k", weights, np.linalg.solve(G, weights.conj().T))
        log_scale += float(np.log(norms2.real).sum()) / 2 - degree * math.log(a) / 2
    x, bound = _truncation(n, m * lat.packing * math.sqrt(a), log_scale, degree, tol)
    R2 = x / a

    # the margin keeps points at distance R inside the box despite rounding
    half = math.sqrt(R2) / m * lat.widths * (1 + 1e-9)
    sizes = np.floor(2 * half).astype(int) + 1
    per_label = int(np.prod(sizes))
    if per_label > max_points:
        raise CapacityError(
            f"lattice theta enumeration needs {per_label} points per label, "
            f"above {max_points}"
        )
    # corner = k0 - half + e with e in [0, 1)^n, so the offset of a point
    # within R / m of k0 lies within R / m + lat.cell of half - 1/2
    offsets = np.indices(sizes).reshape(n, -1).T
    d = offsets + 0.5 - half
    reach2 = (math.sqrt(R2) / m + lat.cell) ** 2 * (1 + 1e-12)
    offsets = offsets[np.einsum("ij,jk,ik->i", d, lat.coeff_gram, d) <= reach2]
    V = m * offsets @ lat.basis.T
    VG = V @ G
    vv = np.einsum("ij,ij->i", V, VG)
    Gz = G @ z
    corners = np.ceil((c - mus) @ lat.basis_inv.T / m - half)
    X0 = mus + m * corners @ lat.basis.T
    keep_r2 = R2 * (1 + 1e-12)
    k = len(mus)
    sums = np.zeros(k, dtype=complex)
    counts = np.zeros(k, dtype=int)
    step = max(1, _BLOCK_POINTS // len(V))
    for lo in range(0, k, step):
        x0 = X0[lo:lo + step]
        d0 = x0 - c
        dist2 = (np.einsum("ij,ij->i", d0 @ G, d0)[:, None]
                 + 2 * (d0 @ VG.T) + vv[None, :])
        rows, cols = np.nonzero(dist2 <= keep_r2)
        X = x0[rows] + V[cols]
        norms = np.einsum("ij,ij->i", X @ G, X)
        terms = np.exp(_TWO_PI_I * (tau * norms / (2 * m) + X @ Gz))
        if degree:
            terms = terms * np.prod(X @ weights.T, axis=1)
        nb = len(x0)
        sums[lo:lo + nb] = (np.bincount(rows, terms.real, nb)
                            + 1j * np.bincount(rows, terms.imag, nb))
        counts[lo:lo + nb] = np.bincount(rows, minlength=nb)
    return sums, counts, bound


def _floats(v) -> np.ndarray:
    return np.array([float(Fraction(x)) for x in v])


def theta_lattice(
    rs: FiniteRootSystem,
    lattice,
    mu,
    m: int,
    tau: complex,
    z=None,
    t: complex = 0j,
    tol: float = 1e-10,
    max_points: int = 2_000_000,
) -> SeriesEval:
    """Theta function of a lattice with elliptic and modular variables.

    Theta_{mu,m}(tau, z, t) = e^{2 pi i m t} sum_{gamma in lattice}
    q^{|mu + m gamma|^2 / 2m} e^{2 pi i (mu + m gamma, z)}.
    The sum keeps the points in the least ball about the Gaussian's peak
    whose proved bound on the omitted terms is at most tol; that bound is
    the returned tail_bound and truncation_order counts the kept points.
    """
    z = np.zeros(rs.rank, dtype=complex) if z is None else np.array(z, dtype=complex)
    pref = cmath.exp(_TWO_PI_I * m * complex(t))
    sums, counts, bound = _theta_sums(_lattice(rs, lattice), _floats(mu)[None, :],
                                      m, tau, z, tol / abs(pref), max_points)
    return SeriesEval(pref * complex(sums[0]), int(counts[0]), abs(pref) * bound)


def theta_lattice_check(
    rs: FiniteRootSystem,
    lattice,
    mu,
    m: int,
    tau: complex,
    z=None,
    t: complex = 0j,
    tol: float = 1e-10,
    max_points: int = 2_000_000,
) -> dict:
    """Residual of the modular transform of a lattice theta function.

    Theta_mu(-1/tau, z/tau, t - (z,z)/2tau) = (-i tau)^{rank/2}
    |L*/mL|^{-1/2} sum_{mu' in L*/mL} e^{-2 pi i (mu, mu')/m}
    Theta_mu'(tau, z, t). Every theta function is summed to tol; the
    right side is one batched sum over the coset representatives mu'.
    """
    n = rs.rank
    lat = _lattice(rs, lattice)
    zc = np.zeros(n, dtype=complex) if z is None else np.array(z, dtype=complex)
    zz = complex(zc @ lat.gram @ zc)
    tau = complex(tau)
    lhs = theta_lattice(rs, lattice, mu, m, -1 / tau, zc / tau,
                        complex(t) - zz / (2 * tau), tol=tol, max_points=max_points)
    # over the dual basis (L*)_i, with columns (G L)^-T, m L has the
    # coefficients m (L_i, L_j); the representatives come as coefficients
    cols = transpose(lattice)
    mL = tuple(tuple(m * rs.inner_finite(a, b) for b in cols) for a in cols)
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    reps = (np.array(lattice_coset_reps(eye, mL), dtype=float)
            @ np.linalg.inv(lat.gram @ lat.basis))
    tpref = cmath.exp(_TWO_PI_I * m * complex(t))
    sums, _, bound = _theta_sums(lat, reps, m, tau, zc, tol / abs(tpref), max_points)
    phases = np.exp(-_TWO_PI_I * (reps @ lat.gram @ _floats(mu)) / m)
    pref = cmath.exp((n / 2) * cmath.log(-1j * tau)) / math.sqrt(len(reps)) * tpref
    rhs = pref * complex(phases @ sums)
    return {
        "lhs": lhs.value,
        "rhs": rhs,
        "abs_error": abs(lhs.value - rhs),
        "tail_bound": lhs.tail_bound + abs(pref) * len(reps) * bound,
    }


@lru_cache(maxsize=None)
def _root_pairings(rs: FiniteRootSystem) -> np.ndarray:
    """Rows (alpha, .) of the invariant form, one per positive root."""
    return _readonly(np.array(rs.positive_roots, dtype=float) @ _gram(rs))


def _theta_factors(rs: FiniteRootSystem, tau: complex, z, tol: float = 1e-15):
    """Theta(tau, (alpha, z)) for each positive root alpha."""
    u = _root_pairings(rs) @ np.array(z, dtype=complex)
    return [theta_jacobi(tau, complex(v), tol=tol) for v in u]


def theta_g(rs: FiniteRootSystem, tau: complex, z, tol: float = 1e-15) -> complex:
    """Product of theta_jacobi over the pairings of z with positive roots."""
    return math.prod(_theta_factors(rs, tau, z, tol), start=1 + 0j)


@lru_cache(maxsize=None)
def _weyl_stack(rs: FiniteRootSystem):
    """Signs and matrices of all of W as float arrays, (|W|,) and (|W|, n, n)."""
    W = enumerate_weyl(rs)
    return (_readonly(np.array([w.sign for w in W], dtype=float)),
            _readonly(np.array([w.matrix for w in W], dtype=float)))


def _numerator(ld: LevelData, label: AdmissibleLabel, tau: complex, z, tol: float,
               weights: np.ndarray = None):
    """eps(ybar) sum_w eps(w) Theta_{q w(nu) + p beta, pq}(tau, z) as one batch.

    Returns (value, most points kept for one label, tail bound <= tol).
    """
    signs, mats = _weyl_stack(ld.rs)
    mus = (ld.q * (mats @ np.array(label.nu.finite, dtype=float))
           + ld.p * np.array(label.beta, dtype=float))
    sums, counts, bound = _theta_sums(
        _lattice(ld.rs, ld.translation_lattice), mus, ld.p * ld.q, tau,
        np.array(z, dtype=complex), tol / len(signs), weights=weights,
    )
    return (label.ybar.sign * complex(signs @ sums), int(counts.max()),
            len(signs) * bound)


def char_numerator(
    ld: LevelData, label: AdmissibleLabel, point: EvalPoint, tol: float = 1e-10
) -> SeriesEval:
    """Theta combination in the numerator of the character.

    eps(ybar) sum_{w} eps(w) Theta_{q w(nu) + p beta, pq}(tau, x/q, t/q^2)
    over the translation lattice of the variant.  The sum runs over the
    integral Weyl group of lambda, which is the conjugate of W x t_{qL}
    by t_beta ybar; the conjugation is what keeps beta fixed inside the
    theta labels while w rotates only nu.  All |W| theta functions are one
    batched lattice sum; truncation_order is the most points kept for one
    of them, and tail_bound (at most tol) bounds the omitted terms of all.
    """
    zq = tuple(v / ld.q for v in point.x_or_zero(ld.rs.rank))
    pref = cmath.exp(_TWO_PI_I * ld.p * point.t / ld.q)
    value, kept, tail = _numerator(ld, label, point.tau, zq, tol / abs(pref))
    return SeriesEval(pref * value, kept, abs(pref) * tail)


def _denominator_constant(rs: FiniteRootSystem, eta: complex) -> complex:
    """(-1)^{#positive roots} eta^rank, so that the Weyl denominator
    sum_w eps(w) Theta_{w rho, hvee}(tau, x) equals it times Theta_g(tau, x)
    (the Macdonald identity)."""
    return (-1) ** rs.num_positive_roots * eta ** rs.rank


def _char_denominator(rs: FiniteRootSystem, point: EvalPoint) -> complex:
    """Weyl denominator e^{2 pi i hvee t} (-1)^{#positive roots} eta^rank Theta_g.

    Raises PolarPointError within 1e-9 of a reflection wall, read as
    min_alpha |Theta(tau, (alpha, x))| / (2 pi |eta|^2): Theta has simple
    zeros on the walls and Theta'(tau, 0) = -2 pi i eta^2.
    """
    eta = dedekind_eta(point.tau)
    factors = _theta_factors(rs, point.tau, point.x_or_zero(rs.rank))
    if min(map(abs, factors)) < 1e-9 * 2 * math.pi * abs(eta) ** 2:
        raise PolarPointError("evaluation point lies on a reflection wall")
    return (cmath.exp(_TWO_PI_I * rs.hvee * point.t)
            * _denominator_constant(rs, eta) * math.prod(factors))


def char_chi(
    ld: LevelData, label: AdmissibleLabel, point: EvalPoint, tol: float = 1e-10
) -> SeriesEval:
    """Normalised character at an evaluation point.

    chi = numerator / denominator.  The leading power q^{h_lambda - c/24}
    is already carried by the numerator theta labels: the exact exponent
    h_lambda - c/24 - |lambda+rho|^2 q/2p + (rho, rho)/2 hvee vanishes
    identically by the strange formula, so no external power of q is
    applied.  Points on a reflection wall raise PolarPointError.  The
    numerator is summed to tol |denominator|, so tail_bound, its bound over
    |denominator|, is at most tol; the denominator is a converged product.
    """
    den = _char_denominator(ld.rs, point)
    if den == 0:
        raise PolarPointError("character denominator vanishes at this point")
    num = char_numerator(ld, label, point, tol=tol * abs(den))
    return SeriesEval(num.value / den, num.truncation_order,
                      num.tail_bound / abs(den))


def psi_w(
    ld: LevelData, label: AdmissibleLabel, tau: complex, tol: float = 1e-12
) -> Tuple[complex, float]:
    """The x -> 0 limit of chi * Theta_g, in closed form.

    By the Macdonald identity chi * Theta_g = N(tau, x) / ((-1)^{#positive
    roots} eta^rank), so the limit is the numerator at x = 0 over that
    constant.  Returns (value, error bound), the bound being the
    numerator's tail bound over |eta|^rank, at most tol.  Degenerate labels
    give a vanishing limit.
    """
    den = _denominator_constant(ld.rs, dedekind_eta(tau))
    num = char_numerator(ld, label, EvalPoint(tau), tol=tol * abs(den))
    return num.value / den, num.tail_bound / abs(den)


def char_at_zero(
    ld: LevelData, label: AdmissibleLabel, tau: complex, tol: float = 1e-12
) -> Tuple[complex, float]:
    """Character value at x = 0 (finite for integrable labels).

    Numerator and denominator vanish to order #positive roots at x = 0;
    pi(d_x) = prod_{alpha>0} (alpha, d_x) is applied to both.  On the
    numerator it weights each lattice point X by prod_alpha 2 pi i (alpha, X)/q,
    and the tail bound carries that weight's growth.  On the denominator it
    gives (-1)^{#positive roots} eta^rank (-2 pi i eta^2)^{#positive roots}
    |W| prod_alpha (alpha, rho), from Theta'(tau, 0) = -2 pi i eta^2 and
    pi(d) pi = |W| pi(rho).  Returns (value, error bound), at most tol.
    """
    rs = ld.rs
    eta = dedekind_eta(tau)
    npos = rs.num_positive_roots
    pi_rho = math.prod(rs.inner_finite(alpha, rs.rho) for alpha in rs.positive_roots)
    den = (_denominator_constant(rs, eta) * (-_TWO_PI_I * eta * eta) ** npos
           * len(_weyl_stack(rs)[0]) * float(pi_rho))
    value, _, tail = _numerator(ld, label, tau, (0j,) * rs.rank, tol * abs(den),
                                weights=_TWO_PI_I / ld.q * _root_pairings(rs))
    return value / den, tail / abs(den)

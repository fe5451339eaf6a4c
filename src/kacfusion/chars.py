"""Characters of admissible modules as convergent q-series.

Characters are ratios of alternating sums of lattice theta functions. All
modular weights and prefactor exponents are carried as exact rationals;
floating point enters through the lattice sums, whose truncation radius is
chosen from the requested tolerance and reported together with a tail
estimate. The Weyl denominator and the x -> 0 limits (psi and the
character at x = 0) are closed forms from the Macdonald identity. The
scalar Jacobi theta function and its modular transform serve as the base
case for verification.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .admissible import AdmissibleLabel, LevelData
from .errors import CapacityError, InvalidTypeError, PolarPointError
from .ratlin import lattice_coset_reps, mat_inv, transpose, vec
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
    """A truncated series value with the number of terms and a tail estimate."""

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


def _theta_points(rs: FiniteRootSystem, lattice, mu, m: int, tau: complex, z,
                  tol: float, max_points: int = 2_000_000):
    """Kept points X of mu + m * lattice, their terms and the tail estimate.

    The terms are q^{|X|^2 / 2m} e^{2 pi i (X, z)}. The sum is truncated to an
    ellipsoid chosen from tol; the tail estimate is a boundary-shell sum
    with a geometric decay ratio.
    """
    if not (complex(tau).imag > 0):
        raise InvalidTypeError("tau must lie in the upper half plane")
    G = np.array([[float(x) for x in row] for row in rs.gram])
    Lf = np.array([[float(x) for x in row] for row in lattice])
    Gc = Lf.T @ G @ Lf
    mu_f = np.array([float(Fraction(x)) if not isinstance(x, complex) else x
                     for x in vec(mu)], dtype=float)
    im_tau = complex(tau).imag
    z_im = np.array([v.imag for v in z])
    zn = math.sqrt(max(z_im @ G @ z_im, 0.0))

    # Radius so that e^{-pi im_tau R^2 / m + 2 pi R zn} <= tol / 1000,
    # also past the magnitude hump and a few lattice steps wide.
    a = math.pi * im_tau / m
    b = 2 * math.pi * zn
    target = math.log(1e3 / tol)
    R = (b + math.sqrt(b * b + 4 * a * target)) / (2 * a)
    step = m * math.sqrt(max(np.diag(Gc).max(), 1e-30))
    R = max(R, 2 * m * zn / im_tau + 2 * step, 3 * step, math.sqrt(mu_f @ G @ mu_f))

    center = np.linalg.solve(m * Lf, -mu_f)
    Gc_inv = np.linalg.inv(Gc)
    half = (R / m) * np.sqrt(np.maximum(np.diag(Gc_inv), 0.0))
    los = np.ceil(center - half).astype(int)
    his = np.floor(center + half).astype(int)
    sizes = np.maximum(his - los + 1, 0)
    total = int(np.prod(sizes, dtype=np.int64)) if np.all(sizes > 0) else 0
    if total > max_points:
        raise CapacityError(
            f"lattice theta enumeration needs {total} points, above {max_points}"
        )
    if total == 0:
        return np.zeros((0, rs.rank)), np.zeros(0, dtype=complex), 0.0
    grids = np.meshgrid(*[np.arange(lo, hi + 1) for lo, hi in zip(los, his)],
                        indexing="ij")
    C = np.stack([g.ravel() for g in grids], axis=1)
    X = mu_f[None, :] + m * (C @ Lf.T)
    norms = np.einsum("ij,jk,ik->i", X, G, X)
    keep = norms <= R * R + 1e-9
    X, norms = X[keep], norms[keep]
    zc = np.array(z, dtype=complex)
    xz = X @ (G @ zc)
    expo = _TWO_PI_I * (tau * norms / (2 * m)) + _TWO_PI_I * xz
    terms = np.exp(expo)

    mags = np.abs(terms)
    radii = np.sqrt(np.maximum(norms, 0.0))
    shell = radii >= R - step
    shell_sum = float(mags[shell].sum()) if shell.any() else float(tol)
    ratio = math.exp(-a * (2 * R * step + step * step) + b * step)
    ratio = min(ratio, 0.95)
    return X, terms, shell_sum * ratio / (1 - ratio)


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
    The sum is truncated to an ellipsoid chosen from tol; the returned tail
    estimate is a boundary-shell sum with a geometric decay ratio.
    """
    z = (0j,) * rs.rank if z is None else tuple(complex(v) for v in z)
    X, terms, tail = _theta_points(rs, lattice, mu, m, tau, z, tol, max_points)
    pref = cmath.exp(_TWO_PI_I * m * complex(t))
    return SeriesEval(pref * complex(terms.sum()), int(X.shape[0]), abs(pref) * tail)


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
    Theta_mu'(tau, z, t).
    """
    n = rs.rank
    if z is None:
        z = (0j,) * n
    z = tuple(complex(v) for v in z)
    zz = sum(z[i] * sum(float(rs.gram[i][j]) * z[j] for j in range(n))
             for i in range(n))
    tau = complex(tau)
    lhs = theta_lattice(
        rs, lattice, mu, m, -1 / tau, tuple(v / tau for v in z),
        complex(t) - zz / (2 * tau), tol=tol, max_points=max_points,
    )
    dual = dual_lattice(rs, lattice)
    # over the dual basis, m L has the coefficients m (L_i, L_j)
    cols = transpose(lattice)
    mL = tuple(tuple(m * rs.inner_finite(a, b) for b in cols) for a in cols)
    reps = lattice_coset_reps(dual, mL)
    pref = cmath.exp((n / 2) * cmath.log(-1j * tau)) / math.sqrt(len(reps))
    acc = 0j
    tails = lhs.tail_bound
    for rep in reps:
        phase = cmath.exp(-_TWO_PI_I * float(rs.inner_finite(vec(mu), rep)) / m)
        ev = theta_lattice(rs, lattice, rep, m, tau, z, t, tol=tol,
                           max_points=max_points)
        acc += phase * ev.value
        tails += abs(pref) * ev.tail_bound
    rhs = pref * acc
    return {
        "lhs": lhs.value,
        "rhs": rhs,
        "abs_error": abs(lhs.value - rhs),
        "tail_bound": tails,
    }


def _root_pairings(rs: FiniteRootSystem) -> np.ndarray:
    """Rows (alpha, .) of the invariant form, one per positive root."""
    G = np.array([[float(x) for x in row] for row in rs.gram])
    return np.array([[float(c) for c in alpha] for alpha in rs.positive_roots]) @ G


def _theta_factors(rs: FiniteRootSystem, tau: complex, z, tol: float = 1e-15):
    """Theta(tau, (alpha, z)) for each positive root alpha."""
    u = _root_pairings(rs) @ np.array(z, dtype=complex)
    return [theta_jacobi(tau, complex(v), tol=tol) for v in u]


def theta_g(rs: FiniteRootSystem, tau: complex, z, tol: float = 1e-15) -> complex:
    """Product of theta_jacobi over the pairings of z with positive roots."""
    return math.prod(_theta_factors(rs, tau, z, tol), start=1 + 0j)


def _numerator_labels(ld: LevelData, label: AdmissibleLabel):
    """(sign, q w(nu) + p beta) over W: the signed theta labels of the numerator."""
    nu = label.nu.finite
    pbeta = tuple(ld.p * b for b in label.beta)
    return [
        (label.ybar.sign * w.sign,
         tuple(ld.q * a + b for a, b in zip(w.act(nu), pbeta)))
        for w in enumerate_weyl(ld.rs)
    ]


def char_numerator(
    ld: LevelData, label: AdmissibleLabel, point: EvalPoint, tol: float = 1e-10
) -> SeriesEval:
    """Theta combination in the numerator of the character.

    eps(ybar) sum_{w} eps(w) Theta_{q w(nu) + p beta, pq}(tau, x/q, t/q^2)
    over the translation lattice of the variant.  The sum runs over the
    integral Weyl group of lambda, which is the conjugate of W x t_{qL}
    by t_beta ybar; the conjugation is what keeps beta fixed inside the
    theta labels while w rotates only nu.
    """
    rs = ld.rs
    zq = tuple(v / ld.q for v in point.x_or_zero(rs.rank))
    tq = point.t / (ld.q * ld.q)
    thetas = _numerator_labels(ld, label)
    per_tol = tol / len(thetas)
    acc = 0j
    tails = 0.0
    pts = 0
    for sign, muw in thetas:
        ev = theta_lattice(rs, ld.translation_lattice, muw, ld.p * ld.q,
                           point.tau, zq, tq, tol=per_tol)
        acc += sign * ev.value
        tails += ev.tail_bound
        pts = max(pts, ev.truncation_order)
    return SeriesEval(acc, pts, tails)


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
    truncation order and tail estimate are the numerator's; the
    denominator is a converged product.
    """
    den = _char_denominator(ld.rs, point)
    if den == 0:
        raise PolarPointError("character denominator vanishes at this point")
    num = char_numerator(ld, label, point, tol=tol)
    value = num.value / den
    return SeriesEval(value, num.truncation_order,
                      num.tail_bound / abs(den))


def psi_w(
    ld: LevelData, label: AdmissibleLabel, tau: complex, tol: float = 1e-12
) -> Tuple[complex, float]:
    """The x -> 0 limit of chi * Theta_g, in closed form.

    By the Macdonald identity chi * Theta_g = N(tau, x) / ((-1)^{#positive
    roots} eta^rank), so the limit is the numerator at x = 0 over that
    constant.  Returns (value, error_estimate), the error being the
    numerator's tail estimate over |eta|^rank.  Degenerate labels give a
    vanishing limit.
    """
    num = char_numerator(ld, label, EvalPoint(tau), tol=tol)
    den = _denominator_constant(ld.rs, dedekind_eta(tau))
    return num.value / den, num.tail_bound / abs(den)


def char_at_zero(
    ld: LevelData, label: AdmissibleLabel, tau: complex, tol: float = 1e-12
) -> Tuple[complex, float]:
    """Character value at x = 0 (finite for integrable labels).

    Numerator and denominator vanish to order #positive roots at x = 0;
    pi(d_x) = prod_{alpha>0} (alpha, d_x) is applied to both.  On the
    numerator it weights each lattice point X by prod_alpha 2 pi i (alpha, X)/q.
    On the denominator it gives (-1)^{#positive roots} eta^rank
    (-2 pi i eta^2)^{#positive roots} |W| prod_alpha (alpha, rho), from
    Theta'(tau, 0) = -2 pi i eta^2 and pi(d) pi = |W| pi(rho).  Returns
    (value, error_estimate).
    """
    rs = ld.rs
    A = _root_pairings(rs)
    zero = (0j,) * rs.rank
    thetas = _numerator_labels(ld, label)
    per_tol = tol / len(thetas)
    acc = 0j
    tails = 0.0
    for sign, muw in thetas:
        X, terms, tail = _theta_points(rs, ld.translation_lattice, muw,
                                       ld.p * ld.q, tau, zero, per_tol)
        weights = np.prod(_TWO_PI_I * (X @ A.T) / ld.q, axis=1)
        acc += sign * complex((weights * terms).sum())
        tails += tail * float(np.abs(weights).max(initial=0.0))
    eta = dedekind_eta(tau)
    npos = rs.num_positive_roots
    pi_rho = math.prod(rs.inner_finite(alpha, rs.rho) for alpha in rs.positive_roots)
    den = (_denominator_constant(rs, eta) * (-_TWO_PI_I * eta * eta) ** npos
           * len(thetas) * float(pi_rho))
    return acc / den, tails / abs(den)

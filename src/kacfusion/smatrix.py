"""Modular S and T matrices on admissible weights.

Entries are finite sums of roots of unity with exact rational phases.
build_smatrix scales the invariant form and the labels to integers, so
every phase is an integer residue modulo one common denominator D, and
floating point enters only in the table of D-th roots of unity and the
final sum over the Weyl group. smatrix_entry evaluates single entries
from Fraction phases and is the reference the kernel is checked against.
The principal and coprincipal normalisations differ only in the index N
of pq times the translation lattice inside the weight side lattice.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Tuple

import numpy as np

from .admissible import AdmissibleLabel, LevelData, enumerate_admissible
from .errors import CapacityError
from .rootsys import AffineWeight
from .weyl import enumerate_weyl

__all__ = [
    "SMatrix",
    "build_smatrix",
    "conformal_weight",
    "norm_index",
    "smatrix_entry",
    "tmatrix",
    "tmatrix_exponents",
    "verify_sl2_relations",
]

# Rows of S are processed in blocks of at most this many Weyl terms.
_BLOCK_TERMS = 1 << 16
# Largest phase denominator D. D is the length of the table of roots of
# unity, which takes 64 MB at this bound.
_MAX_DENOMINATOR = 1 << 22


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def norm_index(ld: LevelData) -> int:
    """The lattice index N normalising the S matrix.

    Principal: index of pq Qvee in the weight lattice P. Coprincipal:
    index of pq Q in the coweight lattice Qstar. As |P / Q| = det A and the
    generators of Qvee and Qstar are those of Q and P over d_i, these are
    (pq)^r det A / prod d_i and (pq)^r det A prod d_i.
    """
    rs = ld.rs
    scale = (ld.p * ld.q) ** rs.rank * rs.fundamental_group_order
    covolume = math.prod(rs.d)
    return int(scale / covolume if ld.variant == "principal" else scale * covolume)


def conformal_weight(ld: LevelData, lam) -> Fraction:
    """h = (lam, lam + 2 rho) / (2 (k + hvee)) for a level-k weight."""
    rs = ld.rs
    fin = lam.finite if isinstance(lam, AffineWeight) else tuple(lam)
    two_rho = tuple(2 * r for r in rs.rho)
    num = rs.inner_finite(fin, tuple(a + b for a, b in zip(fin, two_rho)))
    return num / (2 * ld.m)


def smatrix_entry(ld: LevelData, a: AdmissibleLabel, b: AdmissibleLabel) -> complex:
    """One S-matrix entry from exact Fraction phases.

    Weyl terms of equal phase modulo 1 are merged exactly, one exponential
    is taken per distinct phase, and the terms are added with compensated
    summation. This is the reference evaluator; build_smatrix does not
    use it.
    """
    rs = ld.rs
    nu_a, nu_b = a.nu.finite, b.nu.finite
    base = Fraction(rs.num_positive_roots, 4) - (
        rs.inner_finite(nu_a, b.beta)
        + rs.inner_finite(nu_b, a.beta)
        + ld.m * rs.inner_finite(a.beta, b.beta)
    )
    ratio = Fraction(ld.q, ld.p)
    coeffs = {}
    for w in enumerate_weyl(rs):
        theta = _mod1(base - ratio * rs.inner_finite(w.act(nu_a), nu_b))
        coeffs[theta] = coeffs.get(theta, 0) + w.sign
    terms = [c * cmath.exp(2j * math.pi * float(t)) for t, c in coeffs.items() if c]
    total = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
    return a.ybar.sign * b.ybar.sign * total / math.sqrt(norm_index(ld))


@dataclass
class SMatrix:
    """S matrix over an ordered tuple of admissible labels."""

    level_data: LevelData
    labels: Tuple[AdmissibleLabel, ...]
    matrix: np.ndarray
    norm_const: int

    @property
    def kind(self) -> str:
        return self.level_data.variant


def _scaled(rows, scale: int, width: int) -> np.ndarray:
    """scale * rows as an int64 array; every entry must become integral."""
    vals = [Fraction(x) * scale for row in rows for x in row]
    if any(v.denominator != 1 for v in vals):
        raise AssertionError("scaled phase data is not integral")
    return np.array([v.numerator for v in vals], dtype=np.int64).reshape(-1, width)


def build_smatrix(
    ld: LevelData, labels: Optional[Tuple[AdmissibleLabel, ...]] = None
) -> SMatrix:
    """S matrix over all admissible labels (or a given subset).

    S_ab = eps_a eps_b N^{-1/2} sum_w sign(w) e^{2 pi i theta_w} with
    theta_w = -((nu_a, beta_b) + (nu_b, beta_a) + (p/q)(beta_a, beta_b))
    + |Delta+|/4 - (q/p)(w nu_a, nu_b). The nu are integral; with the Gram
    matrix scaled by d_G and beta by d_beta, every theta_w is k/D for an
    integer k and D = lcm(p d_G, 4, d_beta d_G, q d_beta^2 d_G). The
    residues k index a table of D-th roots of unity. Rows are done in
    blocks, and the upper triangle is mirrored, so S is exactly symmetric.
    """
    if labels is None:
        labels = enumerate_admissible(ld)
    labels = tuple(labels)
    rs, p, q = ld.rs, ld.p, ld.q
    r, n = rs.rank, len(labels)
    d_g = rs.gram_den
    d_b = math.lcm(1, *(Fraction(x).denominator for lab in labels for x in lab.beta))
    D = math.lcm(p * d_g, 4, d_b * d_g, q * d_b * d_b * d_g)
    if D > _MAX_DENOMINATOR:
        raise CapacityError(
            f"phase denominator {D} is above the bound {_MAX_DENOMINATOR}"
        )
    # Every array is reduced mod D before it enters a product, and no
    # contraction is longer than r, so no intermediate exceeds (r + 2) D^2.
    assert (r + 2) * D * D < 2**63, f"phase denominator {D} overflows int64"
    G = np.array(rs.gram_num, dtype=np.int64) % D
    nu = _scaled((lab.nu.finite for lab in labels), 1, r) % D
    beta = _scaled((lab.beta for lab in labels), d_b, r) % D
    c_nb = D // (d_g * d_b) % D
    c_bb = D // (q * d_b * d_b * d_g) * p % D
    c_w = D // (p * d_g) * q % D

    nu_beta = (nu @ G % D) @ beta.T % D
    beta_beta = (beta @ G % D) @ beta.T % D
    base = (
        rs.num_positive_roots * (D // 4)
        - c_nb * ((nu_beta + nu_beta.T) % D)
        - c_bb * beta_beta
    ) % D

    W = enumerate_weyl(rs)
    cells = chain.from_iterable(chain.from_iterable(w.matrix for w in W))
    mats = np.fromiter(cells, np.int64, len(W) * r * r).reshape(-1, r, r) % D
    signs = np.array([float(w.sign) for w in W])
    # wnu_g[a, w] . nu_b = d_G (w nu_a, nu_b) mod D
    wnu_g = np.einsum("wij,aj->awi", mats, nu) % D
    wnu_g = wnu_g @ G % D

    roots = np.exp(2j * np.pi * np.arange(D) / D)
    out = np.zeros((n, n), dtype=np.complex128)
    rows = max(1, _BLOCK_TERMS // (len(W) * max(n, 1)))
    for i in range(0, n, rows):
        blk = slice(i, min(i + rows, n))
        # residues k[a, b, w] for a in the block and b >= i
        pair = nu[i:] @ wnu_g[blk].transpose(0, 2, 1) % D
        k = (base[blk, i:, None] - c_w * pair) % D
        out[blk, i:] = roots[k] @ signs
    eps = np.array([float(lab.ybar.sign) for lab in labels])
    N = norm_index(ld)
    out *= np.outer(eps, eps) / math.sqrt(N)
    out = np.triu(out) + np.triu(out, 1).T
    return SMatrix(ld, labels, out, N)


def tmatrix_exponents(
    ld: LevelData, labels: Optional[Tuple[AdmissibleLabel, ...]] = None
) -> Tuple[Fraction, ...]:
    """Exact exponents h_lambda - c/24 of the diagonal T matrix."""
    if labels is None:
        labels = enumerate_admissible(ld)
    c24 = ld.central_charge / 24
    return tuple(conformal_weight(ld, lab.lam) - c24 for lab in labels)


def tmatrix(
    ld: LevelData, labels: Optional[Tuple[AdmissibleLabel, ...]] = None
) -> np.ndarray:
    exps = tmatrix_exponents(ld, labels)
    return np.diag(
        [cmath.exp(2j * math.pi * float(_mod1(e))) for e in exps]
    ).astype(np.complex128)


def _sl2_report(sm: SMatrix) -> dict:
    """The residuals of verify_sl2_relations for an S matrix already built."""
    S = sm.matrix
    T = tmatrix(sm.level_data, sm.labels)
    n = S.shape[0]
    eye = np.eye(n)
    uni = float(np.abs(S @ S.conj().T - eye).max())
    S2 = S @ S
    perm = tuple(int(np.argmax(np.abs(S2[i]))) for i in range(n))
    signs = tuple(int(round(S2[i, j].real)) for i, j in enumerate(perm))
    P = np.zeros((n, n))
    for i, (j, s) in enumerate(zip(perm, signs)):
        P[i, j] = s
    is_perm = (
        sorted(perm) == list(range(n))
        and all(perm[perm[i]] == i for i in range(n))
        and all(s in (1, -1) for s in signs)
    )
    s2_err = float(np.abs(S2 - P).max())
    s4_err = float(np.abs(S2 @ S2 - eye).max())
    ST = S @ T
    st3_err = float(np.abs(ST @ ST @ ST - S2).max())
    errs = [uni, s2_err, s4_err, st3_err]
    return {
        "unitarity_error": uni,
        "conjugation": perm,
        "conjugation_signs": signs,
        "is_permutation": bool(is_perm),
        "s_squared_error": s2_err,
        "s_fourth_error": s4_err,
        "st_cubed_error": st3_err,
        "max_error": max(errs),
    }


def verify_sl2_relations(
    ld: LevelData, labels: Optional[Tuple[AdmissibleLabel, ...]] = None
) -> dict:
    """Numerical check of the modular group relations for S and T.

    Reports the deviation of S from unitarity, of S^2 from a signed
    permutation matrix (the conjugation; at fractional level the nonzero
    entries can be -1), of S^4 from the identity, and of (ST)^3 from S^2.
    Keys: unitarity_error, conjugation, conjugation_signs, is_permutation,
    s_squared_error, s_fourth_error, st_cubed_error, max_error.
    """
    return _sl2_report(build_smatrix(ld, labels))

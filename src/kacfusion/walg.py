"""Module labels, S-matrix, and fusion rules of regular affine W-algebras.

Irreducible modules at a nondegenerate principal admissible level p/q are
labelled by pairs: a dominant integral weight of level p - hvee together
with a dominant integral coweight of level q - h (realized on the dual
root system), reduced modulo a simultaneous diagram-automorphism action.
The S-matrix factorizes into two finite Weyl sums, one per factor, and
fusion rules follow from the Verlinde formula. For simply laced types
with q coprime to the automorphism group order, the fusion tensor is
checked against the product of the two integrable fusion tensors.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .admissible import (
    LevelData,
    _dominant_weights,
    enumerate_admissible,
    label_is_degenerate,
)
from .errors import FusionError, LevelError
from .ratlin import frac, vec
from .rootsys import AffineWeight, FiniteRootSystem, dual_root_system
from .smatrix import SMatrix, build_smatrix
from .weyl import enumerate_weyl, extended_generators

__all__ = [
    "FusionTensor",
    "WLabel",
    "central_charge_w",
    "check_fkw_factorization",
    "enumerate_wlabels",
    "vacuum_index",
    "verlinde",
    "w_smatrix",
]

FiniteWeight = Tuple[Fraction, ...]


@dataclass(frozen=True)
class WLabel:
    """Canonical representative of a W-algebra module label.

    lam is a dominant integral weight of level p - hvee on the main root
    system; lamprime is a dominant integral weight of level q - h on the
    dual root system. canonical marks the pair as the lexicographically
    least member of its diagram-automorphism orbit.
    """

    lam: AffineWeight
    lamprime: AffineWeight
    canonical: bool = True

    def key(self) -> Tuple[FiniteWeight, FiniteWeight]:
        return (self.lam.finite, self.lamprime.finite)


def central_charge_w(ld: LevelData) -> Fraction:
    """Central charge of the regular W-algebra at level k = p/q - hvee."""
    rs = ld.rs
    m = ld.m
    return Fraction(rs.rank) - 12 * (
        m * rs.inner_finite(rs.rhovee, rs.rhovee)
        - 2 * rs.inner_finite(rs.rho, rs.rhovee)
        + rs.inner_finite(rs.rho, rs.rho) / m
    )


def _diagonal_generators(rs: FiniteRootSystem, rs_dual: FiniteRootSystem):
    """The sigma_j of both factors as integer data (wbar, Lambda_j, wbar', Lambda'_j).

    The two generator tuples are matched positionally: for simply laced
    types the dual system is the same diagram, and otherwise both groups
    have order at most two. Lambda_j is a fundamental weight, so the
    translations are integer vectors.
    """
    gens_main = extended_generators(rs, "principal")
    gens_dual = extended_generators(rs_dual, "principal")
    if len(gens_main) != len(gens_dual):
        raise AssertionError("diagram automorphism groups of dual pair differ")
    return tuple(
        (g.wbar, tuple(map(int, g.beta)), gd.wbar, tuple(map(int, gd.beta)))
        for g, gd in zip(gens_main, gens_dual)
    )


def _diagonal_orbit(
    gens,
    pair: Tuple[FiniteWeight, FiniteWeight],
    n1: int,
    n2: int,
) -> List[Tuple[FiniteWeight, FiniteWeight]]:
    """Orbit of (lam, lamprime) under the simultaneous sigma_j action.

    sigma_j sends a level-n weight mu to sigma_j_bar(mu) + n Lambda_j; the
    same group element acts on both factors at their own levels. gens comes
    from _diagonal_generators; the action is integral, so integer pairs map
    to integer pairs and Fraction pairs to Fraction pairs.
    """
    lam, lamp = pair
    return [
        (
            tuple(x + n1 * b for x, b in zip(w.act(lam), beta)),
            tuple(x + n2 * b for x, b in zip(wd.act(lamp), beta_d)),
        )
        for w, beta, wd, beta_d in gens
    ]


def enumerate_wlabels(ld: LevelData) -> List[WLabel]:
    """Orbit-reduced W-module labels at a principal admissible level.

    Returns the empty list when p < hvee or q < h (no labels). The
    cardinality is cross-checked against the count of nondegenerate
    admissible weights: |labels| * |W| must equal that count. Orbits are
    taken on integer weights; Fractions are built once per label.
    """
    if ld.variant != "principal":
        raise LevelError("W-algebra labels require a principal admissible level")
    rs = ld.rs
    n1 = ld.p - rs.hvee
    n2 = ld.q - rs.h
    if n1 < 0 or n2 < 0:
        return []
    rsd = dual_root_system(rs)
    gens = _diagonal_generators(rs, rsd)
    main = _dominant_weights(rs.comarks, n1)
    dual = _dominant_weights(rsd.comarks, n2)
    seen = set()
    out: List[WLabel] = []
    for lam in main:
        for lamp in dual:
            if (lam, lamp) in seen:
                continue
            orbit = _diagonal_orbit(gens, (lam, lamp), n1, n2)
            seen.update(orbit)
            rep = min(orbit)
            out.append(
                WLabel(
                    lam=AffineWeight(vec(rep[0]), frac(n1), frac(0)),
                    lamprime=AffineWeight(vec(rep[1]), frac(n2), frac(0)),
                )
            )
    out.sort(key=WLabel.key)
    ndeg = sum(
        1 for lab in enumerate_admissible(ld) if not label_is_degenerate(ld, lab)
    )
    if len(out) * len(enumerate_weyl(rs)) != ndeg:
        raise AssertionError(
            "W-label count disagrees with the nondegenerate admissible count"
        )
    return out


def vacuum_index(labels) -> int:
    """Index of the label whose orbit contains the zero pair."""
    for i, lab in enumerate(labels):
        if not any(lab.lam.finite) and not any(lab.lamprime.finite):
            return i
    raise FusionError("no vacuum label found")


def _affine_class(
    ld: LevelData, W, wl: WLabel, position: Dict[Tuple[int, ...], int]
) -> List[int]:
    """Positions of the admissible labels whose trace functions equal that of wl.

    The pair maps to lam + rho - (p/q)(lamprime + rho_dual); acting with
    the finite Weyl group W (enumerate_weyl(ld.rs)) yields |W| distinct
    nondegenerate admissible labels, all with the same psi function. Scaled
    by q the images are integer vectors q (lam + rho), rho = (1, ..., 1) on
    both factors, and position maps the vector of each admissible label to
    its index. Returns the indices in ascending order.
    """
    p, q = ld.p, ld.q
    base = [q * (int(a) + 1) - p * (int(b) + 1)
            for a, b in zip(wl.lam.finite, wl.lamprime.finite)]
    out = set()
    for w in W:
        qmu = w.act(base)
        if qmu not in position:
            weight = ", ".join(str(Fraction(x - q, q)) for x in qmu)
            raise AssertionError(f"class weight ({weight}) is not admissible")
        out.add(position[qmu])
    if len(out) != len(W):
        raise AssertionError("pair-to-admissible map collapsed an orbit")
    return sorted(out)


def w_smatrix(ld: LevelData) -> SMatrix:
    """S-matrix of the regular W-algebra over the canonical labels.

    Each label's trace function equals the psi function of a class of
    |W| nondegenerate admissible weights, so the entry is (-i)^{|D+|}
    times the sum of affine S-matrix entries over the column class, with
    any class member as the row. The double-Weyl-sum closed form is
    recovered on suitable orbit representatives, but its value genuinely
    depends on that choice; summing the affine matrix does not, which is
    asserted by recomputing every row from a second member.
    """
    labels = tuple(enumerate_wlabels(ld))
    rs = ld.rs
    sm = build_smatrix(ld)
    q = ld.q
    # q (lam + rho) is an integer vector: the denominators of lam divide q
    position = {
        tuple(x.numerator * (q // x.denominator) + q for x in lab.lam.finite): i
        for i, lab in enumerate(sm.labels)
    }
    W = enumerate_weyl(rs)
    classes = [_affine_class(ld, W, wl, position) for wl in labels]
    flat = [i for cl in classes for i in cl]
    if len(flat) != len(set(flat)):
        raise AssertionError("trace-function classes overlap")
    n = len(labels)
    pref = (-1j) ** rs.num_positive_roots
    cols = [np.array(cl, dtype=np.intp) for cl in classes]
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        row = sm.matrix[classes[i][0]]
        for j in range(n):
            out[i, j] = pref * row[cols[j]].sum()
    for i in range(n):
        if len(classes[i]) < 2:
            continue
        row = sm.matrix[classes[i][1]]
        for j in range(n):
            if abs(pref * row[cols[j]].sum() - out[i, j]) > 1e-9:
                raise AssertionError(
                    "S-matrix entry depends on the class representative"
                )
    return SMatrix(level_data=ld, labels=labels, matrix=out, norm_const=sm.norm_const)


@dataclass(frozen=True)
class FusionTensor:
    """Integer fusion multiplicities N[a, b, c] over an ordered label list."""

    labels: tuple
    N: np.ndarray
    max_rounding_error: float


def _conjugation_from_s(S: np.ndarray) -> List[int]:
    P = S @ S
    n = S.shape[0]
    perm = [int(np.argmax(np.abs(P[i]))) for i in range(n)]
    if sorted(perm) != list(range(n)):
        raise FusionError("S^2 is not a permutation; wrong label set")
    for i in range(n):
        if abs(P[i, perm[i]] - 1.0) > 1e-6:
            raise FusionError("S^2 has a non-unit entry; not a fusion-category S")
    return perm


def verlinde(
    sm: SMatrix,
    vacuum: Optional[int] = None,
    conj: Optional[List[int]] = None,
) -> FusionTensor:
    """Fusion multiplicities N_{AB}^C from the Verlinde sum.

    N_{AB}^C = sum_L S[A,L] S[B,L] S[L, conj(C)] / S[V,L], rounded to the
    nearest integer. The conjugation permutation defaults to the one read
    off S^2. Negative entries or rounding residuals above 1e-6 raise
    FusionError.
    """
    S = sm.matrix
    if vacuum is None:
        vacuum = vacuum_index(sm.labels)
    if conj is None:
        conj = _conjugation_from_s(S)
    svac = S[vacuum]
    if np.min(np.abs(svac)) < 1e-12:
        raise FusionError("vacuum S-matrix row has a zero entry")
    # raw[a, b, c] = (S[a] * S[b] / svac) @ S[:, conj]
    raw = (S[:, None, :] * S[None, :, :] / svac) @ S[:, conj]
    rounded = np.rint(raw.real)
    err = np.abs(raw - rounded)
    bad = (err > 1e-6) | (rounded < 0)
    if bad.any():
        # the first offending triple in row-major order
        abc = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        if err[abc] > 1e-6:
            raise FusionError(
                f"fusion coefficient {raw[abc]} at {abc} is not an integer"
            )
        raise FusionError(f"negative fusion coefficient {int(rounded[abc])} at {abc}")
    return FusionTensor(
        labels=tuple(sm.labels),
        N=rounded.astype(np.int64),
        max_rounding_error=float(err.max()),
    )


def _integrable_fusion(rs: FiniteRootSystem, level: int) -> Tuple[FusionTensor, Dict]:
    ld = LevelData.from_pq(rs, level + rs.hvee, 1)
    sm = build_smatrix(ld)
    # at q = 1 the labels are integral weights: key them on ints
    index = {tuple(map(int, lab.lam.finite)): i for i, lab in enumerate(sm.labels)}
    vac = index[(0,) * rs.rank]
    return verlinde(sm, vacuum=vac), index


def check_fkw_factorization(ld: LevelData) -> Dict:
    """Compare W-algebra fusion against the product of integrable tensors.

    Valid for simply laced types with gcd(q, |J|) = 1; each orbit then has
    a unique representative whose dual-side weight lies in the root
    lattice, and the fusion tensor factorizes over those representatives.
    Hypothesis violations are reported, not raised.
    """
    rs = ld.rs
    report: Dict = {"type": str(rs.spec), "pq": (ld.p, ld.q)}
    if rs.rvee != 1:
        report["hypothesis_ok"] = False
        report["reason"] = "root system is not simply laced"
        return report
    njgroup = len(extended_generators(rs, "principal"))
    if math.gcd(ld.q, njgroup) != 1:
        report["hypothesis_ok"] = False
        report["reason"] = f"gcd(q, |J|) = gcd({ld.q}, {njgroup}) != 1"
        return report
    report["hypothesis_ok"] = True

    wsm = w_smatrix(ld)
    rsd = dual_root_system(rs)
    n1 = ld.p - rs.hvee
    n2 = ld.q - rs.h
    gens = _diagonal_generators(rs, rsd)
    reps = []
    for lab in wsm.labels:
        orbit = _diagonal_orbit(gens, lab.key(), n1, n2)
        inq = [
            pair
            for pair in orbit
            if rsd.in_lattice(rsd.latt_Q, pair[1])
        ]
        if len(inq) != 1:
            raise AssertionError(
                "expected a unique representative with dual weight in the root lattice"
            )
        reps.append(inq[0])

    lhs = verlinde(wsm)
    f_main, idx_main = _integrable_fusion(rs, n1)
    f_dual, idx_dual = _integrable_fusion(rsd, n2)

    i = [idx_main[tuple(map(int, r[0]))] for r in reps]
    j = [idx_dual[tuple(map(int, r[1]))] for r in reps]
    rhs = f_main.N[np.ix_(i, i, i)] * f_dual.N[np.ix_(j, j, j)]
    diff = np.abs(lhs.N - rhs)
    report["lhs"] = lhs
    report["rhs"] = rhs
    report["reps"] = reps
    report["max_abs_diff"] = int(diff.max()) if diff.size else 0
    report["equal"] = bool((lhs.N == rhs).all())
    return report

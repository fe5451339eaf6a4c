"""Exact rational linear algebra on small dense matrices.

Vectors are tuples of numbers (ints or Fractions), matrices are tuples of
row tuples. Lattices are described by square generator matrices whose
columns are the generators, written in the same coordinates as the vectors
they are compared against. Everything here is exact; floats never enter.
"""

from fractions import Fraction
from itertools import product
from typing import Sequence, Tuple

Vector = Tuple[Fraction, ...]
Matrix = Tuple[Vector, ...]


def frac(x) -> Fraction:
    """Coerce an int, string or Fraction to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs) -> Vector:
    return tuple(frac(x) for x in xs)


def vec_add(a: Sequence, b: Sequence) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence, b: Sequence) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a: Sequence) -> Vector:
    return tuple(c * x for x in a)


def vec_neg(a: Sequence) -> Vector:
    return tuple(-x for x in a)


def is_integral_vec(a: Sequence) -> bool:
    return all(frac(x).denominator == 1 for x in a)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mat_from_rows(rows) -> Matrix:
    return tuple(tuple(frac(x) for x in row) for row in rows)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(len(ra))) for cb in bt) for ra in a
    )


def mat_scale(c, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_det(a: Matrix) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(a)
    m = [[frac(x) for x in row] for row in a]
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        inv = 1 / m[i][i]
        for r in range(i + 1, n):
            if m[r][i] != 0:
                f = m[r][i] * inv
                for c in range(i, n):
                    m[r][c] -= f * m[i][c]
    return det


def mat_inv(a: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(a)
    m = [[frac(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
        inv = 1 / m[i][i]
        m[i] = [x * inv for x in m[i]]
        for r in range(n):
            if r != i and m[r][i] != 0:
                f = m[r][i]
                m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    return tuple(tuple(row[n:]) for row in m)


def mat_solve(a: Matrix, b: Sequence) -> Vector:
    """Solve a x = b exactly for square nonsingular a."""
    return mat_vec(mat_inv(a), b)


def col_hermite(c: Matrix) -> Matrix:
    """Lower-triangular column Hermite form of a nonsingular integer matrix.

    Returns H = c * U for some unimodular U, with H[i][j] = 0 for j > i,
    H[i][i] > 0 and 0 <= H[i][j] < H[i][i] for j < i.
    """
    n = len(c)
    cols = [[int(c[i][j]) for i in range(n)] for j in range(n)]
    for i in range(n):
        while True:
            live = [j for j in range(i, n) if cols[j][i] != 0]
            if not live:
                raise ZeroDivisionError("singular matrix in Hermite reduction")
            piv = min(live, key=lambda j: abs(cols[j][i]))
            cols[i], cols[piv] = cols[piv], cols[i]
            done = True
            for j in range(i + 1, n):
                if cols[j][i] != 0:
                    q = cols[j][i] // cols[i][i]
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[i])]
                    if cols[j][i] != 0:
                        done = False
            if done:
                break
        if cols[i][i] < 0:
            cols[i] = [-x for x in cols[i]]
        for j in range(i):
            q = cols[j][i] // cols[i][i]
            cols[j] = [x - q * y for x, y in zip(cols[j], cols[i])]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def lattice_contains(gens: Matrix, v: Sequence) -> bool:
    """Whether v lies in the lattice spanned by the columns of gens."""
    return is_integral_vec(mat_solve(gens, v))


def lattice_index(amb: Matrix, sub: Matrix) -> int:
    """Index of the column lattice of sub inside that of amb."""
    d = mat_det(mat_mul(mat_inv(amb), sub))
    idx = abs(d)
    if idx.denominator != 1:
        raise ValueError("second lattice is not contained in the first")
    return int(idx)


def _coeff_matrix(amb: Matrix, sub: Matrix) -> Matrix:
    c = mat_mul(mat_inv(amb), sub)
    for row in c:
        if not is_integral_vec(row):
            raise ValueError("second lattice is not contained in the first")
    return c


def lattice_coset_reps(amb: Matrix, sub: Matrix):
    """Deterministic coset representatives for amb / sub.

    Representatives are returned in ambient coordinates, ordered by their
    coefficient tuples over the fundamental box of the Hermite form.
    """
    h = col_hermite(_coeff_matrix(amb, sub))
    n = len(h)
    reps = []
    for box in product(*[range(h[i][i]) for i in range(n)]):
        # box tuples are already reduced representatives
        reps.append(mat_vec(amb, box))
    return reps

"""Exact rational linear algebra on small dense matrices.

Vectors are tuples of numbers (ints or Fractions), matrices are tuples of
row tuples. Lattices are described by square generator matrices whose
columns are the generators, written in the same coordinates as the vectors
they are compared against. Everything here is exact; floats never enter.
The one general inverse, mat_inv, runs when a root system is built and
when a dual lattice is formed; lattice questions about a fixed root system
are answered from the integer data it holds.
"""

import math
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


def mat_from_rows(rows) -> Matrix:
    return tuple(tuple(frac(x) for x in row) for row in rows)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


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


def int_vector(v) -> Tuple[Tuple[int, ...], int]:
    """(u, den) with v = u / den for integers u and den the least common denominator."""
    den = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v), den


def lattice_coset_reps(amb: Matrix, coeffs: Matrix):
    """Deterministic coset representatives for amb / sub.

    The sublattice is given by its coefficient matrix over the columns of
    amb, which must be integral. Representatives are returned in ambient
    coordinates, ordered by their coefficient tuples over the fundamental
    box of the Hermite form.
    """
    if not all(is_integral_vec(row) for row in coeffs):
        raise ValueError("second lattice is not contained in the first")
    h = col_hermite(coeffs)
    # box tuples are already reduced representatives
    boxes = product(*(range(h[i][i]) for i in range(len(h))))
    return [mat_vec(amb, box) for box in boxes]

"""Exact integer linear algebra: determinants, rank, Smith form, unimodular completion.

Everything here works on plain lists of Python ints so that arbitrary-precision
arithmetic is free.  Matrices are lists of rows.
"""

from fractions import Fraction
from math import gcd

from .errors import InputError


def det_int(M):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(map(int, row)) for row in M]
    if any(len(row) != n for row in A):
        raise InputError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def rank_int(M):
    """Exact rank of an integer matrix, by Gaussian elimination over Q."""
    A = [[Fraction(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    rank = 0
    pr = 0
    for pc in range(cols):
        pivot = next((i for i in range(pr, rows) if A[i][pc] != 0), None)
        if pivot is None:
            continue
        A[pr], A[pivot] = A[pivot], A[pr]
        inv = 1 / A[pr][pc]
        A[pr] = [x * inv for x in A[pr]]
        for i in range(rows):
            if i != pr and A[i][pc] != 0:
                f = A[i][pc]
                A[i] = [a - f * b for a, b in zip(A[i], A[pr])]
        pr += 1
        rank += 1
        if pr == rows:
            break
    return rank


def inverse_unimodular(M):
    """Inverse of an integer matrix with det = ±1, returned as an integer matrix."""
    n = len(M)
    d = det_int(M)
    if abs(d) != 1:
        raise InputError(f"matrix is not unimodular (det = {d})")
    # adjugate / det; for det ±1 the entries stay integral
    inv = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[M[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            cof = det_int(minor) if n > 1 else 1
            if (i + j) % 2:
                cof = -cof
            inv[i][j] = cof * d
    return inv


def smith_diagonal(M):
    """Diagonal entries of the Smith normal form of an integer matrix.

    Returns the list [d_1, ..., d_r] of non-zero invariant factors
    (d_1 | d_2 | ... | d_r); zero rows/columns are dropped.
    """
    A = [list(map(int, row)) for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    diag = []
    top = 0
    while top < min(rows, cols):
        # find a non-zero pivot
        piv = None
        for i in range(top, rows):
            for j in range(top, cols):
                if A[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        A[top], A[i] = A[i], A[top]
        for row in A:
            row[top], row[j] = row[j], row[top]
        # clear row and column `top`, restarting whenever a remainder appears
        while True:
            if A[top][top] < 0:
                A[top] = [-x for x in A[top]]
            p = A[top][top]
            dirty = False
            for i in range(top + 1, rows):
                if A[i][top] != 0:
                    q = A[i][top] // p
                    A[i] = [a - q * b for a, b in zip(A[i], A[top])]
                    if A[i][top] != 0:  # remainder: swap up and restart
                        A[top], A[i] = A[i], A[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, cols):
                if A[top][j] != 0:
                    q = A[top][j] // p
                    for r in range(top, rows):
                        A[r][j] -= q * A[r][top]
                    if A[top][j] != 0:
                        for r in range(top, rows):
                            A[r][top], A[r][j] = A[r][j], A[r][top]
                        dirty = True
                        break
            if not dirty:
                break
        diag.append(A[top][top])
        top += 1
    # enforce the divisibility chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = gcd(a, b)
            diag[i], diag[j] = g, a * b // g
    return [d for d in diag if d != 0]


def xgcd(a, b):
    """Extended gcd: returns (g, x, y) with a*x + b*y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def crt_pair(r1, m1, r2, m2):
    """Solve x = r1 (m1), x = r2 (m2) for coprime m1, m2."""
    g, u, v = xgcd(m1, m2)
    if g != 1:
        raise InputError(f"moduli {m1}, {m2} are not coprime")
    m = m1 * m2
    return (r1 * m2 * v + r2 * m1 * u) % m, m


def crt_list(residues, moduli):
    """Minimal non-negative solution of simultaneous congruences (coprime moduli)."""
    r, m = 0, 1
    for ri, mi in zip(residues, moduli):
        r, m = crt_pair(r, m, ri % mi, mi)
    return r, m


def complete_unimodular(a):
    """Complete a primitive integer vector to a matrix in SL_n(Z) with first row a.

    Deterministic: column-Euclid on the vector, with the inverse row operations
    accumulated on N so that a = v*N holds throughout.
    """
    a = [int(x) for x in a]
    n = len(a)
    if n == 0 or gcd(*a) != 1:
        raise InputError("vector is not primitive")
    v = list(a)
    N = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(1, n):
        while v[j] != 0:
            if v[0] == 0:
                v[0], v[j] = v[j], v[0]
                N[0], N[j] = N[j], N[0]
                continue
            q = v[j] // v[0]
            # v <- v*E with E = I - q*e_0*e_j^T; N <- E^{-1}*N keeps a = v*N
            v[j] -= q * v[0]
            N[0] = [x + q * y for x, y in zip(N[0], N[j])]
            if v[j] != 0:
                v[0], v[j] = v[j], v[0]
                N[0], N[j] = N[j], N[0]
    if v[0] == -1:
        v[0] = 1
        N[0] = [-x for x in N[0]]
    if det_int(N) == -1:
        if n == 1:
            raise InputError("cannot complete (-1) to det +1 in dimension 1")
        N[1] = [-x for x in N[1]]
    if det_int(N) != 1 or N[0] != a:
        raise RuntimeError("unimodular completion failed internally")
    return N

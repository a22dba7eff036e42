"""Finite fields F_{p^j} with vectorized point enumeration.

Field elements are encoded as integer indices 0..q-1: the element
sum_i d_i t^i (with t the class of the generator of F_p[t]/(modulus)) has
index sum_i d_i p^i.  The additive zero has index 0 and integer constants
c embed as index c mod p.  For j >= 2 the field carries dense add/mul
lookup tables, so polynomial evaluation over large point sets is numpy
fancy-indexing; for j = 1 the shared modular evaluator is used.  Point grids
are int32 arrays of element indices.

The canonical modulus for each (p, j) is the lexicographically first monic
irreducible polynomial, so counts are reproducible across runs.
"""

from functools import lru_cache
from itertools import product

import numpy as np

from .errors import BudgetExceededError, InputError
from .generic import Poly
from .residues import cyclic_convolve, drop_unused, eval_mod_vec, residue_chunks

DEFAULT_POINT_BUDGET = 50_000_000
_TABLE_CAP = 2500
_SCAN_BLOCK = 1 << 16  # rows per block of a zero-count scan, which bounds its memory


def is_prime(m):
    if m < 2:
        return False
    for d in range(2, int(m**0.5) + 1):
        if m % d == 0:
            return False
    return True


def primes_upto(bound):
    return [p for p in range(2, bound + 1) if is_prime(p)]


# -- polynomial arithmetic over F_p (coefficient lists, used only to find moduli)


def _polmulmod(a, b, mod, p):
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _polrem(res, mod, p)


def _polrem(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for k in range(dm + 1):
                a[i - dm + k] = (a[i - dm + k] - c * mod[k]) % p
    a = a[:dm]
    while a and a[-1] == 0:
        a.pop()
    return a


def _polpow_x(e, mod, p):
    """x^e mod (mod), binary powering."""
    result = [1]
    base = _polrem([0, 1], mod, p)
    while e:
        if e & 1:
            result = _polmulmod(result, base, mod, p)
        e >>= 1
        base = _polmulmod(base, base, mod, p)
    return result


def _polgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # a mod b with b made monic
        inv = pow(b[-1], -1, p)
        bm = [(c * inv) % p for c in b]
        a = _polrem(a, bm, p)
        a, b = b, a
    return a


def _is_irreducible(mod, p):
    j = len(mod) - 1
    # Rabin: x^{p^j} == x mod f, and gcd(x^{p^{j/r}} - x, f) = 1 for prime r | j
    xq = _polpow_x(p**j, mod, p)
    if xq != [0, 1]:
        return False
    for r in {r for r in range(2, j + 1) if j % r == 0 and is_prime(r)}:
        xr = _polpow_x(p ** (j // r), mod, p)
        diff = list(xr) + [0] * (2 - len(xr))
        diff[1] = (diff[1] - 1) % p
        while diff and diff[-1] == 0:
            diff.pop()
        g = _polgcd(mod, diff, p)
        if len(g) - 1 > 0:
            return False
    return True


@lru_cache(maxsize=None)
def canonical_modulus(p, j):
    """Lexicographically first monic irreducible of degree j over F_p."""
    if j == 1:
        return (0, 1)
    for tail in product(range(p), repeat=j):
        mod = list(reversed(tail)) + [1]  # low coefficients vary fastest, lex on (c0..c_{j-1})
        if _is_irreducible(mod, p):
            return tuple(mod)
    raise RuntimeError(f"no irreducible polynomial of degree {j} found over F_{p}")


@lru_cache(maxsize=8)
def _field_tables(p, j, modulus):
    """Read-only (add, mul, square, cube) tables of F_{p^j}.

    Built once per field and shared by every `ExtField` of it: a singular-locus
    probe constructs the same fields again and again.
    """
    q = p**j
    idx = np.arange(q)
    digits = np.empty((q, j), dtype=np.int64)
    rem = idx.copy()
    for i in range(j):
        digits[:, i] = rem % p
        rem //= p
    # powers of t reduced mod the modulus, up to degree 2j-2
    tp = {0: [1]}
    cur = [1]
    for m in range(1, 2 * j - 1):
        cur = _polmulmod(cur, [0, 1], list(modulus), p)
        tp[m] = cur
    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    for d in range(j):
        add += ((digits[:, None, d] + digits[None, :, d]) % p) * p**d
        w = np.zeros((j, j), dtype=np.int64)
        for i in range(j):
            for k in range(j):
                poly = tp[i + k]
                w[i, k] = poly[d] if d < len(poly) else 0
        mul += ((digits @ w @ digits.T) % p) * p**d
    add = add.astype(np.int32)
    mul = mul.astype(np.int32)
    pow2 = mul[idx, idx]
    pow3 = mul[idx, pow2]
    tables = (add, mul, pow2, pow3)
    for t in tables:
        t.flags.writeable = False
    return tables


class ExtField:
    """The canonical field F_{p^j} with table-backed vector arithmetic."""

    def __init__(self, p, j=1, modulus=None):
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        if j < 1:
            raise InputError("extension degree must be >= 1")
        self.p = int(p)
        self.j = int(j)
        self.q = p**j
        self.modulus = tuple(modulus) if modulus is not None else canonical_modulus(p, j)
        if len(self.modulus) != j + 1 or self.modulus[-1] % p != 1:
            raise InputError("modulus must be monic of degree j")
        if modulus is not None and j > 1 and not _is_irreducible(list(self.modulus), p):
            raise InputError("modulus is not irreducible over F_p")
        if self.j > 1:
            if self.q > _TABLE_CAP:
                raise BudgetExceededError(self.q, _TABLE_CAP, "extension field table size")
            self._add, self._mul, self._pow2, self._pow3 = _field_tables(
                self.p, self.j, self.modulus)

    def __repr__(self):
        return f"ExtField(p={self.p}, j={self.j})"

    def eval_poly_vec(self, poly, X):
        """Evaluate a Poly of degree <= 3 at points X (array of shape (N, m) of element indices)."""
        if self.j == 1:
            return eval_mod_vec(poly, X, self.p)
        powers = (None, None, self._pow2, self._pow3)
        acc = np.zeros(X.shape[0], dtype=np.int32)
        for e, c in poly.terms.items():
            c = int(c) % self.p  # integer constants lie in the prime subfield
            term = None
            for i, ei in enumerate(e):
                if ei:
                    f = X[:, i] if ei == 1 else powers[ei][X[:, i]]
                    term = f if term is None else self._mul[term, f]
            if term is None:
                term = np.full(X.shape[0], c, dtype=np.int32)
            elif c != 1:
                term = self._mul[c, term]
            acc = self._add[acc, term]
        return acc


def count_zeros_system(polys, field, budget=DEFAULT_POINT_BUDGET):
    """Exact #{x in F_q^m : all polys vanish}, by (vectorized) enumeration.

    Variables absent from every polynomial mod p are factored out analytically.
    """
    m = polys[0].n
    if any(f.n != m for f in polys):
        raise InputError("polynomials live in different variable counts")
    reduced, used = drop_unused(polys, field.p)
    reduced = [f for f in reduced if not f.is_zero()]
    if not reduced:
        return field.q**m
    needed = field.q ** len(used)
    if needed > budget:
        raise BudgetExceededError(needed, budget, "affine point enumeration")
    count = 0
    for X in residue_chunks(field.q, len(used), _SCAN_BLOCK, dtype=np.int32):
        mask = field.eval_poly_vec(reduced[0], X) == 0
        for f in reduced[1:]:
            if not mask.any():
                break
            sub = np.flatnonzero(mask)
            vals = field.eval_poly_vec(f, X[sub])
            mask[sub[vals != 0]] = False
        count += int(mask.sum())
    return count * field.q ** (m - len(used))


def count_cone_zeros(polys, field, budget=DEFAULT_POINT_BUDGET):
    """`count_zeros_system` for forms of positive degree, counted on projective charts.

    The common zeros of forms make a cone: 1 + (q - 1) #P points over the k
    variables kept mod p, where #P sums the zeros of the charts
    x_1 = ... = x_{i-1} = 0, x_i = 1 of those variables.  The largest chart
    has q^(k-1) points.
    """
    for f in polys:
        degrees = {len(cols) for _, cols in f.monomials()}
        if len(degrees) > 1 or 0 in degrees:
            raise InputError("projective charts need forms of positive degree")
    reduced, used = drop_unused(polys, field.p)
    k = len(used)
    charts = 0
    for i in range(k):
        chart = [Poly(k - 1 - i, {e[i + 1:]: c for e, c in f.terms.items() if not any(e[:i])})
                 for f in reduced]
        charts += count_zeros_system(chart, field, budget)
    return field.q ** (polys[0].n - k) * (1 + (field.q - 1) * charts)


def count_affine_zeros(F, field, budget=DEFAULT_POINT_BUDGET):
    """Exact #{x in F_q^m : F(x) = 0}.

    Separable polynomials (every monomial univariate) are counted by value
    histogram convolution, so diagonal forms stay cheap at large q^m; anything
    else is enumerated within the budget.
    """
    F = F.to_generic()
    if F.is_zero():
        return field.q**F.n
    if F.is_separable():
        return count_separable(F, field.q, field)
    return count_zeros_system([F], field, budget)


def additive_convolve(field, h1, h2):
    """Cyclic convolution of histograms over the additive group of the field."""
    if field.j == 1:
        return cyclic_convolve(h1, h2)
    out = np.zeros(field.q, dtype=np.int64)
    for b in np.flatnonzero(h2):
        out[field._add[:, b]] += h1 * int(h2[b])
    return out


def count_separable(F, q, field=None):
    """Exact #{x : F(x) = 0} for a separable Poly F, by value-histogram convolution.

    The count is over Z/q when `field` is None, else over the field F_q.
    """
    const, per_var = F.single_variable_pieces()
    x = np.arange(q)[:, None]
    hist = None
    for cmap in filter(None, per_var):
        piece = Poly(1, {(d,): c for d, c in cmap.items()})
        vals = eval_mod_vec(piece, x, q) if field is None else field.eval_poly_vec(piece, x)
        h = np.bincount(vals, minlength=q)
        if hist is not None:
            h = cyclic_convolve(hist, h) if field is None else additive_convolve(field, hist, h)
        hist = h
    if hist is None:
        return 0  # non-zero constant, no variables: no zeros (const == 0 handled by callers)
    # -const lies in the prime subfield, whose elements have index c mod p
    target = (-const) % (q if field is None else field.p)
    return int(hist[target]) * q ** sum(1 for cmap in per_var if not cmap)


def projective_from_affine(affine_count, q):
    """Projective count for a cone: (affine - 1)/(q - 1), exactly."""
    num = affine_count - 1
    if num % (q - 1):
        raise RuntimeError("affine count of a cone must be 1 mod (q-1)")
    return num // (q - 1)

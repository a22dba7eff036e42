"""Generic integer polynomials keyed by exponent vectors.

`CubicPolynomial` enforces degree exactly 3; the finite-field counting and the
p-adic lifting recursion also need linear forms, quadrics, and rescaled
polynomials, which live here.  Exponent vectors are length-n tuples.
"""

from itertools import product
from math import comb

from .errors import InputError


class Poly:
    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        n = int(n)
        if n < 0:
            raise InputError("dimension must be >= 0")
        clean = {}
        for e, c in dict(terms).items():
            e = tuple(int(x) for x in e)
            if len(e) != n or any(x < 0 for x in e):
                raise InputError(f"bad exponent vector {e}")
            c = int(c)
            if c:
                clean[e] = clean.get(e, 0) + c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c})

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"Poly(n={self.n}, {len(self.terms)} terms)"

    def is_zero(self):
        return not self.terms

    def eval(self, x):
        if len(x) != self.n:
            raise InputError(f"point has length {len(x)}, expected {self.n}")
        total = 0
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(x, e):
                if ei:
                    v *= int(xi) ** ei
            total += v
        return total

    def to_generic(self):
        return self

    def monomials(self):
        """(coefficient, 0-based column per factor) for each term: 5 x1^2 x3 -> (5, (0, 0, 2))."""
        return [(c, tuple(i for i, x in enumerate(e) for _ in range(x)))
                for e, c in self.terms.items()]

    def partial(self, i):
        """Partial derivative with respect to variable i (1-based)."""
        out = {}
        for e, c in self.terms.items():
            ei = e[i - 1]
            if ei:
                e2 = e[: i - 1] + (ei - 1,) + e[i:]
                out[e2] = out.get(e2, 0) + c * ei
        return Poly(self.n, out)

    def gradient_polys(self):
        return [self.partial(i) for i in range(1, self.n + 1)]

    def is_separable(self):
        """True when every monomial involves at most one variable."""
        return all(sum(1 for x in e if x) <= 1 for e in self.terms)

    def variables_used(self):
        return sorted({i + 1 for e in self.terms for i, x in enumerate(e) if x})

    def single_variable_pieces(self):
        """For a separable polynomial: (constant, [per-variable coefficient maps]).

        The i-th map sends exponent d >= 1 to the coefficient of x_{i+1}^d.
        """
        if not self.is_separable():
            raise InputError("polynomial is not separable")
        const = 0
        per_var = [dict() for _ in range(self.n)]
        for e, c in self.terms.items():
            deg = sum(e)
            if deg == 0:
                const += c
            else:
                i = next(i for i, x in enumerate(e) if x)
                per_var[i][e[i]] = per_var[i].get(e[i], 0) + c
        return const, per_var

    def shift_scale(self, x0, p):
        """Exact substitution x := x0 + p*y, expanded as a polynomial in y."""
        if len(x0) != self.n:
            raise InputError("base point has wrong length")
        out = {}
        for e, c in self.terms.items():
            # expand prod_i (x0_i + p y_i)^{e_i}
            choices = [range(ei + 1) for ei in e]
            for pick in product(*choices):
                coeff = c
                for x0i, ei, ai in zip(x0, e, pick):
                    coeff *= comb(ei, ai) * int(x0i) ** (ei - ai) * p**ai
                if coeff:
                    out[pick] = out.get(pick, 0) + coeff
        return Poly(self.n, out)

    def divide_exact(self, m):
        out = {}
        for e, c in self.terms.items():
            if c % m:
                raise InputError(f"coefficient {c} not divisible by {m}")
            out[e] = c // m
        return Poly(self.n, out)


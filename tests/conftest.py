import math
from itertools import product

import numpy as np
import pytest

from cubicpoints.errors import InputError
from cubicpoints.finitefield import DEFAULT_POINT_BUDGET, ExtField, count_affine_zeros
from cubicpoints.polynomials import CubicPolynomial
from cubicpoints.residues import eval_mod_vec


def diag_cubic(n, const=0, coeffs=None):
    """Diagonal cubic sum c_i x_i^3 + const."""
    coeffs = coeffs or [1] * n
    terms = {tuple(3 if j == i else 0 for j in range(n)): c
             for i, c in enumerate(coeffs)}
    terms[(0,) * n] = const
    return CubicPolynomial.from_terms(n, terms)


def random_cubic(rng, n, span=3):
    """Random dense cubic polynomial with coefficients in [-span, span].

    Draws again while every cubic coefficient is 0, so the result has degree 3;
    a first draw with a cubic term is kept, so a fixed seed keeps its cubic.
    """
    from itertools import combinations_with_replacement

    while True:
        terms = {}
        for deg in range(4):
            for idx in combinations_with_replacement(range(n), deg):
                e = [0] * n
                for i in idx:
                    e[i] += 1
                terms[tuple(e)] = int(rng.integers(-span, span + 1))
        if any(c for e, c in terms.items() if sum(e) == 3):
            return CubicPolynomial.from_terms(n, terms)


def deligne_defect(F, p, j, s, budget=DEFAULT_POINT_BUDGET):
    """|count - q^{m-1}| / q^{(m+1+s)/2} for a form F of degree coprime to p."""
    f = F.to_generic()
    degrees = {sum(e) for e in f.terms}
    if len(degrees) != 1:
        raise InputError("F must be a non-zero form")
    (d,) = degrees
    if d % p == 0:
        raise InputError(f"p={p} divides the degree {d}")
    fld = ExtField(p, j)
    q = fld.q
    m = f.n
    count = count_affine_zeros(f, fld, budget)
    return abs(count - q ** (m - 1)) / q ** ((m + 1 + s) / 2)


def oracle_histogram(spec):
    """The phase histogram of S_u(q; v) by a scan of every y mod q, added up unit by unit."""
    g, q, u = spec.g, spec.q, spec.u
    Y = np.array(list(product(range(q), repeat=g.n)), dtype=np.int64)
    s = eval_mod_vec(g, Y, q)
    t = Y @ np.array(spec.v, dtype=np.int64) % q
    hist = np.zeros(q, dtype=np.int64)
    for a in range(1, q + 1):
        if math.gcd(a, q) == 1:
            np.add.at(hist, (pow(a, -1, q) * u + a * s - t) % q, 1)
    return tuple(int(x) for x in hist)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def mixed2():
    """x1^3 + x2^3 + x1 x2 + 1: composite-friendly two-variable test case."""
    return CubicPolynomial.from_terms(
        2, {(3, 0): 1, (0, 3): 1, (1, 1): 1, (0, 0): 1})


@pytest.fixture
def seven_var_corpus():
    """Cubic part x1^3+...+x5^3 embedded in 7 variables with an affine tail."""
    n = 7
    terms = {tuple(3 if j == i else 0 for j in range(n)): 1 for i in range(5)}
    terms[tuple(1 if j == 5 else 0 for j in range(n))] = 1
    terms[tuple(1 if j == 6 else 0 for j in range(n))] = 2
    terms[(0,) * n] = 1
    return CubicPolynomial.from_terms(n, terms)

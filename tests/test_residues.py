"""The shared Z/q kernels against scalar brute-force oracles."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicpoints.finitefield import ExtField, count_affine_zeros, count_zeros_system
from cubicpoints.generic import Poly
from cubicpoints.polynomials import CubicPolynomial
from cubicpoints.residues import cyclic_convolve, eval_mod_vec


@st.composite
def poly_and_points(draw, q):
    """A random polynomial of degree <= 3 (either class) and rows in [0, q)."""
    n = draw(st.integers(1, 4))
    monomials = [e for e in product(range(4), repeat=n) if sum(e) <= 3]
    coeff = st.integers(-10**12, 10**12)
    terms = draw(st.dictionaries(st.sampled_from(monomials), coeff, max_size=12))
    if draw(st.booleans()):
        top = draw(st.sampled_from([e for e in monomials if sum(e) == 3]))
        terms[top] = draw(coeff.filter(bool))
        g = CubicPolynomial.from_terms(n, terms)
    else:
        g = Poly(n, terms)
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=20))
    return g, rows


def _scalar(g, rows, q):
    return [g.to_generic().eval(x) % q for x in rows]


@pytest.mark.parametrize("q", [81, 125, 46349])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_eval_mod_vec_matches_scalar_eval_over_Z_mod_q(q, data):
    g, rows = data.draw(poly_and_points(q))
    vals = eval_mod_vec(g, np.array(rows, dtype=np.int64), q)
    assert vals.dtype == np.int64
    assert vals.tolist() == _scalar(g, rows, q)


@pytest.mark.parametrize("p", [7, 65537])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_prime_field_evaluation_on_int32_grids_matches_scalar_eval(p, data):
    g, rows = data.draw(poly_and_points(p))
    vals = ExtField(p, 1).eval_poly_vec(g, np.array(rows, dtype=np.int32))
    assert vals.tolist() == _scalar(g, rows, p)


def test_zero_counts_at_a_prime_beyond_int32_squares():
    # 65537 = 2 mod 3, so cubing is a bijection of F_p: exactly one root
    p = 65537
    F = Poly(1, {(3,): 1, (0,): -60000**3})
    brute = sum(1 for x in range(p) if (x**3 - 60000**3) % p == 0)
    assert brute == 1
    fld = ExtField(p, 1)
    assert count_zeros_system([F], fld) == brute  # enumeration path
    assert count_affine_zeros(F, fld) == brute  # separable (histogram) path


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_cyclic_convolve_in_two_dimensions_matches_a_double_loop(data):
    shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
    cells = st.lists(st.integers(0, 5), min_size=shape[0] * shape[1],
                     max_size=shape[0] * shape[1])
    h1 = np.array(data.draw(cells), dtype=np.int64).reshape(shape)
    h2 = np.array(data.draw(cells), dtype=np.int64).reshape(shape)
    expected = np.zeros(shape, dtype=np.int64)
    for (i, j), (k, l) in product(np.ndindex(shape), np.ndindex(shape)):
        expected[(i + k) % shape[0], (j + l) % shape[1]] += h1[i, j] * h2[k, l]
    assert np.array_equal(cyclic_convolve(h1, h2), expected)

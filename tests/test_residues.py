"""The shared Z/q kernels against scalar brute-force oracles."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicpoints import residues
from cubicpoints.finitefield import ExtField, count_affine_zeros, count_zeros_system
from cubicpoints.generic import Poly
from cubicpoints.polynomials import CubicPolynomial
from cubicpoints.residues import cyclic_convolve, eval_mod_vec, grid_values, residue_chunks


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


def _grid_cases(q, m, side, polys, V, block):
    """Every block of `grid_values` against `eval_mod_vec` on the chunks of `residue_chunks`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residues, "GRID_BLOCK", block)
        chunks = list(residue_chunks(side, m, chunk=block))
        got, labels = list(grid_values(polys, q, side)), list(grid_values(V, q, side))
    assert len(got) == len(labels) == len(chunks)
    for Y, G, T in zip(chunks, got, labels):
        assert G.dtype == T.dtype == np.int64
        assert G.tolist() == [eval_mod_vec(f, Y, q).tolist() for f in polys]
        assert np.array_equal(T, (Y @ V.T % q).T)  # |entries| stay below 2^63 here


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_grid_values_match_eval_mod_vec_block_by_block(data):
    # small GRID_BLOCKs split small grids into many blocks; the values do not depend on it
    q = data.draw(st.integers(1, 1000) | st.sampled_from([2**31 - 1, 2**31 - 19]))
    m = data.draw(st.integers(0, 7))
    side = data.draw(st.integers(1, max(1, min(q, int(3000 ** (1 / max(m, 1)))))))
    block = data.draw(st.sampled_from([1, 5, 64, residues.GRID_BLOCK]))
    # degree <= 3 in every variable; a sparse draw leaves layers and variables empty
    monomials = [e for e in product(range(4), repeat=m) if sum(e) <= 3]
    coeff = st.integers(-10**12, 10**12) | st.sampled_from([q, -q, 1])
    polys = [Poly(m, data.draw(st.dictionaries(st.sampled_from(monomials), coeff, max_size=8)))
             for _ in range(data.draw(st.integers(1, 3)))]
    if data.draw(st.booleans()):  # a constant
        polys.append(Poly(m, {(0,) * m: data.draw(coeff)}))
    rows = data.draw(st.lists(st.lists(st.integers(-q, 2 * q), min_size=m, max_size=m),
                              min_size=1, max_size=4))
    V = np.array(rows, dtype=np.int64).reshape(len(rows), m)
    _grid_cases(q, m, side, polys, V, block)


@pytest.mark.parametrize("q,m,side,block", [
    (31, 4, 31, residues.GRID_BLOCK),  # 31 blocks
    (2**31 - 1, 2, 600, residues.GRID_BLOCK),  # 600 blocks
    (2**31 - 1, 1, 3000, residues.GRID_BLOCK),  # Horner: q 3000^3 passes 2^63
    (2**31 - 1, 1, 3000, 1000),  # blocks of one row, reduced at every term
])
def test_grid_values_on_large_grids_and_moduli(q, m, side, block):
    monomials = [e for e in product(range(4), repeat=m) if sum(e) <= 3]
    g = Poly(m, {e: -(2**40 + 7919 * i) for i, e in enumerate(monomials)})  # near -2^40 mod q
    V = (np.arange(3 * m, dtype=np.int64).reshape(3, m) * (q // 7 + 1)) % q
    _grid_cases(q, m, side, [g, g.partial(1)], V, block)

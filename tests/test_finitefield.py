from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicpoints import finitefield, geometry
from cubicpoints.errors import BudgetExceededError, InputError
from cubicpoints.finitefield import (ExtField, additive_convolve,
                                     canonical_modulus, count_affine_zeros, count_cone_zeros,
                                     count_zeros_system, is_prime, primes_upto,
                                     projective_from_affine)
from cubicpoints.generic import Poly


def test_is_prime_small_range():
    sieve = [False, False] + [True] * 199
    for i in range(2, 15):
        for j in range(2 * i, 201, i):
            sieve[j] = False
    for m in range(201):
        assert is_prime(m) == sieve[m]


def test_primes_upto():
    assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_upto(1) == []


def test_canonical_modulus_deterministic_and_irreducible():
    m1 = canonical_modulus(5, 2)
    m2 = canonical_modulus(5, 2)
    assert m1 == m2
    # irreducible quadratic mod 5 has no roots
    a0, a1 = m1[0], m1[1]
    for x in range(5):
        assert (x * x + a1 * x + a0) % 5 != 0


def field_ops(fld):
    """(add, mul) on element indices: the tables of F_{p^j} for j >= 2, arithmetic mod p for j = 1."""
    if fld.j == 1:
        return (lambda a, b: (a + b) % fld.p), (lambda a, b: (a * b) % fld.p)
    return (lambda a, b: fld._add[a, b]), (lambda a, b: fld._mul[a, b])


@pytest.mark.parametrize("p,j", [(2, 2), (3, 2), (5, 2), (7, 1)])
def test_field_axioms_sampled(p, j):
    fld = ExtField(p, j)
    add, mul = field_ops(fld)
    q = fld.q
    idx = np.arange(q, dtype=np.int64)
    # Frobenius power: a^q = a for every element
    power = idx
    for _ in range(q - 1):
        power = mul(power, idx)
    assert (power == idx).all()
    # every element has exactly one additive inverse
    assert all((add(a, idx) == 0).sum() == 1 for a in range(q))
    # distributivity on a sample
    rng = np.random.default_rng(1)
    a, b, c = (rng.integers(0, q, size=50) for _ in range(3))
    assert (mul(a, add(b, c)) == add(mul(a, b), mul(a, c))).all()


def brute_zeros(F, fld, m):
    from itertools import product

    add, mul = field_ops(fld)
    count = 0
    for x in product(range(fld.q), repeat=m):
        total = 0
        for e, co in F.terms.items():
            t = co % fld.p
            for xi, ei in zip(x, e):
                for _ in range(ei):
                    t = int(mul(t, xi))
            total = int(add(total, t))
        count += total == 0
    return count


@pytest.mark.parametrize("p,j", [(3, 1), (5, 1), (2, 2), (3, 2)])
def test_count_affine_zeros_against_enumeration(p, j):
    fld = ExtField(p, j)
    F = Poly(2, {(3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1})
    assert count_affine_zeros(F, fld) == brute_zeros(F, fld, 2)


def test_separable_path_matches_enumeration():
    fld = ExtField(7, 1)
    F = Poly(3, {(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 1): 3, (0, 0, 0): 5})
    assert F.is_separable()
    assert count_affine_zeros(F, fld) == brute_zeros(F, fld, 3)


def test_count_zeros_system_matches_pairwise():
    fld = ExtField(5, 1)
    F = Poly(2, {(3, 0): 1, (0, 3): 1})
    G = Poly(2, {(1, 0): 1, (0, 1): 4})
    from itertools import product

    expected = sum(
        1 for x in product(range(5), repeat=2)
        if (x[0] ** 3 + x[1] ** 3) % 5 == 0 and (x[0] + 4 * x[1]) % 5 == 0)
    assert count_zeros_system([F, G], fld) == expected


def test_count_zeros_system_budget():
    fld = ExtField(11, 1)
    F = Poly(4, {(1, 1, 1, 0): 1, (0, 0, 0, 1): 1})
    with pytest.raises(BudgetExceededError):
        count_zeros_system([F], fld, budget=100)


def test_unused_variables_factored():
    fld = ExtField(5, 1)
    F = Poly(4, {(3, 0, 0, 0): 1, (0, 0, 0, 0): 1})
    G = Poly(1, {(3,): 1, (0,): 1})
    assert count_zeros_system([F], fld) == 5**3 * count_zeros_system([G], fld)


def test_value_histogram_and_convolution():
    fld = ExtField(7, 1)
    x = np.arange(fld.q, dtype=np.int32)[:, None]
    h = np.bincount(fld.eval_poly_vec(Poly(1, {(3,): 1}), x), minlength=fld.q)
    assert int(h.sum()) == 7
    # x^3 is 3-to-1 onto cubes: histogram entries are 0, 1 (at 0) or 3
    assert int(h[0]) == 1 and set(int(v) for v in h) <= {0, 1, 3}
    h2 = additive_convolve(fld, h, h)
    assert int(h2.sum()) == 49
    F = Poly(2, {(3, 0): 1, (0, 3): 1})
    assert int(h2[0]) == count_affine_zeros(F, fld)


def test_projective_from_affine():
    assert projective_from_affine(1, 5) == 0
    assert projective_from_affine(1 + 3 * 4, 5) == 3
    with pytest.raises(RuntimeError):
        projective_from_affine(2, 5)


def test_cone_count_check_survives_optimized_mode():
    # a singular-locus probe whose affine count of the cone is not 1 mod (q - 1)
    g0 = Poly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    with mock.patch.object(geometry, "count_cone_zeros", return_value=2):
        with pytest.raises(RuntimeError):
            geometry.singular_locus_dim_mod_p(g0, 5)


@st.composite
def form_systems(draw):
    """(field, forms): F_p or F_(p^2), one to three forms of degree 1-3 in m <= 5 variables.

    Coefficients that are multiples of p drop terms, and with them variables,
    mod p; forms without terms, and systems of such forms, are drawn too.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    j = draw(st.integers(1, 2))
    q = p**j
    m = draw(st.integers(1, max(k for k in range(1, 6) if q**k <= 400_000)))
    coeffs = st.integers(-3, 3) | st.integers(-2, 2).map(lambda c: c * p)
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        monos = [e for e in product(range(d + 1), repeat=m) if sum(e) == d]
        chosen = draw(st.lists(st.sampled_from(monos), max_size=4, unique=True))
        forms.append(Poly(m, {e: draw(coeffs) for e in chosen}))
    return ExtField(p, j), forms


@given(form_systems())
@settings(max_examples=120, deadline=None)
def test_cone_count_matches_the_direct_scan(case):
    fld, forms = case
    assert count_cone_zeros(forms, fld) == count_zeros_system(forms, fld)


@pytest.mark.parametrize("terms", [{(1, 0): 1, (2, 0): 1}, {(0, 0): 3}, {(1, 1): 2, (0, 0): 1}])
def test_cone_count_requires_forms(terms):
    with pytest.raises(InputError):
        count_cone_zeros([Poly(2, {(0, 2): 1}), Poly(2, terms)], ExtField(5))


def test_modulus_search_failure_is_an_error():
    with mock.patch.object(finitefield, "_is_irreducible", return_value=False):
        with pytest.raises(RuntimeError):
            canonical_modulus.__wrapped__(3, 2)

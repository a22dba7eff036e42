import cmath
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diag_cubic, random_cubic
from cubicpoints.arith import euler_phi
from cubicpoints.errors import BudgetExceededError, InputError
from cubicpoints.expsums import (ExpSumSpec, M_split_identity_check,
                                 _eval_int_vec, box_sum_diagnostic,
                                 complete_sum, count_M, crt_sum, expsum_auto,
                                 kernel_count, ntilde, squarefull_parts,
                                 theta_p)
from cubicpoints.polynomials import CubicPolynomial


def brute_sum(g, u, q, v):
    total = 0j
    e = lambda t: cmath.exp(2j * cmath.pi * t / q)
    for a in range(q):
        if math.gcd(a, q) != 1:
            continue
        abar = pow(a, -1, q)
        for y in product(range(q), repeat=g.n):
            phase = a * g.eval(list(y)) - sum(vi * yi for vi, yi in zip(v, y))
            total += e(abar * u) * e(phase)
    return total


def test_trivial_modulus():
    g = diag_cubic(2)
    res = complete_sum(ExpSumSpec(g, 0, 1, (0, 0)))
    assert res.value == 1


def test_histogram_conservation(rng):
    for _ in range(5):
        g = random_cubic(rng, 2)
        q = int(rng.choice([3, 4, 5, 6]))
        u = int(rng.integers(0, q))
        v = tuple(int(x) for x in rng.integers(0, q, size=2))
        res = complete_sum(ExpSumSpec(g, u, q, v))
        assert sum(res.histogram) == euler_phi(q) * q**2


@pytest.mark.parametrize("q,u,v", [(2, 1, (1,)), (3, 0, (2,)), (5, 2, (1,)),
                                   (9, 1, (4,))])
def test_complete_sum_against_brute_force_n1(q, u, v):
    g = CubicPolynomial.from_terms(1, {(3,): 1, (1,): 2, (0,): 1})
    res = complete_sum(ExpSumSpec(g, u, q, v))
    assert abs(res.value - brute_sum(g, u, q, v)) < 1e-9


def test_complete_sum_against_brute_force_n2(mixed2):
    for q, u, v in [(4, 1, (1, 2)), (5, 2, (0, 3)), (6, 1, (1, 1))]:
        res = complete_sum(ExpSumSpec(mixed2, u, q, v))
        assert abs(res.value - brute_sum(mixed2, u, q, v)) < 1e-9


def test_conjugation_symmetry(mixed2):
    q = 7
    a = complete_sum(ExpSumSpec(mixed2, 2, q, (1, 3))).value
    b = complete_sum(ExpSumSpec(mixed2, -2, q, (-1, -3))).value
    assert abs(b - a.conjugate()) < 1e-10


def test_crt_matches_direct(mixed2):
    for q in (6, 12, 15, 36):
        for u, v in [(1, (1, 2)), (0, (0, 0)), (5, (3, 4))]:
            direct = complete_sum(ExpSumSpec(mixed2, u, q, v)).value
            viacrt = crt_sum(ExpSumSpec(mixed2, u, q, v)).value
            assert abs(direct - viacrt) < 1e-9 * (1 + abs(direct))


def test_expsum_auto_picks_crt(mixed2):
    assert expsum_auto(ExpSumSpec(mixed2, 1, 6, (1, 1))).method == "crt"
    assert expsum_auto(ExpSumSpec(mixed2, 1, 5, (1, 1))).method == "direct"


def test_unused_variable_factor():
    g2 = CubicPolynomial.from_terms(2, {(3, 0): 1, (0, 0): 1})
    g1 = CubicPolynomial.from_terms(1, {(3,): 1, (0,): 1})
    q = 7
    a = complete_sum(ExpSumSpec(g2, 1, q, (2, 0))).value
    b = complete_sum(ExpSumSpec(g1, 1, q, (2,))).value
    assert abs(a - q * b) < 1e-9


def test_budget_enforced():
    g = diag_cubic(4)
    with pytest.raises(BudgetExceededError):
        complete_sum(ExpSumSpec(g, 1, 101, (0, 0, 0, 0)), budget=1000)


def test_kernel_count():
    assert kernel_count([[2, 0], [0, 3]], 6) == 6
    assert kernel_count([[1, 0], [0, 1]], 5) == 1
    assert kernel_count([[0, 0], [0, 0]], 4) == 16


def brute_ntilde(g, q):
    n = g.n
    total = 0
    for h in product(range(q), repeat=n):
        H = g.hessian(list(h)).entries
        total += sum(
            1 for x in product(range(q), repeat=n)
            if all(sum(H[i][j] * x[j] for j in range(n)) % q == 0
                   for i in range(n)))
    return total


def test_ntilde_against_brute_force(mixed2):
    for q in (5, 7):
        assert ntilde(mixed2, q) == brute_ntilde(mixed2, q)


def test_ntilde_multiplicative(mixed2):
    assert ntilde(mixed2, 35) == ntilde(mixed2, 5) * ntilde(mixed2, 7)


def test_ntilde_reduces_the_pencil_before_int64_products():
    # N~(p) depends on g mod p only: (10^18 + 2) x^3 + y^3 is 3 x^3 + y^3 mod 5
    big = CubicPolynomial.from_terms(2, {(3, 0): 10**18 + 2, (0, 3): 1})
    small = CubicPolynomial.from_terms(2, {(3, 0): 3, (0, 3): 1})
    assert ntilde(big, 5) == ntilde(small, 5) == 81


@given(st.integers(1, 3), st.sampled_from([5, 7, 11]), st.data())
@settings(max_examples=30, deadline=None)
def test_ntilde_depends_on_coefficients_mod_p_only(n, p, data):
    monomials = [e for e in product(range(4), repeat=n) if sum(e) <= 3]
    terms = data.draw(st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3)))
    terms[(3,) + (0,) * (n - 1)] = data.draw(st.integers(1, p - 1))
    shifts = st.integers(-10**20, 10**20)
    lifted = {e: c + p * data.draw(shifts) for e, c in terms.items()}
    assert (ntilde(CubicPolynomial.from_terms(n, lifted), p)
            == ntilde(CubicPolynomial.from_terms(n, terms), p))


def test_ntilde_rejects_moduli_sharing_six(mixed2):
    with pytest.raises(InputError):
        ntilde(mixed2, 6)


def test_count_M_brute(mixed2):
    p, f = 5, 2
    for k in [(0, 0), (1, 2), (4, 3)]:
        expected = sum(
            1 for h in product(range(p**f), repeat=2)
            if all((h[i] - k[i]) % p == 0 for i in range(2))
            and mixed2.eval(list(h)) % p**f == 0)
        assert count_M(mixed2, p, f, list(k)) == expected


@pytest.mark.parametrize("p,f,ell", [(5, 2, 1), (5, 2, 2), (7, 2, 1)])
def test_M_split_identity(mixed2, p, f, ell):
    rep = M_split_identity_check(mixed2, p, f, [1, 2], ell)
    assert rep.difference == 0
    assert rep.expsum_side == rep.telescoped


def test_squarefull_parts():
    for q in (4, 8, 72, 5**13, 2**14, 3**5 * 7**2):
        parts = squarefull_parts(q)
        assert parts.q1**2 * parts.q2 == q
        assert parts.q2 % parts.q4 == 0
    p13 = squarefull_parts(5**13)
    assert (p13.q1, p13.q2, p13.q4) == (5**6, 5, 5)
    assert squarefull_parts(12).q4 == 1


def test_theta():
    assert [e for e in range(1, 20) if theta_p(e)] == [13, 15, 17, 19]


def test_box_sum_requires_square_full(mixed2):
    with pytest.raises(InputError):
        box_sum_diagnostic(mixed2, 1, 10, (0, 0), 2)
    rep = box_sum_diagnostic(mixed2, 1, 49, (0, 0), 2)
    assert rep.total <= rep.envelope


def test_integer_evaluation_refuses_int64_wraparound():
    g = CubicPolynomial.from_terms(1, {(3,): 10**12})
    assert _eval_int_vec(g, np.array([[100], [-7]])).tolist() == [10**18, -343 * 10**12]
    with pytest.raises(InputError):
        _eval_int_vec(g, np.array([[3000]]))  # 2.7e22 would wrap to -6.0e18

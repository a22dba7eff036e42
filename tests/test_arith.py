import math

import pytest

from cubicpoints.arith import (euler_phi, factorize, is_squarefull, omega,
                               ramanujan_prime_power, val_p)


def test_factorize_round_trip():
    for q in range(1, 500):
        f = factorize(q)
        assert math.prod(p**e for p, e in f.items()) == q
        assert all(e >= 1 for e in f.values())


def test_phi_omega():
    assert [euler_phi(q) for q in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert omega(1) == 0
    assert omega(60) == 3


def test_squarefull_squarefree():
    assert is_squarefull(72 * 2)  # 144 = 2^4 3^2
    assert not is_squarefull(12)
    assert is_squarefull(1)


def test_val_p():
    assert val_p(24, 2) == 3
    assert val_p(24, 5) == 0
    assert val_p(0, 7) is None


def test_ramanujan_matches_definition():
    # c_{p^e}(m) = sum over a coprime to p^e of e(am / p^e), checked exactly
    import cmath

    for p, e in [(2, 3), (3, 2), (5, 1), (5, 2)]:
        q = p**e
        for m in range(q):
            direct = sum(cmath.exp(2j * cmath.pi * a * m / q)
                         for a in range(q) if math.gcd(a, q) == 1)
            assert abs(direct - ramanujan_prime_power(p, e, m)) < 1e-9

from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diag_cubic, random_cubic
from cubicpoints.errors import BudgetExceededError, InputError, NonLiftableError
from cubicpoints.padic import (_SCAN_CHUNK, DEFAULT_BRANCH_BUDGET, PAdicWitness,
                               _count_recursive, _first_witness, _nonsingular_mask,
                               congruence_condition, count_zeros_mod_pk,
                               grad_prime_zero_search, hensel_lift, local_density,
                               nonsingular_zero_search)
from cubicpoints.polynomials import CubicPolynomial, watson_polynomial


def brute_count(g, p, k):
    q = p**k
    return sum(1 for x in product(range(q), repeat=g.n)
               if g.eval(list(x)) % q == 0)


def test_hensel_lift_unique_root():
    g = CubicPolynomial.from_terms(1, {(3,): 1, (1,): 1, (0,): -2})
    w = PAdicWitness(5, 1, (1,), 0)
    assert w.verify(g)
    lifted = hensel_lift(g, w, 3)
    assert lifted.verify(g)
    assert g.eval(lifted.x) % 125 == 0
    assert (lifted.x[0] - 1) % 5 == 0


def test_hensel_margin_violation():
    # witness with grad_val = 1 at precision 1 violates k >= 2*grad_val + 1
    g = CubicPolynomial.from_terms(1, {(3,): 1, (0,): -27})
    w = PAdicWitness(3, 1, (0,), 1)
    with pytest.raises(NonLiftableError):
        hensel_lift(g, w, 4)


@pytest.mark.parametrize("target", [2, 1], ids=["step", "result"])
def test_hensel_lift_checks_survive_optimized_mode(target):
    # g.eval passes the entry check, then reports a point that is no zero:
    # inside the first lifting step (target 2), or at the final check (target 1)
    g = CubicPolynomial.from_terms(1, {(3,): 1, (1,): 1, (0,): -2})
    w = PAdicWitness(5, 1, (1,), 0)
    with mock.patch.object(CubicPolynomial, "eval", side_effect=[0, 1]):
        with pytest.raises(RuntimeError):
            hensel_lift(g, w, target)


def test_lifting_recursion_depth_check_survives_optimized_mode(mixed2):
    # the recursion lowers k by 2 per level, so a depth above k means it did not descend
    with pytest.raises(RuntimeError):
        _count_recursive(mixed2.to_generic(), 3, 2, 10**6, 3)


def test_search_finds_nonsingular_zero(mixed2):
    for p in (2, 3, 5, 7, 11):
        res = nonsingular_zero_search(mixed2, p, kmax=6)
        assert res.status == "FOUND"
        assert res.witness.verify(mixed2)


def test_search_records_failure():
    g = CubicPolynomial.from_terms(1, {(3,): 1, (0,): 49})
    res = nonsingular_zero_search(g, 7, kmax=6)
    assert res.status == "FAILS"
    assert res.fail_k == 3
    # the failure is replayable: no zero of g mod 7^3 at all
    assert brute_count(g, 7, res.fail_k) == 0


def test_congruence_condition_verdicts():
    g = CubicPolynomial.from_terms(2, {(3, 0): 1, (0, 3): 1, (1, 0): 1,
                                       (0, 0): 4})
    assert congruence_condition(g, 20).overall == "HOLDS"
    bad = CubicPolynomial.from_terms(1, {(3,): 1, (0,): 49})
    verdict = congruence_condition(bad, 10)
    assert verdict.overall == "FAILS"
    assert verdict.per_prime[7].status == "FAILS"


def test_watson_satisfies_congruence_condition():
    assert congruence_condition(watson_polynomial(2), 20).overall == "HOLDS"


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 2), (2, 4), (7, 1)])
def test_count_zeros_small_oracle(rng, p, k):
    for _ in range(3):
        g = random_cubic(rng, 2)
        assert count_zeros_mod_pk(g, p, k) == brute_count(g, p, k)


def test_count_zeros_recursive_path(rng):
    # force the lifting recursion with a budget below direct enumeration
    g = CubicPolynomial.from_terms(2, {(3, 0): 1, (0, 3): 1, (0, 0): 9})
    expected = brute_count(g, 3, 4)
    assert count_zeros_mod_pk(g, 3, 4, budget=10) == expected


def test_count_zeros_separable_path():
    g = diag_cubic(3, const=2)
    expected = brute_count(g, 5, 2)
    assert count_zeros_mod_pk(g, 5, 2, budget=20) == expected


def test_local_density_matches_count(mixed2):
    p, k = 5, 2
    dens = local_density(mixed2, p, k)
    n = mixed2.n
    assert dens == Fraction(brute_count(mixed2, p, k), p ** (k * (n - 1)))


# -- the streamed witness scans against a brute-force reference -------------


def _values(g, X):
    """g at the rows of X in int64, without reduction (small inputs only)."""
    return sum(c * np.prod(X[:, list(cols)], axis=1) for c, cols in g.monomials())


def _levels(g, p):
    """(L, zeros of g mod p^L in lexicographic order) for L = 1, 2, ...

    Level 1 scans all of (Z/p)^n; level L + 1 lifts every zero mod p^L by
    every digit vector and keeps the zeros mod p^(L+1).
    """
    n = g.n
    D = np.indices((p,) * n).reshape(n, -1).T  # (Z/p)^n in lexicographic order
    X, level = D, 1
    while True:
        Z = X[_values(g, X) % p**level == 0]
        yield level, sorted(tuple(int(c) for c in x) for x in Z)
        X = (Z[:, None, :] + p**level * D[None, :, :]).reshape(-1, n)
        level += 1


def _val(vals, p, cap):
    """min over vals of val_p, capped at cap (0 has valuation cap)."""
    def one(v):
        k = 0
        while k < cap and v % p ** (k + 1) == 0:
            k += 1
        return k
    return min(one(v) for v in vals)


def _reference_nonsingular(g, p, kmax, branch_budget=DEFAULT_BRANCH_BUDGET):
    """(status, witness, fail_k): the first zero fitting the margin, level by level."""
    for level, Z in _levels(g, p):
        if not Z:
            return "FAILS", None, level
        for x in Z:
            gv = _val(g.gradient(x), p, level)
            if level >= 2 * gv + 1:
                return "FOUND", PAdicWitness(p, level, x, gv), None
        if level >= kmax or len(Z) * p**g.n > branch_budget:
            return "UNKNOWN", None, None


def _reference_grad_prime(h, p, kmax):
    """The first usable restricted-gradient witness, or the error class raised."""
    for level, Z in _levels(h, p):
        if not Z:
            return InputError
        for x in Z:
            grad = h.gradient(x)
            kp, gv = _val(grad[1:], p, level), _val(grad, p, level)
            if 2 * kp + 1 <= level and 2 * gv + 1 <= level:
                return PAdicWitness(p, level, x, gv, grad_prime_val=kp)
        if level > 2 * kmax + 1 or len(Z) * p**h.n > DEFAULT_BRANCH_BUDGET:
            return BudgetExceededError


def _check_searches(g, p, kmax):
    res = nonsingular_zero_search(g, p, kmax)
    assert (res.status, res.witness, res.fail_k) == _reference_nonsingular(g, p, kmax)
    if g.n < 2 or all(1 in key for key in g.cubic):
        return res, None  # no restricted-gradient search for these
    expected = _reference_grad_prime(g, p, kmax)
    if isinstance(expected, PAdicWitness):
        got = grad_prime_zero_search(g, p, kmax)
        assert got == expected
        return res, got
    with pytest.raises(expected):
        grad_prime_zero_search(g, p, kmax)
    return res, expected


def _late(rng, n, p):
    """A cubic with no zero mod p on x_1 = 0: the terms of a random cubic that
    contain x_1, with coefficient 1 on x_1^3, constant term 1, and p x_2^3 so
    that the cubic part is not divisible by x_1."""
    terms = {e: c for e, c in dict(random_cubic(rng, n).terms()).items() if e[0]}
    terms[(3,) + (0,) * (n - 1)] = 1
    terms[(0, 3) + (0,) * (n - 2)] = p
    terms[(0,) * n] = 1
    return CubicPolynomial.from_terms(n, terms)


def _singular(rng, n, p):
    """p A + p^2 B for a random cubic A and the lower-degree terms B of another:
    every zero mod p is singular."""
    a, b = dict(random_cubic(rng, n).terms()), dict(random_cubic(rng, n).terms())
    return CubicPolynomial.from_terms(
        n, {e: p * a.get(e, 0) + p * p * b.get(e, 0) * (sum(e) < 3) for e in set(a) | set(b)})


@pytest.mark.parametrize("p,n", [(13, 4), (11, 5), (5, 7), (3, 9)])
def test_streamed_searches_find_witness_past_the_first_chunk(p, n):
    assert p**n > _SCAN_CHUNK
    g = _late(np.random.default_rng(p * n), n, p)
    res, w = _check_searches(g, p, kmax=3)
    assert res.status == "FOUND" and res.witness.x[0] != 0 and w.x[0] != 0


def _cubes(n, c):
    """The terms of c (x_1^3 + ... + x_n^3)."""
    return {tuple(3 * (j == i) for j in range(n)): c for i in range(n)}


def test_streamed_searches_on_decided_and_deepened_cases():
    # no zero mod 7 in any of the seven chunks of (Z/7)^5: x_1^3 = 2 has no root
    fails = CubicPolynomial.from_terms(5, {**_cubes(5, 7), (3, 0, 0, 0, 0): 1, (0,) * 5: -2})
    res, err = _check_searches(fails, 7, kmax=3)
    assert res.status == "FAILS" and res.fail_k == 1 and err is InputError
    # 5 (x^3 + y^3) + 25 (x + 1): every zero mod 5 singular, found by deepening
    deep = CubicPolynomial.from_terms(2, {(3, 0): 5, (0, 3): 5, (1, 0): 25, (0, 0): 25})
    res, w = _check_searches(deep, 5, kmax=4)
    assert res.status == "FOUND" and res.witness.k > 1 and w.k > 1
    # 81 times a cubic: the restricted gradient stays too divisible up to 2 kmax + 1
    flat = CubicPolynomial.from_terms(2, {(3, 0): 81, (0, 3): 81, (1, 1): 81, (0, 0): 81})
    res, err = _check_searches(flat, 3, kmax=1)
    assert res.status == "UNKNOWN" and err is BudgetExceededError
    # 3 times a cubic in 9 variables: every point of the three chunks is a
    # singular zero mod 3, and lifting them all is over the branch budget
    wide = CubicPolynomial.from_terms(9, _WIDE)
    res, err = _check_searches(wide, 3, kmax=3)
    assert res.status == "UNKNOWN" and err is BudgetExceededError


_WIDE = {**_cubes(9, 3), (1, 1) + (0,) * 7: 3}  # 3 (x_1^3 + ... + x_9^3) + 3 x_1 x_2


@pytest.mark.parametrize("extra,usable", [
    ({}, False),  # every zero mod 3 singular
    ({(1,) + (0,) * 8: 1}, False),  # zeros non-singular, yet partials 2..9 all 0 mod 3
    ({(1,) + (0,) * 8: 1, (1,) + (0,) * 7 + (1,): 1}, True),  # usable only from x_1 = 1 on
], ids=["singular", "x1-only", "late"])
def test_level_one_grad_prime_screen_matches_the_scalar_check(extra, usable):
    h = CubicPolynomial.from_terms(9, {**_WIDE, **extra})
    _, Z = next(_levels(h, 3))
    expected = None
    for x in Z:
        grad = h.gradient(x)
        if any(d % 3 for d in grad[1:]):
            expected = PAdicWitness(3, 1, x, 0, grad_prime_val=0)
            break
    shuffled = np.random.default_rng(0).permutation(np.array(Z, dtype=np.int64))
    assert _first_witness(h, shuffled, 3, 1, first=2) == expected
    assert (expected is not None) == usable


@given(kind=st.sampled_from(["random", "late", "singular"]), seed=st.integers(0, 2**32 - 1),
       pick=st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_streamed_searches_match_a_brute_force_reference(kind, seed, pick):
    rng = np.random.default_rng(seed)
    if kind == "random":
        n = 1 + pick % 5
        primes = [q for q in (2, 3, 5, 7, 11, 13) if q**n <= 30_000]
        p = primes[pick // 5 % len(primes)]
        g = random_cubic(rng, n)
    elif kind == "late":
        p, n = [(13, 4), (11, 5), (5, 7), (3, 9), (7, 3), (2, 4)][pick % 6]
        g = _late(rng, n, p)
    else:
        p, n = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)][pick % 8]
        g = _singular(rng, n, p)
    _check_searches(g, p, kmax=3)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), rows=st.integers(0, 40),
       p=st.sampled_from([2, 3, 5]), first=st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_level_one_witness_is_the_first_usable_row_in_lexicographic_order(seed, n, rows, p, first):
    rng = np.random.default_rng(seed)
    g = random_cubic(rng, n)
    first = min(first, n)
    Z = rng.integers(0, p, size=(rows, n))  # few residues per column: many ties
    usable = Z[_nonsingular_mask(g, Z, p, first)]
    expected = None
    if usable.shape[0]:
        x = tuple(int(c) for c in usable[np.lexsort(usable.T[::-1])][0])
        expected = PAdicWitness(p, 1, x, 0, 0 if first > 1 else None)
    assert _first_witness(g, Z, p, 1, first) == expected

import cmath
import contextlib
import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import diag_cubic, oracle_histogram, random_cubic
from cubicpoints import expsums
from cubicpoints.arith import euler_phi, factorize
from cubicpoints.errors import BudgetExceededError, InputError
from cubicpoints.expsums import (ExpSumSpec, M_split_identity_check,
                                 _eval_int_vec, box_sum_diagnostic, complete_sum, count_M,
                                 crt_sum, expsum_auto, kernel_count, ntilde,
                                 squarefull_parts, theta_p)
from cubicpoints.polynomials import CubicPolynomial
from cubicpoints.residues import GRID_BLOCK


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


def _draw_cubic(data, n, q, monomials):
    """A cubic on the given monomials; coefficients times 1, p or q drop terms mod q.

    One cubic monomial gets a coefficient that is a unit mod q, so the cubic
    keeps degree 3 mod q.
    """
    p = next(d for d in range(2, q + 1) if q % d == 0)
    coeff = st.tuples(st.integers(-9, 9), st.sampled_from([1, 1, p, q]))
    terms = {e: c * k for e, (c, k) in
             data.draw(st.dictionaries(st.sampled_from(monomials), coeff)).items()}
    top = data.draw(st.sampled_from([e for e in monomials if sum(e) == 3]))
    terms[top] = data.draw(st.integers(1, q - 1).filter(lambda c: math.gcd(c, q) == 1))
    return CubicPolynomial.from_terms(n, terms)


def _without(name):
    return mock.patch.object(expsums, name, side_effect=AssertionError(f"{name} used"))


def _without_direct_scan():
    return _without("_direct_histograms")


@given(st.sampled_from([2, 3, 5, 7]), st.integers(2, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_stationary_phase_matches_direct_scan(p, e, data):
    q = p**e
    n = data.draw(st.integers(1, max(k for k in (1, 2, 3) if k == 1 or q**k <= 6561)))
    monomials = [x for x in product(range(4), repeat=n) if sum(x) <= 3]
    g = _draw_cubic(data, n, q, monomials)
    v = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        v = [x * p for x in v]  # v = 0 mod p: critical points are the zeros of grad g mod p
    spec = ExpSumSpec(g, data.draw(st.integers(0, q - 1)), q, tuple(v))
    expected = oracle_histogram(spec)
    with _without_direct_scan():
        assert complete_sum(spec).histogram == expected


@given(st.integers(3, 5), st.integers(2, 12), st.data())
@settings(max_examples=40, deadline=None)
def test_separable_convolution_matches_direct_scan(n, q, data):
    # x1, x2, x3 keep a unit cubic coefficient; the other variables may drop out
    pure = [tuple(d if j == i else 0 for j in range(n)) for i in range(n) for d in (1, 2, 3)]
    lead = {m: data.draw(st.integers(1, q - 1).filter(lambda c: math.gcd(c, q) == 1))
            for m in pure if max(m) == 3 and m.index(3) < 3}
    g = _draw_cubic(data, n, q, pure + [(0,) * n])
    g = CubicPolynomial.from_terms(n, {**g.to_generic().terms, **lead})
    v = data.draw(st.lists(st.integers(0, q - 1) | st.just(0), min_size=n, max_size=n))
    spec = ExpSumSpec(g, data.draw(st.integers(0, q - 1)), q, tuple(v))
    expected = oracle_histogram(spec)
    # at p^e (e >= 2) every g takes stationary phase
    (p, e), *others = factorize(q).items()
    stationary = _without("_stationary_histograms") if others or e == 1 else contextlib.nullcontext()
    with _without_direct_scan(), stationary:
        assert complete_sum(spec).histogram == expected


@pytest.mark.parametrize("q,v", [(9, (0, 9)), (27, (0, 0)), (4, (8, 4))])
def test_stationary_phase_when_every_variable_drops(q, v):
    # g = 4 (mod q) and v = 0 (mod q): no variable is left, every cell is critical
    g = CubicPolynomial.from_terms(2, {(3, 0): q, (1, 2): 2 * q, (0, 1): 3 * q, (0, 0): 4})
    for u in range(q):
        spec = ExpSumSpec(g, u, q, v)
        expected = oracle_histogram(spec)
        with _without_direct_scan():
            assert complete_sum(spec).histogram == expected


_PATHS = {"direct": "_direct_histograms", "stationary": "_stationary_histograms",
          "separable": "_separable_histograms"}


@given(st.sampled_from(sorted(_PATHS)), st.data())
@settings(max_examples=60, deadline=None)
def test_complete_sums_match_the_oracle_at_every_frequency(path, data):
    # g lives on x1..xn; an extra last variable has coefficients divisible by q, so g
    # drops it mod q and only the frequencies that touch it keep it
    if path == "stationary":
        p, e = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]))
        q = p**e
        n = data.draw(st.integers(1, 2))
        monomials = [x for x in product(range(4), repeat=n) if sum(x) <= 3]
    elif path == "separable":
        q = data.draw(st.sampled_from([5, 6, 7, 10]))
        n = 3
        monomials = [tuple(d if j == i else 0 for j in range(n)) for i in range(n) for d in (1, 2, 3)]
    else:
        q = data.draw(st.sampled_from([2, 3, 5, 6, 7, 10, 12]))
        n = data.draw(st.integers(1, 2))
        monomials = [x for x in product(range(4), repeat=n) if sum(x) <= 3]
    g = _draw_cubic(data, n, q, monomials + [(0,) * n])
    terms = {e + (0,): c for e, c in g.to_generic().terms.items()}
    if path == "separable":  # every variable keeps a unit cubic coefficient: three kept variables
        terms.update({tuple(3 * (j == i) for j in range(n + 1)): 1 for i in range(n)})
    if path == "direct" and n == 2:  # a unit cross term: not separable
        terms[(1, 1, 0)] = 1
    extra = data.draw(st.sampled_from([(0,) * n + (3,), (1,) + (0,) * (n - 1) + (2,),
                                       (0,) * n + (1,)]))
    terms[extra] = q * data.draw(st.integers(1, 3))
    g = CubicPolynomial.from_terms(n + 1, terms)
    freq = st.lists(st.integers(-q, 2 * q), min_size=n + 1, max_size=n + 1).map(tuple)
    vs = data.draw(st.lists(freq | st.just((0,) * (n + 1)) | st.just((q,) * (n + 1)),
                            min_size=1, max_size=8))
    vs += data.draw(st.lists(st.sampled_from(vs), max_size=3))  # repeated frequencies
    u = data.draw(st.integers(-q, 2 * q))
    others = [_without(name) for key, name in _PATHS.items() if key != path]
    with others[0], others[1]:
        sums = expsums.complete_sums(g, u, q, vs)
    assert len(sums) == len(vs)
    for v, res in zip(vs, sums):
        spec = ExpSumSpec(g, u, q, v)
        assert res.spec == spec
        assert res.histogram == oracle_histogram(spec)
        one = complete_sum(spec)
        assert (res.value, res.method, res.terms) == (one.value, one.method, one.terms)


def test_complete_sums_checks_the_budget_before_any_work(mixed2):
    paths = [_without(name) for name in _PATHS.values()]
    with paths[0], paths[1], paths[2], pytest.raises(BudgetExceededError) as err:
        expsums.complete_sums(mixed2, 1, 101, [(0, 0), (1, 2)], budget=1000)
    assert (err.value.required, err.value.allowed) == (100 * 101**2, 1000)
    assert expsums.complete_sums(mixed2, 1, 101, [], budget=1000) == []


def test_complete_sums_memory_stays_within_blocks():
    # q^2 = 44,521 cells per frequency: the 211 frequencies go through in blocks,
    # and the contraction never holds the q^3 table (75 MB of float64 at q = 211)
    import tracemalloc

    q = 211
    g = CubicPolynomial.from_terms(1, {(3,): 1, (1,): 2, (0,): 1})
    vs = [(v,) for v in range(q)]
    tracemalloc.start()
    try:
        sums = expsums.complete_sums(g, 1, q, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums[5].histogram == complete_sum(ExpSumSpec(g, 1, q, (5,))).histogram
    assert peak < 8 * (6 * expsums._BLOCK_CELLS + 4 * q * q)


def test_direct_scan_over_more_than_one_grid_block():
    # 67^3 = 300,763 points: more than one block of the grid evaluator
    q = 67
    g = random_cubic(np.random.default_rng(67), 3)
    assert q**3 > GRID_BLOCK
    vs = [(0, 0, 0), (1, 2, 3), (66, 0, 5)]
    with _without("_stationary_histograms"), _without("_separable_histograms"):
        sums = expsums.complete_sums(g, 1, q, vs)
    for v, res in zip(vs, sums):
        assert res.histogram == oracle_histogram(ExpSumSpec(g, 1, q, v))


def test_complete_sums_memory_stays_per_grid_block():
    # 31^4 points in blocks of 31^3 rows: one int64 array of the whole grid is 7 MiB,
    # one of a block 0.23 MiB, and the contraction gathers 2 MiB of L rows
    import tracemalloc

    g = random_cubic(np.random.default_rng(4), 4)
    vs = [(1, 2, 3, 4), (0, 5, 1, 2), (3, 3, 3, 3)]
    expsums.complete_sums(g, 1, 31, vs[:1])
    tracemalloc.start()
    try:
        expsums.complete_sums(g, 1, 31, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


@given(n=st.integers(3, 24), q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11]),
       terms=st.dictionaries(st.sampled_from([e for e in product(range(4), repeat=3)
                                              if sum(e) <= 3]), st.integers(-30, 30)),
       v=st.lists(st.integers(0, 10), min_size=24, max_size=24), u=st.integers(0, 10))
@example(n=24, q=11, terms={}, v=[0] * 24, u=0)  # one used variable: a factor 11^23
@settings(max_examples=60, deadline=None)
def test_dropped_variables_scale_in_python_integers_past_int64(n, q, terms, v, u):
    # g uses at most x1..x3; the other n - 3 variables add v_i y_i, uniform on d Z/q
    # with d = gcd(q, those v_i), each residue of d Z/q q^(n-3) d / q times
    g3 = CubicPolynomial.from_terms(3, {**terms, (0, 0, 3): 1})
    v = v[:n]
    hist3 = complete_sum(ExpSumSpec(g3, u, q, v[:3])).histogram
    d = math.gcd(q, *v[3:])
    expected = tuple(sum(hist3[(r - w) % q] for w in range(0, q, d)) * (q ** (n - 3) * d // q)
                     for r in range(q))
    g = CubicPolynomial.from_terms(n, {e + (0,) * (n - 3): c
                                       for e, c in g3.to_generic().terms.items()})
    res = complete_sum(ExpSumSpec(g, u, q, tuple(v)), budget=euler_phi(q) * q**n)
    assert res.histogram == expected
    assert sum(res.histogram) == res.terms == euler_phi(q) * q**n


def test_histogram_mass_check_survives_optimized_mode(mixed2):
    spec = ExpSumSpec(mixed2, 1, 7, (1, 2))
    with mock.patch.object(expsums, "_contract",
                           return_value=np.zeros((1, 7), dtype=np.int64)):
        with pytest.raises(RuntimeError):
            complete_sum(spec)


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

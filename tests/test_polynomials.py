import json
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diag_cubic, random_cubic
from cubicpoints.errors import DegenerateSliceError, InputError
from cubicpoints.polynomials import CubicPolynomial, _second_partial, watson_polynomial


def brute_eval(g, x):
    total = 0
    for e, c in g.terms():
        t = c
        for xi, ei in zip(x, e):
            t *= xi**ei
        total += t
    return total


def test_eval_matches_term_expansion(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        g = random_cubic(rng, n)
        x = [int(v) for v in rng.integers(-4, 5, size=n)]
        assert g.eval(x) == brute_eval(g, x)


def test_gradient_matches_finite_difference_structure(rng):
    # exact polynomial identity: g(x + t e_i) - g(x) agrees with the Taylor
    # expansion whose linear coefficient is the gradient entry
    for _ in range(10):
        n = int(rng.integers(1, 4))
        g = random_cubic(rng, n)
        x = [int(v) for v in rng.integers(-3, 4, size=n)]
        grad = g.gradient(x)
        for i in range(n):
            vals = []
            for t in (1, 2, 3):
                y = list(x)
                y[i] += t
                vals.append(g.eval(y))
            # cubic in t: g(x) + a t + b t^2 + c t^3; solve a from 3 samples
            g0 = g.eval(x)
            a = (18 * (vals[0] - g0) - 9 * (vals[1] - g0) + 2 * (vals[2] - g0)) // 6
            assert grad[i] == a


def test_hessian_symmetric_and_affine_in_point(rng):
    g = random_cubic(rng, 3)
    x = [1, -2, 3]
    H = g.hessian(x)
    E = H.entries
    for i in range(3):
        for j in range(3):
            assert E[i][j] == E[j][i]
            # entries split as (cubic part, linear in x) + (constant quad part)
            assert E[i][j] == H.m0[i][j] + H.m1[i][j]
    H2 = g.hessian([2 * v for v in x])
    for i in range(3):
        for j in range(3):
            assert H2.m0[i][j] == 2 * H.m0[i][j]
            assert H2.m1[i][j] == H.m1[i][j]


def test_transform_identity_and_composition(rng):
    g = random_cubic(rng, 3)
    I = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert g.transform(I) == g
    A = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
    B = [[1, 0, 1], [1, 1, 0], [0, 0, 1]]
    AB = [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
          for i in range(3)]
    assert g.transform(A).transform(B) == g.transform(AB)


def test_transform_is_substitution(rng):
    g = random_cubic(rng, 2)
    M = [[2, 1], [1, 1]]
    h = g.transform(M)
    for _ in range(10):
        y = [int(v) for v in rng.integers(-3, 4, size=2)]
        My = [M[0][0] * y[0] + M[0][1] * y[1], M[1][0] * y[0] + M[1][1] * y[1]]
        assert h.eval(y) == g.eval(My)


def test_transform_rejects_non_unimodular():
    g = diag_cubic(2)
    with pytest.raises(InputError):
        g.transform([[2, 0], [0, 1]])


def test_homogenize_specializes_back(rng):
    g = random_cubic(rng, 3)
    H = g.homogenize()
    assert H.n == 4
    for _ in range(10):
        x = [int(v) for v in rng.integers(-3, 4, size=3)]
        assert H.eval([1] + x) == g.eval(x)
        t = int(rng.integers(-3, 4))
        assert H.eval([t * v for v in [1] + x]) == t**3 * H.eval([1] + x)


def test_slice_substitutes_first_variable(rng):
    g = random_cubic(rng, 3)
    for c in (-2, 0, 5):
        hc = g.slice_at(c)
        assert hc.n == 2
        for _ in range(5):
            x = [int(v) for v in rng.integers(-3, 4, size=2)]
            assert hc.eval(x) == g.eval([c] + x)


def test_slice_degenerate_when_cubic_part_dies():
    g = CubicPolynomial.from_terms(2, {(3, 0): 1, (0, 1): 1})
    with pytest.raises(DegenerateSliceError):
        g.slice_at(1)


def test_json_round_trip(rng):
    g = random_cubic(rng, 4)
    assert CubicPolynomial.from_json(g.to_json()) == g


def test_json_rejects_duplicate_exponents():
    blob = {"n": 1, "terms": [{"e": [3], "c": 1}, {"e": [3], "c": 2}]}
    with pytest.raises(InputError):
        CubicPolynomial.from_json_dict(blob)


@pytest.mark.parametrize("blob", [
    {"n": 1, "terms": [{"e": [3], "c": 1.5}]},
    {"n": 1, "terms": [{"e": [3], "c": True}]},
    {"n": 1, "terms": [{"e": [3], "c": "x"}]},
    {"n": 1, "terms": [{"e": [2.9], "c": 1}]},
    {"n": 2.7, "terms": [{"e": [3, 0], "c": 1}]},
    {"n": 1},
    {"n": 1, "terms": [{"c": 1}]},
    {"n": 1, "terms": [[3, 1]]},
    {"n": 10**12, "terms": []},
    [{"e": [3], "c": 1}],
])
def test_json_accepts_only_integers_in_the_documented_shape(blob):
    with pytest.raises(InputError):
        CubicPolynomial.from_json_dict(blob)


def test_leading_form_and_homogenization_are_cubics_with_empty_lower_parts(rng):
    g = random_cubic(rng, 3)
    for form in (g.cubic_part(), g.homogenize()):
        assert isinstance(form, CubicPolynomial)
        assert not form.quad and not any(form.lin) and form.const == 0
    assert g.cubic_part().cubic == g.cubic
    assert g.cubic_part().cubic_part() == g.cubic_part()


@given(st.integers(1, 4), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_cubic_part_equals_the_validated_construction(n, seed):
    g = random_cubic(np.random.default_rng(seed), n)
    g0 = g.cubic_part()
    built = CubicPolynomial(n, g.cubic)
    assert g0 == built and hash(g0) == hash(built)
    assert (g0.n, g0.cubic, g0.quad, g0.lin, g0.const) == (
        built.n, built.cubic, built.quad, built.lin, built.const)
    assert g0.cubic is not g.cubic  # its own copy, as __init__ makes
    with pytest.raises(AttributeError):
        g0.const = 1
    with pytest.raises(AttributeError):
        g0.n = n + 1


# Independent float oracles for the real-point path: plain loops over the
# cubic part of a form, in its term order.

def _real_eval(g0, x):
    total = 0.0
    for (i, j, k), c in g0.cubic.items():
        total += c * x[i - 1] * x[j - 1] * x[k - 1]
    return total


def _real_grad(g0, x):
    grad = np.zeros(g0.n)
    for key, c in g0.cubic.items():
        for m in set(key):
            rest = list(key)
            rest.remove(m)
            grad[m - 1] += c * key.count(m) * x[rest[0] - 1] * x[rest[1] - 1]
    return grad


def _real_hessian(g0, x):
    n = g0.n
    H = np.zeros((n, n))
    for key, c in g0.cubic.items():
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                val = _second_partial(key, c, a, b, list(x))
                H[a - 1][b - 1] += val
                if a != b:
                    H[b - 1][a - 1] += val
    return H


@st.composite
def form_and_point(draw):
    """A random cubic form with coefficients of any size, and a real point."""
    n = draw(st.integers(1, 5))
    keys = list(combinations_with_replacement(range(1, n + 1), 3))
    coeff = st.integers(-10**15, 10**15).filter(bool)
    cubic = draw(st.dictionaries(st.sampled_from(keys), coeff, min_size=1, max_size=12))
    real = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    x = draw(st.lists(real, min_size=n, max_size=n))
    return CubicPolynomial(n, cubic), x


@given(form_and_point())
@settings(max_examples=200, deadline=None)
def test_real_point_evaluation_matches_float_oracle_bit_for_bit(case):
    g0, x = case
    for point in (x, np.array(x)):  # lists of floats, and numpy rows as find_x0 passes
        assert np.float64(g0.eval(point)).tobytes() == np.float64(_real_eval(g0, point)).tobytes()
        grad = np.array(g0.gradient(point), dtype=float)
        assert grad.tobytes() == _real_grad(g0, point).tobytes()
        H = np.array(g0.hessian(point).entries, dtype=float)
        assert H.tobytes() == _real_hessian(g0, point).tobytes()


@given(form_and_point(), st.lists(st.integers(-10**6, 10**6), min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_numpy_integer_points_evaluate_exactly(case, ints):
    g0, _ = case
    g = CubicPolynomial(g0.n, {k: c + 10**12 for k, c in g0.cubic.items()},
                        lin=[7] * g0.n, const=-3)
    exact = ints[:g.n]
    point = np.array(exact, dtype=np.int64)  # c x^3 reaches 10^30, far past int64
    assert g.eval(point) == g.eval(exact) == brute_eval(g, exact)
    assert type(g.eval(point)) is int
    grad = g.gradient(point)
    assert grad == g.gradient(exact) and all(type(v) is int for v in grad)
    H = g.hessian(point)
    assert H.entries == g.hessian(exact).entries
    assert all(type(v) is int for row in H.entries for v in row)


def test_watson_polynomial_closed_form(rng):
    for n in (2, 3, 4):
        w = watson_polynomial(n)
        assert w.n == n
        for _ in range(10):
            x = [int(v) for v in rng.integers(-4, 5, size=n)]
            expected = (2 * x[0] - 1) * (1 + sum(v * v for v in x)) + x[0] * x[1]
            assert w.eval(x) == expected

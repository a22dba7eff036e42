import math
import os
import struct
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diag_cubic
from cubicpoints.arch import (_BLOCK_ROWS_POINTS, ArchContext, _grad_bound,
                              _integer_cubic_roots, _osc_axis, _osc_monte_carlo,
                              _quad_points, count_N, default_z_grid, find_x0,
                              main_term_report, osc_integral_batch, osc_integral_I,
                              singular_integral, tensor_grid_points, weight)
from cubicpoints.errors import InputError
from cubicpoints.polynomials import CubicPolynomial


def test_context_normalizes_x0():
    ctx = ArchContext.create(8.0, (3.0, 4.0))
    assert np.isclose(np.hypot(*ctx.x0), 1.0)
    assert ctx.P0 == pytest.approx(8.0 / math.log(8.0) ** 2)
    with pytest.raises(InputError):
        ArchContext.create(2.0, (1.0, 0.0))
    with pytest.raises(InputError):
        ArchContext.create(8.0, (0.0, 0.0))


def test_weight_peaks_at_center():
    ctx = ArchContext.create(10.0, (1.0, 0.0))
    assert weight(ctx, ctx.center) == pytest.approx(1.0)
    assert weight(ctx, ctx.center + np.array([ctx.P0, 0.0])) == pytest.approx(
        math.exp(-1.0))
    far = ctx.center + np.array([ctx.truncation_radius + 1, 0.0])
    assert weight(ctx, far) == 0.0


def test_find_x0_lies_on_cone():
    g0 = diag_cubic(3).cubic_part()
    ctx = find_x0(g0, 16.0, seed=0)
    x0 = np.array(ctx.x0)
    assert np.isclose(np.linalg.norm(x0), 1.0)
    val = sum(v**3 for v in x0)
    assert abs(val) < 1e-8


def test_osc_integral_exact_at_zero():
    ctx = ArchContext.create(8.0, (1.0, -1.0, 0.0))
    g = diag_cubic(3)
    val, err = osc_integral_I(ctx, g, 0.0, (0.0, 0.0, 0.0))
    assert err == 0.0
    assert val == complex(math.pi ** 1.5 * ctx.P0**3)


def test_osc_separable_matches_monte_carlo():
    ctx = ArchContext.create(8.0, (1.0, -1.0))
    g = diag_cubic(2)
    z, beta = 1e-4, (0.01, -0.02)
    exact, err0 = osc_integral_I(ctx, g, z, beta)
    assert err0 == 0.0
    mc, err = _osc_monte_carlo(ctx, g, z, beta, 200000, 0)
    assert abs(mc - exact) < max(5 * err, 1e-3 * abs(exact))


def _osc_separable(ctx, gen, z, beta):
    """The product of 1-D quadratures of a separable integral, one beta at a time (reference)."""
    const, per_var = gen.single_variable_pieces()
    c = ctx.center
    out = complex(np.exp(2j * np.pi * z * const))
    for i, cmap in enumerate(per_var):
        out *= _osc_axis(ctx, cmap, c[i], z, beta[i])
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("z", [0.0, 1e-4])
def test_separable_integral_matches_the_single_beta_product_bit_for_bit(n, z):
    rng = np.random.default_rng(n)
    g = diag_cubic(n, const=-2, coeffs=[int(c) for c in rng.integers(1, 4, size=n)])
    ctx = ArchContext.create(8.0, rng.standard_normal(n))
    for beta in [(0.25,) * n, tuple(rng.uniform(-1, 1, size=n)), (0.0,) * (n - 1) + (1 / 3,)]:
        val, err = osc_integral_I(ctx, g, z, beta)
        assert err == 0.0
        assert val == _osc_separable(ctx, g.to_generic(), z, beta)
    assert tensor_grid_points(ctx, g, z, [beta], 1) is None


def test_osc_batch_matches_single():
    ctx = ArchContext.create(8.0, (1.0, -1.0))
    g = diag_cubic(2)
    betas = [(0.0, 0.0), (0.25, 0.0), (0.1, -0.3)]
    batch = osc_integral_batch(ctx, g, 1e-4, betas)
    for b, got in zip(betas, batch):
        single, _ = osc_integral_I(ctx, g, 1e-4, b)
        assert abs(got - single) < 1e-9 * (1 + abs(single))


def test_count_N_matches_diagonal_oracle():
    # zeros of x1^3 - x2^3 are exactly the diagonal x1 = x2
    g = CubicPolynomial.from_terms(2, {(3, 0): 1, (0, 3): -1})
    ctx = ArchContext.create(8.0, (1.0, 1.0))
    expected = 0.0
    lo, hi = ctx.axis_ranges()[0]
    for t in range(lo, hi + 1):
        expected += weight(ctx, (t, t))
    assert count_N(g, ctx) == pytest.approx(expected, abs=0.0)


def test_count_N_bit_identical_across_thread_env():
    code = (
        "from cubicpoints.arch import ArchContext, count_N\n"
        "from cubicpoints.polynomials import CubicPolynomial\n"
        "import struct\n"
        "g = CubicPolynomial.from_terms(2, {(3,0):1,(0,3):-1})\n"
        "ctx = ArchContext.create(8.0, (1.0, 1.0))\n"
        "print(struct.pack('<d', count_N(g, ctx)).hex())\n")
    outs = set()
    for threads in ("1", "4"):  # the BLAS thread caps numpy reads at import
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        r = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
        outs.add(r.stdout.strip())
    g = CubicPolynomial.from_terms(2, {(3, 0): 1, (0, 3): -1})
    assert outs == {struct.pack("<d", count_N(g, ArchContext.create(8.0, (1.0, 1.0)))).hex()}


def test_default_z_grid_shape():
    grid = np.asarray(default_z_grid())
    assert (grid > 0).all()
    assert (np.diff(grid) > 0).all()
    assert grid.min() >= 1e-8 and grid.max() <= 1.0


def test_singular_integral_positive():
    g = diag_cubic(3, const=-2)
    ctx = find_x0(g.cubic_part(), 8.0, seed=0)
    est = singular_integral(ctx, g)
    assert est.value > 0
    assert est.stderr >= 0


def test_main_term_report_fields():
    g = diag_cubic(2, const=-2)
    summary = main_term_report(g, [8.0, 16.0], Qmax=6)
    assert len(summary.reports) == 2
    for rep in summary.reports:
        assert rep.caveat  # n = 2 < 10
        assert rep.series_partial == pytest.approx(summary.reports[0].series_partial)
    assert np.isfinite(summary.growth_exponent)


@st.composite
def cubic_with_integer_roots(draw):
    """(c0, c1, c2, c3) of k * prod (t - r), often with repeated r, and a window."""
    coeffs = [draw(st.integers(-3, 3).filter(bool))]
    pool = draw(st.lists(st.integers(-400, 400), min_size=1, max_size=2))
    roots = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    for r in roots:
        shifted = [0] + coeffs  # t * p(t)
        coeffs = [a - r * b for a, b in zip(shifted, coeffs + [0])]
    lo = min(roots) - draw(st.integers(-2, 10))
    hi = max(roots) + draw(st.integers(-2, 10))
    return tuple(coeffs + [0] * (4 - len(coeffs))), lo, hi


@st.composite
def random_cubic_and_window(draw):
    coeffs = draw(st.tuples(*[st.integers(-60, 60)] * 4))
    lo = draw(st.integers(-50, 50))
    return coeffs, lo, lo + draw(st.integers(0, 60))


@given(st.one_of(cubic_with_integer_roots(), random_cubic_and_window()))
@settings(max_examples=400, deadline=None)
def test_integer_cubic_roots_match_brute_force(case):
    (c0, c1, c2, c3), lo, hi = case
    brute = [t for t in range(lo, hi + 1) if c0 + c1 * t + c2 * t**2 + c3 * t**3 == 0]
    assert _integer_cubic_roots((c0, c1, c2, c3), lo, hi) == brute


def test_integer_cubic_roots_keep_repeated_roots():
    # (t - 10)^2 (t - 11) and (t - 10^6)^3: double and triple roots
    assert _integer_cubic_roots((-1100, 320, -31, 1), -50, 50) == [10, 11]
    r = 10**6
    assert _integer_cubic_roots((-r**3, 3 * r**2, -3 * r, 1), r - 5, r + 5) == [r]


# -- the tensor-grid branch of osc_integral_batch (non-separable g) ----------


def _full_grid_batch(ctx, g, z, betas, budget):
    """The tensor-grid integral with the whole m^n grid held at once (reference)."""
    n = g.n
    betas = [tuple(float(x) for x in b) for b in betas]
    gen = g.to_generic()
    bmax = max((max(abs(x) for x in b) for b in betas), default=0.0)
    R = ctx.truncation_radius
    c = ctx.center
    m = _quad_points(R, abs(z) * _grad_bound(gen, float(np.max(np.abs(c)) + R)) + bmax)
    if m**n > budget:
        m = int(budget ** (1 / n))
    axes = [c[i] - R + (np.arange(m) + 0.5) * (2 * R / m) for i in range(n)]
    h = 2 * R / m
    X = np.stack([grid.ravel() for grid in np.meshgrid(*axes, indexing="ij")], axis=1)
    poly = np.zeros(X.shape[0])
    for e, coef in gen.terms.items():
        term = np.full(X.shape[0], float(coef))
        for i, ei in enumerate(e):
            if ei:
                term = term * X[:, i] ** ei
        poly += term
    F = (np.exp(-np.sum((X - c) ** 2, axis=1) / ctx.P0**2)
         * np.exp(2j * np.pi * z * poly)).reshape((m,) * n)
    out = []
    for b in betas:
        ph = [np.exp(2j * np.pi * b[i] * axes[i]) for i in range(n)]
        if n == 2:
            val = (F @ ph[1]) @ ph[0]
        else:
            val = ((F @ ph[2]) @ ph[1]) @ ph[0]
        out.append(complex(val * h**n))
    return np.array(out)


def _grid_sizes_by_leftover(n, sizes):
    """Grid sizes m with several row blocks, keyed by the rows left over after full blocks."""
    out = {0: [], 1: [], "several": []}
    for m in sizes:
        k = max(2, _BLOCK_ROWS_POINTS // m ** (n - 1))
        if m > k:
            out[m % k if m % k < 2 else "several"].append(m)
    return out


_LEFTOVER_SIZES = {2: _grid_sizes_by_leftover(2, range(513, 1400)),
                   3: _grid_sizes_by_leftover(3, range(40, 140))}


@st.composite
def tensor_grid_case(draw):
    n = draw(st.sampled_from([2, 3]))
    leftover = draw(st.sampled_from([0, 1, "several"]))
    m = draw(st.sampled_from(_LEFTOVER_SIZES[n][leftover]))
    coeff = st.integers(-3, 3)
    terms = {e: draw(coeff) for e in product(range(4), repeat=n) if sum(e) <= 3}
    terms[(2, 1) + (0,) * (n - 2)] = draw(coeff.filter(bool))  # cubic, not separable
    x0 = draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)
              .filter(lambda v: max(map(abs, v)) > 0.1))
    ctx = ArchContext.create(draw(st.floats(3.0, 40.0)), x0)
    frac = st.integers(-6, 6).map(lambda k: k / 3)
    betas = draw(st.lists(st.tuples(*[frac] * n), min_size=1, max_size=4))
    z = draw(st.sampled_from([0.0, 1e-4, -1e-4, 1e-3]))
    # capped budget: every m here is below the 4096-point quadrature floor
    return ctx, CubicPolynomial.from_terms(n, terms), z, betas, int((m + 0.5) ** n)


@given(tensor_grid_case())
@settings(max_examples=25, deadline=None)
def test_tensor_grid_batch_matches_full_grid_bit_for_bit(case):
    ctx, g, z, betas, budget = case
    got = osc_integral_batch(ctx, g, z, betas, budget=budget)
    assert got.tobytes() == _full_grid_batch(ctx, g, z, betas, budget).tobytes()


def test_tensor_grid_batch_memory_peak(mixed2):
    import tracemalloc

    q, V = 3, 12
    ctx = find_x0(mixed2.cubic_part(), 8, seed=0)
    betas = [(a / q, b / q) for a in range(-V, V + 1) for b in range(-V, V + 1)]
    tracemalloc.start()
    try:
        for z in (0.0, 1e-4):
            osc_integral_batch(ctx, mixed2, z, betas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20

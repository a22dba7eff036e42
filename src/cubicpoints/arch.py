"""Archimedean side: Gaussian weights, lattice counts, oscillatory integrals.

All quantities live at a scale P with effective width P0 = P (log P)^{-2}
around a real base point x0 on the cone of the leading form.  The weight is

    w(x) = exp(-|x - P x0|^2 / P0^2),

and the oscillatory integral I(z; beta) integrates w(x) e(z g(x) + beta.x).
Monte-Carlo estimation exploits that w is itself an unnormalized Gaussian
density; separable polynomials get an exact-to-quadrature product path that
stays usable where Monte-Carlo variance explodes.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetExceededError, InputError, SearchFailureError

DEFAULT_LATTICE_BUDGET = 20_000_000
_TAIL = 1e-12  # relative Gaussian mass allowed outside the truncation radius
_QUAD_MIN = 4096
_QUAD_MAX = 1 << 20
_BLOCK_ROWS_POINTS = 1 << 18  # grid points per row block of the tensor-grid integral
_MC_SAMPLES = 20000  # Monte Carlo samples per non-separable I(z; beta)
_X0_TRIALS = 500  # random lines find_x0 tries


@dataclass(frozen=True)
class ArchContext:
    P: float
    P0: float
    x0: tuple  # unit vector; on the real cone of g0 when made by find_x0
    hessian_rank: int
    truncation_radius: float

    @classmethod
    def create(cls, P, x0, hessian_rank=None):
        x0 = np.asarray(x0, dtype=float)
        nrm = float(np.linalg.norm(x0))
        if nrm == 0:
            raise InputError("x0 must be non-zero")
        x0 = x0 / nrm
        P = float(P)
        if P <= math.e:
            raise InputError("P must exceed e so that P0 > 0 is meaningful")
        P0 = P / math.log(P) ** 2
        R = P0 * math.sqrt(-math.log(_TAIL) + 4.0)
        return cls(P, P0, tuple(float(v) for v in x0),
                   hessian_rank if hessian_rank is not None else len(x0), R)

    @property
    def center(self):
        return np.array(self.x0) * self.P

    def weight_vec(self, X):
        d2 = np.sum((np.asarray(X, dtype=float) - self.center) ** 2, axis=-1)
        w = np.exp(-d2 / self.P0**2)
        w[d2 > self.truncation_radius**2] = 0.0
        return w

    def axis_ranges(self):
        c = self.center
        R = self.truncation_radius
        return [(math.ceil(ci - R), math.floor(ci + R)) for ci in c]

    def lattice_points(self, n, budget=DEFAULT_LATTICE_BUDGET):
        """All integer points of the truncation box with their weights."""
        if n != len(self.x0):
            raise InputError("dimension mismatch with x0")
        ranges = self.axis_ranges()
        total = 1
        for lo, hi in ranges:
            total *= max(hi - lo + 1, 0)
        if total > budget:
            raise BudgetExceededError(total, budget, "lattice box enumeration")
        axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in ranges]
        grids = np.meshgrid(*axes, indexing="ij")
        X = np.stack([grid.ravel() for grid in grids], axis=1)
        return X, self.weight_vec(X)


def weight(ctx, x):
    """The Gaussian weight at a single point."""
    return float(ctx.weight_vec(np.asarray(x, dtype=float)[None, :])[0])


def find_x0(g0, P, seed=0):
    """A unit real point on g0 = 0 with Hessian rank >= n - 1, as a context.

    Searches random lines a + t b, solving the 1-variable cubic for t; the
    accepted point is re-verified (|g0(x0)| small, rank condition) before use.
    Only the leading form of `g0` is used.
    """
    g0 = g0.cubic_part()
    n = g0.n
    rng = np.random.default_rng((seed, 0xA12C))
    for _ in range(_X0_TRIALS):
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        # coefficients of g0(a + t b) in t
        coeffs = np.zeros(4)
        for (i, j, k), c in g0.cubic.items():
            tri = [(a[i - 1], b[i - 1]), (a[j - 1], b[j - 1]), (a[k - 1], b[k - 1])]
            for picks in product(range(2), repeat=3):
                coeffs[sum(picks)] += c * math.prod(t[p] for t, p in zip(tri, picks))
        poly = coeffs[::-1]
        if abs(poly[0]) < 1e-12:
            continue
        for t in np.roots(poly):
            if abs(t.imag) > 1e-10:
                continue
            x = a + t.real * b
            nrm = np.linalg.norm(x)
            if nrm < 1e-8:
                continue
            x = x / nrm
            if abs(g0.eval(x)) > 1e-10:
                # polish with one Newton step along the gradient
                grad = np.array(g0.gradient(x), dtype=float)
                gn = np.dot(grad, grad)
                if gn < 1e-12:
                    continue
                x = x - g0.eval(x) * grad / gn
                x = x / np.linalg.norm(x)
            if abs(g0.eval(x)) > 1e-10:
                continue
            H = np.array(g0.hessian(x).entries, dtype=float)
            sv = np.linalg.svd(H, compute_uv=False)
            rank = int(np.sum(sv > 1e-8 * max(sv[0], 1e-30)))
            if rank >= n - 1:
                return ArchContext.create(P, x, hessian_rank=rank)
    raise SearchFailureError(f"no real cone point with Hessian rank >= {n - 1} "
                             f"found in {_X0_TRIALS} trials")


# -- weighted lattice count N(g; P) ----------------------------------------


def count_N(g, ctx, budget=DEFAULT_LATTICE_BUDGET):
    """N(g; P) = sum of w(x) over integer zeros of g in the truncation box.

    The last coordinate is solved exactly (integer roots of a 1-variable
    cubic), so enumeration only runs over the first n - 1 coordinates.
    Summation order is lexicographic in the prefix, hence deterministic.
    """
    n = g.n
    ranges = ctx.axis_ranges()
    prefix_total = 1
    for lo, hi in ranges[:-1]:
        prefix_total *= max(hi - lo + 1, 0)
    if prefix_total > budget:
        raise BudgetExceededError(prefix_total, budget, "zero enumeration")
    # split g by the exponent of the last variable
    layers = [{} for _ in range(4)]  # degree d -> {prefix exponent: coeff}
    for e, c in g.to_generic().terms.items():
        layers[e[-1]][e[:-1]] = layers[e[-1]].get(e[:-1], 0) + c
    lo_n, hi_n = ranges[-1]
    total = 0.0
    for prefix in product(*(range(lo, hi + 1) for lo, hi in ranges[:-1])):
        coeffs = [_eval_terms(layers[d], prefix) for d in range(4)]
        for root in _integer_cubic_roots(coeffs, lo_n, hi_n):
            x = prefix + (root,)
            total += weight(ctx, x)
    return total


def _eval_terms(terms, prefix):
    total = 0
    for e, c in terms.items():
        v = c
        for xi, ei in zip(prefix, e):
            if ei:
                v *= xi**ei
        total += v
    return total


def _integer_cubic_roots(coeffs, lo, hi):
    """Integer roots of c0 + c1 t + c2 t^2 + c3 t^3 in [lo, hi], exactly.

    Each real critical point is enclosed in a short integer bracket, found
    with `math.isqrt` of the discriminant of the derivative.  The bracket
    points are tested one by one; between brackets the cubic is monotone,
    so each gap holds at most one root, found by integer bisection.
    """
    c0, c1, c2, c3 = coeffs
    if c3 == 0 and c2 == 0 and c1 == 0:
        return list(range(lo, hi + 1)) if c0 == 0 else []

    def f(t):
        return ((c3 * t + c2) * t + c1) * t + c0

    # critical points are (-c2 -+ sqrt(disc)) / (3 c3), or -c1 / (2 c2) when c3 = 0;
    # each numerator pair encloses one of them, since isqrt(disc) <= sqrt(disc) < isqrt + 1
    if c3:
        disc = c2 * c2 - 3 * c3 * c1
        s = math.isqrt(disc) if disc >= 0 else None
        nums = [] if s is None else [(-c2 - s - 1, -c2 - s), (-c2 + s, -c2 + s + 1)]
        d = 3 * c3
    else:
        nums, d = ([(-c1, -c1)] if c2 else []), 2 * c2
    brackets = sorted((min(x // d for x in pair), max(-(-x // d) for x in pair))
                      for pair in nums)
    roots = set()
    start = lo
    for a, b in brackets:
        roots.update(_monotone_root(f, start, min(a - 1, hi)))
        roots.update(t for t in range(max(a, lo), min(b, hi) + 1) if f(t) == 0)
        start = max(start, b + 1)
    roots.update(_monotone_root(f, start, hi))
    return sorted(roots)


def _monotone_root(f, lo, hi):
    """The integer zero of f on [lo, hi], given f monotone there, as a list."""
    if lo > hi:
        return []
    sign = 1 if f(hi) >= f(lo) else -1
    if sign * f(lo) > 0 or sign * f(hi) < 0:
        return []
    while lo < hi:
        mid = (lo + hi) // 2
        if sign * f(mid) < 0:
            lo = mid + 1
        else:
            hi = mid
    return [lo] if f(lo) == 0 else []


# -- oscillatory integrals --------------------------------------------------


def osc_integral_I(ctx, g, z, beta, seed=0):
    """I(z; beta) = integral of w(x) e(z g(x) + beta.x) dx, with error estimate.

    Separable g takes the product of 1-D quadratures of `osc_integral_batch`
    (error 0); anything else is estimated by Monte Carlo.
    """
    n = g.n
    beta = tuple(float(b) for b in beta)
    if len(beta) != n:
        raise InputError("beta has wrong length")
    z = float(z)
    if z == 0.0 and all(b == 0.0 for b in beta):
        # integrand is exactly 1 against the weight
        return complex(math.pi ** (n / 2) * ctx.P0**n), 0.0
    if g.to_generic().is_separable():
        return complex(osc_integral_batch(ctx, g, z, [beta])[0]), 0.0
    return _osc_monte_carlo(ctx, g, z, beta, _MC_SAMPLES, seed)


def _osc_monte_carlo(ctx, g, z, beta, samples, seed):
    """Importance sampling of I(z; beta) from the Gaussian w itself, with its standard error."""
    n = g.n
    mass = math.pi ** (n / 2) * ctx.P0**n
    rng = np.random.default_rng((seed, 0x05C1))
    X = rng.normal(loc=ctx.center, scale=ctx.P0 / math.sqrt(2.0), size=(samples, n))
    phase = z * _eval_real_poly(g.to_generic(), X.T) + X @ np.asarray(beta)
    vals = np.exp(2j * np.pi * phase)
    mean = vals.mean()
    var = np.mean(np.abs(vals - mean) ** 2)
    stderr = mass * math.sqrt(var / samples)
    return complex(mass * mean), stderr


def _eval_real_poly(gen, cols):
    """g at the points whose coordinates are the broadcast of one array per variable."""
    acc = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in cols)))
    for e, c in gen.terms.items():
        term = float(c)
        for x, ei in zip(cols, e):
            if ei:
                term = term * x**ei
        acc += term
    return acc


def _quad_points(R, maxfreq):
    m = int(2 * R * 16 * (maxfreq + 1.0))
    return min(max(m, _QUAD_MIN), _QUAD_MAX)


def _osc_axis(ctx, cmap, ci, z, beta):
    """1-D quadrature of exp(-(x-ci)^2/P0^2) e(z q(x) + beta x) by midpoints."""
    R = ctx.truncation_radius
    lo, hi = ci - R, ci + R
    slope = 0.0
    for d, c in cmap.items():
        slope += abs(c) * d * max(abs(lo), abs(hi)) ** (d - 1)
    npts = _quad_points(R, abs(z) * slope + abs(beta))
    h = (hi - lo) / npts
    x = lo + (np.arange(npts) + 0.5) * h
    val = np.zeros(npts)
    for d, c in cmap.items():
        val += float(c) * x**d
    integrand = np.exp(-((x - ci) ** 2) / ctx.P0**2) * np.exp(2j * np.pi * (z * val + beta * x))
    return complex(integrand.sum() * h)


def osc_integral_batch(ctx, g, z, betas, budget=DEFAULT_LATTICE_BUDGET):
    """Deterministic I(z; beta) for many betas sharing one evaluation grid.

    Separable polynomials factor through per-axis 1-D quadratures with the
    distinct beta components cached.  Otherwise (n = 2, 3) the integrand F
    lives on an m^n tensor midpoint grid, m from `tensor_grid_points`, that is
    never held whole: it is built in blocks of about `_BLOCK_ROWS_POINTS`
    points along the first axis from per-axis vectors that broadcast, and
    each block is contracted at once against the phases of every distinct
    tail b[1:] into that tail's row of m values; the first axis is contracted
    once per beta.  At z = 0 the factor e(z g) is exactly 1 and is not
    computed.  Each row gets the floats of a contraction of the whole grid:
    the Gaussian exponent is summed left to right as `np.sum` does, and no
    block has a single row, which numpy would hand to a dot kernel that sums
    in another order.
    """
    n = g.n
    betas = [tuple(float(x) for x in b) for b in betas]
    gen = g.to_generic()
    m = tensor_grid_points(ctx, gen, z, betas, budget)
    if m is None:
        const, per_var = gen.single_variable_pieces()
        c = ctx.center
        axis_cache = [dict() for _ in range(n)]
        base = complex(np.exp(2j * np.pi * z * const))
        out = []
        for b in betas:
            val = base
            for i in range(n):
                if b[i] not in axis_cache[i]:
                    axis_cache[i][b[i]] = _osc_axis(ctx, per_var[i], c[i], z, b[i])
                val *= axis_cache[i][b[i]]
            out.append(val)
        return np.array(out)
    # a polynomial in one variable is separable, so here n >= 2
    if n > 3:
        raise BudgetExceededError(n, 3, "tensor-grid oscillatory integral")
    R = ctx.truncation_radius
    c = ctx.center
    axes = [c[i] - R + (np.arange(m) + 0.5) * (2 * R / m) for i in range(n)]
    h = 2 * R / m
    grid = np.ix_(*axes)
    dist = np.ix_(*((axes[i] - c[i]) ** 2 for i in range(n)))
    phase_cache = {}

    def axis_phase(i, b):
        if (i, b) not in phase_cache:
            phase_cache[i, b] = np.exp(2j * np.pi * b * axes[i])
        return phase_cache[i, b]

    rows = {b[1:]: np.empty(m, dtype=complex) for b in betas}
    by_last = {}
    for tail in rows:
        by_last.setdefault(tail[-1], []).append(tail)
    for lo, hi in _row_blocks(m, max(2, _BLOCK_ROWS_POINTS // m ** (n - 1))):
        d2 = dist[0][lo:hi]
        for d in dist[1:]:
            d2 = d2 + d
        w = np.exp(-d2 / ctx.P0**2)
        if z == 0:  # complex once here, not in every product below
            F = w.astype(complex)
        else:
            F = w * np.exp(2j * np.pi * z * _eval_real_poly(gen, (grid[0][lo:hi],) + grid[1:]))
        for b_last, tails in by_last.items():
            T = F @ axis_phase(n - 1, b_last)
            for tail in tails:
                rows[tail][lo:hi] = T if n == 2 else T @ axis_phase(1, tail[0])
    return np.array([complex(rows[b[1:]] @ axis_phase(0, b[0]) * h**n) for b in betas])


def tensor_grid_points(ctx, g, z, betas, budget):
    """Points per axis of the grid `osc_integral_batch` integrates g on; None for separable g.

    Enough midpoints for the fastest phase, cut to budget^(1/n) when the m^n
    grid is over the budget.
    """
    gen = g.to_generic()
    if gen.is_separable():
        return None
    bmax = max((max(abs(x) for x in b) for b in betas), default=0.0)
    R = ctx.truncation_radius
    slope = abs(z) * _grad_bound(gen, float(np.max(np.abs(ctx.center)) + R))
    m = _quad_points(R, slope + bmax)
    return m if m**gen.n <= budget else int(budget ** (1 / gen.n))


def _row_blocks(m, k):
    """Half-open blocks of k rows covering range(m); a lone last row joins the block before."""
    starts = list(range(0, m, k))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [m])


def _grad_bound(gen, span):
    total = 0.0
    for e, c in gen.terms.items():
        d = sum(e)
        if d:
            total += abs(c) * d * span ** (d - 1)
    return total


# -- the singular integral and the main-term comparison ---------------------


def default_z_grid():
    """61 geometrically spaced points from 1e-8 to 1; z >= 0 only (symmetry)."""
    return np.geomspace(1e-8, 1.0, 61)


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    stderr: float

    def to_json_dict(self):
        return {"value": self.value, "stderr": self.stderr}


def singular_integral(ctx, g, seed=0):
    """J(g; P) = integral over |z| <= 1 of I(z; 0), by refined trapezoid.

    Only z >= 0 is evaluated: I(-z; 0) is the conjugate of I(z; 0), so the
    two-sided integral is 2 * Re of the one-sided one.  The region below the
    grid floor contributes at most 2 * floor * pi^{n/2} P0^n, which is folded
    into the error bar.
    """
    n = g.n
    grid = default_z_grid()
    vals = np.empty(grid.shape[0])
    errs = np.empty(grid.shape[0])
    for idx, z in enumerate(grid):
        v, s = osc_integral_I(ctx, g, z, (0.0,) * n, seed=seed + idx)
        vals[idx] = v.real
        errs[idx] = s
    mass = math.pi ** (n / 2) * ctx.P0**n
    inner = 2.0 * grid[0] * mass  # |I| <= mass on the unevaluated core
    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 has only trapz
    total = 2.0 * (trapezoid(vals, grid) + grid[0] * vals[0])
    err = 2.0 * trapezoid(errs, grid) + inner
    return IntegralEstimate(float(total), float(err))


@dataclass(frozen=True)
class CountReport:
    P: float
    N_weighted: float
    series_partial: float
    integral_estimate: IntegralEstimate
    main_term: float
    ratio: float
    caveat: bool  # True when n is below the theorem's range; diagnostic only

    def to_json_dict(self):
        return {
            "P": self.P,
            "N_weighted": self.N_weighted,
            "series_partial": self.series_partial,
            "integral": self.integral_estimate.to_json_dict(),
            "main_term": self.main_term,
            "ratio": self.ratio,
            "caveat": self.caveat,
        }


@dataclass(frozen=True)
class MainTermSummary:
    reports: tuple
    growth_exponent: float  # fitted from J(g;P) (log P)^{2n-2} across the P list

    def to_json_dict(self):
        return {
            "reports": [r.to_json_dict() for r in self.reports],
            "growth_exponent": self.growth_exponent,
        }


def main_term_report(g, P_list, Qmax=20, seed=0, budget=DEFAULT_LATTICE_BUDGET):
    """Per-P comparison of the weighted count against series x integral.

    The asymptotic identity only holds for n >= 10; smaller n carries a
    caveat flag and the numbers are diagnostic.  The growth exponent is the
    slope of log(J (log P)^{2n-2}) against log P, i.e. the measured power of
    P once the weight's logarithmic factors are divided out (expected n - 3).
    """
    from .series import series_partial

    n = g.n
    if not P_list:
        return MainTermSummary((), float("nan"))
    sp = series_partial(g, Qmax).total
    reports = []
    js = []
    for P in P_list:
        ctx = find_x0(g.cubic_part(), P, seed=seed)
        N = count_N(g, ctx, budget)
        J = singular_integral(ctx, g, seed=seed)
        main = sp * J.value
        reports.append(CountReport(
            P=float(P), N_weighted=N, series_partial=sp, integral_estimate=J,
            main_term=main, ratio=(N / main if main != 0 else float("inf")),
            caveat=n < 10))
        js.append(J.value)
    if len(P_list) >= 2:
        xs = np.log(np.asarray(P_list, dtype=float))
        ys = np.log(np.maximum(np.abs(js), 1e-300)) + (2 * n - 2) * np.log(np.log(np.asarray(P_list, dtype=float)))
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    return MainTermSummary(tuple(reports), slope)

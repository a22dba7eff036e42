"""End-to-end acceptance checks, each with explicit numeric tolerances.

Each test is an independent contract: exact where exactness is claimed
(integer identities, replayable certificates), and with stated tolerances
where floating point or truncation enters.
"""

import math
import os
import struct
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import deligne_defect, diag_cubic, random_cubic
from cubicpoints.arch import (ArchContext, count_N, main_term_report, osc_integral_I)
from cubicpoints.expsums import (ExpSumSpec, M_split_identity_check,
                                 complete_sum, count_M, crt_sum, ntilde,
                                 squarefull_parts, theta_p)
from cubicpoints.geometry import section_smooth
from cubicpoints.padic import congruence_condition, local_density
from cubicpoints.polynomials import CubicPolynomial, watson_polynomial
from cubicpoints.series import s0_at_zero
from cubicpoints.slicing import (slice_count_identity, slice_step,
                                 verify_certificate)

PRIMES_31 = [5, 7, 11, 13, 17, 19, 23, 29, 31]  # p <= 31 coprime to 6


def fermat_form(m):
    return CubicPolynomial.from_terms(
        m, {tuple(3 if j == i else 0 for j in range(m)): 1 for i in range(m)})


# 1. multiplicative decomposition of complete sums ---------------------------


def test_crt_decomposition_matches_direct_evaluation():
    rng = np.random.default_rng(11)
    pairs = [(r, s) for r in range(2, 31) for s in range(r + 1, 61)
             if r * s <= 60 and math.gcd(r, s) == 1]
    polys = [random_cubic(rng, 2) for _ in range(3)]
    polys += [random_cubic(rng, 3) for _ in range(2)]
    for g in polys:
        for r, s in pairs:
            q = r * s
            u = int(rng.integers(0, q))
            v = tuple(int(x) for x in rng.integers(0, q, size=g.n))
            direct = complete_sum(ExpSumSpec(g, u, q, v)).value
            split = crt_sum(ExpSumSpec(g, u, q, v)).value
            assert abs(direct - split) <= 1e-6 * (1 + abs(direct))


# 2. Poisson-dual identity for the weighted sum ------------------------------


def test_weighted_sum_equals_truncated_dual_form():
    gs = {1: CubicPolynomial.from_terms(1, {(3,): 1}),
          2: diag_cubic(2)}
    ctxs = {1: ArchContext.create(8.0, (1.0,)),
            2: ArchContext.create(8.0, (1.0, -1.0))}
    from cubicpoints.poisson import poisson_check

    for n in (1, 2):
        for q in (2, 3, 5):
            for u in (0, 1):
                for z in (0.0, 1e-4, 1e-3):
                    rep = poisson_check(gs[n], u, q, z, ctxs[n], V=4 * q)
                    assert rep.abs_err <= 1e-3 * (1 + abs(rep.lhs)), (n, q, u, z)


# 3. square-root cancellation at prime moduli --------------------------------


def _prime_ratio_max(g, p, us, samples, rng):
    n = g.n
    worst = 0.0
    for u in us:
        for _ in range(samples):
            v = tuple(int(x) for x in rng.integers(0, p, size=n))
            val = abs(complete_sum(ExpSumSpec(g, u, p, v)).value)
            worst = max(worst, val / p ** ((n + 1) / 2))
    return worst


def test_prime_modulus_sums_have_square_root_size():
    rng = np.random.default_rng(3)
    for n in (3, 4):
        g = fermat_form(n)
        per_p = {}
        for p in PRIMES_31:
            per_p[p] = _prime_ratio_max(g, p, (1, 2), 50, rng)
            assert per_p[p] <= 10.0, (n, p, per_p[p])
        # non-exploding: no power-law trend in the sampled maxima
        slope = np.polyfit(np.log(PRIMES_31),
                           np.log([per_p[p] for p in PRIMES_31]), 1)[0]
        assert slope <= 0.3, (n, per_p)


# 4. smooth-section dichotomy at u = 0 ---------------------------------------


def test_smooth_sections_keep_square_root_size_at_u0():
    rng = np.random.default_rng(4)
    for n in (3, 4):
        g = fermat_form(n)
        g0 = g.cubic_part()
        for p in PRIMES_31:
            checked = 0
            for _ in range(10):
                v = tuple(int(x) for x in rng.integers(0, p, size=n))
                if all(x % p == 0 for x in v):
                    continue
                if not section_smooth(g0, v, p):
                    continue
                checked += 1
                val = abs(complete_sum(ExpSumSpec(g, 0, p, v)).value)
                assert val <= 10.0 * p ** ((n + 1) / 2), (n, p, v)
            assert checked > 0, (n, p)


# 5. exact series / solution-density identity --------------------------------


def test_series_terms_reproduce_solution_densities_exactly():
    polys = [
        fermat_form(3),
        CubicPolynomial.from_terms(3, {(3, 0, 0): 1, (0, 3, 0): 1,
                                       (0, 0, 3): 1, (1, 1, 0): 1,
                                       (0, 0, 0): 2}),
        CubicPolynomial.from_terms(3, {(3, 0, 0): 2, (0, 3, 0): -1,
                                       (1, 1, 1): 1, (0, 0, 1): 3,
                                       (0, 0, 0): 1}),
    ]
    for g in polys:
        n = g.n
        for p in (2, 3, 5, 7, 11, 13):
            for k in (1, 2, 3, 4):
                lhs = Fraction(1)
                for d in range(1, k + 1):
                    lhs += Fraction(s0_at_zero(g, p, d), p ** (d * n))
                assert lhs == local_density(g, p, k), (g, p, k)


# 6. integer inequalities for the square-full decomposition ------------------


def test_square_full_part_inequalities_and_hessian_kernel_bound(mixed2):
    for p in (2, 3, 5, 7, 11, 13):
        for e in range(2, 15):
            q = p**e
            parts = squarefull_parts(q)
            assert parts.q2**3 * parts.q4**6 <= q, (p, e)
            assert theta_p(e) == (1 if (e % 2 == 1 and e >= 13) else 0)
    from cubicpoints.arith import factorize, omega

    n = mixed2.n
    A_cap = 2 * n**2
    worst = 1.0
    for q in range(5, 211):
        if q % 2 == 0 or q % 3 == 0 or max(factorize(q).values()) > 1:
            continue
        ratio = ntilde(mixed2, q) / q**n
        if ratio > 1:
            worst = max(worst, ratio ** (1.0 / omega(q)))
    assert worst <= A_cap, worst


# 7. split of the singular-point count over residue classes ------------------


def test_residue_split_identity_is_exact(mixed2):
    rng = np.random.default_rng(7)
    for p in (5, 7):
        for f in (1, 2, 3):
            k = [int(x) for x in rng.integers(0, p, size=mixed2.n)]
            for ell in range(1, f + 1):
                rep = M_split_identity_check(mixed2, p, f, k, ell)
                assert rep.difference == 0, (p, f, ell)
            full = M_split_identity_check(mixed2, p, f, k, f)
            assert full.telescoped == count_M(mixed2, p, f, k)


# 8. point-count defect of smooth diagonal forms -----------------------------


def test_diagonal_form_count_defect_bounded():
    # envelope = middle primitive Betti number of the smooth hypersurface:
    # 2 for a plane cubic curve (m=3), 6 for a cubic surface (m=4); the
    # observed ratio stays strictly below it at every modulus
    envelope = {3: 4.0, 4: 6.0}
    for m in (3, 4):
        F = fermat_form(m).cubic_part()
        for p in [2] + PRIMES_31:
            for j in (1, 2):
                assert deligne_defect(F, p, j, -1) <= envelope[m], (m, p, j)


# 9. hyperplane slicing end-to-end -------------------------------------------


def test_slicing_step_with_replayable_certificate(seven_var_corpus):
    g = seven_var_corpus
    cert = slice_step(g, primes=(5, 7, 11), pmax=20, kmax=4, seed=0)
    assert cert.s_after == 0
    assert set(cert.primes) == {5, 7, 11}
    assert bool(verify_certificate(cert, g))
    for p in (7, 11, 13):
        rep = slice_count_identity(cert.result, p)
        assert rep.ok, (p, rep)
        assert rep.N * (p - 1) == rep.N1 - rep.N2


# 10. decision procedure for local solubility --------------------------------


def test_local_solubility_decisions():
    soluble = CubicPolynomial.from_terms(2, {(3, 0): 1, (0, 3): 1, (1, 0): 1,
                                             (0, 0): 4})
    assert congruence_condition(soluble, 50).overall == "HOLDS"

    insoluble = CubicPolynomial.from_terms(1, {(3,): 1, (0,): 49})
    verdict = congruence_condition(insoluble, 50)
    assert verdict.overall == "FAILS"
    res = verdict.per_prime[7]
    assert res.status == "FAILS" and res.fail_k == 3
    # replay the full scan behind the negative verdict
    assert all(insoluble.eval([x]) % 7**3 != 0 for x in range(7**3))

    assert congruence_condition(watson_polynomial(2), 50).overall == "HOLDS"


# 11. archimedean side sanity ------------------------------------------------


def test_weight_integral_exact_at_origin_of_frequency_space():
    ctx = ArchContext.create(8.0, (1.0, -1.0, 0.0))
    g = diag_cubic(3)
    val, err = osc_integral_I(ctx, g, 0.0, (0.0, 0.0, 0.0))
    assert err == 0.0
    assert val == complex(math.pi ** 1.5 * ctx.P0**3)


def test_singular_integral_growth_is_logarithmic_only():
    g = diag_cubic(3, const=-2)
    rep = main_term_report(g, [8.0, 16.0, 32.0], Qmax=20)
    assert abs(rep.growth_exponent - 0.0) <= 0.7


def test_weighted_count_bit_identical_across_thread_caps():
    code = (
        "from cubicpoints.arch import ArchContext, count_N\n"
        "from cubicpoints.polynomials import CubicPolynomial\n"
        "import struct\n"
        "g = CubicPolynomial.from_terms(3, "
        "{(3,0,0):1,(0,3,0):1,(0,0,3):-1,(0,0,0):-1})\n"
        "ctx = ArchContext.create(9.0, (1.0, 1.0, 1.26))\n"
        "print(struct.pack('<d', count_N(g, ctx)).hex())\n")
    outs = set()
    for threads in ("1", "2", "8"):  # the BLAS thread caps numpy reads at import
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        r = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
        outs.add(r.stdout.strip())
    g = CubicPolynomial.from_terms(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): -1, (0, 0, 0): -1})
    assert outs == {struct.pack("<d", count_N(g, ArchContext.create(9.0, (1.0, 1.0, 1.26)))).hex()}

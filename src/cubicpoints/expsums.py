"""Complete exponential sums for cubic polynomials and related counts.

The central object is

    S_u(q; v) = sum over a coprime to q of e_q(a^{-1} u)
                * sum over y mod q of e_q(a g(y) - v.y),

kept exact as a length-q histogram of phase residues (the sum equals
sum_r hist[r] e_q(r)); the complex value is one final contraction against
precomputed q-th roots of unity.  The histogram is built from the joint
counts J[s, t] = #{y : g(y) = s, v.y = t} by one of three exact paths: the
2-D convolution of one-variable tables for separable g, stationary phase
(g(y + p^(e-1) z) = g(y) + p^(e-1) grad g(y).z mod p^e) at prime powers
q = p^e with e >= 2, and otherwise the direct scan of all residues.  A CRT
fast path splits composite moduli into prime-power pieces.  The module also
carries the auxiliary counting quantities used alongside these sums: the
kernel-count N~(q), the lifting counts M(p^f; k) with their telescoping
identity, and the square-full decomposition q = q1^2 q2 of a modulus.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, log

import numpy as np

from .arith import euler_phi, factorize, is_squarefull, omega, ramanujan_prime_power
from .errors import BudgetExceededError, InputError
from .generic import Poly
from .intlinalg import smith_diagonal
from .residues import (cyclic_convolve, drop_unused, eval_mod_vec, residue_chunks,
                       valuation_histogram, zero_count)

DEFAULT_TERM_BUDGET = 10**9


@dataclass(frozen=True)
class ExpSumSpec:
    """Parameters (g, u, q, v) of a complete sum; u and v stored reduced mod q."""

    g: object
    u: int
    q: int
    v: tuple

    def __post_init__(self):
        if self.q < 1:
            raise InputError("modulus must be >= 1")
        if len(self.v) != self.g.n:
            raise InputError(f"v has length {len(self.v)}, expected {self.g.n}")
        object.__setattr__(self, "u", int(self.u) % self.q)
        object.__setattr__(self, "v", tuple(int(x) % self.q for x in self.v))

    def to_json_dict(self):
        return {"n": self.g.n, "u": self.u, "q": self.q, "v": list(self.v)}


@dataclass(frozen=True)
class ExpSum:
    spec: ExpSumSpec
    histogram: tuple  # None on the CRT path
    value: complex
    method: str
    terms: int

    def to_json_dict(self, with_histogram=False):
        out = {
            "spec": self.spec.to_json_dict(),
            "value": {"re": self.value.real, "im": self.value.imag},
            "abs": abs(self.value),
            "method": self.method,
            "terms": self.terms,
        }
        if with_histogram and self.histogram is not None:
            out["histogram"] = list(self.histogram)
        return out


@lru_cache(maxsize=64)
def _roots_of_unity(q):
    return np.exp(2j * np.pi * np.arange(q) / q)


def _units(q):
    return [a for a in range(1, q + 1) if gcd(a, q) == 1] if q > 1 else [1]


def _restrict(spec):
    """(g and v on the variables that matter mod q, number of variables dropped)."""
    g, q, v = spec.g, spec.q, spec.v
    n = g.n
    vlin = Poly(n, {tuple(int(a == i) for a in range(n)): c for i, c in enumerate(v)})
    (gr, _), used = drop_unused([g, vlin], q)
    return gr, np.array([v[i] for i in used], dtype=np.int64), n - len(used)


def _joint_histogram(gr, vr, q):
    """J[s, t] = #{y mod q : g(y) = s, v.y = t (mod q)}, by a scan of all q^m points.

    Blocks of 2^18 rows keep the evaluator's temporaries small enough to stay
    in cache; a block is never smaller than J, whose q^2 cells every block's
    bincount writes.
    """
    J = np.zeros(q * q, dtype=np.int64)
    for X in residue_chunks(q, len(vr), chunk=max(1 << 18, q * q)):
        J += np.bincount(eval_mod_vec(gr, X, q) * q + X @ vr % q, minlength=q * q)
    return J.reshape(q, q)


def _separable_joint_histogram(gr, vr, q):
    """The same J for a separable g: the 2-D convolution of one table per variable."""
    const, per_var = gr.single_variable_pieces()
    y = np.arange(q, dtype=np.int64)[:, None]
    J = np.zeros((q, q), dtype=np.int64)
    J[const % q, 0] = 1
    for cmap, vi in zip(per_var, vr):
        piece = Poly(1, {(d,): c for d, c in cmap.items()})
        Ji = np.bincount(eval_mod_vec(piece, y, q) * q + y[:, 0] * vi % q, minlength=q * q)
        J = cyclic_convolve(J, Ji.reshape(q, q))
    return J


def _stationary_cells(gr, vr, p, e):
    """Non-zero cells (label, s, t, count) of J[label, s, t] over y in [0, p^(e-1))^m.

    The label of y comes from grad g(y) mod p: when v is not 0 (mod p) it is
    the unit lam with grad g(y) = lam v (mod p), or 0 if there is none; when
    v = 0 (mod p) it is 1 where grad g(y) = 0 (mod p), else 0.
    """
    q = p**e
    grads = gr.gradient_polys()
    vp = vr % p
    lead = np.flatnonzero(vp)
    parts = []
    for Y in residue_chunks(p ** (e - 1), len(vr)):
        G = np.array([eval_mod_vec(d, Y, p) for d in grads]).reshape(len(vr), len(Y))
        if lead.size:
            lam = G[lead[0]] * pow(int(vp[lead[0]]), -1, p) % p
            label = np.where(np.all((G - vp[:, None] * lam) % p == 0, axis=0), lam, 0)
        else:
            label = np.all(G == 0, axis=0).astype(np.int64)
        parts.append(np.unique((label * q + eval_mod_vec(gr, Y, q)) * q + Y @ vr % q,
                               return_counts=True))
    keys, inv = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    counts = np.bincount(inv, weights=np.concatenate([c for _, c in parts]))
    return (*np.unravel_index(keys, (p, q, q)), counts)


def _phase_histogram(J, u, q):
    """hist[r] = sum over units a of the cells of J[s, t] at r = a^-1 u + a s - t."""
    s, t = np.nonzero(J)
    w = J[s, t].astype(np.float64)
    hist = np.zeros(q)
    for a in _units(q):
        hist += np.bincount((pow(a, -1, q) * u + a * s - t) % q, weights=w, minlength=q)
    return hist.astype(np.int64)


def _stationary_phase_histogram(gr, vr, u, p, e):
    """The phase histogram at q = p^e (e >= 2) from the cells of `_stationary_cells`.

    For a unit a, a cell at r0 = a^-1 u + a s - t is critical when its label
    is a^-1 mod p (v not 0 mod p) or 1 (v = 0 mod p): then all p^m lifts of
    its points land on r0.  Any other cell puts p^(m-1) at each of
    r0 + p^(e-1) k.
    """
    q, step, m = p**e, p ** (e - 1), len(vr)
    label, s, t, w = _stationary_cells(gr, vr, p, e)
    v_unit = bool((vr % p).any())
    hist = np.zeros(q)
    spread = np.zeros(step)
    for a in _units(q):
        r0 = (pow(a, -1, q) * u + a * s - t) % q
        hit = label == (pow(a, -1, p) if v_unit else 1)
        hist += np.bincount(r0[hit], weights=w[hit], minlength=q)
        spread += np.bincount(r0[~hit] % step, weights=w[~hit], minlength=step)
    return (hist * p**m + np.tile(spread, p) * (p**m // p)).astype(np.int64)


def complete_sum(spec, budget=DEFAULT_TERM_BUDGET):
    """Exact S_u(q; v) with a deterministic phase histogram.

    The histogram is sum over units a of J[s, t] at a^-1 u + a s - t, where
    J[s, t] = #{y mod q : g(y) = s, v.y = t}.  Variables absent from g and v
    mod q are dropped (a factor q each), and J comes from the first path that
    applies, all exact:
    - separable g with three or more variables left: J is the 2-D cyclic
      convolution of the one-variable tables, about m q^3 cell updates;
    - q = p^e with e >= 2 (stationary phase): with x = y + p^(e-1) z,
      g(x) = g(y) + p^(e-1) grad g(y).z (mod q), so for each a the p^m lifts
      of y land together on r0 when a grad g(y) = v (mod p), and spread
      evenly over r0 + p^(e-1) k otherwise; one scan of p^((e-1)m) points
      labelled by grad g(y) mod p gives every a;
    - otherwise the direct scan of all q^m points.
    """
    g, u, q = spec.g, spec.u, spec.q
    n = g.n
    phi = euler_phi(q)
    terms = phi * q**n
    if q == 1:
        return ExpSum(spec, (1,), complex(1.0), "direct", 1)
    if terms > budget:
        raise BudgetExceededError(terms, budget, "complete exponential sum")
    gr, vr, dropped = _restrict(spec)
    factors = factorize(q)
    p, e = next(iter(factors.items()))
    if len(vr) >= 3 and gr.is_separable():
        hist = _phase_histogram(_separable_joint_histogram(gr, vr, q), u, q)
    elif len(factors) == 1 and e >= 2:
        hist = _stationary_phase_histogram(gr, vr, u, p, e)
    else:
        hist = _phase_histogram(_joint_histogram(gr, vr, q), u, q)
    hist *= q**dropped
    if int(hist.sum()) != terms:
        raise RuntimeError(f"histogram mass {int(hist.sum())} is not phi(q) q^n = {terms}")
    value = complex(np.dot(hist, _roots_of_unity(q)))
    return ExpSum(spec, tuple(int(x) for x in hist), value, "direct", terms)


def crt_sum(spec, budget=DEFAULT_TERM_BUDGET):
    """S_u(q; v) via the multiplicative splitting over prime-power factors.

    Uses S_u(rs; v) = S_{s_bar^2 u}(r; s_bar v) * S_{r_bar^2 u}(s; r_bar v)
    with r r_bar + s s_bar = 1; returns the complex value only.
    """
    g, q = spec.g, spec.q
    factors = factorize(q) if q > 1 else {}
    value = complex(1.0)
    terms = 0
    u, v = spec.u, spec.v
    rest = q
    for p, e in factors.items():
        r = p**e
        s = rest // r
        if s == 1:
            part = complete_sum(ExpSumSpec(g, u, r, v), budget)
        else:
            sbar = pow(s, -1, r)
            rbar = (1 - s * sbar) // r
            part = complete_sum(
                ExpSumSpec(g, sbar * sbar * u, r, tuple(sbar * x for x in v)), budget
            )
            u = rbar * rbar * u % s
            v = tuple(rbar * x % s for x in v)
        value *= part.value
        terms += part.terms
        rest = s
    return ExpSum(spec, None, value, "crt", max(terms, 1))


def expsum_auto(spec, budget=DEFAULT_TERM_BUDGET):
    """Direct path for prime powers, CRT path otherwise."""
    if spec.q > 1 and len(factorize(spec.q)) > 1:
        return crt_sum(spec, budget)
    return complete_sum(spec, budget)


# -- weighted sums and the rational-point side of Poisson summation --------


def weighted_sum_S(g, alpha, ctx, budget=DEFAULT_TERM_BUDGET):
    """S(alpha) = sum over integer x of w(x) e(alpha g(x)), truncated box."""
    X, w = ctx.lattice_points(g.n, budget)
    gv = _eval_int_vec(g, X)
    frac = float(alpha) % 1.0  # g is integer-valued, so e(alpha g) has period 1
    return complex(np.sum(w * np.exp(2j * np.pi * frac * gv)))


def su_qz(g, u, q, z, ctx, budget=DEFAULT_TERM_BUDGET):
    """S_u(q; z) = sum over a coprime to q of e_q(a^{-1} u) S(a/q + z)."""
    if q < 1:
        raise InputError("modulus must be >= 1")
    X, w = ctx.lattice_points(g.n, budget)
    gv = _eval_int_vec(g, X)
    base = w * np.exp(2j * np.pi * float(z) * gv)
    roots = _roots_of_unity(q)
    gmod = gv % q
    total = complex(0.0)
    for a in _units(q):
        abar = pow(a, -1, q)
        inner = np.sum(base * roots[(a * gmod) % q])
        total += roots[(abar * (u % q)) % q] * inner
    return total


def _eval_int_vec(g, X):
    """Exact integer g(X) on int64 rows; InputError where int64 could wrap around."""
    terms = g.monomials()
    xmax = max(int(np.abs(X).max()) if X.size else 0, 1)
    bound = sum(abs(c) * xmax ** len(cols) for c, cols in terms)
    if bound >= 2**63:
        raise InputError(f"values of g on this box reach {bound:.3g}, beyond int64")
    acc = np.zeros(X.shape[0], dtype=np.int64)
    for c, cols in terms:
        term = np.int64(c)
        for col in cols:
            term = term * X[:, col]
        acc += term
    return acc


# -- kernel counts N~(q) and the Hessian-pencil machinery -------------------


def kernel_count(M, q):
    """#{j mod q : M j = 0 mod q}, from the integer Smith form (no enumeration)."""
    if q < 1:
        raise InputError("modulus must be >= 1")
    if q == 1:
        return 1
    n = len(M)
    diag = smith_diagonal(M)
    count = 1
    rank = 0
    for d in diag:
        if d != 0:
            count *= gcd(abs(d), q)
            rank += 1
    return count * q ** (n - rank)


def _hessian_pencil(g):
    """Matrices (M1, [B_1..B_n]) with hessian(h) = M1 + sum h_i B_i."""
    n = g.n
    zero = g.hessian([0] * n)
    M1 = [list(r) for r in zero.m1]
    basis = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        basis.append([list(r) for r in g.hessian(e).m0])
    return M1, basis


def ntilde(g, q, budget=DEFAULT_TERM_BUDGET):
    """N~(q) = #{h, j mod q : q | (1/6) M(h) j} for gcd(q, 6) = 1.

    Since 6 is then a unit, the condition is q | M(h) j, counted as a sum of
    kernel sizes of the Hessian pencil over all h mod q.
    """
    if gcd(q, 6) != 1:
        raise InputError("N~ requires gcd(q, 6) = 1")
    n = g.n
    if q == 1:
        return 1
    factors = factorize(q)
    if len(factors) > 1:
        # multiplicative over coprime parts
        total = 1
        for p, e in factors.items():
            total *= ntilde(g, p**e, budget)
        return total
    M1, basis = _hessian_pencil(g)
    if list(factors.values())[0] == 1 and n <= 3:
        if q**n > budget:
            raise BudgetExceededError(q**n, budget, "kernel-count sum")
        return _ntilde_prime_vec(M1, basis, q, n)
    if q ** (2 * n) > budget:
        raise BudgetExceededError(q ** (2 * n), budget, "kernel-count sum")
    total = 0
    for X in residue_chunks(q, n, chunk=1 << 14):
        for row in X:
            M = [[M1[a][b] + sum(int(row[i]) * basis[i][a][b] for i in range(n)) for b in range(n)] for a in range(n)]
            total += kernel_count(M, q)
    return total


def _ntilde_prime_vec(M1, basis, p, n):
    """Vectorized kernel-count sum over h mod p via minor ranks (n <= 3)."""
    total = 0
    for Hs in residue_chunks(p, n):
        E = {}
        for a in range(n):
            for b in range(n):
                # pencil entries reduced mod p first: each int64 product stays below p^2
                acc = np.full(Hs.shape[0], M1[a][b] % p, dtype=np.int64)
                for i in range(n):
                    acc += Hs[:, i] * (basis[i][a][b] % p)
                E[a, b] = acc % p
        if n == 1:
            rank = (E[0, 0] != 0).astype(np.int64)
        elif n == 2:
            det = (E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]) % p
            any_entry = (E[0, 0] != 0) | (E[0, 1] != 0) | (E[1, 0] != 0) | (E[1, 1] != 0)
            rank = any_entry.astype(np.int64) + (det != 0)
        else:
            det = np.zeros(Hs.shape[0], dtype=np.int64)
            for (i, j, k), sign in (
                ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                ((2, 1, 0), -1), ((0, 2, 1), -1), ((1, 0, 2), -1),
            ):
                det += sign * (E[0, i] * E[1, j] % p) * E[2, k]
            det %= p
            any_entry = np.zeros(Hs.shape[0], dtype=bool)
            minor2 = np.zeros(Hs.shape[0], dtype=bool)
            for a in range(3):
                for b in range(3):
                    any_entry |= E[a, b] != 0
            for a in range(3):
                for b in range(a + 1, 3):
                    for c in range(3):
                        for d in range(c + 1, 3):
                            m = (E[a, c] * E[b, d] - E[a, d] * E[b, c]) % p
                            minor2 |= m != 0
            rank = any_entry.astype(np.int64) + minor2 + (det != 0)
        total += int(np.sum(np.int64(p) ** (n - rank)))
    return total


# -- lifting counts M(p^f; k) ----------------------------------------------


def count_M(g, p, f, k, budget=DEFAULT_TERM_BUDGET):
    """M(p^f; k) = #{h mod p^f : p | h - k, p^f | g(h)}."""
    n = g.n
    if f < 1:
        raise InputError("f must be >= 1")
    if len(k) != n:
        raise InputError("k has wrong length")
    k = [int(x) % p for x in k]
    points = p ** ((f - 1) * n)
    if points > budget:
        raise BudgetExceededError(points, budget, "lifting-count enumeration")
    return zero_count(g, _class_lifts(k, p, f), p**f)


def _class_lifts(k, p, f):
    """Chunks of the residues h mod p^f with h = k mod p, in lexicographic order."""
    kvec = np.array(k, dtype=np.int64)
    return ((kvec[None, :] + p * T) % p**f for T in residue_chunks(p ** (f - 1), len(k)))


@dataclass(frozen=True)
class MSplitReport:
    p: int
    f: int
    ell: int
    k: tuple
    telescoped: int
    expsum_side: Fraction
    difference: Fraction

    def to_json_dict(self):
        return {
            "p": self.p, "f": self.f, "ell": self.ell, "k": list(self.k),
            "telescoped": self.telescoped,
            "expsum_side": str(self.expsum_side),
            "difference": str(self.difference),
        }


def M_split_identity_check(g, p, f, k, ell, budget=DEFAULT_TERM_BUDGET):
    """Check the telescoping identity for the small-divisor part M1(p^f).

    M1(p^f) = p^{-f} sum_{0<=e<=ell} sum_{h = k mod p, h mod p^f} c_{p^e}(g(h))
            = p^{f(n-1)} p^{ell(1-n)} M(p^ell; k),

    where c_{p^e} is the Ramanujan sum.  Both sides are computed exactly.
    """
    n = g.n
    if not 1 <= ell <= f:
        raise InputError("need 1 <= ell <= f")
    k = tuple(int(x) % p for x in k)
    telescoped = p ** ((f - ell) * (n - 1)) * count_M(g, p, ell, k, budget)
    points = p ** ((f - 1) * n)
    if points > budget:
        raise BudgetExceededError(points, budget, "M-split enumeration")
    # valuation histogram of g(h) mod p^ell over the congruence class of k
    lifts = (H % p**ell for H in _class_lifts(k, p, f))
    val_hist = valuation_histogram(g, lifts, p, ell)
    total = 0
    for e in range(0, ell + 1):
        for v in range(ell + 1):
            cnt = int(val_hist[v])
            if cnt:
                total += cnt * ramanujan_prime_power(p, e, 0 if v >= ell else p**v)
    expside = Fraction(total, p**f)
    return MSplitReport(p, f, ell, k, telescoped, expside, expside - telescoped)


# -- square-full decomposition ---------------------------------------------


@dataclass(frozen=True)
class SquarefullParts:
    q: int
    q1: int
    q2: int
    q4: int
    thetas: dict  # p -> theta_p(e) for p^e || q

    def to_json_dict(self):
        return {"q": self.q, "q1": self.q1, "q2": self.q2, "q4": self.q4,
                "thetas": {str(p): t for p, t in self.thetas.items()}}


def theta_p(e):
    """1 exactly when e = 2f + 1 with f >= 6, i.e. odd e >= 13."""
    return 1 if (e % 2 == 1 and e >= 13) else 0


def squarefull_parts(q):
    """q1 = prod p^[u/2], q2 = prod over odd u of p, q4 = prod over odd u >= 13."""
    if q < 1:
        raise InputError("q must be >= 1")
    q1 = q2 = q4 = 1
    thetas = {}
    for p, u in factorize(q).items():
        q1 *= p ** (u // 2)
        if u % 2 == 1:
            q2 *= p
            if u >= 13:
                q4 *= p
        thetas[p] = theta_p(u)
    if q1**2 * q2 != q:
        raise RuntimeError(f"q1^2 q2 = {q1**2 * q2} is not q = {q}")
    return SquarefullParts(q, q1, q2, q4, thetas)


# -- square-full box-sum diagnostic ----------------------------------------


@dataclass(frozen=True)
class BoxSumReport:
    q: int
    u: int
    v0: tuple
    V: int
    total: float
    envelope: float
    ratio: float
    A: float

    def to_json_dict(self):
        return {"q": self.q, "u": self.u, "v0": list(self.v0), "V": self.V,
                "total": self.total, "envelope": self.envelope,
                "ratio": self.ratio, "A": self.A}


def box_sum_diagnostic(g, u, q, v0, V, A=1.0, budget=DEFAULT_TERM_BUDGET):
    """Sum of |S_u(q; v)| over |v - v0|_inf <= V against its growth envelope.

    The envelope A^omega(q) (log(q+1))^{2n} q^{n/2+1} (V^n + q^{n/3}) has a
    non-effective constant A; it is reported, never asserted.
    """
    from itertools import product as iproduct

    if not is_squarefull(q):
        raise InputError("box-sum diagnostic requires a square-full modulus")
    n = g.n
    if len(v0) != n:
        raise InputError("v0 has wrong length")
    cache = {}
    total = 0.0
    count = 0
    for offs in iproduct(range(-V, V + 1), repeat=n):
        v = tuple((int(v0[i]) + offs[i]) % q for i in range(n))
        if v not in cache:
            cache[v] = abs(complete_sum(ExpSumSpec(g, u, q, v), budget).value)
        total += cache[v]
        count += 1
    envelope = A ** omega(q) * log(q + 1) ** (2 * n) * q ** (n / 2 + 1) * (V**n + q ** (n / 3))
    return BoxSumReport(q, u % q, tuple(int(x) for x in v0), V, total, envelope,
                        total / envelope, A)

"""Complete exponential sums for cubic polynomials and related counts.

The central object is

    S_u(q; v) = sum over a coprime to q of e_q(a^{-1} u)
                * sum over y mod q of e_q(a g(y) - v.y),

kept exact as a length-q histogram of phase residues (the sum equals
sum_r hist[r] e_q(r)); the complex value is one final contraction against
precomputed q-th roots of unity.  `complete_sums` takes many frequencies v at
one modulus, in blocks of bounded memory.  Its exact paths: stationary phase
(g(y + p^(e-1) z) = g(y) + p^(e-1) grad g(y).z mod p^e) at q = p^e, e >= 2;
one-variable tables convolved per unit a for separable g; otherwise the scan
of J[s, t] = #{y : g(y) = s, v.y = t}, contracted for a whole block as the
sum of J[s, t] L[s, t + r] with L[s, w] = #{units a : a s + a^-1 u = w}.  Both
scans read g, grad g and v.y from the grid kernel `residues.grid_values`.  A
CRT fast path splits composite moduli into prime-power pieces.  The module
also carries the counts used alongside these sums: the kernel-count N~(q),
the lifting counts M(p^f; k) with their telescoping identity, and the
square-full decomposition q = q1^2 q2 of a modulus.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, log

import numpy as np

from .arith import euler_phi, factorize, is_squarefull, omega, ramanujan_prime_power
from .errors import BudgetExceededError, InputError
from .generic import Poly
from .intlinalg import smith_diagonal
from .residues import (GRID_BLOCK, drop_unused, eval_mod_vec, grid_values, residue_chunks,
                       valuation_histogram, zero_count)

DEFAULT_TERM_BUDGET = 10**9
_BLOCK_CELLS = 1 << 18  # cells of the largest array one block of frequencies holds


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
    """The units a mod q and their inverses, as int64 arrays."""
    a = [a for a in range(1, q + 1) if gcd(a, q) == 1] if q > 1 else [1]
    return np.array(a, dtype=np.int64), np.array([pow(x, -1, q) for x in a], dtype=np.int64)


def _blocks(rows, cells):
    """Consecutive blocks of `rows`, at most `_BLOCK_CELLS` // cells each."""
    size = max(1, _BLOCK_CELLS // cells)
    return [rows[i:i + size] for i in range(0, len(rows), size)]


def _contract(cells, W, u, q):
    """hist[b, r] = sum over units a and cells c = s q + t of W[b, c] at r = a^-1 u + a s - t.

    Those units are the a with a s + a^-1 u = t + r, so hist[b, r] is the sum
    of W[b, c] L[s, t + r] with L[s, w] = #{units a : a s + a^-1 u = w}: a
    float64 product of W with the rows of L that the cells select,
    `_BLOCK_CELLS` entries at a time.  Its partial sums are integers below
    phi(q) q^m, exact while that is below 2^53.
    """
    a, abar = _units(q)
    L = np.empty((q, 2 * q), dtype=np.int32)  # each row twice: L[s, t + r] needs no mod q
    for s in _blocks(np.arange(q)[:, None], len(a)):
        w = (s * a + abar * u) % q + (s - s[0]) * q
        L[s[:, 0], :q] = np.bincount(w.ravel(), minlength=len(s) * q).reshape(-1, q)
    L[:, q:] = L[:, :q]
    rows = np.lib.stride_tricks.sliding_window_view(L, q, axis=1)  # rows[s, t] = L[s, t:t + q]
    hist = np.zeros((len(W), q))
    for c in _blocks(np.arange(len(cells)), q):
        hist += W[:, c].astype(np.float64) @ rows[cells[c] // q, cells[c] % q].astype(float)
    return hist.astype(np.int64)


def _direct_histograms(gr, V, u, q):
    """The histograms from J[b, s, t] = #{y : g(y) = s, v_b.y = t}, a scan of all q^m points.

    g and the labels v_b.y come a block of `grid_values` at a time, and one
    bincount per block fills J for a whole block of frequencies.
    """
    out = []
    for Vb in _blocks(V, max(q * q, min(q ** V.shape[1], GRID_BLOCK))):
        J = np.zeros((len(Vb), q * q), dtype=np.int64)
        for G, T in zip(grid_values([gr], q, q), grid_values(Vb, q, q)):
            keys = G * q + T + np.arange(len(Vb))[:, None] * (q * q)
            J += np.bincount(keys.ravel(), minlength=J.size).reshape(J.shape)
        cells = np.flatnonzero(J.any(axis=0))
        J = J[:, cells]  # frees the dense J before the contraction
        out.append(_contract(cells, J, u, q))
    return np.concatenate(out)


def _separable_histograms(gr, V, u, q):
    """The histograms of a separable g, one (frequency, unit) pair at a time.

    a g(y) - v.y is a sum of one-variable terms, so D[z] = #{y : a (g(y) -
    g(0)) - v.y = z} is the cyclic convolution of the tables of a g_i(y) -
    v_i y, and hist[r] sums D[r - a^-1 u - a g(0)] over the units a: (m - 1)
    q^2 cell updates per pair, `_BLOCK_CELLS` // q pairs at a time.
    """
    const, per_var = gr.single_variable_pieces()
    y = np.arange(q, dtype=np.int64)
    tables = [eval_mod_vec(Poly(1, {(d,): c for d, c in cmap.items()}), y[:, None], q)
              for cmap in per_var]
    a, abar = _units(q)
    hist = np.zeros(len(V) * q)
    for pairs in _blocks(np.arange(len(V) * len(a)), q):
        b, j = np.divmod(pairs, len(a))
        D, *hs = [np.bincount((np.arange(len(b))[:, None] * q
                               + (a[j, None] * table - vi[b, None] * y) % q).ravel(),
                              minlength=len(b) * q).reshape(-1, q)
                  for table, vi in zip(tables, V.T)]
        for h in hs:
            D2 = np.concatenate([D, D], axis=1)  # D2[:, q - w:2q - w] is D rolled by w
            D = sum(h[:, w, None] * D2[:, q - w:2 * q - w] for w in range(q))
        r = (y + abar[j, None] * u + const % q * a[j, None]) % q
        hist += np.bincount((b[:, None] * q + r).ravel(), weights=D.ravel(), minlength=len(V) * q)
    return hist.astype(np.int64).reshape(len(V), q)


def _stationary_histograms(gr, V, u, p, e):
    """The histograms at q = p^e (e >= 2) by stationary phase.

    With x = y + p^(e-1) z, g(x) = g(y) + p^(e-1) grad g(y).z (mod q), so one
    scan of y in [0, p^(e-1))^m serves every unit a.  If a grad g(y) = v (mod
    p), all p^m lifts of y land on r0 = a^-1 u + a g(y) - v.y: y is labelled by
    the lam with grad g(y) = lam v, critical for the a with a^-1 = lam (mod p),
    or for v = 0 (mod p) by p where grad g(y) = 0, critical for every a.  Any
    other (y, a) puts p^(m-1) on each r0 + p^(e-1) k; over all a, r0 mod
    p^(e-1) is p times the contraction mod p^(e-1), less the critical part.
    """
    q, step, m = p**e, p ** (e - 1), V.shape[1]
    polys = [gr] + gr.gradient_polys()
    a, abar = _units(q)
    cls = abar % p
    units = {lam: (a[cls == lam], abar[cls == lam]) for lam in range(1, p)} | {p: (a, abar)}
    out = []
    for Vb in _blocks(V, max(q, step * step, step**m)):
        B = len(Vb)
        Jstep = np.zeros((B, step * step), dtype=np.int64)
        keys = []
        for vals, T in zip(grid_values(polys, q, step), grid_values(Vb, q, step)):
            S, G = vals[0], vals[1:] % p
            for b, (vp, Tb) in enumerate(zip(Vb % p, T)):
                Jstep[b] += np.bincount(S % step * step + Tb % step, minlength=step * step)
                lead = np.flatnonzero(vp)
                lam = (G[lead[0]] * pow(int(vp[lead[0]]), -1, p) % p if lead.size
                       else np.full(len(S), p))
                label = np.where(np.all((G - vp[:, None] * lam) % p == 0, axis=0), lam, 0)
                keys.append((((b * (p + 1) + label) * q + S) * q + Tb)[label != 0])
        keys, w = np.unique(np.concatenate(keys), return_counts=True)
        rows, label, s, t = np.unravel_index(keys, (B, p + 1, q, q))
        hit = np.zeros(B * q)
        for lam in np.flatnonzero(np.bincount(label)):  # np.unique imports numpy.ma: 10 ms
            ua, ub = units[lam]
            for c in _blocks(np.flatnonzero(label == lam), len(ua)):
                r = (ub * u + s[c, None] * ua - t[c, None]) % q
                hit += np.bincount((rows[c, None] * q + r).ravel(),
                                   weights=np.repeat(w[c], len(ua)), minlength=B * q)
        hit = hit.astype(np.int64).reshape(B, q)
        cells = np.flatnonzero(Jstep.any(axis=0))
        spread = p * _contract(cells, Jstep[:, cells], u % step, step)
        spread -= hit.reshape(B, p, step).sum(axis=1)
        out.append(hit * p**m + np.tile(spread, p) * (p**m // p))
    return np.concatenate(out)


def complete_sums(g, u, q, vs, budget=DEFAULT_TERM_BUDGET):
    """Exact S_u(q; v) with a deterministic phase histogram, for every v in vs.

    g is restricted once to its variables mod q; a block of frequencies takes
    one scan of its values and gradient, or its tables.  Paths: stationary at q =
    p^e (e >= 2); else the convolution for g separable in three or more
    variables; else the direct scan.
    Every sum is checked against `budget` (phi(q) q^n terms) before any work.
    """
    specs = [ExpSumSpec(g, u, q, tuple(v)) for v in vs]
    if q == 1 or not specs:
        return [ExpSum(spec, (1,), complex(1.0), "direct", 1) for spec in specs]
    n, u, terms = g.n, specs[0].u, euler_phi(q) * q**g.n
    if terms > budget:
        raise BudgetExceededError(terms, budget, "complete exponential sum")
    V = np.array([spec.v for spec in specs], dtype=np.int64)
    (gr,), used = drop_unused([g], q)
    (p, e), *others = factorize(q).items()
    if not others and e >= 2:
        hists = _stationary_histograms(gr, V[:, used], u, p, e)
    elif len(used) >= 3 and gr.is_separable():
        hists = _separable_histograms(gr, V[:, used], u, q)
    else:
        hists = _direct_histograms(gr, V[:, used], u, q)
    # a variable that g drops mod q adds v_i y_i, uniform over d Z/q with d = gcd(q, those v_i)
    ds = np.gcd.reduce(np.delete(V, used, axis=1), axis=1, initial=q)
    out = []
    for spec, hist, d in zip(specs, hists, ds.tolist()):
        hist = np.tile(hist.reshape(-1, d).sum(axis=0), q // d)  # Python integers past 2^63
        hist = hist.astype(np.int64 if terms < 2**63 else object) * (q ** (n - len(used)) * d // q)
        if int(hist.sum()) != terms:
            raise RuntimeError(f"histogram mass {int(hist.sum())} is not phi(q) q^n = {terms}")
        out.append(ExpSum(spec, tuple(int(x) for x in hist),
                          complex(np.dot(hist, _roots_of_unity(q))), "direct", terms))
    return out


def complete_sum(spec, budget=DEFAULT_TERM_BUDGET):
    """Exact S_u(q; v): `complete_sums` at the one frequency v."""
    return complete_sums(spec.g, spec.u, spec.q, [spec.v], budget)[0]


def crt_sum(spec, budget=DEFAULT_TERM_BUDGET):
    """S_u(q; v) via the multiplicative splitting over prime-power factors.

    Uses S_u(rs; v) = S_{s_bar^2 u}(r; s_bar v) * S_{r_bar^2 u}(s; r_bar v)
    with r r_bar + s s_bar = 1; returns the complex value only.
    """
    value, terms, u, v, rest = complex(1.0), 0, spec.u, spec.v, spec.q
    for p, e in (factorize(rest) if rest > 1 else {}).items():
        r = p**e
        s = rest // r  # the last factor has s = 1, sbar = 1 and rbar = 0
        sbar = pow(s, -1, r)
        rbar = (1 - s * sbar) // r
        part = complete_sum(ExpSumSpec(spec.g, sbar * sbar * u, r, tuple(sbar * x for x in v)),
                            budget)
        u, v = rbar * rbar * u % s, tuple(rbar * x % s for x in v)
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
    for a, abar in zip(*_units(q)):
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
    pencil = np.array([[basis[i][a][b] % p for i in range(n)] for a in range(n) for b in range(n)])
    for Hs in grid_values(pencil, p, p):  # the entries of M(h) - M1, mod p
        E = {(a, b): (Hs[a * n + b] + M1[a][b] % p) % p for a in range(n) for b in range(n)}
        if n == 1:
            rank = (E[0, 0] != 0).astype(np.int64)
        elif n == 2:
            det = (E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]) % p
            any_entry = (E[0, 0] != 0) | (E[0, 1] != 0) | (E[1, 0] != 0) | (E[1, 1] != 0)
            rank = any_entry.astype(np.int64) + (det != 0)
        else:
            det = np.zeros(Hs.shape[1], dtype=np.int64)
            for (i, j, k), sign in (
                ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                ((2, 1, 0), -1), ((0, 2, 1), -1), ((1, 0, 2), -1),
            ):
                det += sign * (E[0, i] * E[1, j] % p) * E[2, k]
            det %= p
            any_entry = np.zeros(Hs.shape[1], dtype=bool)
            minor2 = np.zeros(Hs.shape[1], dtype=bool)
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
    if not is_squarefull(q):
        raise InputError("box-sum diagnostic requires a square-full modulus")
    n = g.n
    if len(v0) != n:
        raise InputError("v0 has wrong length")
    box = [tuple((int(v0[i]) + offs[i]) % q for i in range(n))
           for offs in product(range(-V, V + 1), repeat=n)]
    sums = {res.spec.v: abs(res.value)
            for res in complete_sums(g, u, q, list(dict.fromkeys(box)), budget)}
    total = sum(sums[v] for v in box)
    envelope = A ** omega(q) * log(q + 1) ** (2 * n) * q ** (n / 2 + 1) * (V**n + q ** (n / 3))
    return BoxSumReport(q, u % q, tuple(int(x) for x in v0), V, total, envelope,
                        total / envelope, A)

"""p-adic solubility: Hensel lifting, zero searches, densities, the decider.

A `PAdicWitness` pins down a residue vector x mod p^k with g(x) = 0 mod p^k
and records the minimum valuation of the gradient there.  The classical
margin k >= 2*grad_val + 1 makes such a witness liftable to every higher
precision, so a witness is a complete, replayable certificate of a
non-singular p-adic zero.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, InputError, NonLiftableError
from .finitefield import count_separable, is_prime, primes_upto
from .residues import eval_mod_vec, residue_chunks, zero_count

DEFAULT_ENUM_BUDGET = 2_000_000
DEFAULT_BRANCH_BUDGET = 200_000
_LINE_TRIALS = 64
_SCAN_CHUNK = 1 << 14  # rows per chunk of the witness scans, which stop at the first witness


@dataclass(frozen=True)
class PAdicWitness:
    p: int
    k: int
    x: tuple
    grad_val: int
    grad_prime_val: int = None  # min valuation over components 2..n, when tracked

    def to_json_dict(self):
        return {"p": self.p, "k": self.k, "x": list(self.x),
                "grad_val": self.grad_val, "grad_prime_val": self.grad_prime_val}

    def verify(self, g):
        """Re-evaluate the recorded facts; True iff everything checks out."""
        p, k = self.p, self.k
        if g.eval(self.x) % p**k != 0:
            return False
        gv = _min_valuation(g.gradient(self.x), p, cap=k)
        if gv != self.grad_val or not gv * 2 + 1 <= k:
            return False
        if self.grad_prime_val is not None:
            gpv = _min_valuation(g.gradient(self.x)[1:], p, cap=k)
            if gpv != self.grad_prime_val:
                return False
        return True


@dataclass(frozen=True)
class SearchResult:
    status: str  # FOUND | FAILS | UNKNOWN
    witness: object = None
    fail_k: int = None  # precision at which no zero at all exists
    detail: str = ""

    def to_json_dict(self):
        out = {"status": self.status, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        if self.fail_k is not None:
            out["fail_k"] = self.fail_k
        return out


@dataclass(frozen=True)
class CongruenceVerdict:
    overall: str  # HOLDS | FAILS | UNKNOWN
    pmax: int
    kmax: int
    per_prime: dict  # p -> SearchResult
    witnesses: tuple

    def to_json_dict(self):
        return {
            "overall": self.overall,
            "pmax": self.pmax,
            "kmax": self.kmax,
            "per_prime": {str(p): r.to_json_dict() for p, r in self.per_prime.items()},
        }


def _min_valuation(vals, p, cap):
    """min_i val_p(vals[i]), capped at `cap` (and for the zero vector)."""
    best = cap
    for v in vals:
        v = int(v)
        if v == 0:
            continue
        c = 0
        while v % p == 0 and c < cap:
            v //= p
            c += 1
        best = min(best, c)
        if best == 0:
            return 0
    return best


def hensel_lift(g, w, target_k):
    """Lift a witness to precision target_k along a minimum-valuation coordinate.

    Requires the margin k >= 2*grad_val + 1; the lifted x agrees with the old
    one mod p^{k - grad_val} and grad_val is unchanged.
    """
    p, k, delta = w.p, w.k, w.grad_val
    if target_k < k:
        raise InputError("target precision below current precision")
    if k < 2 * delta + 1:
        raise NonLiftableError(f"margin violated: k={k} < 2*{delta}+1")
    x = [int(c) for c in w.x]
    if g.eval(x) % p**k != 0:
        raise NonLiftableError("witness does not satisfy its own congruence")
    grad = g.gradient(x)
    i = min(range(len(x)), key=lambda i: _min_valuation([grad[i]], p, cap=k))
    while k < target_k:
        gv = g.eval(x)
        if gv % p**k:
            raise RuntimeError(f"Hensel step lost the congruence mod {p}^{k}")
        grad_i = g.gradient(x)[i]
        unit = grad_i // p**delta
        t = (-(gv // p**k) * pow(unit % p, -1, p)) % p
        x[i] += t * p ** (k - delta)
        k += 1
        x = [c % p**target_k for c in x]
    if g.eval(x) % p**target_k:
        raise RuntimeError(f"lifted point is not a zero mod {p}^{target_k}")
    return PAdicWitness(p, target_k, tuple(c % p**target_k for c in x),
                        w.grad_val, w.grad_prime_val)


def _zeros_mod_p(g, p):
    """All zeros of g mod p as an int64 array of rows, in lexicographic order."""
    return np.concatenate([X[eval_mod_vec(g, X, p) == 0] for X in residue_chunks(p, g.n)])


def _scan_zeros(g, p, pick):
    """Scan the zeros of g mod p chunk by chunk, in lexicographic order.

    Returns (witness, None) as soon as `pick`, called on one chunk's zeros,
    returns a witness; otherwise (None, every zero of g mod p in order).
    """
    seen = []
    for X in residue_chunks(p, g.n, chunk=_SCAN_CHUNK):
        Z = X[eval_mod_vec(g, X, p) == 0]
        w = pick(Z)
        if w is not None:
            return w, None
        seen.append(Z)
    return None, np.concatenate(seen)


def _nonsingular_mask(g, Z, p, first=1):
    """Boolean mask of rows of Z where a partial of g in x_first..x_n is non-zero mod p."""
    gen = g.to_generic()
    mask = np.zeros(Z.shape[0], dtype=bool)
    for d in gen.gradient_polys()[first - 1:]:
        mask |= eval_mod_vec(d, Z, p) != 0
    return mask


def _first_witness(g, Z, p, level, first=1):
    """Witness at the lexicographically first row of Z usable at precision p^level, or None.

    A row is usable when the partials in x_first..x_n, and so all partials,
    have valuation v with 2v + 1 <= level; at level 1 that is one vectorized
    check.  With first > 1 the witness records that valuation as grad_prime_val.
    """
    if level == 1:
        Z = Z[_nonsingular_mask(g, Z, p, first)]
        if Z.shape[0] == 0:
            return None
        for i in range(Z.shape[1]):  # narrow to the lexicographic minimum
            Z = Z[Z[:, i] == Z[:, i].min()]
        return PAdicWitness(p, 1, tuple(int(c) for c in Z[0]), 0, 0 if first > 1 else None)
    for row in Z[np.lexsort(Z.T[::-1])]:
        x = tuple(int(c) for c in row)
        grad = g.gradient(x)
        kp = _min_valuation(grad[first - 1:], p, cap=level)
        if 2 * kp + 1 <= level:
            gv = _min_valuation(grad, p, cap=level)
            return PAdicWitness(p, level, x, gv, kp if first > 1 else None)
    return None


def _line_zeros(g, p, seed, tag):
    """Zeros of g mod p on seeded random lines, one array per line.

    Each line varies x_1 over a full residue system with the other
    coordinates fixed at random; deterministic for a fixed (seed, tag).
    Used when p^n is too large to enumerate.
    """
    rng = np.random.default_rng((seed, p, tag))
    n = g.n
    for _ in range(_LINE_TRIALS):
        tail = rng.integers(0, p, size=n - 1)
        X = np.empty((p, n), dtype=np.int64)
        X[:, 0] = np.arange(p)
        X[:, 1:] = tail[None, :]
        yield X[eval_mod_vec(g, X, p) == 0]


def _lift_digit(g, Z, p, k):
    """Zeros of g mod p^{k+1} among the lifts z + p^k d of the rows z of Z."""
    n = Z.shape[1]
    D = next(residue_chunks(p, n, chunk=p**n))
    cand = (Z[:, None, :] + p**k * D[None, :, :]).reshape(-1, n)
    return cand[eval_mod_vec(g, cand, p ** (k + 1)) == 0]


def nonsingular_zero_search(g, p, kmax, budget=DEFAULT_ENUM_BUDGET,
                            branch_budget=DEFAULT_BRANCH_BUDGET, seed=0):
    """Search for a liftable p-adic zero, deepening precision up to kmax.

    FOUND: witness with margin k >= 2*grad_val + 1 (hence a p-adic zero).
    FAILS: no zero at all exists mod p^{fail_k} (full scan, replayable).
    UNKNOWN: zeros exist but all remain too singular within the budget.

    When p^n fits the budget, the zeros mod p are scanned in lexicographic
    order, about 2^14 residues at a time, and the scan stops at the first
    chunk holding a non-singular zero: the witness is the lexicographically
    first non-singular zero mod p.  Only when there is none does the search
    hold every zero mod p, and it then deepens precision digit by digit,
    taking the lexicographically first zero mod p^k that fits the margin.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    n = g.n
    if p**n > budget:
        for Z in _line_zeros(g, p, seed, 0x5EED):
            w = _first_witness(g, Z, p, 1)
            if w is not None:
                return SearchResult("FOUND", witness=w)
        return SearchResult("UNKNOWN", detail="enumeration over budget; line search found no nonsingular zero")
    w, Z = _scan_zeros(g, p, lambda Z: _first_witness(g, Z, p, 1))
    if w is not None:
        return SearchResult("FOUND", witness=w)
    if Z.shape[0] == 0:
        return SearchResult("FAILS", fail_k=1, detail=f"no zeros mod {p}")
    # all residues singular mod p: deepen digit by digit
    for k in range(1, kmax):
        if Z.shape[0] * p**n > branch_budget:
            return SearchResult("UNKNOWN", detail=f"branching over budget at precision {k}")
        cand = _lift_digit(g, Z, p, k)
        if cand.shape[0] == 0:
            return SearchResult("FAILS", fail_k=k + 1,
                                detail=f"no zeros mod {p}^{k + 1}")
        w = _first_witness(g, cand, p, k + 1)
        if w is not None:
            return SearchResult("FOUND", witness=w)
        Z = cand
    return SearchResult("UNKNOWN", detail=f"zeros persist to precision {kmax} but stay singular")


def congruence_condition(g, pmax, kmax=6, budget=DEFAULT_ENUM_BUDGET, seed=0):
    """Decide solubility of g = 0 over Z_p for every prime p <= pmax.

    HOLDS requires a liftable witness at every tested prime; a single FAILS
    is decisive for insolubility; UNKNOWN taints the overall verdict only.
    """
    per_prime = {}
    witnesses = []
    overall = "HOLDS"
    for p in primes_upto(pmax):
        res = nonsingular_zero_search(g, p, kmax, budget=budget, seed=seed)
        per_prime[p] = res
        if res.status == "FOUND":
            witnesses.append(res.witness)
        elif res.status == "FAILS":
            overall = "FAILS"
        elif overall != "FAILS":
            overall = "UNKNOWN"
    return CongruenceVerdict(overall, pmax, kmax, per_prime, tuple(witnesses))


# -- exact zero counting modulo prime powers --------------------------------


def count_zeros_mod_pk(g, p, k, budget=DEFAULT_ENUM_BUDGET, _depth=0):
    """Exact #{x mod p^k : g(x) = 0 mod p^k} for a polynomial of degree <= 3.

    Dispatch: direct enumeration when p^{kn} is affordable; histogram
    convolution for separable polynomials; otherwise the lifting recursion
    splitting zeros mod p into non-singular ones (each carrying
    p^{(k-1)(n-1)} lifts) and singular ones, handled by the exact
    substitution x = x0 + p y and division by p^2.
    """
    gen = g.to_generic()
    n = gen.n
    if k <= 0:
        return 1
    # factor out the p-content of the coefficients
    vals = [c for c in gen.terms.values()]
    if gen.is_zero():
        return p ** (k * n)
    content_val = _min_valuation(vals, p, cap=k)
    if content_val >= k:
        return p ** (k * n)
    if content_val > 0:
        reduced = gen.divide_exact(p**content_val)
        return p ** (n * content_val) * count_zeros_mod_pk(reduced, p, k - content_val, budget)
    if p ** (k * n) <= min(budget, 1 << 22):
        return zero_count(gen, residue_chunks(p**k, n), p**k)
    if gen.is_separable() and p**n > budget:
        q = p**k
        if q * q > 10**9:  # convolution work is q^2 per variable
            raise BudgetExceededError(q * q, 10**9, "histogram convolution")
        return count_separable(gen, q)
    return _count_recursive(gen, p, k, budget, _depth)


def _count_recursive(gen, p, k, budget, depth):
    n = gen.n
    if p**n > budget:
        raise BudgetExceededError(p**n, budget, "zero classification mod p")
    if depth > k:
        raise RuntimeError("lifting recursion failed to terminate")
    Z = _zeros_mod_p(gen, p)
    if Z.shape[0] == 0:
        return 0
    if k == 1:
        return Z.shape[0]
    nonsing = _nonsingular_mask(gen, Z, p)
    total = int(np.count_nonzero(nonsing)) * p ** ((k - 1) * (n - 1))
    for row in Z[~nonsing]:
        x0 = [int(c) for c in row]
        if gen.eval(x0) % p**2 != 0:
            continue
        if k == 2:
            total += p**n
            continue
        h = gen.shift_scale(x0, p).divide_exact(p**2)
        total += p**n * count_zeros_mod_pk(h, p, k - 2, budget, depth + 1)
    return total


def local_density(g, p, k, budget=DEFAULT_ENUM_BUDGET):
    """Exact rational p^{-k(n-1)} #{x mod p^k : g(x) = 0 mod p^k}."""
    n = g.n
    return Fraction(count_zeros_mod_pk(g, p, k, budget), p ** (k * (n - 1)))


# -- restricted-gradient witnesses for the slicing step ---------------------


def grad_prime_zero_search(h, p, kmax=4, budget=DEFAULT_ENUM_BUDGET, seed=0):
    """Witness y with h(y) = 0 mod p^{2k+1} and partials 2..n of valuation k.

    k = grad_prime_val is minimized by breadth-first deepening; the overall
    gradient margin is tracked as well so the witness stays liftable.

    When p^n fits the budget, the zeros mod p are scanned in lexicographic
    order, about 2^14 residues at a time, and the scan stops at the first
    chunk holding a zero with a partial 2..n non-zero mod p.  Only when there
    is none does the search hold every zero mod p and lift them digit by
    digit, taking at each precision the lexicographically first usable zero.
    """
    n = h.n
    if n < 2:
        raise InputError("restricted gradient needs n >= 2")
    h0keys = h.cubic
    if all(1 in key for key in h0keys):
        raise InputError("cubic part divisible by the sliced variable (reducible section)")
    if p**n > budget:
        # large p^n: random lines; nearly always a k=0 witness exists
        for cand in _line_zeros(h, p, seed, 0xACE):
            w = _first_witness(h, cand, p, 1, first=2)
            if w is not None:
                return w
        raise BudgetExceededError(p**n, budget, "restricted-gradient witness search")
    w, Z = _scan_zeros(h, p, lambda Z: _first_witness(h, Z, p, 1, first=2))
    level = 1
    while w is None:
        if Z.shape[0] == 0:
            raise InputError(f"h has no zeros mod {p}^{level} (no p-adic zero exists)")
        if level > 2 * kmax + 1:
            raise BudgetExceededError(level, 2 * kmax + 1,
                                      "restricted-gradient precision deepening")
        if Z.shape[0] * p**n > DEFAULT_BRANCH_BUDGET:
            raise BudgetExceededError(Z.shape[0] * p**n, DEFAULT_BRANCH_BUDGET,
                                      "restricted-gradient branching")
        Z = _lift_digit(h, Z, p, level)
        level += 1
        w = _first_witness(h, Z, p, level, first=2)
    return w

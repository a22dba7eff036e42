"""Hyperplane slicing: reduce the singular-locus dimension by one, certified.

One step picks a primitive vector a, completes it to M in SL_n(Z) with first
row a, rewrites g in the coordinates y = M x as h(y) = g(M^{-1} y), and slices
y_1 = c.  The constant c is assembled by CRT from per-prime witnesses whose
restricted gradient (partials 2..n) has controlled valuation, so the sliced
polynomial keeps a liftable non-singular zero at every recorded prime.  The
emitted certificate carries everything needed to replay the claims.
"""

from dataclasses import dataclass

from .errors import DegenerateSliceError, InputError, SearchFailureError
from .finitefield import DEFAULT_POINT_BUDGET, ExtField, count_affine_zeros
from .geometry import singular_locus_dim_mod_p
from .intlinalg import complete_unimodular, crt_list, det_int, inverse_unimodular, rank_int
from .padic import DEFAULT_ENUM_BUDGET, PAdicWitness, _min_valuation, grad_prime_zero_search
from .polynomials import CubicPolynomial, json_int

import numpy as np

from math import gcd

DEFAULT_PRIMES = (5, 7, 11)
DEFAULT_BOX = 10


@dataclass(frozen=True)
class PrimeSliceData:
    p: int
    witness: PAdicWitness
    k: int  # valuation of the restricted gradient at the witness
    modulus: int  # p^{2k+1}
    z1: int  # the first witness coordinate, the congruence target for c

    def to_json_dict(self):
        return {"p": self.p, "witness": self.witness.to_json_dict(),
                "k": self.k, "modulus": self.modulus, "z1": self.z1}

    @classmethod
    def from_json_dict(cls, d):
        w = d["witness"]
        gpv = w.get("grad_prime_val")
        wit = PAdicWitness(json_int(w["p"], "p"), json_int(w["k"], "k"), _ints(w["x"], "x"),
                           json_int(w["grad_val"], "grad_val"),
                           None if gpv is None else json_int(gpv, "grad_prime_val"))
        return cls(json_int(d["p"], "p"), wit, json_int(d["k"], "k"),
                   json_int(d["modulus"], "modulus"), json_int(d["z1"], "z1"))


@dataclass(frozen=True)
class SliceCertificate:
    a: tuple
    M: tuple  # rows; first row is a, det = 1
    c: int
    s_before: int
    s_after: int
    primes: tuple  # primes used for the singular-dimension checks
    per_prime: dict  # p -> PrimeSliceData
    result: CubicPolynomial  # h^{(c)} in n - 1 variables

    def to_json_dict(self):
        return {
            "a": list(self.a),
            "M": [list(r) for r in self.M],
            "c": self.c,
            "s_before": self.s_before,
            "s_after": self.s_after,
            "primes": list(self.primes),
            "per_prime": {str(p): d.to_json_dict() for p, d in self.per_prime.items()},
            "result": self.result.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d):
        """Parse strictly: every number must be a JSON integer (not a float or a
        boolean), and a missing field or a wrong shape raises InputError."""
        try:
            return cls(
                a=_ints(d["a"], "a"),
                M=_ints(d["M"], "M", row=True),
                c=json_int(d["c"], "c"),
                s_before=json_int(d["s_before"], "s_before"),
                s_after=json_int(d["s_after"], "s_after"),
                primes=_ints(d["primes"], "primes"),
                per_prime={int(p): PrimeSliceData.from_json_dict(x)
                           for p, x in d["per_prime"].items()},
                result=CubicPolynomial.from_json_dict(d["result"]),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise InputError(f"certificate is malformed: {exc}") from exc


def _ints(values, what, row=False):
    """A JSON list of integers (of integer lists when `row`) as a tuple."""
    if not isinstance(values, list):
        raise InputError(f"{what} must be a list")
    if row:
        return tuple(_ints(r, what) for r in values)
    return tuple(json_int(x, what) for x in values)


def _section_form(g0, M):
    """H1 = g0(M^{-1} y) at y_1 = 0, a form in n - 1 variables."""
    return g0.transform(inverse_unimodular(M)).slice_at(0)


def _essential_rank(form):
    """Least number of variables expressing the form after a linear change.

    Equals the rank of the span of its partial derivatives, read off from the
    matrix of their monomial coefficients.
    """
    gen = form.to_generic()
    m = form.n
    monomials = sorted({e for i in range(1, m + 1) for e in gen.partial(i).terms})
    rows = []
    for i in range(1, m + 1):
        d = gen.partial(i).terms
        rows.append([d.get(e, 0) for e in monomials])
    return rank_int(rows)


def _nondegenerate(section, ambient):
    """The section keeps every essential variable of the ambient form.

    A cubic essentially in r variables restricts to a generic hyperplane as a
    cubic still essentially in min(r, n - 1) variables; anything less marks a
    degenerate hyperplane choice.
    """
    target = min(_essential_rank(ambient), ambient.n - 1)
    return _essential_rank(section) == target


def find_good_hyperplane(g0, primes=DEFAULT_PRIMES, trials=200, seed=0,
                         box=DEFAULT_BOX, budget=DEFAULT_POINT_BUDGET):
    """A primitive vector a whose section drops the singular dimension by one.

    Candidates stream from a seeded box sample; acceptance requires, at every
    sampled prime, the dimension drop s -> s - 1 for the section form, plus
    non-degeneracy.  Deterministic for a fixed seed.
    """
    g0 = g0.cubic_part()
    n = g0.n
    s_by_p = {p: singular_locus_dim_mod_p(g0, p, jmax=2, budget=budget).dim_estimate
              for p in primes}
    if all(s == -1 for s in s_by_p.values()):
        raise InputError("form is already non-singular at the sampled primes")
    rng = np.random.default_rng((seed, 0x51,))
    seen = set()
    for _ in range(trials):
        a = [int(x) for x in rng.integers(-box, box + 1, size=n)]
        content = gcd(*a) if any(a) else 0
        if content == 0:
            continue
        a = tuple(x // content for x in a)
        if a in seen:
            continue
        seen.add(a)
        try:
            M = complete_unimodular(list(a))
            H1 = _section_form(g0, M)
        except (InputError, DegenerateSliceError):
            continue
        if not _nondegenerate(H1, g0):
            continue
        ok = True
        for p in primes:
            s1 = singular_locus_dim_mod_p(H1, p, jmax=2, budget=budget).dim_estimate
            if s1 != s_by_p[p] - 1:
                ok = False
                break
        if ok:
            return a
    raise SearchFailureError(f"no good hyperplane found in {trials} candidates "
                             f"(primes {primes}, box {box})")


def choose_c(h, pmax, kmax=4, budget=DEFAULT_ENUM_BUDGET, seed=0):
    """Minimal c >= 0 with c = z1^(p) mod p^{2k(p)+1} for every prime p <= pmax.

    The witnesses come from the restricted-gradient search; after CRT, each
    one is re-verified against the actual slice h^{(c)}.
    """
    from .finitefield import primes_upto

    per_prime = {}
    residues, moduli = [], []
    for p in primes_upto(pmax):
        w = grad_prime_zero_search(h, p, kmax=kmax, budget=budget, seed=seed)
        k = w.grad_prime_val
        modulus = p ** (2 * k + 1)
        z1 = w.x[0] % modulus
        per_prime[p] = PrimeSliceData(p, w, k, modulus, z1)
        residues.append(z1)
        moduli.append(modulus)
    c, _ = crt_list(residues, moduli)
    hc = h.slice_at(c)
    for p, data in per_prime.items():
        if not _witness_transfers(hc, data):
            raise SearchFailureError(f"slice witness failed to transfer at p={p}")
    return c, per_prime


def _witness_transfers(hc, data):
    """The sliced polynomial inherits a liftable zero from the witness."""
    p, k, m = data.p, data.k, data.modulus
    u = [x % m for x in data.witness.x[1:]]
    if hc.eval(u) % m != 0:
        return False
    grad = hc.gradient(u)
    return _min_valuation(grad, p, cap=k + 1) <= k


def slice_step(g, primes=DEFAULT_PRIMES, pmax=100, kmax=4, trials=200, seed=0,
               box=DEFAULT_BOX, budget=DEFAULT_POINT_BUDGET):
    """One full induction step: hyperplane, unimodular change, CRT constant.

    Distinct integer zeros of the result pull back to distinct zeros of g, so
    iterating the step preserves solution-finding.
    """
    g0 = g.cubic_part()
    s_before_by_p = {p: singular_locus_dim_mod_p(g0, p, jmax=2, budget=budget).dim_estimate
                     for p in primes}
    s_before = min(s_before_by_p.values())
    if s_before < 0:
        raise InputError("cubic part is already non-singular; nothing to slice")
    a = find_good_hyperplane(g0, primes=primes, trials=trials, seed=seed,
                             box=box, budget=budget)
    M = complete_unimodular(list(a))
    h = g.transform(inverse_unimodular(M))
    c, per_prime = choose_c(h, pmax, kmax=kmax, seed=seed)
    hc = h.slice_at(c)
    s_after_by_p = {
        p: singular_locus_dim_mod_p(hc.cubic_part(), p, jmax=2, budget=budget).dim_estimate
        for p in primes
    }
    s_after = min(s_after_by_p.values())
    for p in primes:
        if s_after_by_p[p] != s_before_by_p[p] - 1:
            raise SearchFailureError(f"dimension drop failed at p={p}")
    return SliceCertificate(tuple(a), tuple(tuple(r) for r in M), c,
                            s_before, s_after, tuple(primes), per_prime, hc)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reasons: tuple

    def __bool__(self):
        return self.ok

    def to_json_dict(self):
        return {"ok": self.ok, "reasons": list(self.reasons)}


def verify_certificate(cert, g, budget=DEFAULT_POINT_BUDGET):
    """Replay every claim of a certificate against g; False carries reasons."""
    reasons = []
    a, M = list(cert.a), [list(r) for r in cert.M]
    if gcd(*a) != 1:
        reasons.append("a is not primitive")
    if det_int(M) != 1:
        reasons.append("det M is not 1")
    if not M or M[0] != a:
        reasons.append("first row of M is not a")
    if reasons:
        return VerificationResult(False, tuple(reasons))
    h = g.transform(inverse_unimodular(M))
    try:
        hc = h.slice_at(cert.c)
    except DegenerateSliceError:
        return VerificationResult(False, ("slice at c degenerates",))
    if hc != cert.result:
        reasons.append("recorded result does not match the recomputed slice")
    for p, data in cert.per_prime.items():
        # a prime is >= 2, so p^(2k+1) has more than 2k bits: a larger k cannot
        # match, and is refused before the power is taken
        if (p < 2 or not 0 <= 2 * data.k < data.modulus.bit_length()
                or data.modulus != p ** (2 * data.k + 1)):
            reasons.append(f"modulus mismatch at p={p}")
            continue
        if cert.c % data.modulus != data.z1 % data.modulus:
            reasons.append(f"congruence for c broken at p={p}")
        w = data.witness
        if len(w.x) != h.n:
            reasons.append(f"witness has the wrong length at p={p}")
            continue
        if h.eval(w.x) % data.modulus != 0:
            reasons.append(f"witness is not a zero of h at p={p}")
        gp = _min_valuation(h.gradient(w.x)[1:], p, cap=data.k + 1)
        if gp != data.k:
            reasons.append(f"restricted-gradient valuation mismatch at p={p}")
        if not _witness_transfers(hc, data):
            reasons.append(f"witness does not transfer to the slice at p={p}")
    for p in cert.primes:
        sb = singular_locus_dim_mod_p(g.cubic_part(), p, jmax=2, budget=budget).dim_estimate
        sa = singular_locus_dim_mod_p(cert.result.cubic_part(), p, jmax=2,
                                      budget=budget).dim_estimate
        if sa != sb - 1:
            reasons.append(f"dimension drop fails at p={p}")
        if sb != cert.s_before:
            reasons.append(f"recorded s_before disagrees with the recount at p={p}")
        if sa != cert.s_after:
            reasons.append(f"recorded s_after disagrees with the recount at p={p}")
    return VerificationResult(not reasons, tuple(reasons))


# -- counting identities on a slice ----------------------------------------


@dataclass(frozen=True)
class SliceCountIdentity:
    p: int
    N: int  # zeros of h^{(c)} mod p
    N1: int  # zeros of the homogenization H^{(c)} mod p
    N2: int  # zeros of the leading form H1 mod p
    ok: bool  # N (p - 1) == N1 - N2, exactly

    def to_json_dict(self):
        return {"p": self.p, "N": self.N, "N1": self.N1, "N2": self.N2, "ok": self.ok}


def slice_count_identity(hc, p, budget=10**8):
    """Exact check of N = (N1 - N2)/(p - 1) by three independent counts."""
    fld = ExtField(p, 1)
    N = count_affine_zeros(hc.to_generic(), fld, budget)
    N1 = count_affine_zeros(hc.homogenize().to_generic(), fld, budget)
    N2 = count_affine_zeros(hc.cubic_part().to_generic(), fld, budget)
    return SliceCountIdentity(p, N, N1, N2, N * (p - 1) == N1 - N2)

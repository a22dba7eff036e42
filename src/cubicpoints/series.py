"""Truncated singular series and its positivity diagnostics.

The series is sum over q >= 1 of q^{-n} S_0(q; 0).  Every term here is an
exact integer before the final division: S_0(q; 0) equals the sum of the
Ramanujan sums c_q(g(y)) over y mod q, and is multiplicative in q for the
(u, v) = (0, 0) specialization.  For prime powers whose residue cube is too
large to enumerate, the term falls back to the exact counting identity

    S_0(p^e; 0) = p^e N(p^e) - p^{n+e-1} N(p^{e-1}),

with N(m) the number of zeros of g mod m.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import factorize, ramanujan_prime_power
from .errors import AmbiguityError, BudgetExceededError, InputError
from .geometry import singular_locus_dim_Q
from .padic import DEFAULT_ENUM_BUDGET, congruence_condition, count_zeros_mod_pk
from .residues import residue_chunks, valuation_histogram

_S0_ENUM_CAP = 2_000_000


def s0_at_zero(g, p, e, budget=DEFAULT_ENUM_BUDGET):
    """Exact integer S_0(p^e; 0), preferring direct Ramanujan-sum enumeration."""
    n = g.n
    q = p**e
    if q**n <= min(budget, _S0_ENUM_CAP):
        val_hist = valuation_histogram(g, residue_chunks(q, n), p, e)
        return sum(int(val_hist[v]) * ramanujan_prime_power(p, e, 0 if v >= e else p**v)
                   for v in range(e + 1))
    big = count_zeros_mod_pk(g, p, e, budget)
    small = count_zeros_mod_pk(g, p, e - 1, budget) if e > 1 else 1
    return p**e * big - p ** (n + e - 1) * small


def s0_term(g, q, budget=DEFAULT_ENUM_BUDGET):
    """Exact integer S_0(q; 0) via multiplicativity over prime powers."""
    if q == 1:
        return 1
    total = 1
    for p, e in factorize(q).items():
        total *= s0_at_zero(g, p, e, budget)
    return total


@dataclass(frozen=True)
class PositivityVerdict:
    status: str  # POSITIVE | NOT_POSITIVE | INCONCLUSIVE
    s_estimate: object  # int, or None when not determinable
    blocking: tuple  # primes preventing a POSITIVE verdict
    reason: str
    witnesses: tuple

    def to_json_dict(self):
        return {"status": self.status, "s_estimate": self.s_estimate,
                "blocking": list(self.blocking), "reason": self.reason}


@dataclass(frozen=True)
class SeriesReport:
    Qmax: int
    terms: dict  # q -> exact Fraction q^{-n} S_0(q; 0)
    partial_sums: dict  # Q -> float partial sum up to Q
    per_prime: dict  # p -> truncated Euler factor (Fraction)
    convergence_slope: float
    positivity: object  # PositivityVerdict or None if not requested

    @property
    def total(self):
        return float(sum(self.terms.values()))

    def to_json_dict(self):
        out = {
            "Qmax": self.Qmax,
            "total": self.total,
            "terms": {str(q): float(t) for q, t in self.terms.items()},
            "partial_sums": {str(Q): s for Q, s in self.partial_sums.items()},
            "per_prime": {str(p): float(f) for p, f in self.per_prime.items()},
            "convergence_slope": self.convergence_slope,
        }
        if self.positivity is not None:
            out["positivity"] = self.positivity.to_json_dict()
        return out


def series_partial(g, Qmax, budget=DEFAULT_ENUM_BUDGET):
    """Partial singular series over q <= Qmax, with exact rational terms.

    Imaginary parts never arise: each S_0(q; 0) is an integer by the
    Ramanujan-sum identity, so the report is exactly real.
    """
    n = g.n
    terms = {}
    partial = {}
    running = Fraction(0)
    for q in range(1, Qmax + 1):
        terms[q] = Fraction(s0_term(g, q, budget), q**n)
        running += terms[q]
        partial[q] = float(running)
    per_prime = {}
    for p in sorted({p for q in range(2, Qmax + 1) for p in factorize(q)}):
        factor = Fraction(1)
        d = 1
        while p**d <= Qmax:
            factor += terms[p**d]
            d += 1
        per_prime[p] = factor
    slope = _tail_slope(terms)
    return SeriesReport(Qmax, terms, partial, per_prime, slope, None)


def _tail_slope(terms):
    pts = [(q, abs(float(t))) for q, t in terms.items() if q > 1 and t != 0]
    if len(pts) < 2:
        return float("nan")
    xs = np.log([q for q, _ in pts])
    ys = np.log([t for _, t in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def positivity_certificate(g, pmax, kmax=6, budget=DEFAULT_ENUM_BUDGET, seed=0):
    """POSITIVE when every p <= pmax has a liftable witness and s(g0) < n - 9.

    A FAILS verdict at any prime kills a local factor, hence NOT_POSITIVE;
    anything short of the full criterion stays INCONCLUSIVE.
    """
    n = g.n
    verdict = congruence_condition(g, pmax, kmax=kmax, budget=budget, seed=seed)
    failing = tuple(p for p, r in verdict.per_prime.items() if r.status == "FAILS")
    unknown = tuple(p for p, r in verdict.per_prime.items() if r.status == "UNKNOWN")
    if failing:
        return PositivityVerdict("NOT_POSITIVE", None, failing,
                                 "a local factor vanishes (insoluble prime)",
                                 verdict.witnesses)
    try:
        s_est = singular_locus_dim_Q(g.cubic_part())
    except (AmbiguityError, BudgetExceededError, InputError):
        s_est = None
    if unknown:
        return PositivityVerdict("INCONCLUSIVE", s_est, unknown,
                                 "no liftable witness found at some primes",
                                 verdict.witnesses)
    if s_est is None or s_est >= n - 9:
        return PositivityVerdict(
            "INCONCLUSIVE", s_est, (),
            "singular locus too large (or undeterminable) for the positivity criterion",
            verdict.witnesses)
    return PositivityVerdict("POSITIVE", s_est, (), "all local factors positive",
                             verdict.witnesses)

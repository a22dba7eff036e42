"""Hypersurface geometry over finite fields: singular loci and smoothness.

Dimension estimates are heuristic certificates over the tested fields only;
every report records which (p, j) were actually checked.
"""

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import AmbiguityError, BudgetExceededError, InputError
from .finitefield import (
    DEFAULT_POINT_BUDGET,
    ExtField,
    _TABLE_CAP,
    count_cone_zeros,
    is_prime,
    projective_from_affine,
)
from .generic import Poly
from .residues import eval_mod_vec, residue_chunks


@dataclass(frozen=True)
class LocusDimReport:
    p: int
    counts: dict  # j -> affine point count of the locus over F_{p^j}
    projective_counts: dict
    dim_estimate: int
    certified_nonsingular: bool

    def to_json_dict(self):
        return {
            "p": self.p,
            "affine_counts": {str(j): c for j, c in self.counts.items()},
            "projective_counts": {str(j): c for j, c in self.projective_counts.items()},
            "dim_estimate": self.dim_estimate,
            "certified_nonsingular": self.certified_nonsingular,
        }


def singular_locus_dim_mod_p(g0, p, jmax=3, budget=DEFAULT_POINT_BUDGET):
    """Estimate s_p(g0): the dimension of the singular locus of g0 = 0 over F_p.

    Counts projective solutions of grad(g0) = 0, g0 a form, over F_{p^j} for each
    feasible j <= jmax and fits the exponent d with count ~ p^{jd}; d = -1 iff every
    tested extension had only the trivial zero.
    """
    n = g0.n
    system = g0.to_generic().gradient_polys()
    active_vars = len({v for f in system for v in f.variables_used()})
    counts, proj = {}, {}
    for j in range(1, jmax + 1):
        q = p**j
        if q**active_vars > budget or (j > 1 and q > _TABLE_CAP):
            break
        fld = ExtField(p, j)
        affine = count_cone_zeros(system, fld, budget)
        counts[j] = affine
        proj[j] = projective_from_affine(affine, q)
    if not counts:
        raise BudgetExceededError(p**active_vars, budget, "singular locus enumeration")
    positive = {j: c for j, c in proj.items() if c > 0}
    if not positive:
        dim = -1
    else:
        best, best_err = 0, None
        for d in range(0, max(n - 2, 0) + 1):
            err = sum((log(c, p) - j * d) ** 2 for j, c in positive.items())
            if best_err is None or err < best_err:
                best, best_err = d, err
        dim = best
    return LocusDimReport(
        p=p,
        counts=counts,
        projective_counts=proj,
        dim_estimate=dim,
        certified_nonsingular=(dim == -1),
    )


def singular_locus_dim_Q(g0, primes=(5, 7, 11), jmax=3, budget=DEFAULT_POINT_BUDGET):
    """Heuristic s(g0) over Q: minimum of s_p over the sampled primes.

    Raises AmbiguityError when no two sampled primes agree.
    """
    from math import gcd

    content = 0
    for c in g0.cubic.values():
        content = gcd(content, c)
    for p in primes:
        if p < 5:
            raise InputError("sampled primes must be >= 5")
        if content % p == 0:
            raise InputError(f"prime {p} divides the content of the cubic part")
    per_prime = {p: singular_locus_dim_mod_p(g0, p, jmax, budget).dim_estimate for p in primes}
    values = list(per_prime.values())
    if len(primes) > 1 and len(set(values)) == len(values):
        raise AmbiguityError(per_prime)
    return min(values)


def section_smooth(g0, v, p, budget=DEFAULT_POINT_BUDGET):
    """True iff {g0 = 0, v.x = 0} is smooth as a projective intersection over F_p.

    Checked by enumerating all F_p-points of the cone and requiring the
    2 x (n) Jacobian [grad g0(x); v] to have rank 2 at each non-zero point.
    """
    n = g0.n
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    v = [int(x) % p for x in v]
    if all(x == 0 for x in v):
        raise InputError("v must be non-zero modulo p")
    if p**n > budget:
        raise BudgetExceededError(p**n, budget, "section smoothness scan")
    f = g0.to_generic()
    lin = Poly(n, {tuple(1 if i == k else 0 for i in range(n)): v[k] for k in range(n)})
    grads = f.gradient_polys()
    for X in residue_chunks(p, n, dtype=np.int32):
        mask = (eval_mod_vec(f, X, p) == 0) & (eval_mod_vec(lin, X, p) == 0)
        mask &= ~np.all(X == 0, axis=1)
        if not mask.any():
            continue
        pts = X[np.flatnonzero(mask)]
        gvals = np.stack([eval_mod_vec(g, pts, p) for g in grads])  # (n, N)
        ok = np.zeros(pts.shape[0], dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                minor = (gvals[i] * v[j] - gvals[j] * v[i]) % p
                ok |= minor != 0
        if not ok.all():
            return False
    return True


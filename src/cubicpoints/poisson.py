"""Cross-check of the weighted sum S_u(q; z) against its Poisson dual form.

Poisson summation turns the weighted lattice sum

    S_u(q; z) = sum over a coprime to q of e_q(a^{-1} u) S(a/q + z)

into q^{-n} times a sum over integer frequency vectors v of the complete sum
S_u(q; v mod q) weighted by the oscillatory integral I(z; v/q).  The weight's
Gaussian transform decays fast, so a truncation |v| <= V captures the
identity to high accuracy; both sides are computed independently here.
"""

from dataclasses import dataclass
from itertools import product

from .arch import DEFAULT_LATTICE_BUDGET, osc_integral_batch, tensor_grid_points
from .errors import InputError
from .expsums import DEFAULT_TERM_BUDGET, complete_sums, su_qz


@dataclass(frozen=True)
class PoissonReport:
    q: int
    u: int
    z: float
    V: int
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    grid_points: int  # points per axis of the integral's grid; None for separable g

    def to_json_dict(self):
        return {
            "q": self.q, "u": self.u, "z": self.z, "V": self.V,
            "lhs": {"re": self.lhs.real, "im": self.lhs.imag},
            "rhs": {"re": self.rhs.real, "im": self.rhs.imag},
            "abs_err": self.abs_err, "rel_err": self.rel_err,
            "grid_points": self.grid_points,
        }


def guided_V(ctx, q, z):
    """Truncation radius suggestion: covers the weight's spectral support."""
    import math

    P = ctx.P
    base = math.log(P) ** 7 * q * (1.0 / P + abs(z) * P**2)
    return max(2 * q, int(math.ceil(base)))


def poisson_check(g, u, q, z, ctx, V=None, budget=DEFAULT_TERM_BUDGET):
    """Both sides of the truncated Poisson identity and their discrepancy.

    `budget` bounds the lattice box, each complete sum and, capped at
    `DEFAULT_LATTICE_BUDGET`, the grid of the oscillatory integrals.
    """
    n = g.n
    if n > 3:
        raise InputError("Poisson cross-check supported for n <= 3")
    if V is None:
        V = guided_V(ctx, q, z)
    lhs = su_qz(g, u, q, z, ctx, budget)
    sums = {res.spec.v: res.value
            for res in complete_sums(g, u, q, product(range(q), repeat=n), budget)}
    vs = list(product(range(-V, V + 1), repeat=n))
    betas = [tuple(x / q for x in v) for v in vs]
    grid_budget = min(budget, DEFAULT_LATTICE_BUDGET)
    ints = osc_integral_batch(ctx, g, z, betas, grid_budget)
    rhs = complex(0.0)
    for v, I in zip(vs, ints):
        rhs += sums[tuple(x % q for x in v)] * I
    rhs /= q**n
    err = abs(lhs - rhs)
    return PoissonReport(q, u % q, float(z), V, lhs, rhs, err, err / (1.0 + abs(lhs)),
                         tensor_grid_points(ctx, g, z, betas, grid_budget))

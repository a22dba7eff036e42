"""Exact integer cubic polynomials: evaluation, calculus, substitution, JSON.

A cubic polynomial in n variables is stored in split form

    g = (cubic part) + (quadratic part) + (linear part) + constant,

with the cubic part keyed by sorted index triples (i <= j <= k, 1-based), the
quadratic part by sorted pairs, the linear part as a coefficient vector.  All
coefficients are arbitrary-precision integers.  A cubic form (the leading form
g0, or a homogenization) is the same class with empty lower parts.  Values are
immutable after construction; every operation returns a new object.
"""

import json
import operator
from itertools import product

from .errors import DegenerateSliceError, InputError
from .intlinalg import det_int


def json_int(value, what):
    """`value` if it is an integer (not a boolean), else InputError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _sorted_key(key):
    return tuple(sorted(int(i) for i in key))


def _clean(d):
    return {k: v for k, v in d.items() if v != 0}


class CubicPolynomial:
    """Integer polynomial of degree exactly 3 in n variables."""

    __slots__ = ("n", "cubic", "quad", "lin", "const")

    def __init__(self, n, cubic, quad=None, lin=None, const=0):
        n = int(n)
        if n < 1:
            raise InputError("dimension must be >= 1")
        cubic = _clean({_sorted_key(k): int(v) for k, v in dict(cubic).items()})
        quad = _clean({_sorted_key(k): int(v) for k, v in dict(quad or {}).items()})
        lin = tuple(int(x) for x in (lin or [0] * n))
        if len(lin) != n:
            raise InputError("linear part has wrong length")
        for key in cubic:
            if len(key) != 3 or not all(1 <= i <= n for i in key):
                raise InputError(f"bad cubic key {key}")
        for key in quad:
            if len(key) != 2 or not all(1 <= i <= n for i in key):
                raise InputError(f"bad quadratic key {key}")
        if not cubic:
            raise InputError("degree must be exactly 3 (cubic part vanishes)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cubic", cubic)
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "const", int(const))

    def __setattr__(self, *a):
        raise AttributeError("CubicPolynomial is immutable")

    def _key(self):
        return (
            self.n,
            tuple(sorted(self.cubic.items())),
            tuple(sorted(self.quad.items())),
            self.lin,
            self.const,
        )

    def __eq__(self, other):
        return isinstance(other, CubicPolynomial) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"CubicPolynomial(n={self.n}, {len(self.cubic)} cubic terms)"

    # -- evaluation and calculus ------------------------------------------

    def _check_point(self, x):
        if len(x) != self.n:
            raise InputError(f"point has length {len(x)}, expected {self.n}")
        try:
            return [operator.index(v) for v in x]  # numpy ints become Python ints: no wraparound
        except TypeError:  # a real point: its floats are kept, for evaluation in floats
            return [v if isinstance(v, float) else operator.index(v) for v in x]

    def eval(self, x):
        x = self._check_point(x)
        total = self.const
        for i, c in enumerate(self.lin):
            total += c * x[i]
        for (i, j), c in self.quad.items():
            total += c * x[i - 1] * x[j - 1]
        for (i, j, k), c in self.cubic.items():
            total += c * x[i - 1] * x[j - 1] * x[k - 1]
        return total

    def monomials(self):
        """(coefficient, 0-based column per factor) for each term: 5 x1^2 x3 -> (5, (0, 0, 2))."""
        out = [(c, tuple(i - 1 for i in key)) for key, c in self.cubic.items()]
        out += [(c, tuple(i - 1 for i in key)) for key, c in self.quad.items()]
        out += [(c, (i,)) for i, c in enumerate(self.lin) if c]
        if self.const:
            out.append((self.const, ()))
        return out

    def gradient(self, x):
        x = self._check_point(x)
        grad = list(self.lin)
        for (i, j), c in self.quad.items():
            grad[i - 1] += c * x[j - 1]
            grad[j - 1] += c * x[i - 1]
        for key, c in self.cubic.items():
            for m in set(key):
                rest = list(key)
                rest.remove(m)
                mult = key.count(m)
                grad[m - 1] += c * mult * x[rest[0] - 1] * x[rest[1] - 1]
        return grad

    def hessian(self, h):
        h = self._check_point(h)
        n = self.n
        m0 = [[0] * n for _ in range(n)]
        for key, c in self.cubic.items():
            # second partial d2/(dx_a dx_b) of c*x_i x_j x_k, linear in h
            for a in range(1, n + 1):
                for b in range(a, n + 1):
                    val = _second_partial(key, c, a, b, h)
                    if val:
                        m0[a - 1][b - 1] += val
                        if a != b:
                            m0[b - 1][a - 1] += val
        m1 = [[0] * n for _ in range(n)]
        for (i, j), c in self.quad.items():
            if i == j:
                m1[i - 1][i - 1] += 2 * c
            else:
                m1[i - 1][j - 1] += c
                m1[j - 1][i - 1] += c
        entries = [[m0[a][b] + m1[a][b] for b in range(n)] for a in range(n)]
        return HessianMatrix(entries=entries, base_point=tuple(h), m0=m0, m1=m1)

    # -- structure ---------------------------------------------------------

    def cubic_part(self):
        """The leading form g0, as a cubic with empty lower parts (validated once, in g)."""
        g0 = object.__new__(CubicPolynomial)
        parts = {"n": self.n, "cubic": dict(self.cubic), "quad": {}, "lin": (0,) * self.n, "const": 0}
        for name, value in parts.items():
            object.__setattr__(g0, name, value)
        return g0

    def homogenize(self):
        """g~(z, x) := z^3 g(x/z), with the homogenizing variable first (index 1)."""
        cubic = {}
        for key, c in self.cubic.items():
            cubic[_sorted_key(tuple(i + 1 for i in key))] = c
        for (i, j), c in self.quad.items():
            cubic[_sorted_key((1, i + 1, j + 1))] = cubic.get(_sorted_key((1, i + 1, j + 1)), 0) + c
        for i, c in enumerate(self.lin):
            if c:
                key = _sorted_key((1, 1, i + 2))
                cubic[key] = cubic.get(key, 0) + c
        if self.const:
            cubic[(1, 1, 1)] = cubic.get((1, 1, 1), 0) + self.const
        return CubicPolynomial(self.n + 1, cubic)

    def transform(self, M):
        """Substitution r(y) = g(M y) for a unimodular integer matrix M."""
        n = self.n
        if len(M) != n or any(len(row) != n for row in M):
            raise InputError("matrix dimension mismatch")
        if abs(det_int(M)) != 1:
            raise InputError("matrix is not unimodular")
        cubic, quad, lin, const = {}, {}, [0] * n, self.const
        for (i, j, k), c in self.cubic.items():
            ri, rj, rk = M[i - 1], M[j - 1], M[k - 1]
            for a, b, d in product(range(n), repeat=3):
                v = c * ri[a] * rj[b] * rk[d]
                if v:
                    key = _sorted_key((a + 1, b + 1, d + 1))
                    cubic[key] = cubic.get(key, 0) + v
        for (i, j), c in self.quad.items():
            ri, rj = M[i - 1], M[j - 1]
            for a, b in product(range(n), repeat=2):
                v = c * ri[a] * rj[b]
                if v:
                    key = _sorted_key((a + 1, b + 1))
                    quad[key] = quad.get(key, 0) + v
        for i, c in enumerate(self.lin):
            if c:
                for a in range(n):
                    lin[a] += c * M[i][a]
        return CubicPolynomial(n, cubic, quad, lin, const)

    def slice_at(self, c):
        """Substitute x_1 = c, returning a cubic in n-1 variables (x_2.. -> y_1..)."""
        if self.n < 2:
            raise InputError("cannot slice a 1-variable polynomial")
        c = int(c)
        n2 = self.n - 1
        cubic, quad, lin, const = {}, {}, [0] * n2, 0

        def add(idxs, coeff):
            # idxs: surviving (shifted) indices after substituting x_1 = c
            if not coeff:
                return
            nonlocal const
            if len(idxs) == 3:
                key = _sorted_key(idxs)
                cubic[key] = cubic.get(key, 0) + coeff
            elif len(idxs) == 2:
                key = _sorted_key(idxs)
                quad[key] = quad.get(key, 0) + coeff
            elif len(idxs) == 1:
                lin[idxs[0] - 1] += coeff
            else:
                const += coeff

        for key, co in list(self.cubic.items()) + list(self.quad.items()):
            ones = sum(1 for i in key if i == 1)
            rest = tuple(i - 1 for i in key if i != 1)
            add(rest, co * c**ones)
        for i, co in enumerate(self.lin):
            if i == 0:
                const += co * c
            else:
                lin[i - 1] += co
        const += self.const
        if not _clean(cubic):
            raise DegenerateSliceError(f"slice at c={c} has no cubic part left")
        return CubicPolynomial(n2, cubic, quad, lin, const)

    # -- serialization -----------------------------------------------------

    def terms(self):
        """Iterate (exponent-vector, coefficient) pairs, exponent vectors length n."""
        for key, c in sorted(self.cubic.items()):
            yield _key_to_exp(key, self.n), c
        for key, c in sorted(self.quad.items()):
            yield _key_to_exp(key, self.n), c
        for i, c in enumerate(self.lin):
            if c:
                yield _key_to_exp((i + 1,), self.n), c
        if self.const:
            yield (0,) * self.n, self.const

    def to_json_dict(self):
        """The terms in the order of `terms()`, each exponent list built from its key."""
        n = self.n
        terms = []
        for part in (self.cubic, self.quad):
            for key in sorted(part):
                e = [0] * n
                for i in key:
                    e[i - 1] += 1
                terms.append({"e": e, "c": part[key]})
        for i, c in enumerate(self.lin):
            if c:
                e = [0] * n
                e[i] = 1
                terms.append({"e": e, "c": c})
        if self.const:
            terms.append({"e": [0] * n, "c": self.const})
        return {"n": n, "terms": terms}

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_terms(cls, n, term_map):
        """Build from a map {exponent-vector: coefficient}."""
        cubic, quad, lin, const = {}, {}, [0] * n, 0
        for e, c in term_map.items():
            e = tuple(int(x) for x in e)
            if len(e) != n or any(x < 0 for x in e):
                raise InputError(f"bad exponent vector {e}")
            deg = sum(e)
            if deg > 3:
                raise InputError(f"term of degree {deg} > 3")
            key = _exp_to_key(e)
            if deg == 3:
                cubic[key] = cubic.get(key, 0) + int(c)
            elif deg == 2:
                quad[key] = quad.get(key, 0) + int(c)
            elif deg == 1:
                lin[key[0] - 1] += int(c)
            else:
                const += int(c)
        return cls(n, cubic, quad, lin, const)

    @classmethod
    def from_json_dict(cls, d):
        """Parse {"n": n, "terms": [{"e": [e1, ..., en], "c": c}, ...]}.

        n, every exponent and every coefficient must be a JSON integer (a
        float or a boolean is refused, not truncated); any other shape raises
        InputError.
        """
        if not isinstance(d, dict) or not isinstance(d.get("terms"), list):
            raise InputError('a polynomial is an object with "n" and a "terms" list')
        n = json_int(d.get("n"), "n")
        term_map = {}
        for t in d["terms"]:
            if not isinstance(t, dict) or not isinstance(t.get("e"), list):
                raise InputError('each term is an object with an "e" list and a "c"')
            e = tuple(json_int(x, "an exponent") for x in t["e"])
            if e in term_map:
                raise InputError(f"duplicate exponent vector {e}")
            term_map[e] = json_int(t.get("c"), "a coefficient")
        # checked before from_terms allocates n entries: n is as large as the input
        if {len(e) for e in term_map} != {n}:
            raise InputError(f"needs at least one term, each exponent vector of length n = {n}")
        return cls.from_terms(n, term_map)

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))

    def to_generic(self):
        from .generic import Poly

        return Poly(self.n, dict(self.terms()))


# the leading form and the homogenization are CubicPolynomials with empty lower
# parts; the old name of their class stays importable
HomogeneousCubic = CubicPolynomial


class HessianMatrix:
    """Integer matrix of second partials M(h) = M0(h) + M1 at a base point h."""

    __slots__ = ("entries", "base_point", "m0", "m1")

    def __init__(self, entries, base_point, m0, m1):
        object.__setattr__(self, "entries", tuple(tuple(r) for r in entries))
        object.__setattr__(self, "base_point", tuple(base_point))
        object.__setattr__(self, "m0", tuple(tuple(r) for r in m0))
        object.__setattr__(self, "m1", tuple(tuple(r) for r in m1))

    def __setattr__(self, *a):
        raise AttributeError("HessianMatrix is immutable")


def _second_partial(key, c, a, b, h):
    """d2/(dx_a dx_b) of the monomial c * x_i x_j x_k, evaluated at h."""
    counts = {}
    for i in key:
        counts[i] = counts.get(i, 0) + 1
    ea = counts.get(a, 0)
    if a == b:
        if ea < 2:
            return 0
        mult = ea * (ea - 1)
        rest = [i for i in key if i != a] + [a] * (ea - 2)
    else:
        eb = counts.get(b, 0)
        if ea == 0 or eb == 0:
            return 0
        mult = ea * eb
        rest = list(key)
        rest.remove(a)
        rest.remove(b)
    val = c * mult
    for i in rest:
        val *= h[i - 1]
    return val


def _key_to_exp(key, n):
    e = [0] * n
    for i in key:
        e[i - 1] += 1
    return tuple(e)


def _exp_to_key(e):
    key = []
    for i, x in enumerate(e):
        key.extend([i + 1] * x)
    return tuple(key)


def watson_polynomial(n):
    """The classical insoluble-but-locally-soluble example
    (2x_1 - 1)(1 + x_1^2 + ... + x_n^2) + x_1 x_2, for n >= 2."""
    if n < 2:
        raise InputError("needs n >= 2")
    cubic = {(1, 1, 1): 2}
    quad = {(1, 1): -1}
    lin = [0] * n
    lin[0] = 2
    for i in range(2, n + 1):
        cubic[_sorted_key((1, i, i))] = 2
        quad[_sorted_key((i, i))] = -1
    quad[(1, 2)] = quad.get((1, 2), 0) + 1
    return CubicPolynomial(n, cubic, quad, lin, -1)

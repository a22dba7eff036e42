"""Kernels over Z/q shared by the exponential sums, the p-adic search, the
singular series and the finite-field counts.

Every polynomial, split-form `CubicPolynomial` or generic `Poly`, reaches
these kernels through one monomial list: (coefficient, column indices) per
term, with x_1^2 x_3 as columns (0, 0, 2).  Arithmetic is int64 whatever the
dtype of the grid, so int32 index grids of finite fields evaluate exactly
for every modulus below 2^31.
"""

from itertools import compress, product
from math import prod

import numpy as np

from .generic import Poly

_CHUNK = 1 << 20
GRID_BLOCK = 1 << 18  # rows of the largest block of `grid_values`


def residue_chunks(q, m, chunk=_CHUNK, dtype=np.int64):
    """Yield arrays of shape (N, m) covering (Z/q)^m lexicographically."""
    inner = m
    while inner > 0 and q**inner > chunk:
        inner -= 1
    inner_count = q**inner
    grid = np.empty((inner_count, m), dtype=dtype)
    rem = np.arange(inner_count)
    for i in range(inner - 1, -1, -1):
        grid[:, m - inner + i] = rem % q
        rem //= q
    if inner == m:
        yield grid
        return
    for outer in product(range(q), repeat=m - inner):
        block = grid.copy()
        for i, val in enumerate(outer):
            block[:, i] = val
        yield block


def eval_mod_vec(g, X, q):
    """g(X) mod q as int64 at the rows of X (entries in [0, q)).

    g is a `CubicPolynomial` or a `Poly`.  Every term is reduced below q^2,
    so the running sum is reduced only as often as int64 requires.
    """
    batch = max(1, 2**62 // (q * q))
    acc = np.zeros(X.shape[0], dtype=np.int64)
    for count, (c, cols) in enumerate(g.monomials(), 1):
        c %= q
        if not c:
            continue
        if cols:
            term = X[:, cols[0]]
            for col in cols[1:]:
                term = np.multiply(term, X[:, col], dtype=np.int64)
                term %= q
            c = np.multiply(term, c, dtype=np.int64)
        acc += c
        if count % batch == 0:
            acc %= q
    return acc % q


def grid_values(polys, q, side):
    """B polynomials mod q on the chunks of `residue_chunks(side, m, GRID_BLOCK)`, as (B, rows).

    `polys` lists polynomials in m variables, or is an array V (B, m) of linear
    forms v.y.  A block fixes the leading variables x' of g = sum x'^a h_a(y);
    each h_a is evaluated on the grid of y once.  A block may be read-only.
    """
    if isinstance(polys, np.ndarray):
        (B, m), C = polys.shape, polys % q
        keys = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    else:
        terms = [f.to_generic().terms for f in polys]
        B, m, keys = len(polys), polys[0].n, list(set().union(*terms))
        C = np.array([[f.get(e, 0) % q for e in keys] for f in terms], dtype=np.int64)
    k = next(k for k in range(m, -1, -1) if k == 0 or side**k <= GRID_BLOCK)  # y: the last k
    groups = {}  # leading exponents a -> {exponents of y: coefficients of h_a}, none all zero
    for e, c in compress(zip(keys, C.T), C.any(axis=0)):
        groups.setdefault(e[:m - k], {})[e[m - k:]] = c
    H = {a: _horner_grid(h, q, np.arange(side, dtype=np.int64)) for a, h in groups.items()}
    H = {a: h % q if top > q else h for a, (h, top) in H.items()}
    base, wide = H.pop((0,) * (m - k), 0), len(H) * q * q >= 2**62
    for lead in product(range(side), repeat=m - k):
        acc = base
        for a, h in H.items():
            c = prod(map(pow, lead, a)) % q
            if c:
                acc = (acc + c * h) % q if wide else acc + c * h
        yield np.broadcast_to(acc if acc is base else acc % q, (B,) + (side,) * k).reshape(B, -1)


def _horner_grid(terms, q, t):
    """(values, top): sum of terms[e] y^e on the grid t^k, = mod q, in [0, top < 2^62 / len(t)).

    `terms` maps k-tuples of exponents to (B,) coefficients in [0, q).  Horner in
    the last variable runs over its non-empty layers, each evaluated the same
    way; the values have shape (B,) + k axes, of length 1 where they are constant.
    """
    if () in terms:
        return terms[()], q
    layers = {}
    for e, c in terms.items():
        layers.setdefault(e[-1], {})[e[:-1]] = c
    acc, top = None, 0
    for d in range(max(layers), -1, -1):
        if acc is not None:
            acc, top = acc * t, top * len(t)
        if d in layers:
            layer, ltop = _horner_grid(layers[d], q, t)
            acc, top = layer[..., None] if acc is None else acc + layer[..., None], top + ltop
        if top * len(t) >= 2**62:
            acc, top = acc % q, q
    return acc, top


def zero_count(g, chunks, q):
    """#{rows x of the chunks : g(x) = 0 mod q}."""
    return sum(int(np.count_nonzero(eval_mod_vec(g, X, q) == 0)) for X in chunks)


def drop_unused(polys, q):
    """Restrict polynomials to the variables that matter mod q.

    Returns (restricted Polys, kept 0-based variable indices).  Terms with a
    coefficient divisible by q are left out, so every restricted polynomial
    agrees with its original mod q, and a count over (Z/q)^n is the count
    over the kept variables times q per dropped one.
    """
    kept = [[(c, cols) for c, cols in f.monomials() if c % q] for f in polys]
    used = sorted({i for terms in kept for _, cols in terms for i in cols})
    out = [Poly(len(used), {tuple(cols.count(i) for i in used): c for c, cols in terms})
           for terms in kept]
    return out, used


def cyclic_convolve(h1, h2):
    """Histogram of a + b for independent a ~ h1, b ~ h2 on one shape (Z/q1 x Z/q2 x ...).

    h1 is rolled over every axis to each non-zero cell of h2, so pass the
    sparser histogram as h2.
    """
    out = np.zeros(h1.shape, dtype=np.int64)
    axes = tuple(range(h1.ndim))
    for b in zip(*np.nonzero(h2)):
        out += np.roll(h1, b, axis=axes) * int(h2[b])
    return out


def valuation_histogram(g, chunks, p, e):
    """hist[v] = #{rows x : min(val_p(g(x)), e) = v} over every chunk of rows."""
    hist = np.zeros(e + 1, dtype=np.int64)
    for X in chunks:
        cur = eval_mod_vec(g, X, p**e)
        v = np.zeros(cur.shape[0], dtype=np.int64)
        for _ in range(e):
            step = cur % p == 0
            v += step
            cur = np.where(step, cur // p, cur)
        # g(x) = 0 mod p^e ends at exactly v = e, the cap
        hist += np.bincount(v, minlength=e + 1)
    return hist

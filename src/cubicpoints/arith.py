"""Small multiplicative number theory helpers."""

from .errors import InputError


def factorize(q):
    """Prime factorization as a dict {p: exponent}, trial division."""
    q = int(q)
    if q < 1:
        raise InputError("modulus must be positive")
    out = {}
    d = 2
    while d * d <= q:
        while q % d == 0:
            out[d] = out.get(d, 0) + 1
            q //= d
        d += 1 if d == 2 else 2
    if q > 1:
        out[q] = out.get(q, 0) + 1
    return out


def euler_phi(q):
    phi = 1
    for p, e in factorize(q).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def omega(q):
    """Number of distinct prime factors."""
    return len(factorize(q))


def is_squarefull(q):
    return all(e >= 2 for e in factorize(q).values()) if q > 1 else True


def val_p(m, p):
    """p-adic valuation; None stands for infinity (m = 0)."""
    if m == 0:
        return None
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def ramanujan_prime_power(p, e, m):
    """Ramanujan sum c_{p^e}(m) = sum over units t mod p^e of e_{p^e}(t m)."""
    if e == 0:
        return 1
    v = val_p(m, p)
    if v is None or v >= e:
        return (p - 1) * p ** (e - 1)
    if v == e - 1:
        return -(p ** (e - 1))
    return 0

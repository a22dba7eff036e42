import dataclasses
import tracemalloc
from unittest import mock

import pytest

from cubicpoints import finitefield, slicing
from cubicpoints.errors import SearchFailureError
from cubicpoints.finitefield import ExtField, count_affine_zeros
from cubicpoints.slicing import (SliceCertificate, find_good_hyperplane,
                                 slice_count_identity,
                                 slice_step, verify_certificate)


@pytest.fixture(scope="module")
def corpus():
    from cubicpoints.polynomials import CubicPolynomial

    n = 7
    terms = {tuple(3 if j == i else 0 for j in range(n)): 1 for i in range(5)}
    terms[tuple(1 if j == 5 else 0 for j in range(n))] = 1
    terms[tuple(1 if j == 6 else 0 for j in range(n))] = 2
    terms[(0,) * n] = 1
    return CubicPolynomial.from_terms(n, terms)


@pytest.fixture(scope="module")
def cert(corpus):
    return slice_step(corpus, primes=(5, 7, 11), pmax=20, kmax=4, seed=0)


import math


def test_hyperplane_is_primitive(corpus):
    a = find_good_hyperplane(corpus.cubic_part(), seed=0)
    assert math.gcd(*a) == 1


def test_slice_step_certificate(corpus, cert):
    assert cert.s_before == 1
    assert cert.s_after == 0
    assert set(cert.primes) == {5, 7, 11}
    assert cert.result.n == corpus.n - 1


def test_certificate_verifies(corpus, cert):
    res = verify_certificate(cert, corpus)
    assert bool(res)
    assert res.reasons == ()


def test_certificate_json_round_trip(corpus, cert):
    rt = SliceCertificate.from_json_dict(cert.to_json_dict())
    assert bool(verify_certificate(rt, corpus))


@pytest.mark.parametrize("field,delta", [("c", 1), ("s_after", 1)])
def test_tampered_certificate_rejected(corpus, cert, field, delta):
    bad = dataclasses.replace(cert, **{field: getattr(cert, field) + delta})
    res = verify_certificate(bad, corpus)
    assert not bool(res)
    assert res.reasons


def test_tampered_matrix_rejected(corpus, cert):
    M = [list(r) for r in cert.M]
    M[1][0] += 1  # still det 1? not necessarily -- verifier must complain either way
    bad = dataclasses.replace(cert, M=tuple(tuple(r) for r in M))
    assert not bool(verify_certificate(bad, corpus))


def test_count_identity_exact(cert):
    rep = slice_count_identity(cert.result, 7)
    assert rep.ok
    assert rep.N * 6 == rep.N1 - rep.N2


@pytest.mark.parametrize("p", [3, 5])
def test_count_identity_stays_three_direct_scans(cert, p):
    # N1 charted on the homogenizing variable would be h^(c) itself: nothing left to check
    charted = AssertionError("a slice count went through projective charts")
    with mock.patch.object(finitefield, "count_cone_zeros", side_effect=charted), \
            mock.patch.object(slicing, "count_cone_zeros", side_effect=charted, create=True):
        rep = slice_count_identity(cert.result, p)
    assert rep.ok


def test_slice_count_scan_memory_is_bounded(cert):
    F = cert.result.homogenize().to_generic()
    assert F.n == 7 and not F.is_separable()  # a full scan of 7^7 points
    fld = ExtField(7)
    tracemalloc.start()
    try:
        count_affine_zeros(F, fld)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_nonsingular_input_rejected():
    from cubicpoints.errors import InputError
    from cubicpoints.polynomials import CubicPolynomial

    # a smooth form has s = -1: there is nothing left to slice away
    g = CubicPolynomial.from_terms(
        3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    with pytest.raises(InputError):
        slice_step(g, primes=(5, 7), trials=5, seed=0)

import pytest

from conftest import diag_cubic
from cubicpoints.arch import ArchContext, find_x0
from cubicpoints.errors import InputError
from cubicpoints.poisson import guided_V, poisson_check
from cubicpoints.polynomials import CubicPolynomial


def test_identity_one_variable():
    g = CubicPolynomial.from_terms(1, {(3,): 1})
    ctx = ArchContext.create(8.0, (1.0,))
    rep = poisson_check(g, 1, 2, 1e-3, ctx, V=8)
    assert rep.rel_err < 1e-9


def test_identity_two_variables():
    g = diag_cubic(2)
    ctx = ArchContext.create(8.0, (1.0, -1.0))
    for q, u, z in [(3, 1, 1e-4), (5, 0, 0.0), (2, 1, 1e-3)]:
        rep = poisson_check(g, u, q, z, ctx, V=4 * q)
        assert rep.abs_err <= 1e-6 * (1 + abs(rep.lhs))


def test_guided_V_floor():
    ctx = ArchContext.create(8.0, (1.0, -1.0))
    assert guided_V(ctx, 5, 0.0) >= 10
    assert guided_V(ctx, 3, 1e-3) >= guided_V(ctx, 3, 0.0)


def test_rejects_large_dimension():
    g = diag_cubic(4)
    ctx = ArchContext.create(8.0, (1.0, -1.0, 1.0, -1.0))
    with pytest.raises(InputError):
        poisson_check(g, 0, 2, 0.0, ctx)


MIXED3 = CubicPolynomial.from_terms(  # x^3 + y^3 + z^3 + xy - 2
    3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 0): 1, (0, 0, 0): -2})


@pytest.mark.parametrize("g,q", [
    (CubicPolynomial.from_terms(2, {(3, 0): 1, (0, 3): 1, (1, 1): 1, (0, 0): 1}), 3),
    (MIXED3, 2)], ids=["mixed2", "mixed3"])
@pytest.mark.parametrize("z", [0.0, 1e-4])
def test_poisson_identity_for_non_separable_cubics(g, q, z):
    ctx = find_x0(g.cubic_part(), 8, seed=0)
    rep = poisson_check(g, 1, q, z, ctx, V=4 * q)
    assert rep.rel_err <= 1e-3

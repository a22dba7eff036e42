import importlib.util
from itertools import product
from pathlib import Path
from unittest import mock

import pytest

from conftest import deligne_defect, diag_cubic
from cubicpoints import finitefield, geometry
from cubicpoints.errors import AmbiguityError, InputError
from cubicpoints.finitefield import count_zeros_system
from cubicpoints.geometry import (section_smooth, singular_locus_dim_Q,
                                  singular_locus_dim_mod_p)
from cubicpoints.polynomials import CubicPolynomial


def fermat_form(m):
    return CubicPolynomial.from_terms(
        m, {tuple(3 if j == i else 0 for j in range(m)): 1 for i in range(m)})


def test_smooth_diagonal_has_empty_singular_locus():
    g0 = fermat_form(3)
    for p in (5, 7, 11):
        rep = singular_locus_dim_mod_p(g0, p)
        assert rep.dim_estimate == -1


def test_cone_raises_dimension():
    # x1^3 viewed in 3 variables: singular locus is the plane x1 = 0
    g0 = CubicPolynomial.from_terms(3, {(3, 0, 0): 1})
    rep = singular_locus_dim_mod_p(g0, 7)
    assert rep.dim_estimate == 1


def test_embedded_fermat_dimension():
    # x1^3+...+x5^3 in 7 variables: singular locus is a line in P^6
    n = 7
    g0 = CubicPolynomial.from_terms(
        n, {tuple(3 if j == i else 0 for j in range(n)): 1 for i in range(5)})
    for p in (5, 7, 11):
        assert singular_locus_dim_mod_p(g0, p, jmax=2).dim_estimate == 1


def _benchmark_corpus():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("benchmark_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.all_polys()


@pytest.mark.parametrize("name", ["seven", "slice7k5_0", "slice7k5_1", "slice7k5_2", "slice7k4_0",
                                  "slice7k4_1", "slice7k4_2", "dense3_0", "dense3_1", "diag3"])
def test_probe_on_charts_reports_what_the_direct_scan_does(name):
    poly = _benchmark_corpus()[name]
    g0 = CubicPolynomial.from_terms(poly["n"], poly["terms"]).cubic_part()
    # a budget of 10^7 keeps F_25 on 5 variables and leaves out the direct scan of F_343^3
    for p, jmax in product((5, 7, 11), (2, 3)):
        got = singular_locus_dim_mod_p(g0, p, jmax, budget=10**7)
        with mock.patch.object(geometry, "count_cone_zeros", count_zeros_system):
            assert singular_locus_dim_mod_p(g0, p, jmax, budget=10**7) == got


def test_probe_scans_charts_not_the_whole_space(seven_var_corpus):
    rows = {}
    scan = finitefield.residue_chunks

    def counted(q, m, *args, **kwargs):
        for X in scan(q, m, *args, **kwargs):
            rows[q] = rows.get(q, 0) + X.shape[0]
            yield X

    with mock.patch.object(finitefield, "residue_chunks", counted):
        rep = singular_locus_dim_mod_p(seven_var_corpus.cubic_part(), 5, jmax=2)
    assert 2 in rep.counts
    assert 0 < rows[25] <= 25**4 * 25 / 24  # the direct scan takes 25^5 rows


def test_dim_over_Q_consistent():
    assert singular_locus_dim_Q(fermat_form(3)) == -1


def test_dim_over_Q_rejects_bad_prime():
    g0 = CubicPolynomial.from_terms(2, {(3, 0): 5, (0, 3): 5})
    with pytest.raises(InputError):
        singular_locus_dim_Q(g0, primes=(5,))


def test_section_smooth_requires_nonzero_v():
    with pytest.raises(InputError):
        section_smooth(fermat_form(3), (0, 0, 0), 7)


def test_section_smooth_diagonal():
    g0 = fermat_form(3)
    # the tangent line at the curve point (0, 1, 3) mod 7 meets it doubly
    assert not section_smooth(g0, (0, 1, 2), 7)
    # a coordinate plane meets the diagonal curve in 3 distinct points
    assert section_smooth(g0, (1, 0, 0), 7)


def test_deligne_defect_smooth_fermat_small():
    F = fermat_form(3).cubic_part()
    for p in (7, 13):
        assert deligne_defect(F, p, 1, -1) <= 4.0


def test_deligne_defect_rejects_bad_degree_prime():
    with pytest.raises(InputError):
        deligne_defect(fermat_form(3).cubic_part(), 3, 1, -1)

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cubicpoints
from cubicpoints.errors import InputError
from cubicpoints.intlinalg import (complete_unimodular, crt_list, crt_pair,
                                   det_int, inverse_unimodular,
                                   rank_int, smith_diagonal, xgcd)


def test_det_matches_numpy(rng):
    for _ in range(30):
        n = int(rng.integers(1, 6))
        M = rng.integers(-5, 6, size=(n, n)).tolist()
        assert det_int(M) == round(np.linalg.det(np.array(M, dtype=float)))


def test_rank_matches_numpy(rng):
    for _ in range(30):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        M = rng.integers(-3, 4, size=(n, m)).tolist()
        assert rank_int(M) == np.linalg.matrix_rank(np.array(M, dtype=float))


def test_rank_degenerate_rows():
    assert rank_int([[1, 2], [2, 4]]) == 1
    assert rank_int([[0, 0], [0, 0]]) == 0


def test_inverse_unimodular(rng):
    M = [[1, 2, 3], [0, 1, 4], [0, 0, 1]]
    inv = inverse_unimodular(M)
    prod = np.array(M) @ np.array(inv)
    assert (prod == np.eye(3, dtype=int)).all()
    with pytest.raises(InputError):
        inverse_unimodular([[2, 0], [0, 1]])


def test_smith_diagonal_chain_and_determinant(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        M = rng.integers(-6, 7, size=(n, n)).tolist()
        d = smith_diagonal(M)
        for a, b in zip(d, d[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        det = abs(det_int(M))
        if det:
            assert math.prod(d) == det
        else:
            assert len(d) == rank_int(M)


def test_smith_diagonal_known():
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]


def test_xgcd_and_invmod(rng):
    for _ in range(50):
        a = int(rng.integers(-100, 100))
        b = int(rng.integers(-100, 100))
        g, x, y = xgcd(a, b)
        assert abs(g) == math.gcd(a, b)
        assert a * x + b * y == g


def test_crt(rng):
    r, m = crt_pair(2, 3, 3, 5)
    assert m == 15 and r % 3 == 2 and r % 5 == 3
    x, m = crt_list([1, 2, 3], [5, 7, 9])
    assert m == 315
    assert x % 5 == 1 and x % 7 == 2 and x % 9 == 3
    with pytest.raises(InputError):
        crt_pair(1, 4, 0, 6)  # moduli not coprime


def test_complete_unimodular(rng):
    for _ in range(30):
        n = int(rng.integers(2, 6))
        a = rng.integers(-9, 10, size=n)
        g = math.gcd(*[int(x) for x in a])
        if g == 0:
            continue
        a = [int(x) // g for x in a]
        M = complete_unimodular(a)
        assert list(M[0]) == list(a)
        assert abs(det_int([list(r) for r in M])) == 1


_BROKEN_COMPLETION = """
from unittest import mock
from cubicpoints import intlinalg
with mock.patch.object(intlinalg, "det_int", return_value=0):
    intlinalg.complete_unimodular([2, 3])
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_completion_check_survives_optimized_mode(flags):
    src = str(Path(cubicpoints.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, *flags, "-c", _BROKEN_COMPLETION],
                       capture_output=True, text=True, env={"PYTHONPATH": src})
    assert r.returncode == 1
    assert "RuntimeError: unimodular completion failed internally" in r.stderr

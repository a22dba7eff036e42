import contextlib
import copy
import io
import json
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import diag_cubic, oracle_histogram, random_cubic
from cubicpoints.cli import run
from cubicpoints.expsums import ExpSumSpec, _roots_of_unity, complete_sum
from cubicpoints.finitefield import primes_upto
from cubicpoints.geometry import section_smooth
from cubicpoints.polynomials import CubicPolynomial, watson_polynomial


@pytest.fixture
def poly_file(tmp_path):
    def write(g, name="g.json"):
        path = tmp_path / name
        path.write_text(g.to_json())
        return str(path)

    return write


def test_trivial_modulus_expsum(poly_file, capsys):
    path = poly_file(diag_cubic(2))
    code = run(["expsum", "-f", path, "-q", "1", "--deterministic"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == {"re": 1.0, "im": 0.0}


def test_expsum_flags(poly_file, capsys):
    path = poly_file(diag_cubic(2, const=1))
    code = run(["expsum", "-f", path, "-q", "6", "-u", "1", "-v", "1,2",
                "--deterministic"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["spec"] == {"n": 2, "q": 6, "u": 1, "v": [1, 2]}
    assert out["method"] == "crt"


def test_missing_file_is_input_error(capsys):
    assert run(["expsum", "-f", "/nonexistent.json", "-q", "2"]) == 1


def test_bad_subcommand_is_input_error():
    assert run(["frobnicate"]) == 1
    assert run([]) == 1


def test_budget_exceeded_exit_code(poly_file):
    path = poly_file(diag_cubic(3))
    assert run(["expsum", "-f", path, "-q", "97", "-u", "1",
                "--budget", "100"]) == 2


def test_insoluble_congruence_exits_3(poly_file, capsys):
    g = CubicPolynomial.from_terms(1, {(3,): 1, (0,): 49})
    path = poly_file(g)
    code = run(["congruence", "-f", path, "--pmax", "10", "--deterministic"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["overall"] == "FAILS"


def test_soluble_congruence_exits_0(poly_file, capsys):
    g = CubicPolynomial.from_terms(2, {(3, 0): 1, (0, 3): 1, (1, 0): 1,
                                       (0, 0): 4})
    path = poly_file(g)
    assert run(["congruence", "-f", path, "--pmax", "20",
                "--deterministic"]) == 0


def test_analyze_warns_on_watson_shape(poly_file, capsys):
    path = poly_file(watson_polynomial(2))
    code = run(["analyze", "-f", path, "--deterministic"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["s_estimate"] == -1  # equals n - 3 for n = 2
    assert any("insolubility" in w for w in out["warnings"])


def test_deterministic_output_byte_identical(poly_file, capsys):
    path = poly_file(diag_cubic(2, const=1))
    argv = ["series", "-f", path, "--Qmax", "8", "--pmax", "7",
            "--deterministic"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_series_csv(poly_file, capsys):
    path = poly_file(diag_cubic(2, const=1))
    code = run(["series", "-f", path, "--Qmax", "5", "--csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[0] == "q,term"
    assert len(lines) == 6


def test_count_csv(poly_file, capsys):
    path = poly_file(diag_cubic(2, const=-2))
    code = run(["count", "-f", path, "-P", "8,16", "--Qmax", "5", "--csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[0] == "P,N_weighted,main_term,ratio"
    assert len(lines) == 3


def test_poisson_command(poly_file, capsys):
    path = poly_file(diag_cubic(2))
    code = run(["poisson", "-f", path, "-q", "3", "-u", "1", "-z", "0.0001",
                "-P", "8", "--deterministic"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["abs_err"] <= 1e-3 * (1 + abs(out["lhs"]["re"]))


def test_poisson_budget_bounds_the_integral_grid(poly_file, mixed2, capsys):
    path = poly_file(mixed2)
    cmd = ["poisson", "-f", path, "-q", "3", "-u", "1", "--deterministic"]
    assert run(cmd) == 0
    default = json.loads(capsys.readouterr().out)
    assert run(cmd + ["--budget", "500"]) == 0
    coarse = json.loads(capsys.readouterr().out)
    # the lattice side fits in 500 points either way; only the grid is coarser
    assert coarse["lhs"] == default["lhs"]
    assert coarse["rhs"] != default["rhs"]
    assert coarse["grid_points"] == 22  # isqrt(500)


def test_poisson_reports_the_integral_grid(poly_file, capsys):
    # n = 3 always coarsens the grid: 4096^3 points never fit the default budget of 2 * 10^7
    mixed3 = CubicPolynomial.from_terms(
        3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 0): 1, (0, 0, 0): -2})
    assert run(["poisson", "-f", poly_file(mixed3), "-q", "2", "-u", "1", "--deterministic"]) == 0
    assert json.loads(capsys.readouterr().out)["grid_points"] == 271
    # separable: per-axis quadratures, no tensor grid
    assert run(["poisson", "-f", poly_file(diag_cubic(3, const=-2), "diag3.json"),
                "-q", "3", "-u", "1", "--deterministic"]) == 0
    assert json.loads(capsys.readouterr().out)["grid_points"] is None


def test_expsum_past_int64_keeps_an_exact_histogram(poly_file, capsys):
    # phi(9) 9^20 = 72,945,992,754,341,572,806 > 2^63: the scaling by 9^17 for the
    # dropped variables must not wrap around
    g = diag_cubic(3, const=1)
    g = CubicPolynomial.from_terms(20, {e + (0,) * 17: c for e, c in g.to_generic().terms.items()})
    code = run(["expsum", "-f", poly_file(g), "-q", "9", "-u", "1",
                "--budget", str(10**20), "--deterministic"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert sum(out["histogram"]) == out["terms"] == 6 * 9**20


@pytest.mark.parametrize("n,q", [(3, 81), (4, 25)])
def test_expsum_histograms_at_prime_powers_match_the_direct_scan(poly_file, capsys, n, q):
    rng = np.random.default_rng(q)
    g = random_cubic(rng, n)  # coefficients in [-3, 3]: its cubic part stays non-zero mod q
    v = tuple(int(x) for x in rng.integers(0, q, size=n))
    for u in (0, 1):
        code = run(["expsum", "-f", poly_file(g), "-q", str(q), "-u", str(u),
                    "-v", ",".join(map(str, v)), "--deterministic"])
        out = json.loads(capsys.readouterr().out)
        hist = oracle_histogram(ExpSumSpec(g, u, q, v))
        value = complex(np.dot(hist, _roots_of_unity(q)))
        assert code == 0
        assert out["value"] == {"re": value.real, "im": value.imag}
        if q <= 64:  # the histogram is printed up to q = 64
            assert out["histogram"] == list(hist)


def test_slice_produce_and_verify(tmp_path, seven_var_corpus, capsys):
    path = tmp_path / "g7.json"
    path.write_text(seven_var_corpus.to_json())
    cert_path = tmp_path / "cert.json"
    code = run(["slice", "-f", str(path), "--pmax", "20", "--kmax", "4",
                "--deterministic"])
    cert_json = capsys.readouterr().out
    assert code == 0
    cert_path.write_text(cert_json)
    code = run(["slice", "-f", str(path), "--verify", str(cert_path),
                "--deterministic"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["ok"] is True
    # tampering flips the exit code to the negative-verdict value
    blob = json.loads(cert_json)
    blob["c"] += 1
    cert_path.write_text(json.dumps(blob))
    code = run(["slice", "-f", str(path), "--verify", str(cert_path),
                "--deterministic"])
    capsys.readouterr()
    assert code == 3


def test_negative_bounds_rejected(poly_file):
    path = poly_file(diag_cubic(2))
    assert run(["congruence", "-f", path, "--pmax", "-3"]) == 1


def _bounds_sweeps_one_frequency_at_a_time(g, pmax, seed=0):
    """The prime sweeps and smooth-section sums of `cubic bounds`, one complete_sum per v."""
    n = g.n
    rng = np.random.default_rng(seed)
    ratio_sweep, dichotomy = [], []
    for p in [p for p in primes_upto(pmax) if p % 2 and p % 3]:
        worst = 0.0
        for u in (1, 2):
            for _ in range(min(50, p**n)):
                v = tuple(int(x) for x in rng.integers(0, p, size=n))
                val = abs(complete_sum(ExpSumSpec(g, u, p, v)).value)
                worst = max(worst, val / p ** ((n + 1) / 2))
        ratio_sweep.append({"p": p, "max_ratio": worst, "ok": worst <= 10.0})
        smooth_worst = 0.0
        for _ in range(min(20, p**n)):
            v = tuple(int(x) for x in rng.integers(0, p, size=n))
            if any(x % p for x in v) and section_smooth(g.cubic_part(), v, p):
                val = abs(complete_sum(ExpSumSpec(g, 0, p, v)).value)
                smooth_worst = max(smooth_worst, val / p ** ((n + 1) / 2))
        dichotomy.append({"p": p, "max_smooth_ratio": smooth_worst, "ok": smooth_worst <= 10.0})
    return ratio_sweep, dichotomy


def _box_total_one_frequency_at_a_time(g, q, V):
    return sum(abs(complete_sum(ExpSumSpec(g, 1, q, v)).value)
               for v in product(range(-V, V + 1), repeat=g.n))


@pytest.mark.parametrize("g", [
    CubicPolynomial.from_terms(2, {(3, 0): 1, (0, 3): 1, (1, 1): 1, (0, 0): 1}),
    random_cubic(np.random.default_rng(3), 2),
], ids=["mixed2", "dense2"])
def test_bounds_sweeps_match_sums_taken_one_frequency_at_a_time(poly_file, capsys, g):
    code = run(["bounds", "-f", poly_file(g), "--pmax", "13", "--deterministic"])
    out = json.loads(capsys.readouterr().out)
    ratio_sweep, dichotomy = _bounds_sweeps_one_frequency_at_a_time(g, 13)
    assert out["prime_ratio_sweep"] == ratio_sweep
    assert out["smooth_section_dichotomy"] == dichotomy
    assert [r["q"] for r in out["square_full_envelope"]] == [25, 49, 121]
    for rep in out["square_full_envelope"]:
        assert rep["total"] == _box_total_one_frequency_at_a_time(g, rep["q"], 2)
    ok = all(r["ok"] for r in ratio_sweep + dichotomy + out["square_full_parts"])
    assert code == (0 if ok else 3)


def test_poisson_beyond_int64_is_input_error(poly_file, capsys):
    g = CubicPolynomial.from_terms(2, {(3, 0): 1, (0, 3): 1, (1, 0): 10**18})
    code = run(["poisson", "-f", poly_file(g), "-q", "5", "-u", "1", "-P", "8",
                "--deterministic"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "int64" in captured.err


def test_slice_witness_transfer_failure_exits_3(poly_file, capsys, monkeypatch):
    import cubicpoints.slicing as slicing

    monkeypatch.setattr(slicing, "_witness_transfers", lambda hc, data: False)
    # x1^3 + x2^3 + x3^3 + x4 + 1: singular locus of the cubic part is a point
    g = CubicPolynomial.from_terms(4, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1,
                                       (0, 0, 3, 0): 1, (0, 0, 0, 1): 1,
                                       (0, 0, 0, 0): 1})
    code = run(["slice", "-f", poly_file(g), "--pmax", "20", "--kmax", "4",
                "--deterministic"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert "failed to transfer" in out["error"]


# -- the exit-code contract under malformed JSON input ----------------------

_POLY = {"n": 2, "terms": [{"e": [3, 0], "c": 1}, {"e": [0, 3], "c": 2}]}
# a certificate for diag_cubic(3), well typed, whose claims fail independently
# in per_prime (modulus 7 is not 5^1) and in the recounts at the primes
# (s_before = s_after = 0), so that no single mutation makes it verify
_CERT = {
    "a": [1, 0, 0], "M": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "c": 0,
    "s_before": 0, "s_after": 0, "primes": [5],
    "per_prime": {"5": {"p": 5, "k": 0, "modulus": 7, "z1": 0,
                        "witness": {"p": 5, "k": 1, "x": [0, 0, 0], "grad_val": 0,
                                    "grad_prime_val": 0}}},
    "result": diag_cubic(2).to_json_dict(),
}
_DELETE = object()


def _nodes(doc, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _nodes(value, path + (key,))


def _with(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _wrong_type(value):
    """JSON values of another type than `value`; a float or a bool is not an integer."""
    options = [st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3)]
    if not isinstance(value, list):
        options.append(st.lists(st.integers(-2, 9), max_size=3))
    if not isinstance(value, dict):
        options.append(st.dictionaries(st.text(max_size=2), st.integers(-2, 9), max_size=2))
    if isinstance(value, (list, dict)):
        options.append(st.integers())
    return st.one_of(options)


@st.composite
def _malformed(draw, base, any_int):
    """File text: not JSON, or `base` with one node retyped or one key deleted;
    with `any_int`, also an integer leaf set to any integer."""
    kind = draw(st.sampled_from(["text", "retype", "delete"] + ["integer"] * any_int))
    if kind == "text":
        return draw(st.text(max_size=20))
    nodes = list(_nodes(base))
    if kind == "delete":
        path = draw(st.sampled_from([p for p, _ in nodes if p and isinstance(p[-1], str)]))
        return json.dumps(_with(base, path, _DELETE))
    if kind == "integer":
        path = draw(st.sampled_from([p for p, v in nodes if type(v) is int]))
        return json.dumps(_with(base, path, draw(st.integers())))
    path, value = draw(st.sampled_from(nodes))
    return json.dumps(_with(base, path, draw(_wrong_type(value))))


def _run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return run(argv), err.getvalue()


@given(_malformed(_POLY, any_int=False))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_polynomial_json_is_an_input_error(tmp_path, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    code, err = _run_quietly(["expsum", "-f", str(path), "-q", "5", "--deterministic"])
    assert code == 1 and err.startswith("input error:"), (text, err)


@given(_malformed(_CERT, any_int=True))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_certificate_exits_with_a_documented_code(tmp_path, text):
    g_path, cert_path = tmp_path / "g.json", tmp_path / "cert.json"
    g_path.write_text(diag_cubic(3).to_json())
    cert_path.write_text(text)
    code, err = _run_quietly(["slice", "-f", str(g_path), "--verify", str(cert_path),
                              "--deterministic"])
    assert code in (1, 2, 3), (text, err)


def test_wrong_length_witness_is_a_failed_verdict(tmp_path, capsys):
    cert = _with(_CERT, ("per_prime", "5", "modulus"), 5)
    cert = _with(cert, ("per_prime", "5", "witness", "x"), [0, 0])
    g_path, cert_path = tmp_path / "g.json", tmp_path / "cert.json"
    g_path.write_text(diag_cubic(3).to_json())
    cert_path.write_text(json.dumps(cert))
    code = run(["slice", "-f", str(g_path), "--verify", str(cert_path), "--deterministic"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert "witness has the wrong length at p=5" in out["reasons"]

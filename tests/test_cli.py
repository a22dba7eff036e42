import json

import pytest

from conftest import diag_cubic
from cubicpoints.cli import run
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

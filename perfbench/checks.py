"""Correctness gate: every job's output is checked after the timed passes.

Three kinds of check, by kind of field:

* exact fields (integer counts, verdicts, exit codes, exact series terms,
  `s_estimate`, histograms) must equal the reference recorded at the seed
  commit (`reference.json`); floats that depend on summation order are
  compared to the reference with a relative tolerance of 1e-9;
* witnesses and certificates are checked for validity, not identity: every
  p-adic witness must pass `PAdicWitness.verify(g)` and every certificate
  must replay (`cubic slice --verify` exits 0 with ok = true);
* self-checks: `slice_count_identity(...).ok`, CRT sums equal the direct
  complete sum, Poisson `rel_err <= 1e-3`, the histogram carries all
  phi(q) q^n terms, and `count_N` equals an independent brute-force scan of
  the truncation box.

`check` returns the list of reasons a job failed; empty means it passed.
"""

import cmath
import math
from math import gcd

import numpy as np

from corpus import poly_json

REL_TOL = 1e-9
COUNT_N_TOL = 1e-12  # relative; weights are positive, so order changes the sum by < 1e-13
POISSON_TOL = 1e-3


def _phi(q):
    return sum(1 for a in range(1, q + 1) if gcd(a, q) == 1)


def _close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def fields(job, out):
    """(exact, approx) fields of an output, as compared with the reference."""
    kind = job.kind
    if kind == "cli.expsum":
        exact = {"method": out["method"], "terms": out["terms"],
                 "histogram": out.get("histogram")}
        return exact, {"re": out["value"]["re"], "im": out["value"]["im"]}
    if kind == "cli.bounds":
        exact = {
            "ratio_ok": [r["ok"] for r in out["prime_ratio_sweep"]],
            "smooth_ok": [r["ok"] for r in out["smooth_section_dichotomy"]],
            "square_full_parts": out["square_full_parts"],
        }
        approx = {
            "max_ratio": [r["max_ratio"] for r in out["prime_ratio_sweep"]],
            "max_smooth_ratio": [r["max_smooth_ratio"] for r in out["smooth_section_dichotomy"]],
            "box_total": [r["total"] for r in out["square_full_envelope"]],
        }
        return exact, approx
    if kind == "lib.box_sum":
        return {"q": out["q"], "V": out["V"]}, {"total": out["total"], "ratio": out["ratio"]}
    if kind == "cli.poisson":
        return ({"q": out["q"], "V": out["V"]},
                {"lhs_re": out["lhs"]["re"], "lhs_im": out["lhs"]["im"]})
    if kind == "cli.congruence":
        per_prime = {p: {"status": r["status"], "fail_k": r.get("fail_k")}
                     for p, r in out["per_prime"].items()}
        return {"overall": out["overall"], "per_prime": per_prime}, {}
    if kind == "cli.series":
        exact = {"terms": out["terms"], "partial_sums": out["partial_sums"],
                 "per_prime": out["per_prime"]}
        pos = out.get("positivity")
        if pos is not None:
            exact["positivity"] = {k: pos[k] for k in ("status", "s_estimate", "blocking")}
        return exact, {"total": out["total"]}
    if kind == "cli.analyze":
        return dict(out), {}
    if kind == "cli.slice":
        return {k: out.get(k) for k in ("s_before", "s_after", "primes", "error")}, {}
    if kind == "cli.verify":
        return {"ok": out["ok"], "reasons": out["reasons"]}, {}
    if kind == "lib.slice_count_identity":
        return {k: out[k] for k in ("p", "N", "N1", "N2", "ok", "result")}, {}
    if kind == "lib.count_N":
        return {}, {}
    raise ValueError(f"unknown job kind {kind!r}")


def _compare(exact, approx, ref):
    reasons = []
    for key, want in ref.get("exact", {}).items():
        if exact.get(key) != want:
            reasons.append(f"exact field {key!r} differs from the reference")
    for key, want in ref.get("approx", {}).items():
        got = approx.get(key)
        wants = want if isinstance(want, list) else [want]
        gots = got if isinstance(got, list) else [got]
        if got is None or len(gots) != len(wants) or not all(
                _close(float(a), float(b)) for a, b in zip(gots, wants)):
            reasons.append(f"value {key!r} differs from the reference beyond {REL_TOL}")
    return reasons


def check(job, outcome, ref, poly, upstream=None):
    """Reasons the job failed the gate (empty list: passed).

    `ref` is the job's reference entry (None checks validity only), `poly`
    the polynomial as a term map, `upstream` the outcome of the job named in
    `job.after`.
    """
    if outcome.error is not None:
        return [f"raised {outcome.error}"]
    reasons = []
    if ref is not None and outcome.rc != ref["rc"]:
        reasons.append(f"exit code {outcome.rc}, expected {ref['rc']}")
    if outcome.out is None:
        return reasons + ["no JSON output"]
    try:
        exact, approx = fields(job, outcome.out)
    except (KeyError, TypeError) as exc:
        return reasons + [f"malformed output: missing {exc}"]
    if job.kind == "lib.slice_count_identity" and ref is not None:
        # counts are pinned only while the certificate picks the same slice
        if ref["exact"].get("result") != exact["result"]:
            ref = None
    if ref is not None:
        reasons += _compare(exact, approx, ref)
    reasons += VALIDITY.get(job.kind, lambda *a: [])(job, outcome.out, poly, upstream)
    return reasons


# -- validity and self-checks ---------------------------------------------


def _check_expsum(job, out, poly, upstream):
    from cubicpoints import CubicPolynomial, ExpSumSpec, complete_sum

    q = out["spec"]["q"]
    n = poly["n"]
    value = complex(out["value"]["re"], out["value"]["im"])
    reasons = []
    hist = out.get("histogram")
    if hist is not None:
        if len(hist) != q or sum(hist) != _phi(q) * q**n:
            reasons.append("histogram does not carry phi(q) q^n terms")
        direct = sum(h * cmath.exp(2j * math.pi * r / q) for r, h in enumerate(hist))
        if abs(direct - value) > 1e-6 * (1 + abs(value)):
            reasons.append("value does not match its histogram")
    if out["method"] == "crt":
        g = CubicPolynomial.from_json_dict(poly_json(poly))
        spec = out["spec"]
        ref = complete_sum(ExpSumSpec(g, spec["u"], q, tuple(spec["v"]))).value
        if abs(ref - value) > 1e-6 * (1 + abs(ref)):
            reasons.append("CRT sum differs from the direct complete sum")
    return reasons


def _check_poisson(job, out, poly, upstream):
    if not out["rel_err"] <= POISSON_TOL:
        return [f"Poisson rel_err {out['rel_err']:.3g} above {POISSON_TOL}"]
    return []


def _check_congruence(job, out, poly, upstream):
    from cubicpoints import CubicPolynomial, PAdicWitness

    g = CubicPolynomial.from_json_dict(poly_json(poly))
    reasons = []
    for p, res in out["per_prime"].items():
        w = res.get("witness")
        if res["status"] == "FOUND":
            wit = PAdicWitness(w["p"], w["k"], tuple(w["x"]), w["grad_val"],
                               w.get("grad_prime_val"))
            if w["p"] != int(p) or not wit.verify(g):
                reasons.append(f"witness at p={p} does not verify")
    return reasons


def _check_slice(job, out, poly, upstream):
    if "error" in out:
        return [f"slicing failed: {out['error']}"]
    reasons = []
    if out["result"]["n"] != poly["n"] - 1:
        reasons.append("sliced polynomial does not have n - 1 variables")
    for p, data in out["per_prime"].items():
        if data["modulus"] != int(p) ** (2 * data["k"] + 1):
            reasons.append(f"modulus at p={p} is not p^(2k+1)")
        elif out["c"] % data["modulus"] != data["z1"] % data["modulus"]:
            reasons.append(f"c breaks its congruence at p={p}")
    return reasons


def _check_verify(job, out, poly, upstream):
    if not out["ok"]:
        return ["certificate does not replay: " + "; ".join(out["reasons"])]
    return []


def _check_sci(job, out, poly, upstream):
    return [] if out["ok"] else ["slice counting identity N (p-1) = N1 - N2 fails"]


def _check_count_N(job, out, poly, upstream):
    want = count_N_oracle(poly, out["center"], out["P0"], out["R"])
    if not abs(out["N"] - want) <= COUNT_N_TOL * abs(want):
        return [f"count_N = {out['N']!r}, brute-force box scan gives {want!r}"]
    return []


VALIDITY = {
    "cli.expsum": _check_expsum,
    "cli.poisson": _check_poisson,
    "cli.congruence": _check_congruence,
    "cli.slice": _check_slice,
    "cli.verify": _check_verify,
    "lib.slice_count_identity": _check_sci,
    "lib.count_N": _check_count_N,
}


# -- independent oracle for the weighted lattice count ---------------------


def eval_int(poly, X):
    """Exact g(X) on integer rows: int64 under a magnitude guard, else Python ints."""
    terms = [(e, c) for e, c in poly["terms"].items() if c]
    M = int(np.max(np.abs(X))) if X.size else 0
    bound = sum(abs(c) * M ** sum(e) for e, c in terms)
    Y = X if bound < 2**62 else X.astype(object)
    acc = np.zeros(X.shape[0], dtype=Y.dtype)
    for e, c in terms:
        term = np.full(X.shape[0], c, dtype=Y.dtype)
        for i, d in enumerate(e):
            for _ in range(d):
                term = term * Y[:, i]
        acc = acc + term
    return acc


def count_N_oracle(poly, center, P0, R):
    """Sum of exp(-|x - center|^2 / P0^2) over integer zeros with |x - center| <= R.

    Scans every integer point of the box [ceil(c - R), floor(c + R)]^n and
    sums the weights in lexicographic order with exact rounding (fsum).
    """
    axes = [np.arange(math.ceil(c - R), math.floor(c + R) + 1, dtype=np.int64) for c in center]
    grids = np.meshgrid(*axes, indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)
    Z = X[eval_int(poly, X) == 0].astype(float)
    d2 = np.sum((Z - np.asarray(center)) ** 2, axis=1)
    w = np.exp(-d2 / P0**2)
    w[d2 > R**2] = 0.0
    return math.fsum(w.tolist())

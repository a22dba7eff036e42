"""Command-line frontend with reproducible, machine-readable output.

Every subcommand reads a cubic polynomial from a JSON file
({"n": int, "terms": [{"e": [e1,...,en], "c": int}]}) and writes a JSON
report to standard output (CSV for plot-ready tables with --csv).  Exit
codes: 0 success, 1 input error, 2 budget exceeded, 3 negative mathematical
verdict (e.g. an insoluble congruence).  Identical argv and seed produce
byte-identical JSON when --deterministic suppresses the timing field.
"""

import argparse
import json
import sys
import time

import numpy as np

from .arch import find_x0, main_term_report
from .errors import (AmbiguityError, BudgetExceededError, InputError,
                     NonLiftableError, SearchFailureError)
from .expsums import (DEFAULT_TERM_BUDGET, ExpSumSpec, box_sum_diagnostic, complete_sums,
                      expsum_auto, squarefull_parts, theta_p)
from .finitefield import primes_upto
from .geometry import section_smooth, singular_locus_dim_Q
from .padic import DEFAULT_ENUM_BUDGET, congruence_condition
from .poisson import poisson_check
from .polynomials import CubicPolynomial
from .series import positivity_certificate, series_partial
from .slicing import SliceCertificate, slice_step, verify_certificate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_NEGATIVE = 3


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}")
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise InputError(f"{what} file is not valid JSON: {exc}")


def _load_poly(path):
    return CubicPolynomial.from_json_dict(_load_json(path, "polynomial"))


def _csv_ints(text):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}")


def _emit(report, args, t0):
    if not args.deterministic:
        report = dict(report)
        report["millis"] = int((time.time() - t0) * 1000)
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")


def _emit_csv(rows, header):
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(str(x) for x in row) + "\n")


# -- subcommands -----------------------------------------------------------


def _cmd_analyze(args, t0):
    g = _load_poly(args.poly)
    warnings = []
    try:
        s = singular_locus_dim_Q(g.cubic_part())
    except (AmbiguityError, BudgetExceededError):
        s = None
        warnings.append("singular-locus dimension is ambiguous at the probed primes")
    n = g.n
    if s is not None and s == n - 3:
        warnings.append(
            "singular locus has the largest dimension the slicing induction "
            "tolerates (s = n - 3); local solubility at every modulus does "
            "not rule out insolubility over the integers here")
    if s is not None and s >= n - 2:
        warnings.append("cubic part is a cone over a small-dimensional form")
    report = {
        "n": n,
        "terms": sum(1 for _ in g.terms()),
        "s_estimate": s,
        "slicing_applicable": (s is not None and 0 <= s <= n - 3),
        "positivity_criterion_margin": None if s is None else (n - 9) - s,
        "warnings": warnings,
    }
    _emit(report, args, t0)
    return EXIT_OK


def _cmd_expsum(args, t0):
    g = _load_poly(args.poly)
    v = _csv_ints(args.v) if args.v else [0] * g.n
    spec = ExpSumSpec(g, args.u, args.q, tuple(v))
    res = expsum_auto(spec, args.budget)
    _emit(res.to_json_dict(with_histogram=args.q <= 64), args, t0)
    return EXIT_OK


def _cmd_poisson(args, t0):
    g = _load_poly(args.poly)
    P = (_csv_ints(args.P) or [8])[0] if args.P else 8
    ctx = find_x0(g.cubic_part(), P, seed=args.seed)
    rep = poisson_check(g, args.u, args.q, args.z, ctx,
                        V=4 * args.q, budget=args.budget)
    _emit(rep.to_json_dict(), args, t0)
    return EXIT_OK


def _cmd_series(args, t0):
    g = _load_poly(args.poly)
    rep = series_partial(g, args.Qmax, args.budget)
    if args.csv:
        _emit_csv(((q, float(t)) for q, t in sorted(rep.terms.items())),
                  ("q", "term"))
        return EXIT_OK
    out = rep.to_json_dict()
    pos = positivity_certificate(g, args.pmax, kmax=args.kmax,
                                 budget=args.budget, seed=args.seed)
    out["positivity"] = pos.to_json_dict()
    _emit(out, args, t0)
    return EXIT_NEGATIVE if pos.status == "NOT_POSITIVE" else EXIT_OK


def _cmd_congruence(args, t0):
    g = _load_poly(args.poly)
    verdict = congruence_condition(g, args.pmax, kmax=args.kmax,
                                   budget=args.budget, seed=args.seed)
    _emit(verdict.to_json_dict(), args, t0)
    return EXIT_NEGATIVE if verdict.overall == "FAILS" else EXIT_OK


def _cmd_slice(args, t0):
    g = _load_poly(args.poly)
    if args.verify:
        cert = SliceCertificate.from_json_dict(_load_json(args.verify, "certificate"))
        res = verify_certificate(cert, g)
        _emit(res.to_json_dict(), args, t0)
        return EXIT_OK if res else EXIT_NEGATIVE
    try:
        cert = slice_step(g, pmax=args.pmax, kmax=args.kmax, seed=args.seed)
    except SearchFailureError as exc:
        _emit({"error": str(exc)}, args, t0)
        return EXIT_NEGATIVE
    _emit(cert.to_json_dict(), args, t0)
    return EXIT_OK


def _cmd_count(args, t0):
    g = _load_poly(args.poly)
    P_list = _csv_ints(args.P) if args.P else [8, 16, 32]
    summary = main_term_report(g, P_list, Qmax=args.Qmax, seed=args.seed,
                               budget=args.budget)
    if args.csv:
        _emit_csv(((r.P, r.N_weighted, r.main_term, r.ratio)
                   for r in summary.reports),
                  ("P", "N_weighted", "main_term", "ratio"))
        return EXIT_OK
    _emit(summary.to_json_dict(), args, t0)
    return EXIT_OK


def _cmd_bounds(args, t0):
    g = _load_poly(args.poly)
    n = g.n
    rng = np.random.default_rng(args.seed)
    primes = [p for p in primes_upto(args.pmax) if p % 2 and p % 3]
    ref = float(10)
    ratio_sweep = []
    dichotomy = []
    g0 = g.cubic_part()
    for p in primes:
        # every frequency is drawn first, in the order u = 1, u = 2, smooth-section probes
        k, j = min(50, p**n), min(20, p**n)
        draws = [tuple(int(x) for x in rng.integers(0, p, size=n)) for _ in range(2 * k + j)]
        scale = p ** ((n + 1) / 2)
        worst = max([abs(res.value) / scale for u, vs in ((1, draws[:k]), (2, draws[k:2 * k]))
                     for res in complete_sums(g, u, p, vs, args.budget)], default=0.0)
        ratio_sweep.append({"p": p, "max_ratio": worst, "ok": worst <= ref})
        smooth = [v for v in draws[2 * k:] if any(x % p for x in v) and section_smooth(g0, v, p)]
        smooth_worst = max([abs(res.value) / scale
                            for res in complete_sums(g, 0, p, smooth, args.budget)], default=0.0)
        dichotomy.append({"p": p, "max_smooth_ratio": smooth_worst,
                          "ok": smooth_worst <= ref})
    square_full = []
    for p in primes[:3]:
        q = p * p
        rep = box_sum_diagnostic(g, 1, q, (0,) * n, 2, budget=args.budget)
        square_full.append(rep.to_json_dict())
    part_sweep = []
    for p in primes[:4]:
        for e in range(2, 15):
            q = p**e
            parts = squarefull_parts(q)
            ok = parts.q2**3 * parts.q4**6 <= q
            part_sweep.append({"q": q, "q1": parts.q1, "q2": parts.q2,
                               "q4": parts.q4, "theta": theta_p(e), "ok": ok})
    report = {
        "prime_ratio_sweep": ratio_sweep,
        "smooth_section_dichotomy": dichotomy,
        "square_full_envelope": square_full,
        "square_full_parts": part_sweep,
        "reference_constant": ref,
    }
    _emit(report, args, t0)
    all_ok = (all(r["ok"] for r in ratio_sweep)
              and all(r["ok"] for r in dichotomy)
              and all(r["ok"] for r in part_sweep))
    return EXIT_OK if all_ok else EXIT_NEGATIVE


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _build_parser():
    parser = _Parser(prog="cubic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("-f", "--poly", required=True,
                       help="polynomial JSON file")
        p.add_argument("--pmax", type=int, default=50)
        p.add_argument("--kmax", type=int, default=6)
        p.add_argument("--Qmax", type=int, default=20)
        p.add_argument("-q", type=int, default=1)
        p.add_argument("-u", type=int, default=0)
        p.add_argument("-v", default="", help="comma-separated frequency vector")
        p.add_argument("-z", type=float, default=0.0)
        p.add_argument("-P", default="", help="comma-separated list of P values")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--csv", action="store_true")
        p.add_argument("--verify", default=None, metavar="CERT",
                       help="replay a slicing certificate instead of producing one")
        p.add_argument("--deterministic", action="store_true",
                       help="omit timing fields so output depends only on argv+seed")
        return p

    add("analyze", _cmd_analyze, "singular-locus heuristics and warnings")
    add("expsum", _cmd_expsum, "complete exponential sum S_u(q; v)")
    add("poisson", _cmd_poisson, "Poisson-dual cross-check of the weighted sum")
    add("series", _cmd_series, "truncated singular series (and positivity)")
    add("congruence", _cmd_congruence, "local solubility decision with witnesses")
    add("slice", _cmd_slice, "hyperplane-slicing induction step / certificate replay")
    add("count", _cmd_count, "weighted counts against series x integral")
    add("bounds", _cmd_bounds, "empirical sweeps of the square-root-cancellation bounds")
    return parser


_DEFAULT_BUDGETS = {
    "expsum": DEFAULT_TERM_BUDGET, "poisson": DEFAULT_TERM_BUDGET,
    "bounds": DEFAULT_TERM_BUDGET, "series": DEFAULT_ENUM_BUDGET,
    "congruence": DEFAULT_ENUM_BUDGET,
}


def run(argv):
    t0 = time.time()
    try:
        args = _build_parser().parse_args(argv)
        if args.budget is None:
            args.budget = _DEFAULT_BUDGETS.get(args.command, DEFAULT_TERM_BUDGET)
        if args.budget <= 0 or args.pmax <= 0 or args.kmax <= 0 or args.Qmax <= 0:
            raise InputError("bounds and budgets must be positive")
        return args.func(args, t0)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except (AmbiguityError, NonLiftableError, SearchFailureError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

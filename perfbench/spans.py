"""Span recorder wrapped around the public functions of cubicpoints.

The program is not modified: `Tracer.install` replaces each traced function
in every cubicpoints module namespace that binds it (and traced methods on
their class) with a wrapper that opens a span, and `uninstall` puts the
originals back.  Spans nest by caller, so a span's self time is its duration
minus the time of its direct child spans.  Generators (`residue_chunks`,
`ExtField.point_chunks`) are never wrapped, because a span around a
generator call would close before any work is done.
"""

import functools
import sys
import time


def _rows(args, kwargs):
    return int(args[1].shape[0])


def _method_rows(args, kwargs):
    return int(args[2].shape[0])


def _prefixes(args, kwargs):
    ctx = args[1]
    total = 1
    for lo, hi in ctx.axis_ranges()[:-1]:
        total *= max(hi - lo + 1, 0)
    return total


def _betas(args, kwargs):
    return len(args[3] if len(args) > 3 else kwargs["betas"])


def _system_points(args, kwargs):
    """q^(active variables): the points count_zeros_system enumerates."""
    polys, field = args[0], args[1]
    used = set()
    for f in polys:
        gen = f.to_generic() if hasattr(f, "to_generic") else f
        if not gen.is_zero():
            used.update(gen.variables_used())
    return field.q ** len(used)


def _terms(result):
    return result.terms


def _found(result):
    return 1 if result.status == "FOUND" else 0


# (module, attribute or Class.method, work counted from the arguments,
#  outcome counted from the result)
TRACED = (
    ("cli", "run", None, None),
    ("expsums", "complete_sum", None, _terms),
    ("expsums", "box_sum_diagnostic", None, None),
    ("expsums", "crt_sum", None, None),
    ("expsums", "su_qz", None, None),
    ("expsums", "eval_mod_vec", _rows, None),
    ("poisson", "poisson_check", None, None),
    ("arch", "osc_integral_batch", _betas, None),
    ("arch", "count_N", _prefixes, None),
    ("arch", "find_x0", None, None),
    ("padic", "nonsingular_zero_search", None, _found),
    ("padic", "count_zeros_mod_pk", None, None),
    ("padic", "grad_prime_zero_search", None, None),
    ("series", "s0_term", None, None),
    ("geometry", "singular_locus_dim_mod_p", None, None),
    ("geometry", "section_smooth", None, None),
    ("finitefield", "count_zeros_system", _system_points, None),
    ("finitefield", "count_affine_zeros", None, None),
    ("finitefield", "ExtField.eval_poly_vec", _method_rows, None),
    ("slicing", "find_good_hyperplane", None, None),
    ("slicing", "choose_c", None, None),
    ("slicing", "verify_certificate", None, None),
    ("slicing", "slice_count_identity", None, None),
)

# scalar methods called in tight loops: counted, without a span
COUNTED = (
    ("polynomials", "CubicPolynomial.gradient"),
)


class Stat:
    __slots__ = ("calls", "top", "ok", "total_s", "self_s", "work", "outcome", "children")

    def __init__(self):
        self.calls = self.top = self.ok = self.work = self.outcome = 0
        self.total_s = self.self_s = 0.0
        self.children = {}


class Tracer:
    """Holds the span stack and per-name totals of one traced run."""

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self._stack = []  # [name, start, child seconds, {child name: calls}]
        self._originals = []
        self.top_s = 0.0  # summed duration of top-level spans

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def _span(self, name, fn, work, outcome):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            top = all(frame[0] != name for frame in stack)
            frame = [name, time.perf_counter(), 0.0, {}]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                st = tracer.stat(name)
                st.calls += 1
                st.top += top
                st.total_s += dur
                st.self_s += dur - frame[2]
                for child, calls in frame[3].items():
                    st.children[child] = st.children.get(child, 0) + calls
                if stack:
                    stack[-1][2] += dur
                    stack[-1][3][name] = stack[-1][3].get(name, 0) + 1
                else:
                    tracer.top_s += dur
                if ok:
                    st.ok += 1
                    if work is not None:
                        st.work += work(args, kwargs)
                    if outcome is not None:
                        st.outcome += outcome(result)
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _ext_field_init(self, fn):
        counts = self.counts
        counts.setdefault("finitefield.ExtField.tables_built", 0)

        @functools.wraps(fn)
        def wrapper(obj, p, j=1, modulus=None):
            fn(obj, p, j, modulus)
            if obj.j > 1:
                counts["finitefield.ExtField.tables_built"] += 1
        return wrapper

    def _replace(self, modname, attr, make):
        module = sys.modules[f"cubicpoints.{modname}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._originals.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "cubicpoints" or name.startswith("cubicpoints."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def install(self):
        import cubicpoints  # noqa: F401  (loads every module to patch)

        for modname, attr, work, outcome in TRACED:
            name = f"{modname}.{attr}"
            self._replace(modname, attr,
                          lambda fn, name=name, w=work, o=outcome: self._span(name, fn, w, o))
        for modname, attr in COUNTED:
            name = f"{modname}.{attr}"
            self._replace(modname, attr, lambda fn, name=name: self._counter(name, fn))
        self._replace("finitefield", "ExtField.__init__", self._ext_field_init)

    def uninstall(self):
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    def layer_metrics(self):
        """Per-layer metrics by name: {name: (value, unit)}."""
        def st(name):
            return self.stats.get(name, Stat())

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for modname, attr, work, outcome in TRACED:
            name = f"{modname}.{attr}"
            out[f"{name}.self_s"] = (st(name).self_s, "s")
        for name in ("expsums.complete_sum", "expsums.eval_mod_vec",
                     "padic.nonsingular_zero_search", "series.s0_term",
                     "geometry.singular_locus_dim_mod_p"):
            out[f"{name}.calls"] = (st(name).calls, "count")
        cs = st("expsums.complete_sum")
        out["expsums.complete_sum.terms_per_s"] = (ratio(cs.outcome, cs.total_s), "terms/s")
        box = st("expsums.box_sum_diagnostic")
        out["expsums.box_sum_diagnostic.sums_per_call"] = (
            ratio(box.children.get("expsums.complete_sum", 0), box.calls), "sums/call")
        ev = st("expsums.eval_mod_vec")
        out["expsums.eval_mod_vec.rows_per_s"] = (ratio(ev.work, ev.total_s), "rows/s")
        out["expsums.eval_mod_vec.rows_per_call"] = (ratio(ev.work, ev.calls), "rows/call")
        osc = st("arch.osc_integral_batch")
        out["arch.osc_integral_batch.betas_per_s"] = (ratio(osc.work, osc.total_s), "betas/s")
        cn = st("arch.count_N")
        out["arch.count_N.prefixes_per_s"] = (ratio(cn.work, cn.total_s), "prefixes/s")
        nz = st("padic.nonsingular_zero_search")
        out["padic.nonsingular_zero_search.found_frac"] = (ratio(nz.outcome, nz.calls), "fraction")
        cz = st("padic.count_zeros_mod_pk")
        out["padic.count_zeros_mod_pk.calls_per_top"] = (ratio(cz.calls, cz.top), "calls/call")
        czs = st("finitefield.count_zeros_system")
        out["finitefield.count_zeros_system.points_per_s"] = (
            ratio(czs.work, czs.total_s), "points/s")
        epv = st("finitefield.ExtField.eval_poly_vec")
        out["finitefield.ExtField.eval_poly_vec.rows_per_s"] = (
            ratio(epv.work, epv.total_s), "rows/s")
        out["finitefield.ExtField.tables_built"] = (
            self.counts.get("finitefield.ExtField.tables_built", 0), "count")
        fgh = st("slicing.find_good_hyperplane")
        out["slicing.find_good_hyperplane.probes_per_accept"] = (
            ratio(fgh.children.get("geometry.singular_locus_dim_mod_p", 0), fgh.ok),
            "probes/accept")
        out["polynomials.CubicPolynomial.gradient.calls"] = (
            self.counts.get("polynomials.CubicPolynomial.gradient", 0), "count")
        return out

"""Seeded corpus and job lists of the three workloads.

Polynomials are plain term maps {exponent tuple: coefficient}; the program
only ever sees them as the JSON files `write_corpus` produces.  The fixed
part of the corpus is the demo polynomials plus `seven_var_corpus`.  The
seeded part is drawn from fixed pools (dense random cubics, slicing
variants), each pool member generated from its own index, so that every job
any seed can produce has an exact reference in `reference.json`.  The
workload seed picks which pool members a run uses.
"""

import json
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

WORKLOADS = ("expsum-sweep", "local-solubility", "slicing-induction")

POOL_SIZE = {"dense2": 6, "dense3": 40, "dense4": 6, "dense5": 4, "slice7k5": 3, "slice7k4": 3}


def _mono(n, **powers):
    e = [0] * n
    for name, d in powers.items():
        e[int(name[1:]) - 1] = d
    return tuple(e)


def _fixed():
    def t(n, *pairs):
        return {"n": n, "terms": {_mono(n, **m): c for m, c in pairs}}

    seven = {_mono(7, **{f"x{i}": 3}): 1 for i in range(1, 6)}
    seven[_mono(7, x6=1)] = 1
    seven[_mono(7, x7=1)] = 2
    seven[(0,) * 7] = 1
    return {
        "mixed2": t(2, ({"x1": 3}, 1), ({"x2": 3}, 1), ({"x1": 1, "x2": 1}, 1), ({}, 1)),
        "sol2": t(2, ({"x1": 3}, 1), ({"x2": 3}, 1), ({"x1": 1}, 1), ({}, 4)),
        "ins1": t(1, ({"x1": 3}, 1), ({}, 49)),
        # watson_polynomial(2) = (2x1 - 1)(1 + x1^2 + x2^2) + x1 x2
        "watson2": t(2, ({"x1": 3}, 2), ({"x1": 1, "x2": 2}, 2), ({"x1": 2}, -1),
                     ({"x2": 2}, -1), ({"x1": 1, "x2": 1}, 1), ({"x1": 1}, 2), ({}, -1)),
        "diag3": t(3, ({"x1": 3}, 1), ({"x2": 3}, 1), ({"x3": 3}, 1), ({}, -2)),
        "seven": {"n": 7, "terms": seven},
    }


def dense_cubic(n, index, span=3):
    """Dense random cubic with coefficients in [-span, span] (pool member)."""
    rng = np.random.default_rng((0xC0B1C, n, index))
    terms = {}
    for deg in range(4):
        for idx in combinations_with_replacement(range(n), deg):
            e = [0] * n
            for i in idx:
                e[i] += 1
            terms[tuple(e)] = int(rng.integers(-span, span + 1))
    return {"n": n, "terms": terms}


def slicing_variant(n, k, index):
    """Diagonal cubic in k of n variables plus a seeded affine tail.

    The n - k variables outside the cubic part make the singular locus of the
    cubic part a linear space of projective dimension n - k - 1 >= 0, so the
    slicing step applies.
    """
    rng = np.random.default_rng((0x511CE, n, k, index))
    terms = {}
    for i in range(k):
        e = [0] * n
        e[i] = 3
        terms[tuple(e)] = int(rng.choice([1, 1, 2, -1]))
    for i in range(k, n):
        e = [0] * n
        e[i] = 1
        # like seven_var_corpus, the first tail coefficient is 1, a unit at
        # every prime, so restricted-gradient witnesses exist at every p
        terms[tuple(e)] = 1 if i == k else int(rng.integers(1, 4))
    terms[(0,) * n] = int(rng.integers(-3, 4))
    return {"n": n, "terms": terms}


def all_polys():
    """Every polynomial any seed can use, by name."""
    polys = _fixed()
    for n in (2, 3, 4, 5):
        for i in range(POOL_SIZE[f"dense{n}"]):
            polys[f"dense{n}_{i}"] = dense_cubic(n, i)
    for k in (5, 4):
        for i in range(POOL_SIZE[f"slice7k{k}"]):
            polys[f"slice7k{k}_{i}"] = slicing_variant(7, k, i)
    return polys


def poly_json(poly):
    return {"n": poly["n"],
            "terms": [{"e": list(e), "c": c} for e, c in sorted(poly["terms"].items()) if c]}


def write_corpus(polys, directory):
    """Write one JSON file per polynomial; returns {name: path}."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, poly in polys.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(poly_json(poly)))
        paths[name] = path
    return paths


@dataclass(frozen=True)
class Job:
    """One timed call.  `kind` selects how it runs and how it is checked.

    Kinds starting with "cli." run `cubicpoints.cli.run([sub, "-f", file,
    *args])`; the others are library calls.  `after` names the job whose
    output this one consumes (a certificate to replay or slice).
    """

    id: str
    kind: str
    poly: str
    args: tuple = ()
    after: str = None


# A pass is made of rounds (five in expsum-sweep and slicing-induction, two
# in local-solubility).  Light jobs run in every round, heavy jobs once per
# pass, spread over the rounds, so the executions that set job_p50_s and job_tail_s
# are spread over the whole pass rather than taken at one moment.  Where a
# light job has a cost-neutral parameter (frequency v, box centre, -P, pool
# member) it changes from round to round, so those calls never repeat; a few
# small calls on fixed inputs (analyze, series, counting identities) repeat
# unchanged.


def _v(n, index, r):
    return ",".join(str((index + 3 * r + 2 * i + 1) % 7) for i in range(n))


def _index(name):
    return int(name.rsplit("_", 1)[1]) if "_" in name else 0


def _expsum(name, n, q, r):
    v = _v(n, _index(name), r)
    return Job(f"expsum:{name}:q={q}:v={v}", "cli.expsum", name,
               ("-q", str(q), "-u", "1", "-v", v, "--deterministic"))


def _box_sum(name, n, q, r):
    v0 = (r,) + (0,) * (n - 1)
    return Job(f"boxsum:{name}:q={q}:v0={r}", "lib.box_sum", name, (q, 1, v0))


def _congruence(name):
    return Job(f"congruence:{name}", "cli.congruence", name, ("--pmax", "50", "--deterministic"))


def _count(name, P):
    return Job(f"count:{name}:P={P}", "lib.count_N", name, (P,))


def _series(name, pmax):
    suffix = ":pmax=50" if pmax == 50 else ""
    return Job(f"series:{name}{suffix}", "cli.series", name,
               ("--Qmax", "30", "--pmax", str(pmax), "--deterministic"))


def _analyze(name):
    return Job(f"analyze:{name}", "cli.analyze", name, ("--deterministic",))


def _slice_chain(name, slice_seed, light_primes, heavy_primes=()):
    """(slice job, dependent jobs run once, dependent jobs run every round).

    The replay of the certificate runs once: at 0.4-1.3 s it is a heavy job.
    """
    sid = f"slice:{name}:seed={slice_seed}"
    slice_job = Job(sid, "cli.slice", name,
                    ("--pmax", "20", "--seed", str(slice_seed), "--deterministic"))
    verify = Job(f"verify:{name}:seed={slice_seed}", "cli.verify", name, ("--deterministic",),
                 after=sid)
    sci = [Job(f"sci:{name}:seed={slice_seed}:p={p}", "lib.slice_count_identity", name,
               (p,), after=sid) for p in light_primes + heavy_primes]
    return slice_job, [verify] + sci[len(light_primes):], sci[:len(light_primes)]


def pick(seed, pool, count):
    """`count` distinct members of a pool, chosen by the workload seed."""
    rng = np.random.default_rng((seed, 0xB3AC, sum(map(ord, pool))))
    idx = rng.choice(POOL_SIZE[pool], size=count, replace=False)
    return [f"{pool}_{int(i)}" for i in idx]


# how many members of each pool a seed picks, per workload
PICKS = {
    # three fresh dense3 cubics every round: q = 81 costs differ by up to
    # 1.7x between pool members, and job_p50_s falls among these calls
    "expsum-sweep": {"dense2": 1, "dense3": 15, "dense4": 3},
    # six fresh dense3 cubics in each of the two rounds
    "local-solubility": {"dense3": 12, "dense4": 1, "dense5": 1},
    "slicing-induction": {"slice7k5": 1, "slice7k4": 1},
    "smoke": {},
}


def job_list(workload, seed):
    """The fixed job list of one pass of a workload for one seed, in run order."""
    if workload not in PICKS:
        raise ValueError(f"unknown workload {workload!r}")
    chosen = {pool: pick(seed, pool, k) for pool, k in PICKS[workload].items()}
    return _build(workload, chosen)


def warmup_list(workload, seed):
    """Calls run once, untimed, before the first timed pass (part of set-up).

    One light call of each kind on the run's own inputs, 0.6-1 s in a fresh
    process: the first calls of a process pay for lazy imports and the first
    use of numpy routines, which the timed jobs then do not.  Set-up samples
    make these calls too, so set-up time counts them.
    """
    chosen = {pool: pick(seed, pool, k) for pool, k in PICKS[workload].items()}
    if workload == "expsum-sweep":
        return [_expsum(chosen["dense3"][0], 3, 81, 0), _expsum(chosen["dense4"][0], 4, 25, 0)]
    if workload == "local-solubility":
        d3 = chosen["dense3"][0]
        return [_congruence(d3), _count(d3, 64), _series("ins1", 2)]
    if workload == "slicing-induction":
        return [_analyze("seven"), _analyze(chosen["slice7k4"][0])]
    return []


def _schedule(heavy, light):
    """Round r runs heavy[r], then every light job whose input is ready.

    `heavy` has one list per round; `light(r)` gives round r's light jobs.
    """
    order, ran = [], set()
    for r, group in enumerate(heavy):
        for job in group + light(r):
            if job.after is None or job.after in ran:
                order.append(job)
                ran.add(job.id)
    return order


def _build(workload, chosen):
    if workload == "expsum-sweep":
        (d2,), d3, d4 = chosen["dense2"], chosen["dense3"], chosen["dense4"]
        three = ["diag3"] + d3[:3]
        bounds = [Job(f"bounds:{name}", "cli.bounds", name, ("--pmax", "31", "--deterministic"))
                  for name in ("mixed2", d2)]
        # Every round, with a new frequency v: expsum at q = 81 on three fresh
        # dense3 cubics (about 0.19 s) and at q = 25 on the dense4 cubics (about
        # 0.29 s).  Calls this long vary less from run to run than the short
        # ones, which run once: 16 executions below the 30 repeated ones and
        # 7 above them put job_p50_s inside the first block and job_tail_s,
        # the eleventh slowest execution, inside the second.
        short = [_expsum(name, 2, 31, 0) for name in ("mixed2", "sol2", "watson2")]
        short += [_expsum("diag3", 3, 49, 0)]
        short += [_expsum(name, 3, q, 0) for name in three for q in (31, 30)]
        short += [_expsum(name, 4, 15, 0) for name in d4]
        short.append(Job("poisson:diag3", "cli.poisson", "diag3",
                         ("-q", "3", "-u", "1", "--deterministic")))
        heavy = [
            [Job("poisson:mixed2", "cli.poisson", "mixed2",
                 ("-q", "3", "-u", "1", "--deterministic"))] + short,
            [bounds[0], _box_sum("diag3", 3, 49, 0)],
            [bounds[1]],
            [_box_sum(d3[0], 3, 49, 0)],
            [_expsum(name, 4, 31, 0) for name in d4[:2]],
        ]

        def light(r):
            return ([_expsum(name, 3, 81, r) for name in d3[3 * r:3 * r + 3]]
                    + [_expsum(name, 4, 25, r) for name in d4])
        return _schedule(heavy, light)
    if workload == "local-solubility":
        d3, (d4,), (d5,) = chosen["dense3"], chosen["dense4"], chosen["dense5"]
        # Two rounds a pass.  Every round: congruence and count_N at P = 64
        # on six fresh dense3 cubics (0.1-0.15 s each) and the series on ins1
        # and sol2.  The rest runs once a pass.  Of the 45 executions of a
        # pass, eight run once and take longer, so job_tail_s (the eleventh
        # slowest) falls near the top of the 28 repeated executions and
        # job_p50_s in their middle.  A pass takes about 10-12 s, so a run
        # holds two or three of them.
        fixed = ("ins1", "mixed2", "sol2", "watson2", "diag3", "seven")
        heavy = [
            [_congruence(d4)] + [_congruence(name) for name in fixed],
            [_congruence(d5), _series("mixed2", 50), _series("watson2", 2), _count(d4, 16)]
            + [_count(name, 16) for name in d3[:3]] + [_count(name, 32) for name in d3[3:6]],
        ]

        def light(r):
            jobs = [job for name in d3[6 * r:6 * r + 6] for job in (_congruence(name),
                                                                    _count(name, 64))]
            return jobs + [_series(name, 2) for name in ("ins1", "sol2")]
        return _schedule(heavy, light)
    if workload == "slicing-induction":
        (k5,), (k4,) = chosen["slice7k5"], chosen["slice7k4"]
        s0, s0_once, s0_light = _slice_chain("seven", 0, (3, 5), (7,))
        s1, s1_once, s1_light = _slice_chain("seven", 1, (3, 5))
        v5, v5_once, v5_light = _slice_chain(k5, 1, (3, 5))
        v4, v4_once, v4_light = _slice_chain(k4, 1, (3, 5))

        # analyze on the demo polynomials runs once, so that job_p50_s falls
        # inside the counting identities at p = 5 and analyze on the 4-of-7
        # variant (0.19-0.21 s), not on the edge above them
        heavy = [[s0, v5] + [_analyze(name) for name in ("mixed2", "sol2", "watson2")],
                 [s1] + s0_once, [v4] + v5_once, s1_once, v4_once]

        def light(r):
            return ([_analyze(name) for name in ("seven", k5, k4)]
                    + s0_light + s1_light + v5_light + v4_light)
        return _schedule(heavy, light)
    if workload == "smoke":
        # one small job of each kind, for the smoke tests (not a benchmark workload)
        def light(r):
            return [
                Job(f"expsum:mixed2:q=5:r={r}", "cli.expsum", "mixed2",
                    ("-q", "5", "-u", "1", "-v", f"1,{r + 1}")),
                Job("expsum:mixed2:q=6", "cli.expsum", "mixed2", ("-q", "6", "-u", "1", "-v", "1,2")),
                Job("congruence:mixed2:pmax=7", "cli.congruence", "mixed2", ("--pmax", "7")),
                Job("series:ins1:Qmax=6", "cli.series", "ins1", ("--Qmax", "6", "--pmax", "2")),
                Job("poisson:diag3", "cli.poisson", "diag3",
                    ("-q", "3", "-u", "1", "--deterministic")),
                Job("count:dense3_0:P=8", "lib.count_N", "dense3_0", (8,)),
                Job("boxsum:diag3:q=9", "lib.box_sum", "diag3", (9, 1, (0, 0, 0))),
                Job("analyze:mixed2", "cli.analyze", "mixed2", ("--deterministic",)),
            ]
        return _schedule([[], []], light)
    raise ValueError(f"unknown workload {workload!r}")


def all_jobs():
    """Every distinct job any seed can produce (for recording the reference).

    Rotating every pool through the picks puts each member in every slot.
    """
    seen = {}
    for k in range(max(POOL_SIZE.values())):
        for workload, picks in PICKS.items():
            chosen = {}
            for pool, count in picks.items():
                size = POOL_SIZE[pool]
                chosen[pool] = [f"{pool}_{(k + i) % size}" for i in range(count)]
            for job in _build(workload, chosen):
                seen.setdefault(job.id, job)
    return seen

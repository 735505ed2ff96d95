"""Seeded job lists for the benchmark workloads.

A job is one run of a ``crfbench`` subcommand through ``crfbench.cli.main``,
or, for the kernel-basis jobs that the CLI has no route to, one call of
``crfbench.crfsolve.regular_kernel_basis``.  Every input comes from a fixed
pool of items, each generated from its own fixed seed, so that the expected
output of every job can be recorded once (``goldens.json``).  The workload
seed only chooses which pool items a pass runs and in which order.  Every
pass of every seed has the same number of jobs of each kind and the same
mix of feasible and infeasible verdicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("rhoadic", "syzygy", "solve", "identities")

# Pool sizes per item kind.  A pass draws a fixed number from each pool.
RHOADIC_POOL = {"adm_wall": 16, "adm_tilted": 16, "multiple": 8,
                "perturbed": 8}
SOLVE_POOL = 16   # items per solve kind
SOLVE_KINDS = tuple(f"{a}2-degree-{d}" for a in "HO" for d in (2, 3, 4, 5)) \
    + ("O3-degree-2", "O3-degree-3", "incompatible-H", "incompatible-O")
SEED_POOL = 16   # --seed values recorded for verify-identities/cf-integral
SCALES = (2, -1, 3, -2, Fraction(1, 2), -3, Fraction(3, 2), Fraction(-1, 3))


@dataclass(frozen=True)
class Job:
    """One benchmark job.

    ``id`` names the job in ``goldens.json``.  ``argv`` is the CLI argument
    list; the string ``PAYLOAD`` stands for the path of the payload file
    ``payload``.  Kernel jobs carry ``("kernel", algebra, n, degree)``.
    ``expect_exit`` is the exit code the job has by construction.
    """

    id: str
    argv: tuple
    payload: str | None
    expect_exit: int

    @property
    def kind(self):
        return self.argv[0]


# ---------------------------------------------------------------------------
# polynomial generators (the idioms of the acceptance tests)
# ---------------------------------------------------------------------------

def _rand_poly(rng, algebra, n, deg, terms, exact_degree=False):
    """Sum of ``terms`` random monomials of degree <= deg (exactly deg when
    ``exact_degree``) with small integer coefficients."""
    from crfbench.hypercomplex import DIM, HNumber
    from crfbench.polycalc import HPoly
    width = DIM[algebra] * n
    out = HPoly.zero(algebra, n)
    for _ in range(terms):
        exp = [0] * width
        for _ in range(deg if exact_degree else rng.randint(0, deg)):
            exp[rng.randrange(width)] += 1
        c = HNumber(algebra, [Fraction(rng.randint(-2, 2))
                              for _ in range(DIM[algebra])])
        if not c.is_zero():
            out = out + HPoly(algebra, n, {tuple(exp): c})
    return out


def _coord(h, a):
    from crfbench.polycalc import HPoly
    return HPoly.coordinate("H", 2, h, a)


def _counterexample():
    from crfbench.hypercomplex import HNumber
    j, k = HNumber.unit("H", 2), HNumber.unit("H", 3)
    return ((_coord(0, 1) * _coord(1, 0)).mul_const_left(-j)
            + (_coord(0, 0) * _coord(1, 0)).mul_const_left(k))


def _regular_linear(rng):
    from crfbench.hypercomplex import HNumber
    from crfbench.polycalc import HPoly

    def rand_h():
        return HNumber("H", [Fraction(rng.randint(-2, 2)) for _ in range(4)])

    out = HPoly.constant("H", 2, 1).mul_const_right(rand_h())
    for h in range(2):
        for a in (1, 2, 3):
            b = _coord(h, a) - _coord(h, 0).mul_const_left(
                HNumber.unit("H", a))
            out = out + b.mul_const_right(rand_h())
    return out


def _surface(name):
    """The wall {y3 = 0} or the tilted plane {x0 + 2 y1 = 1}."""
    from crfbench.polycalc import HPoly
    if name == "wall":
        return _coord(1, 3)
    return _coord(0, 0) + _coord(1, 1).scale(2) - HPoly.constant("H", 2, 1)


def _function_surface(f, surface):
    return {"schema_version": 1, "f": f.to_json(),
            "surface": {"rho": _surface(surface).to_json()}}


# ---------------------------------------------------------------------------
# pool items: (payload, admissible?) for rhoadic, (payload, solvable?) for
# solve.  Each item has its own fixed seed, independent of the workload seed.
# ---------------------------------------------------------------------------

def rhoadic_item(kind, index):
    from crfbench.polycalc import HPoly
    rng = random.Random(f"rhoadic/{kind}/{index}")
    if kind in ("adm_wall", "adm_tilted"):
        # regular linear part plus rho times a random polynomial of degree
        # <= 1 with a linear term, so that every item has degree 2
        surface = "wall" if kind == "adm_wall" else "tilted"
        rho = _surface(surface)
        while True:
            p = _rand_poly(rng, "H", 2, deg=1, terms=3)
            if p.degree() == 1:
                break
        return _function_surface(_regular_linear(rng) + rho * p, surface), True
    if kind == "multiple":
        return _function_surface(_counterexample().scale(SCALES[index]),
                                 "wall"), False
    if kind == "perturbed":
        return _function_surface(_counterexample() + _regular_linear(rng),
                                 "wall"), False
    if kind == "counter":
        return _function_surface(_counterexample(), "wall"), False
    if kind == "conj_wall":
        return _function_surface(HPoly.variable_conj("H", 2, 0), "wall"), False
    if kind == "conj_tilted":
        return _function_surface(HPoly.variable_conj("H", 2, 0),
                                 "tilted"), False
    if kind == "x0sq":
        return _function_surface(_coord(0, 0) ** 2, "wall"), False
    raise ValueError(f"unknown rhoadic item kind {kind!r}")


def solve_item(kind, index):
    from crfbench.hypercomplex import DIM, HNumber
    from crfbench.polycalc import HPoly, dbar_system
    rng = random.Random(f"solve/{kind}/{index}")
    if kind.startswith("incompatible"):
        # g = dbar u plus x_{1,0}^2 in the first slot: the pairwise
        # compatibility residual no longer vanishes
        algebra = kind[-1]
        u = _rand_poly(rng, algebra, 2, deg=3, terms=4)
        g = dbar_system(u)
        exp = [0] * (2 * DIM[algebra])
        exp[DIM[algebra]] = 2
        g[0] = g[0] + HPoly(algebra, 2, {tuple(exp): HNumber.from_real(
            algebra, 1)})
        return {"schema_version": 1, "g": [c.to_json() for c in g]}, False
    # g = dbar u for a random u with two terms of each degree 1..deg, so
    # that every homogeneous slice is solved and items of a kind cost alike
    algebra, n, deg = kind[0], int(kind[1]), int(kind[-1])
    while True:
        u = HPoly.zero(algebra, n)
        for d in range(1, deg + 1):
            for _ in range(2):
                u = u + _rand_poly(rng, algebra, n, deg=d, terms=1,
                                   exact_degree=True)
        if u.degree() == deg:
            break
    return {"schema_version": 1,
            "g": [c.to_json() for c in dbar_system(u)]}, True


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

def _draw(seed, pool_name, size, pass_index, count):
    """``count`` pool indices for this pass: a seeded permutation of the
    pool, read in consecutive blocks, one block per pass."""
    order = list(range(size))
    random.Random(f"{seed}/{pool_name}").shuffle(order)
    start = pass_index * count
    return [order[(start + i) % size] for i in range(count)]


def _shuffled(seed, pass_index, jobs):
    random.Random(f"{seed}/order/{pass_index}").shuffle(jobs)
    return jobs


RHOADIC_FIXED = ("counter", "conj_wall", "conj_tilted", "x0sq")


def _rhoadic(seed, pass_index):
    items = []
    for kind, count in (("adm_wall", 2), ("adm_tilted", 2), ("multiple", 1),
                        ("perturbed", 1)):
        for idx in _draw(seed, kind, RHOADIC_POOL[kind], pass_index, count):
            items.append((f"{kind}-{idx}", kind, idx))
    items += [(kind, kind, 0) for kind in RHOADIC_FIXED]
    jobs, payloads = [], {}
    for name, kind, idx in items:
        payload, ok = rhoadic_item(kind, idx)
        payloads[name] = payload
        code = 0 if ok else 1
        jobs += [Job(f"rhoadic/{name}/check", ("check", "--input", "PAYLOAD"),
                     name, code),
                 Job(f"rhoadic/{name}/extend",
                     ("extend", "--input", "PAYLOAD", "--order-m", "2"),
                     name, code),
                 Job(f"rhoadic/{name}/jump", ("jump", "--input", "PAYLOAD"),
                     name, code)]
    # the counterexample is tangentially CRF (feasible at m = 1) and stays
    # infeasible at m = 2 when the degree budget grows
    jobs += [Job("rhoadic/counter/extend-m1",
                 ("extend", "--input", "PAYLOAD", "--order-m", "1"),
                 "counter", 0),
             Job("rhoadic/counter/extend-budget5",
                 ("extend", "--input", "PAYLOAD", "--order-m", "2",
                  "--budget", "5"), "counter", 1)]
    return _shuffled(seed, pass_index, jobs), payloads


# (algebra, n, top degree).  (O, 2, 3), the 248-dimensional case, is left
# out: at 10-15 s it is one unrepeatable sample that would set the run's
# wall time by itself; (O, 3, 2) exercises the same elimination.
SYZYGY_JOBS = (("H", 2, 4), ("H", 3, 3), ("O", 2, 2), ("O", 3, 2))


def _syzygy(seed, pass_index):
    # one job per degree from 1 up to each top degree (degree 0 only times
    # argument parsing); for n = 3 the compatibility rows are dependent in
    # degree two, so that report fails a check (exit 1)
    jobs = [Job(f"syzygy/{a}{n}/degree-{k}",
                ("syzygy", "--algebra", a, "--n", str(n), "--degree", str(k)),
                None, 1 if n == 3 and k >= 2 else 0)
            for a, n, top in SYZYGY_JOBS for k in range(1, top + 1)]
    return _shuffled(seed, pass_index, jobs), {}


# Kernel bases up to degree 3 for H and degree 1 for O.  The O degree-2
# basis is left out: it spends most of its time verifying each basis vector
# in polycalc, which would take the workload off its elimination profile.
KERNEL_JOBS = (("H", 1), ("H", 2), ("H", 3), ("O", 1))


def _solve(seed, pass_index):
    jobs, payloads = [], {}
    for kind in SOLVE_KINDS:
        # three of the costliest kind, so that the tail latency (the 11th
        # slowest of the run's jobs) falls inside that group, not at its edge
        count = 3 if kind == "O2-degree-5" else 2
        for idx in _draw(seed, kind, SOLVE_POOL, pass_index, count):
            name = f"{kind}-{idx}"
            payload, ok = solve_item(kind, idx)
            payloads[name] = payload
            jobs.append(Job(f"solve/{name}", ("solve", "--input", "PAYLOAD"),
                            name, 0 if ok else 1))
    jobs += [Job(f"solve/kernel-{algebra}2-degree-{degree}",
                 ("kernel", algebra, 2, degree), None, 0)
             for algebra, degree in KERNEL_JOBS]
    return _shuffled(seed, pass_index, jobs), payloads


IDENTITY_JOBS = (
    ("verify-H2", ("verify-identities", "--algebra", "H", "--count", "80")),
    ("verify-O2", ("verify-identities", "--algebra", "O", "--count", "120")),
    ("verify-both2", ("verify-identities", "--algebra", "both",
                      "--count", "40")),
    ("verify-O3", ("verify-identities", "--algebra", "O", "--n", "3",
                   "--count", "60")),
    ("cf-integral-20", ("cf-integral", "--order", "20")),
    ("cf-integral-24", ("cf-integral", "--order", "24")),
    ("cf-integral-40", ("cf-integral", "--order", "40")),
    ("cf-integral-44", ("cf-integral", "--order", "44")),
)
# cf-integral at orders 20 and 24 misses the default 1e-8 tolerance (exit
# 1); orders 28 to 36 pass or fail depending on --seed and are left out.
IDENTITIES_EXIT = {"cf-integral-20": 1, "cf-integral-24": 1}


def _identities(seed, pass_index):
    jobs = []
    for name, argv in IDENTITY_JOBS:
        s = _draw(seed, name, SEED_POOL, pass_index, 1)[0]
        jobs.append(Job(f"identities/{name}/seed-{s}",
                        argv + ("--seed", str(s)), None,
                        IDENTITIES_EXIT.get(name, 0)))
    return _shuffled(seed, pass_index, jobs), {}


_BUILDERS = {"rhoadic": _rhoadic, "syzygy": _syzygy, "solve": _solve,
             "identities": _identities}


# Passes per 20 s of --seconds.  Each is chosen so that a run takes about
# 20 s at the commit that defined the benchmark (Intel Xeon, 2 cores,
# Python 3.11.7) and the median and tail latencies fall inside groups of
# repeated similar jobs.  The pass count follows from --seconds alone, so
# every run of a workload does the same work whatever the speed of the code.
PASSES_PER_20S = {"rhoadic": 2, "syzygy": 4, "solve": 5, "identities": 4}


def passes(workload, seconds):
    return max(1, round(PASSES_PER_20S[workload] * seconds / 20))


def warmup_jobs(workload):
    """Cheap jobs run during set-up so lazy initialisation is not timed;
    their payloads are the ones of pass 0."""
    return {
        "rhoadic": [Job("warmup/check", ("check", "--input", "PAYLOAD"),
                        "conj_wall", 1)],
        "syzygy": [Job("warmup/syzygy", ("syzygy", "--algebra", "H",
                                         "--degree", "1"), None, 0)],
        "solve": [Job("warmup/kernel", ("kernel", "H", 2, 1), None, 0)],
        "identities": [Job("warmup/verify", ("verify-identities", "--count",
                                             "1"), None, 0),
                       Job("warmup/cf-integral",
                           ("cf-integral", "--order", "8", "--tol", "1"),
                           None, 0)],
    }[workload]


def pass_jobs(workload, seed, pass_index):
    """(jobs, payloads) of one pass; payloads maps name -> JSON object."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    return _BUILDERS[workload](seed, pass_index)


def pool_jobs(workload):
    """Every job any seed can draw, with its payload, for recording goldens."""
    seen = {}
    for pass_index in range(max(max(RHOADIC_POOL.values()), SOLVE_POOL,
                                SEED_POOL)):
        jobs, payloads = pass_jobs(workload, 0, pass_index)
        for job in jobs:
            seen.setdefault(job.id, (job, payloads.get(job.payload)))
    return [seen[k] for k in sorted(seen)]

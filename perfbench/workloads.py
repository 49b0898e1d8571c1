"""Seeded job lists for the three benchmark workloads.

A job is one `bvis` command line plus what the benchmark knows about its
correct answer.  Everything here is derived from ``--seed`` through one
``random.Random``; `bvis` only ever sees the generated arguments.  Job
costs are kept nearly independent of the seed: the seed moves box sizes by
about 1%, picks vectors from pools whose members cost about the same at the
sizes where they are used, plants primes of fixed bit sizes, and picks
output formats, so that two seeds measure the same amount of work on
different inputs.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("density-large", "zeta-tight", "points-small")
# Seconds one pass takes on the reference machine (2 x86-64 cores, numpy
# kernel backend).  A run makes ceil(--seconds / this) passes, so every run
# of a workload has the same jobs whatever the machine's load.
PASS_SECONDS = {"density-large": 14.0, "zeta-tight": 15.0, "points-small": 14.0}

INT_POOL = ("1,1", "1,1,1", "1,2")
RAT_POOL = ("1/2,1/2", "2/3,3/2")
SIGNED_POOL = ("1,-2", "3,-2,-3")
POOLS = {"int": INT_POOL, "rat": RAT_POOL, "signed": SIGNED_POOL}
# Vectors for the planted-witness checks: the pools plus a gcd-2 vector and
# the worked example (2,4,3,7).
CHECK_POOL = ("1,1", "1,2", "2,3", "1,1,1", "2,4", "2,4,3,7") + RAT_POOL + SIGNED_POOL
# Two sieves per family, each output format twice.  The box sizes (3e4 to
# 9e4 points) give every sieve about the same cost, about 0.4 s of work on
# two x86-64 cores with the numpy kernel backend, so the workload's tail
# sits inside one cluster of like jobs.
SIEVE_SLOTS = (
    ("1,1", "json", 90_000),
    ("1,2", "plain", 45_000),
    ("1/2,1/2", "csv", 65_000),
    ("2/3,3/2", "json", 55_000),
    ("1,-2", "plain", 30_000),
    ("3,-2,-3", "csv", 50_000),
)
FORMATS = ("json", "csv", "plain")

# Largest Moebius depth D scheduled.  The program's mobius_table holds D
# Python-list slots, an int64 array and a sieve: about 27 bytes per entry
# (D = 3e6 peaks near 80 MB).  D = 1e8 would take 68 s and 1.5 GB, so the
# large-N densities wait for the sublinear Mertens counts.
MAX_DEPTH = 3_000_000
MOBIUS_BYTES_PER_ENTRY = 27
# The check jobs keep every factorized gcd at most this many bits: the
# trial-division factorizer sieves up to sqrt(gcd), which stays cheap here.
MAX_GCD_BITS = 44


@dataclass
class Job:
    """One CLI invocation: ``args`` go to ``bvis``; ``expect`` describes the answer."""

    kind: str
    args: list[str]
    expect: dict = field(default_factory=dict)
    # A planted probe of a known defect: its exit 4 is recorded as a
    # refusal, not as a benchmark failure.
    probe: bool = False


def iroot(x: int, k: int) -> int:
    """Exact floor(x ** (1/k)) for x >= 0, independent of the program's own."""
    if x < 2 or k == 1:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


@dataclass(frozen=True)
class Vector:
    """An exponent vector with the benchmark's own reading of the three families."""

    spec: str

    @property
    def fracs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(p) for p in self.spec.split(","))

    @property
    def family(self) -> str:
        if any(f < 0 for f in self.fracs):
            return "signed"
        return "int" if all(f.denominator == 1 for f in self.fracs) else "rat"

    @property
    def alpha(self) -> int:
        return math.lcm(*(f.denominator for f in self.fracs))

    def mobius(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(positions, exponents) of the prime-power condition for invisibility."""
        fr = self.fracs
        if self.family == "int":
            g = math.gcd(*(f.numerator for f in fr))
            return tuple(range(len(fr))), tuple(f.numerator // g for f in fr)
        if self.family == "rat":
            return tuple(range(len(fr))), tuple(f.numerator for f in fr)
        pos = tuple(i for i, f in enumerate(fr) if f < 0)
        return pos, tuple(-fr[i].numerator for i in pos)

    def edges(self, n: int) -> tuple[int, ...]:
        """Box edges for ``--N n``: n itself, or floor(n ** (a_i / alpha)) on the restricted lattice."""
        if self.family == "int":
            return (n,) * len(self.fracs)
        return tuple(iroot(n**f.denominator, self.alpha) for f in self.fracs)

    def depth(self, edges) -> int:
        """D = min over the constrained coordinates of iroot(M_i, e_i)."""
        pos, exps = self.mobius()
        return min(iroot(edges[i], e) for i, e in zip(pos, exps))

    def depth_power(self) -> int:
        """q with depth(edges(x ** q)) == x: the slowest-growing constrained coordinate."""
        pos, exps = self.mobius()
        fr = self.fracs
        return max(self.alpha // fr[i].denominator * e for i, e in zip(pos, exps))

    def exponent_sum(self) -> int:
        return sum(self.mobius()[1])


# ---------------------------------------------------------------- primes


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3e24 with these bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def random_prime(rng: random.Random, bits: int) -> int:
    if bits <= 2:
        return rng.choice((2, 3))
    return next_prime(rng.getrandbits(bits - 1) | (1 << (bits - 1)))


# ---------------------------------------------------------------- helpers


def _n_for_depth(rng: random.Random, vec: Vector, depth: int) -> int:
    """A seeded N whose Moebius depth is exactly ``depth``."""
    q = vec.depth_power()
    lo, hi = depth**q, (depth + 1) ** q
    n = lo + rng.randrange(hi - lo)
    assert vec.depth(vec.edges(n)) == depth
    return n


def _check_memory(depth: int) -> None:
    if depth > MAX_DEPTH:
        raise ValueError(f"Moebius depth {depth} above the benchmark cap {MAX_DEPTH}")
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if depth * MOBIUS_BYTES_PER_ENTRY > ram // 16:
        raise ValueError(f"Moebius depth {depth} needs more than 1/16 of RAM")


def _box_jobs(rng: random.Random, spec: str, depth: int) -> list[Job]:
    """A density job and a count job on the same box: their difference is the zeta cost."""
    _check_memory(depth)
    vec = Vector(spec)
    n = _n_for_depth(rng, vec, depth)
    expect = {"vector": spec, "edges": vec.edges(n)}
    return [
        Job(cmd, [cmd, "--b", spec, "--N", str(n), "--format", rng.choice(FORMATS)], expect)
        for cmd in ("density", "count")
    ]


def _verify_job(rng: random.Random) -> Job:
    # Every workload carries one quick self-check: it touches every layer,
    # so no layer's traced time is structurally zero on any workload.
    return Job("verify", ["verify", "--profile", "quick", "--seed", str(rng.randrange(1000))])


def _jitter(rng: random.Random, base: int) -> int:
    """base, raised by up to 1%."""
    return base + rng.randrange(base // 100 + 1)


# ---------------------------------------------------------------- workloads


def density_large(rng: random.Random) -> list[Job]:
    jobs = []
    # The large box: both candidates reduce to exponents (1,1) on an N x N
    # box, so the seed picks the family without moving the cost.
    jobs += _box_jobs(rng, rng.choice(("1,1", "1/2,1/2")), _jitter(rng, 2_950_000))
    # Every vector of every pool once at D ~ 1e5.
    for spec in INT_POOL + RAT_POOL + SIGNED_POOL:
        jobs += _box_jobs(rng, spec, _jitter(rng, 100_000))
    # Small boxes, one family each, vector picked from the family's pool.
    families = list(POOLS)
    rng.shuffle(families)
    for fam, depth in zip(families, (100, 1_000, 10_000)):
        jobs += _box_jobs(rng, rng.choice(POOLS[fam]), _jitter(rng, depth))
    jobs.append(_verify_job(rng))
    return jobs


def _zeta_job(rng: random.Random, s: int, tol: float, euler: int | None = None) -> Job:
    args = ["zeta", "--s", str(s), "--tol", repr(tol), "--format", rng.choice(FORMATS)]
    if euler is not None:
        args += ["--euler-limit", str(euler)]
    return Job("zeta", args, {"s": s, "tol": tol, "euler": euler})


def _euler_limit(rng: random.Random) -> int:
    return 10_000_000 - rng.randrange(100_000)


def zeta_tight(rng: random.Random) -> list[Job]:
    def tol(base: float) -> float:
        return base * (1 + rng.random() / 10)

    return [
        # The criterion-1 tolerance: a 1e9-term series in the numpy kernel.
        _zeta_job(rng, 2, 1e-9),
        _zeta_job(rng, 2, tol(1e-8)),
        # The other series, each next to an Euler product over the primes
        # below ~1e7, so that these jobs are mostly work, not start-up.
        _zeta_job(rng, 2, tol(1e-7), _euler_limit(rng)),
        *(_zeta_job(rng, s, tol(1e-9), _euler_limit(rng)) for s in (3, 4, 5)),
        _verify_job(rng),
    ]


def _cofactors(rng: random.Random, bits: list[int], p: int, pos, exps) -> list[int]:
    """Random cofactors of the given sizes, none divisible by ``p``, such that
    no prime q != p has q**e_i dividing the cofactor at every position in ``pos``."""
    while True:
        out = [rng.getrandbits(b) | 1 for b in bits]
        out = [c + 1 if c % p == 0 else c for c in out]
        if len(pos) == 1:
            # One constrained coordinate: a prime cofactor (or 1 when e == 1)
            # has no e-th power divisor.
            q = 1 if exps[0] == 1 else random_prime(rng, bits[pos[0]])
            if q != p:
                out[pos[0]] = q
                return out
        elif math.gcd(*(out[i] for i in pos)) == 1:
            return out


def _check_job(rng: random.Random, spec: str, gcd_bits: int, invisible: bool) -> Job:
    """A point whose verdict and witness are known because the witness prime is planted.

    Coordinate i is p**r_i * c_i, and p is the only prime that can certify
    invisibility (see _cofactors).  A visible point lowers one exponent by
    one.  The program factorizes the gcd of the constrained coordinates,
    which is p**min(r) -- or, with one constrained coordinate, that whole
    coordinate -- so its size is held near ``gcd_bits``.
    """
    vec = Vector(spec)
    pos, exps = vec.mobius()
    k = len(vec.fracs)
    single = len(pos) == 1
    p = random_prime(rng, max(2, gcd_bits // (min(exps) + single)))
    powers = [0] * k
    for i, e in zip(pos, exps):
        powers[i] = e
    if not invisible:
        powers[rng.choice(pos)] -= 1
    bits = [rng.randrange(1, 64) for _ in range(k)]
    if single:
        bits[pos[0]] = max(2, gcd_bits - exps[0] * p.bit_length())
    cof = _cofactors(rng, bits, p, pos, exps)
    base = [p**r * c for r, c in zip(powers, cof)]
    point = base
    args = ["check", "--b", spec]
    if vec.family != "int" and rng.random() < 0.5:
        # give the point in expanded lattice coordinates l_i ** (alpha / a_i)
        point = [c ** (vec.alpha // f.denominator) for c, f in zip(base, vec.fracs)]
        args.append("--expanded")
    args += ["--point", ",".join(map(str, point)), "--format", rng.choice(FORMATS)]
    expect = {"vector": spec, "base": tuple(base), "witness": p if invisible else None}
    if invisible and vec.family == "int":
        expect["image"] = tuple(c // p**e for c, e in zip(base, exps))
    return Job("check", args, expect)


def _probe_jobs(rng: random.Random) -> list[Job]:
    """The known factorization defect: both gcds are past the trial-division budget."""
    near_1e17 = next_prime(10**17 + rng.randrange(10**15))
    planted = [(2**61 - 1, (1, 2)), (near_1e17, tuple(_cofactors(rng, [20, 20], near_1e17, (0, 1), (1, 1))))]
    jobs = []
    for p, cof in planted:
        base = tuple(p * c for c in cof)
        args = ["check", "--b", "1,1", "--point", ",".join(map(str, base)), "--format", rng.choice(FORMATS)]
        jobs.append(Job("check", args, {"vector": "1,1", "base": base, "witness": p, "image": cof}, probe=True))
    return jobs


def _sieve_job(rng: random.Random, spec: str, fmt: str, points: int) -> Job:
    k = len(Vector(spec).fracs)
    side = round(points ** (1 / k))
    edges = [rng.randrange(side * 9 // 10, side * 11 // 10) for _ in range(k - 1)]
    edges.append(points // math.prod(edges))
    args = ["sieve", "--b", spec, "--box", ",".join(map(str, edges)), "--format", fmt]
    return Job("sieve", args, {"vector": spec, "edges": tuple(edges)})


def _tiny_count_job(rng: random.Random, spec: str) -> Job:
    edges = tuple(rng.randrange(1, 41) for _ in Vector(spec).fracs)
    args = ["count", "--b", spec, "--box", ",".join(map(str, edges)), "--format", rng.choice(FORMATS)]
    return Job("count", args, {"vector": spec, "edges": edges, "box": True})


def points_small(rng: random.Random) -> list[Job]:
    # Fixed sieve slots: their costs set the tail of this workload, so the
    # seed only moves the box shapes.
    jobs = [_sieve_job(rng, spec, fmt, points) for spec, fmt, points in SIEVE_SLOTS]
    gcd_sizes = (2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, MAX_GCD_BITS)
    for i, bits in enumerate(gcd_sizes):
        jobs.append(_check_job(rng, CHECK_POOL[i % len(CHECK_POOL)], bits, i % 3 != 2))
    for _ in range(4):
        jobs.append(_check_job(rng, rng.choice(CHECK_POOL), rng.choice(gcd_sizes), rng.random() < 0.5))
    all_vectors = INT_POOL + RAT_POOL + SIGNED_POOL
    jobs += [_tiny_count_job(rng, all_vectors[i % len(all_vectors)]) for i in range(10)]
    jobs += _probe_jobs(rng)
    jobs.append(_verify_job(rng))
    return jobs


_BUILDERS = {"density-large": density_large, "zeta-tight": zeta_tight, "points-small": points_small}


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one pass; the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs

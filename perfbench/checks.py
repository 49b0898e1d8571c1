"""Independent checks of every job's output.

Nothing here imports `bvis`.  Exact counts come from the benchmark's own
numpy Moebius sieve or, on small boxes, from marking the divisibility
condition on the whole grid.  zeta values are checked against hard-coded
20-digit constants, and `check` verdicts against the prime the workload
planted.  A check returns None when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

import numpy as np

from workloads import Job, Vector, iroot

# zeta(s) to 20 significant digits.
ZETA = {
    2: Fraction("1.6449340668482264365"),
    3: Fraction("1.2020569031595942854"),
    4: Fraction("1.0823232337111381915"),
    5: Fraction("1.0369277551433699263"),
}
# The 20-digit constants are within this of the true value.
ZETA_DIGITS = Fraction(1, 10**19)
# density_report compares against 1/zeta(s) at this tolerance.
DENSITY_ZETA_TOL = 1e-6


def _primes(limit: int) -> np.ndarray:
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def _mobius(limit: int) -> np.ndarray:
    """mu[0..limit] from prime-factor counts and a squarefree mask."""
    omega = np.zeros(limit + 1, dtype=np.int8)
    squarefree = np.ones(limit + 1, dtype=bool)
    for p in _primes(limit).tolist():
        omega[p::p] += 1
        squarefree[p * p :: p * p] = False
    mu = np.where(squarefree, 1 - 2 * (omega % 2), 0).astype(np.int64)
    mu[0] = 0
    return mu


def mobius_count(edges, exps) -> int:
    """sum_d mu(d) * prod_i floor(M_i / d**e_i), exact, vectorised over d."""
    if any(m == 0 for m in edges):
        return 0
    depth = min(iroot(m, e) for m, e in zip(edges, exps))
    mu = _mobius(depth)
    d = np.flatnonzero(mu)
    small = math.prod(edges) < 2**62
    prod = mu[d] if small else mu[d].astype(object)
    for m, e in zip(edges, exps):
        if m < 2**63:
            # d**e <= m for every d <= depth, so int64 is exact
            quot = m // d**e
        else:
            quot = np.array([m // x**e for x in d.tolist()], dtype=object)
        prod = prod * (quot if small else quot.astype(object))
    return int(prod.sum())


def visible_grid(vec: Vector, edges) -> np.ndarray:
    """Boolean grid over the box: True where no prime p has p**e_i | n_i at every constrained i."""
    pos, exps = vec.mobius()
    grid = np.ones(edges, dtype=bool)
    depth = min(iroot(edges[i], e) for i, e in zip(pos, exps))
    axes = [np.arange(1, m + 1, dtype=np.int64) for m in edges]
    for p in _primes(depth).tolist():
        hit = True
        for i, e in zip(pos, exps):
            shape = [1] * len(edges)
            shape[i] = edges[i]
            hit = hit & (axes[i] % p**e == 0).reshape(shape)
        grid &= ~hit
    return grid


class Reference:
    """Exact answers for the box jobs, computed once per run."""

    def __init__(self):
        self._counts: dict = {}

    def count(self, vec: Vector, edges) -> int:
        key = (vec.spec, tuple(edges))
        if key not in self._counts:
            pos, exps = vec.mobius()
            free = math.prod(m for i, m in enumerate(edges) if i not in pos)
            self._counts[key] = free * mobius_count([edges[i] for i in pos], exps)
        return self._counts[key]


# ---------------------------------------------------------------- parsing


def _cells(text: str):
    """Read the one-record json / csv / plain payload into a dict of strings and values."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    lines = text.splitlines()
    if len(lines) == 2 and ": " not in lines[0]:
        header, row = list(csv.reader(io.StringIO(text)))
        return dict(zip(header, row))
    return dict(line.split(": ", 1) for line in lines)


def _ints(value) -> tuple[int, ...]:
    if isinstance(value, list):
        return tuple(int(v) for v in value)
    return tuple(int(v) for v in str(value).split(","))


def _float(value):
    if value in (None, "", "-"):
        return None
    return float(value)


# ---------------------------------------------------------------- checks


def check_box(job: Job, out: str, ref: Reference) -> str | None:
    vec = Vector(job.expect["vector"])
    edges = tuple(job.expect["edges"])
    fields = _cells(out)
    if _ints(fields["box"]) != edges:
        return f"box {fields['box']} != {edges}"
    want = ref.count(vec, edges)
    visible, total = int(fields["visible"]), int(fields["total"])
    if (visible, total) != (want, math.prod(edges)):
        return f"visible/total {visible}/{total} != {want}/{math.prod(edges)}"
    if job.kind == "count":
        return None
    s = vec.exponent_sum()
    empirical, theoretical = _float(fields["empirical"]), _float(fields["theoretical"])
    if int(fields["exponent_sum"]) != s:
        return f"exponent_sum {fields['exponent_sum']} != {s}"
    if empirical != float(Fraction(want, total)):
        return f"empirical {empirical} is not {want}/{total} rounded"
    if abs(Fraction(theoretical) - 1 / ZETA[s]) > Fraction(DENSITY_ZETA_TOL) + ZETA_DIGITS:
        return f"theoretical {theoretical} not within {DENSITY_ZETA_TOL} of 1/zeta({s})"
    if _float(fields["abs_error"]) != abs(empirical - theoretical):
        return f"abs_error {fields['abs_error']} != |{empirical} - {theoretical}|"
    return None


_PLAIN_ZETA = re.compile(r"zeta\((\d+)\) = (\S+) \(tail <= (\S+), (\d+) terms\)$")
_PLAIN_EULER = re.compile(r"euler product \(p <= (\d+)\): (\S+)$")


def check_zeta(job: Job, out: str) -> str | None:
    s, tol, euler = job.expect["s"], job.expect["tol"], job.expect["euler"]
    lines = out.strip().splitlines()
    match = _PLAIN_ZETA.match(lines[0])
    if match:
        fields = dict(zip(("s", "value", "tail_bound", "terms"), match.groups()))
        if len(lines) > 1:
            limit, product = _PLAIN_EULER.match(lines[1]).groups()
            fields.update(euler_prime_limit=limit, euler_product=product)
    else:
        fields = _cells(out)
    if int(fields["s"]) != s or int(fields["terms"]) < 1:
        return f"s/terms {fields['s']}/{fields['terms']}"
    value, tail = Fraction(float(fields["value"])), Fraction(float(fields["tail_bound"]))
    if not (tail <= Fraction(tol) and value <= ZETA[s] - ZETA_DIGITS and ZETA[s] + ZETA_DIGITS <= value + tail):
        return f"zeta({s}) not in [{float(value)!r}, +{float(tail)!r}] or tail above {tol}"
    if euler is None:
        return None if "euler_product" not in fields else "unrequested euler product"
    product = Fraction(float(fields["euler_product"]))
    # The product over p <= L misses at most zeta(s) * L**(1-s) / (s-1) of
    # zeta(s); 1e-9 covers the float rounding of ~L/log(L) factors.
    gap = ZETA[s] * Fraction(1, euler ** (s - 1) * (s - 1)) + Fraction(1, 10**9)
    if int(fields["euler_prime_limit"]) != euler or not (ZETA[s] - gap <= product <= ZETA[s] + Fraction(1, 10**9)):
        return f"euler product {float(product)!r} for p <= {euler} not within {float(gap):.1e} below zeta({s})"
    return None


def check_point(job: Job, out: str) -> str | None:
    witness = job.expect["witness"]
    text = out.strip()
    if text == "visible":
        got = (None, None)
    elif text.startswith("invisible: witness prime "):
        rest = text[len("invisible: witness prime ") :].split(", image ")
        got = (int(rest[0]), _ints(rest[1]) if len(rest) > 1 else None)
    else:
        fields = _cells(text)
        if _ints(fields["point"]) != job.expect["base"]:
            return f"point {fields['point']} != {job.expect['base']}"
        visible = fields["visible"] in (True, "True")
        prime = fields["witness_prime"]
        image = fields["image"]
        got = (None if prime in (None, "") else int(prime), _ints(image) if image not in (None, "") else None)
        if visible != (witness is None):
            return f"visible={visible}, planted witness {witness}"
    want = (witness, job.expect.get("image"))
    if got != want:
        return f"witness/image {got} != {want}"
    return None


def check_sieve(job: Job, out: str) -> str | None:
    vec = Vector(job.expect["vector"])
    edges = tuple(job.expect["edges"])
    text = out.strip()
    if text.startswith("{"):
        fields = json.loads(text)
        if _ints(fields["box"]) != edges or fields["count"] != len(fields["points"]):
            return f"box/count {fields['box']}/{fields['count']}"
        points = np.array(fields["points"], dtype=np.int64).reshape(-1, len(edges))
    else:
        rows = text.splitlines()
        if rows and rows[0].startswith("x1"):
            rows = rows[1:]
        points = np.array([r.split(",") for r in rows], dtype=np.int64).reshape(-1, len(edges))
    want = np.argwhere(visible_grid(vec, edges)) + 1
    if points.shape != want.shape or not np.array_equal(points, want):
        return f"{len(points)} points listed, {len(want)} visible"
    return None


def check_tiny_count(job: Job, out: str) -> str | None:
    vec = Vector(job.expect["vector"])
    edges = tuple(job.expect["edges"])
    fields = _cells(out)
    want = int(visible_grid(vec, edges).sum())
    got = (_ints(fields["box"]), int(fields["visible"]), int(fields["total"]))
    if got != (edges, want, math.prod(edges)):
        return f"box/visible/total {got} != {(edges, want, math.prod(edges))}"
    return None


_VERIFY_DONE = re.compile(r"(\d+)/(\d+) checks passed \(quick profile\)$")


def check_verify(job: Job, out: str) -> str | None:
    lines = out.strip().splitlines()
    match = _VERIFY_DONE.match(lines[-1]) if lines else None
    if not match or match.group(1) != match.group(2) or any(" FAIL " in line for line in lines):
        return f"verify reported {lines[-1] if lines else 'nothing'}"
    return None


def check(job: Job, out: str, ref: Reference) -> str | None:
    """None when ``out`` is the right answer to ``job``, else why not."""
    try:
        if job.kind in ("density", "count"):
            if job.expect.get("box"):
                return check_tiny_count(job, out)
            return check_box(job, out, ref)
        return {"zeta": check_zeta, "check": check_point, "sieve": check_sieve, "verify": check_verify}[
            job.kind
        ](job, out)
    except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
        return f"unparseable output ({type(exc).__name__}: {exc})"

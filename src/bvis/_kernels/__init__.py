"""Two numpy loops kept as independent references.

``zeta_partial_sum`` sums the zeta series directly; ``bvis.zeta`` does not
call it, and the tests check its Euler-Maclaurin enclosure against it.
``count_visible_box`` marks the divisibility grid of a box (up to 1e7
points) without any Moebius inversion, so ``bvis verify`` and the tests
can check the Moebius counts against it.  numpy is imported by each
function when it runs, so importing the package does not load it.
"""

from __future__ import annotations

_CHUNK = 8_000_000


def zeta_partial_sum(s: int, m: int) -> float:
    """sum(n**-s for n in 1..m), summed tail-first with compensation.

    Tail-first chunk order plus Kahan accumulation across chunks keeps the
    rounding error near one ulp even at m ~ 1e9, where naive head-first
    summation would lose ~1e-8 of mass below the running sum's ulp.
    """
    import numpy as np

    total = 0.0
    comp = 0.0
    hi = m
    while hi > 0:
        lo = max(0, hi - _CHUNK)
        x = np.arange(lo + 1, hi + 1, dtype=np.float64)
        if s == 2:
            chunk_sum = float((1.0 / (x * x)).sum())
        else:
            chunk_sum = float((x ** float(-s)).sum())
        y = chunk_sum - comp
        t = total + y
        comp = (t - total) - y
        total = t
        hi = lo
    return total


def count_visible_box(edges, prime_powers) -> int:
    """Count points n in [1,e1]x...x[1,ek] not divisible by any witness row.

    ``prime_powers`` is a sequence of k-tuples; a point is excluded when
    some row q satisfies q[i] | n[i] for every coordinate.  Direct grid
    marking — deliberately independent of Moebius inversion so the two
    counting routes can check each other.
    """
    import numpy as np

    edges = tuple(int(e) for e in edges)
    k = len(edges)
    if any(e <= 0 for e in edges):
        return 0
    visible = np.ones(edges, dtype=bool)
    for row in prime_powers:
        mask = None
        for i in range(k):
            vec = (np.arange(1, edges[i] + 1, dtype=np.int64) % int(row[i])) == 0
            shape = [1] * k
            shape[i] = edges[i]
            v = vec.reshape(shape)
            mask = v if mask is None else (mask & v)
        if mask is not None:
            visible &= ~mask
    return int(np.count_nonzero(visible))

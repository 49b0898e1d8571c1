"""One numpy loop kept as an independent reference.

``zeta_partial_sum`` sums the zeta series directly; ``bvis.zeta`` does not
call it, and the tests check its Euler-Maclaurin enclosure against it.
numpy is imported when it runs, so importing the package does not load it.
"""

from __future__ import annotations

# Grid marking lives in bvis.counting, in pure Python.  The name stays
# here only because perfbench/tracing.py traces bvis._kernels.count_visible_box.
from ..counting import count_visible_box  # noqa: F401

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

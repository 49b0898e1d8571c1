"""Loop kernels: compiled core with a numpy fallback.

Two loops live here: the zeta partial sums and brute-force box
enumeration (up to 1e7 points).  ``bvis.zeta`` no longer calls the partial
sums; they remain as an independent reference the tests compare its
Euler–Maclaurin enclosure against.  Both are implemented twice with
identical semantics:

* ``bvis._kernels._core`` — Cython extension built by setup.py
* ``bvis._kernels._fallback`` — numpy implementation, always available

The compiled core is preferred when importable.  Set ``BVIS_PURE_KERNELS=1``
to force the fallback (used by the benchmark and backend-agreement tests).
"""

import os

from . import _fallback

if os.environ.get("BVIS_PURE_KERNELS") == "1":
    _impl = _fallback
    BACKEND = "python"
else:
    try:
        from . import _core as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        _impl = _fallback
        BACKEND = "python"

zeta_partial_sum = _impl.zeta_partial_sum
count_visible_box = _impl.count_visible_box

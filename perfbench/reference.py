"""Closed-form modulus of convexity of lp, the reference for the geometry
workload. Pure Python, so the check shares no code with the solver it checks.

- p >= 2: delta(eps) = 1 - (1 - (eps/2)^p)^(1/p)  (Clarkson 1936)
- 1 < p < 2: delta solves (1 - delta + eps/2)^p + |1 - delta - eps/2|^p = 2
  (Hanner 1956), found by bisection. The left side falls as delta rises, so
  the root in [0, 1] is unique. At eps = 2 it is a double root, delta = 1,
  which bisection would only find to about 1e-8, so it is returned directly.
"""

from __future__ import annotations


def modulus_reference(p: float, eps: float) -> float:
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got {p}")
    if not (0.0 <= eps <= 2.0):
        raise ValueError(f"eps must lie in [0, 2], got {eps}")
    half = eps / 2.0
    if p >= 2.0:
        return 1.0 - max(1.0 - half**p, 0.0) ** (1.0 / p)
    if eps == 2.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (1.0 - mid + half) ** p + abs(1.0 - mid - half) ** p > 2.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

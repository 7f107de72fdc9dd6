"""Asymptotic center of an orbit tail over the tail-dominating constraint set.

The objective is the finite-tail surrogate f(y) = max_n ||x_n - y|| of a
limit-superior radius (an upper approximation that becomes exact for a
convergent tail), minimized over { y : y >= componentwise sup of the tail }.
That constraint set realizes the intersection of the dominating half-spaces
exactly because the orthant is strongly minihedral and the orbit increases.
On it the minimizer has a closed form: the supremum corner itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from orderfp.order import ConeSpec, sup_finite, _member_raw
from orderfp.space import SpaceSpec, as_rows, as_vector, _row_norms


@dataclass
class AsymCenterProblem:
    """Orbit tail plus the componentwise supremum that bounds the feasible set."""

    tail: np.ndarray          # (m, dim)
    cone: ConeSpec
    space: SpaceSpec
    lower_bound: np.ndarray   # componentwise sup of the tail (orthant only)


def make_problem(tail, cone: ConeSpec, space: SpaceSpec) -> AsymCenterProblem:
    """The problem over ``tail``; ``sup_finite`` gives its bound and errors."""
    lower_bound = sup_finite(cone, tail)
    return AsymCenterProblem(tail=as_rows(tail, cone.dim), cone=cone, space=space, lower_bound=lower_bound)


def problem_from_orbit(points, cone: ConeSpec, space: SpaceSpec, tail_from: int | None = None) -> AsymCenterProblem:
    """Build the problem from recorded orbit points; the default tail is the
    second half of the trajectory."""
    pts = as_rows(points, space.dim)
    if tail_from is None:
        tail_from = pts.shape[0] // 2
    if not (0 <= tail_from < pts.shape[0]):
        raise ValueError(f"tail offset {tail_from} out of range for {pts.shape[0]} points")
    return make_problem(pts[tail_from:], cone, space)


def asymptotic_radius(problem: AsymCenterProblem, y) -> float:
    """Finite surrogate max_n ||x_n - y|| over the stored tail."""
    yv = as_vector(y, dim=problem.cone.dim)
    return float(_row_norms(problem.space, (problem.tail - yv)[None]).max())


def center_feasible(problem: AsymCenterProblem, z, tol: float = 1e-9) -> bool:
    """Every tail point must be dominated by the center."""
    zv = as_vector(z, dim=problem.cone.dim)
    return bool(_member_raw(problem.cone, zv - problem.tail, tol).all())


@dataclass
class AsymCenterResult:
    z: np.ndarray
    r: float                   # attained objective value
    iterations: int            # always 0: the center is in closed form
    certified_lower_bound: float
    gap: float                 # r - certified lower bound


def solve_asym_center(problem: AsymCenterProblem) -> AsymCenterResult:
    """Minimize the tail radius over { y >= lower_bound }: the minimizer is
    the lower bound lb itself.

    Feasible points dominate every tail point componentwise, so for y >= lb
    >= x_n one has |y_i - x_ni| >= |lb_i - x_ni| in every coordinate, and the
    lp norm is monotone in the absolute coordinates: f(y) >= f(lb). The
    radius at lb is therefore attained and certified at once, with gap 0.
    """
    lb = problem.lower_bound
    r = asymptotic_radius(problem, lb)
    return AsymCenterResult(
        z=lb.copy(),
        r=r,
        iterations=0,
        certified_lower_bound=r,
        gap=0.0,
    )


"""Asymptotic-radius objective and the constrained center solver."""

import math

import numpy as np
import pytest

from orderfp import corpus
from orderfp.asymcenter import (
    asymptotic_radius,
    center_feasible,
    make_problem,
    problem_from_orbit,
    solve_asym_center,
)
from orderfp.iterate import IterationConfig, picard_orbit
from orderfp.mapping import sample_domain_point
from orderfp.order import ConeSpec, UnsupportedConeOperation, leq, sup_finite
from orderfp.space import SpaceSpec, as_vector, norm

ORTH2 = ConeSpec(kind="orthant", dim=2)
P2 = SpaceSpec(dim=2, p=2.0)


def fixed_point_residual(spec, space, z):
    # ||Tz - z|| in the space's norm, as `orderfp asym-center --map` reports it
    return norm(space, spec.op.evaluate(z) - z)


def affine_problem():
    rec = picard_orbit(corpus.affine_contraction(2), [0.0, 0.0], P2)
    return rec, problem_from_orbit(rec.points, ORTH2, P2)


class TestRadius:
    def test_constant_tail(self):
        star = np.array([1.0, 2.0])
        problem = make_problem([star, star, star], ORTH2, P2)
        assert asymptotic_radius(problem, star) == 0.0
        y = np.array([4.0, 2.0])
        assert asymptotic_radius(problem, y) == norm(P2, star - y)

    def test_two_point_tail(self):
        problem = make_problem([np.zeros(2), np.ones(2)], ORTH2, P2)
        assert abs(asymptotic_radius(problem, np.ones(2)) - math.sqrt(2.0)) < 1e-15

    def test_convexity_sampled(self):
        _, problem = affine_problem()
        rng = np.random.default_rng(0)
        for _ in range(200):
            y1, y2 = rng.normal(size=2), rng.normal(size=2)
            t = rng.uniform()
            lhs = asymptotic_radius(problem, t * y1 + (1 - t) * y2)
            rhs = t * asymptotic_radius(problem, y1) + (1 - t) * asymptotic_radius(problem, y2)
            assert lhs <= rhs + 1e-9


class TestProblemConstruction:
    def test_empty_tail_rejected(self):
        with pytest.raises(ValueError):
            make_problem([], ORTH2, P2)

    def test_ragged_tail_names_the_first_bad_row(self):
        # np.asarray alone fails with "inhomogeneous shape"
        with pytest.raises(ValueError, match=r"^dimension mismatch: expected 2, got 3$"):
            make_problem([[1, 2], [1, 2, 3]], ORTH2, P2)

    def test_lorentz_rejected(self):
        with pytest.raises(UnsupportedConeOperation):
            make_problem([np.zeros(3)], ConeSpec(kind="lorentz", dim=3), SpaceSpec(dim=3, p=2.0))

    @pytest.mark.parametrize(
        "tail, kind, error",
        [([], "orthant", ValueError), ([np.zeros(3)], "lorentz", UnsupportedConeOperation),
         ([], "lorentz", UnsupportedConeOperation)],
        ids=["empty", "lorentz", "empty-lorentz"],
    )
    def test_errors_are_those_of_sup_finite(self, tail, kind, error):
        # the cone is checked before the tail, as before the bound came from sup_finite
        cone = ConeSpec(kind=kind, dim=3)
        with pytest.raises(error) as want:
            sup_finite(cone, tail)
        with pytest.raises(error) as got:
            make_problem(tail, cone, SpaceSpec(dim=3, p=2.0))
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_lower_bound_dominates_tail(self):
        rng = np.random.default_rng(1)
        tail = rng.uniform(0.0, 2.0, size=(20, 2))
        problem = make_problem(tail, ORTH2, P2)
        assert np.array_equal(problem.lower_bound, tail.max(axis=0))
        assert np.array_equal(problem.lower_bound, sup_finite(ORTH2, tail))
        assert all(leq(ORTH2, q, problem.lower_bound) for q in tail)

    def test_tail_offset_default_and_range(self):
        rec, _ = affine_problem()
        problem = problem_from_orbit(rec.points, ORTH2, P2)
        assert problem.tail.shape[0] == rec.points.shape[0] - rec.points.shape[0] // 2
        with pytest.raises(ValueError):
            problem_from_orbit(rec.points, ORTH2, P2, tail_from=len(rec.points))

    def test_ragged_orbit_names_the_bad_row(self):
        with pytest.raises(ValueError, match="dimension mismatch: expected 2, got 3"):
            problem_from_orbit([[1, 2], [1, 2, 3]], ORTH2, P2, tail_from=0)


class TestSolver:
    def test_constant_tail_center(self):
        star = np.array([1.5, 0.5])
        problem = make_problem([star] * 4, ORTH2, P2)
        res = solve_asym_center(problem)
        assert np.allclose(res.z, star, atol=1e-12)
        assert res.r <= 1e-12
        assert res.gap <= 1e-12

    def test_sup_of_tail_is_the_center(self):
        problem = make_problem([np.zeros(2), np.ones(2)], ORTH2, P2)
        res = solve_asym_center(problem)
        assert np.allclose(res.z, np.ones(2), atol=1e-12)
        assert abs(res.r - math.sqrt(2.0)) < 1e-12

    def test_affine_orbit_center_matches_linear_solve(self):
        rec, problem = affine_problem()
        res = solve_asym_center(problem)
        assert norm(P2, res.z - np.array([2.0, 2.0])) <= 1e-5
        assert fixed_point_residual(corpus.affine_contraction(2), P2, res.z) <= 1e-6
        assert res.gap <= 1e-9
        assert res.r >= res.certified_lower_bound
        assert res.r == asymptotic_radius(problem, res.z)

    def test_output_feasible(self):
        _, problem = affine_problem()
        res = solve_asym_center(problem)
        assert center_feasible(problem, res.z, tol=1e-9)

    def test_radius_not_increased_by_map_at_center(self):
        _, problem = affine_problem()
        spec = corpus.affine_contraction(2)
        res = solve_asym_center(problem)
        f_z = asymptotic_radius(problem, res.z)
        f_tz = asymptotic_radius(problem, spec.op.evaluate(res.z))
        assert f_tz <= f_z + 1e-9

    def test_midpoint_cannot_beat_center(self):
        _, problem = affine_problem()
        spec = corpus.affine_contraction(2)
        res = solve_asym_center(problem)
        mid = 0.5 * (res.z + spec.op.evaluate(res.z))
        if center_feasible(problem, mid, tol=1e-9):
            assert asymptotic_radius(problem, mid) >= asymptotic_radius(problem, res.z) - 1e-9

    def test_dominating_corner_certifies_at_iteration_zero(self):
        # y >= lb >= x_n forces f(y) >= f(lb): the start is already optimal
        rng = np.random.default_rng(2)
        tail = rng.uniform(0.0, 1.0, size=(8, 2))
        problem = make_problem(tail, ORTH2, P2)
        res = solve_asym_center(problem)
        assert res.iterations == 0
        assert res.gap == 0.0
        assert np.array_equal(res.z, problem.lower_bound)
        # brute-force corroboration on a feasible grid
        for da in np.linspace(0.0, 1.0, 7):
            for db in np.linspace(0.0, 1.0, 7):
                y = problem.lower_bound + np.array([da, db])
                assert asymptotic_radius(problem, y) >= res.r - 1e-12


class TestCenterVerification:
    def test_affine_center_is_fixed(self):
        _, problem = affine_problem()
        spec = corpus.affine_contraction(2)
        res = solve_asym_center(problem)
        assert fixed_point_residual(spec, P2, res.z) <= 1e-6

    def test_perturbed_center_rejected(self):
        _, problem = affine_problem()
        spec = corpus.affine_contraction(2)
        res = solve_asym_center(problem)
        assert fixed_point_residual(spec, P2, res.z + np.array([0.1, 0.0])) > 1e-6

    def test_constant_orbit_center_fixed(self):
        spec = corpus.constant_map([1.0, 1.0])
        rec = picard_orbit(spec, [0.0, 0.0], P2)
        problem = problem_from_orbit(rec.points, ORTH2, P2)
        res = solve_asym_center(problem)
        assert fixed_point_residual(spec, P2, res.z) <= 1e-9
        assert np.allclose(res.z, [1.0, 1.0], atol=1e-12)

    def test_residual_is_measured_in_the_space_norm(self):
        # 13-point orbit of x -> x/2 + 1 from 0, tail from index 6: the
        # center's residual is 2^-12 per coordinate, 3.45e-4 in l2 but
        # 3.88e-4 in l1.5, so at tol 3.6e-4 the l1.5 center is not fixed
        spec = corpus.affine_contraction(2)
        rec = picard_orbit(spec, [0.0, 0.0], P2, IterationConfig(max_iter=12))
        assert len(rec) == 13
        p15 = SpaceSpec(dim=2, p=1.5)
        res = solve_asym_center(make_problem(rec.points[6:], ORTH2, p15))
        assert fixed_point_residual(spec, p15, res.z) > 3.6e-4
        assert fixed_point_residual(spec, P2, res.z) <= 3.6e-4


# reference oracles: the point-by-point radius and feasibility checks, kept
# verbatim so the row-wise versions can be held to the same values


def reference_asymptotic_radius(problem, y):
    yv = as_vector(y, dim=problem.cone.dim)
    return max(norm(problem.space, x - yv) for x in problem.tail)


def reference_center_feasible(problem, z, tol=1e-9):
    return all(leq(problem.cone, x, z, tol=tol) for x in problem.tail)


class TestRowChecks:
    @pytest.mark.parametrize(
        "spec",
        [corpus.affine_contraction(2), corpus.truncation_cap(2), corpus.box_drift_down(2),
         corpus.steep_step_map(), corpus.unit_translation(2)],
        ids=["affine_contraction", "truncation", "box_drift_down", "lattice", "expanding"],
    )
    def test_match_point_by_point_reference(self, spec):
        # orbit tails of 1, 7 and 200 points from sampled starts, seeds 0-29,
        # p in {1.5, 2}; probes at the corner, above it, below it and at random
        cone = spec.domain.cone
        infeasible = 0
        for p in (1.5, 2.0):
            space = SpaceSpec(dim=spec.dim, p=p)
            for seed in range(30):
                rng = np.random.default_rng(seed)
                x0 = sample_domain_point(spec, rng, scale=2.0)
                for n in (1, 7, 200):
                    cfg = IterationConfig(max_iter=max(n - 1, 1), bound_threshold=1e12)
                    tail = picard_orbit(spec, x0, space, cfg).points[:n]
                    problem = make_problem(tail, cone, space)
                    lb = problem.lower_bound
                    for y in (lb, lb + rng.uniform(0.0, 1.0, spec.dim), lb - rng.uniform(0.0, 1e-8, spec.dim),
                              lb - 1e-10, rng.normal(0.0, 3.0, spec.dim), tail[0]):
                        assert asymptotic_radius(problem, y) == reference_asymptotic_radius(problem, y)
                        for tol in (0.0, 1e-9):
                            want = reference_center_feasible(problem, y, tol)
                            assert center_feasible(problem, y, tol) is want
                            infeasible += not want
        assert infeasible > 0

    def test_same_errors(self):
        problem = make_problem([np.zeros(2), np.ones(2)], ORTH2, P2)
        for fn, ref in ((asymptotic_radius, reference_asymptotic_radius),
                        (center_feasible, reference_center_feasible)):
            for y in ([1.0], [np.inf, 0.0], [[1.0, 1.0]]):
                with pytest.raises(ValueError) as got:
                    fn(problem, y)
                with pytest.raises(ValueError) as want:
                    ref(problem, y)
                assert str(got.value) == str(want.value)

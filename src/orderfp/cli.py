"""Command-line front end: modulus profiles, cone diagnostics, mapping checks,
Picard orbit generation, center solving, and the verification suites."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from orderfp.asymcenter import problem_from_orbit, solve_asym_center
from orderfp.harness import SUITES, run_suites, summary_table
from orderfp.iterate import IterationConfig, picard_orbit, read_orbit_points, write_orbit_csv
from orderfp.mapping import (
    SamplerConfig,
    classify_hilbert_classes,
    domain_contains,
    is_alpha_nonexpansive,
    is_monotone,
    is_monotone_nonexpansive,
    load_mapping,
)
from orderfp.order import (
    ConeSpec,
    MEMBERSHIP_TOL,
    _dominated_pair_checks,
    _member_raw,
)
from orderfp.space import SpaceSpec, convexity_profile, norm


def _cmd_modulus(args) -> int:
    space = SpaceSpec(dim=args.dim, p=args.p)
    profile = convexity_profile(space, n_grid=args.eps_grid)
    lines = ["epsilon,delta"]
    lines += [f"{float(e)!r},{float(d)!r}" for e, d in zip(profile.epsilons, profile.deltas)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(profile.epsilons)} grid points to {args.out}")
    else:
        print(text, end="")
    print(f"characteristic of convexity (grid estimate): {profile.eps0!r}", file=sys.stderr)
    return 0


def _cmd_order_check(args) -> int:
    cone = ConeSpec(kind=args.cone, dim=args.dim)
    space = SpaceSpec(dim=args.dim, p=args.p)
    gamma, mono = _dominated_pair_checks(cone, space, args.samples, args.seed)  # one draw; refuses a seed < 0
    print(f"cone                 : {cone.kind} (dim={cone.dim}, p={space.p})")
    print(f"normality estimate   : {gamma!r} (sampled lower bound)")
    print(f"monotonic norm       : {mono.verdict}")
    if not mono.passed:
        print(f"  witness: {mono.violations[0].describe()}")
    return 0 if mono.passed else 1


def _cmd_check_mapping(args) -> int:
    spec = load_mapping(args.map)
    space = SpaceSpec(dim=spec.dim, p=args.p)
    cfg = SamplerConfig(n_samples=args.samples, seed=args.seed)

    reports = [
        is_monotone(spec, cfg),
        is_monotone_nonexpansive(spec, space, cfg),
        is_alpha_nonexpansive(spec, space, args.alpha, cfg),
    ]
    if space.p == 2.0:
        reports.extend(classify_hilbert_classes(spec, space, cfg).values())

    width = max(len(r.name) for r in reports)
    for r in reports:
        extra = f" (alpha={r.alpha})" if r.alpha is not None else ""
        print(f"{r.name:<{width}} : {r.verdict}{extra}  [{r.samples} samples, {len(r.violations)} violations]")
        if r.violations:
            print(f"  witness: {r.violations[0].describe()}")
    if args.json:
        payload = [
            {
                "property": r.name,
                "alpha": r.alpha,
                "samples": r.samples,
                "verdict": r.verdict,
                "violations": [
                    {"x": v.x.tolist(), "y": v.y.tolist(), "lhs": v.lhs, "rhs": v.rhs, "scale": v.scale}
                    for v in r.violations
                ],
            }
            for r in reports
        ]
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0 if all(r.passed for r in reports) else 1


def _parse_vector(text: str, spec) -> np.ndarray:
    # the --x0 point of the map, or a ValueError that names the cause
    try:
        x0 = np.zeros(spec.dim) if text == "zero" else np.asarray([float(tok) for tok in text.split(",")])
        cause = (f"has {x0.size} coordinates" if x0.size != spec.dim
                 else "has non-finite coordinates" if not np.isfinite(x0).all()
                 else "" if domain_contains(spec.domain, x0) else "lies outside the map's domain")
    except ValueError as exc:
        cause = f"is not a list of numbers: {exc}"
    if cause:
        raise ValueError(f"--x0 {text!r} {cause}; the map is {spec.dim}-D")
    return x0


def _cmd_iterate(args) -> int:
    spec = load_mapping(args.map)
    space = SpaceSpec(dim=spec.dim, p=args.p)
    x0 = _parse_vector(args.x0, spec)
    cfg = IterationConfig(
        max_iter=args.max_iter,
        residual_tol=args.residual_tol,
        bound_threshold=args.bound_threshold,
    )
    record = picard_orbit(spec, x0, space, cfg)
    write_orbit_csv(record, args.out)
    print(
        f"picard orbit: {len(record)} points, verdict={record.verdict}, "
        f"order={record.order_monotone}, final residual={float(record.residuals[-1])!r}"
    )
    return 0


def _cmd_asym_center(args) -> int:
    if not 0.0 < args.fixed_tol < np.inf:  # inf would call every centre fixed, and nan none
        raise ValueError(f"--fixed-tol must be a finite number > 0, got {args.fixed_tol}")
    points = read_orbit_points(args.orbit)
    dim = points.shape[1]
    cone = ConeSpec(kind="orthant", dim=dim)
    space = SpaceSpec(dim=dim, p=args.p)
    problem = problem_from_orbit(points, cone, space, args.tail_from)
    ascends = _member_raw(cone, np.diff(problem.tail, axis=0), MEMBERSHIP_TOL)
    if not ascends.all():
        k = args.tail_from + int(np.argmin(ascends)) + 1
        raise ValueError(f"the tail's supremum is its centre only if it ascends: point {k} is not >= point {k - 1}")
    spec = load_mapping(args.map) if args.map else None
    result = solve_asym_center(problem)
    z = result.z
    residual = norm(space, spec.op.evaluate(z) - z) if spec is not None else float("nan")
    lines = [
        f"tail points          : {problem.tail.shape[0]} (from index {args.tail_from})",
        f"center z             : {np.array2string(z, precision=10)}",
        f"attained radius r    : {result.r!r}",
        f"certified lower bound: {result.certified_lower_bound!r}",
        f"optimality gap       : {result.gap!r}",
        f"fixed-point residual : {residual!r}",
    ]
    if spec is not None:
        lines.append(f"center fixed (tol {args.fixed_tol}) : {residual <= args.fixed_tol}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def _cmd_verify(args) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    config = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    reports, _ = run_suites(suites, config, seed=args.seed, out_dir=args.out)
    text = summary_table(reports)
    print(text, end="")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderfp",
        description="Fixed-point iteration and order-geometry experiments in lp spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mod = sub.add_parser("modulus", help="tabulate the modulus of convexity")
    p_mod.add_argument("--p", type=float, required=True)
    p_mod.add_argument("--eps-grid", type=int, default=101, help="number of grid points on [0, 2]")
    p_mod.add_argument("--dim", type=int, default=2)
    p_mod.add_argument("--out", type=str, default=None, help="CSV output path (default: stdout)")
    p_mod.set_defaults(func=_cmd_modulus)

    p_order = sub.add_parser("order", help="cone order diagnostics")
    order_sub = p_order.add_subparsers(dest="order_command", required=True)
    p_check = order_sub.add_parser("check", help="run the cone diagnostics table")
    p_check.add_argument("--cone", choices=["orthant", "lorentz"], required=True)
    p_check.add_argument("--dim", type=int, required=True)
    p_check.add_argument("--samples", type=int, default=500)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--p", type=float, default=2.0)
    p_check.set_defaults(func=_cmd_order_check)

    p_map = sub.add_parser("check-mapping", help="run mapping-class verifiers on a mapping file")
    p_map.add_argument("--map", type=str, required=True, help="mapping JSON file")
    p_map.add_argument("--p", type=float, default=2.0)
    p_map.add_argument("--alpha", type=float, default=0.0)
    p_map.add_argument("--samples", type=int, default=500)
    p_map.add_argument("--seed", type=int, default=0)
    p_map.add_argument("--json", type=str, default=None, help="also write the reports as JSON")
    p_map.set_defaults(func=_cmd_check_mapping)

    p_it = sub.add_parser("iterate", help="generate a Picard orbit as CSV")
    p_it.add_argument("--map", type=str, required=True)
    p_it.add_argument("--x0", type=str, default="zero", help='"zero" or comma-separated coordinates')
    p_it.add_argument("--out", type=str, required=True)
    p_it.add_argument("--p", type=float, default=2.0)
    p_it.add_argument("--max-iter", type=int, default=100_000)
    p_it.add_argument("--residual-tol", type=float, default=1e-10)
    p_it.add_argument("--bound-threshold", type=float, default=1e8)
    p_it.set_defaults(func=_cmd_iterate)

    p_ac = sub.add_parser("asym-center", help="solve the asymptotic-center problem for an orbit CSV")
    p_ac.add_argument("--orbit", type=str, required=True, help="orbit CSV written by `iterate`")
    p_ac.add_argument("--tail-from", type=int, required=True)
    p_ac.add_argument("--out", type=str, default=None, help="write the report to this file")
    p_ac.add_argument("--map", type=str, default=None, help="mapping JSON for the fixed-point residual")
    p_ac.add_argument("--p", type=float, default=2.0)
    p_ac.add_argument("--fixed-tol", type=float, default=1e-6)
    p_ac.set_defaults(func=_cmd_asym_center)

    p_ver = sub.add_parser("verify", help="run the verification suites")
    p_ver.add_argument("--suite", choices=list(SUITES) + ["all"], required=True)
    p_ver.add_argument("--config", type=str, default=None, help="JSON config file")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", type=str, required=True, help="output directory")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # a bad input: a file that cannot be read, or a refused value
        print(str(exc).replace("\n", " "), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

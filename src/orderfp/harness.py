"""Campaign-style verification suites: generate scenarios, run orbits, solve
centers, and assert the existence/convergence claims; emit CSV and text
reports.

Verdict aggregation is conjunctive: a campaign passes only if every one of
its sub-checks passes. All randomness flows from per-trial seeds derived from
the root seed, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import numbers
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from orderfp import corpus, iterate
from orderfp.asymcenter import (
    asymptotic_radius,
    center_feasible,
    problem_from_orbit,
    solve_asym_center,
)
from orderfp.iterate import (
    CONVERGED,
    IterationConfig,
    MAX_ITER_REACHED,
    OrbitRecord,
    UNBOUNDED_SUSPECTED,
    check_orbit_monotone,
    picard_orbit,
)
from orderfp.mapping import (
    Domain,
    GridMap,
    GridSearchConfig,
    MappingSpec,
    SamplerConfig,
    TranslationMap,
    _section,
    apply_map,
    domain_contains,
    fixed_point_oracle,
    is_alpha_nonexpansive,
    is_monotone_nonexpansive,
    mapping_from_dict,
    sample_domain_point,
    _affine_fixed_points,
)
from orderfp.order import NORM_MONOTONE_TOL, ConeSpec, leq, is_norm_monotonic, _member_raw
from orderfp.space import SpaceSpec, as_vector, norm, _row_norms

SUITES = ("t32", "t33", "t34", "t41-44", "c45-46")

CENTER_RESIDUAL_TOL = 1e-6
CENTER_FEAS_TOL = 1e-9
LIMIT_RESIDUAL_TOL = 1e-8
DESCENT_TOL = 1e-9

FINITE_DIM_CAVEAT = (
    "finite-dimensional run: weak and norm convergence coincide, so weak-limit "
    "claims are checked as norm limits"
)

# campaign default: desk-scale corpus maps blow up by about one unit per step,
# so a small norm ceiling keeps the growth detector fast
CAMPAIGN_ITERATION = IterationConfig(max_iter=200_000, bound_threshold=1e4)

# starts sampled by the below/above x0 policies; the scale doubles every 100
X0_TRIES = 400


class HypothesisError(RuntimeError):
    """A scenario violates the hypotheses of the claim under test."""


@dataclass
class Scenario:
    sid: str
    space: SpaceSpec
    map: MappingSpec
    alpha: float = 0.0
    x0_policy: str = "zero"  # zero | below | above | explicit
    x0: np.ndarray | None = None
    expected: str = "unknown"  # fixed_point_exists | no_fixed_point | unknown
    seed: int = 0
    grid_cfg: GridSearchConfig | None = None

    def __post_init__(self):
        # refused by field name when built, so that a bad config entry stops a run before any suite
        for name, known in (("x0_policy", ("zero", "below", "above", "explicit")),
                            ("expected", ("fixed_point_exists", "no_fixed_point", "unknown"))):
            if getattr(self, name) not in known:
                raise ValueError(f"config field {name} needs one of {', '.join(known)}, got {getattr(self, name)!r}")
        if not -np.inf < self.alpha < 1.0:
            raise ValueError(f"config field alpha needs a finite number < 1, got {self.alpha!r}")
        if self.seed < 0:
            raise ValueError(f"config field seed needs an integer >= 0, got {self.seed!r}")
        if self.grid_cfg is not None and self.grid_cfg.lo.size != self.map.dim:
            raise ValueError(f"config field grid is {self.grid_cfg.lo.size}-D, but the map is {self.map.dim}-D")
        if (self.x0 is None) == (self.x0_policy == "explicit"):
            raise ValueError(f"config field x0 is needed exactly when x0_policy is 'explicit', got x0 {self.x0!r}")
        try:
            self.x0 = None if self.x0 is None else as_vector(self.x0, dim=self.map.dim)
        except ValueError as exc:
            raise ValueError(f"config field x0: {exc}") from None

    @property
    def cone(self) -> ConeSpec:
        """The order of every check: the map's domain cone."""
        return self.map.domain.cone


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class CampaignReport:
    campaign: str
    scenario_id: str
    checks: list[CheckResult] = field(default_factory=list)
    caveats: list[str] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name=name, passed=bool(passed), detail=detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counts(self) -> tuple[int, int]:
        good = sum(1 for c in self.checks if c.passed)
        return good, len(self.checks) - good


def resolve_x0(scn: Scenario) -> np.ndarray:
    """Produce the starting point demanded by the scenario policy; sampled
    policies verify the order relation against T x0 before the run."""
    spec = scn.map
    if scn.x0_policy in ("explicit", "zero"):
        x0 = scn.x0 if scn.x0_policy == "explicit" else np.zeros(spec.dim)
        if not domain_contains(spec.domain, x0):
            raise HypothesisError(f"{scn.sid}: {scn.x0_policy} start outside the domain")
        return x0
    rng = np.random.default_rng(scn.seed)
    for attempt in range(X0_TRIES):
        scale = float(2 ** (attempt // 100))
        x = sample_domain_point(spec, rng, scale=scale)
        tx = apply_map(spec, x)
        if scn.x0_policy == "below" and leq(scn.cone, x, tx):
            return x
        if scn.x0_policy == "above" and leq(scn.cone, tx, x):
            return x
    raise HypothesisError(f"{scn.sid}: could not sample an x0 with the requested order")


def _settled(run, n: int, cfg: IterationConfig) -> list:
    """Orbits 0, ..., n-1 by ``run(indices, cfg)``, which gives each one's
    record or verdict; an inconclusive budget exhaustion is retried once
    with a ten-fold budget before being reported as such. A ``nonfinite`` orbit
    is not retried: a bigger budget cannot undo an overflow."""
    out = run(range(n), cfg)
    again = [i for i, r in enumerate(out) if MAX_ITER_REACHED in (r, getattr(r, "verdict", None))]
    if again:
        bigger = dataclasses.replace(cfg, max_iter=cfg.max_iter * 10, bound_threshold=cfg.bound_threshold * 10)
        for i, record in zip(again, run(again, bigger)):
            out[i] = record
    return out


_shared: dict | None = None  # in a `run_suites` call, its distinct settled orbits and fixed-point sets


def _once(keys: list, scn: Scenario, compute) -> list:
    # each key's value, its arrays read-only: compute(todo) gives those of the distinct keys not yet computed,
    # in order; a run keeps each key's first value, and the entry keeps scn.map, keyed by id, alive
    shared = {} if _shared is None else _shared
    todo = list(dict.fromkeys(k for k in keys if k not in shared))
    for key, value in zip(todo, compute(todo) if todo else ()):
        for a in vars(value).values() if isinstance(value, OrbitRecord) else value or ():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        shared[key] = scn.map, value
    return [shared[k][1] for k in keys]


def _settled_orbits(scn: Scenario, starts: list, cfg: IterationConfig) -> list[OrbitRecord]:
    # the settled orbits of scn.map from ``starts``: those a run has not yet computed as one batch
    keys = [("orbit", id(scn.map), x0.tobytes(), scn.space, cfg) for x0 in starts]

    def run(todo, c):  # a lone start by picard_orbit, which a traced run counts
        xs = [starts[keys.index(key)] for key in todo]
        return ([picard_orbit(scn.map, xs[0], scn.space, cfg=c)] if len(xs) == 1
                else iterate._orbit([scn.map] * len(xs), xs, scn.space, c))

    return _once(keys, scn, lambda todo: _settled(lambda idx, c: run([todo[i] for i in idx], c), len(todo), cfg))


def _settled_orbit(scn: Scenario, x0: np.ndarray, cfg: IterationConfig) -> OrbitRecord:
    return _settled_orbits(scn, [x0], cfg)[0]


def _fixed_points(scn: Scenario) -> list | None:
    g = scn.grid_cfg  # fixed_point_oracle(scn.map, scn.space, g), as a list of the caller's own
    fps = _once([("fixed points", id(scn.map), scn.space, g and (g.lo.tobytes(), g.hi.tobytes(), g.points_per_axis))],
                scn, lambda todo: [fixed_point_oracle(scn.map, scn.space, g)])[0]
    return None if fps is None else list(fps)


def _class_hypothesis(rep: CampaignReport, scn: Scenario, samples: int) -> bool:
    cfg = SamplerConfig(n_samples=samples, seed=scn.seed)
    exhaustive = isinstance(scn.map.op, GridMap)
    class_rep = is_alpha_nonexpansive(scn.map, scn.space, scn.alpha, cfg, exhaustive=exhaustive)
    rep.add("hypothesis_alpha_class", class_rep.passed, class_rep.summary())
    return class_rep.passed


def _center_checks(
    rep: CampaignReport,
    scn: Scenario,
    record: OrbitRecord,
    direction: str,
) -> np.ndarray:
    """Solve the asymptotic-center problem for a bounded monotone orbit and run
    the fixed-point, feasibility, and radius checks. Descending orbits are
    handled by reflecting through the origin (the orthant is symmetric)."""
    sign = 1.0 if direction == "up" else -1.0
    problem = problem_from_orbit(sign * record.points, scn.cone, scn.space)
    result = solve_asym_center(problem)
    z = sign * result.z
    tz = apply_map(scn.map, z)
    residual = norm(scn.space, tz - z)
    rep.add(
        "center_is_fixed",
        residual <= CENTER_RESIDUAL_TOL,
        f"residual={residual!r}",
    )
    rep.add(
        "center_feasible",
        center_feasible(problem, result.z, tol=CENTER_FEAS_TOL),
        f"tail of {problem.tail.shape[0]} points vs center",
    )
    rep.add("solver_gap", result.gap <= 1e-6, f"gap={result.gap!r}")
    f_z = asymptotic_radius(problem, result.z)
    f_tz = asymptotic_radius(problem, sign * tz)
    rep.add(
        "radius_not_increased_by_map",
        f_tz <= f_z + 1e-9,
        f"f(Tz)={f_tz!r} f(z)={f_z!r}",
    )
    mid = 0.5 * (result.z + sign * tz)
    if center_feasible(problem, mid, tol=1e-9):
        f_mid = asymptotic_radius(problem, mid)
        rep.add("midpoint_radius_optimal", f_mid >= f_z - 1e-9, f"f(mid)={f_mid!r}")
    return z


def _descent_check(
    rep: CampaignReport, scn: Scenario, record: OrbitRecord, x0: np.ndarray, direction: str
) -> None:
    """If the independent search finds a fixed point on the far side of x0,
    the distance sequence to it must be non-increasing from ||x0 - z||."""
    fps = _fixed_points(scn)
    if fps is None:
        rep.caveats.append("no bounded search region: converse descent check skipped")
        return
    if direction == "up":
        candidates = [z for z in fps if leq(scn.cone, x0, z, tol=1e-9)]
        tag = "dominating"
    else:
        candidates = [z for z in fps if leq(scn.cone, z, x0, tol=1e-9)]
        tag = "dominated"
    if not candidates:
        rep.add(f"descent_vacuous_no_{tag}_fixed_point", True, f"{len(fps)} fixed points found")
        return
    z = candidates[0]
    bound = norm(scn.space, x0 - z) + DESCENT_TOL
    worst = float(_row_norms(scn.space, (record.points - z)[None]).max())
    rep.add(
        f"descent_from_{tag}_fixed_point",
        worst <= bound,
        f"max distance {worst!r} vs start {bound!r}",
    )


def _existence_campaign(
    scn: Scenario, direction: str, iter_cfg: IterationConfig, samples: int
) -> CampaignReport:
    suite = "t32" if direction == "up" else "t33"
    rep = CampaignReport(suite, scn.sid)
    x0 = resolve_x0(scn)
    tx0 = apply_map(scn.map, x0)
    ordered = leq(scn.cone, x0, tx0) if direction == "up" else leq(scn.cone, tx0, x0)
    rep.add(
        "hypothesis_start_ordered",
        ordered,
        f"x0 and Tx0 ordered {'upward' if direction == 'up' else 'downward'}",
    )
    if not ordered:
        return rep
    if not _class_hypothesis(rep, scn, samples):
        return rep

    record = _settled_orbit(scn, x0, iter_cfg)
    chain = check_orbit_monotone(record, scn.cone)
    if direction == "up":
        rep.add("orbit_chain_ascending", chain.increasing, f"first violation: {chain.first_up_violation}")
    else:
        rep.add("orbit_chain_descending", chain.decreasing, f"first violation: {chain.first_down_violation}")

    if record.verdict == CONVERGED:
        if scn.expected == "no_fixed_point":
            rep.add("expected_unbounded", False, "orbit converged but no fixed point was expected")
        z = _center_checks(rep, scn, record, direction)
        if direction == "up":
            rep.add("x0_dominated_by_center", leq(scn.cone, x0, z, tol=1e-9))
        else:
            rep.add("x0_dominates_center", leq(scn.cone, z, x0, tol=1e-9))
    elif record.verdict == UNBOUNDED_SUSPECTED:
        rep.add(
            "existence_branch_vacuous",
            scn.expected != "fixed_point_exists",
            f"orbit flagged unbounded after {len(record)} points",
        )
    else:
        rep.add("orbit_conclusive", False, f"verdict={record.verdict}: neither converged nor unbounded")
        return rep

    _descent_check(rep, scn, record, x0, direction)
    return rep


def verify_ascending_existence(
    scn: Scenario, iter_cfg: IterationConfig | None = None, samples: int = 300
) -> CampaignReport:
    """Ascending-start scenario: a bounded ascending orbit must yield a fixed
    center dominating the start; a dominating fixed point forces descent."""
    return _existence_campaign(scn, "up", iter_cfg or CAMPAIGN_ITERATION, samples)


def verify_descending_existence(
    scn: Scenario, iter_cfg: IterationConfig | None = None, samples: int = 300
) -> CampaignReport:
    """Dual campaign for descending starts and dominated fixed points."""
    return _existence_campaign(scn, "down", iter_cfg or CAMPAIGN_ITERATION, samples)


# ---------------------------------------------------------------------------
# zero-orbit equivalence family


@dataclass(frozen=True)
class FamilyConfig:
    dims: tuple[int, ...] = (2, 5, 20)
    rhos: tuple[float, ...] = (0.5, 0.8, 0.95, 1.0)
    n_per_cell: int = 3
    translations_per_dim: int = 2
    include_identity_edge: bool = True

    def __post_init__(self):
        # checked here, naming the field: t34 draws each cell as one stack, where such a value
        # would fail the whole cell with numpy's error; a plan of no trial would pass vacuously
        for dim in self.dims:
            if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
                raise ValueError(f"config field family.dims needs positive integers, got {dim!r}")
        for rho in self.rhos:
            if isinstance(rho, bool) or not isinstance(rho, numbers.Real) or not 0 <= rho <= sys.float_info.max:
                raise ValueError(f"config field family.rhos needs finite numbers >= 0, got {rho!r}")
        for name in ("n_per_cell", "translations_per_dim"):
            if getattr(self, name) < 0:
                raise ValueError(f"config field family.{name} needs an integer >= 0, got {getattr(self, name)!r}")
        trials = len(self.dims) * (len(self.rhos) * self.n_per_cell + self.translations_per_dim)
        if trials + self.include_identity_edge == 0:
            raise ValueError("config section family plans no trial")


@dataclass
class TrialRow:
    trial: str
    family: str
    dim: int
    rho: float
    verdict: str
    bounded: bool
    oracle_nonempty: bool
    agree: bool


def verify_zero_orbit_equivalence(
    family_cfg: FamilyConfig | None = None,
    seed: int = 0,
    iter_cfg: IterationConfig | None = None,
) -> tuple[CampaignReport, list[TrialRow]]:
    """Generated cone self-maps: the bounded-orbit verdict from 0 must match
    nonemptiness of the independently computed fixed-point set, trial by
    trial. Budget exhaustion is escalated once and otherwise fails the trial.
    """
    family_cfg = family_cfg or FamilyConfig()
    iter_cfg = iter_cfg or CAMPAIGN_ITERATION
    rows: list[TrialRow] = []
    rep = CampaignReport("t34", "zero_orbit_family")

    plan: list[tuple[str, int, float]] = []  # (family, dim, rho) of each trial
    for dim in family_cfg.dims:
        plan += [("contractive", dim, rho) for rho in family_cfg.rhos for _ in range(family_cfg.n_per_cell)]
        plan += [("translation", dim, 1.0)] * family_cfg.translations_per_dim
    if family_cfg.include_identity_edge:
        plan.append(("identity_edge", 2, 1.0))

    # the trials of one (family, dim) cell draw their maps, run their orbits
    # from 0 and solve for their fixed points as one stack each
    for (family, dim), cell in itertools.groupby(enumerate(plan), key=lambda t: t[1][:2]):
        cell = list(cell)
        space, cone = SpaceSpec(dim=dim, p=2.0), ConeSpec(kind="orthant", dim=dim)
        rngs = [np.random.default_rng(seed * 1_000_003 + counter) for counter, _ in cell]
        if family == "contractive":  # the first trial that draws no map raises, as one by one
            specs = corpus.random_nonneg_affine(dim, [rho for _, (_, _, rho) in cell], rngs)
        elif family == "translation":
            domain = Domain(kind="cone", cone=cone)  # a shift >= 0.5 maps the cone into itself
            specs = [MappingSpec(TranslationMap(rng.uniform(0.5, 1.5, size=dim)), domain) for rng in rngs]
        else:
            specs = [corpus.identity_map(dim) for _ in rngs]

        def run(idx, cfg):  # the cell's orbits from 0, one batch, verdicts only
            batch, zeros = [specs[i] for i in idx], np.zeros((len(idx), dim))
            return iterate._orbit(batch, zeros, space, cfg, verdicts=True)

        solved = _affine_fixed_points(specs)  # the oracle's affine route, as one stack
        verdicts = _settled(run, len(specs), iter_cfg)
        for (counter, (_, _, rho)), verdict, found in zip(cell, verdicts, solved):
            trial_id = f"trial_{counter:03d}"
            if found is None:  # a degenerate system off the minimum-norm solution, with no grid to scan
                rep.caveats.append(f"{trial_id}: no route decides its fixed-point set without a search grid")
            nonempty, bounded = bool(found), verdict == CONVERGED
            # an inconclusive or nonfinite orbit, or an undecided fixed-point set, is a failed trial
            agree = found is not None and verdict in (CONVERGED, UNBOUNDED_SUSPECTED) and bounded == nonempty
            rows.append(TrialRow(trial_id, family, dim, rho, verdict, bounded, nonempty, agree))

    contractive, translation, edge = (
        [r.agree for r in rows if r.family == fam] for fam in ("contractive", "translation", "identity_edge")
    )
    rep.add("bounded_regime_agreement", all(contractive), f"{len(contractive)} contractive trials")
    rep.add("unbounded_regime_agreement", all(translation), f"{len(translation)} translation trials")
    if family_cfg.include_identity_edge:
        rep.add("identity_edge_agreement", all(edge), "identity map from 0")
    rep.add("total_trials_counted", len(rows) == len(plan), f"{len(rows)} trials")
    return rep, rows


# ---------------------------------------------------------------------------
# norm-convergence campaigns


def verify_norm_convergence(
    scn: Scenario, iter_cfg: IterationConfig | None = None, samples: int = 300
) -> CampaignReport:
    """Convergence of monotone bounded orbits under a monotonic norm.

    Checks: the orbit converges in norm to a fixed z; for starts ordered
    against 0 the norm sequence is monotone and converges to the norm of the
    limit; the limit sits on the expected order side of the orbit.
    """
    iter_cfg = iter_cfg or CAMPAIGN_ITERATION
    rep = CampaignReport("t41-44", scn.sid)
    rep.caveats.append(FINITE_DIM_CAVEAT)
    x0 = resolve_x0(scn)
    tx0 = apply_map(scn.map, x0)
    if leq(scn.cone, x0, tx0):
        direction = "up"
    elif leq(scn.cone, tx0, x0):
        direction = "down"
    else:
        rep.add("hypothesis_start_ordered", False, "x0 and Tx0 are incomparable")
        return rep
    rep.add("hypothesis_start_ordered", True, f"direction={direction}")
    if not _class_hypothesis(rep, scn, samples):
        return rep
    mono = is_norm_monotonic(scn.cone, scn.space, n_samples=samples, seed=scn.seed)
    rep.add("hypothesis_norm_monotonic", mono.passed, mono.summary())
    if not mono.passed:
        return rep

    record = _settled_orbit(scn, x0, iter_cfg)
    if record.verdict != CONVERGED:
        rep.add("hypothesis_bounded_orbit", False, f"verdict={record.verdict}")
        return rep
    rep.add("hypothesis_bounded_orbit", True, f"{len(record)} points")

    fps = _fixed_points(scn)
    last = record.points[-1]
    if fps:
        z = min(fps, key=lambda q: norm(scn.space, q - last))
    else:
        sign = 1.0 if direction == "up" else -1.0
        problem = problem_from_orbit(sign * record.points, scn.cone, scn.space)
        z = sign * solve_asym_center(problem).z
    residual = norm(scn.space, apply_map(scn.map, z) - z)
    rep.add("limit_is_fixed", residual <= LIMIT_RESIDUAL_TOL, f"residual={residual!r}")
    gap = norm(scn.space, last - z)
    rep.add("orbit_reaches_limit", gap <= LIMIT_RESIDUAL_TOL, f"terminal distance={gap!r}")

    # every orbit point against z at once: pt <= z iff z - pt is in the cone
    dominating = bool(_member_raw(scn.cone, z - record.points, 1e-9).all())
    if direction == "up":
        rep.add("limit_dominates_orbit", dominating)
    else:
        dominated = bool(_member_raw(scn.cone, record.points - z, 1e-9).all())
        rep.add(
            "limit_on_an_order_side",
            dominated or dominating,
            f"dominated={dominated} dominating={dominating}",
        )
        rep.caveats.append(
            "descending runs: the dominated side is the informative one; both sides are recorded"
        )

    zero = np.zeros(scn.map.dim)
    strong_up = direction == "up" and leq(scn.cone, zero, x0)
    strong_down = direction == "down" and leq(scn.cone, x0, zero)
    if strong_up or strong_down:
        drops = np.diff(record.norms)
        rep.add(
            "norm_sequence_monotone",
            bool(np.all(drops >= -NORM_MONOTONE_TOL)),
            f"worst step={float(drops.min()) if drops.size else 0.0!r}",
        )
        nz = norm(scn.space, z)
        rep.add(
            "norm_sequence_limit",
            abs(record.norms[-1] - nz) <= 1e-8 and record.norms[-1] <= nz + 1e-8,
            f"terminal norm={float(record.norms[-1])!r} vs limit norm={nz!r}",
        )
    return rep


def verify_cone_convergence(
    scn: Scenario,
    iter_cfg: IterationConfig | None = None,
    samples: int = 300,
) -> CampaignReport:
    """Cone-domain maps with a nonempty fixed-point set: the orbit from 0
    converges to a fixed point; for nonexpansive maps the orbits from up to 4
    sampled x with x <= Tx (in 400 draws) converge too and stay dominated by
    ||x|| in distance from the zero orbit."""
    iter_cfg = iter_cfg or CAMPAIGN_ITERATION
    rep = CampaignReport("c45-46", scn.sid)
    if scn.map.domain.kind != "cone":
        raise HypothesisError(f"{scn.sid}: cone-domain campaign on a {scn.map.domain.kind} domain")
    if not _class_hypothesis(rep, scn, samples):
        return rep
    mono = is_norm_monotonic(scn.cone, scn.space, n_samples=samples, seed=scn.seed)
    rep.add("hypothesis_norm_monotonic", mono.passed, mono.summary())
    fps = _fixed_points(scn)
    if not fps:
        raise HypothesisError(f"{scn.sid}: empty or unavailable fixed-point set")
    rep.add("hypothesis_fixed_points_exist", True, f"{len(fps)} found")

    zero = np.zeros(scn.map.dim)
    rec0 = _settled_orbit(scn, zero, iter_cfg)
    rep.add("zero_orbit_converges", rec0.verdict == CONVERGED, f"verdict={rec0.verdict}")
    if rec0.verdict != CONVERGED:
        return rep
    z0 = rec0.points[-1]
    res0 = norm(scn.space, apply_map(scn.map, z0) - z0)
    rep.add("zero_orbit_limit_fixed", res0 <= LIMIT_RESIDUAL_TOL, f"residual={res0!r}")
    nearest = float(_row_norms(scn.space, (z0 - np.asarray(fps))[None]).min())
    rep.add("zero_limit_near_oracle", nearest <= 1e-5, f"distance={nearest!r}")

    if scn.alpha == 0.0:
        mne = is_monotone_nonexpansive(scn.map, scn.space, SamplerConfig(samples, scn.seed))
        rep.add("hypothesis_nonexpansive", mne.passed, mne.summary())
        if not mne.passed:
            return rep
        rng = np.random.default_rng(scn.seed + 101)
        starts, tries = [], 0
        while len(starts) < 4 and tries < 400:
            tries += 1
            x = sample_domain_point(scn.map, rng, scale=1.5)
            if leq(scn.cone, x, apply_map(scn.map, x)):
                starts.append(x)
        for found, (x, recx) in enumerate(zip(starts, _settled_orbits(scn, starts, iter_cfg)), 1):
            ok_conv = recx.verdict == CONVERGED
            zx = recx.points[-1]
            resx = norm(scn.space, apply_map(scn.map, zx) - zx) if ok_conv else float("inf")
            steps = np.arange(max(len(rec0), len(recx)))
            norm_x = norm(scn.space, x)
            # converged tails are stationary to residual tolerance, so the
            # shorter record is extended by its last point
            gaps = (
                rec0.points[np.minimum(steps, len(rec0) - 1)]
                - recx.points[np.minimum(steps, len(recx) - 1)]
            )
            dominated = bool((_row_norms(scn.space, gaps[None]) <= norm_x + 1e-9).all())
            rep.add(
                f"ascending_start_{found}_converges",
                ok_conv and resx <= LIMIT_RESIDUAL_TOL,
                f"residual={resx!r}",
            )
            rep.add(
                f"ascending_start_{found}_dominated",
                dominated,
                f"||x||={norm_x!r} over {len(steps)} steps",
            )
        rep.add("sampled_ascending_starts", bool(starts), f"{len(starts)} starts in {tries} tries")
    return rep


# ---------------------------------------------------------------------------
# suite runner: scenario registry, config, report files


def _scn(sid, spec, seed, x0=None, grid=None, expected="fixed_point_exists", **kw) -> Scenario:
    # a registry scenario in l2 over the map's dimension; an x0 makes the
    # start explicit, and grid = (lo, hi) bounds a 7-point-per-axis oracle grid
    if x0 is not None:
        kw.update(x0_policy="explicit", x0=x0)
    if grid is not None:
        lo, hi = (np.full(spec.dim, bound) for bound in grid)
        kw["grid_cfg"] = GridSearchConfig(lo=lo, hi=hi, points_per_axis=7)
    space = SpaceSpec(dim=spec.dim, p=2.0)
    return Scenario(sid, space, spec, expected=expected, seed=seed, **kw)


def default_scenarios(seed: int) -> dict[str, list[Scenario]]:
    """The shipped scenario corpus, seed-parameterized."""
    contraction, constant = corpus.affine_contraction(2), corpus.constant_map([1.0, 1.0])
    truncation, drift, steep = corpus.truncation_cap(2), corpus.box_drift_down(2), corpus.steep_step_map()
    random5 = corpus.random_nonneg_affine(5, 0.8, np.random.default_rng(seed + 7))
    return {
        "t32": [
            _scn("affine_contraction", contraction, seed),
            _scn("constant", constant, seed + 1),
            _scn("truncation", truncation, seed + 2, grid=(0.0, 3.0)),
            _scn("steep_step", steep, seed + 3, x0=[0.0], alpha=corpus.STEEP_STEP_ALPHA),
            _scn("random_contraction_d5", random5, seed + 4),
            _scn("translation", corpus.unit_translation(2), seed + 5, expected="no_fixed_point"),
        ],
        "t33": [
            _scn("affine_from_above", contraction, seed + 10, x0=[5.0, 5.0]),
            _scn("constant_from_above", constant, seed + 11, x0=[3.0, 3.0]),
            _scn("truncation_from_above", truncation, seed + 12, x0=[3.0, 3.0], grid=(0.0, 3.0)),
            _scn("box_drift_down", drift, seed + 13, x0=[-1.0, -1.0], grid=(-3.0, 0.0)),
        ],
        "t41-44": [
            _scn("affine_up_from_zero", contraction, seed + 20),
            _scn("affine_down", contraction, seed + 21, x0=[5.0, 5.0]),
            _scn("box_drift_down", drift, seed + 22, x0=[-1.0, -1.0], grid=(-3.0, 0.0)),
            _scn("truncation_fixed_start", truncation, seed + 23, grid=(0.0, 3.0)),
            _scn("constant_from_zero", constant, seed + 24),
            _scn("steep_step", steep, seed + 25, x0=[0.0], alpha=corpus.STEEP_STEP_ALPHA),
        ],
        "c45-46": [
            _scn("affine_contraction", contraction, seed + 30),
            _scn("truncation", truncation, seed + 31, grid=(0.0, 3.0)),
            _scn("box_clamp", corpus.box_clamp(2), seed + 32, grid=(0.0, 2.0)),
        ],
    }


@dataclass(frozen=True)
class ScenarioEntry:
    """The scalar values of a config scenario; its map, space, grid and x0 are read apart."""

    id: str = "config_scenario"
    alpha: float = 0.0
    x0_policy: str = "zero"
    expected: str = "unknown"
    seed: int = 0


def scenario_from_dict(d: dict, seed: int) -> Scenario:
    """Scenario from a config entry, its values read by ``_section``; the space's dimension and
    the order come from the map, and a ``space.dim`` that differs is rejected."""
    e = _section(d, None, ScenarioEntry(seed=seed))
    spec = mapping_from_dict(d.get("map"))
    space = _section(d, "space", SpaceSpec(dim=spec.dim, p=2.0))
    if space.dim != spec.dim:
        raise ValueError(f"config field space.dim is {space.dim!r}, but the map is {spec.dim}-D")
    grid_cfg = _section(d, "grid", GridSearchConfig(np.zeros(spec.dim), np.zeros(spec.dim))) if "grid" in d else None
    if grid_cfg is not None and not {"lo", "hi"} <= d["grid"].keys():
        raise ValueError(f"config field grid needs lo and hi, got {d['grid']!r}")
    return Scenario(e.id, space, spec, e.alpha, e.x0_policy, d.get("x0"), e.expected, e.seed, grid_cfg)


@dataclass(frozen=True)
class RunConfig:
    """The top-level values of a verify config, as ``_section`` reads them."""

    samples: int = 300  # of each sampled hypothesis check
    replace_scenarios: bool = False  # config scenarios replace the shipped ones, instead of joining them

    def __post_init__(self):
        if self.samples < 1:  # a check of no sample would pass vacuously
            raise ValueError(f"config field samples needs an integer >= 1, got {self.samples!r}")


_CAMPAIGNS = {
    "t32": verify_ascending_existence,
    "t33": verify_descending_existence,
    "t41-44": verify_norm_convergence,
    "c45-46": verify_cone_convergence,
}


def run_suites(
    suites, config: dict, seed: int, out_dir
) -> tuple[list[CampaignReport], list[TrialRow]]:
    """Run the requested suites and return all campaign reports plus the
    family trial rows. The whole config is read first: a bad value raises a ValueError that
    names it before any suite runs. Hypothesis aborts become failed checks with the diagnosis
    recorded, so a corrupted scenario fails its report instead of crashing the run."""
    if seed < 0:  # it seeds numpy's generators; a config scenario's seed defaults to it
        raise ValueError(f"seed must be >= 0, got {seed}")
    run = _section(config, None, RunConfig())
    iter_cfg = _section(config, "iteration", CAMPAIGN_ITERATION)
    family_cfg = _section(config, "family", FamilyConfig())
    given = config.get("scenarios", {})
    if not isinstance(given, dict):
        raise ValueError(f"config field scenarios needs a JSON object, got {given!r}")
    for suite, entries in given.items():
        if suite not in _CAMPAIGNS or not isinstance(entries, list):
            raise ValueError(f"config field scenarios.{suite} needs a suite of {', '.join(_CAMPAIGNS)} and a JSON list")
    extra = {suite: [scenario_from_dict(d, seed) for d in entries] for suite, entries in given.items()}
    # t34 builds its own family; the registry is only built when used
    registry = default_scenarios(seed) if set(suites) - {"t34"} else {}

    global _shared
    reports, trial_rows, _shared = [], [], {}  # the campaigns of this run share orbits and fixed-point sets
    verbose = os.environ.get("ORDERFP_VERBOSE", "") not in ("", "0")

    def keep(rep: CampaignReport) -> None:  # with ORDERFP_VERBOSE, a report's checks once its campaign returns
        reports.append(rep)
        for c in rep.checks if verbose else ():
            print(f"    [{'ok' if c.passed else 'FAIL'}] {rep.campaign}/{rep.scenario_id}/{c.name} {c.detail}")

    try:
        for suite in suites:
            if verbose:
                print(f"suite {suite}:")
            if suite == "t34":
                rep, rows = verify_zero_orbit_equivalence(family_cfg, seed=seed, iter_cfg=iter_cfg)
                keep(rep)
                trial_rows.extend(rows)
                continue
            scenarios = ([] if run.replace_scenarios else registry.get(suite, [])) + extra.get(suite, [])
            campaign = _CAMPAIGNS[suite]
            for scn in scenarios:
                try:
                    rep = campaign(scn, iter_cfg, run.samples)
                except HypothesisError as exc:
                    rep = CampaignReport(suite, scn.sid)
                    rep.add("hypothesis", False, f"aborted: {exc}")
                keep(rep)
    finally:
        _shared = None
    _write_reports(out_dir, suites, reports, trial_rows)
    return reports, trial_rows


def _write_reports(out_dir, suites, reports: list[CampaignReport], trial_rows: list[TrialRow]) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for suite in suites:
        rows = [r for r in reports if r.campaign == suite]
        with (out / f"{suite}_checks.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["suite", "scenario", "check", "passed", "detail"])
            for rep in rows:
                for c in rep.checks:
                    writer.writerow([suite, rep.scenario_id, c.name, int(c.passed), c.detail])
    if trial_rows:
        with (out / "t34_trials.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            names = [f.name for f in dataclasses.fields(TrialRow)]
            writer.writerow(names)
            for t in trial_rows:
                values = [getattr(t, name) for name in names]
                writer.writerow([int(v) if isinstance(v, bool) else v for v in values])
    (out / "summary.txt").write_text(summary_table(reports), encoding="utf-8")


def summary_table(reports: list[CampaignReport]) -> str:
    """Deterministic text table: one line per scenario plus caveats and totals."""
    lines = [f"{'suite':<10} {'scenario':<28} {'checks':>6} {'failed':>6}  verdict"]
    total = failed = 0
    for rep in reports:
        good, bad = rep.counts
        total += good + bad
        failed += bad
        verdict = "PASS" if rep.passed else "FAIL"
        lines.append(f"{rep.campaign:<10} {rep.scenario_id:<28} {good + bad:>6} {bad:>6}  {verdict}")
        for cv in rep.caveats:
            lines.append(f"           note: {cv}")
        for c in rep.checks:
            if not c.passed:
                lines.append(f"           failed: {c.name}  {c.detail}")
    lines.append("")
    verdict = "ALL PASS" if failed == 0 else f"{failed} FAILED"
    lines.append(f"TOTAL: {total} checks, {failed} failed -> {verdict}")
    lines.append("")
    return "\n".join(lines)

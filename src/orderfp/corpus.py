"""Shipped example mappings used by the tests and verification campaigns. Each is a
self-map of its domain by construction, for the reason its docstring states; only maps
read from outside (``mapping_from_dict``) take the sampled self-map check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from orderfp.mapping import (
    AffineMap,
    BoxProjectionMap,
    CompositionMap,
    Domain,
    GridMap,
    MappingSpec,
    TranslationMap,
    TruncationMap,
)
from orderfp.order import ConeSpec
from orderfp.space import SpaceSpec


def _cone_domain(dim: int) -> Domain:
    return Domain(kind="cone", cone=ConeSpec(kind="orthant", dim=dim))


def identity_map(dim: int = 2) -> MappingSpec:
    """x -> x: a self-map of every domain."""
    return MappingSpec(AffineMap(matrix=np.eye(dim), offset=np.zeros(dim)), _cone_domain(dim))


def constant_map(value) -> MappingSpec:
    """x -> value: a self-map of the orthant, as value >= 0 is refused otherwise."""
    v = np.asarray(value, dtype=float)
    if not (v >= 0.0).all():
        raise ValueError(f"value must be >= 0, got {value}")
    return MappingSpec(AffineMap(matrix=np.zeros((v.size, v.size)), offset=v), _cone_domain(v.size))


def affine_contraction(dim: int = 2) -> MappingSpec:
    """x -> x/2 + 1; fixed point at 2 in every coordinate; a self-map, as the matrix and offset are >= 0."""
    return MappingSpec(AffineMap(matrix=0.5 * np.eye(dim), offset=np.ones(dim)), _cone_domain(dim))


def unit_translation(dim: int = 2) -> MappingSpec:
    """x -> x + 1: monotone isometry with no fixed point (unbounded orbits); a self-map, as 1 >= 0."""
    return MappingSpec(TranslationMap(shift=np.ones(dim)), _cone_domain(dim))


def truncation_cap(dim: int = 2, cap: float = 1.5) -> MappingSpec:
    """x -> min(x, cap): every point below the cap is fixed; a self-map, as a cap < 0 is refused."""
    if not cap >= 0.0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    return MappingSpec(TruncationMap(cap=np.full(dim, cap)), _cone_domain(dim))


def box_clamp(dim: int = 2, hi: float = 1.0) -> MappingSpec:
    """Orthogonal projection onto [0, hi]^dim, as a self-map of the cone, which holds the box."""
    return MappingSpec(BoxProjectionMap(lo=np.zeros(dim), hi=np.full(dim, hi)), _cone_domain(dim))


def box_drift_down(dim: int = 2, step: float = 0.5, floor: float = -3.0) -> MappingSpec:
    """Shift down by ``step`` and clamp into the box [floor, 0]^dim, the domain: a self-map.

    Every orbit decreases to the box floor; orbits started at x0 <= 0 satisfy
    T x0 <= x0 <= 0, the descending-orbit hypothesis shape.
    """
    lo = np.full(dim, floor)
    hi = np.zeros(dim)
    op = CompositionMap(
        stages=[TranslationMap(shift=np.full(dim, -step)), BoxProjectionMap(lo=lo, hi=hi)]
    )
    return MappingSpec(op, Domain(kind="box", cone=ConeSpec(kind="orthant", dim=dim), lo=lo, hi=hi))


def steep_step_map() -> MappingSpec:
    """Lattice map on {0, 0.5, ..., 3}: zero below the top node, 1.5 at it, both nodes: a self-map.

    Monotone, and fails plain nonexpansiveness across the jump (the images of
    2.5 and 3 are 1.5 apart); the weighted squared-distance inequality holds
    for every alpha >= 0.2106, in particular at the shipped alpha = 1/3. Both
    facts are machine-verified by exhaustive lattice brute force in the tests.
    """
    values = np.zeros((7, 1))
    values[6, 0] = 1.5
    op = GridMap(origin=np.zeros(1), step=0.5, values=values)
    domain = Domain(kind="box", cone=ConeSpec(kind="orthant", dim=1), lo=np.zeros(1), hi=np.full(1, 3.0))
    return MappingSpec(op, domain)


STEEP_STEP_ALPHA = 1.0 / 3.0

# random_nonneg_affine: the largest spectral radius kept, and draws before giving up
SPECTRAL_CAP = 0.995
MATRIX_DRAWS = 50


def random_nonneg_affine(dim: int, rho, rng):
    """Random entrywise non-negative affine map with ||A||_2 = rho and an offset
    drawn from the cone, so a self-map of the orthant by construction (no sampled check).

    Draws are rejected while the spectral radius sits above ``SPECTRAL_CAP``,
    keeping generated maps inside the regime where a finite-budget bounded
    or unbounded verdict is reliable. Given lists of rhos and generators: the
    list of maps, each drawn as alone, with stacked norms and eigvals. A
    negative rho raises ``ValueError`` before any draw, and the first trial
    that draws no map raises ``RuntimeError``.
    """
    if isinstance(rng, np.random.Generator):
        return random_nonneg_affine(dim, [rho], [rng])[0]
    out, domain, rhos, pending = [None] * len(rng), _cone_domain(dim), np.array(rho), list(range(len(rng)))
    if (rhos < 0.0).any():
        raise ValueError(f"rho must be >= 0, got {rho[int(np.argmax(rhos < 0.0))]}")
    for _ in range(MATRIX_DRAWS):
        if not pending:
            break
        m = np.array([rng[i].uniform(0.0, 1.0, size=(dim, dim)) for i in pending])
        sigma, r = np.linalg.norm(m, 2, axis=(1, 2)), rhos[pending]
        with np.errstate(all="ignore"):  # sigma = 0 is rejected below
            a = r[:, None, None] * m / sigma[:, None, None]
        # the spectral radius is at most ||a||_2 = rho: below the cap, no test
        done, test = sigma > 0.0, (sigma > 0.0) & ~(r <= SPECTRAL_CAP - 1e-9)
        if test.any():  # a non-finite matrix (rho nan or inf) raises here
            done[test] = np.abs(np.linalg.eigvals(a[test])).max(axis=-1) <= SPECTRAL_CAP
        # a non-negative matrix and offset map the orthant into itself, in floats too
        for j in np.flatnonzero(done).tolist():
            out[pending[j]] = MappingSpec(AffineMap(a[j], rng[pending[j]].uniform(0.0, 1.0, size=dim)), domain)
        pending = [i for i, d in zip(pending, done) if not d]
    if pending:
        raise RuntimeError(f"could not draw a spectral-radius-capped map at rho={rho[pending[0]]}")
    return out


@dataclass(frozen=True)
class CorpusEntry:
    """A shipped map with the space it lives in and a class parameter alpha
    at which the weighted inequality is expected to hold."""

    name: str
    spec: MappingSpec
    space: SpaceSpec
    alpha: float


def alpha_corpus() -> list[CorpusEntry]:
    """The shipped mapping corpus. The identity entry carries a negative
    alpha (the inequality is an identity there for any alpha), and the
    lattice entry is the alpha > 0 map that is not nonexpansive."""
    return [
        CorpusEntry("identity", identity_map(2), SpaceSpec(dim=2, p=2.0), alpha=-0.5),
        CorpusEntry("affine_contraction", affine_contraction(2), SpaceSpec(dim=2, p=2.0), alpha=0.0),
        CorpusEntry("truncation", truncation_cap(2), SpaceSpec(dim=2, p=2.0), alpha=0.0),
        CorpusEntry("translation", unit_translation(2), SpaceSpec(dim=2, p=2.0), alpha=0.0),
        CorpusEntry("box_clamp", box_clamp(2), SpaceSpec(dim=2, p=2.0), alpha=0.0),
        CorpusEntry("box_drift_down", box_drift_down(2), SpaceSpec(dim=2, p=2.0), alpha=0.0),
        CorpusEntry("steep_step", steep_step_map(), SpaceSpec(dim=1, p=2.0), alpha=STEEP_STEP_ALPHA),
    ]

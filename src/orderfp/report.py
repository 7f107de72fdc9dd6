"""Pass/fail reports with recomputable witnesses, shared by all verifiers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Violation:
    """One failed sample: the pair and both sides of the violated inequality,
    in units of ``scale**2`` (norms past the float range are squared scaled)."""

    x: np.ndarray
    y: np.ndarray
    lhs: float
    rhs: float
    scale: float = 1.0

    def describe(self) -> str:
        return (
            f"x={np.array2string(self.x, precision=6)} "
            f"y={np.array2string(self.y, precision=6)} lhs={self.lhs!r} rhs={self.rhs!r}"
        ) + ("" if self.scale == 1.0 else f" scale={self.scale!r}")


@dataclass
class PropertyReport:
    """Outcome of a sampled property check; fails iff violations were found."""

    name: str
    samples: int
    violations: list[Violation] = field(default_factory=list)
    alpha: float | None = None

    @classmethod
    def from_rows(cls, name, x, y, lhs, rhs, failed, alpha=None, scale=1.0) -> "PropertyReport":
        """Report over pairs given as rows (x[k], y[k]): one violation per
        ``failed`` row, in row order; ``scale`` is one value or one per row."""
        if not failed.any():
            return cls(name=name, samples=len(x), alpha=alpha)
        scale = np.broadcast_to(scale, len(x))
        violations = [
            Violation(x=x[k], y=y[k], lhs=float(lhs[k]), rhs=float(rhs[k]), scale=float(scale[k]))
            for k in np.flatnonzero(failed)
        ]
        return cls(name=name, samples=len(x), violations=violations, alpha=alpha)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def summary(self) -> str:
        head = f"{self.name}: {self.verdict} ({self.samples} samples"
        if self.alpha is not None:
            head += f", alpha={self.alpha}"
        head += f", {len(self.violations)} violations)"
        if self.violations:
            head += "\n  first witness: " + self.violations[0].describe()
        return head

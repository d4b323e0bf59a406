"""The analytic-disc expression tree used for certificates, and the pole-set
and result containers shared by the evaluators.

The evaluators themselves live in `covering_domains`, where the disc is the
trivial cover of the covering formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complex_kernel import (
    BlaschkeDisc,
    moebius,
    require_disc_point,
)

MAX_POLES = 64
POLE_HIT_TOL = 1e-12


# ---------------------------------------------------------------------------
# Expression tree for certificates
# ---------------------------------------------------------------------------


class DiscExpr:
    """Analytic map with the open unit disc as source, evaluable at |zeta|<1."""

    def eval(self, zeta):
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __call__(self, zeta):
        return self.eval(zeta)


@dataclass(frozen=True)
class RotationExpr(DiscExpr):
    theta: float = 0.0

    def eval(self, zeta):
        return np.exp(1j * self.theta) * np.asarray(zeta, dtype=complex)

    def describe(self):
        return f"rot({self.theta:.6g})"


@dataclass(frozen=True)
class MoebiusExpr(DiscExpr):
    alpha: complex

    def eval(self, zeta):
        return moebius(self.alpha, np.asarray(zeta, dtype=complex))

    def describe(self):
        return f"Phi[{self.alpha:.6g}]"


@dataclass(frozen=True)
class BlaschkeExpr(DiscExpr):
    product: BlaschkeDisc

    def eval(self, zeta):
        return self.product.eval(zeta)

    def describe(self):
        return f"blaschke(deg={self.product.degree})"


@dataclass(frozen=True)
class ScaleExpr(DiscExpr):
    """c * inner(zeta) for a constant c with |c| <= 1."""

    factor: complex
    inner: DiscExpr

    def eval(self, zeta):
        return self.factor * self.inner.eval(zeta)

    def describe(self):
        return f"({self.factor:.6g})*{self.inner.describe()}"


@dataclass(frozen=True)
class ComposeExpr(DiscExpr):
    outer: DiscExpr
    inner: DiscExpr

    def eval(self, zeta):
        return self.outer.eval(self.inner.eval(zeta))

    def describe(self):
        return f"{self.outer.describe()} o {self.inner.describe()}"


@dataclass(frozen=True)
class PairExpr(DiscExpr):
    """Disc into a product domain, zeta -> (first(zeta), second(zeta))."""

    first: DiscExpr
    second: DiscExpr

    def eval(self, zeta):
        return self.first.eval(zeta), self.second.eval(zeta)

    def describe(self):
        return f"({self.first.describe()}, {self.second.describe()})"


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoleSet:
    """Finite list of pairwise-distinct points inside a plane domain.

    `domain` is any object with a contains(z) method; None means the unit
    disc.
    """

    points: tuple
    domain: object = None

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("pole set must be nonempty")
        if len(pts) > MAX_POLES:
            raise ValueError(f"pole set size {len(pts)} exceeds cap {MAX_POLES}")
        for j, p in enumerate(pts):
            if self.domain is None:
                require_disc_point(p, f"points[{j}]")
            elif not self.domain.contains(p):
                raise ValueError(f"points[{j}]={p} outside domain {self.domain}")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if abs(pts[i] - pts[j]) < POLE_HIT_TOL:
                    raise ValueError(f"poles {i} and {j} coincide within {POLE_HIT_TOL}")

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass
class EvalResult:
    """Computed value with its certificate and error/truncation data."""

    value: float
    certificate: DiscExpr | None = None
    nodes: tuple = field(default_factory=tuple)
    meta: dict = field(default_factory=dict)

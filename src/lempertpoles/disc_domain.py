"""Closed-form Lempert/Green evaluators on the unit disc and the analytic-disc
expression tree used for certificates.

On the disc the Schwarz-Pick lemma gives the product-of-Moebius-moduli
formula, and extremal discs are automorphisms sending 0 to the base point.
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


# ---------------------------------------------------------------------------
# Disc evaluators
# ---------------------------------------------------------------------------


def lempert_disc(A: PoleSet, z: complex) -> EvalResult:
    """Lempert function of the disc with pole set A at z.

    Value prod_{a in A} |Phi_a(z)|; the certificate is the automorphism
    r = Phi_z with r(0) = z, whose nodes r^{-1}(a) = Phi_z(a) have moduli
    multiplying to the value.  Poles within 1e-12 of z count as exact hits.
    """
    z = require_disc_point(z, "z")
    nodes = tuple(complex(moebius(z, a)) for a in A)
    nodes = tuple(0.0 + 0.0j if abs(n) < POLE_HIT_TOL else n for n in nodes)
    value = float(np.prod([abs(n) for n in nodes]))
    return EvalResult(value=value, certificate=MoebiusExpr(z), nodes=nodes)


def lempert_disc_N(a: complex, z: complex, N: int) -> EvalResult:
    """N-visit Lempert function of the disc: |Phi_a(z)| for every N.

    The extremal disc is a Blaschke product of degree <= N sending 0 to z;
    one visit already attains the value, so the degree-1 automorphism Phi_z
    certifies it.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    a = require_disc_point(a, "a")
    z = require_disc_point(z, "z")
    node = complex(moebius(z, a))
    if abs(node) < POLE_HIT_TOL:
        node = 0.0 + 0.0j
    return EvalResult(value=abs(node), certificate=MoebiusExpr(z), nodes=(node,),
                      meta={"N": N})


def green_disc(A: PoleSet, z: complex) -> float:
    """Pluricomplex Green function of the disc; coincides with lempert_disc."""
    return lempert_disc(A, z).value

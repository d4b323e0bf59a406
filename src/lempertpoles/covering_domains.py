"""Universal covers of the plane domains, preimage enumeration,
covering-product evaluators and the Green function by truncated products.

l_D(A, z) is the product, over the poles, of each pole's smallest lift
modulus through the normalized cover pi_z with pi_z(0) = z.  The disc is the
trivial cover: pi_z = Phi_z, and each point has the one lift Phi_z(a), so the
covering formula is the Moebius product.  This is the only module that treats
the disc apart; every caller evaluates all three domains through the same
functions.  The cover of the punctured disc sends the disc through the Cayley
map to the left half plane and exponentiates; the annulus cover goes through
a rotated logarithmic strip.  Their lifts are enumerated by winding number
and carried in strip coordinates `s`, where 1-|zeta|^2 has a closed form.
That matters: high-winding lifts have disc coordinates within 1e-16 of the
unit circle, so all moduli and products are computed from `s`, never from the
rounded disc representation.

Every lift modulus follows one rule (`_lift_log_moduli`), and the smallest
lift of each point of an array comes from one points x windings grid
(`CoverMap._min_lifts`): `lempert_poleset_plane` evaluates all its poles, and
`find_pole_with_value` all the points of its scan along a ray, in one call.

Every winding enumeration goes through one geometric window search, capped at
LIFTS_PER_SIDE_MAX windings per side.  The K smallest lifts are searched from
max(8, K//2 + 4) windings per side, growing x4 until the K-th deficit exceeds
both edge deficits or underflows to 0.0.  The Green functions first pick the
depth at which their closed-form tail bound meets the tolerance (annulus from
4, x4; punctured disc from 1024, x2), then enumerate once.

The punctured disc's winding tail is summed in closed form through psi and
psi' at Re z > 1000, by their asymptotic series (`_digamma_complex`,
`_trigamma_complex`, one Bernoulli table); each states a bound on its
remainder and rounding, and the tail bound carries both, so the truncation
is certified end to end with numpy as the only dependency.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .complex_kernel import BOUND_SLACK, CDIV_ERR, U, _gamma, moebius, moebius_error
from .disc_domain import DiscExpr, EvalResult, PoleSet

ANNULUS_R_MIN = 1e-6
ANNULUS_R_MAX = 1.0 - 1e-6
LIFTS_PER_SIDE_MAX = 5000  # 10^4 lifts total


@dataclass(frozen=True)
class PlaneDomain:
    """One of the three supported plane domains.

    kind: "disc" (unit disc), "punctured" (disc minus origin) or "annulus"
    ({R < |z| < 1}, inner radius R).
    """

    kind: str
    R: float | None = None

    def __post_init__(self):
        if self.kind not in ("disc", "punctured", "annulus"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "annulus":
            if self.R is None or not (ANNULUS_R_MIN <= self.R <= ANNULUS_R_MAX):
                raise ValueError(f"annulus inner radius must be in [{ANNULUS_R_MIN}, {ANNULUS_R_MAX}]")
        elif self.R is not None:
            raise ValueError(f"{self.kind} takes no radius parameter")

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        r = abs(z)
        if self.kind == "disc":
            return r < 1.0 - margin
        if self.kind == "punctured":
            return margin < r < 1.0 - margin
        return self.R + margin < r < 1.0 - margin

    def require_interior(self, z: complex, name: str = "z") -> complex:
        z = complex(z)
        if not self.contains(z):
            raise ValueError(f"{name}={z} not interior to {self}")
        return z

    def is_simply_connected(self) -> bool:
        return self.kind == "disc"

    def __str__(self):
        return self.kind if self.R is None else f"annulus(R={self.R})"


def parse_domain(text: str) -> PlaneDomain:
    """Parse 'disc', 'punctured' or 'annulus:R'."""
    text = text.strip().lower()
    if text == "disc":
        return PlaneDomain("disc")
    if text == "punctured":
        return PlaneDomain("punctured")
    if text.startswith("annulus:"):
        return PlaneDomain("annulus", R=float(text.split(":", 1)[1]))
    raise ValueError(f"cannot parse domain {text!r}")


# ---------------------------------------------------------------------------
# Lift records
# ---------------------------------------------------------------------------


@dataclass
class LiftSet:
    """Lifts of one point through a normalized cover, winding by winding.

    eta: lift positions in the disc of the normalized cover (floats round
    toward the unit circle for large windings).  delta = 1 - |eta| and
    log_modulus = log|eta| are computed stably from strip coordinates and
    stay meaningful down to 1e-300.  moduli is |eta| to a few ulps where
    |eta| < 2^-1/2, and 1 - delta nearer the circle.  err bounds the rounding
    of each float eta: `moebius_error` of the disc's one lift Phi_alpha(a),
    whose (alpha, a) is `moebius_args`, computed when first read; 0.0 on
    plane domains, whose bound is not computed yet.
    """

    windings: np.ndarray
    s: np.ndarray
    eta: np.ndarray
    delta: np.ndarray
    log_modulus: np.ndarray
    moduli: np.ndarray
    moebius_args: tuple | None = None

    @cached_property
    def err(self) -> np.ndarray:
        if self.moebius_args is None:
            return np.zeros(len(self.eta))
        return np.array([moebius_error(*self.moebius_args)])


def _punct_strip(log_r, theta, ks: np.ndarray) -> np.ndarray:
    return log_r + 1j * (theta + 2.0 * np.pi * ks)


def _punct_one_minus_zeta_sq(s: np.ndarray) -> np.ndarray:
    x = s.real
    return -4.0 * x / ((x - 1.0) ** 2 + s.imag ** 2)


def _annulus_strip(log_r, theta, L: float, ks: np.ndarray) -> np.ndarray:
    th = theta + 2.0 * np.pi * ks
    return (np.pi / L) * th - 1j * (np.pi / L) * (log_r + L / 2.0)


def _annulus_one_minus_zeta_sq(s: np.ndarray) -> np.ndarray:
    # zeta = tanh(x+iy): 1-|zeta|^2 = 2cos(2y)/(cosh(2x)+cos(2y)); the cosh
    # overflows for |2x| beyond ~700, where 2/cosh(2x) = 4 exp(-|2x|) holds to
    # relative error exp(-2|2x|).
    x = s.real / 2.0
    y = s.imag / 2.0
    ax = np.abs(2.0 * x)
    big = ax > 40.0
    out = np.empty_like(ax)
    out[big] = 4.0 * np.cos(2.0 * y[big]) * np.exp(-ax[big])
    out[~big] = 2.0 * np.cos(2.0 * y[~big]) / (np.cosh(ax[~big]) + np.cos(2.0 * y[~big]))
    return out


def _raw_lifts(domain: PlaneDomain, log_r, theta, ks: np.ndarray):
    """(s, zeta, 1 - |zeta|^2) of the raw lifts of windings ks, for a point
    a_rel = exp(log_r + i theta) given relative to the base point's ray;
    log_r and theta may be columns of points, giving a points x windings
    grid."""
    if domain.kind == "punctured":
        s = _punct_strip(log_r, theta, ks)
        return s, (s + 1.0) / (s - 1.0), _punct_one_minus_zeta_sq(s)
    if domain.kind == "annulus":
        s = _annulus_strip(log_r, theta, -math.log(domain.R), ks)
        return s, np.tanh(s / 2.0), _annulus_one_minus_zeta_sq(s)
    raise ValueError("disc cover is trivial; no winding enumeration")


def _log_abs(a: np.ndarray) -> np.ndarray:
    """log|a_k| per point, bit for bit math.log(abs(a_k)): np.hypot gives the
    bits of abs(), and math.log is applied point by point."""
    return np.array([math.log(r) for r in np.hypot(a.real, a.imag)])


def _grow_window(start: int, factor: int, attempt):
    """Run attempt(per_side) -> (done, result) for per_side = start,
    start*factor, ... (capped at LIFTS_PER_SIDE_MAX) until done; returns the
    last (done, per_side, result)."""
    per_side = min(start, LIFTS_PER_SIDE_MAX)
    while True:
        done, result = attempt(per_side)
        if done or per_side == LIFTS_PER_SIDE_MAX:
            return done, per_side, result
        per_side = min(per_side * factor, LIFTS_PER_SIDE_MAX)


@dataclass
class CoverMap:
    """Normalized universal cover pi_z = pi o Phi_{zeta0} with pi_z(0) = z.

    The raw cover is precomposed with the domain rotation sending the base
    point to the positive real axis, so the base lift has angular component
    zero in the strip; without that, thin annuli put the lift of an off-axis
    base point hyperbolically far down the cover, where its disc coordinate
    collapses onto the unit circle.  zeta0 is then the minimal-modulus lift
    of z (ties broken by smallest nonnegative argument).  Lift enumeration
    through the normalized cover applies Phi_{zeta0} to the raw lifts; the
    pseudo-hyperbolic identity
        1 - |Phi_{u}(v)|^2 = (1-|u|^2)(1-|v|^2)/|1 - conj(u) v|^2
    gives lift moduli without ever forming differences of nearby floats.
    """

    domain: PlaneDomain
    base_point: complex
    base_winding: int
    base_s: complex
    base_lift: complex
    rotation: float = 0.0  # the raw cover maps onto e^{-i rotation} * domain
    _c0: float = field(repr=False, default=0.0)  # 1 - |zeta0|^2

    @property
    def L(self) -> float:
        return -math.log(self.domain.R) if self.domain.kind == "annulus" else float("nan")

    # -- raw cover -----------------------------------------------------
    def eval_raw(self, zeta):
        if self.domain.kind == "disc":
            return zeta
        zeta = np.asarray(zeta, dtype=complex)
        rot = np.exp(1j * self.rotation)
        if self.domain.kind == "punctured":
            return rot * np.exp((zeta + 1.0) / (zeta - 1.0))
        L = self.L
        return rot * np.exp((1j * L / np.pi) * np.log((1.0 + zeta) / (1.0 - zeta)) - L / 2.0)

    def eval(self, zeta):
        """pi_z(zeta) = pi(Phi_{zeta0}(zeta))."""
        zeta = np.asarray(zeta, dtype=complex)
        return self.eval_raw(moebius(self.base_lift, zeta))

    def eval_at_strip(self, s):
        """Exact cover value of a raw lift given its strip coordinate."""
        s = np.asarray(s, dtype=complex)
        rot = np.exp(1j * self.rotation)
        if self.domain.kind == "punctured":
            return rot * np.exp(s)
        if self.domain.kind == "annulus":
            L = self.L
            return rot * np.exp((1j * L / np.pi) * s - L / 2.0)
        raise ValueError("disc cover has no strip coordinates")

    def relative_angle(self, a: complex) -> float:
        """Arg a measured from the base point's ray, wrapped to (-pi, pi]."""
        d = float(np.angle(a)) - self.rotation
        return float(np.angle(np.exp(1j * d)))

    # -- lifts -----------------------------------------------------------
    def _raw_lift_data(self, a: complex, ks: np.ndarray):
        a_rel = abs(a) * np.exp(1j * self.relative_angle(a))
        return _raw_lifts(self.domain, math.log(abs(a_rel)), np.angle(a_rel), ks)

    def lifts(self, a: complex, per_side: int) -> LiftSet:
        """Lifts of a through pi_z for windings |k| <= per_side, sorted ascending
        by modulus."""
        a = self.domain.require_interior(a, "a")
        if self.domain.kind == "disc":
            # the identity cover: the one lift Phi_z(a)
            eta = moebius(self.base_lift, a)
            am = abs(eta)
            logm = math.log(am) if am > 0 else -math.inf
            return LiftSet(np.array([0]), np.array([0j]), np.array([eta]), np.array([1.0 - am]),
                           np.array([logm]), np.array([am]), (self.base_lift, a))
        ks = np.arange(-per_side, per_side + 1)
        s, zeta, om = self._raw_lift_data(a, ks)
        logm, delta, moduli = _lift_log_moduli(self.base_lift, self._c0, zeta, om, deficits=True)
        order = np.argsort(-delta, kind="stable")
        return LiftSet(ks[order], s[order], moebius(self.base_lift, zeta[order]), delta[order],
                       logm[order], moduli[order])

    def min_lift_log_modulus(self, a):
        """log l_D(a, z) by `_min_lifts`, at one point (a float) or at each
        point of an array (an array of that shape).  Off the annulus or the
        punctured disc, one point raises ValueError as `lifts` does, and a
        point of an array gets NaN, so a scan can evaluate points it may never
        reach.  The disc takes no domain check."""
        pts = np.asarray(a, dtype=complex)
        flat = pts.ravel()
        if self.domain.kind == "disc":
            out = self._min_lifts(flat)[0]
        elif pts.ndim == 0:
            out = self._min_lifts(np.array([self.domain.require_interior(a, "a")]))[0]
        else:
            inside = np.array([self.domain.contains(p) for p in flat.tolist()], dtype=bool)
            out = np.full(len(flat), np.nan)
            out[inside] = self._min_lifts(flat[inside])[0]
        return float(out[0]) if pts.ndim == 0 else out.reshape(pts.shape)

    def _min_lifts(self, pts: np.ndarray) -> tuple:
        """(log|eta|, eta) of the smallest lift of each point of pts, bit for
        bit the first entry of `lifts(a, 4)`, with no domain check: one grid
        of the points x windings |k| <= 4, each row keeping its first largest
        deficit as the stable sort of `lifts` does.  Point moduli go through
        np.hypot and math.log (`_log_abs`), since np.abs and np.log on arrays
        differ from abs() and math.log in the last bit on some points.  The
        disc applies its Moebius formula point by point."""
        zeta0 = self.base_lift
        if self.domain.kind == "disc":
            eta = [moebius(zeta0, complex(p)) for p in pts]
            return np.array([math.log(abs(e)) if e != 0 else -math.inf for e in eta]), np.array(eta)
        rel = np.angle(np.exp(1j * (np.angle(pts) - self.rotation)))  # relative_angle
        a_rel = np.hypot(pts.real, pts.imag) * np.exp(1j * rel)
        _, zeta, om = _raw_lifts(self.domain, _log_abs(a_rel)[:, None], np.angle(a_rel)[:, None],
                                 np.arange(-4, 5))
        logm, delta, _ = _lift_log_moduli(zeta0, self._c0, zeta, om, deficits=True)
        rows, k = np.arange(len(pts)), delta.argmax(axis=1)
        return logm[rows, k], moebius(zeta0, zeta[rows, k])


def _lift_log_moduli(zeta0: complex, c0: float, zeta: np.ndarray, om: np.ndarray,
                     deficits: bool = False):
    """log|eta| of the lifts eta = Phi_{zeta0}(zeta) of raw lifts zeta, any
    shape, with 1 - |zeta|^2 = om; with deficits=True also (1 - |eta|, |eta|).

    u = 1 - |eta|^2 comes from the pseudo-hyperbolic identity, accurate near
    the circle.  For lifts hyperbolically close to the base (u > 1/2),
    1 - u cancels, and the direct Moebius modulus is the accurate route.
    Moduli are |eta| to a few ulps below 2^-1/2 and 1 - delta nearer the
    circle; an exact pole hit has log-modulus -inf.
    """
    u = (c0 * om / np.abs(1.0 - np.conj(zeta0) * zeta) ** 2).clip(0.0, 1.0)
    near = u > 0.5
    rho = np.abs(moebius(zeta0, zeta[near]))
    with np.errstate(divide="ignore"):
        logm = 0.5 * np.log1p(-u)
        logm[near] = np.log(rho)
    if not deficits:
        return logm
    delta = u / (1.0 + np.sqrt(1.0 - u))
    moduli = 1.0 - delta  # near lifts keep rho: 1 - (1 - rho) loses small moduli
    moduli[near], delta[near] = rho, 1.0 - rho
    return logm, delta, moduli


def build_cover(domain: PlaneDomain, z: complex) -> CoverMap:
    """Normalized cover with pi_z(0) = z; base lift of minimal modulus."""
    z = domain.require_interior(z, "z")
    if domain.kind == "disc":
        return CoverMap(domain, z, 0, 0j, complex(z), _c0=1.0 - abs(z) ** 2)
    rotation = float(np.angle(z))
    ks = np.arange(-3, 4)
    s, zeta, om = _raw_lifts(domain, math.log(abs(z)), 0.0, ks)
    moduli = np.sqrt(np.clip(1.0 - om, 0.0, None))
    best = min(range(len(ks)),
               key=lambda i: (round(float(moduli[i]), 15), np.angle(zeta[i]) % (2 * np.pi)))
    return CoverMap(domain, z, int(ks[best]), complex(s[best]), complex(zeta[best]),
                    rotation=rotation, _c0=float(om[best]))


@dataclass(frozen=True)
class CoverExpr(DiscExpr):
    """Expression node wrapping a normalized cover map."""

    cover: CoverMap

    def eval(self, zeta):
        return self.cover.eval(zeta)

    def describe(self):
        return f"cover[{self.cover.domain} at {self.cover.base_point:.6g}]"


# ---------------------------------------------------------------------------
# Preimage enumeration and evaluators
# ---------------------------------------------------------------------------


def _smallest_lifts(cover: CoverMap, a: complex, K: int) -> LiftSet:
    """Lifts of a over the first window, growing x4 from max(8, K//2 + 4)
    windings per side, that holds the K smallest moduli.

    Deficits fall with the winding, so the window holds them once the K-th
    deficit exceeds both edge deficits, or has underflowed to 0.0: every lift
    outside then has deficit 0.0 and log-modulus 0 too.  The disc has its one
    lift.
    """
    if cover.domain.kind == "disc":
        return cover.lifts(a, 0)

    def holds_K(per_side):
        ls = cover.lifts(a, per_side)
        d = ls.delta
        return len(d) >= K + 2 and not 0.0 < d[K - 1] <= max(d[-1], d[-2]), ls

    return _grow_window(max(8, K // 2 + 4), 4, holds_K)[2]


def preimage_moduli(cover: CoverMap, a: complex, K: int) -> np.ndarray:
    """The K smallest moduli of the lifts of a through pi_z, ascending."""
    return _smallest_lifts(cover, a, K).moduli[:K]


def lempert_N_plane(domain: PlaneDomain, a: complex, z: complex, N: int) -> EvalResult:
    """l^N as the product of the N smallest preimage moduli (covering formula).

    Certificate: the normalized cover itself (an extremal of the form
    pi o rotation), with the N lifts as nodes.  a == z degenerates to value 0
    with node 0.
    """
    if not 1 <= N <= 1000:
        raise ValueError("N must be in 1..1000")
    cover = build_cover(domain, z)
    a = domain.require_interior(a, "a")
    if a == z:
        return EvalResult(value=0.0, certificate=CoverExpr(cover), nodes=(0.0 + 0.0j,),
                          meta={"N": N, "degenerate": True})
    ls = _smallest_lifts(cover, a, N)
    log_value = float(np.sum(ls.log_modulus[:N]))
    # lifts that round onto the circle are pulled radially to modulus
    # cap = 1 - 2^-50, whose margin survives the pull's rounding; their
    # deficits are in meta
    eta, am, cap = ls.eta[:N], np.abs(ls.eta[:N]), 1.0 - 2.0 ** -50
    nodes = np.where(am > cap, eta * (cap / am), eta)
    # the disc's one lift is its value, without the round trip through log
    value = float(ls.moduli[0]) if domain.kind == "disc" else math.exp(log_value)
    return EvalResult(value=value, certificate=CoverExpr(cover),
                      nodes=tuple(nodes),
                      meta={"N": N, "log_value": log_value,
                            "moduli": ls.moduli[:N].tolist(),
                            "deltas": ls.delta[:N].tolist()})


def lempert_poleset_plane(domain: PlaneDomain, A: PoleSet, z: complex) -> EvalResult:
    """l_D(A, z) = prod over poles of the minimal preimage modulus; a pole
    a == z makes the value 0 with node 0."""
    cover = build_cover(domain, z)
    pts = [domain.require_interior(a, "a") for a in A]
    logm, eta = cover._min_lifts(np.array(pts))
    log_value, nodes = 0.0, []
    for a, v, node in zip(pts, logm.tolist(), eta.tolist()):
        if a == cover.base_point:
            v, node = -math.inf, 0j
        log_value += v
        nodes.append(node)
    return EvalResult(value=math.exp(log_value), certificate=CoverExpr(cover),
                      nodes=tuple(nodes), meta={"log_value": log_value})


# ---------------------------------------------------------------------------
# Green function with certified truncation
# ---------------------------------------------------------------------------


# B_2, B_4, B_6: the asymptotic series of psi and psi' stop after these
# terms, and |B_8| bounds their remainders
BERNOULLI_2K = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0)
BERNOULLI_NEXT = 1.0 / 30.0
# bounds sum_k |B_2k| (2k)^-p |z|^(2-2k) for p = 0, 1 and |z| >= 1
BERNOULLI_ABS = sum(abs(b) for b in BERNOULLI_2K)
PSI_SERIES_MIN = 50.0  # smallest Re z of both series
# each complex operation and 1/z errs by at most CDIV_ERR relative; a term of
# either series goes through at most this many of them
SERIES_OPS = 20
SERIES_ERR = _gamma(SERIES_OPS, CDIV_ERR)
# log z by cmath: log(hypot) and atan2, each within an ulp (glibc's stated
# accuracy), so each part within this relative error
LOG_ERR = 4.0 * U


def _bernoulli_series(z: complex, divide: bool) -> tuple:
    """(1/z, s) with s = sum_k B_2k / (2k)^p z^(2-2k) over BERNOULLI_2K, by
    Horner in 1/z^2: p = 1 (divide) for psi, p = 0 for psi'."""
    if z.real < PSI_SERIES_MIN:
        raise RuntimeError(f"asymptotic psi series needs Re z >= {PSI_SERIES_MIN}")
    b2, b4, b6 = BERNOULLI_2K
    zi = 1.0 / z
    t = zi * zi
    if divide:
        return zi, b2 / 2.0 + t * (b4 / 4.0 + t * (b6 / 6.0))
    return zi, b2 + t * (b4 + t * b6)


def _digamma_complex(z: complex) -> tuple:
    """(psi(z), err_re, err_im) for Re z >= 50 by the asymptotic series
    psi(z) = log z - 1/(2z) - sum_{k=1..3} B_2k / (2k z^2k) + R.

    err_re and err_im bound the error of the real and imaginary part.  With
    x = Re z, |R| <= |B_8| / (8 x^8) (below 1.1e-16 at x = 50): in Binet's
    integral psi(z) = log z - 1/(2z) - int_0^inf (1/(e^t-1) - 1/t + 1/2)
    e^{-zt} dt (DLMF 5.9.13) the Bernoulli expansion of the bracket stops
    within its first omitted term B_8 t^7/8! for t > 0, an alternating
    remainder of its partial fractions sum_m 2t/(t^2 + 4 pi^2 m^2), and
    int_0^inf t^7/8! e^{-xt} dt = 1/(8 x^8) (DLMF 5.11(ii)).  Rounding, in
    the standard model (Higham, Accuracy and Stability, ch. 3): each part of
    log z errs by LOG_ERR relative and the last subtraction by U, and every
    term of 1/(2z) + sum B_2k/(2k z^2k) passes through at most SERIES_OPS
    operations of relative error CDIV_ERR, so that sum errs by at most
    gamma_SERIES_OPS times its sum of moduli.
    """
    zi, s = _bernoulli_series(z, True)
    log_z = cmath.log(z)
    azi = abs(zi)
    e = SERIES_ERR * azi * (0.5 + azi * BERNOULLI_ABS) + BERNOULLI_NEXT / (8.0 * z.real ** 8)
    return (log_z - zi * (0.5 + zi * s),
            BOUND_SLACK * ((LOG_ERR + U) * abs(log_z.real) + e),
            BOUND_SLACK * ((LOG_ERR + U) * abs(log_z.imag) + e))


def _trigamma_complex(z: complex) -> tuple:
    """(psi'(z), err_re, err_im) for Re z >= 50 by the asymptotic series
    psi'(z) = 1/z + 1/(2 z^2) + sum_{k=1..3} B_2k / z^(2k+1) + R.

    err_re and err_im bound the error of the real and imaginary part.  With
    x = Re z, |R| <= |B_8| / x^9 (below 1.8e-17 at x = 50), from the
    derivative of Binet's integral as for `_digamma_complex`, with
    int_0^inf t^8/8! e^{-xt} dt = 1/x^9.  Every term passes through at most
    SERIES_OPS operations of relative error CDIV_ERR, so the rounding is at
    most gamma_SERIES_OPS times the sum of moduli of the terms.
    """
    zi, s = _bernoulli_series(z, False)
    azi = abs(zi)
    err = BOUND_SLACK * (SERIES_ERR * azi * (1.0 + azi * (0.5 + azi * BERNOULLI_ABS))
                         + BERNOULLI_NEXT / z.real ** 9)
    return zi * (1.0 + zi * (0.5 + zi * s)), err, err


def _punctured_tail_side(K2: int, theta: float, c: float, M_eff: float,
                         g: complex, kappa: float, y_sign: float):
    """Certified bracket for sum_{k > K2} -ln(1 - u_k) on one winding side.

    Writing D_k = |1 - conj(zeta0) zeta_k|^2 = d0^2 (1 + e_k) with
       e_k = (-2 Im(g) y + kappa) / (c^2 + y^2),  y = theta + 2 pi k,
    one has u_k = M_eff [ 1/(c^2+y^2) + 2 Im(g) y/(c^2+y^2)^2
                          - kappa/(c^2+y^2)^2 + r_k ],
    |r_k| <= ebar^2/((c^2+y^2)(1-ebar)).  The three structured sums are
    exact: 1/(c^2+y^2) via digamma and the squared terms via complex
    trigamma; y_sign = -1 mirrors the sum for negative windings (y < 0).
    The half-width holds r_k, the bound on the log correction and the
    stated error bounds of both series, carried through S1, S_y and S_2.
    """
    two_pi = 2.0 * np.pi
    A = theta / two_pi
    zdig = K2 + 1 + A + 1j * c / two_pi
    psi, _, e_psi = _digamma_complex(zdig)
    S1 = psi.imag / (two_pi * c)
    # sum 1/(y + i c)^2 over the tail
    tri, e_re, e_im = _trigamma_complex(zdig)
    s_quad = tri / (two_pi ** 2)
    # sum y/(c^2+y^2)^2 = -Im(s_quad)/(2c); sum 1/(c^2+y^2)^2 = (2 S1 - 2 Re s_quad)/(4 c^2)
    S_y = -float(np.imag(s_quad)) / (2.0 * c)
    S_2 = (2.0 * S1 - 2.0 * float(np.real(s_quad))) / (4.0 * c * c)
    e_S1 = e_psi / (two_pi * c)
    e_Sy = e_im / (two_pi ** 2 * 2.0 * c)
    e_S2 = (2.0 * e_S1 + 2.0 * e_re / two_pi ** 2) / (4.0 * c * c)
    y_min = two_pi * (K2 + 1) + theta
    ebar = (2.0 * abs(g.imag) * y_min + abs(kappa)) / (c * c + y_min * y_min)
    if ebar >= 0.5:
        return None
    u_sum_est = M_eff * (S1 + y_sign * 2.0 * g.imag * S_y - kappa * S_2)
    r_bound = M_eff * ebar * ebar / (1.0 - ebar) * S1
    series_bound = M_eff * (e_S1 + 2.0 * abs(g.imag) * e_Sy + abs(kappa) * e_S2)
    u_max = M_eff / (c * c + y_min * y_min) * (1.0 + ebar) / (1.0 - ebar)
    # -ln(1-u) = u + lncorr with 0 <= lncorr <= u^2/(2(1-u_max)) summed
    ln_corr_hi = u_max * (u_sum_est + r_bound + series_bound) / (2.0 * (1.0 - u_max))
    T_mid = u_sum_est + 0.5 * ln_corr_hi
    half = r_bound + series_bound + 0.5 * ln_corr_hi
    return T_mid, half


def _punctured_green(cover: CoverMap, a: complex, tol_tail: float):
    """(value, tail bound) of the punctured-disc Green function: the
    product over windings |k| <= K2 of the lift moduli, times exp(-T_mid/2)
    for the bracketed tail beyond them.

    K2 runs 1024, 2048, ... until the two sides' half-widths
    (`_punctured_tail_side`, which include the digamma and trigamma series
    bounds) plus the rounding of the log-modulus sum meet tol_tail.
    """
    x = math.log(abs(a))
    theta = cover.relative_angle(a)
    c = 1.0 - x  # = |x - 1| since x < 0
    zeta0 = cover.base_lift
    c0 = cover._c0
    d0sq = abs(1.0 - np.conj(zeta0)) ** 2
    M_eff = c0 * (-4.0 * x) / d0sq
    g = 2.0 * np.conj(zeta0) / (1.0 - np.conj(zeta0))
    kappa = abs(g) ** 2 - 2.0 * g.real * (x - 1.0)

    def tail(K2):
        """Whether the bracket beyond K2 windings per side meets tol_tail,
        and (T_mid, tail bound)."""
        pos = _punctured_tail_side(K2, theta, c, M_eff, g, kappa, +1.0)
        neg = _punctured_tail_side(K2, -theta, c, M_eff, g, kappa, -1.0)
        if pos is None or neg is None:
            return False, None
        bound = pos[1] + neg[1] + (2e-16 * K2 + 1e-15)
        return bound <= tol_tail, (pos[0] + neg[0], bound)

    done, K2, bracket = _grow_window(1024, 2, tail)
    if not done:
        raise RuntimeError(
            f"tail tolerance {tol_tail} not reachable within {2 * LIFTS_PER_SIDE_MAX} lifts")
    T_mid, bound = bracket
    _, zeta, om = cover._raw_lift_data(a, np.arange(-K2, K2 + 1))
    log_value = float(np.sum(_lift_log_moduli(zeta0, c0, zeta, om)))
    return math.exp(log_value - 0.5 * T_mid), bound


def _annulus_green(cover: CoverMap, a: complex, tol_tail: float):
    L = cover.L
    zeta0 = cover.base_lift
    C0 = (1.0 + abs(zeta0)) / (1.0 - abs(zeta0))
    theta = cover.relative_angle(a)
    q = math.exp(-2.0 * np.pi ** 2 / L)

    def tail(per_side):
        """Whether the geometric majorant of the terms beyond per_side
        windings per side meets tol_tail, and the majorant."""
        T_tail = 0.0
        for sgn in (+1.0, -1.0):
            # |theta_k| = 2 pi k +- theta
            x_next = (np.pi / (2.0 * L)) * (2.0 * np.pi * (per_side + 1) + sgn * theta)
            if math.exp(min(2.0 * x_next, 700.0)) < 8.0:
                return False, None
            u_bound = C0 * (8.0 * math.exp(-2.0 * x_next))
            if u_bound >= 0.5:
                return False, None
            T_tail += u_bound / (1.0 - q) / (1.0 - u_bound)
        return T_tail <= tol_tail, T_tail

    done, per_side, T_tail = _grow_window(4, 4, tail)
    if not done:
        raise RuntimeError(
            f"tail tolerance {tol_tail} not reachable within {2 * LIFTS_PER_SIDE_MAX} lifts")
    log_modulus = cover.lifts(a, per_side).log_modulus
    slop = 1e-16 * len(log_modulus) + 1e-15
    return math.exp(float(np.sum(log_modulus))), T_tail + slop


def green_plane(domain: PlaneDomain, a: complex, z: complex,
                tol_tail: float = 1e-8) -> tuple:
    """(value, tail_bound): the single-pole Green function as the truncated
    product of all preimage moduli.

    The true value lies in [value*(1-tail_bound), value*(1+tail_bound)].
    Disc: the one lift, |Phi_a(z)|, with no tail.  Punctured disc: winding
    tails are bracketed in closed form through digamma and trigamma sums,
    with the error bounds of their series in the bracket.
    Annulus: lift moduli approach 1 at the geometric rate exp(-2 pi^2/L), so
    an explicit geometric majorant certifies the truncation.
    """
    a = domain.require_interior(a, "a")
    z = domain.require_interior(z, "z")
    if a == z:
        return 0.0, 0.0
    if domain.kind == "disc":
        return abs(moebius(a, z)), 0.0
    cover = build_cover(domain, z)
    if domain.kind == "punctured":
        return _punctured_green(cover, a, tol_tail)
    return _annulus_green(cover, a, tol_tail)


# ---------------------------------------------------------------------------
# Inverse pole placement
# ---------------------------------------------------------------------------


def _ray_exit(domain: PlaneDomain, z: complex, direction: complex) -> float:
    """Largest s with z + t*direction interior for all t < s."""
    d = direction / abs(direction)
    zr = np.conj(z) * d
    b = zr.real
    s_out = -b + math.sqrt(b * b + 1.0 - abs(z) ** 2)
    s_max = s_out
    if domain.kind == "annulus":
        disc = b * b - (abs(z) ** 2 - domain.R ** 2)
        if disc >= 0.0:
            for root in (-b - math.sqrt(disc), -b + math.sqrt(disc)):
                if root > 1e-15:
                    s_max = min(s_max, root)
    if _meets_puncture(domain, z, d):
        s_max = min(s_max, -(z * np.conj(d)).real)
    return s_max


def _meets_puncture(domain: PlaneDomain, z: complex, d: complex) -> bool:
    """Whether the ray from z in the unit direction d runs into the puncture
    0 of the punctured disc, z and d being anti-parallel."""
    zd = z * np.conj(d)
    return domain.kind == "punctured" and abs(zd.imag) < 1e-15 and zd.real < 0


def find_pole_with_value(domain: PlaneDomain, z: complex, t: float,
                         direction: complex, tol: float = 1e-10) -> complex:
    """Point a on the ray from z in `direction` with l_D({a}, z) = t.

    Uses that the single-pole Lempert value is continuous, vanishes at z and
    tends to 1 toward the boundary.  The scan points are known in advance:
    z itself (s = 0, where l = 0), 512 grid points up to s_max (1 - 1e-12)
    and 11 points pushed geometrically toward the boundary beyond them,
    s_max (1 - 2^-j) for j = 40..50.  A ray into the puncture of the
    punctured disc, where l tends to 1 only like 1 - c / |log|a||, is
    scanned instead in x = log rho, a = z rho: 513 points from rho = 1 down
    to |a| = the smallest normal float, and a level beyond l there raises
    ValueError.  All scan points are evaluated in one batched call of
    `CoverMap.min_lift_log_modulus`; the bracket is the first step where
    l - t changes sign on z and the grid, else the first push point with
    l >= t.  Then one-point calls bisect it to |l - t| <= tol.  The root
    closest to z is returned when the profile is not monotone.  A scan point
    that rounding puts off the domain raises ValueError only if the scan
    reaches it.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must be in (0, 1)")
    z = domain.require_interior(z, "z")
    d = direction / abs(direction)
    cover = build_cover(domain, z)
    log_t = math.log(t)
    into_puncture = _meets_puncture(domain, z, d)
    if into_puncture:
        point = lambda x: z * np.exp(x)
        s = np.linspace(0.0, math.log(sys.float_info.min / abs(z)), 513)
    else:
        point = lambda x: z + x * d
        s_max = _ray_exit(domain, z, d)
        grid = np.linspace(0.0, s_max, 513)[1:] * (1.0 - 1e-12)
        push = s_max * (1.0 - np.ldexp(1.0, -np.arange(40, 51)))
        s = np.concatenate(([0.0], grid, push))
    pts = point(s)
    v = cover.min_lift_log_modulus(pts)  # NaN off the domain
    f = v - log_t
    # a sign change of l - t over a grid step, or l >= t at a push point
    hit = np.concatenate((f[:512] * f[1:513] <= 0.0, v[513:] >= log_t))
    i = int(np.argmax(hit)) + 1 if hit.any() else len(s)
    for p in pts[:i + 1][np.isnan(v[:i + 1])]:
        cover.min_lift_log_modulus(p)  # off the domain: raises as the point alone
    if i == len(s):
        if into_puncture:
            raise ValueError(f"t={t} lies beyond l = {math.exp(v[-1])!r} at the smallest "
                             f"normal |a| on the ray from z={z} into the puncture")
        samples = list(zip(s[-5:].tolist(), v[-5:].tolist()))
        raise RuntimeError(
            f"bracketing failed for t={t} along direction {d}: samples {samples}")
    lo, hi, flo = s[i - 1], s[i], f[i - 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = cover.min_lift_log_modulus(point(mid))
        if abs(math.expm1(v - log_t) * t) <= tol:
            return point(mid)
        if flo * (v - log_t) <= 0.0:
            hi = mid
        else:
            lo, flo = mid, v - log_t
    a = point(0.5 * (lo + hi))
    if abs(math.exp(cover.min_lift_log_modulus(a)) - t) > max(tol * 10, 1e-9):
        raise RuntimeError(f"bisection did not converge for t={t}")
    return a

"""Universal covers of the punctured disc and annulus, preimage enumeration,
covering-product evaluators and the Green function by truncated products.

The cover of the punctured disc sends the disc through the Cayley map to the
left half plane and exponentiates; the annulus cover goes through a rotated
logarithmic strip.  Lifts are enumerated by winding number and carried in
strip coordinates `s`, where 1-|zeta|^2 has a closed form.  That matters:
high-winding lifts have disc coordinates within 1e-16 of the unit circle, so
all moduli and products are computed from `s`, never from the rounded disc
representation.

Every winding enumeration goes through one geometric window search, capped at
LIFTS_PER_SIDE_MAX windings per side.  The K smallest lifts are searched from
max(8, K//2 + 4) windings per side, growing x4 until the K-th deficit exceeds
both edge deficits or underflows to 0.0.  The Green functions first pick the
depth at which their closed-form tail bound meets the tolerance (annulus from
4, x4; punctured disc from 1024, x2), then enumerate once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma

from .complex_kernel import moebius
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
    stay meaningful down to 1e-300.
    """

    windings: np.ndarray
    s: np.ndarray
    eta: np.ndarray
    delta: np.ndarray
    log_modulus: np.ndarray

    def sorted_by_modulus(self) -> "LiftSet":
        order = np.argsort(-self.delta, kind="stable")
        return LiftSet(self.windings[order], self.s[order], self.eta[order],
                       self.delta[order], self.log_modulus[order])

    @property
    def moduli(self) -> np.ndarray:
        return 1.0 - self.delta


def _punct_strip(a: complex, ks: np.ndarray) -> np.ndarray:
    return math.log(abs(a)) + 1j * (np.angle(a) + 2.0 * np.pi * ks)


def _punct_one_minus_zeta_sq(s: np.ndarray) -> np.ndarray:
    x = s.real
    return -4.0 * x / ((x - 1.0) ** 2 + s.imag ** 2)


def _annulus_strip(a: complex, L: float, ks: np.ndarray) -> np.ndarray:
    th = np.angle(a) + 2.0 * np.pi * ks
    return (np.pi / L) * th - 1j * (np.pi / L) * (math.log(abs(a)) + L / 2.0)


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


def _raw_lifts(domain: PlaneDomain, a_rel: complex, ks: np.ndarray):
    """(s, zeta, 1 - |zeta|^2) of the raw lifts of windings ks, for a point
    a_rel given relative to the base point's ray."""
    if domain.kind == "punctured":
        s = _punct_strip(a_rel, ks)
        return s, (s + 1.0) / (s - 1.0), _punct_one_minus_zeta_sq(s)
    if domain.kind == "annulus":
        s = _annulus_strip(a_rel, -math.log(domain.R), ks)
        return s, np.tanh(s / 2.0), _annulus_one_minus_zeta_sq(s)
    raise ValueError("disc cover is trivial; no winding enumeration")


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
        zeta = np.asarray(zeta, dtype=complex)
        if self.domain.kind == "disc":
            return zeta
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
        return _raw_lifts(self.domain, abs(a) * np.exp(1j * self.relative_angle(a)), ks)

    def lifts(self, a: complex, per_side: int, base_shift: int = 0) -> LiftSet:
        """Lifts of a through pi_z for windings |k| <= per_side, sorted ascending
        by modulus.  base_shift replaces zeta0 by the deck-translated base
        lift (test hook for deck invariance)."""
        a = self.domain.require_interior(a, "a")
        if self.domain.kind == "disc":
            eta = np.array([moebius(self.base_lift, complex(a))])
            am = abs(eta[0])
            delta = np.array([1.0 - am])
            logm = math.log(am) if am > 0 else -math.inf
            return LiftSet(np.array([0]), np.array([0j]), eta, delta, np.array([logm]))
        zeta0, c0 = self.base_lift, self._c0
        if base_shift:
            s0, z0s, om0 = self._raw_lift_data(self.base_point,
                                               np.array([self.base_winding + base_shift]))
            zeta0, c0 = complex(z0s[0]), float(om0[0])
            if not c0 > 0.0:
                raise ValueError(f"base_shift={base_shift} is unresolvable: the deck-shifted "
                                 f"base lift {zeta0} has 1 - |zeta0|^2 = {c0} in floats")
        ks = np.arange(-per_side, per_side + 1)
        s, zeta, om = self._raw_lift_data(a, ks)
        u = c0 * om / np.abs(1.0 - np.conj(zeta0) * zeta) ** 2
        u = np.clip(u, 0.0, 1.0)
        eta = moebius(zeta0, zeta)
        rho = np.sqrt(1.0 - u)
        # 1 - u cancels for lifts hyperbolically close to the base; there the
        # direct Moebius modulus is the accurate route (no boundary loss)
        near = u > 0.5
        if near.any():
            rho[near] = np.abs(eta[near])
        delta = np.where(near, 1.0 - rho, u / (1.0 + rho))
        with np.errstate(divide="ignore"):  # rho == 0 at an exact pole hit
            logm = np.where(near, np.log(np.maximum(rho, 1e-300)),
                            0.5 * np.log1p(-u))
            logm = np.where((rho == 0.0), -np.inf, logm)
        return LiftSet(ks, s, eta, delta, logm).sorted_by_modulus()

    def min_lift_log_modulus(self, a: complex) -> float:
        """log of the smallest lift modulus, i.e. log l_D(a, z)."""
        if self.domain.kind == "disc":
            m = abs(moebius(self.base_lift, complex(a)))
            return math.log(m) if m > 0 else -math.inf
        ls = self.lifts(a, per_side=4)
        return float(ls.log_modulus[0])


def build_cover(domain: PlaneDomain, z: complex) -> CoverMap:
    """Normalized cover with pi_z(0) = z; base lift of minimal modulus."""
    z = domain.require_interior(z, "z")
    if domain.kind == "disc":
        return CoverMap(domain, z, 0, 0j, complex(z), _c0=1.0 - abs(z) ** 2)
    rotation = float(np.angle(z))
    ks = np.arange(-3, 4)
    s, zeta, om = _raw_lifts(domain, abs(z) + 0.0j, ks)
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


def _smallest_lifts(cover: CoverMap, a: complex, K: int, base_shift: int = 0) -> LiftSet:
    """Lifts of a over the first window, growing x4 from max(8, K//2 + 4)
    windings per side, that holds the K smallest moduli.

    Deficits fall with the winding, so the window holds them once the K-th
    deficit exceeds both edge deficits, or has underflowed to 0.0: every lift
    outside then has deficit 0.0 and log-modulus 0 too.
    """
    def holds_K(per_side):
        ls = cover.lifts(a, per_side, base_shift=base_shift)
        d = ls.delta
        return len(d) >= K + 2 and not 0.0 < d[K - 1] <= max(d[-1], d[-2]), ls

    return _grow_window(max(8, K // 2 + 4), 4, holds_K)[2]


def preimage_moduli(cover: CoverMap, a: complex, K: int, base_shift: int = 0) -> np.ndarray:
    """The K smallest moduli of the lifts of a through pi_z, ascending."""
    if cover.domain.kind == "disc":
        return cover.lifts(a, 1).moduli[:K]
    return _smallest_lifts(cover, a, K, base_shift).moduli[:K]


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
    if abs(a - z) < 1e-12:
        return EvalResult(value=0.0, certificate=CoverExpr(cover), nodes=(0.0 + 0.0j,),
                          meta={"N": N, "degenerate": True})
    if domain.kind == "disc":
        ls = cover.lifts(a, 1)
        return EvalResult(value=float(ls.moduli[0]), certificate=CoverExpr(cover),
                          nodes=tuple(ls.eta[:1]), meta={"N": N})
    ls = _smallest_lifts(cover, a, N)
    log_value = float(np.sum(ls.log_modulus[:N]))
    # lifts that round onto the circle are pulled radially to modulus
    # cap = 1 - 2^-50, whose margin survives the pull's rounding; their
    # deficits are in meta
    eta, am, cap = ls.eta[:N], np.abs(ls.eta[:N]), 1.0 - 2.0 ** -50
    nodes = np.where(am > cap, eta * (cap / am), eta)
    return EvalResult(value=math.exp(log_value), certificate=CoverExpr(cover),
                      nodes=tuple(nodes),
                      meta={"N": N, "log_value": log_value,
                            "moduli": ls.moduli[:N].tolist(),
                            "deltas": ls.delta[:N].tolist()})


def lempert_poleset_plane(domain: PlaneDomain, A: PoleSet, z: complex) -> EvalResult:
    """l_D(A, z) = prod over poles of the minimal preimage modulus."""
    cover = build_cover(domain, z)
    z = domain.require_interior(z, "z")
    nodes = []
    log_value = 0.0
    for a in A:
        if abs(a - z) < 1e-12:
            nodes.append(0.0 + 0.0j)
            log_value = -math.inf
            continue
        ls = cover.lifts(a, 6)  # the disc has its one Moebius lift
        nodes.append(complex(ls.eta[0]))
        log_value += float(ls.log_modulus[0])
    value = 0.0 if log_value == -math.inf else math.exp(log_value)
    return EvalResult(value=value, certificate=CoverExpr(cover), nodes=tuple(nodes),
                      meta={"log_value": log_value})


# ---------------------------------------------------------------------------
# Green function with certified truncation
# ---------------------------------------------------------------------------


def _trigamma_complex(z: complex) -> complex:
    """psi'(z) for Re z >= 50 by the asymptotic series.

    1/z + 1/(2 z^2) + sum B_{2n} z^{-2n-1}; at Re z >= 50 the truncation
    error is below 1e-18, far under the float precision of the callers.
    """
    if z.real < 50.0:
        raise RuntimeError("asymptotic trigamma needs Re z >= 50")
    zi = 1.0 / z
    zi2 = zi * zi
    return zi * (1.0 + zi * (0.5 + zi * (1.0 / 6.0 + zi2 * (-1.0 / 30.0 + zi2 * (1.0 / 42.0 - zi2 / 30.0)))))


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
    """
    two_pi = 2.0 * np.pi
    A = theta / two_pi
    zdig = K2 + 1 + A + 1j * c / two_pi
    S1 = float(np.imag(digamma(zdig))) / (two_pi * c)
    # sum 1/(y + i c)^2 over the tail
    s_quad = _trigamma_complex(complex(K2 + 1 + (theta + 1j * c) / two_pi)) / (two_pi ** 2)
    # sum y/(c^2+y^2)^2 = -Im(s_quad)/(2c); sum 1/(c^2+y^2)^2 = (2 S1 - 2 Re s_quad)/(4 c^2)
    S_y = -float(np.imag(s_quad)) / (2.0 * c)
    S_2 = (2.0 * S1 - 2.0 * float(np.real(s_quad))) / (4.0 * c * c)
    y_min = two_pi * (K2 + 1) + theta
    ebar = (2.0 * abs(g.imag) * y_min + abs(kappa)) / (c * c + y_min * y_min)
    if ebar >= 0.5:
        return None
    u_sum_est = M_eff * (S1 + y_sign * 2.0 * g.imag * S_y - kappa * S_2)
    r_bound = M_eff * ebar * ebar / (1.0 - ebar) * S1
    u_max = M_eff / (c * c + y_min * y_min) * (1.0 + ebar) / (1.0 - ebar)
    # -ln(1-u) = u + lncorr with 0 <= lncorr <= u^2/(2(1-u_max)) summed
    ln_corr_hi = u_max * (u_sum_est + r_bound) / (2.0 * (1.0 - u_max))
    T_mid = u_sum_est + 0.5 * ln_corr_hi
    half = r_bound + 0.5 * ln_corr_hi
    return T_mid, half


def _punctured_green(cover: CoverMap, a: complex, tol_tail: float):
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
    u = np.clip(c0 * om / np.abs(1.0 - np.conj(zeta0) * zeta) ** 2, 0.0, 1.0)
    return math.exp(float(np.sum(0.5 * np.log1p(-u))) - 0.5 * T_mid), bound


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
    Punctured disc: winding tails are bracketed exactly through digamma sums.
    Annulus: lift moduli approach 1 at the geometric rate exp(-2 pi^2/L), so
    an explicit geometric majorant certifies the truncation.
    """
    a = domain.require_interior(a, "a")
    z = domain.require_interior(z, "z")
    if abs(a - z) < 1e-12:
        return 0.0, 0.0
    cover = build_cover(domain, z)
    if domain.kind == "disc":
        return abs(moebius(a, z)), 0.0
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
    if domain.kind == "punctured":
        # the ray passes through the origin when z and d are anti-parallel
        cross = (z * np.conj(d)).imag
        along = -(z * np.conj(d)).real
        if abs(cross) < 1e-15 and along > 0:
            s_max = min(s_max, along)
    return s_max


def find_pole_with_value(domain: PlaneDomain, z: complex, t: float,
                         direction: complex, tol: float = 1e-10) -> complex:
    """Point a on the ray from z in `direction` with l_D({a}, z) = t.

    Uses that the single-pole Lempert value is continuous, vanishes at z and
    tends to 1 toward the boundary: scan for the first bracket, then bisect
    to |l - t| <= tol.  The root closest to z is returned when the profile is
    not monotone.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must be in (0, 1)")
    z = domain.require_interior(z, "z")
    d = direction / abs(direction)
    cover = build_cover(domain, z)
    s_max = _ray_exit(domain, z, d)
    log_t = math.log(t)

    def log_l(s: float) -> float:
        return cover.min_lift_log_modulus(z + s * d)

    grid = np.linspace(0.0, s_max, 513)[1:] * (1.0 - 1e-12)
    lo = hi = None
    prev_s, prev_v = grid[0] * 1e-6, log_l(grid[0] * 1e-6)
    samples = []
    for s in grid:
        v = log_l(s)
        samples.append((s, v))
        if (prev_v - log_t) * (v - log_t) <= 0.0:
            lo, hi = prev_s, s
            break
        prev_s, prev_v = s, v
    if lo is None:
        # push geometrically toward the boundary where l -> 1
        for j in range(1, 50):
            s = s_max * (1.0 - 2.0 ** (-j - 1))
            v = log_l(s)
            samples.append((s, v))
            if v >= log_t:
                lo, hi = prev_s, s
                break
            prev_s, prev_v = s, v
    if lo is None:
        raise RuntimeError(
            f"bracketing failed for t={t} along direction {d}: samples {samples[-5:]}")
    flo = prev_v - log_t  # the bracket's lo is always the last sample before hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = log_l(mid)
        if abs(math.expm1(v - log_t) * t) <= tol:
            return z + mid * d
        if flo * (v - log_t) <= 0.0:
            hi = mid
        else:
            lo, flo = mid, v - log_t
    a = z + 0.5 * (lo + hi) * d
    if abs(math.exp(log_l(0.5 * (lo + hi))) - t) > max(tol * 10, 1e-9):
        raise RuntimeError(f"bisection did not converge for t={t}")
    return a

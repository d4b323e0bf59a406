import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

import lempertpoles.covering_domains as cd
from lempertpoles.acceptance import annulus_green_image_series
from lempertpoles.complex_kernel import moebius, moebius_error
from lempertpoles.covering_domains import (
    LIFTS_PER_SIDE_MAX,
    CoverMap,
    PlaneDomain,
    build_cover,
    find_pole_with_value,
    green_plane,
    lempert_N_plane,
    lempert_poleset_plane,
    parse_domain,
    preimage_moduli,
)
from lempertpoles.disc_domain import PoleSet


def test_domain_parsing_and_membership():
    assert parse_domain("disc").kind == "disc"
    assert parse_domain("annulus:0.25").R == 0.25
    ann = PlaneDomain("annulus", R=0.3)
    assert ann.contains(0.5) and not ann.contains(0.2) and not ann.contains(1.01)
    punct = PlaneDomain("punctured")
    assert punct.contains(0.5) and not punct.contains(0.0)
    with pytest.raises(ValueError):
        PlaneDomain("annulus", R=1e-9)
    with pytest.raises(ValueError):
        parse_domain("square")


def test_unnormalized_base_points():
    punct = build_cover(PlaneDomain("punctured"), 0.3)
    assert punct.eval_raw(0j) == pytest.approx(math.exp(-1))
    ann = build_cover(PlaneDomain("annulus", R=0.3), 0.5)
    assert ann.eval_raw(0j) == pytest.approx(math.sqrt(0.3))


def test_normalization_pins_base_point():
    rng = np.random.default_rng(2)
    for dom in (PlaneDomain("punctured"), PlaneDomain("annulus", R=0.2)):
        lo = 0.05 if dom.kind == "punctured" else dom.R + 0.05
        for _ in range(50):
            z = (lo + (0.95 - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())
            cover = build_cover(dom, z)
            assert abs(complex(cover.eval(0j)) - z) < 1e-12


def test_covering_identity_on_lifts():
    rng = np.random.default_rng(3)
    for dom in (PlaneDomain("punctured"), PlaneDomain("annulus", R=0.3)):
        lo = 0.1 if dom.kind == "punctured" else dom.R + 0.05
        for _ in range(10):
            z = (lo + (0.9 - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())
            a = (lo + (0.9 - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())
            cover = build_cover(dom, z)
            ls = cover.lifts(a, 6)
            # strip coordinates reproduce the pole exactly for every winding
            assert np.max(np.abs(cover.eval_at_strip(ls.s) - a)) < 1e-11
            # disc coordinates reproduce it for lifts that floats can
            # resolve; precision degrades like eps/delta near the circle
            resolved = ls.delta > 1e-3
            if resolved.any():
                vals = cover.eval(ls.eta[resolved])
                assert np.max(np.abs(vals - a)) < 1e-9


def test_first_lift_of_base_is_zero():
    cover = build_cover(PlaneDomain("punctured"), 0.4 + 0.1j)
    m = preimage_moduli(cover, 0.4 + 0.1j, K=3)
    assert m[0] < 1e-14


def test_cover_maps_sampled_points_into_domain():
    rng = np.random.default_rng(21)
    for dom in (PlaneDomain("punctured"), PlaneDomain("annulus", R=0.3)):
        lo = 0.1 if dom.kind == "punctured" else 0.45
        cover = build_cover(dom, lo + 0.2)
        pts = 0.97 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        vals = cover.eval(pts)
        assert all(dom.contains(v, margin=-1e-12) for v in vals)


def test_deck_invariance_of_moduli():
    # a cover normalized at a deck-translated base lift must reproduce the
    # modulus multiset; shifts are kept within the float-resolved range of
    # the deck orbit (deeper annulus translates collapse onto the unit circle
    # and carry no position data)
    for dom, shifts in ((PlaneDomain("punctured"), (1, -2)),
                        (PlaneDomain("annulus", R=0.25), (1,))):
        lo = 0.1 if dom.kind == "punctured" else 0.35
        cover = build_cover(dom, lo + 0.2)
        a = (lo + 0.3) * np.exp(1.3j)
        m0 = preimage_moduli(cover, a, K=9)
        for shift in shifts:
            k = cover.base_winding + shift
            s, zeta, om = cover._raw_lift_data(cover.base_point, np.array([k]))
            shifted = dataclasses.replace(cover, base_winding=k, base_s=complex(s[0]),
                                          base_lift=complex(zeta[0]), _c0=float(om[0]))
            m1 = preimage_moduli(shifted, a, K=9)
            assert np.max(np.abs(m0 - m1)) < 1e-10


def test_moduli_increase_to_one_with_annulus_exponential_rate():
    R = 0.3
    dom = PlaneDomain("annulus", R=R)
    cover = build_cover(dom, 0.5)
    a = 0.6 * np.exp(0.7j)
    ls = cover.lifts(a, 6)
    deltas = ls.delta
    assert np.all(np.diff(ls.moduli) >= 0)
    # fit log(1 - |eta_k|) against winding for one side: slope ~ -2 pi^2 / L
    ks = ls.windings
    pos = ks > 0
    x = ks[pos].astype(float)
    y = np.log(deltas[pos])
    slope = np.polyfit(x, y, 1)[0]
    expected = -2 * np.pi ** 2 / (-np.log(R))
    assert abs(slope - expected) < 0.05 * abs(expected)


def test_punctured_decay_is_quadratic_in_winding():
    dom = PlaneDomain("punctured")
    cover = build_cover(dom, 0.4)
    a = 0.5 * np.exp(0.9j)
    ls = cover.lifts(a, 64)
    ks = ls.windings
    keep = ks > 4
    slope = np.polyfit(np.log(ks[keep].astype(float)), np.log(ls.delta[keep]), 1)[0]
    assert abs(slope + 2.0) < 0.05


def test_lempert_N_strict_decrease_and_domain_monotonicity():
    dom = PlaneDomain("punctured")
    a, z = 0.45 * np.exp(0.4j), 0.3 * np.exp(-1.0j)
    vals = [lempert_N_plane(dom, a, z, N).value for N in range(1, 6)]
    assert all(vals[i + 1] < vals[i] for i in range(4))
    # discs into the punctured disc are discs into the disc
    assert vals[0] >= abs(moebius(a, z)) - 1e-15


@pytest.mark.parametrize("R, a, z, N", [
    (0.8, 0.825 * np.exp(1.1j), 0.855 * np.exp(-2j), 20),
    (0.3, 0.55 * np.exp(1.1j), 0.6, 200),
])
def test_lempert_N_stops_enumerating_once_deficits_underflow(monkeypatch, R, a, z, N):
    # once the N-th deficit is 0.0, lifts outside the window cannot change
    # the value: it must equal the one over the largest window
    dom = PlaneDomain("annulus", R=R)
    full = build_cover(dom, z).lifts(a, LIFTS_PER_SIDE_MAX)
    assert full.delta[N - 1] == 0.0
    windows = []
    lifts = CoverMap.lifts

    def counting_lifts(self, a, per_side):
        windows.append(per_side)
        return lifts(self, a, per_side)

    monkeypatch.setattr(CoverMap, "lifts", counting_lifts)
    res = lempert_N_plane(dom, a, z, N)
    assert res.value == math.exp(float(np.sum(full.log_modulus[:N])))
    assert res.meta["deltas"] == full.delta[:N].tolist()
    assert max(windows) <= 2 * N
    windows.clear()
    m = preimage_moduli(build_cover(dom, z), a, K=N)
    assert np.array_equal(m, full.moduli[:N])
    assert max(windows) <= 2 * N


@pytest.mark.parametrize("R, a, z, N", [
    (0.8, 0.825 * np.exp(1.1j), 0.855 * np.exp(-2j), 20),
    (0.3, 0.55 * np.exp(1.1j), 0.45 * np.exp(-2.0j), 11),
    (0.3, 0.55 * np.exp(1.1j), 0.6, 200),
])
def test_lempert_N_nodes_lie_in_the_open_disc(R, a, z, N):
    # lifts whose deficits are below the resolution of |eta| round onto the
    # circle; the reported nodes must still be points of the open disc
    dom = PlaneDomain("annulus", R=R)
    res = lempert_N_plane(dom, a, z, N)
    full = build_cover(dom, z).lifts(a, LIFTS_PER_SIDE_MAX)
    assert len(res.nodes) == N
    assert all(abs(node) < 1.0 for node in res.nodes)
    assert max(abs(node) for node in res.nodes) > 1.0 - 1e-15
    # value and deficits come from the strip data, not from the nodes
    assert res.value == math.exp(float(np.sum(full.log_modulus[:N])))
    assert res.meta["deltas"] == full.delta[:N].tolist()
    for node, delta in zip(res.nodes, res.meta["deltas"]):
        assert abs(abs(node) - (1.0 - delta)) <= 1e-15


@pytest.mark.parametrize("dom, z", [
    (PlaneDomain("disc"), 0.3 - 0.2j),
    (PlaneDomain("punctured"), 0.5),
    (PlaneDomain("annulus", R=0.3), 0.6 * np.exp(0.7j)),
])
def test_near_lift_moduli_equal_eta_modulus(dom, z):
    # moduli below 2^-1/2 are |eta| itself, not 1 - (1 - |eta|), which
    # loses the leading digits of a small modulus
    cover = build_cover(dom, z)
    for r in np.logspace(-12, math.log10(0.7), 40):
        a = complex(cover.eval(r * np.exp(2.1j)))
        ls = cover.lifts(a, 6)
        eta = abs(ls.eta[0])
        assert abs(ls.moduli[0] - eta) <= 4 * np.spacing(eta), r
        assert abs(preimage_moduli(cover, a, 2)[0] - eta) <= 4 * np.spacing(eta), r
        res = lempert_N_plane(dom, a, z, 2)
        assert abs(res.meta["moduli"][0] - eta) <= 4 * np.spacing(eta), r


@pytest.mark.parametrize("dom, z", [
    (PlaneDomain("disc"), 0.3 - 0.2j),
    (PlaneDomain("punctured"), 0.5),
    (PlaneDomain("annulus", R=0.3), 0.6 * np.exp(0.7j)),
])
def test_lift_rounding_bound(dom, z):
    # the disc's bound is computed when read, from the lift's own Moebius
    # arguments; plane domains have none yet
    cover = build_cover(dom, z)
    for a in (0.4 + 0.1j, -0.7j, 0.95):
        ls = cover.lifts(a, 6)
        if dom.kind == "disc":
            assert ls.err.tolist() == [moebius_error(cover.base_lift, a)]
        else:
            assert ls.err.tolist() == [0.0] * len(ls.eta)


def test_lempert_N_degenerate_at_pole():
    res = lempert_N_plane(PlaneDomain("annulus", R=0.2), 0.5, 0.5, 3)
    assert res.value == 0.0 and res.nodes == (0j,)


def test_poleset_plane_consistency_and_monotonicity():
    dom = PlaneDomain("annulus", R=0.2)
    z = 0.5
    a1, a2 = 0.4 * np.exp(2.0j), 0.7 * np.exp(-0.5j)
    single = lempert_poleset_plane(dom, PoleSet(points=(a1,), domain=dom), z)
    assert single.value == pytest.approx(lempert_N_plane(dom, a1, z, 1).value)
    both = lempert_poleset_plane(dom, PoleSet(points=(a1, a2), domain=dom), z)
    assert both.value <= single.value
    # domain monotonicity against the disc formula
    assert both.value >= abs(moebius(a1, z)) * abs(moebius(a2, z)) - 1e-15


def test_prop2_certificate_reproduces_poles():
    dom = PlaneDomain("annulus", R=0.2)
    z = 0.45 * np.exp(1.0j)
    A = PoleSet(points=(0.4, 0.6 * np.exp(2.2j)), domain=dom)
    res = lempert_poleset_plane(dom, A, z)
    for node, pole in zip(res.nodes, A):
        assert abs(complex(res.certificate.eval(node)) - pole) < 1e-10


def test_partial_products_bounded_by_green():
    dom = PlaneDomain("punctured")
    a, z = 0.5 * np.exp(0.3j), 0.35 * np.exp(-2.0j)
    g, tail = green_plane(dom, a, z, tol_tail=1e-9)
    prev = 1.0
    for N in range(1, 9):
        v = lempert_N_plane(dom, a, z, N).value
        assert v < prev
        assert v >= g * (1 - tail) - 1e-15
        prev = v


def test_green_enumerates_lifts_once(monkeypatch):
    # the depth comes from the closed-form tail bound alone, so each Green
    # function enumerates the lifts of one window, the one its bound accepts
    windows, windings = [], []
    lifts, punct_strip = CoverMap.lifts, cd._punct_strip

    def counting_lifts(self, a, per_side):
        windows.append(per_side)
        return lifts(self, a, per_side)

    def counting_strip(log_r, theta, ks):
        windings.append(len(ks))
        return punct_strip(log_r, theta, ks)

    monkeypatch.setattr(CoverMap, "lifts", counting_lifts)
    monkeypatch.setattr(cd, "_punct_strip", counting_strip)
    res = green_plane(PlaneDomain("annulus", R=1e-6), 0.5, 0.5 * np.exp(2j), tol_tail=1e-12)
    assert windows == [64]
    assert res == (0.7729340492219975, 1.39e-14)
    res = green_plane(PlaneDomain("punctured"), 0.4 + 0.2j, -0.3 + 0.1j, tol_tail=3e-12)
    assert windings == [7, 4097]  # build_cover's 7 windings, then one window
    # the bound includes 4.0e-18 from the digamma and trigamma series bounds
    assert res == (0.6401843996644254, 9.228877691169944e-13)


def test_green_punctured_matches_moebius():
    dom = PlaneDomain("punctured")
    rng = np.random.default_rng(8)
    for _ in range(25):
        a = (0.1 + 0.8 * rng.random()) * np.exp(2j * np.pi * rng.random())
        z = (0.1 + 0.8 * rng.random()) * np.exp(2j * np.pi * rng.random())
        v, tail = green_plane(dom, a, z, tol_tail=1e-9)
        assert abs(v - abs(moebius(a, z))) < 1e-8
        assert tail <= 1e-9
        # the certificate itself: the true value lies inside the stated band
        truth = abs(moebius(a, z))
        assert v * (1 - tail) - 1e-14 <= truth <= v * (1 + tail) + 1e-14


NEAR_BASE = (0.3 + 0.2j, -0.6 + 0.1j, 0.05j)


@pytest.mark.parametrize("z", NEAR_BASE)
def test_green_punctured_near_the_base_point(z):
    # on the punctured disc g(a, z) is the Moebius modulus, since {0} is
    # polar; near windings take the direct modulus, so the value stays
    # within its tail bound of it as a approaches z
    mp = pytest.importorskip("mpmath")
    dom = PlaneDomain("punctured")
    with mp.workdps(40), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for d in (0.3, 0.1, 1e-2, 1e-3, 1e-4):
            a = z + d * np.exp(0.7j)
            m = float(abs(mp.mpc(a) - mp.mpc(z)) / abs(1 - mp.conj(mp.mpc(z)) * mp.mpc(a)))
            v, tail = green_plane(dom, a, z)
            assert abs(v - m) <= tail * m + 4 * np.spacing(m), d
        # nearer, forming zeta - zeta0 from rounded lifts costs about 1e-16/d
        # relative, but the value stays positive and below l^3
        for d in (1e-6, 1e-8, 1e-10, 1e-12):
            a = z + d * np.exp(0.7j)
            v, _ = green_plane(dom, a, z)
            assert 0.0 < v <= lempert_N_plane(dom, a, z, 3).value, d


def test_only_exact_coincidence_is_a_pole_hit():
    # a pole 5e-13 from the base point keeps its value |a - z| / (1 - |a|^2)
    dom = PlaneDomain("disc")
    a = 0.9999999
    z = a + 5e-13j
    want = abs(moebius(a, z))
    assert want == pytest.approx(2.5e-6, rel=1e-6)
    assert lempert_poleset_plane(dom, PoleSet(points=(a,)), z).value == pytest.approx(want, rel=1e-9)
    assert lempert_N_plane(dom, a, z, 2).value == pytest.approx(want, rel=1e-9)
    assert green_plane(dom, a, z)[0] == want
    for dom in (PlaneDomain("punctured"), PlaneDomain("annulus", R=0.2)):
        assert lempert_poleset_plane(dom, PoleSet(points=(0.5, 0.6j), domain=dom), 0.5).value == 0.0
        assert lempert_N_plane(dom, 0.5, 0.5, 2).value == green_plane(dom, 0.5, 0.5)[0] == 0.0


def test_green_thin_and_deep_annulus_radii():
    for R in (1e-6, 0.9999):
        dom = PlaneDomain("annulus", R=R)
        a = (R + (1 - R) * 0.3) * np.exp(0.4j)
        z = (R + (1 - R) * 0.7) * np.exp(-0.9j)
        v, tail = green_plane(dom, a, z)
        assert 0.0 < v <= 1.0
        assert tail < 1e-10


def test_green_annulus_matches_image_series():
    rng = np.random.default_rng(12)
    for R in (0.1, 0.3, 0.6):
        dom = PlaneDomain("annulus", R=R)
        for _ in range(5):
            a = (R + (1 - R) * (0.2 + 0.6 * rng.random())) * np.exp(2j * np.pi * rng.random())
            z = (R + (1 - R) * (0.2 + 0.6 * rng.random())) * np.exp(2j * np.pi * rng.random())
            v, _ = green_plane(dom, a, z)
            oracle = annulus_green_image_series(a, z, R)
            assert abs(v - oracle) / oracle < 1e-6


def test_green_bounded_by_lempert():
    dom = PlaneDomain("annulus", R=0.3)
    a, z = 0.6 * np.exp(1.0j), 0.45
    g, _ = green_plane(dom, a, z)
    l1 = lempert_poleset_plane(dom, PoleSet(points=(a,), domain=dom), z).value
    assert g <= l1 + 1e-15


def test_find_pole_disc_closed_form():
    # oracle: solve |Phi_a(z)| = t along the ray in closed form (quadratic in s)
    z = 0.2 + 0.1j
    t = 0.6
    phi = 0.9
    d = np.exp(1j * phi)
    c1 = 1 - t * t * abs(z) ** 2
    c2 = 2 * t * t * (1 - abs(z) ** 2) * (np.conj(z) * d).real
    c3 = -t * t * (1 - abs(z) ** 2) ** 2
    s_oracle = (-c2 + math.sqrt(c2 * c2 - 4 * c1 * c3)) / (2 * c1)
    a_oracle = z + s_oracle * d
    a = find_pole_with_value(PlaneDomain("disc"), z, t, d)
    assert abs(a - a_oracle) < 1e-9
    assert abs(abs(moebius(a, z)) - t) < 1e-10


def test_find_pole_continuity_and_multiplicity():
    dom = PlaneDomain("annulus", R=0.2)
    z = 0.5
    # t -> 0 pulls the pole to the base point
    a_small = find_pole_with_value(dom, z, 1e-4, np.exp(0.4j))
    assert abs(a_small - z) < 1e-2
    # two directions give two poles with the same value
    a1 = find_pole_with_value(dom, z, 0.7, np.exp(0.4j))
    a2 = find_pole_with_value(dom, z, 0.7, np.exp(2.9j))
    assert abs(a1 - a2) > 1e-3
    v1 = lempert_N_plane(dom, a1, z, 1).value
    v2 = lempert_N_plane(dom, a2, z, 1).value
    assert abs(v1 - 0.7) < 1e-10 and abs(v2 - 0.7) < 1e-10


@pytest.mark.parametrize("dom,z,t,d,point,old_calls", [
    (PlaneDomain("annulus", R=0.3), 0.6 + 0.1j, 0.5, 1j, 0.6 + 0.3459071364222197j, 232),
    (PlaneDomain("punctured"), 0.4, 0.3, -1 + 1j,
     0.24033527037076702 + 0.159664729629233j, 144),
])
def test_find_pole_bisection_keeps_lower_value(monkeypatch, dom, z, t, d, point, old_calls):
    # the scan is one batched evaluation and the bisection keeps l - t at its
    # lower end instead of re-evaluating it: the same point from at most 40
    # evaluator calls, the batch counted once (old_calls, counted on a
    # one-point scan with a re-evaluating bisection)
    calls = []
    real = cd.CoverMap.min_lift_log_modulus
    monkeypatch.setattr(cd.CoverMap, "min_lift_log_modulus",
                        lambda self, x: calls.append(x) or real(self, x))
    a = find_pole_with_value(dom, z, t, d, tol=1e-11)
    assert a == point
    assert len(calls) <= 40 < old_calls


def _ray_points(dom, rng, rays=8):
    """(cover, points) on seeded random rays from random base points:
    points geometrically near the base point, uniform ones, and points
    geometrically near the exit, all interior."""
    for _ in range(rays):
        r0 = dom.R or 0.0
        z = (r0 + (1 - r0) * rng.uniform(0.05, 0.95)) * np.exp(2j * np.pi * rng.random())
        d = np.exp(2j * np.pi * rng.random())
        frac = np.concatenate((np.logspace(-9, -1, 40), rng.random(40),
                               1.0 - np.logspace(-12, -1, 40)))
        pts = z + cd._ray_exit(dom, z, d) * frac * d
        yield build_cover(dom, z), pts[[dom.contains(p) for p in pts]]


BITS_DOMAINS = [PlaneDomain("annulus", R=0.02), PlaneDomain("annulus", R=0.3),
                PlaneDomain("annulus", R=0.7), PlaneDomain("punctured"), PlaneDomain("disc")]


@pytest.mark.parametrize("dom", BITS_DOMAINS, ids=str)
def test_batched_min_lift_keeps_point_bits(dom):
    # the batch gives each point the bits of its one-point call and of the
    # smallest lift that `lifts` enumerates
    rng = np.random.default_rng(11)
    for cover, pts in _ray_points(dom, rng):
        batch = cover.min_lift_log_modulus(pts)
        alone = np.array([cover.min_lift_log_modulus(p) for p in pts])
        lifts = np.array([cover.lifts(p, 4).log_modulus[0] for p in pts])
        assert batch.tobytes() == alone.tobytes() == lifts.tobytes()
    assert cover.min_lift_log_modulus(pts.reshape(-1, 2)).shape == (len(pts) // 2, 2)
    assert type(cover.min_lift_log_modulus(pts[0])) is float


def test_batched_min_lift_bits_control(monkeypatch):
    # negative control: log|a| of the relative points by np.abs and np.log
    # on the array moves the last bits of some values
    monkeypatch.setattr(cd, "_log_abs", lambda a: np.log(np.abs(a)))
    rng = np.random.default_rng(11)
    differ = 0
    for dom in BITS_DOMAINS[:4]:
        for cover, pts in _ray_points(dom, rng):
            lifts = np.array([cover.lifts(p, 4).log_modulus[0] for p in pts])
            differ += int(np.sum(cover.min_lift_log_modulus(pts) != lifts))
    assert differ > 0


def test_batched_min_lift_off_domain():
    # an array gives NaN where a point is off the domain; the point alone raises
    cover = build_cover(PlaneDomain("annulus", R=0.3), 0.5)
    v = cover.min_lift_log_modulus(np.array([0.6, 0.1, 0.7j, 1.0]))
    assert np.isnan(v[[1, 3]]).all() and np.isfinite(v[[0, 2]]).all()
    with pytest.raises(ValueError, match="not interior"):
        cover.min_lift_log_modulus(0.1)


def _scan_one_at_a_time(domain, z, t, direction, tol):
    """find_pole_with_value with one evaluator call per scan point: the
    first sign change of l - t over z and the grid, else the first push point
    beyond the grid with l >= t, then the bisection.  A ray into the
    puncture is scanned and bisected in x = log rho, a = z rho, down to the
    smallest normal |a|, with no push."""
    d = direction / abs(direction)
    cover = build_cover(domain, z)
    log_t = math.log(t)
    if cd._meets_puncture(domain, z, d):
        point = lambda x: z * np.exp(x)
        grid, s_max = np.linspace(0.0, math.log(sys.float_info.min / abs(z)), 513)[1:], None
    else:
        point = lambda x: z + x * d
        s_max = cd._ray_exit(domain, z, d)
        grid = np.linspace(0.0, s_max, 513)[1:] * (1.0 - 1e-12)

    def log_l(s):
        return cover.min_lift_log_modulus(point(s))

    lo = None
    prev_s, prev_v = 0.0, log_l(0.0)
    for s in grid:
        v = log_l(s)
        if (prev_v - log_t) * (v - log_t) <= 0.0:
            lo, hi = prev_s, s
            break
        prev_s, prev_v = s, v
    if lo is None:
        for j in range(1, 50):
            s = s_max * (1.0 - 2.0 ** (-j - 1))
            if s <= grid[-1]:
                continue
            v = log_l(s)
            if v >= log_t:
                lo, hi = prev_s, s
                break
            prev_s, prev_v = s, v
    flo = prev_v - log_t
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = log_l(mid)
        if abs(math.expm1(v - log_t) * t) <= tol:
            return point(mid)
        if flo * (v - log_t) <= 0.0:
            hi = mid
        else:
            lo, flo = mid, v - log_t
    if abs(math.exp(log_l(0.5 * (lo + hi))) - t) > max(tol * 10, 1e-9):
        raise AssertionError("the reference bisection did not converge")
    return point(0.5 * (lo + hi))


def _c9_find_pole_calls(monkeypatch):
    """The find_pole_with_value calls of criterion 9's construction."""
    import lempertpoles.product_engine as pe
    from lempertpoles.acceptance import c9_prop10

    calls = []
    real = pe.find_pole_with_value
    monkeypatch.setattr(pe, "find_pole_with_value",
                        lambda *args, **kw: calls.append((args, kw)) or real(*args, **kw))
    assert c9_prop10().passed
    return calls


# (domain, z, t, direction, tol) of the scan's edge cases
LAST_CELL = (PlaneDomain("annulus", R=0.2), 0.5, 1 - 5e-8, np.exp(0.4j), 1e-11)
INTO_PUNCTURE = (PlaneDomain("punctured"), 0.4, 0.938, -1.0, 1e-8)
OFF_DOMAIN = (PlaneDomain("annulus", R=0.02), -0.8228827822373055 - 0.48778931163788225j,
              1 - 1e-15, -0.983795912370888 + 0.17929194851507424j, 1e-11)
# levels below l at the first grid point: crossed in the cell from z itself
FIRST_CELL = [(PlaneDomain("annulus", R=0.3), 0.6 + 0.1j, 1e-9, 1j, 1e-15),
              (PlaneDomain("disc"), 0.2, 1e-9, 1j, 1e-15),
              (PlaneDomain("annulus", R=0.2), 0.5, 1e-9, 1j, 1e-15)]


def test_find_pole_scan_matches_one_point_scan(monkeypatch):
    cases = [
        (PlaneDomain("annulus", R=0.3), 0.6 + 0.1j, 0.5, 1j, 1e-11),
        (PlaneDomain("punctured"), 0.4, 0.3, -1 + 1j, 1e-11),
        LAST_CELL,
        INTO_PUNCTURE,
        *FIRST_CELL,
    ]
    c9 = _c9_find_pole_calls(monkeypatch)
    assert len(c9) >= 4
    cases += [(*args, kw["tol"]) for args, kw in c9]
    for dom, z, t, d, tol in cases:
        assert find_pole_with_value(dom, z, t, d, tol=tol) == _scan_one_at_a_time(dom, z, t, d, tol)
    # a scan that reaches a push point rounded off the domain raises as the
    # one-point scan does
    errors = []
    for scan in (find_pole_with_value, _scan_one_at_a_time):
        with pytest.raises(ValueError, match="not interior") as err:
            scan(*OFF_DOMAIN[:4], tol=OFF_DOMAIN[4])
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_find_pole_edge_cases_reach_their_ends():
    # LAST_CELL crosses t in the grid's last step, as the benchmark's second
    # Proposition-10 level does; INTO_PUNCTURE crosses t within 1e-12 of the
    # puncture, on the scan in log rho
    dom, z, t, d, tol = LAST_CELL
    s_max = cd._ray_exit(dom, z, d)
    assert abs(find_pole_with_value(dom, z, t, d, tol=tol) - z) > s_max * 511 / 512
    dom, z, t, d, tol = INTO_PUNCTURE
    assert cd._ray_exit(dom, z, d) == 0.4
    assert 0.0 < find_pole_with_value(dom, z, t, d, tol=tol).real < 0.4 * 1e-12


@pytest.mark.parametrize("dom, z, t, d, tol", FIRST_CELL)
def test_find_pole_level_below_the_first_grid_point(dom, z, t, d, tol):
    # l rises past t before the first grid point; the bracket starts at z,
    # where l = 0, and the pole lies on the ray within tol of the level
    a = find_pole_with_value(dom, z, t, d, tol=tol)
    s = (a - z) / d
    assert abs(s.imag) < 1e-15 and 0.0 < s.real < cd._ray_exit(dom, z, d) / 512
    value = lempert_poleset_plane(dom, PoleSet(points=(a,), domain=dom), z).value
    assert abs(value - t) <= tol


@pytest.mark.parametrize("t", [0.94, 0.95, 0.99])
def test_find_pole_on_a_ray_into_the_puncture(t):
    # l reaches these levels only within 1e-12 of the puncture (0.99 at
    # |a| ~ 1e-79), where one ulp of s near s_max = 0.4 moves l by about 1e-6
    dom, z = PlaneDomain("punctured"), 0.4
    a = find_pole_with_value(dom, z, t, -1.0, tol=1e-11)
    assert a.imag == 0.0 and 0.0 < a.real < 1e-12
    assert abs(lempert_poleset_plane(dom, PoleSet(points=(a,), domain=dom), z).value - t) <= 1e-11


def test_find_pole_level_beyond_the_puncture_scan_is_refused():
    # l is about 0.99742 at the smallest normal |a| on this ray
    with pytest.raises(ValueError, match="beyond l = 0.997"):
        find_pole_with_value(PlaneDomain("punctured"), 0.4, 0.998, -1.0)


def test_complex_trigamma_against_real_reference():
    mp = pytest.importorskip("mpmath")
    for x in (60.0, 123.5, 1025.0, 9001.25):
        ours, err, _ = cd._trigamma_complex(complex(x))
        ref = float(mp.polygamma(1, x))
        assert abs(ours - ref) < 1e-16 + 1e-13 * ref
        assert ours.imag == 0.0 and err < 1e-13 * ref


SERIES_POINTS = [complex(x, y) for x in (50.0, 1025.0, 1e4, 1e6) for y in (0.0, 1e-3, 0.3, 5.0)]


def _series_misses(mp, points):
    """The points where _digamma_complex or _trigamma_complex lies, in its
    real or imaginary part, off the 40-digit mpmath value by more than its
    stated bound."""
    misses = []
    with mp.workdps(40):
        for z in points:
            arg = mp.mpc(z.real, z.imag)
            for fn, ref in ((cd._digamma_complex, mp.digamma(arg)),
                            (cd._trigamma_complex, mp.polygamma(1, arg))):
                value, err_re, err_im = fn(z)
                if (abs(mp.mpf(value.real) - ref.real) > err_re
                        or abs(mp.mpf(value.imag) - ref.imag) > err_im):
                    misses.append((fn.__name__, z))
    return misses


def test_psi_series_lie_within_their_stated_bounds():
    mp = pytest.importorskip("mpmath")
    assert _series_misses(mp, SERIES_POINTS) == []


@pytest.mark.parametrize("k", range(len(cd.BERNOULLI_2K)))
def test_psi_series_bound_check_catches_a_dropped_term(monkeypatch, k):
    # each Bernoulli term of both series lies above the stated bound at
    # Re z = 50, the smallest Re z the series take
    mp = pytest.importorskip("mpmath")
    dropped = tuple(0.0 if i == k else b for i, b in enumerate(cd.BERNOULLI_2K))
    monkeypatch.setattr(cd, "BERNOULLI_2K", dropped)
    at_50 = [z for z in SERIES_POINTS if z.real == 50.0]
    misses = _series_misses(mp, at_50)
    assert {name for name, _ in misses} == {"_digamma_complex", "_trigamma_complex"}


@pytest.mark.parametrize("fn", [cd._digamma_complex, cd._trigamma_complex])
def test_psi_series_refuse_re_below_50(fn):
    with pytest.raises(RuntimeError, match="Re z >= 50"):
        fn(complex(49.9, 0.3))
    fn(complex(50.0, 0.3))


def test_punctured_tail_bound_carries_the_series_bounds(monkeypatch):
    # stated series errors of 1e-12 widen the reported tail bound by their
    # image in S1 = Im psi / (2 pi c) at least, c = 1 - log|a|, on both sides
    dom, a, z = PlaneDomain("punctured"), 0.4 + 0.2j, -0.3 + 0.1j
    value, bound = green_plane(dom, a, z)
    for name in ("_digamma_complex", "_trigamma_complex"):
        fn = getattr(cd, name)
        monkeypatch.setattr(cd, name, lambda w, fn=fn: (fn(w)[0], 1e-12, 1e-12))
    value_wide, bound_wide = green_plane(dom, a, z)
    cover = build_cover(dom, z)
    c = 1.0 - math.log(abs(a))
    M_eff = cover._c0 * 4.0 * (c - 1.0) / abs(1.0 - np.conj(cover.base_lift)) ** 2
    assert value_wide == pytest.approx(value, rel=1e-15)
    assert bound_wide - bound >= 2.0 * M_eff * 1e-12 / (2.0 * np.pi * c) * (1.0 - 1e-6)


def test_find_pole_rejects_bad_level():
    with pytest.raises(ValueError):
        find_pole_with_value(PlaneDomain("disc"), 0.0, 1.5, 1.0)

import numpy as np
import pytest

import lempertpoles.interpolation as itp
import lempertpoles.product_engine as pe
from lempertpoles.complex_kernel import moebius
from lempertpoles.covering_domains import (
    PlaneDomain,
    find_pole_with_value,
    lempert_poleset_plane,
)
from lempertpoles.disc_domain import PoleSet
from lempertpoles.interpolation import theorem5_ladder
from lempertpoles.product_engine import (
    BoundsReport,
    corollary8_sample,
    prop9_extend,
    prop10_construct,
    prop11_construct,
    theorem5_bounds,
    theorem7_decide,
)

DISC = PlaneDomain("disc")


def test_bounds_report_ordering_enforced():
    with pytest.raises(RuntimeError):
        BoundsReport(lower=0.5, upper=0.4, certificate=None,
                     certificate_nodes=(), equality_flag=False)


def test_theorem5_disc_equality():
    A = PoleSet(points=(0.5, 0.5j))
    rep = theorem5_bounds(DISC, DISC, A, 0.3 - 0.2j, 0.1 + 0.05j, -0.2 + 0.1j)
    assert rep.lower <= rep.upper + 1e-12
    assert rep.upper - rep.lower < 1e-9
    assert rep.equality_flag
    assert rep.meta["certificate_residual"] < 1e-9


def test_theorem5_singleton_A():
    A = PoleSet(points=(0.4,))
    rep = theorem5_bounds(DISC, DISC, A, 0.3, 0.0, 0.0)
    assert rep.lower == pytest.approx(max(0.4, 0.3))
    assert rep.upper - rep.lower < 1e-9


def test_theorem5_annulus_strict_gap():
    G = PlaneDomain("annulus", R=0.1)
    A = PoleSet(points=(0.12 + 0.02j, -0.05 + 0.13j))
    b = 0.45 * np.exp(1j * np.pi * 0.9)
    rep = theorem5_bounds(DISC, G, A, b, 0.1, 0.4)
    assert rep.upper - rep.lower > 1e-6
    assert not rep.equality_flag
    assert rep.meta["certificate_residual"] < 1e-9


def test_theorem5_pole_through_base():
    # z in A forces l_D(A, z) = 0: the interpolation lemma meets a zero
    # target, whose node is the crossing parameter a itself
    A = PoleSet(points=(0.2, 0.5j))
    rep = theorem5_bounds(DISC, DISC, A, 0.3, 0.2, 0.0)
    assert rep.lower == pytest.approx(0.3)
    assert rep.upper == pytest.approx(0.3, abs=1e-5)
    assert rep.meta["certificate_residual"] < 1e-9


def _sequential_ladder(D, G, A, b, z, w):
    """Theorem 5's slack ladder built one rung at a time, each a ladder of one
    rung, stopping at the first rung that fails: the loop
    that theorem5_bounds's one batch must reproduce.  Returns the repr of the
    upper bound, the nodes, the certificate at 0 and at every node, and the
    certificate residual."""
    resD = lempert_poleset_plane(D, A, z)
    phi, lam, lD = resD.certificate, resD.nodes, resD.value
    resG = lempert_poleset_plane(G, PoleSet(points=(b,), domain=G), w)
    psi, zeta, lG1 = resG.certificate, complex(resG.nodes[0]), resG.value
    upper0 = max(lD, lG1)
    xi = eta = alpha = None
    s = pe.SLACK
    while s >= pe.SLACK_FLOOR:
        cand = upper0 + s
        if cand >= 1.0 or cand <= max(lD, abs(zeta)):
            break
        certified, cert = theorem5_ladder(phi, lam, psi, zeta, [cand])
        if not certified:
            break
        xi, eta = cert
        alpha = cand
        s /= 8.0
    upper = alpha if alpha is not None else upper0
    return _ladder_repr(float(upper), xi, tuple(eta) if eta is not None else (), z, w, A, b)


def _ladder_repr(upper, xi, eta, z, w, A, b):
    if xi is None:
        return repr((upper, eta, None, None))
    values = [xi.eval(v) for v in (0.0,) + eta]
    residual = max(abs(complex(values[0][0]) - z), abs(complex(values[0][1]) - w))
    for v, a in zip(values[1:], A):
        residual = max(residual, abs(complex(v[0]) - a), abs(complex(v[1]) - b))
    return repr((upper, eta, values, residual))


def _bounds_repr(rep):
    xi, eta = rep.certificate, rep.certificate_nodes
    values = None if xi is None else [xi.eval(v) for v in (0.0,) + eta]
    return repr((rep.upper, eta, values, rep.meta["certificate_residual"]))


def _certify_like_instances(seed, per_stratum):
    """Instances drawn like the certify benchmark's strata: G a disc, an
    annulus or a punctured disc; 1-4 poles placed by their reduced nodes,
    with and without a pole at the base point z."""
    rng = np.random.default_rng(seed)
    point = lambda lo, hi: (lo + (hi - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())
    for g_kind in ("disc", "annulus", "punctured"):
        for n in (1, 2, 3, 4):
            for zero in (False, True) if n > 1 else (False,):
                for _ in range(per_stratum):
                    z = 0.5 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                    nodes = []
                    while len(nodes) < n:
                        u = point(0.3, 0.9)
                        if all(abs(u - v) >= 0.05 for v in nodes):
                            nodes.append(u)
                    if zero:
                        nodes[0] = 0j
                    A = PoleSet(points=tuple(complex(moebius(z, u)) for u in nodes))
                    if g_kind == "disc":
                        G, lo, hi = DISC, 0.0, 0.9
                    elif g_kind == "annulus":
                        R = 0.05 + 0.2 * rng.random()
                        G, lo, hi = PlaneDomain("annulus", R=R), R + 0.2 * (1 - R), 1 - 0.2 * (1 - R)
                    else:
                        G, lo, hi = PlaneDomain("punctured"), 0.1, 0.9
                    w = point(lo, hi)
                    b = point(lo, hi)
                    while abs(b - w) < 0.05:
                        b = point(lo, hi)
                    yield G, A, complex(b), complex(z), complex(w)


def test_theorem5_ladder_batch_matches_sequential_ladder():
    instances = list(_certify_like_instances(seed=5, per_stratum=3))
    assert len(instances) == 63
    zero_nodes = 0
    for G, A, b, z, w in instances:
        rep = theorem5_bounds(DISC, G, A, b, z, w)
        assert _bounds_repr(rep) == _sequential_ladder(DISC, G, A, b, z, w)
        zero_nodes += any(abs(a - z) == 0 for a in A)
    assert zero_nodes >= 18


def _failing_rungs(monkeypatch, failing):
    """Make the ladder's batch report a RuntimeError for every q in failing."""
    real = itp._solve_rows

    def solve_rows(mu, q, errors=None):
        rows = real(mu, q, errors)
        for k, v in enumerate(q):
            if v in failing:
                rows.errors[k] = RuntimeError("rung failed")
        return rows

    monkeypatch.setattr(itp, "_solve_rows", solve_rows)


def test_theorem5_ladder_stops_at_first_failed_rung(monkeypatch):
    A = PoleSet(points=(0.5, 0.5j))
    b, z, w = 0.3 - 0.2j, 0.1 + 0.05j, -0.2 + 0.1j
    clean = theorem5_bounds(DISC, DISC, A, b, z, w)
    upper0 = max(clean.meta["l_D_A"], clean.meta["l_G_1"])
    assert clean.upper == upper0 + 1e-6 / 8 ** 5  # all six rungs succeed
    assert (clean.meta["rungs_tried"], clean.meta["rungs_certified"]) == (6, 6)
    _failing_rungs(monkeypatch, {upper0 + 1e-6 / 8 / 8})  # the third rung
    rep = theorem5_bounds(DISC, DISC, A, b, z, w)
    # the previous rung's candidate, although later rungs succeed in the batch
    assert rep.upper == upper0 + 1e-6 / 8
    assert (rep.meta["rungs_tried"], rep.meta["rungs_certified"]) == (6, 2)
    assert _bounds_repr(rep) == _sequential_ladder(DISC, DISC, A, b, z, w)


def test_theorem5_ladder_with_every_rung_failed_reports_upper0(monkeypatch):
    A = PoleSet(points=(0.5, 0.5j))
    b, z, w = 0.3 - 0.2j, 0.1 + 0.05j, -0.2 + 0.1j
    clean = theorem5_bounds(DISC, DISC, A, b, z, w)
    upper0 = max(clean.meta["l_D_A"], clean.meta["l_G_1"])
    _failing_rungs(monkeypatch, {upper0 + 1e-6 / 8 ** k for k in range(6)})
    rep = theorem5_bounds(DISC, DISC, A, b, z, w)
    assert rep.upper == upper0
    assert (rep.meta["rungs_tried"], rep.meta["rungs_certified"]) == (6, 0)
    assert rep.certificate is None and rep.certificate_nodes == ()
    assert rep.meta["certificate_residual"] is None


def test_theorem5_bounds_builds_one_certificate(monkeypatch):
    # the ladder is solved as arrays; only the reported rung gets its disc
    calls = []
    real = itp._certificate
    monkeypatch.setattr(itp, "_certificate", lambda *args: calls.append(args[3]) or real(*args))
    for G, A, b, z, w in list(_certify_like_instances(seed=7, per_stratum=1))[:12]:
        calls.clear()
        rep = theorem5_bounds(DISC, G, A, b, z, w)
        assert rep.meta["rungs_certified"] >= 1
        assert calls == [rep.upper]


def test_theorem7_rotation_detection():
    A = PoleSet(points=(0.5, 0.5j))
    res = theorem7_decide(A, PoleSet(points=(0.5j, -0.5)))
    assert res.rotation == pytest.approx(np.pi / 2)
    assert res.value == pytest.approx(0.25)
    v = res.certificate.eval(0.5)
    assert complex(v[0]) == pytest.approx(0.5)
    assert complex(v[1]) == pytest.approx(0.5j)


def test_theorem7_identity_rotation():
    A = PoleSet(points=(0.5, 0.5j))
    res = theorem7_decide(A, A)
    assert res.rotation == pytest.approx(0.0)
    assert res.value == pytest.approx(0.25)


def test_theorem7_no_rotation():
    res = theorem7_decide(PoleSet(points=(0.5, 0.5j)), PoleSet(points=(0.5, -0.5)))
    assert res.rotation is None
    assert "fails" in res.message


def test_theorem7_hypothesis_checks():
    with pytest.raises(ValueError):
        theorem7_decide(PoleSet(points=(0.5, 0.5j)), PoleSet(points=(0.4, -0.5)))
    with pytest.raises(ValueError):
        theorem7_decide(PoleSet(points=(0.5,)), PoleSet(points=(0.5, -0.5)))


def test_corollary8_level_and_flags():
    A = PoleSet(points=(0.5, 0.5j))
    B = PoleSet(points=(0.5j, -0.5))  # congruent: two automorphism images exist
    samples = corollary8_sample(A, B, 0.2, count=8, seed=3)
    assert len(samples) == 8
    assert all(s.level_residual <= 1e-10 for s in samples)
    assert sum(s.automorphism for s in samples) <= 2
    assert sum(s.automorphism for s in samples) == 2


def test_corollary8_incongruent_pairs_give_no_flags():
    A = PoleSet(points=(0.5, 0.5j))
    B = PoleSet(points=(0.4, -0.3j))
    samples = corollary8_sample(A, B, 0.2, count=6, seed=1)
    assert all(not s.automorphism for s in samples)
    t = lempert_poleset_plane(DISC, A, 0.2).value
    for s in samples:
        lv = abs(moebius(B.points[0], s.w)) * abs(moebius(B.points[1], s.w))
        assert abs(lv - t) <= 1e-10


def test_prop9_disc_case():
    A = PoleSet(points=(0.5, 0.5j))
    B = PoleSet(points=(0.5, -0.5))
    q = 0.25 / 0.2713  # max(l) over the certified product upper bound
    rep = prop9_extend(DISC, DISC, A, B, 0.0, 0.0, q,
                       PoleSet(points=(0.97,)), PoleSet(points=(0.96j,)))
    assert rep["condition3"]
    assert rep["g_product"] > q
    assert rep["strict_gap"] > 0
    # the disc green used inside matches the closed form |Phi_0(0.97)|
    assert rep["g_D_A1"] == pytest.approx(0.97, abs=1e-12)


def test_prop9_near_boundary_poles_beat_q():
    # poles within 1 - q of the boundary push the green product above q
    q = 0.9
    A1 = PoleSet(points=(0.995,))
    B1 = PoleSet(points=(0.997j,))
    rep = prop9_extend(DISC, DISC, PoleSet(points=(0.3,)), PoleSet(points=(0.4,)),
                       0.0, 0.0, q, A1, B1)
    assert rep["g_product"] > q
    assert rep["condition3"]


def test_prop9_failing_condition():
    rep = prop9_extend(DISC, DISC, PoleSet(points=(0.3,)), PoleSet(points=(0.4,)),
                       0.0, 0.0, 0.9, PoleSet(points=(0.5,)), PoleSet(points=(0.5,)))
    assert not rep["condition3"]
    assert rep["verdict"] == "condition (3) fails"


def test_prop9_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        prop9_extend(DISC, DISC, PoleSet(points=(0.3,)), PoleSet(points=(0.4,)),
                     0.0, 0.0, 0.5, PoleSet(points=(0.3,)), PoleSet(points=(0.9,)))


def test_prop10_small_instance():
    D = PlaneDomain("annulus", R=0.3)
    G = PlaneDomain("annulus", R=0.5)
    z = 0.6 * np.exp(0.5j)
    w = 0.72 * np.exp(-1.1j)
    b = 0.68 * np.exp(2.0j)
    A2, rep = prop10_construct(D, G, z, w, b, N=2, seed=0)
    assert max(rep["equal_errors"]) <= 1e-10
    assert rep["condition4_margin"] > 1e-6
    assert rep["bounds_lower"] <= rep["bounds_upper"] + 1e-12


def test_prop10_requires_nonsimply_connected():
    with pytest.raises(ValueError):
        prop10_construct(DISC, DISC, 0.0, 0.0, 0.3, N=2)


def test_prop11_chain():
    D = PlaneDomain("annulus", R=0.3)
    G = PlaneDomain("annulus", R=0.1)
    z = 0.6 * np.exp(0.5j)
    w = 0.32 * np.exp(-1.1j)
    b = 0.35 * np.exp(1j * (np.pi - 1.1))
    e1 = find_pole_with_value(D, z, 0.995, np.exp(0.3j))
    e2 = find_pole_with_value(D, z, 0.996, np.exp(2.4j))
    extra = PoleSet(points=(e1, e2), domain=D)
    rep = prop11_construct(D, G, z, w, b, extra, seed=0)
    assert rep["paper_strict"]
    assert rep["l_extra"] > rep["q"] + 1e-9
    # the two-point equality is inherited from the construction
    assert abs(rep["l_G_2"] - rep["l_union"] / rep["l_extra"]) < 1e-9
    # green never exceeds the two-visit value
    assert rep["g_G_b"] <= rep["l_G_2"] + 1e-12


def test_prop11_rejects_weak_extra():
    D = PlaneDomain("annulus", R=0.3)
    G = PlaneDomain("annulus", R=0.1)
    z = 0.6 * np.exp(0.5j)
    w = 0.32 * np.exp(-1.1j)
    b = 0.35 * np.exp(1j * (np.pi - 1.1))
    weak = PoleSet(points=(0.6 * np.exp(1.5j),), domain=D)
    with pytest.raises(ValueError, match="<= q"):
        prop11_construct(D, G, z, w, b, weak, seed=0)

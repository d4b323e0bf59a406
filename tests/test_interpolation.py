import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lempertpoles.complex_kernel import solve_node_quadratic
from lempertpoles.covering_domains import PlaneDomain, lempert_poleset_plane
from lempertpoles.disc_domain import MoebiusExpr, PoleSet
from lempertpoles.interpolation import (
    RESIDUAL_TOL,
    Lemma4Problem,
    curves_gh,
    lemma4_solve,
    lemma4_solve_batch,
    theorem5_certificate,
)

nonzero_targets = st.complex_numbers(min_magnitude=0.05, max_magnitude=0.9,
                                     allow_nan=False, allow_infinity=False)


def test_curves_anchors_at_zero():
    mu = (0.3, 0.4j, -0.2 + 0.35j)
    p = np.prod([abs(m) for m in mu])
    g0, h0 = curves_gh(mu, 0.0)
    assert abs(g0 - math.sqrt(p)) < 1e-12
    assert abs(h0 - math.sqrt(p)) < 1e-12


def test_curves_endpoint_limits():
    mu = (0.3, 0.4j, -0.2 + 0.35j)
    p = np.prod([abs(m) for m in mu])
    g, h = curves_gh(mu, 1 - 1e-6)
    assert abs(g - p) < 1e-3
    assert abs(h - 1.0) < 1e-3


@given(st.lists(nonzero_targets, min_size=1, max_size=5),
       st.floats(min_value=0.0, max_value=0.999))
@settings(max_examples=200)
def test_curves_vieta_product(mu, a):
    mu = tuple(mu)
    p = np.prod([abs(m) for m in mu])
    g, h = curves_gh(mu, a)
    assert abs(g * h - p) < 1e-12


def test_curves_reject_zero_entries():
    with pytest.raises(ValueError):
        curves_gh((0.3, 0j), 0.5)


def test_g_continuity_envelope():
    mu = tuple(0.5 * np.exp(1j * k) for k in range(4))
    grid = np.linspace(0, 1 - 1e-6, 4097)
    vals = np.array([curves_gh(mu, a)[0] for a in grid])
    assert np.max(np.abs(np.diff(vals))) < 1e-2 * len(mu)


def test_branch_separation():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.random() * 0.999
        mu = (0.05 + 0.9 * rng.random()) * np.exp(2j * np.pi * rng.random())
        z, w = solve_node_quadratic(a, mu)
        assert abs(z) <= math.sqrt(abs(mu)) + 1e-13
        assert abs(w) >= math.sqrt(abs(mu)) - 1e-13


def test_solution_at_q_sqrt_p():
    mu = (0.3, 0.4j)
    p = np.prod([abs(m) for m in mu])
    sol = lemma4_solve(Lemma4Problem(mu=mu, q=math.sqrt(p)))
    assert sol.a < 1e-6
    for e, m in zip(sol.eta, mu):
        assert abs(abs(e) - math.sqrt(abs(m))) < 1e-6


def test_reference_instance():
    # the q = 0.9 instance; crossing parameter confirmed against a separate
    # dense scan of h built on numpy.roots (scripts/lemma4_scan.py)
    sol = lemma4_solve(Lemma4Problem(mu=(0.3, 0.4j), q=0.9))
    assert sol.branch == "large"
    assert abs(sol.a - 0.96112949) < 1e-7
    assert sol.residual < 1e-9
    assert sol.product_error < 1e-9


def test_zero_entry_reduction():
    sol = lemma4_solve(Lemma4Problem(mu=(0j, 0.5), q=0.3))
    assert sol.reduction_alpha is not None
    assert sol.residual < 1e-9
    assert sol.product_error < 1e-9
    assert abs(complex(sol.f.eval(0.0))) < 1e-14


@pytest.mark.parametrize("mu,q", [
    ((0j, 0.5), 1e-12),
    ((0j, 0.5), 1e-15),
    ((0j, 0.5, 0.3j), 1e-12),
    ((0j, 0j, 0.7), 1e-9),
])
def test_zero_entry_reduction_below_old_alpha_floor(mu, q):
    # 0 = p < q < 1 is a valid problem however small q is; the reduction
    # must push alpha below q instead of stopping at a fixed floor
    sol = lemma4_solve(Lemma4Problem(mu=mu, q=q))
    assert sol.reduction_alpha is not None
    assert sol.residual <= RESIDUAL_TOL
    assert sol.product_error <= RESIDUAL_TOL
    assert abs(complex(sol.f.eval(0.0))) < 1e-14


@pytest.mark.parametrize("q", [1e-12, 1e-100])
def test_small_q_product_is_met_relatively(q):
    # below q = 0.01 the bisection stop is relative, so the node product
    # meets q to 1e-9 relative, not only to BISECT_TOL = 1e-11 absolute
    sol = lemma4_solve(Lemma4Problem(mu=(0j, 0.5), q=q))
    product = float(np.prod(np.abs(np.asarray(sol.eta))))
    assert abs(product - q) <= 1e-9 * q


def test_all_zero_targets():
    sol = lemma4_solve(Lemma4Problem(mu=(0j, 0j, 0j), q=0.75))
    assert sol.residual < 1e-9 and sol.product_error < 1e-9


def test_solver_is_deterministic():
    prob = Lemma4Problem(mu=(0.2 + 0.1j, -0.4j, 0.6), q=0.5)
    s1 = lemma4_solve(prob)
    s2 = lemma4_solve(prob)
    assert s1.a == s2.a and s1.eta == s2.eta


def _c1_problems():
    # the 500 instances of acceptance.c1_lemma4_roundtrip: 1-6 targets,
    # each zero with probability 0.1
    rng = np.random.default_rng(20240601)
    problems = []
    for _ in range(500):
        N = int(rng.integers(1, 7))
        mu = [0j if rng.random() < 0.1
              else (0.05 + 0.90 * rng.random()) * np.exp(2j * np.pi * rng.random())
              for _ in range(N)]
        p = float(np.prod([abs(m) for m in mu]))
        q = p + (1.0 - p) * rng.uniform(1e-6, 1.0 - 1e-6)
        problems.append(Lemma4Problem(mu=tuple(mu), q=q))
    return problems


def test_batch_reproduces_each_solo_solve():
    problems = _c1_problems()
    assert len({len(pr.mu) for pr in problems}) == 6
    assert sum(any(m == 0 for m in pr.mu) for pr in problems) > 100
    batch = lemma4_solve_batch(problems)
    for pr, got in zip(problems, batch):
        solo = lemma4_solve(pr)
        assert (got.a, got.branch, got.eta, got.residual, got.product_error,
                got.reduction_alpha) == (solo.a, solo.branch, solo.eta, solo.residual,
                                         solo.product_error, solo.reduction_alpha)
        assert type(got.a) is float


@pytest.mark.parametrize("mu,q,a,branch,eta,alpha", [
    ((0.3, 0.4j), 0.9, 0.9611294912683661, "large",
     (0.9252217436457328 + 0j, 0.9723759119246284 - 0.026604045997456388j), None),
    ((0.2 + 0.1j, -0.4j, 0.6), 0.2, 0.2705651483265683, "small",
     (0.051528755984005935 + 0.444930579889106j, -0.3125112256867938 - 0.48439913482266866j,
      0.21645211866125466 + 0.7437395245158442j), None),
    ((0j, 0.5), 0.3, 0.8199544162052916, "small",
     (0.4001013686618672 + 0j, 0.04980437432293249 + 0.7481540839118955j), 0.25),
    ((0.7j, 0j, -0.5 + 0.1j, 0.25), 0.05, 0.8525046017020941, "small",
     (-0.5785743296292094 + 0.6052043635218939j, 0.15556979380784866 + 0j,
      -0.6997410514792689 + 0.07282051052065669j, 0.011241790986205997 + 0.5455200432646777j),
     0.125),
])
def test_solver_bits_pinned_to_scalar_bisection(mu, q, a, branch, eta, alpha):
    # bits of the one-problem-at-a-time solver (a scan and a scalar
    # bisection per problem); the lockstep batch must keep them
    sol = lemma4_solve(Lemma4Problem(mu=mu, q=q))
    assert (sol.a, sol.branch, sol.eta, sol.reduction_alpha) == (a, branch, eta, alpha)


def _scalar_crossing(mu, q):
    """The one-problem scan and scalar bisection the lockstep batch replaced."""
    import lempertpoles.interpolation as itp

    mus = np.asarray(mu)
    idx = 0 if q <= math.sqrt(float(np.prod(np.abs(mus)))) else 1
    grid = itp.BRACKET_GRID
    diff = itp._roots_grid(mus, grid)[idx].prod(axis=1) - q
    j = int(np.nonzero(diff[:-1] * diff[1:] <= 0.0)[0][0])
    lo, hi, flo = float(grid[j]), float(grid[j + 1]), float(diff[j])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = float(itp._roots_grid(mus, np.asarray([mid]))[idx].prod(axis=1)[0]) - q
        if abs(fm) <= itp.BISECT_TOL:
            return mid
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_lockstep_bisection_matches_scalar_loop():
    problems = [pr for pr in _c1_problems() if all(m != 0 for m in pr.mu)]
    batch = lemma4_solve_batch(problems)
    assert len(problems) > 250
    for pr, sol in zip(problems, batch):
        assert sol.a == _scalar_crossing(pr.mu, pr.q)


def test_batch_shares_one_scan_per_target_list(monkeypatch):
    import lempertpoles.interpolation as itp

    calls = []
    real = itp._roots_grid
    monkeypatch.setattr(itp, "_roots_grid",
                        lambda mus, a: calls.append(len(a)) or real(mus, a))
    mu = (0.3, 0.4j, -0.2 + 0.35j)
    problems = [Lemma4Problem(mu=mu, q=0.9 + 1e-6 / 8 ** k) for k in range(6)]
    steps = []
    for pr in problems:
        calls.clear()
        lemma4_solve(pr)
        assert calls[0] == len(itp.BRACKET_GRID)
        steps.append(len(calls) - 1)
    calls.clear()
    lemma4_solve_batch(problems)
    # one scan for the shared targets, then one kernel call per lockstep step
    assert calls[0] == len(itp.BRACKET_GRID)
    assert calls[1:] == sorted(calls[1:], reverse=True)
    assert len(calls) - 1 == max(steps) < sum(steps)


def test_batch_scans_each_branch_of_shared_targets():
    # one target list on both branches: g for q <= sqrt(p), h above it
    mu = (0.3, 0.4j, -0.2 + 0.35j)
    problems = [Lemma4Problem(mu=mu, q=q) for q in (0.9, 0.1, 0.95, 0.06)]
    batch = lemma4_solve_batch(problems)
    assert [s.branch for s in batch] == ["large", "small", "large", "small"]
    for pr, got in zip(problems, batch):
        solo = lemma4_solve(pr)
        assert (got.a, got.eta) == (solo.a, solo.eta)
        assert got.product_error <= 1e-9


def test_batch_reports_each_failure_in_its_own_slot():
    sols = lemma4_solve_batch([Lemma4Problem(mu=(0.3, 0.4j), q=0.9),
                               Lemma4Problem(mu=(0j, 0.5), q=5e-324),
                               Lemma4Problem(mu=(0j, 0.5), q=0.3)])
    assert sols[0].residual <= 1e-9 and sols[2].residual <= 1e-9
    assert isinstance(sols[1], RuntimeError)
    with pytest.raises(RuntimeError, match="zero-value reduction"):
        lemma4_solve(Lemma4Problem(mu=(0j, 0.5), q=5e-324))


def test_precondition_rejected():
    with pytest.raises(ValueError):
        Lemma4Problem(mu=(0.5, 0.5), q=0.1)  # q below p
    with pytest.raises(ValueError):
        Lemma4Problem(mu=(0.5,), q=1.0)


def test_invariant_roundtrip_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        N = int(rng.integers(1, 7))
        mu = tuple((0.05 + 0.9 * rng.random()) * np.exp(2j * np.pi * rng.random())
                   for _ in range(N))
        p = float(np.prod([abs(m) for m in mu]))
        q = p + (1 - p) * rng.uniform(0.01, 0.99)
        sol = lemma4_solve(Lemma4Problem(mu=mu, q=q))
        assert sol.residual <= 1e-9
        assert sol.product_error <= 1e-9
        assert abs(complex(sol.f.eval(0.0))) < 1e-14


def test_theorem5_certificate_bidisc():
    z, w, b = 0.1 + 0.05j, -0.2 + 0.1j, 0.3 - 0.2j
    A = PoleSet(points=(0.5, 0.5j))
    lA = lempert_poleset_plane(PlaneDomain("disc"), A, z)
    from lempertpoles.complex_kernel import moebius
    zeta = complex(moebius(w, b))
    alpha = max(lA.value, abs(zeta)) + 1e-6
    xi, eta = theorem5_certificate(MoebiusExpr(z), lA.nodes, MoebiusExpr(w), zeta, alpha)
    v0 = xi.eval(0.0)
    assert abs(complex(v0[0]) - z) < 1e-9 and abs(complex(v0[1]) - w) < 1e-9
    for e, a in zip(eta, A):
        ve = xi.eval(e)
        assert abs(complex(ve[0]) - a) < 1e-9
        assert abs(complex(ve[1]) - b) < 1e-9
    assert abs(np.prod([abs(e) for e in eta]) - alpha) < 1e-9
    # the certified upper bound respects the lower bound of the sandwich
    assert alpha >= max(lA.value, abs(zeta)) - 1e-12


def test_certificate_tightens_with_alpha():
    z, w, b = 0.0, 0.0, 0.4
    A = PoleSet(points=(0.5, 0.5j))
    lA = lempert_poleset_plane(PlaneDomain("disc"), A, z)
    zeta = 0.4
    prev = None
    for slack in (1e-2, 1e-4, 1e-6):
        alpha = max(lA.value, abs(zeta)) + slack
        _, eta = theorem5_certificate(MoebiusExpr(0), lA.nodes, MoebiusExpr(0), zeta, alpha)
        prod = float(np.prod([abs(e) for e in eta]))
        if prev is not None:
            assert prod < prev
        prev = prod


def test_certificate_alpha_validation():
    A = PoleSet(points=(0.5,))
    lA = lempert_poleset_plane(PlaneDomain("disc"), A, 0.0)
    with pytest.raises(ValueError):
        theorem5_certificate(MoebiusExpr(0), lA.nodes, MoebiusExpr(0), 0.3, 0.2)

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lempertpoles
import lempertpoles.interpolation as itp
from lempertpoles.complex_kernel import solve_node_quadratic
from lempertpoles.covering_domains import PlaneDomain, lempert_poleset_plane
from lempertpoles.disc_domain import MoebiusExpr, PoleSet
from lempertpoles.interpolation import (
    RESIDUAL_TOL,
    Lemma4Problem,
    lemma4_solve,
    theorem5_ladder,
)

nonzero_targets = st.complex_numbers(min_magnitude=0.05, max_magnitude=0.9,
                                     allow_nan=False, allow_infinity=False)


def _curves(mu, a: float) -> tuple:
    """g(a) = prod |z_j(a)|, h(a) = prod |w_j(a)| for nonzero targets mu."""
    small, large = itp._roots_grid(np.asarray(mu, dtype=complex), np.asarray([float(a)]))
    return float(np.prod(np.abs(small[0]))), float(np.prod(np.abs(large[0])))


def test_curves_anchors_at_zero():
    mu = (0.3, 0.4j, -0.2 + 0.35j)
    p = np.prod([abs(m) for m in mu])
    g0, h0 = _curves(mu, 0.0)
    assert abs(g0 - math.sqrt(p)) < 1e-12
    assert abs(h0 - math.sqrt(p)) < 1e-12


def test_curves_endpoint_limits():
    mu = (0.3, 0.4j, -0.2 + 0.35j)
    p = np.prod([abs(m) for m in mu])
    g, h = _curves(mu, 1 - 1e-6)
    assert abs(g - p) < 1e-3
    assert abs(h - 1.0) < 1e-3


@given(st.lists(nonzero_targets, min_size=1, max_size=5),
       st.floats(min_value=0.0, max_value=0.999))
@settings(max_examples=200)
def test_curves_vieta_product(mu, a):
    mu = tuple(mu)
    p = np.prod([abs(m) for m in mu])
    g, h = _curves(mu, a)
    assert abs(g * h - p) < 1e-12


def test_g_continuity_envelope():
    mu = tuple(0.5 * np.exp(1j * k) for k in range(4))
    grid = np.linspace(0, 1 - 1e-6, 4097)
    vals = np.array([_curves(mu, a)[0] for a in grid])
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


@pytest.mark.parametrize("q", [1e-12, 1e-100])
def test_small_q_product_is_met_relatively(q):
    # below q = 0.01 the bisection stop is relative, so the node product
    # meets q to 1e-9 relative, not only to BISECT_TOL = 1e-11 absolute
    sol = lemma4_solve(Lemma4Problem(mu=(0j, 0.5), q=q))
    product = float(np.prod(np.abs(np.asarray(sol.eta))))
    assert abs(product - q) <= 1e-9 * q


@pytest.mark.parametrize("mu,q", [((0j, 0.5), 1e-300), ((0j, 0j, 0.7), 1e-200)])
def test_tiny_q_product_is_met_relatively(mu, q):
    # the node products near q are far below the square of the smallest
    # normal float, so the bracket test compares signs and the iteration
    # works on log products
    sol = lemma4_solve(Lemma4Problem(mu=mu, q=q))
    product = float(np.prod(np.abs(np.asarray(sol.eta))))
    assert abs(product - q) <= 1e-9 * q


def test_crossing_deep_in_first_scan_cell_is_met(node_product):
    # a target of 1e-300 puts h's crossing with q = 1e-150 near a = 1.4e-150,
    # inside the first scan cell [0, 1/1024]; Newton steps leave that bracket,
    # and halvings of it would reach only 2^-210 (about 1e-63) in
    # BISECT_STEPS steps, so the cell's midpoints are geometric
    mu, q = (1e-300, 0.5), 1e-150
    sol = lemma4_solve(Lemma4Problem(mu=mu, q=q))
    assert sol.branch == "large" and 1e-151 < sol.a < 1e-149
    assert abs(node_product(mu, sol.a, "large") - q) <= 1e-9 * q
    product = float(np.prod(np.abs(np.asarray(sol.eta))))
    assert abs(product - q) <= 1e-9 * q


def test_residual_above_tol_is_refused():
    # near q = 1 the nodes lie within about 1e-9 of the circle, where the
    # root quadratic loses digits: at q = 1 - 1e-9 the residual is 1.0e-7,
    # so the solve raises instead of returning it; at 1 - 1e-7 it is 7.2e-10
    near, nearer = (Lemma4Problem(mu=(0.3, 0.4j), q=q) for q in (1 - 1e-7, 1 - 1e-9))
    sol = lemma4_solve(near)
    assert sol.residual <= RESIDUAL_TOL
    with pytest.raises(RuntimeError, match="residual"):
        lemma4_solve(nearer)
    rows = itp._solve_rows(near.mu, [nearer.q, near.q])
    refused, kept = rows.solution(0), rows.solution(1)
    assert isinstance(refused, RuntimeError)
    assert (kept.a, kept.eta, kept.residual) == (sol.a, sol.eta, sol.residual)


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


@pytest.mark.parametrize("mu,q,branch", [
    ((0.3, 0.4j), 0.9, "large"),
    ((0.2 + 0.1j, -0.4j, 0.6), 0.2, "small"),
    ((0j, 0.5), 0.3, "large"),
    ((0.7j, 0j, -0.5 + 0.1j, 0.25), 0.05, "large"),
])
def test_crossing_meets_q_at_50_digits(mu, q, branch, node_product):
    # the node product of the returned a, computed apart from the package,
    # meets q to the solver's stop; a zero target's node is a itself, on h
    sol = lemma4_solve(Lemma4Problem(mu=mu, q=q))
    assert sol.branch == branch
    assert all(e == sol.a for e, m in zip(sol.eta, mu) if m == 0)
    assert abs(node_product(mu, sol.a, branch) - q) <= min(1e-11, 1e-9 * q)


def _scalar_crossing(mu, q):
    """The scan and safeguarded Newton iteration for one problem, one a at a time."""
    mus = np.asarray(mu)
    large = q > math.sqrt(float(np.prod(np.abs(mus))))

    def log_curve(a):
        small, big = itp._roots_grid(mus, np.asarray(a))
        rho = big if large else small
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero target at a = 0
            logs = np.log(np.abs(rho))
            ders = ((1.0 + mus) / (2.0 * rho - np.asarray(a)[:, None] * (1.0 + mus))).real
        return ([sum(row, 0.0) - math.log(q) for row in logs.tolist()],
                [sum(row, 0.0) for row in ders.tolist()])

    def newton(x, F, dF, lo, hi):
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = float(np.float64(x) - np.float64(F) / np.float64(dF))
        if lo < xn < hi:
            return xn
        if hi <= itp.FIRST_CELL:  # geometric inside the first scan cell
            return math.sqrt(max(lo, sys.float_info.min)) * math.sqrt(hi)
        return 0.5 * (lo + hi)

    grid = itp.BRACKET_GRID.tolist()
    F, dF = log_curve(grid)
    j = next(i for i in range(len(F) - 1) if np.sign(F[i]) * np.sign(F[i + 1]) <= 0.0)
    lo, hi, left = grid[j], grid[j + 1], np.sign(F[j])
    e = j if abs(F[j]) <= abs(F[j + 1]) else j + 1
    x = newton(grid[e], F[e], dF[e], lo, hi)
    rtol = min(itp.BISECT_TOL / q, itp.BISECT_RTOL)
    for _ in range(itp.BISECT_STEPS):
        (f,), (df,) = log_curve([x])
        if abs(np.expm1(f)) <= rtol:
            return x
        if np.sign(f) * left <= 0.0:
            hi = x
        else:
            lo = x
        x = newton(x, f, df, lo, hi)
    return math.nan  # q not met within the cap


def test_lockstep_newton_matches_scalar_loop():
    for pr in _c1_problems():
        assert lemma4_solve(pr).a == _scalar_crossing(pr.mu, pr.q)


def test_batch_shares_one_scan_per_target_list(monkeypatch):
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
    itp._solve_rows(mu, [pr.q for pr in problems])
    # one scan for the shared targets, then one kernel call per lockstep step
    assert calls[0] == len(itp.BRACKET_GRID)
    assert calls[1:] == sorted(calls[1:], reverse=True)
    assert len(calls) - 1 == max(steps) < sum(steps)


def test_ladder_with_a_zero_target_makes_one_scan(monkeypatch):
    # six rungs of one zero-target list all lie on h, so the ladder scans
    # the curve once and runs one lockstep for every rung
    lam, zeta = (0j, 0.5), 0.3
    alphas = [zeta + 1e-6 / 8 ** k for k in range(6)]
    calls = []
    real = itp._roots_grid
    monkeypatch.setattr(itp, "_roots_grid", lambda mus, a: calls.append(len(a)) or real(mus, a))
    certified, _ = theorem5_ladder(MoebiusExpr(0), lam, MoebiusExpr(0), zeta, alphas)
    assert certified == 6
    assert calls[0] == len(itp.BRACKET_GRID) and len(itp.BRACKET_GRID) not in calls[1:]
    assert calls[1:] == sorted(calls[1:], reverse=True) and calls[1] == 6


def test_batch_nodes_are_the_scalar_roots():
    # a zero target's roots are 0 and a, and b*b = a^2 underflows below
    # a = 1e-154, where the batch must not take the root formula's tie for
    # equal moduli; np.abs of an array rounds differently from the scalar
    # abs, and without solve_node_quadratic's order a batch node can be the
    # conjugate of the scalar one
    problems = [pr for pr in _c1_problems() if any(m == 0 for m in pr.mu)]
    assert len(problems) > 100
    for pr in problems:
        sol = lemma4_solve(pr)
        for eta, m in zip(sol.eta, pr.mu):
            root = solve_node_quadratic(sol.a, m)[sol.branch == "large"]
            assert abs(eta - root) <= 1e-12


def test_conjugate_ties_follow_the_structure_not_the_rounded_moduli():
    # real targets with a(1+mu) < 2 sqrt(mu) have conjugate roots; their
    # rounded moduli differ in the last bit one way or the other, and the
    # small node is still the one with Im > 0, in the scalar and batch code
    rng = np.random.default_rng(5)
    mus = rng.uniform(0.05, 0.95, 400).astype(complex)
    a = rng.uniform(0.0, 1.0, 400) * 2.0 * np.sqrt(mus.real) / (1.0 + mus.real)
    small, big = itp._roots_grid(mus[:, None], a)
    az, ab = np.hypot(small.real, small.imag), np.hypot(big.real, big.imag)
    assert (az < ab).any() and (az > ab).any()  # the rounding goes both ways
    for large in (False, True):
        nodes = itp._nodes(small, big, np.full(400, large), a, mus[:, None])[:, 0]
        assert np.all(nodes.imag < 0.0 if large else nodes.imag > 0.0)
    for m, x in zip(mus, a):
        z, w = solve_node_quadratic(x, m)
        assert z.imag > 0.0 > w.imag and abs(z - w.conjugate()) <= 1e-15


SIMD_FALLBACK = {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4",
                 "OPENBLAS_CORETYPE": "Haswell"}


def test_certify_roots_do_not_depend_on_the_simd_path(tmp_path):
    # the certify seed-1 dump in child processes with numpy's default SIMD
    # kernels and with its AVX2 ones, whose np.abs and np.hypot round
    # differently in the last bit: no node may move to the conjugate root
    src = Path(lempertpoles.__file__).resolve().parents[1]
    dump = src.parent / "scripts" / "dump_outputs.py"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                                     os.environ.get("PYTHONPATH")])))
    if subprocess.run([sys.executable, "-c", "import numpy"], env=dict(env, **SIMD_FALLBACK),
                      capture_output=True).returncode:
        pytest.skip("this numpy does not accept the SIMD fallback setting")
    paths = [tmp_path / "default.txt", tmp_path / "fallback.txt"]
    for path, extra in zip(paths, ({}, SIMD_FALLBACK)):
        subprocess.run([sys.executable, str(dump), "--workload", "certify", "--seed", "1",
                        "--out", str(path)], env=dict(env, **extra), capture_output=True,
                       check=True)
    assert len(paths[0].read_text().splitlines()) == 43
    report = subprocess.run([sys.executable, str(dump), "--compare", *map(str, paths)],
                            capture_output=True, text=True).stdout
    summary = [line for line in report.splitlines() if line.startswith("43 lines")]
    assert summary and summary[0].endswith(", 0 to a different root")


@pytest.mark.parametrize("mu", [(0j, 0.4j), (0.3, 0j)])
@pytest.mark.parametrize("gap", [3e-7, 2e-6])
def test_zero_targets_near_q_one_are_met_at_50_digits(mu, gap, node_product):
    q = 1.0 - gap
    sol = lemma4_solve(Lemma4Problem(mu=mu, q=q))
    assert sol.residual <= RESIDUAL_TOL
    assert abs(node_product(mu, sol.a, sol.branch) - q) <= 1e-9 * q


def _zero_target_problems():
    # three zeros up to q = 1 - 1e-9, where the curve h(a) = a^3 is steep;
    # one zero at q down to 1e-300, where the crossing a lies below 1e-154
    # and b*b underflows in the root formula
    gaps = np.logspace(-9, -3, 300)
    return ([((0j, 0j, 0j), 1.0 - g) for g in gaps]
            + [(mu, q) for mu in ((0j,), (0j, 0.5)) for q in (1e-20, 1e-200, 1e-300)])


def test_zero_targets_are_met_near_q_one_and_below_the_underflow(node_product):
    for mu, q in _zero_target_problems():
        sol = lemma4_solve(Lemma4Problem(mu=mu, q=q))
        assert sol.residual <= RESIDUAL_TOL, (mu, q)
        assert abs(node_product(mu, sol.a, sol.branch) - q) <= min(1e-11, 1e-9 * q), (mu, q)


def test_batch_scans_each_branch_of_shared_targets():
    # one target list on both branches: g for q <= sqrt(p), h above it
    mu = (0.3, 0.4j, -0.2 + 0.35j)
    problems = [Lemma4Problem(mu=mu, q=q) for q in (0.9, 0.1, 0.95, 0.06)]
    rows = itp._solve_rows(mu, [pr.q for pr in problems])
    batch = [rows.solution(k) for k in range(len(problems))]
    assert [s.branch for s in batch] == ["large", "small", "large", "small"]
    for pr, got in zip(problems, batch):
        solo = lemma4_solve(pr)
        assert (got.a, got.eta) == (solo.a, solo.eta)
        assert type(got.a) is float
        assert got.product_error <= 1e-9


def test_batch_reports_each_failure_in_its_own_slot():
    # a subnormal q lies below the geometric midpoints of the first scan
    # cell, which start at the smallest normal float
    rows = itp._solve_rows((0j, 0.5), [0.3, 5e-324, 0.4])
    sols = [rows.solution(k) for k in range(3)]
    assert sols[0].residual <= 1e-9 and sols[2].residual <= 1e-9
    assert isinstance(sols[1], RuntimeError)
    with pytest.raises(RuntimeError, match="did not meet q"):
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
    certified, (xi, eta) = theorem5_ladder(MoebiusExpr(z), lA.nodes, MoebiusExpr(w), zeta,
                                           [alpha])
    assert certified == 1
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
        _, (_, eta) = theorem5_ladder(MoebiusExpr(0), lA.nodes, MoebiusExpr(0), zeta, [alpha])
        prod = float(np.prod([abs(e) for e in eta]))
        if prev is not None:
            assert prod < prev
        prev = prod


def test_certificate_alpha_validation():
    A = PoleSet(points=(0.5,))
    lA = lempert_poleset_plane(PlaneDomain("disc"), A, 0.0)
    # alpha = 0.2 lies below |zeta| = 0.3: the one rung fails
    assert theorem5_ladder(MoebiusExpr(0), lA.nodes, MoebiusExpr(0), 0.3, [0.2]) == (0, None)

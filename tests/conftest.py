"""Shared test fixtures: one session cache for the heavy optimizer runs, and
50-digit oracles computed apart from the package: Pick matrices and Lemma-4
node products."""

import pytest


@pytest.fixture(scope="session")
def session_cache():
    """cached(key, fn, **kw) returns fn(**kw), computed once per session."""
    results = {}

    def cached(key, fn, **kw):
        if key not in results:
            results[key] = fn(**kw)
        return results[key]

    return cached


class PickOracle:
    """Exact arithmetic on float data at 50 digits, with mpmath."""

    DPS = 50

    def __init__(self, mpmath):
        self.mp = mpmath

    def num(self, z):
        z = complex(z)
        return self.mp.mpc(z.real, z.imag)

    def moebius(self, alpha, z):
        """Phi_alpha(z) = (alpha - z) / (1 - conj(alpha) z) of the floats alpha, z."""
        with self.mp.workdps(self.DPS):
            alpha, z = self.num(alpha), self.num(z)
            return (alpha - z) / (1 - self.mp.conj(alpha) * z)

    def min_eig(self, nodes, targets):
        """Smallest eigenvalue of [(1 - w_i conj(w_j)) / (1 - l_i conj(l_j))];
        floats are taken as exact, mpmath numbers as given."""
        with self.mp.workdps(self.DPS):
            lam = [x if isinstance(x, self.mp.mpc) else self.num(x) for x in nodes]
            w = [x if isinstance(x, self.mp.mpc) else self.num(x) for x in targets]
            n = len(lam)
            H = self.mp.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    H[i, j] = ((1 - w[i] * self.mp.conj(w[j]))
                               / (1 - lam[i] * self.mp.conj(lam[j])))
            return float(min(self.mp.eigh(H, eigvals_only=True)))


@pytest.fixture(scope="session")
def pick_oracle():
    return PickOracle(pytest.importorskip("mpmath"))


def _node_product(mp, mu, a, branch):
    """prod |rho_j(a)| at 50 digits, rho_j the small or large root of
    rho^2 - a(1 + mu_j) rho + mu_j = 0; the floats mu_j and a are taken as exact."""
    with mp.workdps(PickOracle.DPS):
        a = mp.mpf(float(a))
        out = mp.mpf(1)
        for m in mu:
            m = mp.mpc(complex(m).real, complex(m).imag)
            b = a * (1 + m)
            s = mp.sqrt(b * b - 4 * m)
            moduli = sorted((abs((b + s) / 2), abs((b - s) / 2)))
            out *= moduli[0] if branch == "small" else moduli[1]
        return float(out)


@pytest.fixture(scope="session")
def node_product():
    """node_product(mu, a, branch): the Lemma-4 node product at 50 digits."""
    mp = pytest.importorskip("mpmath")
    return lambda mu, a, branch: _node_product(mp, mu, a, branch)

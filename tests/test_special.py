"""The p-value kernels against scipy, where scipy is installed: seeded draws
across the shapes the statistics commands reach, compared wherever scipy's
value is at least 1e-30 (below that scipy's own F tail drifts; see README)."""

import numpy as np
import pytest

from boostlab import special

sp = pytest.importorskip("scipy.special")
st = pytest.importorskip("scipy.stats")

DRAWS = 300
RTOL = 1e-8


def log_uniform(rng, low, high):
    return float(np.exp(rng.uniform(np.log(low), np.log(high))))


def assert_agrees(name, ours, ref, args):
    if ref >= 1e-30:
        assert abs(ours - ref) <= RTOL * ref, (name, args, ours, ref)


def test_kernels_agree_with_scipy():
    rng = np.random.default_rng(20211)
    for _ in range(DRAWS):
        s = log_uniform(rng, 0.05, 500.0)
        x = s * log_uniform(rng, 0.01, 20.0)
        assert_agrees("gamma_q", special.gamma_q(s, x), sp.gammaincc(s, x), (s, x))

        dof = int(rng.integers(1, 200))
        stat = dof * log_uniform(rng, 0.01, 20.0)
        assert_agrees("chi2_tail", special.chi2_tail(stat, dof), st.chi2.sf(stat, dof),
                      (stat, dof))

        a, b = log_uniform(rng, 0.05, 2000.0), log_uniform(rng, 0.05, 2000.0)
        u = float(rng.uniform(0.0, 1.0))
        assert_agrees("incomplete_beta", special.incomplete_beta(a, b, u),
                      sp.betainc(a, b, u), (a, b, u))

        d1, d2 = float(rng.integers(1, 100)), float(rng.integers(1, 100_000))
        f = log_uniform(rng, 0.01, 50.0)
        assert_agrees("f_tail", special.f_tail(f, d1, d2), st.f.sf(f, d1, d2), (f, d1, d2))

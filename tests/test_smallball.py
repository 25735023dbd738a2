import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transferlab
from transferlab.core import LdsLaw
from transferlab.errors import PreconditionViolated
from transferlab.mixing import GeometricProfile, geometric_profile_from_lds
from transferlab.smallball import BlockedMode, lower_isometry_tail_check


def gaussian_sampler(n, rng):
    return rng.standard_normal((n, 1))


def bounded_sampler(n, rng):
    return rng.uniform(-1.0, 1.0, size=(n, 1))


# ---------------------------------------------------------------------------
# lower-isometry tail check
# ---------------------------------------------------------------------------

def test_tail_check_constant_psi_never_fails():
    res = lower_isometry_tail_check(bounded_sampler, lambda x: np.full(len(x), 2.5),
                                    c=1.5, m=16, replicates=500, seed=6)
    assert res.empirical_freq == 0.0
    assert res.bound == pytest.approx(math.exp(-16 / (8 * 1.5)))


def test_tail_check_gaussian_square_fixture():
    res = lower_isometry_tail_check(gaussian_sampler, lambda x: x[:, 0] ** 2,
                                    c=3.0, m=64, replicates=5000, seed=7)
    assert res.bound == pytest.approx(math.exp(-64.0 / 24.0), rel=1e-12)
    assert res.passed
    assert res.mean_psi == pytest.approx(1.0, rel=0.02)


def test_tail_check_doubling_m_squares_bound():
    r1 = lower_isometry_tail_check(gaussian_sampler, lambda x: x[:, 0] ** 2,
                                   c=3.0, m=64, replicates=3000, seed=8)
    r2 = lower_isometry_tail_check(gaussian_sampler, lambda x: x[:, 0] ** 2,
                                   c=3.0, m=128, replicates=3000, seed=9)
    assert r2.bound == pytest.approx(r1.bound ** 2, rel=1e-12)
    combined = math.sqrt(r1.stderr ** 2 + r2.stderr ** 2)
    assert r2.empirical_freq <= r1.empirical_freq + 3.0 * combined


def test_tail_check_precondition_violation():
    with pytest.raises(PreconditionViolated):
        lower_isometry_tail_check(gaussian_sampler, lambda x: x[:, 0] ** 2,
                                  c=2.0, m=64, replicates=100, seed=10)


def test_tail_check_rejects_negative_psi():
    with pytest.raises(PreconditionViolated):
        lower_isometry_tail_check(gaussian_sampler, lambda x: x[:, 0],
                                  c=3.0, m=16, replicates=100, seed=11)


def repeated_at_m(n, rng):
    """iid N(0, 1) at the calibration size; one N(0, 1) scalar repeated at m = 64.

    Each call of length 64 is one fully dependent path, so the sampler is a
    blocked-mode source.
    """
    if n == 64:
        return np.full((n, 1), rng.standard_normal())
    return rng.standard_normal((n, 1))


def failing_tail_check(seed):
    # a phi = 0 profile claims independence: dependency norm 1, iid bound
    return lower_isometry_tail_check(repeated_at_m, lambda x: x[:, 0] ** 2, c=3.5, m=64,
                                     replicates=2000, seed=seed,
                                     blocked=BlockedMode(profile=GeometricProfile(0.0, 0.0),
                                                         k=4))


def test_tail_check_returns_failed_verdict():
    # P(z^2 <= 1/2) ~ 0.52 for the repeated scalar, against exp(-64/28) ~ 0.10
    for seed in range(5):
        res = failing_tail_check(seed)
        assert res.empirical_freq > 0.45
        assert res.bound == pytest.approx(math.exp(-64.0 / 28.0), rel=1e-12)
        assert not res.passed


def test_tail_check_verdict_survives_optimize_flag():
    paths = [str(Path(transferlab.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    script = ("import json, sys; from test_smallball import failing_tail_check; "
              "res = failing_tail_check(0); "
              "print(json.dumps([sys.flags.optimize, res.passed, res.empirical_freq]))")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    optimize, passed, freq = json.loads(out.stdout)
    assert optimize == 1
    assert passed is False
    assert freq == failing_tail_check(0).empirical_freq


def test_tail_check_blocked_mode():
    a = 0.5 * np.eye(1)
    law = LdsLaw(a=a)
    profile = geometric_profile_from_lds(a, mc_samples=20_000, seed=12)
    res = lower_isometry_tail_check(law, lambda x: x[:, 0] ** 2, c=3.0, m=64,
                                    replicates=4000, seed=13,
                                    blocked=BlockedMode(profile=profile, k=4))
    assert res.dep_norm > 1.0
    assert res.bound == pytest.approx(math.exp(-64.0 / (24.0 * res.dep_norm ** 2)),
                                      rel=1e-12)
    assert res.passed


# ---------------------------------------------------------------------------
# sampler contract and argument checks
# ---------------------------------------------------------------------------

class CountingSampler:
    """A plain Gaussian sampler that records the size of every call."""

    def __init__(self):
        self.sizes = []

    def __call__(self, n, rng):
        self.sizes.append(n)
        return rng.standard_normal((n, 1))


def test_iid_mode_draws_all_replicates_in_one_call():
    sampler = CountingSampler()
    lower_isometry_tail_check(sampler, lambda x: x[:, 0] ** 2, c=3.5, m=16,
                              replicates=50, seed=14, calibration_samples=1000)
    assert sampler.sizes == [1000, 50 * 16]


def test_blocked_mode_calls_a_plain_sampler_once_per_replicate():
    sampler = CountingSampler()
    lower_isometry_tail_check(sampler, lambda x: x[:, 0] ** 2, c=3.5, m=16,
                              replicates=50, seed=15, calibration_samples=1000,
                              blocked=BlockedMode(profile=GeometricProfile(0.0, 0.0), k=4))
    assert sampler.sizes == [1000] + [16] * 50


@pytest.mark.parametrize("kwargs,name", [
    ({"m": 0}, "m"),
    ({"replicates": 0}, "replicates"),
    ({"calibration_samples": 10}, "calibration_samples"),
])
def test_tail_check_rejects_zero_counts_before_any_draw(kwargs, name):
    sampler = CountingSampler()
    args = {"c": 3.5, "m": 16, "replicates": 50, "calibration_samples": 1000, **kwargs}
    with pytest.raises(ValueError, match=name):
        lower_isometry_tail_check(sampler, lambda x: x[:, 0] ** 2, seed=16, **args)
    assert sampler.sizes == []


def test_tail_check_small_calibration_cannot_bypass_the_guard():
    # Cauchy^2 has no finite moments; ten calibration draws once left empty
    # batches, a NaN slack and a returned verdict
    def cauchy(n, rng):
        return rng.standard_cauchy((n, 1))

    with pytest.raises(ValueError, match="calibration_samples"):
        lower_isometry_tail_check(cauchy, lambda x: x[:, 0] ** 2, c=1.01, m=16,
                                  replicates=50, seed=17, calibration_samples=10)
    with pytest.raises(PreconditionViolated):
        lower_isometry_tail_check(cauchy, lambda x: x[:, 0] ** 2, c=1.01, m=16,
                                  replicates=50, seed=17, calibration_samples=1000)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_tail_check_nan_ratio_rejects_the_precondition():
    # one infinite psi value makes E[psi^2] / (E psi)^2 = inf / inf = NaN
    def psi(x):
        vals = x[:, 0] ** 2
        vals[0] = np.inf
        return vals

    with pytest.raises(PreconditionViolated):
        lower_isometry_tail_check(gaussian_sampler, psi, c=3.5, m=16, replicates=50,
                                  seed=18, calibration_samples=1000)

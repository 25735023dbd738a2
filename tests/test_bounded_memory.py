"""Traced memory of the Monte Carlo loops that hold a sample, and of a population.

numpy reports its data buffers to ``tracemalloc``, so the traced peak of a call
counts the arrays it allocates. Each loop draws in chunks of at most
``core.MC_DRAW_BUDGET`` values (512 KB of doubles), so its peak is what it must
keep plus about one chunk's arrays; a rule test wraps every law sampler and
checks the size of each call. A population holds each distinct covariate law
once, so the memory it keeps does not grow with its task count when its tasks
share one law.
"""
import importlib
import inspect
import pkgutil
import tracemalloc

import numpy as np
import pytest

import transferlab
from transferlab import core
from transferlab.cli import build_population, example_config
from transferlab.core import CovariateLaw, GaussianLaw, LdsLaw, LinearHead, LinearRep, MarkovLaw
from transferlab.datagen import SampleRequest, sample_task_stats
from transferlab.diagnostics import hypercontractivity_c42, nrls_quantities
from transferlab.erm import fit_first_stage_linear
from transferlab.mixing import GeometricProfile, geometric_profile_from_lds
from transferlab.smallball import BlockedMode, lower_isometry_tail_check


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mc_samples", [200_000, 1_000_000])
def test_nrls_memory_does_not_grow_with_the_sample(mc_samples):
    # d_x = 64, r = 2, d_y = 1: a whole sample of 200 000 holds 102 MB of x
    # alone; the one pass keeps a chunk of 1024 rows (0.5 MB of x). A Markov
    # target, since only a law without a closed form draws a sample
    rng = np.random.default_rng(0)
    rep = LinearRep(rng.standard_normal((2, 64)))
    head = LinearHead(rng.standard_normal((1, 2)))
    law = MarkovLaw(transition=np.full((64, 64), 0.2 / 63) + (0.8 - 0.2 / 63) * np.eye(64),
                    d_x=64)
    peak = traced_peak_mb(lambda: nrls_quantities(law, rep, head, rep, 0.5,
                                                  mc_samples=mc_samples, seed=1))
    assert peak < 4.0


def test_iid_tail_check_memory_at_benchmark_size():
    # m = 64, 6000 replicates, 20 000 calibration rows: one 384 000-row draw
    # takes 6.5 MB; chunks of 1024 replicates keep the peak near 1.4 MB
    peak = traced_peak_mb(lambda: lower_isometry_tail_check(
        lambda n, rng: rng.standard_normal((n, 1)), lambda x: x[:, 0] ** 2, c=3.5, m=64,
        replicates=6000, seed=0, calibration_samples=20_000))
    assert peak < 2.0


@pytest.mark.parametrize("calibration_samples", [200_000, 1_000_000])
def test_iid_tail_check_memory_does_not_grow_with_the_calibration(calibration_samples):
    # a 16-d law: a whole calibration draw of 200 000 rows peaked at 52 MB (256 MB
    # at 1 000 000); chunks of 4096 rows keep the peak near 2 MB at both sizes
    law = GaussianLaw(sigma_x=np.eye(16))
    peak = traced_peak_mb(lambda: lower_isometry_tail_check(
        law, lambda x: x[:, 0] ** 2, c=3.5, m=64, replicates=100, seed=0,
        calibration_samples=calibration_samples))
    assert peak < 4.0


@pytest.mark.parametrize("calibration_samples", [200_000, 1_000_000])
def test_blocked_tail_check_memory_does_not_grow_with_the_calibration(calibration_samples):
    # a 16-d LDS: one calibration path of 200 000 rows peaked at 30 MB (152 MB at
    # 1 000 000); marginal chunks of 4096 rows keep the peak near 1.6 MB, as in iid mode
    law = LdsLaw(a=0.5 * np.eye(16))
    mode = BlockedMode(profile=GeometricProfile(gamma=0.5, rho=0.25), k=4)
    peak = traced_peak_mb(lambda: lower_isometry_tail_check(
        law, lambda x: x[:, 0] ** 2, c=3.5, m=64, replicates=100, seed=0,
        calibration_samples=calibration_samples, blocked=mode))
    assert peak < 4.0


@pytest.mark.parametrize("a", [[[0.9]], [[0.6, 0.3], [0.0, 0.5]]], ids=["scalar", "non_normal"])
@pytest.mark.parametrize("mc_samples", [100_000, 1_000_000])
def test_lds_profile_memory_does_not_grow_with_the_sample(a, mc_samples):
    # one draw of the states peaked at 4.0 MB at 100 000 scalar samples, 40 MB at
    # 1 000 000 and 56 MB in 2-d; chunks of 65 536 values keep it near 1.1 MB
    peak = traced_peak_mb(lambda: geometric_profile_from_lds(np.array(a), mc_samples=mc_samples))
    assert peak < 2.5


SAMPLERS = ("sample_marginal", "sample_paths", "sample_path", "gram_factor")

D_X = 8
LAWS = {
    "gaussian": GaussianLaw(sigma_x=np.diag(np.linspace(0.5, 2.0, D_X))),
    "lds": LdsLaw(a=0.5 * np.eye(D_X)),
    "markov": MarkovLaw(transition=np.full((D_X, D_X), 0.05) + 0.6 * np.eye(D_X), d_x=D_X),
}


def sq_norm(x):
    return np.sum(x * x, axis=1)


def _nrls(law):
    rng = np.random.default_rng(0)
    rep = LinearRep(rng.standard_normal((2, D_X)))
    nrls_quantities(law, rep, LinearHead(rng.standard_normal((1, 2))), rep, 0.5,
                    mc_samples=1_000_000, seed=1)


def _tail(law, blocked):
    mode = BlockedMode(profile=GeometricProfile(gamma=0.5, rho=0.25), k=4) if blocked else None
    lower_isometry_tail_check(law, sq_norm, c=3.5, m=64, replicates=300, seed=0,
                              calibration_samples=1_000_000, blocked=mode)


def _c42(law):
    rep = LinearRep(np.eye(D_X)[:2])
    hypercontractivity_c42([law], [(np.eye(2), rep)], np.zeros((2, 2)),
                           LinearRep(np.eye(D_X)[2:4]))


# estimator -> its call on one law
ESTIMATORS = {
    "nrls_quantities": _nrls,
    "lower_isometry_tail_check/iid": lambda law: _tail(law, False),
    "lower_isometry_tail_check/blocked": lambda law: _tail(law, True),
    "hypercontractivity_c42": _c42,
    "geometric_profile_from_lds": lambda law: geometric_profile_from_lds(law.a, mc_samples=200_000),
}
# (estimator, law) pairs that are exact, so call no sampler at all: c42 on
# every law, the NRLS quantities on a Gaussian marginal
EXACT = ({("hypercontractivity_c42", law) for law in LAWS}
         | {("nrls_quantities", "gaussian"), ("nrls_quantities", "lds")})
# estimators that take an LDS's A, not a law, so run on the LDS law alone
LDS_ONLY = {"geometric_profile_from_lds"}
CASES = [(estimator, law) for estimator in sorted(ESTIMATORS) for law in sorted(LAWS)
         if estimator not in LDS_ONLY or law == "lds"]


@pytest.fixture
def sampler_calls(monkeypatch):
    """The values (rows x d_x) that each law sampler call returns, in call order."""
    sizes = []

    def recording(sampler):
        def wrapped(self, *args, **kwargs):
            out = sampler(self, *args, **kwargs)
            sizes.append(out.size)
            return out
        return wrapped

    tree = [CovariateLaw]
    for cls in tree:  # the base, then every law or private base below it
        tree.extend(cls.__subclasses__())
    for cls in set(tree):
        for name in SAMPLERS:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, recording(vars(cls)[name]))
    return sizes


@pytest.mark.parametrize("estimator,law", CASES)
def test_monte_carlo_estimators_draw_in_budget_chunks(estimator, law, sampler_calls):
    ESTIMATORS[estimator](LAWS[law])
    if (estimator, law) in EXACT:
        assert sampler_calls == []
    else:
        assert sampler_calls
        assert max(sampler_calls) <= core.MC_DRAW_BUDGET


def test_every_monte_carlo_estimator_is_checked_or_listed():
    """The public functions that take a sample size (``mc_samples`` or
    ``calibration_samples``) are exactly the ones the chunk rule above runs,
    apart from those exact on every law, which take none and must draw nothing."""
    modules = [importlib.import_module(f"transferlab.{info.name}")
               for info in pkgutil.iter_modules(transferlab.__path__) if info.name[0] != "_"]
    sized = {name for module in modules
             for name, fn in inspect.getmembers(module, inspect.isfunction)
             if fn.__module__ == module.__name__ and name[0] != "_"
             and {"mc_samples", "calibration_samples"} & set(inspect.signature(fn).parameters)}
    checked = {name.split("/")[0] for name in ESTIMATORS}
    exact_everywhere = {name for name in checked if all((name, law) in EXACT for law in LAWS)}
    assert sized == checked - exact_everywhere


def test_population_memory_does_not_grow_with_the_source_count():
    # T = 64 and d_x = 64 with one Gaussian law: 65 separate laws held 4.3 MB
    # (a 32 KB covariance and a 32 KB root each); the one shared law, 0.09 MB
    pop = {**example_config()["population"], "d_x": 64, "num_sources": 64,
           "law": {"kind": "gaussian", "scale_spread": 1.0}}
    tracemalloc.start()
    try:
        spec = build_population(pop, seed=0)
        held = tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()
    assert spec.num_sources == 64
    assert held < 0.5


def test_first_stage_memory_is_the_gram_stack():
    """The fit keeps the (T, d_x, d_x) stack of task Grams, T d_x^2 8 bytes
    (2.1 MB at T = 64, d_x = 64); everything else it holds grows with T d_x
    (r + d_y + k) or (r d_x)^2 at most: the cross moments, the per-iteration
    S_t G^T, the padded features and labels of the refit (k = 65 factor rows),
    the (r d_x)^2 normal matrix and the spectral start's d_x x T d_y solve, each
    under 0.2 MB here. So its traced peak above its inputs stays below the
    Gram stack plus 1 MB. Zero-padding every task's rows into one (T, k, d_x)
    stack, another 2.1 MB, peaked at 4.7 MB."""
    t, d_x = 64, 64
    pop = {**example_config()["population"], "d_x": d_x, "r": 2, "num_sources": t,
           "law": {"kind": "gaussian", "scale_spread": 1.0}}
    spec = build_population(pop, seed=0)
    sources = sample_task_stats(SampleRequest(spec=spec, per_task_n=(128,) * (t + 1), seed=0),
                                tasks=range(1, t + 1))
    fit_first_stage_linear(sources, r=2)  # untraced: the first fit imports scipy.linalg
    peak = traced_peak_mb(lambda: fit_first_stage_linear(sources, r=2))
    assert peak < (t * d_x * d_x * 8 + 2 ** 20) / 1e6
